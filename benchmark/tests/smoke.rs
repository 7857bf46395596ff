//! Runs the real binary at toy sizes: `run --smoke` (one round plus the
//! traced round) twice, then `agree` on the results.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use tvnep_telemetry::Json;

const BIN: &str = env!("CARGO_BIN_EXE_tvnep-benchmark");

fn spec_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

struct SmokeRun {
    dir: PathBuf,
    stdout: String,
    doc: Json,
}

/// The two smoke runs, made once and shared by every test.
fn runs() -> &'static [SmokeRun; 2] {
    static RUNS: OnceLock<[SmokeRun; 2]> = OnceLock::new();
    RUNS.get_or_init(|| {
        let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
        let _ = std::fs::remove_dir_all(&root);
        ["a", "b"].map(|name| {
            let dir = root.join(name);
            let out = Command::new(BIN)
                .args(["run", "--smoke", "--out"])
                .arg(&dir)
                .output()
                .expect("run the benchmark");
            assert!(
                out.status.success(),
                "smoke run failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            SmokeRun {
                doc: load(&dir.join("run.json")),
                stdout: String::from_utf8(out.stdout).expect("utf-8 output"),
                dir,
            }
        })
    })
}

fn workload<'a>(doc: &'a Json, name: &str) -> &'a Json {
    doc.get("workloads")
        .and_then(|w| w.get(name))
        .unwrap_or_else(|| panic!("no workload {name}"))
}

fn names(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_benchmark_metric_is_printed_with_its_unit() {
    let spec = load(&spec_path());
    let out = &runs()[0].stdout;
    let workloads = names(&spec, "workloads");
    assert_eq!(workloads.len(), 4);
    for key in ["end_to_end", "per_layer"] {
        for (metric, unit) in names(&spec, key) {
            for (w, _) in &workloads {
                let printed = out.lines().any(|l| {
                    let f: Vec<&str> = l.split(' ').collect();
                    f.len() == 4 && f[0] == w && f[1] == metric && f[3] == unit
                });
                assert!(printed, "`{w} {metric} <value> {unit}` not printed");
            }
        }
    }
}

#[test]
fn every_check_passes_and_tracing_changes_no_work() {
    // A run compares its rounds' exact counts with the traced round's and
    // fails the workload on any difference.
    for run in runs() {
        for (name, w) in run.doc.get("workloads").and_then(Json::as_object).unwrap() {
            assert_eq!(w.get("correct"), Some(&Json::Bool(true)), "{name}: {w:?}");
            assert!(w.get("attempted").and_then(Json::as_u64).unwrap() > 0);
        }
    }
}

#[test]
fn outside_timed_layers_cover_the_wall_time() {
    for (name, w) in runs()[0]
        .doc
        .get("workloads")
        .and_then(Json::as_object)
        .unwrap()
    {
        let unattributed = w
            .get("per_layer")
            .and_then(|p| p.get("unattributed_pct"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!(unattributed <= 5.0, "{name}: {unattributed}% unattributed");
    }
}

#[test]
fn exact_counts_repeat_across_runs() {
    let [a, b] = runs();
    for name in [
        "prove_deep",
        "sweep_shallow",
        "serve_open",
        "serve_saturated",
    ] {
        let counts = |doc| workload(doc, name).get("counts").cloned();
        assert!(counts(&a.doc).is_some());
        assert_eq!(counts(&a.doc), counts(&b.doc), "{name}");
    }
}

#[test]
fn open_and_saturated_service_decide_identically() {
    for run in runs() {
        let digest = |name| workload(&run.doc, name).get("digest").cloned();
        assert!(matches!(digest("serve_open"), Some(Json::Str(_))));
        assert_eq!(digest("serve_open"), digest("serve_saturated"));
    }
}

fn agree(a: &Path, b: &Path) -> (i32, String) {
    let out = Command::new(BIN)
        .arg("agree")
        .arg(a)
        .arg(b)
        .arg("--spec")
        .arg(spec_path())
        .output()
        .expect("run agree");
    (
        out.status.code().expect("exit code"),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

/// Rewrites `run.json` with `edit` applied to one workload's entry.
fn perturbed(run: &SmokeRun, name: &str, edit: impl Fn(&mut Vec<(String, Json)>)) -> PathBuf {
    let mut doc = run.doc.clone();
    let Json::Obj(top) = &mut doc else { panic!() };
    let (_, Json::Obj(ws)) = top.iter_mut().find(|(k, _)| k == "workloads").unwrap() else {
        panic!()
    };
    let (_, Json::Obj(w)) = ws.iter_mut().find(|(k, _)| k == name).unwrap() else {
        panic!()
    };
    edit(w);
    let path = run.dir.join(format!("perturbed-{name}.json"));
    std::fs::write(&path, doc.pretty()).unwrap();
    path
}

fn member<'a>(obj: &'a mut [(String, Json)], key: &str) -> &'a mut Json {
    &mut obj.iter_mut().find(|(k, _)| k == key).unwrap().1
}

#[test]
fn agree_accepts_a_self_compare() {
    let a = runs()[0].dir.join("run.json");
    let (code, out) = agree(&a, &a);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("host A host.calib_ms="), "{out}");
    assert!(out.contains("diff=+0.00%"), "{out}");
}

#[test]
fn agree_rejects_a_slower_copy() {
    let run = &runs()[0];
    let slower = perturbed(run, "sweep_shallow", |w| {
        let Json::Obj(e2e) = member(w, "end_to_end") else {
            panic!()
        };
        let Json::Obj(wall) = member(e2e, "wall_s") else {
            panic!()
        };
        let v = member(wall, "value");
        *v = Json::from(v.as_f64().unwrap() * 1.5);
    });
    let (code, out) = agree(&run.dir.join("run.json"), &slower);
    assert_eq!(code, 2, "{out}");
    assert!(
        out.contains("sweep_shallow wall_s") && out.contains("DISAGREE"),
        "{out}"
    );
}

#[test]
fn agree_rejects_a_changed_count() {
    let run = &runs()[0];
    let changed = perturbed(run, "prove_deep", |w| {
        let Json::Obj(counts) = member(w, "counts") else {
            panic!()
        };
        let v = member(counts, "mip.nodes");
        *v = Json::from(v.as_u64().unwrap() + 1);
    });
    let (code, out) = agree(&run.dir.join("run.json"), &changed);
    assert_eq!(code, 2, "{out}");
    assert!(
        out.contains("prove_deep mip.nodes") && out.contains("DISAGREE"),
        "{out}"
    );
}
