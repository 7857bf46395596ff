//! `agree A.json B.json`: do two `run` documents agree within the
//! benchmark's own bounds? Exact counts must be equal; each end-to-end
//! metric must differ by no more than its bound in `BENCHMARK.json`, either
//! way.

use std::path::Path;

use tvnep_telemetry::Json;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compares two run documents under the bounds of `spec`, printing one line
/// per comparison; `Ok(true)` when they agree.
pub fn agree(a: &Path, b: &Path, spec: &Path) -> Result<bool, String> {
    let (a, b, spec) = (load(a)?, load(b)?, load(spec)?);
    let bounds: Vec<(&str, f64)> = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("spec has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.zip(bound).ok_or("spec metric without name or bound")
        })
        .collect::<Result<_, _>>()?;
    let workloads = |d: &Json| {
        d.get("workloads")
            .and_then(Json::as_object)
            .unwrap_or(&[])
            .to_vec()
    };
    let (wa, wb) = (workloads(&a), workloads(&b));
    let mut ok = !wa.is_empty();
    for (name, da) in &wa {
        let Some((_, db)) = wb.iter().find(|(n, _)| n == name) else {
            println!("{name} missing from B DISAGREE");
            ok = false;
            continue;
        };
        for (side, d) in [("A", da), ("B", db)] {
            if d.get("correct") != Some(&Json::Bool(true)) {
                println!("{name} checks failed in {side} DISAGREE");
                ok = false;
            }
        }
        let counts = |d: &Json| {
            d.get("counts")
                .and_then(Json::as_object)
                .unwrap_or(&[])
                .to_vec()
        };
        let (ca, cb) = (counts(da), counts(db));
        for (k, va) in &ca {
            let vb = cb.iter().find(|(n, _)| n == k).map(|(_, v)| v);
            let same = vb == Some(va);
            ok &= same;
            let vb = vb.map_or("missing".to_string(), Json::to_string);
            println!("{name} {k} A={va} B={vb} {}", verdict(same));
        }
        for &(metric, bound) in &bounds {
            let value = |d: &Json| {
                d.get("end_to_end")
                    .and_then(|e| e.get(metric))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
            };
            let (Some(va), Some(vb)) = (value(da), value(db)) else {
                println!("{name} {metric} missing DISAGREE");
                ok = false;
                continue;
            };
            let rel = (vb - va) / va;
            let same = rel.abs() <= bound;
            ok &= same;
            println!(
                "{name} {metric} A={va} B={vb} diff={:+.2}% bound={:.0}% {}",
                rel * 100.0,
                bound * 100.0,
                verdict(same)
            );
        }
    }
    for (side, d) in [("A", &a), ("B", &b)] {
        let host = d.get("host");
        let calib = |k: &str| {
            host.and_then(|h| h.get(k))
                .map_or("?".into(), Json::to_string)
        };
        println!(
            "host {side} host.calib_ms={} traced={}",
            calib("calib_ms"),
            calib("traced_calib_ms")
        );
    }
    Ok(ok)
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "DISAGREE"
    }
}
