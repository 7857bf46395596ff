//! `tvnep-benchmark` — the repository's benchmark: four workloads measured
//! end to end and split by layer, driving the solver and the admission
//! service through their public APIs. See `README.md` beside this crate.
//!
//! ```text
//! tvnep-benchmark measure --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! tvnep-benchmark run [--seed 7] [--out DIR] [--smoke]
//! tvnep-benchmark agree A.json B.json [--spec BENCHMARK.json]
//! ```
//!
//! `measure` is one run of one workload; its last line of output is
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer ones (`--trace 1`). `run` runs
//! every workload in fresh child processes and writes the ledger; `agree`
//! compares two ledgers. Exit codes: 0 success, 1 failed check or error,
//! 2 disagreement.

mod agree;
mod checks;
mod host;
mod ledger;
mod measure;
mod run;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::MeasureArgs;
use run::RunArgs;
use workloads::{Scale, Workload};

/// Command-line words after the subcommand: `--key value` options, bare
/// `--flag`s and positional arguments. Unknown keys are errors.
struct Args {
    options: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(words: &[String], keys: &[&str], flags: &[&str]) -> Result<Self, String> {
        let mut args = Args {
            options: Vec::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = words.iter();
        while let Some(w) = it.next() {
            match w.strip_prefix("--") {
                Some(k) if keys.contains(&k) => {
                    let v = it.next().ok_or(format!("--{k} needs a value"))?;
                    args.options.push((k.to_string(), v.clone()));
                }
                Some(f) if flags.contains(&f) => args.flags.push(f.to_string()),
                Some(other) => return Err(format!("unknown option --{other}")),
                None => args.positional.push(w.clone()),
            }
        }
        Ok(args)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: Option<T>) -> Result<T, String> {
        match self.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value '{v}'")),
            None => default.ok_or(format!("--{key} is required")),
        }
    }

    fn flag(&self, f: &str) -> bool {
        self.flags.iter().any(|x| x == f)
    }

    fn scale(&self) -> Scale {
        if self.flag("smoke") {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }
}

fn main() -> ExitCode {
    let words: Vec<String> = std::env::args().skip(1).collect();
    let result = match words.first().map(String::as_str) {
        Some("measure") => measure_cmd(&words[1..]),
        Some("run") => run_cmd(&words[1..]),
        Some("agree") => agree_cmd(&words[1..]),
        _ => Err("usage: tvnep-benchmark measure|run|agree ... (see README.md)".into()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("tvnep-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

fn measure_cmd(words: &[String]) -> Result<ExitCode, String> {
    let a = Args::parse(
        words,
        &[
            "workload",
            "seed",
            "seconds",
            "trace",
            "detail-out",
            "trace-out",
        ],
        &["smoke"],
    )?;
    let name = a.get("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload '{name}'"))?;
    let trace = match a.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace: expected 0 or 1, got '{t}'")),
    };
    let seconds: f64 = a.num("seconds", None)?;
    if !(0.0..=3600.0).contains(&seconds) {
        return Err(format!("--seconds: {seconds} is out of range"));
    }
    let result = measure::measure(&MeasureArgs {
        workload,
        seed: a.num("seed", None)?,
        seconds,
        trace,
        scale: a.scale(),
        detail_out: a.get("detail-out").map(PathBuf::from),
        trace_out: a.get("trace-out").map(PathBuf::from),
    })?;
    println!("{result}");
    Ok(ExitCode::SUCCESS)
}

fn run_cmd(words: &[String]) -> Result<ExitCode, String> {
    let a = Args::parse(words, &["seed", "out"], &["smoke"])?;
    let seed = a.num("seed", Some(7))?;
    let out = a.get("out").map_or_else(
        || PathBuf::from(format!("target/run-{seed}")),
        PathBuf::from,
    );
    let ok = run::run(&RunArgs {
        seed,
        out,
        smoke: a.flag("smoke"),
    })?;
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn agree_cmd(words: &[String]) -> Result<ExitCode, String> {
    let a = Args::parse(words, &["spec"], &[])?;
    let [x, y] = a.positional.as_slice() else {
        return Err("usage: tvnep-benchmark agree A.json B.json [--spec BENCHMARK.json]".into());
    };
    let spec = a.get("spec").unwrap_or("BENCHMARK.json");
    let ok = agree::agree(x.as_ref(), y.as_ref(), spec.as_ref())?;
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}
