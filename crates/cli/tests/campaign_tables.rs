//! The figure targets through `tvnep-cli campaign`: `fig7` runs the exact
//! and greedy access-control series and writes Fig 7's and Fig 9's derived
//! tables next to `results.csv`, and `ablation` writes the two ablation
//! tables to `ablation.csv`.

use std::collections::HashMap;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_tvnep-cli")
}

#[test]
fn fig7_and_ablation_write_their_tables() {
    let dir = std::env::temp_dir().join(format!("tvnep-tables-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(bin())
        .args([
            "campaign",
            "fig7,ablation",
            "--preset",
            "tiny",
            "--seeds",
            "1",
            "--flexes",
            "0,1",
            "--time-limit",
            "10",
            "--threads",
            "1",
            "--quiet",
            "--out-dir",
        ])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
    };

    // results.csv: objective (column 5) per label, seed and flexibility.
    let results = read("results.csv");
    let mut objective: HashMap<(String, String, String), String> = HashMap::new();
    for row in results.lines().skip(1) {
        let c: Vec<&str> = row.split(',').collect();
        objective.insert((c[0].into(), c[1].into(), c[2].into()), c[5].into());
    }
    for label in ["csigma_access", "greedy_access"] {
        for flex in ["0", "1"] {
            assert!(
                objective.contains_key(&(label.into(), "1".into(), flex.into())),
                "results.csv lacks {label} at +{flex} h:\n{results}"
            );
        }
    }

    // fig7.csv: each shortfall is 1 − greedy/exact of the results.csv cells.
    let fig7 = read("fig7.csv");
    let mut lines = fig7.lines();
    assert_eq!(
        lines.next(),
        Some("# fig7_relative: label,seed,flex_h,greedy_rev,exact_rev,shortfall")
    );
    let mut rows = 0;
    for row in lines {
        let c: Vec<&str> = row.split(',').collect();
        assert_eq!(c[0], "fig7", "{row}");
        let key = |label: &str| (label.to_string(), c[1].to_string(), c[2].to_string());
        let greedy = &objective[&key("greedy_access")];
        let exact = &objective[&key("csigma_access")];
        assert_eq!((c[3], c[4]), (greedy.as_str(), exact.as_str()), "{row}");
        let (g, e): (f64, f64) = (greedy.parse().unwrap(), exact.parse().unwrap());
        let shortfall: f64 = c[5].parse().unwrap();
        assert!((shortfall - (1.0 - g / e)).abs() < 2e-4, "{row}");
        rows += 1;
    }
    assert!(rows > 0, "fig7.csv has no rows:\n{fig7}");

    assert!(read("fig9.csv").starts_with("# fig9_relative: "));

    let ablation = read("ablation.csv");
    for section in ["ablation_discrete", "ablation_cuts"] {
        assert!(ablation.contains(&format!("# {section}: ")), "{ablation}");
        assert!(
            ablation
                .lines()
                .any(|l| l.starts_with(&format!("{section},"))),
            "{ablation}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
