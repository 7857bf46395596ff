//! Every subcommand refuses a flag it does not read, through the real
//! binary: exit code 2 and an error naming the flag and the subcommand.
//! A value a flag does not accept, such as an unknown preset, exits 1.

use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_tvnep-cli")
}

fn refused(args: &[&str], flag: &str) {
    let out = Command::new(bin()).args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(flag), "{args:?}: {stderr}");
    assert!(stderr.contains(args[0]), "{args:?}: {stderr}");
}

fn refuses_unknown_preset(cmd: &str) {
    let out = Command::new(bin())
        .args([cmd, "--preset", "bogus"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
    assert!(stderr.contains("unknown preset bogus"), "{cmd}: {stderr}");
}

#[test]
fn generate_refuses_an_unknown_preset() {
    refuses_unknown_preset("generate");
}

#[test]
fn campaign_refuses_an_unknown_preset() {
    refuses_unknown_preset("campaign");
}

#[test]
fn load_refuses_an_unknown_preset() {
    refuses_unknown_preset("load");
}

#[test]
fn load_refuses_unknown_and_removed_flags() {
    refused(
        &["load", "--bogus-flag", "1", "--duration", "0.5"],
        "--bogus-flag",
    );
    refused(&["load", "--node-budget", "5"], "--node-budget");
    refused(&["load", "--track-util"], "--track-util");
}

#[test]
fn serve_refuses_the_removed_budget_flags() {
    refused(&["serve", "--node-budget", "500"], "--node-budget");
    refused(&["serve", "--deadline-ms", "50"], "--deadline-ms");
}

#[test]
fn serve_refuses_the_removed_tracker_flag() {
    refused(&["serve", "--track-util"], "--track-util");
}

#[test]
fn usage_lists_the_flags_load_reads() {
    let out = Command::new(bin()).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let usage = String::from_utf8_lossy(&out.stderr);
    let load = usage
        .lines()
        .find(|l| l.trim_start().starts_with("tvnep-cli load"))
        .expect("a load usage line");
    for flag in ["--util-out", "--trace", "--chrome-trace", "--metrics-out"] {
        assert!(load.contains(flag), "{load}");
    }
    assert!(!load.contains("--node-budget"), "{load}");
}

#[test]
fn a_flag_the_subcommand_reads_is_accepted() {
    let dir = std::env::temp_dir().join(format!("tvnep-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("m.json");
    let out = Command::new(bin())
        .args(["load", "--duration", "0.5", "--metrics-out"])
        .arg(&metrics)
        .args(["-o"])
        .arg(dir.join("slo.json"))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(metrics.exists());
    std::fs::remove_dir_all(&dir).ok();
}
