//! Bad command lines fail loudly: the binaries exit 2 with a usage
//! message instead of doing nothing or running the wrong engine.

use std::process::Command;

/// Runs `bin` with `args` and returns (exit code, stderr).
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn experiments_rejects_an_unknown_subcommand() {
    let (code, stderr) = run(env!("CARGO_BIN_EXE_experiments"), &["--quick", "frobnicate"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown subcommand: frobnicate"), "stderr: {stderr}");
    assert!(stderr.contains("usage: experiments"), "stderr: {stderr}");
}

#[test]
fn simulate_rejects_elastic_without_shards() {
    let (code, stderr) = run(env!("CARGO_BIN_EXE_simulate"), &["--strategy", "elastic"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--strategy elastic needs --shards"), "stderr: {stderr}");
}
