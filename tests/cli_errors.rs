//! Bad command lines fail loudly: the binaries exit 2 with a usage
//! message instead of doing nothing, running the wrong engine, or
//! panicking on an engine assert.

use std::process::Command;

/// Runs `bin` with `args` and returns (exit code, stderr).
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// Text each binary's usage error prints.
const EXPERIMENTS_USAGE: &str = "usage: experiments";
const SIMULATE_USAGE: &str = "see `simulate --help`";

#[test]
fn experiments_rejects_an_unknown_subcommand() {
    // `bench` and `bench-sharded` are retired: `hostbench/` is the benchmark.
    for sub in ["frobnicate", "bench", "bench-sharded"] {
        let (code, stderr) = run(env!("CARGO_BIN_EXE_experiments"), &["--quick", sub]);
        assert_eq!(code, Some(2), "{sub}: stderr: {stderr}");
        assert!(stderr.contains(&format!("unknown subcommand: {sub}")), "{sub}: stderr: {stderr}");
        assert!(stderr.contains(EXPERIMENTS_USAGE), "{sub}: stderr: {stderr}");
    }
}

/// Sizing and shape flags no run can honour (a zero, more materialized
/// users than users, or a think-time multiplier below 1 or not finite)
/// fail at parse time instead of on an engine assert or in a dead run.
#[test]
fn zero_sizing_flags_are_usage_errors() {
    let simulate = env!("CARGO_BIN_EXE_simulate");
    let experiments = env!("CARGO_BIN_EXE_experiments");
    let cases: &[(&str, &[&str], &str)] = &[
        (simulate, &["--mds", "0"], SIMULATE_USAGE),
        (simulate, &["--mds", "0", "--shards", "2"], SIMULATE_USAGE),
        (simulate, &["--clients", "0"], SIMULATE_USAGE),
        (simulate, &["--osds", "0"], SIMULATE_USAGE),
        (simulate, &["--cache", "0"], SIMULATE_USAGE),
        (simulate, &["--diurnal-period", "0", "--workload", "diurnal"], SIMULATE_USAGE),
        (simulate, &["--night-mult", "0", "--workload", "diurnal"], SIMULATE_USAGE),
        (simulate, &["--night-mult", "-1", "--workload", "diurnal"], SIMULATE_USAGE),
        (simulate, &["--night-mult", "0.5", "--workload", "diurnal"], SIMULATE_USAGE),
        (simulate, &["--night-mult", "nan", "--workload", "diurnal"], SIMULATE_USAGE),
        (simulate, &["--night-mult", "inf", "--workload", "diurnal"], SIMULATE_USAGE),
        (experiments, &["scale", "--mds", "0"], EXPERIMENTS_USAGE),
        (experiments, &["scale", "--clients", "0"], EXPERIMENTS_USAGE),
        (experiments, &["scale", "--users", "0"], EXPERIMENTS_USAGE),
        (experiments, &["scale", "--materialize", "0"], EXPERIMENTS_USAGE),
        (experiments, &["scale", "--ring", "0"], EXPERIMENTS_USAGE),
        (experiments, &["scale", "--materialize", "5", "--users", "4"], EXPERIMENTS_USAGE),
    ];
    for &(bin, args, banner) in cases {
        let (code, stderr) = run(bin, args);
        let i = args.iter().position(|a| a.starts_with("--")).expect("case names a flag");
        assert_eq!(code, Some(2), "{args:?}: stderr: {stderr}");
        // The error names the first flag and its rejected value.
        assert!(
            stderr.contains(&format!("{}: {} (want ", args[i], args[i + 1])),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains(banner), "{args:?}: stderr: {stderr}");
    }
}

#[test]
fn simulate_rejects_elastic_without_shards() {
    let (code, stderr) = run(env!("CARGO_BIN_EXE_simulate"), &["--strategy", "elastic"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--strategy elastic needs --shards"), "stderr: {stderr}");
}

/// A flag the chosen engine would ignore fails as bad usage instead of
/// running as if it were absent.
#[test]
fn flags_the_chosen_engine_ignores_are_usage_errors() {
    let cases: &[(&[&str], &str)] = &[
        (&["--shards", "2", "--shared-writes"], "--shared-writes is not supported with --shards"),
        (&["--shards", "2", "--dir-hash", "8"], "--dir-hash is not supported with --shards"),
        (&["--osds", "2", "--shards", "2"], "--osds is not supported with --shards"),
        (&["--force-dense"], "--force-dense needs --shards"),
        (&["--threads", "3"], "--threads needs --shards"),
        (&["--shards", "0", "--threads", "3"], "--threads needs --shards"),
    ];
    for &(args, want) in cases {
        let (code, stderr) = run(env!("CARGO_BIN_EXE_simulate"), args);
        assert_eq!(code, Some(2), "{args:?}: stderr: {stderr}");
        assert!(stderr.contains(want), "{args:?}: stderr: {stderr}");
        assert!(stderr.contains(SIMULATE_USAGE), "{args:?}: stderr: {stderr}");
    }
}

/// A fault naming a node past the cluster fails as bad usage, on both
/// engines and in `availability`, instead of panicking mid-run.
#[test]
fn faults_outside_the_cluster_are_usage_errors() {
    let simulate = env!("CARGO_BIN_EXE_simulate");
    let experiments = env!("CARGO_BIN_EXE_experiments");
    let cases: &[(&str, &[&str], &str)] = &[
        (simulate, &["--mds", "4", "--faults", "crash:9@1.5s"], SIMULATE_USAGE),
        (simulate, &["--mds", "4", "--faults", "crash:9@1.5s", "--shards", "2"], SIMULATE_USAGE),
        (simulate, &["--mds", "4", "--fail", "9@1"], SIMULATE_USAGE),
        (simulate, &["--mds", "4", "--recover", "4@1"], SIMULATE_USAGE),
        (simulate, &["--mds", "4", "--faults", "churn:mtbf=4s,mttr=1s,nodes=4-6"], SIMULATE_USAGE),
        (experiments, &["--quick", "availability", "--faults", "crash:9@4s"], EXPERIMENTS_USAGE),
    ];
    for &(bin, args, banner) in cases {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{args:?}: stderr: {stderr}");
        assert!(stderr.contains("is outside the"), "{args:?}: stderr: {stderr}");
        assert!(stderr.contains(banner), "{args:?}: stderr: {stderr}");
    }
}
