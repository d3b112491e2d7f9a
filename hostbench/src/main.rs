//! Host-time benchmark of the dynmds simulator.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! cargo run --release --manifest-path hostbench/Cargo.toml -- --smoke [--workload NAME]
//! ```
//!
//! One run repeats one workload's simulation ("round") for at least
//! `--seconds` of host time and at least three times, checks every
//! round's output, and prints each metric by name with its unit. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! ones with `--trace 1`. A traced run alternates untraced and traced
//! rounds and writes every span to `spans.jsonl`. See README.md.

mod measure;
mod report;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use report::{Run, SetupSample};
use workloads::{Kind, Round, Size};

const USAGE: &str =
    "usage: hostbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
       hostbench --smoke [--workload NAME] [--seed N] [--trace 0|1] [--out DIR]
workloads: fig2_sweep sharded_dense elastic_diurnal scale_tier";

/// Parsed command line.
#[derive(Debug)]
struct Opts {
    workload: Option<Kind>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

/// Parses the arguments after the program name. Anything unknown is an
/// error: a typo must not silently run the wrong benchmark.
fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: None,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                o.workload = Some(Kind::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value("--seed")?;
                o.seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                o.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                o.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?}: expected 0 or 1")),
                };
            }
            "--smoke" => o.smoke = true,
            "--out" => o.out = PathBuf::from(value("--out")?),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            other => return Err(format!("unknown subcommand {other:?}")),
        }
    }
    if o.workload.is_none() && !o.smoke {
        return Err("--workload is required (or --smoke for every workload)".to_string());
    }
    Ok(o)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return;
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Every pool fan-out — the sweep's points and the sharded engine's
    // windows — uses one thread per core, as the harness does by default,
    // so the pool's per-window dispatch and barrier wait are measured.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    dynmds_harness::parallel::set_thread_override(Some(threads));
    trace::set_workers(threads);
    if opts.trace {
        // The first install wins, so this must precede anything that
        // installs the harness's plain driver.
        dynmds_core::shard::install_parallel_driver(trace::traced_driver);
    } else {
        dynmds_harness::parallel::install_shard_driver();
    }
    let size = if opts.smoke { Size::Smoke } else { Size::Full };
    let kinds = opts.workload.map_or(Kind::ALL.to_vec(), |k| vec![k]);
    let mut all_correct = true;
    for kind in kinds {
        let seed = opts.seed.unwrap_or(kind.default_seed());
        all_correct &= run_workload(kind, size, seed, &opts, threads);
    }
    std::process::exit(if all_correct { 0 } else { 1 });
}

/// Rounds a run makes at least: enough for a median set-up time, and in
/// a traced run enough of each kind for the overhead comparison.
fn min_rounds(size: Size, traced: bool) -> usize {
    match (size, traced) {
        (Size::Full, false) => 3,
        (Size::Full, true) => 4,
        (_, false) => 1,
        (_, true) => 2,
    }
}

/// Rounds of `kind` until the time budget is spent, then checks, metrics
/// and output. Returns whether every check passed.
fn run_workload(kind: Kind, size: Size, seed: u64, opts: &Opts, threads: usize) -> bool {
    let trace_before = trace::totals();
    let mut problems = workloads::pre_checks(kind, size, seed);
    let run = run_rounds(kind, size, seed, opts.trace, opts.seconds);
    let rounds = &run.rounds;
    problems.extend(round_problems(rounds));

    let correct = problems.is_empty();
    let attempted: u64 = rounds.iter().map(|r| r.ops() + r.failed()).sum();
    let failed = if correct { rounds.iter().map(Round::failed).sum() } else { attempted };
    let metrics =
        if opts.trace { report::per_layer(&run, threads) } else { report::end_to_end(kind, &run) };
    let line = report::result_line(correct, attempted, failed, &metrics);

    let traced = rounds.iter().filter(|r| r.traced).count();
    println!(
        "hostbench: {} seed {seed} threads {threads} rounds {} ({traced} traced) set-ups {} \
         digest {:016x} calibration {:.3} ms (x{:.3} to reference-host time)",
        kind.name(),
        rounds.len(),
        run.setups.len(),
        rounds[0].digest,
        run.kernel_s() * 1e3,
        report::reference_factor(kind, run.kernel_s())
    );
    for x in &metrics {
        println!("  {:<32} {:>18.6} {}", x.name, x.value, x.unit);
    }
    if opts.trace {
        print!("{}", report::ledger(rounds, threads));
    }
    for p in &problems {
        println!("  CHECK FAILED: {p}");
    }

    let dir = opts.out.join(kind.name());
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| {
            let json = report::results_json(kind, seed, threads, &run, &problems, &line);
            std::fs::write(dir.join("results.json"), json)
        })
        .and_then(|()| {
            if opts.trace {
                std::fs::write(dir.join("spans.jsonl"), trace::spans_jsonl(&trace_before))
            } else {
                Ok(())
            }
        });
    if let Err(e) = &written {
        eprintln!("hostbench: cannot write {}: {e}", dir.display());
    }
    println!("{line}");
    correct && written.is_ok()
}

/// After each round, the workload is set up on its own (and dropped), each
/// time followed by the calibration kernel, for about this share of the
/// round's host time, at least once, so that `setup_s` is a median over
/// many set-ups spread across the run. Set-up is short — 8 ms on
/// `elastic_diurnal` — and one scheduling hiccup doubles it: there, the
/// median over a run's own three or four rounds moved 37 % between two
/// sets of ten runs. The share is 0.15 rather than 0.1 because the kernel
/// takes a third to a half of the sampling time.
const SETUP_SHARE: f64 = 0.15;

/// Repeats rounds for at least `seconds` of host time, each followed by
/// set-up samples. A traced run alternates untraced and traced rounds,
/// starting untraced.
fn run_rounds(kind: Kind, size: Size, seed: u64, traced: bool, seconds: f64) -> Run {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let (mut rounds, mut setups) = (Vec::new(), Vec::new());
    loop {
        trace::set_enabled(traced && rounds.len() % 2 == 1);
        let round = workloads::round(kind, size, seed, rounds.len() as u64);
        trace::set_enabled(false);
        let (sampling, mut taken) = (Instant::now(), 0);
        while taken == 0 || sampling.elapsed().as_secs_f64() < SETUP_SHARE * round.wall_s {
            let t = Instant::now();
            let setup_s = workloads::setup_sample(kind, size, seed);
            let kernel_s = workloads::kernel_s(kind, t.elapsed().as_secs_f64());
            setups.push(SetupSample { setup_s, kernel_s });
            taken += 1;
        }
        rounds.push(round);
        let enough = rounds.len() >= min_rounds(size, traced);
        if enough && (size != Size::Full || start.elapsed() >= budget) {
            return Run { rounds, setups };
        }
    }
}

/// Checks across rounds: each round's own checks, identical simulated
/// output in every round (traced or not), and a traced driver that
/// stepped every shard exactly once per window.
fn round_problems(rounds: &[Round]) -> Vec<String> {
    let mut problems: Vec<String> = rounds.iter().flat_map(|r| r.problems.clone()).collect();
    problems.sort();
    problems.dedup();
    if rounds.iter().any(|r| r.digest != rounds[0].digest) {
        let digests: Vec<String> = rounds.iter().map(|r| format!("{:016x}", r.digest)).collect();
        problems.push(format!("report digests differ between rounds: {}", digests.join(" ")));
    }
    let misdispatched: u64 =
        rounds.iter().filter_map(|r| r.trace).map(|t| t.fanout.misdispatched).sum();
    if misdispatched > 0 {
        problems.push(format!("{misdispatched} windows did not step every shard exactly once"));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_subcommands_and_flags_are_rejected() {
        for bad in [
            &["run"][..],
            &["--workload", "fig2_sweep", "extra"],
            &["--frobnicate"],
            &["--workload", "nope"],
            &["--workload"],
            &["--workload", "fig2_sweep", "--trace", "2"],
            &["--workload", "fig2_sweep", "--seconds", "0"],
            &["--workload", "fig2_sweep", "--seed", "-1"],
            &[],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} was accepted");
        }
        let o = parse_args(&args(&[
            "--workload",
            "scale_tier",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("the benchmark's own command line parses");
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Some(Kind::ScaleTier), Some(7), 10.0, true)
        );
        assert!(parse_args(&args(&["--smoke"])).is_ok());
    }

    /// Metric names listed under `key` in BENCHMARK.json.
    fn declared(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let section = &text[start..start + text[start..].find(']').expect("list closes")];
        section
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn results_json_holds_every_declared_metric_for_every_workload() {
        let _g = workloads::tests::serial();
        let (e2e, layers) = (declared("end_to_end"), declared("per_layer"));
        assert!(e2e.iter().any(|n| n == "setup_s") && layers.len() > 10);
        for kind in Kind::ALL {
            let seed = kind.default_seed();
            let rounds = vec![workloads::round(kind, Size::Tiny, seed, 0), {
                trace::set_enabled(true);
                let r = workloads::round(kind, Size::Tiny, seed, 1);
                trace::set_enabled(false);
                r
            }];
            assert_eq!(
                rounds[0].digest,
                rounds[1].digest,
                "{}: tracing changed the output",
                kind.name()
            );
            let setup_s = workloads::setup_sample(kind, Size::Tiny, seed);
            assert!(setup_s > 0.0, "{}: empty set-up sample", kind.name());
            let kernel_s = workloads::kernel_s(kind, setup_s);
            let setups = vec![SetupSample { setup_s, kernel_s }];
            let run = Run { rounds, setups };
            for (names, metrics) in
                [(&e2e, report::end_to_end(kind, &run)), (&layers, report::per_layer(&run, 2))]
            {
                let line = report::result_line(true, 1, 0, &metrics);
                let json = report::results_json(kind, 1, 2, &run, &[], &line);
                for n in names {
                    assert!(
                        json.contains(&format!("\"{n}\": {{\"value\": ")),
                        "{}: {n} missing",
                        kind.name()
                    );
                }
                assert_eq!(metrics.len(), names.len(), "{}: undeclared metrics", kind.name());
            }
        }
    }
}
