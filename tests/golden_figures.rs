//! Golden-figure regression test: the optimized hot path (table-backed
//! authority, capacity-sized LRU arena, allocation-free traversal and
//! sampling) must not change simulation *results*, only their cost. Each table here
//! is regenerated in-process at `--quick` scale and compared byte-for-byte
//! against the CSVs under `tests/golden/quick/`, which were produced by
//! the seed revision's `experiments --quick --csv` run. (`ablate_warming`
//! was regenerated when the client retry policy replaced the fixed
//! re-drive: that table measures a post-failure window, so failover
//! timing is part of its expected output. The fault-free tables are
//! still the seed's bytes.)
//!
//! Only the cheaper figures are regenerated here; together these
//! exercise the flash-crowd path, the balancer's delegation churn, cache
//! insertion policy, shared writes and journal replay. All 18 goldens,
//! these included, are diffed against a release-binary
//! `experiments --quick --csv DIR all` run by CI's `golden-diff` job.

use dynmds_event::SimDuration;
use dynmds_harness::{ablation, flashrun, hotspotrun, ExperimentScale};
use dynmds_metrics::Table;

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/quick/{name}.csv", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn assert_matches_golden(name: &str, table: &Table) {
    let actual = table.to_csv();
    let expected = golden(name);
    if actual == expected {
        return;
    }
    // Persist the regenerated CSV so CI (and humans) can re-diff it:
    //   diff -u tests/golden/quick/<name>.csv target/golden-actual/<name>.csv
    let dir = format!("{}/target/golden-actual", env!("CARGO_MANIFEST_DIR"));
    std::fs::create_dir_all(&dir).ok();
    let path = format!("{dir}/{name}.csv");
    std::fs::write(&path, &actual).ok();
    panic!(
        "{name}.csv drifted from the seed revision's output — changes to the \
         simulator must stay result-preserving\n\
         regenerated CSV written to {path}\n{}",
        unified_diff(&expected, &actual)
    );
}

/// Line-level unified diff (full context — golden CSVs are small).
fn unified_diff(expected: &str, actual: &str) -> String {
    let a: Vec<&str> = expected.lines().collect();
    let b: Vec<&str> = actual.lines().collect();
    let mut lcs = vec![vec![0usize; b.len() + 1]; a.len() + 1];
    for i in (0..a.len()).rev() {
        for j in (0..b.len()).rev() {
            lcs[i][j] =
                if a[i] == b[j] { lcs[i + 1][j + 1] + 1 } else { lcs[i + 1][j].max(lcs[i][j + 1]) };
        }
    }
    let mut out = String::from("--- golden\n+++ regenerated\n");
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (tag, line) = if a[i] == b[j] {
            let l = a[i];
            (i, j) = (i + 1, j + 1);
            (' ', l)
        } else if lcs[i + 1][j] >= lcs[i][j + 1] {
            let l = a[i];
            i += 1;
            ('-', l)
        } else {
            let l = b[j];
            j += 1;
            ('+', l)
        };
        out.push(tag);
        out.push_str(line);
        out.push('\n');
    }
    for line in &a[i..] {
        out.push('-');
        out.push_str(line);
        out.push('\n');
    }
    for line in &b[j..] {
        out.push('+');
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[test]
fn unified_diff_marks_changed_lines() {
    let d = unified_diff("h\na,1\nb,2\n", "h\na,1\nb,3\n");
    assert!(d.starts_with("--- golden\n+++ regenerated\n"), "{d}");
    assert!(d.contains(" h\n"), "{d}");
    assert!(d.contains("-b,2\n"), "{d}");
    assert!(d.contains("+b,3\n"), "{d}");
}

#[test]
fn fig7_flash_crowd_matches_seed_output() {
    let r = flashrun::run_flash(ExperimentScale::Quick);
    let bin = SimDuration::from_millis(50);
    assert_matches_golden("fig7", &flashrun::fig7_table(&r, bin));
}

#[test]
fn ablate_balance_matches_seed_output() {
    let pts = ablation::run_ablate_balance(ExperimentScale::Quick);
    assert_matches_golden(
        "ablate_balance",
        &ablation::ablation_table("Table B: load balancing vs total throughput", &pts),
    );
}

#[test]
fn ablate_probation_matches_seed_output() {
    let pts = ablation::run_ablate_probation(ExperimentScale::Quick);
    assert_matches_golden(
        "ablate_probation",
        &ablation::ablation_table(
            "Table G: near-tail vs MRU insertion of prefetched metadata",
            &pts,
        ),
    );
}

#[test]
fn ablate_shared_writes_matches_seed_output() {
    let pts = ablation::run_ablate_shared_writes(ExperimentScale::Quick);
    assert_matches_golden(
        "ablate_shared_writes",
        &ablation::ablation_table(
            "Table F: GPFS-style shared writes under an N-to-1 write crowd",
            &pts,
        ),
    );
}

#[test]
fn hotspot_matches_committed_output() {
    // Golden produced by `experiments --quick --shards 2 hotspot`; the
    // shard/thread choice here is immaterial (the report is invariant —
    // `hotspot_csv_is_invariant_across_shard_counts` pins that), so this
    // test pins the *results* against the committed CSV.
    let pts = hotspotrun::run_hotspot(ExperimentScale::Quick, 2, Some(2));
    assert_matches_golden("hotspot", &hotspotrun::hotspot_table(&pts));
}

#[test]
fn ablate_warming_matches_seed_output() {
    let pts = ablation::run_ablate_journal_warming(ExperimentScale::Quick);
    assert_matches_golden(
        "ablate_warming",
        &ablation::ablation_table(
            "Table D: journal cache warming on failover (post-failure window)",
            &pts,
        ),
    );
}
