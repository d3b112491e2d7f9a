//! Property tests for the two fault/repro text parsers.
//!
//! * Arbitrary input never panics `FaultSchedule::parse` (the `--faults`
//!   flag) or `Repro::parse` (committed repro files): both either return
//!   a value or an error. The vendored proptest has no string strategy,
//!   so inputs are built from token alphabets: entries and lines that
//!   start with a real kind or directive and go on with random tokens,
//!   and valid repros with a few words replaced, deleted or cut off.
//! * `Repro::to_text` → `Repro::parse` round-trips exactly.

use dynmds_core::{DiskScope, FaultEvent, FaultSchedule, NetFaultSpec};
use dynmds_dst::{Repro, Scenario};
use dynmds_event::SimTime;
use dynmds_namespace::MdsId;
use dynmds_partition::StrategyKind;
use dynmds_storage::DiskFault;
use dynmds_workload::{Trace, TraceOp, TraceRecord};
use proptest::prelude::*;

/// Entry kinds of `--faults` specs, one bogus.
const FAULT_KINDS: &[&str] = &["crash", "recover", "churn", "disk", "net", "bogus"];

/// Pieces of `--faults` entry bodies: keys, separators, and numbers on
/// and past every range boundary the parser checks.
#[rustfmt::skip]
const FAULT_TOKENS: &[&str] = &[
    ":", "@", "..", ",", "=", "-", " ", "mtbf", "mttr", "seed", "until", "nodes", "lat", "iops",
    "err", "scope", "loss", "dup", "osd", "journal", "all", "0", "1", "3", "65535", "65536",
    "-1", "0.5", "1.5", "4x", "0x", "x", "s", "ms", "us", "5s", "250ms", "1500us", "1e308",
    "1e-300", "NaN", "inf", "-inf", "1-3", "3-1", "18446744073709551616",
];

/// Repro line directives, one bogus.
const DIRECTIVES: &[&str] = &["v", "scenario", "fault", "uids", "op", "end", "#", "bogus"];

/// Pieces of repro lines: fault and op kinds, scenario and fault keys,
/// and boundary values (including NaN and out-of-range float bits).
#[rustfmt::skip]
const REPRO_TOKENS: &[&str] = &[
    "1", "2", "crash", "recover", "disk", "net", "stat", "lookup", "open", "close", "readdir",
    "setattr", "create", "mkdir", "unlink", "rename", "chmod", "link", "name", "=", "0",
    "65535", "65536", "-1", "18446744073709551615", "18446744073709551616", "0x", "0xzz",
    "seed=1", "strategy=DynamicSubtree", "strategy=Bogus", "n_mds=4", "n_clients=2",
    "n_clients=0", "mds=1", "mds=65537", "at_us=5", "from_us=9", "until_us=9", "until_us=3",
    "scope=osd", "scope=moon", "lat_bits=0x7ff8000000000000", "err_bits=0x3ff8000000000000",
    "iops_bits=0x0", "loss_bits=0x0", "dup_bits=0xbfe0000000000000", "force_dense=1",
    "proxies=2", "proxy_thr=x",
];

fn join(tokens: &[&str], picks: &[usize], sep: &str) -> String {
    picks.iter().map(|&i| tokens[i % tokens.len()]).collect::<Vec<_>>().join(sep)
}

/// `KIND:` + body tokens per entry, entries joined by `;`. Each entry
/// starts with a real kind (mostly), so the parser gets past the first
/// split and into the key and value checks.
fn fault_spec(entries: &[(usize, Vec<usize>)]) -> String {
    let entry = |(k, body): &(usize, Vec<usize>)| {
        format!("{}:{}", FAULT_KINDS[k % FAULT_KINDS.len()], join(FAULT_TOKENS, body, ""))
    };
    entries.iter().map(entry).collect::<Vec<_>>().join(";")
}

/// One line per `(directive, argument tokens)`.
fn repro_lines(lines: &[(usize, Vec<usize>)]) -> String {
    let line = |(d, args): &(usize, Vec<usize>)| {
        format!("{} {}", DIRECTIVES[d % DIRECTIVES.len()], join(REPRO_TOKENS, args, " "))
    };
    lines.iter().map(line).collect::<Vec<_>>().join("\n")
}

const NAMES: &[&str] = &["a", "f1", "nl3", "x_y", "dir.7", "Ω"];

/// A random valid fault event: `kind` picks the variant and every field
/// stays inside the ranges the parser accepts.
fn fault_event((kind, a, b, node, p, q): (u8, u64, u64, u16, f64, f64)) -> FaultEvent {
    let from = SimTime::from_micros(a >> 2);
    let until = SimTime::from_micros((a >> 2) + 1 + (b >> 2));
    match kind % 4 {
        0 => FaultEvent::Crash { at: SimTime::from_micros(a), mds: MdsId(node) },
        1 => FaultEvent::Recover { at: SimTime::from_micros(a), mds: MdsId(node) },
        2 => FaultEvent::DiskDegrade {
            from,
            until,
            fault: DiskFault { latency_mult: p * 8.0, iops_mult: 0.05 + q, error_p: p * q },
            scope: [DiskScope::Osd, DiskScope::Journal, DiskScope::All][node as usize % 3],
        },
        _ => FaultEvent::NetFault { from, until, spec: NetFaultSpec { loss_p: p, dup_p: q } },
    }
}

/// A random trace record over every op kind.
fn record((kind, client, at_us, x, y, n): (u8, u32, u64, u64, u64, usize)) -> TraceRecord {
    let name = NAMES[n % NAMES.len()].to_string();
    let other = NAMES[(n / NAMES.len()) % NAMES.len()].to_string();
    let op = match kind % 12 {
        0 => TraceOp::Stat(x),
        1 => TraceOp::Lookup { dir: x, name },
        2 => TraceOp::Open(x),
        3 => TraceOp::Close(x),
        4 => TraceOp::Readdir(x),
        5 => TraceOp::SetAttr(x),
        6 => TraceOp::Create { dir: x, name },
        7 => TraceOp::Mkdir { dir: x, name },
        8 => TraceOp::Unlink { dir: x, name },
        9 => TraceOp::Rename { dir: x, name, new_name: other },
        10 => TraceOp::Chmod { target: x, mode: y as u16 },
        _ => TraceOp::Link { target: x, dir: y, name },
    };
    TraceRecord { client, at_us, op }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fault_spec_parser_never_panics(
        entries in prop::collection::vec(
            (0usize..1_000, prop::collection::vec(0usize..1_000, 0..12)),
            0..4,
        ),
    ) {
        let _ = FaultSchedule::parse(&fault_spec(&entries));
    }

    #[test]
    fn repro_parser_never_panics(
        lines in prop::collection::vec(
            (0usize..1_000, prop::collection::vec(0usize..1_000, 0..8)),
            0..10,
        ),
    ) {
        let _ = Repro::parse(&repro_lines(&lines));
    }

    #[test]
    fn repro_parser_never_panics_on_a_mutated_repro(
        seed in any::<u64>(),
        edits in prop::collection::vec((any::<usize>(), any::<usize>(), 0u8..3, 0usize..1_000), 1..6),
    ) {
        // Each edit picks a line and a word in it, then replaces that word
        // with an alphabet token, deletes it, or truncates the line there.
        let text = sample_repro(seed).to_text();
        let mut lines: Vec<Vec<&str>> =
            text.lines().map(|l| l.split(' ').collect()).collect();
        let n = lines.len();
        for &(line, word, action, tok) in &edits {
            let words = &mut lines[line % n];
            if words.is_empty() {
                continue;
            }
            let i = word % words.len();
            match action {
                0 => words[i] = REPRO_TOKENS[tok % REPRO_TOKENS.len()],
                1 => {
                    words.remove(i);
                }
                _ => words.truncate(i + 1),
            }
        }
        let text: Vec<String> = lines.iter().map(|w| w.join(" ")).collect();
        let _ = Repro::parse(&text.join("\n"));
    }

    #[test]
    fn repro_text_round_trips(
        seed in any::<u64>(),
        faults in prop::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u64>(), any::<u16>(), 0.0f64..1.0, 0.0f64..1.0),
            0..6,
        ),
        ops in prop::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>(), 0usize..36),
            0..24,
        ),
        note in prop::collection::vec(0usize..NAMES.len(), 0..12),
    ) {
        let mut r = sample_repro(seed);
        r.scenario.faults.events = faults.into_iter().map(fault_event).collect();
        r.trace.records = ops.into_iter().map(record).collect();
        // Three words per note line: no line is empty or padded, so each
        // survives the `# ` prefix and the parser's trim.
        r.note = note
            .chunks(3)
            .map(|c| c.iter().map(|&i| NAMES[i]).collect::<Vec<_>>().join(" "))
            .collect::<Vec<_>>()
            .join("\n");
        let text = r.to_text();
        let back = Repro::parse(&text).expect("a written repro parses");
        prop_assert_eq!(&back.scenario.faults, &r.scenario.faults);
        prop_assert_eq!(&back.trace, &r.trace);
        prop_assert_eq!(&back.uids, &r.uids);
        prop_assert_eq!(&back.note, &r.note);
        prop_assert_eq!(back.to_text(), text);
    }
}

/// A valid fault-free repro whose scenario expands from `seed`.
fn sample_repro(seed: u64) -> Repro {
    let strategy = StrategyKind::ALL[(seed % StrategyKind::ALL.len() as u64) as usize];
    let mut scenario = Scenario::from_seed(seed, strategy, 200);
    scenario.faults = FaultSchedule::default();
    scenario.force_dense = seed & 1 == 1;
    let uids = (0..scenario.n_clients).map(|c| c.wrapping_mul(seed as u32 | 1)).collect();
    let trace = Trace {
        snapshot_seed: scenario.seed ^ 0xF5,
        n_clients: scenario.n_clients,
        records: Vec::new(),
    };
    Repro { scenario, trace, uids, note: String::new() }
}
