//! Property tests for the two fault/repro text parsers.
//!
//! * Arbitrary input never panics `FaultSchedule::parse` (the `--faults`
//!   flag) or `Repro::parse` (committed repro files): both either return
//!   a value or an error. The vendored proptest has no string strategy,
//!   so inputs are built from token alphabets: entries and lines that
//!   start with a real kind or directive and go on with random tokens,
//!   and valid repros with a few words replaced, deleted or cut off.
//! * `Repro::to_text` → `Repro::parse` round-trips exactly, and so does
//!   a fault schedule written with `Display` and read back with
//!   `FaultSchedule::parse` (the grammar of both `--faults` and repro
//!   `fault` lines), float bits included.

use dynmds_core::{ChurnSpec, DiskScope, FaultEvent, FaultSchedule, NetFaultSpec};
use dynmds_dst::{Repro, Scenario};
use dynmds_event::{SimDuration, SimTime};
use dynmds_namespace::InodeId;
use dynmds_namespace::MdsId;
use dynmds_partition::StrategyKind;
use dynmds_storage::DiskFault;
use dynmds_workload::{Op, Trace, TraceRecord};
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

/// Pieces of repro lines: fault entries and op kinds, scenario keys, and
/// boundary values (including NaN and out-of-range fault fields).
#[rustfmt::skip]
const REPRO_TOKENS: &[&str] = &[
    "1", "2", "crash", "recover", "disk", "net", "stat", "lookup", "open", "close", "readdir",
    "setattr", "create", "mkdir", "unlink", "rename", "chmod", "link", "name", "=", "0",
    "65535", "65536", "-1", "18446744073709551615", "18446744073709551616", "0x", "0xzz",
    "seed=1", "strategy=DynamicSubtree", "strategy=Bogus", "n_mds=4", "n_clients=2",
    "n_clients=0", "crash:1@5us", "recover:65536@5us", "crash:1@5us;crash:2@6us",
    "churn:mtbf=1s,mttr=1s", "disk:lat=NaNx,scope=moon@1us..2us", "disk:iops=0x@9us..3us",
    "net:loss=1.5,dup=-0.5@1us..2us", "net:loss=0.1@18446744073709551616us..1us",
    "force_dense=1", "proxies=2", "proxy_thr=x",
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

/// A finite non-negative float from raw bits: zero and subnormals up to
/// 1.8e308.
fn finite(bits: u64) -> f64 {
    let v = f64::from_bits(bits & !(1 << 63));
    if v.is_finite() {
        v
    } else {
        1.0
    }
}

/// A probability in `[0, 1]` from raw bits.
fn prob(bits: u64) -> f64 {
    let v = finite(bits);
    if v <= 1.0 {
        v
    } else {
        1.0 / v
    }
}

/// A random valid fault event: `kind` picks the variant and every field
/// stays inside the ranges the parser accepts.
fn fault_event((kind, a, b, node, p, q): (u8, u64, u64, u16, u64, u64)) -> FaultEvent {
    let from = SimTime::from_micros(a >> 2);
    let until = SimTime::from_micros((a >> 2) + 1 + (b >> 2));
    match kind % 4 {
        0 => FaultEvent::Crash { at: SimTime::from_micros(a), mds: MdsId(node) },
        1 => FaultEvent::Recover { at: SimTime::from_micros(a), mds: MdsId(node) },
        2 => FaultEvent::DiskDegrade {
            from,
            until,
            fault: DiskFault {
                latency_mult: finite(p),
                iops_mult: Some(finite(q)).filter(|&v| v > 0.0).unwrap_or(1.0),
                error_p: prob(p ^ q),
            },
            scope: [DiskScope::Osd, DiskScope::Journal, DiskScope::All][node as usize % 3],
        },
        _ => FaultEvent::NetFault {
            from,
            until,
            spec: NetFaultSpec { loss_p: prob(p), dup_p: prob(q) },
        },
    }
}

/// Every float of a schedule's events, as bits.
fn float_bits(s: &FaultSchedule) -> Vec<u64> {
    let floats = |e: &FaultEvent| match *e {
        FaultEvent::DiskDegrade { fault, .. } => {
            vec![fault.latency_mult, fault.iops_mult, fault.error_p]
        }
        FaultEvent::NetFault { spec, .. } => vec![spec.loss_p, spec.dup_p],
        _ => Vec::new(),
    };
    s.events.iter().flat_map(floats).map(f64::to_bits).collect()
}

/// A random trace record over every op kind.
fn record((kind, client, at_us, x, y, n): (u8, u32, u64, u64, u64, usize)) -> TraceRecord {
    let name = NAMES[n % NAMES.len()].to_string();
    let other = NAMES[(n / NAMES.len()) % NAMES.len()].to_string();
    let (x, y) = (InodeId(x), InodeId(y));
    let op = match kind % 12 {
        0 => Op::Stat(x),
        1 => Op::Lookup { dir: x, name },
        2 => Op::Open(x),
        3 => Op::Close(x),
        4 => Op::Readdir(x),
        5 => Op::SetAttr(x),
        6 => Op::Create { dir: x, name },
        7 => Op::Mkdir { dir: x, name },
        8 => Op::Unlink { dir: x, name },
        9 => Op::Rename { dir: x, name, new_name: other },
        10 => Op::Chmod { target: x, mode: y.0 as u16 },
        _ => Op::Link { target: x, dir: y, name },
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
    fn fault_schedule_text_round_trips(
        faults in prop::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u64>(), any::<u16>(), any::<u64>(), any::<u64>()),
            0..8,
        ),
        churn in (any::<u8>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), (any::<u16>(), any::<u16>())),
    ) {
        let mut sched =
            FaultSchedule { events: faults.into_iter().map(fault_event).collect(), churn: None };
        let (on, mtbf, mttr, seed, until, (x, y)) = churn;
        if on % 2 == 1 {
            sched.churn = Some(ChurnSpec {
                mtbf: SimDuration::from_micros(mtbf | 1),
                mttr: SimDuration::from_micros(mttr | 1),
                seed,
                until: SimTime::from_micros(until),
                nodes: (on % 4 == 3).then(|| (x.min(y), x.max(y))),
            });
        }
        let text = sched.to_string();
        let back = FaultSchedule::parse(&text).expect("a written schedule parses");
        prop_assert_eq!(&back, &sched);
        prop_assert_eq!(float_bits(&back), float_bits(&sched));
        prop_assert_eq!(back.to_string(), text);
    }

    #[test]
    fn repro_text_round_trips(
        seed in any::<u64>(),
        faults in prop::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u64>(), any::<u16>(), any::<u64>(), any::<u64>()),
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
        prop_assert_eq!(float_bits(&back.scenario.faults), float_bits(&r.scenario.faults));
        prop_assert_eq!(&back.trace, &r.trace);
        prop_assert_eq!(&back.uids, &r.uids);
        prop_assert_eq!(&back.note, &r.note);
        prop_assert_eq!(back.to_text(), text);
    }
}

/// A valid repro whose scenario expands from `seed`, with one fault line
/// of each kind for the mutations to hit.
fn sample_repro(seed: u64) -> Repro {
    let strategy = StrategyKind::ALL[(seed % StrategyKind::ALL.len() as u64) as usize];
    let mut scenario = Scenario::from_seed(seed, strategy, 200);
    let events = (0..4u8).map(|k| fault_event((k, seed, !seed, 1, seed, seed >> 7))).collect();
    scenario.faults = FaultSchedule { events, churn: None };
    scenario.force_dense = seed & 1 == 1;
    let uids = (0..scenario.n_clients).map(|c| c.wrapping_mul(seed as u32 | 1)).collect();
    let trace = Trace {
        snapshot_seed: scenario.seed ^ 0xF5,
        n_clients: scenario.n_clients,
        records: Vec::new(),
    };
    Repro { scenario, trace, uids, note: String::new() }
}
