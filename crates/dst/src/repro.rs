//! Plain-text repro files.
//!
//! A repro is everything needed to replay one divergence: the scenario
//! parameters, the (shrunk) concrete fault-event list, the per-client uid
//! table, and the (shrunk) op trace. The format is a hand-rolled
//! line-based text file — no JSON dependency, diff-friendly, and stable
//! enough to commit under `dst/repros/` where `tests/dst_repros.rs`
//! replays every file it finds.
//!
//! Each `fault` line holds one entry of the `--faults` grammar, written
//! by [`FaultSchedule`]'s `Display` and read by [`FaultSchedule::parse`]:
//! times in integer microseconds and floats in Rust's shortest round-trip
//! form, so a round trip is exact and a replay is bit-identical to the
//! run that produced the file.

use dynmds_core::{FaultEvent, FaultSchedule};
use dynmds_partition::StrategyKind;
use dynmds_workload::{Trace, TraceOp, TraceRecord};

use crate::scenario::{RunOutcome, Scenario};

/// First line of every repro file (skipped on parse so `note` holds only
/// the divergence context and a write→parse→write cycle is byte-stable).
const HEADER: &str = "# dynmds DST repro (written by `experiments torture`)";

/// One parsed (or to-be-written) repro. See module docs.
#[derive(Clone, Debug)]
pub struct Repro {
    /// The scenario, fault schedule flattened to explicit events.
    pub scenario: Scenario,
    /// The minimized op trace.
    pub trace: Trace,
    /// Per-client credentials captured from the original workload.
    pub uids: Vec<u32>,
    /// Human context: the first divergence message of the original run.
    pub note: String,
}

impl Repro {
    /// Replays the repro; a healthy tree returns no divergences.
    pub fn replay(&self) -> RunOutcome {
        crate::scenario::replay_trace(&self.scenario, &self.trace, &self.uids)
    }

    /// Serializes to the repro text format.
    pub fn to_text(&self) -> String {
        let sc = &self.scenario;
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        for line in self.note.lines() {
            out.push_str("# ");
            out.push_str(line);
            out.push('\n');
        }
        out.push_str("v 1\n");
        out.push_str(&format!(
            "scenario seed={} strategy={} n_mds={} n_clients={} target_items={} cache={} \
             dir_hash={} shared_writes={} leases={} think_us={} retry_base_us={} retry_max={} \
             heartbeat_us={} ops_target={} horizon_us={} proxies={} proxy_thr={} force_dense={}\n",
            sc.seed,
            sc.strategy.label(),
            sc.n_mds,
            sc.n_clients,
            sc.target_items,
            sc.cache_capacity,
            sc.dir_hash_threshold,
            u8::from(sc.shared_writes),
            u8::from(sc.client_leases),
            sc.think_us,
            sc.retry_base_us,
            sc.retry_max,
            sc.heartbeat_us,
            sc.ops_target,
            sc.horizon_us,
            sc.n_proxies,
            sc.proxy_thr,
            u8::from(sc.force_dense),
        ));
        assert!(sc.faults.churn.is_none(), "repros carry explicit events only (shrink first)");
        for ev in &sc.faults.events {
            out.push_str(&format!("fault {ev}\n"));
        }
        out.push_str("uids");
        for u in &self.uids {
            out.push_str(&format!(" {u}"));
        }
        out.push('\n');
        for rec in &self.trace.records {
            out.push_str(&format!("op {} {} ", rec.client, rec.at_us));
            // Generator names never contain whitespace; keep it that way.
            let check = |n: &str| {
                assert!(!n.contains(char::is_whitespace), "name {n:?} breaks the line format")
            };
            match &rec.op {
                TraceOp::Stat(i) => out.push_str(&format!("stat {i}")),
                TraceOp::Lookup { dir, name } => {
                    check(name);
                    out.push_str(&format!("lookup {dir} {name}"));
                }
                TraceOp::Open(i) => out.push_str(&format!("open {i}")),
                TraceOp::Close(i) => out.push_str(&format!("close {i}")),
                TraceOp::Readdir(i) => out.push_str(&format!("readdir {i}")),
                TraceOp::SetAttr(i) => out.push_str(&format!("setattr {i}")),
                TraceOp::Create { dir, name } => {
                    check(name);
                    out.push_str(&format!("create {dir} {name}"));
                }
                TraceOp::Mkdir { dir, name } => {
                    check(name);
                    out.push_str(&format!("mkdir {dir} {name}"));
                }
                TraceOp::Unlink { dir, name } => {
                    check(name);
                    out.push_str(&format!("unlink {dir} {name}"));
                }
                TraceOp::Rename { dir, name, new_name } => {
                    check(name);
                    check(new_name);
                    out.push_str(&format!("rename {dir} {name} {new_name}"));
                }
                TraceOp::Chmod { target, mode } => out.push_str(&format!("chmod {target} {mode}")),
                TraceOp::Link { target, dir, name } => {
                    check(name);
                    out.push_str(&format!("link {target} {dir} {name}"));
                }
            }
            out.push('\n');
        }
        out.push_str("end\n");
        out
    }

    /// Parses the text format back. Unknown keys and malformed lines are
    /// hard errors — a repro that parses differently than it was written
    /// would silently test the wrong thing.
    pub fn parse(text: &str) -> Result<Repro, String> {
        let mut scenario: Option<Scenario> = None;
        let mut events: Vec<FaultEvent> = Vec::new();
        let mut uids: Vec<u32> = Vec::new();
        let mut records: Vec<TraceRecord> = Vec::new();
        let mut note = String::new();
        let mut saw_end = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let err = |m: String| format!("line {}: {m}", lineno + 1);
            if line.is_empty() {
                continue;
            }
            if let Some(comment) = line.strip_prefix('#') {
                if line == HEADER {
                    continue;
                }
                if !note.is_empty() {
                    note.push('\n');
                }
                note.push_str(comment.trim());
                continue;
            }
            let mut words = line.split_whitespace();
            match words.next().unwrap() {
                "v" => {
                    let v = words.next().ok_or_else(|| err("missing version".into()))?;
                    if v != "1" {
                        return Err(err(format!("unsupported repro version {v}")));
                    }
                }
                "scenario" => {
                    let mut kv = std::collections::HashMap::new();
                    for w in words {
                        let (k, v) = w
                            .split_once('=')
                            .ok_or_else(|| err(format!("expected key=value, got `{w}`")))?;
                        kv.insert(k.to_string(), v.to_string());
                    }
                    scenario = Some(parse_scenario(&kv).map_err(err)?);
                }
                "fault" => {
                    let entry = line["fault".len()..].trim();
                    match FaultSchedule::parse(entry).map_err(&err)? {
                        FaultSchedule { events: ev, churn: None } if ev.len() == 1 => {
                            events.extend(ev)
                        }
                        _ => return Err(err(format!("`fault {entry}`: want one scripted event"))),
                    }
                }
                "uids" => {
                    for w in words {
                        uids.push(w.parse().map_err(|e| err(format!("bad uid `{w}`: {e}")))?);
                    }
                }
                "op" => {
                    records.push(parse_op(&mut words).map_err(err)?);
                }
                "end" => saw_end = true,
                other => return Err(err(format!("unknown directive `{other}`"))),
            }
        }
        if !saw_end {
            return Err("truncated repro: no `end` line".into());
        }
        let mut scenario = scenario.ok_or("missing `scenario` line")?;
        scenario.faults = FaultSchedule { events, churn: None };
        if uids.len() != scenario.n_clients as usize {
            return Err(format!(
                "uid table has {} entries for {} clients",
                uids.len(),
                scenario.n_clients
            ));
        }
        let trace =
            Trace { snapshot_seed: scenario.seed ^ 0xF5, n_clients: scenario.n_clients, records };
        Ok(Repro { scenario, trace, uids, note })
    }
}

fn parse_strategy(label: &str) -> Result<StrategyKind, String> {
    StrategyKind::ALL
        .into_iter()
        .find(|s| s.label() == label)
        .ok_or_else(|| format!("unknown strategy `{label}`"))
}

fn parse_scenario(kv: &std::collections::HashMap<String, String>) -> Result<Scenario, String> {
    fn get<'a>(
        kv: &'a std::collections::HashMap<String, String>,
        k: &str,
    ) -> Result<&'a str, String> {
        kv.get(k).map(String::as_str).ok_or_else(|| format!("scenario key `{k}` missing"))
    }
    fn num<T: std::str::FromStr>(
        kv: &std::collections::HashMap<String, String>,
        k: &str,
    ) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        get(kv, k)?.parse().map_err(|e| format!("scenario key `{k}`: {e}"))
    }
    // Pre-proxy repro files have no `proxies=`/`proxy_thr=` keys; they
    // replay with the tier off, exactly as they originally ran.
    fn num_or<T: std::str::FromStr>(
        kv: &std::collections::HashMap<String, String>,
        k: &str,
        default: T,
    ) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match kv.get(k) {
            Some(v) => v.parse().map_err(|e| format!("scenario key `{k}`: {e}")),
            None => Ok(default),
        }
    }
    Ok(Scenario {
        seed: num(kv, "seed")?,
        strategy: parse_strategy(get(kv, "strategy")?)?,
        n_mds: num(kv, "n_mds")?,
        n_clients: num(kv, "n_clients")?,
        target_items: num(kv, "target_items")?,
        cache_capacity: num(kv, "cache")?,
        dir_hash_threshold: num(kv, "dir_hash")?,
        shared_writes: num::<u8>(kv, "shared_writes")? != 0,
        client_leases: num::<u8>(kv, "leases")? != 0,
        think_us: num(kv, "think_us")?,
        retry_base_us: num(kv, "retry_base_us")?,
        retry_max: num(kv, "retry_max")?,
        heartbeat_us: num(kv, "heartbeat_us")?,
        ops_target: num(kv, "ops_target")?,
        horizon_us: num(kv, "horizon_us")?,
        n_proxies: num_or(kv, "proxies", 0)?,
        proxy_thr: num_or(kv, "proxy_thr", 24)?,
        // Pre-skip repro files have no `force_dense=` key; they replay
        // with skipping on, which is behavior-identical by construction.
        force_dense: num_or::<u8>(kv, "force_dense", 0)? != 0,
        faults: FaultSchedule::default(), // filled by the caller
    })
}

fn parse_op<'a, I: Iterator<Item = &'a str>>(words: &mut I) -> Result<TraceRecord, String> {
    let mut next = |what: &str| words.next().ok_or_else(|| format!("op missing {what}"));
    let client: u32 = next("client")?.parse().map_err(|e| format!("op client: {e}"))?;
    let at_us: u64 = next("time")?.parse().map_err(|e| format!("op time: {e}"))?;
    let kind = next("kind")?;
    let mut id = |what: &str| -> Result<u64, String> {
        next(what)?.parse().map_err(|e| format!("op {what}: {e}"))
    };
    let op = match kind {
        "stat" => TraceOp::Stat(id("target")?),
        "lookup" => TraceOp::Lookup { dir: id("dir")?, name: next("name")?.to_string() },
        "open" => TraceOp::Open(id("target")?),
        "close" => TraceOp::Close(id("target")?),
        "readdir" => TraceOp::Readdir(id("target")?),
        "setattr" => TraceOp::SetAttr(id("target")?),
        "create" => TraceOp::Create { dir: id("dir")?, name: next("name")?.to_string() },
        "mkdir" => TraceOp::Mkdir { dir: id("dir")?, name: next("name")?.to_string() },
        "unlink" => TraceOp::Unlink { dir: id("dir")?, name: next("name")?.to_string() },
        "rename" => TraceOp::Rename {
            dir: id("dir")?,
            name: next("old")?.to_string(),
            new_name: next("new")?.to_string(),
        },
        "chmod" => TraceOp::Chmod {
            target: id("target")?,
            mode: next("mode")?.parse().map_err(|e| format!("op mode: {e}"))?,
        },
        "link" => TraceOp::Link {
            target: id("target")?,
            dir: id("dir")?,
            name: next("name")?.to_string(),
        },
        other => return Err(format!("unknown op kind `{other}`")),
    };
    Ok(TraceRecord { client, at_us, op })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmds_core::{DiskScope, NetFaultSpec};
    use dynmds_event::{SimDuration, SimTime};
    use dynmds_namespace::MdsId;
    use dynmds_storage::DiskFault;

    fn sample() -> Repro {
        let mut sc = Scenario::from_seed(9, StrategyKind::DynamicSubtree, 400);
        // A non-default value so the round-trip below proves the key
        // actually travels through the text format.
        sc.force_dense = true;
        sc.faults = FaultSchedule {
            events: vec![
                FaultEvent::Crash {
                    at: SimTime::ZERO + SimDuration::from_micros(2_500_000),
                    mds: MdsId(1),
                },
                FaultEvent::Recover {
                    at: SimTime::ZERO + SimDuration::from_micros(3_100_000),
                    mds: MdsId(1),
                },
                FaultEvent::DiskDegrade {
                    from: SimTime::ZERO + SimDuration::from_micros(1_000),
                    until: SimTime::ZERO + SimDuration::from_micros(9_000),
                    fault: DiskFault { latency_mult: 3.25, iops_mult: 0.5, error_p: 0.0125 },
                    scope: DiskScope::Journal,
                },
                FaultEvent::NetFault {
                    from: SimTime::ZERO + SimDuration::from_micros(5_000),
                    until: SimTime::ZERO + SimDuration::from_micros(7_000),
                    spec: NetFaultSpec { loss_p: 0.031_4, dup_p: 0.001 },
                },
            ],
            churn: None,
        };
        let records = vec![
            TraceRecord { client: 0, at_us: 100, op: TraceOp::Stat(4) },
            TraceRecord {
                client: 2,
                at_us: 150,
                op: TraceOp::Lookup { dir: 5, name: "nl3".into() },
            },
            TraceRecord {
                client: 1,
                at_us: 200,
                op: TraceOp::Create { dir: 5, name: "f1".into() },
            },
            TraceRecord {
                client: 2,
                at_us: 300,
                op: TraceOp::Rename { dir: 5, name: "f1".into(), new_name: "f2".into() },
            },
            TraceRecord { client: 0, at_us: 400, op: TraceOp::Chmod { target: 4, mode: 0o640 } },
            TraceRecord {
                client: 1,
                at_us: 500,
                op: TraceOp::Link { target: 4, dir: 5, name: "h".into() },
            },
        ];
        let uids = (0..sc.n_clients).map(|c| c % 3).collect();
        Repro {
            trace: Trace { snapshot_seed: sc.seed ^ 0xF5, n_clients: sc.n_clients, records },
            scenario: sc,
            uids,
            note: "outcome mismatch at 12us: something".into(),
        }
    }

    #[test]
    fn text_round_trip_is_exact() {
        let r = sample();
        let text = r.to_text();
        let back = Repro::parse(&text).expect("parses");
        assert_eq!(back.trace, r.trace);
        assert_eq!(back.uids, r.uids);
        assert_eq!(back.scenario.faults, r.scenario.faults);
        assert_eq!(back.scenario.seed, r.scenario.seed);
        assert_eq!(back.scenario.strategy, r.scenario.strategy);
        assert_eq!(back.scenario.think_us, r.scenario.think_us);
        assert_eq!(back.scenario.horizon_us, r.scenario.horizon_us);
        assert_eq!(back.scenario.n_proxies, r.scenario.n_proxies);
        assert_eq!(back.scenario.proxy_thr, r.scenario.proxy_thr);
        assert_eq!(back.scenario.force_dense, r.scenario.force_dense);
        // Serializing the parse reproduces the text byte-for-byte.
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn float_bits_survive_exactly() {
        let r = sample();
        let back = Repro::parse(&r.to_text()).unwrap();
        let FaultEvent::DiskDegrade { fault, .. } = back.scenario.faults.events[2] else {
            panic!("event order preserved");
        };
        assert_eq!(fault.latency_mult.to_bits(), 3.25f64.to_bits());
        assert_eq!(fault.error_p.to_bits(), 0.0125f64.to_bits());
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Repro::parse("nonsense\nend\n").is_err());
        assert!(Repro::parse("v 2\nend\n").is_err(), "unknown version");
        assert!(Repro::parse("v 1\n").is_err(), "missing end");
        let r = sample();
        let text = r.to_text().replace("strategy=DynamicSubtree", "strategy=Bogus");
        assert!(Repro::parse(&text).is_err(), "unknown strategy");
    }

    #[test]
    fn out_of_range_fault_fields_are_rejected() {
        let text = sample().to_text();
        let bad = [
            ("crash:1@", "crash:65537@"),
            ("@1000us..9000us", "@9000us..9000us"),
            ("@5000us..7000us", "@7000us..5000us"),
            ("lat=3.25x", "lat=NaNx"),
            ("iops=0.5x", "iops=0x"),
            ("err=0.0125", "err=NaN"),
            ("loss=0.0314", "loss=1.5"),
            ("dup=0.001", "dup=-0.5"),
            // A fault line holds exactly one scripted event.
            ("fault crash:1@2500000us\n", "fault crash:1@2500000us;crash:2@1us\n"),
            ("fault crash:1@2500000us\n", "fault churn:mtbf=1s,mttr=1s\n"),
            ("fault crash:1@2500000us\n", "fault\n"),
        ];
        for (good, evil) in bad {
            assert!(text.contains(good), "sample lacks `{good}`");
            let broken = text.replacen(good, evil, 1);
            assert!(Repro::parse(&broken).is_err(), "accepted `{evil}`");
        }
    }

    #[test]
    fn pre_proxy_repros_parse_with_the_tier_off() {
        let r = sample();
        // Strip the proxy and skip keys the way an old repro file would
        // lack them.
        let text = r
            .to_text()
            .lines()
            .map(|l| {
                if l.starts_with("scenario ") {
                    l.split_whitespace()
                        .filter(|w| {
                            !w.starts_with("proxies=")
                                && !w.starts_with("proxy_thr=")
                                && !w.starts_with("force_dense=")
                        })
                        .collect::<Vec<_>>()
                        .join(" ")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let back = Repro::parse(&text).expect("old format parses");
        assert_eq!(back.scenario.n_proxies, 0);
        assert!(!back.scenario.force_dense, "pre-skip repros replay with skipping on");
    }
}
