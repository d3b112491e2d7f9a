//! Deterministic fault injection: schedules, churn generation, and the
//! client retry policy.
//!
//! The paper's §4.6 storage design exists to make MDS failure cheap
//! (journal-driven cache preload "eases MDS failover"), but a failover
//! path that is only ever exercised by one hand-written scenario is a
//! failover path with latent bugs. This module turns faults into data: a
//! [`FaultSchedule`] is a list of sim-time-stamped [`FaultEvent`]s —
//! MDS crashes and recoveries (scripted, or generated from a seeded
//! MTBF/MTTR churn process), disk degradation windows (latency
//! inflation, IOPS throttling, transient errors), and network fault
//! windows (message loss and duplication on the client↔MDS edges).
//!
//! [`FaultSchedule::steps`] turns a schedule into the one list of timed
//! [`FaultStep`]s both engines apply, under one crash rule
//! ([`crash_applies`]), one ring walk ([`live_in_ring`]) and one heir
//! rule ([`heirs`]). Every random draw comes from a dedicated seeded
//! stream, so the same seed plus the same schedule replays
//! byte-identically — and an empty schedule draws nothing, leaving
//! fault-free runs bit-for-bit unchanged.

use std::fmt;

use dynmds_event::{SimDuration, SimRng, SimTime};
use dynmds_namespace::MdsId;
use dynmds_storage::DiskFault;

/// How clients behave when a request times out against a dead server:
/// capped retries with exponential backoff and seeded jitter, then a
/// terminal `gave_up` outcome.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries before the client gives up on the operation.
    pub max_retries: u8,
    /// Backoff before the first retry.
    pub base: SimDuration,
    /// Growth factor per successive retry.
    pub multiplier: f64,
    /// Upper bound on the (pre-jitter) backoff.
    pub cap: SimDuration,
    /// Uniform jitter added on top: `delay * (1 + jitter_frac * U[0,1))`.
    pub jitter_frac: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 6,
            base: SimDuration::from_millis(500),
            multiplier: 2.0,
            cap: SimDuration::from_secs(4),
            jitter_frac: 0.1,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retries` (1-based: the first retry
    /// waits `base`, the second `base * multiplier`, …, capped at `cap`,
    /// then jittered from `rng`).
    pub fn delay(&self, retries: u8, rng: &mut SimRng) -> SimDuration {
        let exp = i32::from(retries.saturating_sub(1));
        let raw = self.base.mul_f64(self.multiplier.powi(exp)).min(self.cap);
        raw.mul_f64(1.0 + self.jitter_frac * rng.unit())
    }
}

/// Which disks a degradation window hits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskScope {
    /// The shared OSD pool (tier-2 store).
    Osd,
    /// Each MDS's private journal device.
    Journal,
    /// Both.
    All,
}

/// A network fault window on the client↔MDS edges.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetFaultSpec {
    /// Probability a message (request send or reply) is lost.
    pub loss_p: f64,
    /// Probability a delivered request is duplicated.
    pub dup_p: f64,
}

/// One scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEvent {
    /// MDS `mds` crashes at `at` (skipped under [`crash_applies`]).
    Crash { at: SimTime, mds: MdsId },
    /// MDS `mds` comes back at `at`.
    Recover { at: SimTime, mds: MdsId },
    /// Disks in `scope` run degraded during `[from, until)`.
    DiskDegrade { from: SimTime, until: SimTime, fault: DiskFault, scope: DiskScope },
    /// Messages are lost/duplicated during `[from, until)`.
    NetFault { from: SimTime, until: SimTime, spec: NetFaultSpec },
}

/// One timed step of a fault schedule: what both engines apply at a
/// step's time. A disk or network window is two steps, on (`Some`) and
/// off (`None`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultStep {
    /// The node crashes, unless [`crash_applies`] says to skip it.
    Crash(MdsId),
    /// The node comes back (a no-op when it is up).
    Recover(MdsId),
    /// Install or clear a disk degradation on the devices in `scope`.
    Disk {
        /// Which devices the window covers.
        scope: DiskScope,
        /// The degradation, or `None` to restore nominal service.
        fault: Option<DiskFault>,
    },
    /// Install or clear the network fault on the client↔MDS edges.
    Net(Option<NetFaultSpec>),
}

/// The crash rule of both engines: a crash of a node that is already
/// down, or of the last live node, is skipped. A generated schedule may
/// line up every node's down time, and a cluster with no live node has
/// nowhere to send a request.
pub fn crash_applies(alive: &[bool], mds: MdsId) -> bool {
    alive[mds.index()] && alive.iter().filter(|&&a| a).count() > 1
}

/// The ring walk of both engines: `m` when it is alive, otherwise the
/// next live node after it in ring order, `None` when every node is
/// down. Every client and server computes it identically.
pub fn live_in_ring(alive: &[bool], m: MdsId) -> Option<MdsId> {
    if alive[m.index()] {
        return Some(m);
    }
    let n = alive.len();
    (1..n).map(|d| (m.index() + d) % n).find(|&i| alive[i]).map(|i| MdsId(i as u16))
}

/// The heir rule of both engines: the heirs of a crashed node's `count`
/// delegations, in delegation order — round robin over the survivors
/// (`alive`, the crashed node already down), starting `crashes` places
/// in. `crashes` counts the crashes applied so far, this one included,
/// so successive crashes do not pile every inherited subtree onto the
/// same low-numbered survivors.
pub fn heirs(alive: &[bool], crashes: u64, count: usize) -> Vec<MdsId> {
    let survivors: Vec<MdsId> =
        (0..alive.len()).filter(|&i| alive[i]).map(|i| MdsId(i as u16)).collect();
    (0..count).map(|k| survivors[(k + crashes as usize) % survivors.len()]).collect()
}

/// Seeded random crash/recover churn: per-node alternating up/down
/// periods drawn from exponential distributions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnSpec {
    /// Mean time between failures (mean up period per node).
    pub mtbf: SimDuration,
    /// Mean time to repair (mean down period per node).
    pub mttr: SimDuration,
    /// Seed for the churn stream (independent of the workload seed).
    pub seed: u64,
    /// No crashes are generated at or after this time.
    pub until: SimTime,
    /// Inclusive node-index range; `None` = every node.
    pub nodes: Option<(u16, u16)>,
}

/// A full fault schedule: scripted events plus optional generated churn.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    /// Scripted events, in any order (the event queue sorts by time).
    pub events: Vec<FaultEvent>,
    /// Optional churn generator, expanded per node at install time.
    pub churn: Option<ChurnSpec>,
}

impl FaultSchedule {
    /// True when the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.churn.is_none()
    }

    /// Checks that every node the schedule names is in an `n_mds`-node
    /// cluster: scripted crash and recover indices, and the start of a
    /// churn `nodes=A-B` range (its end is clamped to the cluster).
    pub fn check_nodes(&self, n_mds: usize) -> Result<(), String> {
        let outside = |node: u16| {
            format!("MDS {node} is outside the {n_mds}-node cluster (nodes are numbered from 0)")
        };
        for ev in &self.events {
            if let FaultEvent::Crash { mds, .. } | FaultEvent::Recover { mds, .. } = *ev {
                if mds.index() >= n_mds {
                    return Err(format!("`{ev}`: {}", outside(mds.0)));
                }
            }
        }
        if let Some(churn @ ChurnSpec { nodes: Some((first, _)), .. }) = self.churn {
            if usize::from(first) >= n_mds {
                return Err(format!("`{churn}`: {}", outside(first)));
            }
        }
        Ok(())
    }

    /// The concrete event list for an `n_mds`-node cluster: scripted
    /// events followed by the churn expansion. Deterministic — each node
    /// gets its own stream forked from the churn seed.
    pub fn expanded(&self, n_mds: usize) -> Vec<FaultEvent> {
        let mut out = self.events.clone();
        let Some(churn) = &self.churn else {
            return out;
        };
        let (lo, hi) = match churn.nodes {
            Some((a, b)) => (a as usize, (b as usize).min(n_mds.saturating_sub(1))),
            None => (0, n_mds.saturating_sub(1)),
        };
        for node in lo..=hi {
            let mut rng = SimRng::seed_from_u64(
                churn.seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let mut t = SimTime::ZERO;
            loop {
                let up = SimDuration::from_secs_f64(rng.exponential(churn.mtbf.as_secs_f64()));
                let crash_at = t + up;
                if crash_at >= churn.until {
                    break;
                }
                let down = SimDuration::from_secs_f64(rng.exponential(churn.mttr.as_secs_f64()));
                // The recovery may land past `until` — the node still
                // comes back, so the run ends with a whole cluster.
                let back_at = crash_at + down;
                out.push(FaultEvent::Crash { at: crash_at, mds: MdsId(node as u16) });
                out.push(FaultEvent::Recover { at: back_at, mds: MdsId(node as u16) });
                t = back_at;
            }
        }
        out
    }

    /// The timed steps both engines apply to an `n_mds`-node cluster:
    /// each [`expanded`](Self::expanded) event in order, a window as its
    /// on and off steps, stably sorted by time (same-time steps keep
    /// schedule order).
    pub fn steps(&self, n_mds: usize) -> Vec<(SimTime, FaultStep)> {
        let mut steps = Vec::new();
        for ev in self.expanded(n_mds) {
            match ev {
                FaultEvent::Crash { at, mds } => steps.push((at, FaultStep::Crash(mds))),
                FaultEvent::Recover { at, mds } => steps.push((at, FaultStep::Recover(mds))),
                FaultEvent::DiskDegrade { from, until, fault, scope } => {
                    steps.push((from, FaultStep::Disk { scope, fault: Some(fault) }));
                    steps.push((until, FaultStep::Disk { scope, fault: None }));
                }
                FaultEvent::NetFault { from, until, spec } => {
                    steps.push((from, FaultStep::Net(Some(spec))));
                    steps.push((until, FaultStep::Net(None)));
                }
            }
        }
        steps.sort_by_key(|&(at, _)| at);
        steps
    }

    /// Parses a `--faults` spec: `;`-separated entries.
    ///
    /// ```text
    /// crash:1@5s                                   kill MDS 1 at t=5s
    /// recover:1@10s                                bring it back at t=10s
    /// churn:mtbf=30s,mttr=5s,seed=9,until=20s      seeded random churn
    ///       [,nodes=1-3]                           (optional node range)
    /// disk:lat=4x,iops=0.5x,err=0.01,scope=osd@2s..8s   degradation window
    /// net:loss=0.02,dup=0.01@2s..8s                lossy/duplicating network
    /// ```
    ///
    /// Times accept `s`/`ms`/`us` suffixes (bare numbers are seconds).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut sched = FaultSchedule::default();
        for entry in spec.split(';').map(str::trim).filter(|e| !e.is_empty()) {
            let (kind, rest) = entry
                .split_once(':')
                .ok_or_else(|| format!("fault entry `{entry}` needs a `kind:` prefix"))?;
            match kind {
                "crash" | "recover" => {
                    let (idx, at) = rest
                        .split_once('@')
                        .ok_or_else(|| format!("`{entry}`: expected `{kind}:IDX@TIME`"))?;
                    let mds = MdsId(
                        idx.trim()
                            .parse::<u16>()
                            .map_err(|e| format!("`{entry}`: bad node index: {e}"))?,
                    );
                    let at = SimTime::ZERO + parse_duration(at)?;
                    sched.events.push(match kind {
                        "crash" => FaultEvent::Crash { at, mds },
                        _ => FaultEvent::Recover { at, mds },
                    });
                }
                "churn" => {
                    if sched.churn.is_some() {
                        return Err("only one churn entry is allowed".into());
                    }
                    let mut mtbf = None;
                    let mut mttr = None;
                    let mut seed = 0u64;
                    let mut until = SimTime::ZERO + SimDuration::from_secs(60);
                    let mut nodes = None;
                    for kv in rest.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                        let (k, v) = kv
                            .split_once('=')
                            .ok_or_else(|| format!("`{entry}`: expected key=value, got `{kv}`"))?;
                        match k {
                            "mtbf" => mtbf = Some(parse_duration(v)?),
                            "mttr" => mttr = Some(parse_duration(v)?),
                            "seed" => {
                                seed =
                                    v.parse().map_err(|e| format!("`{entry}`: bad seed: {e}"))?;
                            }
                            "until" => until = SimTime::ZERO + parse_duration(v)?,
                            "nodes" => {
                                let (a, b) = v.split_once('-').ok_or_else(|| {
                                    format!("`{entry}`: nodes wants `A-B`, got `{v}`")
                                })?;
                                let a: u16 =
                                    a.parse().map_err(|e| format!("`{entry}`: bad node: {e}"))?;
                                let b: u16 =
                                    b.parse().map_err(|e| format!("`{entry}`: bad node: {e}"))?;
                                if a > b {
                                    return Err(format!("`{entry}`: empty node range {a}-{b}"));
                                }
                                nodes = Some((a, b));
                            }
                            _ => return Err(format!("`{entry}`: unknown churn key `{k}`")),
                        }
                    }
                    let mtbf = mtbf.ok_or_else(|| format!("`{entry}`: churn needs mtbf="))?;
                    let mttr = mttr.ok_or_else(|| format!("`{entry}`: churn needs mttr="))?;
                    if mtbf == SimDuration::ZERO || mttr == SimDuration::ZERO {
                        return Err(format!("`{entry}`: mtbf/mttr must be positive"));
                    }
                    sched.churn = Some(ChurnSpec { mtbf, mttr, seed, until, nodes });
                }
                "disk" => {
                    let (body, window) = rest
                        .split_once('@')
                        .ok_or_else(|| format!("`{entry}`: expected `disk:...@FROM..UNTIL`"))?;
                    let mut fault = DiskFault::default();
                    let mut scope = DiskScope::All;
                    for kv in body.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                        let (k, v) = kv
                            .split_once('=')
                            .ok_or_else(|| format!("`{entry}`: expected key=value, got `{kv}`"))?;
                        match k {
                            "lat" => fault.latency_mult = parse_mult(v, entry)?,
                            "iops" => fault.iops_mult = parse_mult(v, entry)?,
                            "err" => fault.error_p = parse_prob(v, entry)?,
                            "scope" => {
                                scope = match v {
                                    "osd" => DiskScope::Osd,
                                    "journal" => DiskScope::Journal,
                                    "all" => DiskScope::All,
                                    _ => {
                                        return Err(format!(
                                            "`{entry}`: scope must be osd|journal|all"
                                        ))
                                    }
                                };
                            }
                            _ => return Err(format!("`{entry}`: unknown disk key `{k}`")),
                        }
                    }
                    if fault.iops_mult <= 0.0 {
                        return Err(format!("`{entry}`: iops multiplier must be positive"));
                    }
                    let (from, until) = parse_window(window, entry)?;
                    sched.events.push(FaultEvent::DiskDegrade { from, until, fault, scope });
                }
                "net" => {
                    let (body, window) = rest
                        .split_once('@')
                        .ok_or_else(|| format!("`{entry}`: expected `net:...@FROM..UNTIL`"))?;
                    let mut spec = NetFaultSpec { loss_p: 0.0, dup_p: 0.0 };
                    for kv in body.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                        let (k, v) = kv
                            .split_once('=')
                            .ok_or_else(|| format!("`{entry}`: expected key=value, got `{kv}`"))?;
                        match k {
                            "loss" => spec.loss_p = parse_prob(v, entry)?,
                            "dup" => spec.dup_p = parse_prob(v, entry)?,
                            _ => return Err(format!("`{entry}`: unknown net key `{k}`")),
                        }
                    }
                    let (from, until) = parse_window(window, entry)?;
                    sched.events.push(FaultEvent::NetFault { from, until, spec });
                }
                _ => {
                    return Err(format!(
                        "unknown fault kind `{kind}` (want crash|recover|churn|disk|net)"
                    ))
                }
            }
        }
        Ok(sched)
    }
}

/// Writes the `--faults` grammar [`FaultSchedule::parse`] reads back:
/// entries joined by `;`, times in integer microseconds, and floats in
/// Rust's shortest round-trip form, so a parse restores every bit.
impl fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        for ev in &self.events {
            write!(f, "{sep}{ev}")?;
            sep = ";";
        }
        if let Some(churn) = &self.churn {
            write!(f, "{sep}{churn}")?;
        }
        Ok(())
    }
}

/// One `--faults` entry; see [`FaultSchedule`]'s `Display`.
impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultEvent::Crash { at, mds } => write!(f, "crash:{}@{}us", mds.0, at.as_micros()),
            FaultEvent::Recover { at, mds } => write!(f, "recover:{}@{}us", mds.0, at.as_micros()),
            FaultEvent::DiskDegrade { from, until, fault, scope } => {
                let scope = match scope {
                    DiskScope::Osd => "osd",
                    DiskScope::Journal => "journal",
                    DiskScope::All => "all",
                };
                write!(
                    f,
                    "disk:lat={}x,iops={}x,err={},scope={scope}@{}us..{}us",
                    fault.latency_mult,
                    fault.iops_mult,
                    fault.error_p,
                    from.as_micros(),
                    until.as_micros()
                )
            }
            FaultEvent::NetFault { from, until, spec } => write!(
                f,
                "net:loss={},dup={}@{}us..{}us",
                spec.loss_p,
                spec.dup_p,
                from.as_micros(),
                until.as_micros()
            ),
        }
    }
}

/// The `churn:` entry of the `--faults` grammar.
impl fmt::Display for ChurnSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "churn:mtbf={}us,mttr={}us,seed={},until={}us",
            self.mtbf.as_micros(),
            self.mttr.as_micros(),
            self.seed,
            self.until.as_micros()
        )?;
        if let Some((a, b)) = self.nodes {
            write!(f, ",nodes={a}-{b}")?;
        }
        Ok(())
    }
}

/// Parses a duration like `5s`, `250ms`, `1500us` or a bare number of
/// seconds (floats allowed). An integer `us` count is taken exactly.
fn parse_duration(s: &str) -> Result<SimDuration, String> {
    let s = s.trim();
    if let Some(us) = s.strip_suffix("us").and_then(|n| n.trim().parse().ok()) {
        return Ok(SimDuration::from_micros(us));
    }
    let (num, scale) = if let Some(n) = s.strip_suffix("ms") {
        (n, 1e-3)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1e-6)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1.0)
    } else {
        (s, 1.0)
    };
    let v: f64 = num.trim().parse().map_err(|e| format!("bad duration `{s}`: {e}"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("bad duration `{s}`: must be finite and non-negative"));
    }
    Ok(SimDuration::from_secs_f64(v * scale))
}

/// Parses a `FROM..UNTIL` window.
fn parse_window(s: &str, entry: &str) -> Result<(SimTime, SimTime), String> {
    let (a, b) = s
        .split_once("..")
        .ok_or_else(|| format!("`{entry}`: window wants `FROM..UNTIL`, got `{s}`"))?;
    let from = SimTime::ZERO + parse_duration(a)?;
    let until = SimTime::ZERO + parse_duration(b)?;
    if until <= from {
        return Err(format!("`{entry}`: empty window {s}"));
    }
    Ok((from, until))
}

/// Parses a multiplier like `4x`, `0.5x` or `2`.
fn parse_mult(s: &str, entry: &str) -> Result<f64, String> {
    let n = s.strip_suffix('x').unwrap_or(s);
    let v: f64 = n.trim().parse().map_err(|e| format!("`{entry}`: bad multiplier `{s}`: {e}"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("`{entry}`: multiplier `{s}` must be finite and non-negative"));
    }
    Ok(v)
}

/// Parses a probability in `[0, 1]`.
fn parse_prob(s: &str, entry: &str) -> Result<f64, String> {
    let v: f64 = s.trim().parse().map_err(|e| format!("`{entry}`: bad probability `{s}`: {e}"))?;
    if !(0.0..=1.0).contains(&v) {
        return Err(format!("`{entry}`: probability `{s}` must be in [0, 1]"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_delay_backs_off_and_caps() {
        let p = RetryPolicy { jitter_frac: 0.0, ..RetryPolicy::default() };
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(p.delay(1, &mut rng), SimDuration::from_millis(500));
        assert_eq!(p.delay(2, &mut rng), SimDuration::from_secs(1));
        assert_eq!(p.delay(3, &mut rng), SimDuration::from_secs(2));
        assert_eq!(p.delay(4, &mut rng), SimDuration::from_secs(4));
        assert_eq!(p.delay(5, &mut rng), SimDuration::from_secs(4), "capped");
    }

    #[test]
    fn retry_jitter_is_bounded_and_seeded() {
        let p = RetryPolicy::default();
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for r in 1..=6u8 {
            let da = p.delay(r, &mut a);
            assert_eq!(da, p.delay(r, &mut b), "same seed, same delay");
            let raw = p.base.mul_f64(p.multiplier.powi(i32::from(r) - 1)).min(p.cap);
            assert!(da >= raw && da <= raw.mul_f64(1.0 + p.jitter_frac), "jitter out of range");
        }
    }

    #[test]
    fn parse_scripted_crash_recover() {
        let s = FaultSchedule::parse("crash:1@5s; recover:1@7.5s").unwrap();
        assert_eq!(
            s.events,
            vec![
                FaultEvent::Crash { at: SimTime::from_secs(5), mds: MdsId(1) },
                FaultEvent::Recover { at: SimTime::from_micros(7_500_000), mds: MdsId(1) },
            ]
        );
        assert!(s.churn.is_none());
    }

    #[test]
    fn parse_disk_and_net_windows() {
        let s = FaultSchedule::parse(
            "disk:lat=4x,iops=0.5x,err=0.01,scope=journal@2s..8s;net:loss=0.02,dup=0.01@1s..3s",
        )
        .unwrap();
        assert_eq!(s.events.len(), 2);
        match s.events[0] {
            FaultEvent::DiskDegrade { from, until, fault, scope } => {
                assert_eq!(from, SimTime::from_secs(2));
                assert_eq!(until, SimTime::from_secs(8));
                assert_eq!(scope, DiskScope::Journal);
                assert!((fault.latency_mult - 4.0).abs() < 1e-12);
                assert!((fault.iops_mult - 0.5).abs() < 1e-12);
                assert!((fault.error_p - 0.01).abs() < 1e-12);
            }
            ref e => panic!("expected DiskDegrade, got {e:?}"),
        }
        match s.events[1] {
            FaultEvent::NetFault { from, until, spec } => {
                assert_eq!(from, SimTime::from_secs(1));
                assert_eq!(until, SimTime::from_secs(3));
                assert!((spec.loss_p - 0.02).abs() < 1e-12);
                assert!((spec.dup_p - 0.01).abs() < 1e-12);
            }
            ref e => panic!("expected NetFault, got {e:?}"),
        }
    }

    #[test]
    fn parse_churn_and_expand_deterministically() {
        let s = FaultSchedule::parse("churn:mtbf=10s,mttr=2s,seed=9,until=30s,nodes=1-2").unwrap();
        let c = s.churn.unwrap();
        assert_eq!(c.mtbf, SimDuration::from_secs(10));
        assert_eq!(c.mttr, SimDuration::from_secs(2));
        assert_eq!(c.seed, 9);
        assert_eq!(c.nodes, Some((1, 2)));
        let a = s.expanded(4);
        let b = s.expanded(4);
        assert_eq!(a, b, "expansion must be deterministic");
        assert!(!a.is_empty(), "30s of churn at mtbf=10s should produce events");
        for e in &a {
            match *e {
                FaultEvent::Crash { at, mds } => {
                    assert!(at < SimTime::from_secs(30));
                    assert!((1..=2).contains(&mds.0), "node range respected: {mds:?}");
                }
                FaultEvent::Recover { mds, .. } => assert!((1..=2).contains(&mds.0)),
                ref e => panic!("churn only crashes/recovers, got {e:?}"),
            }
        }
        // Crashes and recoveries pair up per node.
        let crashes = a.iter().filter(|e| matches!(e, FaultEvent::Crash { .. })).count();
        let recovers = a.iter().filter(|e| matches!(e, FaultEvent::Recover { .. })).count();
        assert_eq!(crashes, recovers);
    }

    #[test]
    fn parse_rejects_malformed_entries() {
        for bad in [
            "boom:1@5s",
            "crash:1",
            "crash:x@5s",
            "churn:mttr=2s",
            "churn:mtbf=10s,mttr=2s,nodes=3-1",
            "disk:lat=4x@8s..2s",
            "disk:iops=0x@1s..2s",
            "net:loss=1.5@1s..2s",
            "net:loss=0.1",
        ] {
            assert!(FaultSchedule::parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn check_nodes_rejects_nodes_outside_the_cluster() {
        for ok in
            ["crash:3@1s;recover:3@2s", "churn:mtbf=4s,mttr=1s,nodes=3-9", "net:loss=0.1@1s..2s"]
        {
            assert_eq!(FaultSchedule::parse(ok).unwrap().check_nodes(4), Ok(()), "{ok}");
        }
        for bad in ["crash:4@1s", "recover:9@1s", "churn:mtbf=4s,mttr=1s,nodes=4-6"] {
            let err = FaultSchedule::parse(bad).unwrap().check_nodes(4).unwrap_err();
            assert!(err.contains("outside the 4-node cluster"), "{bad}: {err}");
        }
    }

    #[test]
    fn written_schedule_parses_back_exactly() {
        let spec = "crash:1@2.5s;recover:1@3100001us;disk:lat=3.25x,iops=0.5x,err=0.0125,\
                    scope=journal@1ms..9ms;net:loss=0.0314,dup=0.001@5ms..7ms;\
                    churn:mtbf=10s,mttr=2s,seed=9,until=30s,nodes=1-2";
        let s = FaultSchedule::parse(spec).unwrap();
        let text = s.to_string();
        assert!(text.starts_with("crash:1@2500000us;recover:1@3100001us;disk:lat=3.25x"), "{text}");
        assert_eq!(FaultSchedule::parse(&text).unwrap(), s);
        assert_eq!(FaultSchedule::parse(&text).unwrap().to_string(), text);
    }

    #[test]
    fn steps_split_windows_and_sort_stably() {
        let s = FaultSchedule::parse(
            "net:loss=0.5@2s..4s;crash:1@3s;disk:lat=2x,scope=osd@1s..3s;recover:1@3s",
        )
        .unwrap();
        let net = NetFaultSpec { loss_p: 0.5, dup_p: 0.0 };
        let disk = DiskFault { latency_mult: 2.0, ..DiskFault::default() };
        let osd = DiskScope::Osd;
        assert_eq!(
            s.steps(2),
            vec![
                (SimTime::from_secs(1), FaultStep::Disk { scope: osd, fault: Some(disk) }),
                (SimTime::from_secs(2), FaultStep::Net(Some(net))),
                (SimTime::from_secs(3), FaultStep::Crash(MdsId(1))),
                (SimTime::from_secs(3), FaultStep::Disk { scope: osd, fault: None }),
                (SimTime::from_secs(3), FaultStep::Recover(MdsId(1))),
                (SimTime::from_secs(4), FaultStep::Net(None)),
            ]
        );
    }

    #[test]
    fn crash_rule_skips_dead_and_last_nodes() {
        assert!(crash_applies(&[true, true], MdsId(0)));
        assert!(!crash_applies(&[false, true], MdsId(0)), "already down");
        assert!(!crash_applies(&[false, true], MdsId(1)), "last live node");
    }

    #[test]
    fn heirs_rotate_round_robin_over_survivors() {
        let alive = [true, false, true, true];
        let ids = |v: &[u16]| v.iter().map(|&m| MdsId(m)).collect::<Vec<_>>();
        assert_eq!(heirs(&alive, 0, 4), ids(&[0, 2, 3, 0]));
        assert_eq!(heirs(&alive, 1, 4), ids(&[2, 3, 0, 2]), "the first crash starts one in");
        assert_eq!(heirs(&alive, 5, 2), ids(&[3, 0]));
        assert!(heirs(&alive, 2, 0).is_empty());
    }

    #[test]
    fn ring_walk_skips_dead_nodes_and_wraps() {
        let alive = [true, false, false, true];
        assert_eq!(live_in_ring(&alive, MdsId(0)), Some(MdsId(0)), "a live node is its own");
        assert_eq!(live_in_ring(&alive, MdsId(1)), Some(MdsId(3)));
        assert_eq!(live_in_ring(&[true, false, false], MdsId(1)), Some(MdsId(0)), "wraps");
        assert_eq!(live_in_ring(&[false; 3], MdsId(2)), None, "no live node");
    }

    #[test]
    fn empty_spec_is_empty_schedule() {
        let s = FaultSchedule::parse("").unwrap();
        assert!(s.is_empty());
        assert!(s.expanded(8).is_empty());
    }

    #[test]
    fn durations_accept_suffixes() {
        assert_eq!(parse_duration("250ms").unwrap(), SimDuration::from_millis(250));
        assert_eq!(parse_duration("1500us").unwrap(), SimDuration::from_micros(1500));
        // Integer microseconds are exact past f64's 2^53 mantissa.
        assert_eq!(parse_duration("9007199254740993us").unwrap().as_micros(), (1 << 53) + 1);
        assert_eq!(parse_duration("2").unwrap(), SimDuration::from_secs(2));
        assert_eq!(parse_duration("0.5s").unwrap(), SimDuration::from_millis(500));
        assert!(parse_duration("-1s").is_err());
        assert!(parse_duration("zap").is_err());
    }
}
