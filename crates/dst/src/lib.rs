//! Deterministic simulation testing (DST) for the dynmds cluster.
//!
//! Three pieces, composed by the `experiments torture` subcommand:
//!
//! * [`oracle`] — a flat reference-model filesystem fed by the cluster's
//!   applied-op log plus an invariant sweep (namespace, authority, anchor
//!   table, caches, replication, liveness) run at checkpoints;
//! * [`scenario`] — a seeded fuzzer: one `u64` seed expands into a full
//!   scenario (cluster size, workload mix, cache pressure, fault/churn
//!   schedule), run against the oracle with the op trace recorded;
//! * [`shrink`](mod@shrink) + [`repro`] — on divergence, delta-debug the recorded
//!   trace and fault schedule down to a minimal reproducer and write it
//!   as a plain-text file under `dst/repros/`, replayable by
//!   `tests/dst_repros.rs`.
//!
//! Everything is deterministic: the same seed produces a byte-identical
//! run (checked by the torture harness re-running a seed and comparing
//! digests), and a repro file replays the exact divergence with no
//! dependence on the workload generator that produced it.

pub mod oracle;
pub mod repro;
pub mod scenario;
pub mod shrink;

pub mod cli;

pub use oracle::{expected_authority, Oracle, RefModel};
pub use repro::Repro;
pub use scenario::{replay_trace, run_scenario, RunOutcome, Scenario};
pub use shrink::shrink;
