//! Synthetic metadata workload generators (§5.2).
//!
//! The paper generates client workloads rather than replaying traces:
//! "we chose to simulate client workload based on prior research
//! characterizing file system usage, executed against snapshots of actual
//! file systems". Three published observations shape the generators here:
//!
//! * **Op mix** — metadata operation frequencies follow the Roselli et
//!   al. 2000 trace study: stats dominate, `open`→`close` pairs and
//!   `readdir`→many-`stat` sequences are the common idioms, namespace
//!   mutations are rare ([`ops::OpMix`]).
//! * **Locality** — clients work inside a local region of the hierarchy
//!   (Floyd & Ellis 1989); the general-purpose generator gives each client
//!   a home region and only occasionally strays ([`general`]).
//! * **Scientific bursts** — LLNL 2003 traces show "bursts of activity for
//!   which all the nodes access the same file or a set of files in the
//!   same directory" ([`flash`]).
//!
//! The [`shift`] module wraps the general generator with the Figure 5/6
//! scenario: mid-run, half the clients migrate their activity into one
//! server's subtree and turn create-heavy.

pub mod diurnal;
pub mod flash;
pub mod general;
pub mod hotset;
pub mod hotspot;
pub mod ops;
pub mod scale;
pub mod shift;
pub mod trace;

pub use diurnal::{BurstyWorkload, DiurnalWorkload};
pub use flash::{BurstKind, FlashCrowd, ScientificWorkload, WriteCrowd};
pub use general::{GeneralWorkload, WorkloadConfig};
pub use hotset::HotSetWorkload;
pub use hotspot::{CreateStorm, DeepPathHerd, LookupChurn, RenameStorm};
pub use ops::{Op, OpKind, OpMix};
pub use scale::ScaleWorkload;
pub use shift::ShiftingWorkload;
pub use trace::{Trace, TraceRecord, TraceRecorder, TraceReplay};

use dynmds_event::SimTime;
use dynmds_namespace::{ClientId, Namespace};

/// A source of client operations. The simulator calls `next_op` each time
/// a client is ready to issue its next metadata request; generators see
/// the live namespace so they never target dead inodes.
pub trait Workload {
    /// The next operation for `client` at virtual time `now`.
    fn next_op(&mut self, ns: &Namespace, client: ClientId, now: SimTime) -> Op;

    /// Number of clients this workload drives.
    fn clients(&self) -> usize;

    /// The uid `client` authenticates as (default: superuser-ish 0, used
    /// by workloads that only touch world-readable trees).
    fn uid_of(&self, _client: ClientId) -> u32 {
        0
    }

    /// Multiplier on the mean client think time at virtual time `now`.
    /// Long-horizon generators ([`diurnal`]) modulate offered load by
    /// stretching think time; the default of exactly `1.0` leaves every
    /// stationary workload's timing bit-identical (`mean * 1.0 == mean`).
    fn think_scale(&self, _now: SimTime) -> f64 {
        1.0
    }
}

/// Boxed workloads forward everything, so factory-style builders can
/// return `Box<dyn Workload + Send>` and callers can still wrap the box
/// in generic combinators like [`TraceRecorder`].
impl Workload for Box<dyn Workload + Send> {
    fn next_op(&mut self, ns: &Namespace, client: ClientId, now: SimTime) -> Op {
        (**self).next_op(ns, client, now)
    }

    fn clients(&self) -> usize {
        (**self).clients()
    }

    fn uid_of(&self, client: ClientId) -> u32 {
        (**self).uid_of(client)
    }

    fn think_scale(&self, now: SimTime) -> f64 {
        (**self).think_scale(now)
    }
}
