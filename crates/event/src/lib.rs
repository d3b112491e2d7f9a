//! Deterministic discrete-event simulation core.
//!
//! The metadata-cluster simulator described in *Dynamic Metadata Management
//! for Petabyte-Scale File Systems* (Weil et al., SC 2004) is event driven:
//! client requests, inter-MDS messages, disk completions and load-balancer
//! heartbeats are all events ordered by virtual time. This crate provides
//! the pieces those engines are built from:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond virtual time,
//! * [`EventQueue`] — a stable priority queue of timestamped events
//!   (a 4-ary heap of keys; [`HeapEventQueue`] is its reference model),
//! * [`SimRng`] — a seeded random-number source with the distribution
//!   helpers the workload and namespace generators need.
//!
//! Each engine owns its queue and its dispatch loop: peek at the next
//! event time, then drain that instant with [`EventQueue::pop_due`].
//!
//! Everything is deterministic: two runs with the same seed and the same
//! event insertion order produce identical traces. Ties in time are broken
//! by insertion sequence number, never by heap internals.
//!
//! # Example
//!
//! ```
//! use dynmds_event::{EventQueue, SimDuration, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::ZERO, 1u32);
//! let mut fired = Vec::new();
//! while let Some(now) = queue.peek_time() {
//!     while let Some(ev) = queue.pop_due(now) {
//!         fired.push((now.as_micros(), ev));
//!         if ev < 3 {
//!             queue.schedule(now + SimDuration::from_micros(10), ev + 1);
//!         }
//!     }
//! }
//! assert_eq!(fired, [(0, 1), (10, 2), (20, 3)]);
//! ```

mod queue;
mod rng;
mod time;

pub use queue::{EventQueue, HeapEventQueue, ScheduledEvent};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
