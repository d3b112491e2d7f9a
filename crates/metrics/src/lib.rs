//! Measurement and reporting for the dynmds simulator.
//!
//! Every figure in the paper's evaluation is either a time series
//! (Figures 5–7), a per-configuration scalar swept over a parameter
//! (Figures 2–4), or a distribution summary. The time series are the
//! engines' per-node sample rows (`dynmds_obs::SnapshotSeries`); this
//! crate provides the other two shapes plus plain-text rendering:
//!
//! * [`Summary`] — running min/mean/max/percentile statistics,
//! * [`Table`] — aligned ASCII tables and CSV output for the harness,
//! * [`AsciiChart`] — terminal line charts for the examples.

pub mod chart;
pub mod summary;
pub mod table;

pub use chart::AsciiChart;
pub use summary::{Histogram, Summary};
pub use table::Table;
