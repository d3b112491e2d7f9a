//! Criterion component microbenches (`benches/components.rs`) and the
//! scheduler microbench (`benches/scheduler.rs`). The library itself is
//! empty: Cargo needs a target for the bench-only package. Whole-figure
//! timings come from `experiments bench` and the `hostbench` package.
