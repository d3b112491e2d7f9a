//! Criterion component microbenches (`benches/components.rs`) and the
//! scheduler microbench (`benches/scheduler.rs`). The library itself is
//! empty: Cargo needs a target for the bench-only package. Whole-workload
//! timings come from the `hostbench` package.
