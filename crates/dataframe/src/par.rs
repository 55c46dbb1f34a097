//! Kernels are sequential: parallelism comes from tiling (chunks → subtasks
//! → the executor's pool or the simulator's bands), never from inside a
//! kernel. This module is what is left of the morsel-thread helpers; the one
//! function stays only because the frozen `bench_e2e` calls it, and goes
//! with ROADMAP item 7(a) beside `XorbitsConfig::{threads, encoding}`.

/// Inert: there is no kernel thread count to set.
pub fn set_kernel_threads(_: usize) {}
