//! # diaspec-bench — experiment harnesses
//!
//! Shared workload builders and measurement harnesses behind the
//! repository's experiments (see `DESIGN.md` for the per-experiment index
//! and `EXPERIMENTS.md` for recorded results):
//!
//! - [`continuum`] — E1: the same design from tens to tens of thousands of
//!   sensors, and the cost of its telemetry;
//! - [`churn`] — E16: recovery cost under seeded device churn (leases,
//!   retries, standby rebinds);
//! - [`chaossoak`] — E21: byte-identical orchestration under chaos
//!   transport faults (session resends, replay lateness percentiles);
//! - [`delivery`] — E11: message volume and latency of the three data
//!   delivery models;
//! - [`processing`] — E10: serial vs. parallel MapReduce;
//! - [`taskfaults`] — E17: coverage and wall-clock vs injected
//!   task-failure rate;
//! - [`discovery`] — E12: entity discovery latency vs. registry size;
//! - [`fanout`] — E18: subscriber fan-out × payload size (zero-copy
//!   delivery);
//! - [`loadgen`] — E20: open-loop load harness, latency-under-load
//!   percentiles and the throughput knee;
//! - [`share`] — E9: the generated-code fraction;
//! - [`compiler`] — E13: per-phase design-compiler wall time.
//!
//! The `experiments` binary prints every table.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaossoak;
pub mod churn;
pub mod compiler;
pub mod continuum;
pub mod delivery;
pub mod discovery;
pub mod fanout;
pub mod loadgen;
pub mod processing;
pub mod share;
pub mod taskfaults;

use std::hint::black_box;
use std::time::Instant;

/// The median of `samples` (the upper middle one for an even count).
///
/// # Panics
///
/// Panics if `samples` is empty.
#[must_use]
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median nanoseconds per call of `f` over `trials` timed loops of
/// `iters` calls each, after one untimed warm-up loop.
pub fn median_ns<R>(trials: usize, iters: u32, mut f: impl FnMut() -> R) -> f64 {
    let mut timed_loop = || {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        start.elapsed().as_nanos() as f64 / f64::from(iters.max(1))
    };
    timed_loop();
    median((0..trials.max(1)).map(|_| timed_loop()).collect())
}
