//! E10 — serial vs. parallel MapReduce over mass sensor data
//! (paper §IV.2; DiaSwarm \[11, 17\]).
//!
//! The workload mirrors the parking availability computation at city
//! scale, with a configurable per-record processing cost (the paper's
//! motivation is *expensive* processing of masses of readings — a free
//! counting loop would be memory-bound and hide the parallelism).

use crate::median_ns;
use diaspec_mapreduce::{
    ExecutionStats, FnCombiner, Job, MapCollector, MapReduce, ReduceCollector,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::time::Instant;

/// A synthetic presence dataset: `(lot index, occupied)` records.
#[must_use]
pub fn presence_dataset(readings: usize, lots: u32, seed: u64) -> Vec<(u32, bool)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..readings)
        .map(|_| (rng.gen_range(0..lots), rng.gen::<f64>() < 0.55))
        .collect()
}

/// Burns deterministic CPU work, returning a value the optimizer cannot
/// discard. Each unit is a short integer-hash loop (~1 ns scale).
#[inline]
#[must_use]
pub fn burn(units: u32, seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..units {
        x ^= x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x = x.rotate_left(17);
    }
    x
}

/// The availability MapReduce with `work` units of synthetic processing
/// per record (e.g. de-noising a raw sensor signal before counting).
pub struct CostedAvailability {
    /// Synthetic work units per Map record.
    pub work: u32,
}

impl MapReduce<u32, bool, u32, u64, u32, i64> for CostedAvailability {
    fn map(&self, lot: &u32, presence: &bool, out: &mut MapCollector<u32, u64>) {
        let token = burn(self.work, u64::from(*lot));
        if !presence {
            out.emit_map(*lot, token);
        }
    }

    fn reduce(&self, lot: &u32, values: &[u64], out: &mut ReduceCollector<u32, i64>) {
        // Fold the tokens so the work cannot be elided, but report counts.
        let _fold = values.iter().fold(0u64, |a, b| a ^ b);
        out.emit_reduce(*lot, values.len() as i64);
    }
}

/// A sum-per-lot job whose reduction is associative, so a combiner is
/// semantics-preserving: `sum(parts) == sum(sum(part) for part)`.
pub struct SumPerLot;

impl MapReduce<u32, bool, u32, u64, u32, u64> for SumPerLot {
    fn map(&self, lot: &u32, presence: &bool, out: &mut MapCollector<u32, u64>) {
        out.emit_map(*lot, u64::from(!presence));
    }

    fn reduce(&self, lot: &u32, values: &[u64], out: &mut ReduceCollector<u32, u64>) {
        out.emit_reduce(*lot, values.iter().sum());
    }
}

/// One row of the combiner ablation.
#[derive(Debug, Clone, Serialize)]
pub struct CombinerRow {
    /// Input readings.
    pub readings: usize,
    /// Whether map output is pre-summed per task before the shuffle.
    pub combiner: bool,
    /// Records that crossed the shuffle.
    pub shuffled: u64,
    /// Median wall-clock milliseconds over three runs.
    pub wall_ms: f64,
}

/// The combiner ablation: [`SumPerLot`] with 4 workers over cheap
/// records and 8 lots (the combiner's best case, where shuffle volume
/// dominates), without and with a summing combiner.
#[must_use]
pub fn combiner_ablation(readings: usize) -> [CombinerRow; 2] {
    let data = presence_dataset(readings, 8, 7);
    let row = |combiner: bool| {
        let run = || {
            if combiner {
                Job::parallel(4)
                    .combiner(FnCombiner(|_: &u32, vs: Vec<u64>| vec![vs.iter().sum()]))
                    .run(&SumPerLot, data.clone())
            } else {
                Job::parallel(4).run(&SumPerLot, data.clone())
            }
        };
        CombinerRow {
            readings,
            combiner,
            shuffled: run().stats.map_output_records,
            wall_ms: median_ns(3, 1, run) / 1e6,
        }
    };
    [row(false), row(true)]
}

/// One row of the processing experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ProcessingRow {
    /// Input readings.
    pub readings: usize,
    /// Worker threads (0 = the serial baseline).
    pub workers: usize,
    /// Synthetic work units per record.
    pub work: u32,
    /// Wall-clock milliseconds of the execution.
    pub wall_ms: f64,
    /// Speedup over the serial baseline at the same `(readings, work)`;
    /// 1.0 for the baseline itself.
    pub speedup: f64,
    /// Distinct groups after the shuffle.
    pub groups: u64,
}

/// Executes one configuration, returning the row and raw stats.
#[must_use]
pub fn run_once(readings: usize, workers: usize, work: u32) -> (f64, ExecutionStats) {
    let data = presence_dataset(readings, 64, 42);
    let mr = CostedAvailability { work };
    let start = Instant::now();
    let result = if workers == 0 {
        Job::serial().run(&mr, data)
    } else {
        Job::parallel(workers).run(&mr, data)
    };
    let wall = start.elapsed().as_secs_f64() * 1e3;
    (wall, result.stats)
}

/// The E10 sweep: serial baseline plus each worker count, with speedups.
#[must_use]
pub fn sweep(readings: usize, worker_counts: &[usize], work: u32) -> Vec<ProcessingRow> {
    // Median of three runs keeps the table stable.
    let measure = |workers: usize| -> (f64, ExecutionStats) {
        let mut runs: Vec<(f64, ExecutionStats)> =
            (0..3).map(|_| run_once(readings, workers, work)).collect();
        runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        runs.swap_remove(1)
    };
    let (serial_wall, serial_stats) = measure(0);
    let mut rows = vec![ProcessingRow {
        readings,
        workers: 0,
        work,
        wall_ms: serial_wall,
        speedup: 1.0,
        groups: serial_stats.groups,
    }];
    for &workers in worker_counts {
        let (wall, stats) = measure(workers);
        rows.push(ProcessingRow {
            readings,
            workers,
            work,
            wall_ms: wall,
            speedup: serial_wall / wall.max(1e-9),
            groups: stats.groups,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_is_deterministic_and_covers_lots() {
        let a = presence_dataset(10_000, 16, 1);
        let b = presence_dataset(10_000, 16, 1);
        assert_eq!(a, b);
        let lots: std::collections::BTreeSet<u32> = a.iter().map(|(l, _)| *l).collect();
        assert_eq!(lots.len(), 16);
        assert_ne!(a, presence_dataset(10_000, 16, 2));
    }

    #[test]
    fn burn_depends_on_units() {
        assert_eq!(burn(100, 7), burn(100, 7));
        assert_ne!(burn(100, 7), burn(101, 7));
        assert_eq!(burn(0, 7), 7);
    }

    #[test]
    fn serial_and_parallel_agree_on_output_counts() {
        let (_, serial) = run_once(20_000, 0, 8);
        let (_, parallel) = run_once(20_000, 4, 8);
        assert_eq!(serial.groups, parallel.groups);
        assert_eq!(serial.reduce_output_records, parallel.reduce_output_records);
        assert_eq!(serial.map_output_records, parallel.map_output_records);
    }

    #[test]
    fn parallel_speeds_up_costly_processing() {
        if std::thread::available_parallelism().map_or(1, usize::from) < 4 {
            return; // meaningless on a single-core runner
        }
        let rows = sweep(60_000, &[4], 200);
        let parallel = rows.iter().find(|r| r.workers == 4).unwrap();
        assert!(
            parallel.speedup > 1.5,
            "4 workers on costly records must beat serial: {rows:?}"
        );
    }
}
