//! Bench of record for diaspec-rs.
//!
//! One run drives one seeded workload through the public APIs of the
//! design compiler and the runtime, checks every output, and prints one
//! JSON result line last on standard output:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root: the workloads read `specs/`, the
//! checked-in generated frameworks and the lint goldens from there.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` installs the
//! timing wrappers and the runtime's own observability and reports the
//! per-layer metrics instead. `README.md` describes the workloads.

mod compile;
mod events;
mod layers;
mod parking;
mod report;
mod stats;

use report::{json_num, json_str};
use std::time::{Duration, Instant};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        budget: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload design_compile|city_parking|event_stream|parking_tcp --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    if !std::path::Path::new("specs/parking.spec").is_file() {
        eprintln!("perfbench: run from the repository root (specs/parking.spec not found)");
        std::process::exit(2);
    }
    let mut report = match args.workload.as_str() {
        "design_compile" => compile::run(&args),
        "city_parking" => parking::run_city(&args),
        "event_stream" => events::run(&args),
        "parking_tcp" => parking::run_tcp(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    if !report.has("peak_rss_mb") {
        report.set("peak_rss_mb", peak_rss_mb());
    }
    report.print(&provenance(&args), args.trace);
}

/// Times a workload's set-up. One sample is the time per set-up of a
/// batch of `per_batch` back-to-back set-ups (a batch of millisecond
/// set-ups spans tens of milliseconds, so one stall of the host does not
/// decide it). Workloads take batches before and between their
/// measurement blocks, so that the samples meet the host in more than one
/// state. `setup_s` is their 90th percentile, a slow-side tail like every
/// gated figure (see [`stats::sustained`]).
pub struct SetupClock {
    per_batch: usize,
    samples: Vec<f64>,
}

impl SetupClock {
    pub fn new(per_batch: usize) -> SetupClock {
        assert!(per_batch > 0);
        SetupClock {
            per_batch,
            samples: Vec::new(),
        }
    }

    /// Runs one batch and returns its last set-up. Each earlier set-up
    /// is dropped, outside the timer, before the next one starts.
    pub fn batch<T>(&mut self, mut setup: impl FnMut() -> T) -> T {
        let mut busy = Duration::ZERO;
        let mut last = None;
        for _ in 0..self.per_batch {
            drop(last.take());
            let start = Instant::now();
            let value = setup();
            busy += start.elapsed();
            last = Some(value);
        }
        self.samples
            .push(busy.as_secs_f64() / self.per_batch as f64);
        last.expect("at least one set-up")
    }

    /// Sets `setup_s` to the 90th percentile of the samples.
    pub fn set(&self, report: &mut report::Report) {
        report.set("setup_s", stats::percentile(&self.samples, 0.9));
        report.detail("setup_median_s", stats::median(&self.samples));
    }
}

/// Confines the calling thread, and every thread it spawns afterwards,
/// to the highest-numbered CPU it may run on. Does nothing if the
/// affinity calls fail.
pub fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }
    let mut mask = [0u8; 128];
    // SAFETY: both calls read or write at most `mask.len()` bytes of a
    // buffer that long; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return;
    }
    let Some(cpu) = (0..mask.len() * 8)
        .rev()
        .find(|c| mask[c / 8] >> (c % 8) & 1 == 1)
    else {
        return;
    };
    let mut one = [0u8; 128];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: as above.
    unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) };
}

/// SplitMix64: the benchmark's seeded input generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }
}

/// Peak resident set size of this process, in MB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("peak RSS needs /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// The host block every result carries: cores, compiler, profile,
/// commit (when the checkout is a git work tree) and the run's arguments.
fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"rustc\":{},\"profile\":{},\"commit\":{}}}",
        json_str(&args.workload),
        args.seed,
        json_num(args.budget.as_secs_f64()),
        args.trace,
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_PROFILE")),
        json_str(&git_head().unwrap_or_else(|| "unknown".to_owned())),
    )
}

/// The commit checked out in `.git`, read without running git.
fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .map(|s| s.trim().to_owned()),
        None => Some(head.to_owned()),
    }
}
