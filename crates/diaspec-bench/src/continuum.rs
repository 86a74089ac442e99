//! E1 — the orchestration continuum (paper Figure 1).
//!
//! Runs the *same* parking design at increasing infrastructure sizes and
//! records wiring cost, simulation throughput, and orchestration volume.
//! The paper's claim is qualitative — one design methodology spans the
//! continuum — so the measured series shows cost growing smoothly with
//! scale while the application code stays byte-identical.

use crate::median_ns;
use diaspec_apps::parking::{build, ParkingApp, ParkingAppConfig};
use diaspec_runtime::obs::write_jsonl;
use diaspec_runtime::telemetry::{Record, Telemetry};
use diaspec_runtime::{LatencyHistogram, ObsSnapshot, ProcessingMode, SpanCtx, SpanStage};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// One row of the continuum experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ContinuumRow {
    /// Total presence sensors bound city-wide.
    pub sensors: usize,
    /// Wall-clock milliseconds to build and bind the application.
    pub build_ms: f64,
    /// Wall-clock milliseconds to simulate one 10-minute delivery period.
    pub period_wall_ms: f64,
    /// Readings gathered in that period.
    pub readings: u64,
    /// Context publications in that period.
    pub publications: u64,
    /// Device actuations in that period.
    pub actuations: u64,
    /// Sensor readings processed per wall-clock second.
    pub readings_per_sec: f64,
}

/// One 10-minute delivery period, in sim-ms.
const PERIOD_MS: u64 = 10 * 60 * 1000;

/// Builds the parking application from `config` and times its run to
/// `until_ms`, with tracing and observability on when `telemetry` is
/// set. Asserts the run surfaced no errors.
fn timed_run(
    config: ParkingAppConfig,
    telemetry: bool,
    until_ms: u64,
) -> (ContinuumRow, ParkingApp) {
    let sensors_per_lot = config.sensors_per_lot;
    let build_start = Instant::now();
    let mut app = build(config).expect("parking app builds");
    let build_ms = build_start.elapsed().as_secs_f64() * 1e3;
    app.orchestrator.set_tracing(telemetry);
    app.orchestrator.set_observability(telemetry);

    let sim_start = Instant::now();
    app.orchestrator.run_until(until_ms);
    let period_wall = sim_start.elapsed();

    let m = *app.orchestrator.metrics();
    let errors = app.orchestrator.drain_errors();
    assert!(errors.is_empty(), "continuum run must be clean: {errors:?}");
    let row = ContinuumRow {
        sensors: sensors_per_lot * 8,
        build_ms,
        period_wall_ms: period_wall.as_secs_f64() * 1e3,
        readings: m.readings_polled,
        publications: m.publications,
        actuations: m.actuations,
        readings_per_sec: m.readings_polled as f64 / period_wall.as_secs_f64().max(1e-9),
    };
    (row, app)
}

/// Runs one scale point: `sensors_per_lot` sensors in each of the 8 lots.
#[must_use]
pub fn run_scale(sensors_per_lot: usize, processing: ProcessingMode) -> ContinuumRow {
    let config = ParkingAppConfig {
        sensors_per_lot,
        processing,
        ..ParkingAppConfig::default()
    };
    timed_run(config, false, PERIOD_MS).0
}

/// The default scale sweep of experiment E1.
#[must_use]
pub fn sweep(scales: &[usize]) -> Vec<ContinuumRow> {
    scales
        .iter()
        .map(|s| run_scale(*s, ProcessingMode::Serial))
        .collect()
}

/// Result of the observed E1 run: the usual row plus the per-activity
/// latency breakdown and the size of the JSONL trace written.
#[derive(Debug)]
pub struct ObservedRun {
    /// The continuum measurements of the run.
    pub row: ContinuumRow,
    /// Activity-labeled latency histograms and counters.
    pub snapshot: ObsSnapshot,
    /// JSON Lines written to the trace file.
    pub trace_lines: u64,
}

/// The observed E1 scale point on a city-scale low-power WAN (uniform
/// 20–200 ms per hop, so the delivery histogram exercises a realistic
/// spread rather than the ideal zero-latency default), run one second
/// past the 10-minute period: with 20-200 ms hops, batches polled at the
/// period boundary are still in flight at exactly 10 min and the
/// processing/actuation tail would be cut off.
fn lpwan_run(sensors_per_lot: usize, telemetry: bool) -> (ContinuumRow, ParkingApp) {
    use diaspec_runtime::transport::{LatencyModel, TransportConfig};
    let config = ParkingAppConfig {
        sensors_per_lot,
        processing: ProcessingMode::Serial,
        transport: TransportConfig {
            latency: LatencyModel::Uniform {
                min_ms: 20,
                max_ms: 200,
            },
            loss_probability: 0.0,
            seed: 1,
        },
        ..ParkingAppConfig::default()
    };
    timed_run(config, telemetry, PERIOD_MS + 1_000)
}

/// The observed E1 scale point with telemetry off: the same transport,
/// seed and run length as [`observed_run`], so the two differ only in
/// tracing and observability.
#[must_use]
pub fn unobserved_run(sensors_per_lot: usize) -> ContinuumRow {
    lpwan_run(sensors_per_lot, false).0
}

/// Runs the observed E1 scale point with full observability:
/// activity-duration recording and tracing on, then every drained trace
/// event plus the final snapshot written as JSON Lines to `trace_path`
/// (outside the timed window).
///
/// # Errors
///
/// Propagates trace-file write errors, and refuses to write a truncated
/// trace when the bounded trace buffer dropped events.
pub fn observed_run(
    sensors_per_lot: usize,
    trace_path: &std::path::Path,
) -> std::io::Result<ObservedRun> {
    let (row, mut app) = lpwan_run(sensors_per_lot, true);
    let dropped = app.orchestrator.trace_dropped();
    if dropped > 0 {
        return Err(std::io::Error::other(format!(
            "the trace buffer dropped {dropped} events; refusing to write a truncated trace"
        )));
    }
    let snapshot = app.orchestrator.observation();
    let (trace, spans) = (app.orchestrator.take_trace(), app.orchestrator.take_spans());
    let file = std::io::BufWriter::new(std::fs::File::create(trace_path)?);
    let trace_lines = write_jsonl(file, &trace, &spans, &snapshot)?;
    Ok(ObservedRun {
        row,
        snapshot,
        trace_lines,
    })
}

/// Median nanoseconds per call of one telemetry path.
#[derive(Debug, Clone, Serialize)]
pub struct TelemetryCost {
    /// The path timed.
    pub path: &'static str,
    /// Median nanoseconds per call over five timed loops.
    pub ns: f64,
}

/// Per-call cost of the telemetry paths an E1 run takes: a record call
/// with observability off (the tier-1 configuration) and on, one
/// histogram sample, and the three span-site states — disabled (one
/// branch), cheap (IDs and stage histograms, no span records; the load
/// harness's mode) and materialized (buffered spans, what Perfetto
/// export drains). `iters` calls per timed loop.
#[must_use]
pub fn telemetry_costs(iters: u32) -> Vec<TelemetryCost> {
    let delivered = || Record::Delivered(black_box("Ctx"), black_box(42), SpanCtx::NONE);
    let mut disabled = Telemetry::new();
    let mut enabled = Telemetry::new();
    enabled.set_observability(true);
    let mut hist = LatencyHistogram::new();
    let mut v = 0u64;
    let mut cheap = Telemetry::new();
    cheap.set_span_tracing(true);
    cheap.set_span_buffering(false);
    let mut full = Telemetry::new();
    full.set_span_tracing(true);
    let span = |tel: &mut Telemetry, label: fn() -> String| {
        let open = tel.open_root(0, SpanCtx::NONE, black_box(SpanStage::Dispatch), label);
        tel.close(0, open)
    };
    vec![
        TelemetryCost {
            path: "disabled record",
            ns: median_ns(5, iters, || disabled.record(0, delivered())),
        },
        TelemetryCost {
            path: "enabled record",
            ns: median_ns(5, iters, || enabled.record(0, delivered())),
        },
        TelemetryCost {
            path: "histogram record",
            ns: median_ns(5, iters, || {
                v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                hist.record(black_box(v >> 40));
            }),
        },
        TelemetryCost {
            path: "disabled span gate",
            ns: median_ns(5, iters, || {
                black_box(&disabled).spans_enabled() || black_box(SpanCtx::NONE).is_active()
            }),
        },
        TelemetryCost {
            path: "cheap span",
            ns: median_ns(5, iters, || {
                span(&mut cheap, || unreachable!("cheap spans build no label"))
            }),
        },
        TelemetryCost {
            path: "materialized span",
            ns: median_ns(5, iters, || span(&mut full, || "SpotAvail".to_owned())),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_points_produce_consistent_volumes() {
        let small = run_scale(5, ProcessingMode::Serial);
        assert_eq!(small.sensors, 40);
        // Two 10-minute contexts poll every sensor once each.
        assert_eq!(small.readings, 80);
        assert!(small.publications >= 2, "{small:?}");
        assert!(small.readings_per_sec > 0.0);
        let larger = run_scale(50, ProcessingMode::Serial);
        assert_eq!(larger.readings, 800);
        assert!(larger.readings >= small.readings * 10);
    }

    #[test]
    fn observed_run_breaks_down_activities_and_writes_a_trace() {
        let path = std::env::temp_dir().join("diaspec_e1_trace_test.jsonl");
        let observed = observed_run(5, &path).expect("trace file writable");
        assert_eq!(observed.row.readings, 80);

        let delivering = observed
            .snapshot
            .activity(diaspec_runtime::Activity::Delivering)
            .expect("delivering snapshot");
        assert!(delivering.latency.count > 0);
        assert!(delivering.latency.p50 >= 20 && delivering.latency.max <= 200);
        assert!(delivering.latency.p50 <= delivering.latency.p90);
        assert!(delivering.latency.p90 <= delivering.latency.p99);

        let processing = observed
            .snapshot
            .activity(diaspec_runtime::Activity::Processing)
            .expect("processing snapshot");
        assert!(processing.latency.count > 0, "contexts ran");

        assert!(observed.trace_lines > 0);
        let text = std::fs::read_to_string(&path).expect("trace file exists");
        assert_eq!(text.lines().count() as u64, observed.trace_lines);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn telemetry_costs_time_every_path() {
        let costs = telemetry_costs(1_000);
        assert_eq!(costs.len(), 6);
        assert!(costs.iter().all(|c| c.ns.is_finite() && c.ns >= 0.0));
        let materialized = costs.last().unwrap();
        assert!(materialized.ns > 0.0, "{costs:?}");
    }
}
