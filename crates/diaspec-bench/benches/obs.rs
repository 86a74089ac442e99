//! Observability overhead: the E1 continuum workload with telemetry off
//! (the default) and on (tracing plus activity recording, written out as
//! JSON Lines). The "off" series is the tier-1 configuration — its cost
//! per event is a counter bump plus one branch per record site — so
//! `off` vs `on` bounds what observability buys and costs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use diaspec_bench::continuum;
use diaspec_runtime::obs::LatencyHistogram;
use diaspec_runtime::telemetry::{Record, Telemetry};
use diaspec_runtime::{ProcessingMode, SpanCtx, SpanStage};

fn bench_e1_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs/e1");
    group.sample_size(10);
    let sensors_per_lot = 25;

    group.bench_function("observability_off", |b| {
        b.iter(|| continuum::run_scale(sensors_per_lot, ProcessingMode::Serial));
    });
    group.bench_function("observability_on", |b| {
        b.iter(|| {
            let path = std::env::temp_dir().join("diaspec_obs_bench_trace.jsonl");
            continuum::observed_run(sensors_per_lot, &path).expect("trace writable")
        });
    });
    group.finish();
}

fn bench_record_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs/record");

    let mut disabled = Telemetry::new();
    group.bench_function("disabled_hub", |b| {
        b.iter(|| {
            let record = Record::Delivered(black_box("Ctx"), black_box(42), SpanCtx::NONE);
            disabled.record(0, record)
        });
    });

    let mut enabled = Telemetry::new();
    enabled.set_observability(true);
    group.bench_function("enabled_hub", |b| {
        b.iter(|| {
            let record = Record::Delivered(black_box("Ctx"), black_box(42), SpanCtx::NONE);
            enabled.record(0, record)
        });
    });

    let mut hist = LatencyHistogram::new();
    group.bench_function("histogram_record", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.record(black_box(v >> 40));
        });
    });

    group.finish();
}

/// The three states of a span site: disabled (one branch, the tier-1
/// configuration), cheap tracing (IDs + stage histograms, no span
/// records — the load-harness mode), and full materialization (the
/// buffered spans Perfetto export drains).
fn bench_span_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs/spans");

    let disabled = Telemetry::new();
    group.bench_function("disabled_gate", |b| {
        b.iter(|| {
            black_box(black_box(&disabled).spans_enabled()) || black_box(SpanCtx::NONE).is_active()
        });
    });

    let mut cheap = Telemetry::new();
    cheap.set_span_tracing(true);
    cheap.set_span_buffering(false);
    group.bench_function("cheap_open_close", |b| {
        b.iter(|| {
            let open = cheap.open_root(0, SpanCtx::NONE, black_box(SpanStage::Dispatch), || {
                unreachable!("labels are only built for buffered spans")
            });
            cheap.close(0, open)
        });
    });

    let mut full = Telemetry::new();
    full.set_span_tracing(true);
    group.bench_function("materialized_open_close", |b| {
        b.iter(|| {
            let open = full.open_root(0, SpanCtx::NONE, black_box(SpanStage::Dispatch), || {
                "SpotAvail".to_owned()
            });
            full.close(0, open)
        });
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_e1_overhead,
    bench_record_paths,
    bench_span_paths
);
criterion_main!(benches);
