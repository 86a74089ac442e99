//! Tests of the observability layer: histogram properties (satellite of
//! the activity-metrics work) and end-to-end activity attribution
//! through a small sense-compute-control chain.
//!
//! Histogram invariants:
//! 1. Merging two histograms is exactly equivalent to recording the
//!    union of their streams (buckets, count, sum, extremes, and hence
//!    every quantile).
//! 2. Quantiles are monotone in `q` and always fall within
//!    `[min, max]`.
//! 3. A single-value histogram reports that value exactly at every
//!    quantile.

use diaspec_core::compile_str;
use diaspec_runtime::component::ContextActivation;
use diaspec_runtime::engine::{ContextApi, ControllerApi, Orchestrator};
use diaspec_runtime::entity::DeviceInstance;
use diaspec_runtime::error::DeviceError;
use diaspec_runtime::obs::{render_prometheus, write_jsonl, LatencyHistogram};
use diaspec_runtime::transport::{LatencyModel, TransportConfig};
use diaspec_runtime::value::Value;
use diaspec_runtime::Activity;
use proptest::prelude::*;
use std::sync::Arc;

// ---- histogram properties -------------------------------------------------

fn record_all(values: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn merge_equals_union_stream(
        a in proptest::collection::vec(any::<u64>(), 0..120),
        b in proptest::collection::vec(any::<u64>(), 0..120),
    ) {
        let mut merged = record_all(&a);
        merged.merge(&record_all(&b));
        let union: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        let direct = record_all(&union);
        prop_assert_eq!(&merged, &direct);
        for i in 0..=20 {
            let q = f64::from(i) / 20.0;
            prop_assert_eq!(merged.quantile(q), direct.quantile(q));
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(
        values in proptest::collection::vec(any::<u64>(), 1..200),
    ) {
        let h = record_all(&values);
        let mut prev = 0u64;
        for i in 0..=100 {
            let q = h.quantile(f64::from(i) / 100.0);
            prop_assert!(q >= prev, "quantile regressed at {}%: {} < {}", i, q, prev);
            prop_assert!(q >= h.min() && q <= h.max());
            prev = q;
        }
        prop_assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn single_value_is_reported_exactly(v in any::<u64>()) {
        let h = record_all(&[v]);
        for i in 0..=10 {
            prop_assert_eq!(h.quantile(f64::from(i) / 10.0), v);
        }
        prop_assert_eq!(h.min(), v);
        prop_assert_eq!(h.max(), v);
        prop_assert_eq!(h.sum(), v);
    }

    #[test]
    fn count_and_sum_are_exact(
        values in proptest::collection::vec(0u64..1_000_000, 0..150),
    ) {
        let h = record_all(&values);
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
    }
}

// ---- end-to-end activity attribution --------------------------------------

const SPEC: &str = r#"
    device Sensor { source v as Integer; }
    device Sink { action absorb; }
    context Fast as Integer { when provided v from Sensor always publish; }
    controller Out { when provided Fast do absorb on Sink; }
"#;

struct Sink;
impl DeviceInstance for Sink {
    fn query(&mut self, s: &str, _n: u64) -> Result<Value, DeviceError> {
        Err(DeviceError::new("sink", s, "no sources"))
    }
    fn invoke(&mut self, _a: &str, _args: &[Value], _n: u64) -> Result<(), DeviceError> {
        Ok(())
    }
}

fn build(transport: TransportConfig) -> Orchestrator {
    let spec = Arc::new(compile_str(SPEC).unwrap());
    let mut orch = Orchestrator::with_transport(spec, transport);
    orch.register_context(
        "Fast",
        |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::SourceEvent { value, .. } => Ok(Some((*value).clone())),
            _ => Ok(None),
        },
    )
    .unwrap();
    orch.register_controller("Out", |api: &mut ControllerApi<'_>, _: &str, _: &Value| {
        for sink in api.discover("Sink")?.ids() {
            api.invoke(&sink, "absorb", &[])?;
        }
        Ok(())
    })
    .unwrap();
    orch
}

fn bind_and_launch(orch: &mut Orchestrator) {
    orch.bind_entity(
        "s-1".into(),
        "Sensor",
        Default::default(),
        Box::new(|_: &str, _: u64| Ok(Value::Int(0))),
    )
    .unwrap();
    orch.bind_entity("sink-1".into(), "Sink", Default::default(), Box::new(Sink))
        .unwrap();
    orch.launch().unwrap();
}

#[test]
fn activities_are_attributed_with_labels_and_units() {
    let mut orch = build(TransportConfig {
        latency: LatencyModel::Fixed(50),
        ..TransportConfig::default()
    });
    orch.set_observability(true);
    bind_and_launch(&mut orch);
    let sensor = "s-1".into();
    for t in 0..10 {
        orch.emit_at(t * 1000, &sensor, "v", Value::Int(1), None)
            .unwrap();
    }
    orch.run_until(20_000);
    assert!(orch.drain_errors().is_empty());

    let snap = orch.observation();

    let binding = snap.activity(Activity::Binding).unwrap();
    assert_eq!(binding.latency.count, 2, "two entities bound");
    assert_eq!(binding.labels["Sensor"], 1);
    assert_eq!(binding.labels["Sink"], 1);
    assert_eq!(binding.unit, "us");

    // Each emission crosses the transport twice: sensor -> context and
    // context -> controller, both at exactly 50 ms.
    let delivering = snap.activity(Activity::Delivering).unwrap();
    assert_eq!(delivering.latency.count, orch.metrics().messages_delivered);
    assert_eq!(delivering.latency.count, 20);
    assert_eq!(delivering.latency.p50, 50);
    assert_eq!(delivering.latency.p99, 50);
    assert_eq!(delivering.latency.max, 50);
    assert_eq!(delivering.labels["Fast"], 10);
    assert_eq!(delivering.labels["Out"], 10);
    assert_eq!(delivering.unit, "ms");

    let processing = snap.activity(Activity::Processing).unwrap();
    assert_eq!(
        processing.latency.count,
        orch.metrics().context_activations + orch.metrics().controller_activations
    );
    assert_eq!(processing.labels["Fast"], 10);
    assert_eq!(processing.labels["Out"], 10);

    let actuating = snap.activity(Activity::Actuating).unwrap();
    assert_eq!(actuating.latency.count, 10);
    assert_eq!(actuating.labels["Sink.absorb"], 10);

    // Delivering holds exactly the per-hop samples the counters sum.
    assert_eq!(
        delivering.latency.sum,
        orch.metrics().total_transport_latency_ms
    );

    // And the snapshot renders in the Prometheus exposition style.
    let text = render_prometheus(&snap);
    assert!(text.contains(
        "diaspec_activity_operations_total{activity=\"actuating\",component=\"Sink.absorb\"} 10"
    ));
    assert!(text.contains("diaspec_activity_latency_count{activity=\"delivering\",unit=\"ms\"} 20"));
}

#[test]
fn observability_disabled_records_nothing() {
    let mut orch = build(TransportConfig::default());
    bind_and_launch(&mut orch);
    let sensor = "s-1".into();
    orch.emit_at(100, &sensor, "v", Value::Int(7), None)
        .unwrap();
    orch.run_until(1_000);
    assert!(orch.metrics().actuations > 0, "the run itself happened");
    let snap = orch.observation();
    for activity in &snap.activities {
        assert_eq!(activity.latency.count, 0, "{}", activity.activity);
        assert!(activity.labels.is_empty());
    }
}

#[test]
fn jsonl_export_produces_parseable_lines() {
    let mut orch = build(TransportConfig::default());
    orch.set_tracing(true);
    orch.set_observability(true);
    orch.set_span_tracing(true);
    bind_and_launch(&mut orch);
    let sensor = "s-1".into();
    for t in 0..3 {
        orch.emit_at(t * 100, &sensor, "v", Value::Int(1), None)
            .unwrap();
    }
    orch.run_until(1_000);

    let mut out = Vec::new();
    let (trace, spans) = (orch.take_trace(), orch.take_spans());
    let written = write_jsonl(&mut out, &trace, &spans, &orch.observation()).unwrap();
    let text = String::from_utf8(out).unwrap();
    let mut counts = std::collections::BTreeMap::new();
    for line in text.lines() {
        let v: serde_json::Value = serde_json::from_str(line).unwrap();
        let key = ["trace", "span", "snapshot"]
            .into_iter()
            .find(|k| !v[*k].is_null())
            .unwrap_or_else(|| panic!("unexpected line: {line}"));
        *counts.entry(key).or_insert(0u64) += 1;
    }
    assert_eq!(counts["trace"], 15, "3 chains x 5 events");
    assert_eq!(counts["span"], spans.len() as u64);
    assert!(!spans.is_empty());
    assert_eq!(counts["snapshot"], 1);
    assert_eq!(written, 16 + spans.len() as u64);
}

#[test]
fn trace_drop_counter_resets_on_drain() {
    // The internal trace buffer caps at 100_000 events; a chain produces
    // five, so 20_001 emissions overflow it by five.
    let mut orch = build(TransportConfig::default());
    bind_and_launch(&mut orch);
    orch.set_tracing(true);
    let sensor = "s-1".into();
    for t in 0..20_001u64 {
        orch.emit_at(t, &sensor, "v", Value::Int(1), None).unwrap();
    }
    orch.run_until(30_000);
    assert_eq!(orch.trace_dropped(), 5);
    let events = orch.take_trace();
    assert_eq!(events.len(), 100_000);
    assert_eq!(
        orch.trace_dropped(),
        0,
        "draining must start a fresh drop window"
    );
}
