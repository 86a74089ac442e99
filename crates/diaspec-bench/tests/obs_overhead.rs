//! Test-level bound on the telemetry-disabled hot path.
//!
//! With tracing, observability and span tracing off (the default, and
//! the tier-1 configuration), every record site in the engine makes one
//! `Telemetry::record` call that bumps a counter and returns after a
//! single branch, and every span site reduces to one branch. These tests
//! time those calls in a tight loop and bound each below 50 ns — a
//! generous ceiling for what costs a few nanoseconds.

use diaspec_runtime::entity::EntityId;
use diaspec_runtime::telemetry::{Open, Record, Telemetry};
use diaspec_runtime::{Activity, SpanCtx};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Held while timing, so the tests of this file never time each other.
static TIMING: Mutex<()> = Mutex::new(());

/// Nanoseconds per run of `$body` (with `$i` bound to the iteration),
/// over 2M runs after a warm-up. A macro, not a closure, so that an
/// unoptimized build times the body and not a call around it.
macro_rules! ns_per_call {
    (|$i:ident| $body:block) => {{
        let _alone = TIMING
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for $i in 0..10_000u64 {
            $body
        }
        let n = 2_000_000u64;
        let start = Instant::now();
        for $i in 0..n {
            $body
        }
        start.elapsed().as_nanos() as f64 / n as f64
    }};
}

#[test]
fn disabled_record_path_is_near_zero() {
    let mut tel = Telemetry::new();
    let ns = ns_per_call!(|i| {
        let record = Record::Delivered(black_box("Ctx"), black_box(i), SpanCtx::NONE);
        black_box(black_box(&mut tel).record(i, record));
    });
    assert!(
        ns < 50.0,
        "disabled record path costs {ns:.1} ns/call; expected ~1 ns"
    );
    // Counted, but nothing was recorded into the activity histogram.
    assert_eq!(tel.metrics().messages_delivered, 2_010_000);
    let snapshot = tel.snapshot(0);
    let delivering = snapshot.activity(Activity::Delivering).unwrap();
    assert_eq!(delivering.latency.count, 0);
}

#[test]
fn disabled_span_sites_stay_within_the_single_branch_budget() {
    let tel = Telemetry::new();
    assert!(!tel.spans_enabled(), "span tracing must be off by default");

    // With tracing off, a span site in the engine reduces to exactly one
    // of these two checks: the flow entry gate (`spans_enabled`) or the
    // propagated-context gate (`SpanCtx::is_active`, trace_id != 0). No
    // IDs are minted, no labels built, no histograms touched.
    let ns = ns_per_call!(|_i| {
        if black_box(&tel).spans_enabled() {
            unreachable!("tracing is off");
        }
        if black_box(SpanCtx::NONE).is_active() {
            unreachable!("no active span context");
        }
    });
    assert!(
        ns < 50.0,
        "disabled span site costs {ns:.1} ns; expected ~1 ns"
    );
}

#[test]
fn disabled_unified_record_call_is_near_zero() {
    let mut tel = Telemetry::new();
    let entity = EntityId::from("sink-1");
    let error = diaspec_runtime::RuntimeError::Configuration("boom".to_owned());
    // One record per kind of site, picked at run time so the call
    // dispatches on an opaque variant as in the engine.
    let records = [
        Record::Emission(&entity, "v", Open::NONE),
        Record::ContextActivation("Ctx"),
        Record::Computed("Ctx", Open::NONE),
        Record::Actuation(&entity, "Sink", "absorb", Open::NONE),
        Record::Fault(&"message drop"),
        Record::Error(&error),
        Record::Query,
        Record::Lost,
    ];
    let ns = ns_per_call!(|i| {
        let record = black_box(&records)[(i & 7) as usize];
        black_box(black_box(&mut tel).record(i, record));
    });
    assert!(
        ns < 50.0,
        "disabled record call costs {ns:.1} ns; expected a few ns"
    );
    assert!(tel.take_trace().is_empty(), "nothing traced while off");
    assert_eq!(tel.open_spans(), 0);
    assert_eq!(tel.metrics().actuations, 2_010_000 / 8);
}
