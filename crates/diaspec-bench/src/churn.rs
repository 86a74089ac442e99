//! E16 — recovery cost under device churn.
//!
//! A leased sensor fleet feeds a periodic relay context while a seeded
//! fault plan drops a fraction of all messages and crashes a fraction of
//! the fleet at staggered times. Standby devices wait for promotion. The
//! row records what the recovery machinery paid: lease-expiry detections,
//! standby rebinds, per-delivery retries, and the `recovering` activity
//! histogram (detection latency + retry backoff) from the obs layer —
//! the paper's §VI error-handling concerns made measurable.

use diaspec_devices::common::{ActuationLog, RecordingActuator};
use diaspec_runtime::component::ContextActivation;
use diaspec_runtime::engine::{ContextApi, ControllerApi, Orchestrator};
use diaspec_runtime::entity::AttributeMap;
use diaspec_runtime::fault::{FaultPlan, RecoveryConfig, RetryConfig};
use diaspec_runtime::value::Value;
use diaspec_runtime::Activity;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// The churn design: sensors are leased and silently skipped on failure
/// (the crash shows up as missing heartbeats, not surfaced errors).
const SPEC: &str = r#"
    @error(policy = "ignore")
    device Sensor { attribute zone as String; source v as Integer; }
    device Sink { action absorb(total as Integer); }
    context Relay as Integer {
      when periodic v from Sensor <1 sec> maybe publish;
    }
    controller Out { when provided Relay do absorb on Sink; }
"#;

/// Parameters of one churn run.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Sensors bound at launch.
    pub sensors: usize,
    /// Fraction of the fleet crashed during the run (each has a standby).
    pub crash_fraction: f64,
    /// Per-message drop probability of the fault injector.
    pub drop_probability: f64,
    /// Seed of the fault plan (crashes and drops are reproducible).
    pub seed: u64,
    /// Lease TTL in simulated milliseconds.
    pub lease_ttl_ms: u64,
    /// Simulated duration of the run in milliseconds.
    pub duration_ms: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            sensors: 100,
            crash_fraction: 0.2,
            drop_probability: 0.05,
            seed: 42,
            lease_ttl_ms: 2_000,
            duration_ms: 60_000,
        }
    }
}

/// One row of the churn experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ChurnRow {
    /// Sensors bound at launch.
    pub sensors: usize,
    /// Devices crashed by the fault plan.
    pub crashes: usize,
    /// Faults the injector applied (crashes + message drops/delays).
    pub faults_injected: u64,
    /// Deliveries retried with exponential backoff.
    pub delivery_retries: u64,
    /// Deliveries abandoned after the retry budget.
    pub deliveries_abandoned: u64,
    /// Lease expiries detected by the sweep.
    pub lease_expiries: u64,
    /// Standby promotions (automatic re-discovery).
    pub rebinds: u64,
    /// Recovery events recorded under the `recovering` activity.
    pub recovery_events: u64,
    /// Median recovery cost (ms): lease-detection latency / retry backoff.
    pub recovery_p50_ms: u64,
    /// Tail recovery cost (ms).
    pub recovery_p99_ms: u64,
    /// Sink actuations completed despite the churn.
    pub actuations: u64,
    /// Component errors that still surfaced.
    pub errors: u64,
    /// Wall-clock milliseconds for the simulated run.
    pub wall_ms: f64,
}

/// Runs one churn scenario. Deterministic for a given config.
///
/// # Panics
///
/// Panics if the bundled design fails to compile or wiring fails —
/// neither happens for valid configs.
#[must_use]
pub fn run(config: &ChurnConfig) -> ChurnRow {
    let spec = Arc::new(diaspec_core::compile_str(SPEC).expect("bundled churn spec compiles"));
    let mut orch = Orchestrator::new(spec);
    orch.register_context(
        "Relay",
        |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::Batch(batch) if !batch.readings.is_empty() => Ok(Some(Value::Int(
                batch.readings.iter().filter_map(|r| r.value.as_int()).sum(),
            ))),
            _ => Ok(None),
        },
    )
    .expect("context registers");
    orch.register_controller(
        "Out",
        |api: &mut ControllerApi<'_>, _: &str, value: &Value| {
            for sink in api.discover("Sink")?.ids() {
                api.invoke(&sink, "absorb", std::slice::from_ref(value))?;
            }
            Ok(())
        },
    )
    .expect("controller registers");

    let log = ActuationLog::new();
    orch.bind_entity(
        "sink-1".into(),
        "Sink",
        AttributeMap::new(),
        Box::new(RecordingActuator::new(log)),
    )
    .expect("sink binds");

    let zone_attrs = |i: usize| -> AttributeMap {
        let mut attrs = AttributeMap::new();
        attrs.insert("zone".to_owned(), Value::Str(format!("z{}", i % 10)));
        attrs
    };
    for i in 0..config.sensors {
        orch.bind_entity(
            format!("sensor-{i:05}").into(),
            "Sensor",
            zone_attrs(i),
            Box::new(move |_: &str, _: u64| Ok(Value::Int(1))),
        )
        .expect("sensor binds");
    }

    // Crash a staggered prefix of the fleet; each crashed sensor has a
    // same-zone standby waiting for promotion.
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let crashes = (config.sensors as f64 * config.crash_fraction).round() as usize;
    let mut plan = FaultPlan::seeded(config.seed).drop_messages(config.drop_probability);
    for i in 0..crashes {
        orch.register_standby(
            format!("standby-{i:05}").into(),
            "Sensor",
            zone_attrs(i),
            Box::new(move |_: &str, _: u64| Ok(Value::Int(1))),
        )
        .expect("standby registers");
        plan = plan.crash_at(5_000 + (i as u64) * 211, format!("sensor-{i:05}"));
    }
    orch.enable_faults(plan).expect("pre-launch");
    orch.enable_recovery(
        RecoveryConfig::default()
            .with_leases(config.lease_ttl_ms)
            .with_retry(RetryConfig::default()),
    )
    .expect("pre-launch");
    orch.set_observability(true);
    orch.launch().expect("launches");

    let start = Instant::now();
    orch.run_until(config.duration_ms);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let snapshot = orch.observation();
    let recovering = snapshot.activity(Activity::Recovering);
    let m = *orch.metrics();
    ChurnRow {
        sensors: config.sensors,
        crashes,
        faults_injected: m.faults_injected,
        delivery_retries: m.delivery_retries,
        deliveries_abandoned: m.deliveries_abandoned,
        lease_expiries: m.lease_expiries,
        rebinds: m.rebinds,
        recovery_events: recovering.map_or(0, |a| a.latency.count),
        recovery_p50_ms: recovering.map_or(0, |a| a.latency.p50),
        recovery_p99_ms: recovering.map_or(0, |a| a.latency.p99),
        actuations: m.actuations,
        errors: orch.drain_errors().len() as u64,
        wall_ms,
    }
}

/// The default scale sweep of experiment E16.
#[must_use]
pub fn sweep(scales: &[usize]) -> Vec<ChurnRow> {
    scales
        .iter()
        .map(|&sensors| {
            run(&ChurnConfig {
                sensors,
                ..ChurnConfig::default()
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_crash_is_detected_and_rebound() {
        let row = run(&ChurnConfig {
            sensors: 20,
            crash_fraction: 0.25,
            drop_probability: 0.05,
            duration_ms: 30_000,
            ..ChurnConfig::default()
        });
        assert_eq!(row.crashes, 5);
        assert_eq!(row.lease_expiries, 5, "{row:?}");
        assert_eq!(row.rebinds, 5, "{row:?}");
        assert!(row.delivery_retries > 0, "{row:?}");
        assert!(row.recovery_events >= row.rebinds, "{row:?}");
        assert_eq!(row.errors, 0, "ignore policy + recovery mask all: {row:?}");
        assert!(row.actuations > 0, "{row:?}");
    }

    #[test]
    fn churn_runs_are_reproducible() {
        let config = ChurnConfig {
            sensors: 10,
            duration_ms: 15_000,
            ..ChurnConfig::default()
        };
        let a = run(&config);
        let b = run(&config);
        assert_eq!(
            strip_wall(serde_json::to_string(&a).unwrap()),
            strip_wall(serde_json::to_string(&b).unwrap())
        );
    }

    fn strip_wall(json: String) -> String {
        // Wall-clock time is the one legitimately nondeterministic field.
        json.split(",\"wall_ms\"").next().unwrap().to_owned()
    }
}
