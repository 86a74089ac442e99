//! Timing from outside the program: probes, and wrappers that time the
//! public traits the benchmark implements or passes through
//! (`DeviceInstance`, `Process`, `Transport`).
//!
//! Wrappers are installed only in the traced run; the untraced run binds
//! the bare drivers, so end-to-end figures carry no probe cost.

use crate::report::Report;
use diaspec_runtime::engine::{Orchestrator, ProcessApi};
use diaspec_runtime::entity::DeviceInstance;
use diaspec_runtime::error::DeviceError;
use diaspec_runtime::process::Process;
use diaspec_runtime::transport::{Envelope, Transport, TransportError, TransportStats};
use diaspec_runtime::value::Value;
use diaspec_runtime::{Activity, SpanStage};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Busy time and call count of one layer, optionally keeping every
/// duration for exact percentiles. Counters are statistics only, so
/// `Relaxed` suffices; wrappers on the edge thread and the engine thread
/// share one probe.
#[derive(Default)]
pub struct Probe {
    ns: AtomicU64,
    calls: AtomicU64,
    samples: Option<Mutex<Vec<u64>>>,
}

impl Probe {
    /// A probe that also keeps every duration.
    pub fn sampled() -> Arc<Probe> {
        Arc::new(Probe {
            samples: Some(Mutex::new(Vec::new())),
            ..Probe::default()
        })
    }

    pub fn record_ns(&self, ns: u64) {
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        if let Some(samples) = &self.samples {
            samples.lock().expect("probe samples lock").push(ns);
        }
    }

    /// Forgets everything recorded so far.
    pub fn reset(&self) {
        self.ns.store(0, Ordering::Relaxed);
        self.calls.store(0, Ordering::Relaxed);
        if let Some(samples) = &self.samples {
            samples.lock().expect("probe samples lock").clear();
        }
    }

    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record_ns(elapsed_ns(start));
        out
    }

    pub fn us(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 / 1e3
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Every recorded duration in µs (empty unless [`Probe::sampled`]).
    pub fn samples_us(&self) -> Vec<f64> {
        self.samples.as_ref().map_or_else(Vec::new, |s| {
            s.lock()
                .expect("probe samples lock")
                .iter()
                .map(|&ns| ns as f64 / 1e3)
                .collect()
        })
    }
}

pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A device driver whose `query` and `invoke` calls are timed.
pub struct TimedDevice {
    inner: Box<dyn DeviceInstance>,
    query: Arc<Probe>,
    invoke: Arc<Probe>,
}

impl TimedDevice {
    /// Wraps `inner` when probes are given; returns it bare otherwise.
    pub fn wrap(
        inner: Box<dyn DeviceInstance>,
        probes: Option<(&Arc<Probe>, &Arc<Probe>)>,
    ) -> Box<dyn DeviceInstance> {
        match probes {
            Some((query, invoke)) => Box::new(TimedDevice {
                inner,
                query: Arc::clone(query),
                invoke: Arc::clone(invoke),
            }),
            None => inner,
        }
    }
}

impl DeviceInstance for TimedDevice {
    fn query(&mut self, source: &str, now_ms: u64) -> Result<Value, DeviceError> {
        let inner = &mut self.inner;
        self.query.time(|| inner.query(source, now_ms))
    }

    fn invoke(&mut self, action: &str, args: &[Value], now_ms: u64) -> Result<(), DeviceError> {
        let inner = &mut self.inner;
        self.invoke.time(|| inner.invoke(action, args, now_ms))
    }
}

/// A simulation process whose wakes are timed.
pub struct TimedProcess<P> {
    pub inner: P,
    pub probe: Arc<Probe>,
}

impl<P: Process> Process for TimedProcess<P> {
    fn wake(&mut self, api: &mut ProcessApi<'_>) -> Option<u64> {
        let inner = &mut self.inner;
        self.probe.time(|| inner.wake(api))
    }
}

/// A transport backend whose exchanges are timed.
pub struct TimedTransport<T> {
    pub inner: T,
    pub probe: Arc<Probe>,
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn backend(&self) -> &'static str {
        self.inner.backend()
    }

    fn peer(&self) -> &str {
        self.inner.peer()
    }

    fn exchange(&mut self, envelope: &Envelope) -> Result<Envelope, TransportError> {
        let inner = &mut self.inner;
        self.probe.time(|| inner.exchange(envelope))
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// The engine's share of a traced phase: drain and self time per unit
/// operation, the runtime's own counters, its cheap-mode stage sums and
/// its Processing activity. `callbacks_us` is the benchmark-owned time
/// inside the drains (logic, devices, environment, remote requests).
pub fn engine_layers(
    report: &mut Report,
    orch: &Orchestrator,
    drain: &Probe,
    callbacks_us: f64,
    ops: f64,
) {
    report.set("engine.drain.us", drain.us() / ops);
    report.set("engine.self.us", (drain.us() - callbacks_us) / ops);
    let m = orch.metrics();
    report.set("engine.publications", m.publications as f64);
    report.set("engine.messages_delivered", m.messages_delivered as f64);
    report.set("engine.actuations", m.actuations as f64);
    report.set("engine.readings_polled", m.readings_polled as f64);
    report.set("engine.component_errors", m.component_errors as f64);
    report.set(
        "engine.map_reduce_executions",
        m.map_reduce_executions as f64,
    );
    let snapshot = orch.observation();
    for stage in [
        SpanStage::Admit,
        SpanStage::Route,
        SpanStage::Schedule,
        SpanStage::Dispatch,
        SpanStage::Compute,
        SpanStage::Actuate,
        SpanStage::Ingest,
    ] {
        let name = match stage {
            SpanStage::Admit => "engine.stage.admit.us",
            SpanStage::Route => "engine.stage.route.us",
            SpanStage::Schedule => "engine.stage.schedule.sim_ms",
            SpanStage::Dispatch => "engine.stage.dispatch.us",
            SpanStage::Compute => "engine.stage.compute.us",
            SpanStage::Actuate => "engine.stage.actuate.us",
            _ => "engine.stage.ingest.us",
        };
        let sum = snapshot.stage(stage).map_or(0, |s| s.latency.sum);
        report.set(name, sum as f64 / ops);
    }
    let processing = snapshot
        .activity(Activity::Processing)
        .map_or(0, |a| a.latency.sum);
    report.set("process.processing.us", processing as f64 / ops);
}
