//! `event_stream`: a city-alert design defined here. 1 024 detectors in
//! 8 zones emit events; one event-driven context publishes each one;
//! eight controllers, one per actuator family, each discover their
//! zone's actuator by attribute and actuate it. One event is therefore
//! 1 publication, 8 deliveries, 8 discoveries and 8 actuations.
//!
//! Chosen because it is the only workload that drives event admission,
//! routing, fan-out and per-actuation discovery. Its working set is
//! small; it does no polling and no MapReduce.
//!
//! Two phases: an open loop at a fixed rate, where each event's latency
//! runs from its scheduled send to its last actuation (stamped by the
//! actuator the benchmark owns), then a closed loop in bursts, which
//! measures capacity.

use crate::layers::{elapsed_ns, engine_layers, Probe, TimedDevice};
use crate::report::Report;
use crate::{stats, Args, Rng, SetupClock};
use diaspec_runtime::component::ContextActivation;
use diaspec_runtime::engine::{ContextApi, ControllerApi, Orchestrator};
use diaspec_runtime::entity::{AttributeMap, DeviceInstance, EntityId};
use diaspec_runtime::error::{ComponentError, DeviceError};
use diaspec_runtime::value::Value;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const ZONES: usize = 8;
const DETECTORS: usize = 1024;
/// Actuator families, each actuated by its own controller.
const FAMILIES: [&str; 8] = [
    "Siren",
    "Barrier",
    "Beacon",
    "Sign",
    "Speaker",
    "Camera",
    "Gate",
    "Floodlight",
];
/// Open-loop send rate: about 40 % of what this design sustains, so
/// latency reflects the pipeline rather than a growing backlog.
const OPEN_LOOP_RATE: f64 = 25_000.0;
/// Events per closed-loop burst.
const BURST: usize = 64;
/// Unmeasured open-loop warm-up before the measured phases.
const WARM_UP: Duration = Duration::from_millis(250);
/// Closed-loop capacity is measured per window of this length.
const RATE_WINDOW: Duration = Duration::from_millis(100);
/// A send that starts this late counts as a late start of the generator.
const LATE_NS: u64 = 1_000_000;

fn spec() -> String {
    let zones: Vec<String> = (0..ZONES).map(|z| format!("Z{z}")).collect();
    let mut out = format!(
        "enumeration ZoneEnum {{ {} }}\n\
         device Detector {{ attribute zone as ZoneEnum; source alert as Integer; }}\n\
         device Responder {{ attribute zone as ZoneEnum; action trigger(code as Integer); }}\n\
         context CityAlert as Integer {{ when provided alert from Detector always publish; }}\n",
        zones.join(", ")
    );
    for family in FAMILIES {
        let _ = writeln!(out, "device {family} extends Responder {{ }}");
        let _ = writeln!(
            out,
            "controller {family}Control {{ when provided CityAlert do trigger on {family}; }}"
        );
    }
    out
}

fn zone_value(zone: usize) -> Value {
    Value::enum_value("ZoneEnum", format!("Z{zone}"))
}

/// Per-event actuation counts and last-actuation stamps, indexed by
/// event sequence number within the current phase.
struct Tracker {
    start: Instant,
    counts: Vec<u8>,
    done_ns: Vec<u64>,
}

impl Tracker {
    fn reset(&mut self, events: usize) {
        self.counts.clear();
        self.counts.resize(events, 0);
        self.done_ns.clear();
        self.done_ns.resize(events, 0);
    }
}

/// The benchmark-owned actuator: the event code is `seq * ZONES + zone`.
struct Responder {
    tracker: Arc<Mutex<Tracker>>,
}

impl DeviceInstance for Responder {
    fn query(&mut self, source: &str, _now_ms: u64) -> Result<Value, DeviceError> {
        Err(DeviceError::new(
            "responder",
            source,
            "responders have no sources",
        ))
    }

    fn invoke(&mut self, action: &str, args: &[Value], _now_ms: u64) -> Result<(), DeviceError> {
        let code = args
            .first()
            .and_then(Value::as_int)
            .ok_or_else(|| DeviceError::new("responder", action, "missing event code"))?;
        let seq = (code as usize) / ZONES;
        let mut t = self.tracker.lock().expect("tracker lock");
        let stamp = elapsed_ns(t.start);
        let slot = t
            .counts
            .get_mut(seq)
            .ok_or_else(|| DeviceError::new("responder", action, "event outside the phase"))?;
        *slot += 1;
        t.done_ns[seq] = stamp;
        Ok(())
    }
}

/// Probes of the traced run.
#[derive(Default)]
struct EventProbes {
    bind: Arc<Probe>,
    context: Arc<Probe>,
    controller: Arc<Probe>,
    discover: Arc<Probe>,
    query: Arc<Probe>,
    invoke: Arc<Probe>,
    admit: Arc<Probe>,
    drain: Arc<Probe>,
    idle_ns: u64,
    queue_wait_ns: u64,
    backlog_max: usize,
}

struct Stream {
    seed: u64,
    orch: Orchestrator,
    detectors: Vec<EntityId>,
    zone_of: Vec<usize>,
    /// Seeded sequence of emitting detectors, cycled.
    senders: Vec<usize>,
    tracker: Arc<Mutex<Tracker>>,
}

fn setup(seed: u64, probes: Option<&EventProbes>) -> Stream {
    let spec = Arc::new(diaspec_core::compile_str(&spec()).expect("event design compiles"));
    let mut orch = Orchestrator::new(spec);
    let context_probe = probes.map(|p| Arc::clone(&p.context));
    orch.register_context(
        "CityAlert",
        move |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| {
            let publish = |a: ContextActivation<'_>| match a {
                ContextActivation::SourceEvent { value, .. } => Ok(Some(value.clone())),
                _ => Ok(None),
            };
            match &context_probe {
                Some(p) => p.time(|| publish(activation)),
                None => publish(activation),
            }
        },
    )
    .expect("CityAlert is declared");
    for family in FAMILIES {
        let zones: Vec<Value> = (0..ZONES).map(zone_value).collect();
        let timing = probes.map(|p| (Arc::clone(&p.controller), Arc::clone(&p.discover)));
        let name = format!("{family}Control");
        orch.register_controller(
            &name.clone(),
            move |api: &mut ControllerApi<'_>, _: &str, value: &Value| {
                let start = Instant::now();
                let code = value
                    .as_int()
                    .ok_or_else(|| ComponentError::new(&name, "alert code is not an integer"))?;
                let zone = &zones[(code as usize) % ZONES];
                let t = Instant::now();
                let ids = api.discover(family)?.with_attribute("zone", zone).ids();
                let discover_ns = elapsed_ns(t);
                let [id] = ids.as_slice() else {
                    return Err(ComponentError::new(
                        &name,
                        format!("{} {family}s in the zone", ids.len()),
                    ));
                };
                let t = Instant::now();
                api.invoke(id, "trigger", &[Value::Int(code)])?;
                if let Some((controller, discover)) = &timing {
                    // The controller's own time excludes its calls back
                    // into the runtime (discovery, actuation).
                    let invoke_ns = elapsed_ns(t);
                    discover.record_ns(discover_ns);
                    controller.record_ns(elapsed_ns(start) - discover_ns - invoke_ns);
                }
                Ok(())
            },
        )
        .expect("controller is declared");
    }

    let mut rng = Rng::new(seed);
    let tracker = Arc::new(Mutex::new(Tracker {
        start: Instant::now(),
        counts: Vec::new(),
        done_ns: Vec::new(),
    }));
    let bind = |orch: &mut Orchestrator,
                id: EntityId,
                ty: &str,
                zone: usize,
                device: Box<dyn DeviceInstance>| {
        let mut attrs = AttributeMap::new();
        attrs.insert("zone".to_owned(), zone_value(zone));
        let t = Instant::now();
        orch.bind_entity(id, ty, attrs, device)
            .expect("entity binds");
        if let Some(p) = probes {
            p.bind.record_ns(elapsed_ns(t));
        }
    };
    let mut detectors = Vec::with_capacity(DETECTORS);
    let mut zone_of = Vec::with_capacity(DETECTORS);
    for d in 0..DETECTORS {
        let zone = rng.below(ZONES);
        let id: EntityId = format!("detector-{d}").into();
        bind(
            &mut orch,
            id.clone(),
            "Detector",
            zone,
            Box::new(|_: &str, _: u64| Ok(Value::Int(0))),
        );
        detectors.push(id);
        zone_of.push(zone);
    }
    for family in FAMILIES {
        for zone in 0..ZONES {
            let device = TimedDevice::wrap(
                Box::new(Responder {
                    tracker: Arc::clone(&tracker),
                }),
                probes.map(|p| (&p.query, &p.invoke)),
            );
            bind(
                &mut orch,
                format!("{family}-{zone}").into(),
                family,
                zone,
                device,
            );
        }
    }
    if probes.is_some() {
        orch.set_observability(true);
        orch.set_span_tracing(true);
        orch.set_span_buffering(false);
    }
    orch.launch().expect("event stream launches");
    let senders = (0..1 << 16).map(|_| rng.below(DETECTORS)).collect();
    Stream {
        seed,
        orch,
        detectors,
        zone_of,
        senders,
        tracker,
    }
}

/// Results of one open-loop phase.
struct OpenLoop {
    latencies_us: Vec<f64>,
    late: u64,
    max_late_ns: u64,
    wall_ns: u64,
}

impl Stream {
    /// Emits the `n`-th event of the seeded send order into tracker slot
    /// `slot`.
    fn emit(&mut self, slot: usize, n: usize, probes: Option<&mut EventProbes>) {
        let detector = self.senders[n % self.senders.len()];
        let code = (slot * ZONES + self.zone_of[detector]) as i64;
        let at = self.orch.now();
        let t = Instant::now();
        self.orch
            .emit_at(
                at,
                &self.detectors[detector],
                "alert",
                Value::Int(code),
                None,
            )
            .expect("detector emits");
        if let Some(p) = probes {
            p.admit.record_ns(elapsed_ns(t));
        }
    }

    fn drain(&mut self, probes: Option<&mut EventProbes>) {
        let t = Instant::now();
        self.orch.run_until(u64::MAX);
        if let Some(p) = probes {
            p.drain.record_ns(elapsed_ns(t));
        }
    }

    /// Checks that each of the first `events` tracker slots got one
    /// actuation per family.
    fn check_phase(&self, events: usize, report: &mut Report) {
        let t = self.tracker.lock().expect("tracker lock");
        for (seq, &count) in t.counts[..events].iter().enumerate() {
            report.check(count as usize == FAMILIES.len(), || {
                format!(
                    "event {seq}: {count} actuations, expected {}",
                    FAMILIES.len()
                )
            });
        }
    }

    /// Sends at `OPEN_LOOP_RATE` on a fixed schedule for `duration`.
    fn open_loop(
        &mut self,
        duration: Duration,
        report: &mut Report,
        mut probes: Option<&mut EventProbes>,
    ) -> OpenLoop {
        let period_ns = 1e9 / OPEN_LOOP_RATE;
        let deadline = |i: usize| (i as f64 * period_ns) as u64;
        let total = (duration.as_secs_f64() * OPEN_LOOP_RATE) as usize;
        let start = {
            let mut t = self.tracker.lock().expect("tracker lock");
            t.reset(total);
            t.start = Instant::now();
            t.start
        };
        let (mut sent, mut late, mut max_late_ns) = (0usize, 0u64, 0u64);
        while sent < total {
            let now = elapsed_ns(start);
            if deadline(sent) > now {
                let idle = Instant::now();
                while deadline(sent) > elapsed_ns(start) {
                    std::hint::spin_loop();
                }
                if let Some(p) = probes.as_deref_mut() {
                    p.idle_ns += elapsed_ns(idle);
                }
                continue;
            }
            let mut batch = 0;
            while sent < total && deadline(sent) <= elapsed_ns(start) {
                let lateness = elapsed_ns(start) - deadline(sent);
                if lateness >= LATE_NS {
                    late += 1;
                }
                max_late_ns = max_late_ns.max(lateness);
                if let Some(p) = probes.as_deref_mut() {
                    p.queue_wait_ns += lateness;
                }
                self.emit(sent, sent, probes.as_deref_mut());
                sent += 1;
                batch += 1;
            }
            if let Some(p) = probes.as_deref_mut() {
                p.backlog_max = p.backlog_max.max(batch);
            }
            self.drain(probes.as_deref_mut());
        }
        let wall_ns = elapsed_ns(start);
        self.check_phase(total, report);
        let t = self.tracker.lock().expect("tracker lock");
        let latencies_us = (0..total)
            .map(|i| t.done_ns[i].saturating_sub(deadline(i)) as f64 / 1e3)
            .collect();
        OpenLoop {
            latencies_us,
            late,
            max_late_ns,
            wall_ns,
        }
    }

    /// Bursts of `BURST` events, each drained and checked before the
    /// next, for `duration`. Returns the events sent, the wall time, and
    /// the rate (events/s) of each `RATE_WINDOW` of it.
    fn closed_loop(
        &mut self,
        duration: Duration,
        report: &mut Report,
        mut probes: Option<&mut EventProbes>,
    ) -> (usize, u64, Vec<f64>) {
        let start = Instant::now();
        let mut sent = 0;
        let mut rates = Vec::new();
        let (mut window, mut window_sent) = (Instant::now(), 0);
        while elapsed_ns(start) < duration.as_nanos() as u64 {
            self.tracker.lock().expect("tracker lock").reset(BURST);
            for slot in 0..BURST {
                self.emit(slot, sent + slot, probes.as_deref_mut());
            }
            sent += BURST;
            if let Some(p) = probes.as_deref_mut() {
                p.backlog_max = p.backlog_max.max(BURST);
            }
            self.drain(probes.as_deref_mut());
            self.check_phase(BURST, report);
            if window.elapsed() >= RATE_WINDOW {
                rates.push((sent - window_sent) as f64 / window.elapsed().as_secs_f64());
                (window, window_sent) = (Instant::now(), sent);
            }
        }
        (sent, elapsed_ns(start), rates)
    }

    fn check_errors(&mut self, report: &mut Report) {
        let errors = self.orch.drain_errors();
        report.check(errors.is_empty(), || {
            format!(
                "{} contained errors, first: {:?}",
                errors.len(),
                errors.first()
            )
        });
    }
}

/// Open-loop latencies, generator lateness, closed-loop window rates and
/// wall time, pooled over the blocks of one measurement.
#[derive(Default)]
struct Pooled {
    latencies_us: Vec<f64>,
    late: u64,
    max_late_ns: u64,
    open_ns: u64,
    events: usize,
    closed_ns: u64,
    rates: Vec<f64>,
}

/// Share of the measurement spent in the open loop; the closed loop gets
/// the rest.
const OPEN_SHARE: f64 = 0.6;
/// Set-ups per batch ([`SetupClock`]), and batches timed before the
/// run and before each block.
const SETUPS_PER_BATCH: usize = 16;
const BATCHES: usize = 2;
/// The measurement alternates this many open- and closed-loop blocks, so
/// that host contention, which comes and goes over seconds, reaches both.
const CYCLES: u32 = 5;

fn measure(
    stream: &mut Stream,
    duration: Duration,
    report: &mut Report,
    clock: &mut SetupClock,
    mut probes: Option<&mut EventProbes>,
) -> Pooled {
    let mut pooled = Pooled::default();
    let block = duration / CYCLES;
    for _ in 0..CYCLES {
        for _ in 0..BATCHES {
            clock.batch(|| setup(stream.seed, None));
        }
        let open = stream.open_loop(block.mul_f64(OPEN_SHARE), report, probes.as_deref_mut());
        pooled.latencies_us.extend(open.latencies_us);
        pooled.late += open.late;
        pooled.max_late_ns = pooled.max_late_ns.max(open.max_late_ns);
        pooled.open_ns += open.wall_ns;
        let (events, wall_ns, rates) = stream.closed_loop(
            block.mul_f64(1.0 - OPEN_SHARE),
            report,
            probes.as_deref_mut(),
        );
        pooled.events += events;
        pooled.closed_ns += wall_ns;
        pooled.rates.extend(rates);
    }
    stream.check_errors(report);
    pooled
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut clock = SetupClock::new(SETUPS_PER_BATCH);
    for _ in 1..BATCHES {
        clock.batch(|| setup(args.seed, None));
    }
    let mut stream = clock.batch(|| setup(args.seed, None));
    stream.open_loop(WARM_UP, &mut report, None);
    let measured = args.budget.saturating_sub(WARM_UP);
    if !args.trace {
        let m = measure(&mut stream, measured, &mut report, &mut clock, None);
        let [p50, p90, p99] = stats::percentiles(&m.latencies_us, [0.5, 0.9, 0.99]);
        let sustained = stats::sustained(&m.rates);
        clock.set(&mut report);
        report.set("latency_p90_ms", p90 / 1e3);
        report.set("throughput_per_s", sustained);
        report.detail("event_p50_us", p50);
        report.detail("event_p90_us", p90);
        report.detail("event_p99_us", p99);
        report.detail("event_msgs_per_s", stats::median(&m.rates));
        report.detail("event_msgs_per_s_sustained", sustained);
        report.detail("open_loop_events", m.latencies_us.len() as f64);
        report.detail("closed_loop_events", m.events as f64);
        report.detail(
            "generator_late_share",
            m.late as f64 / m.latencies_us.len() as f64,
        );
        report.detail("generator_max_late_us", m.max_late_ns as f64 / 1e3);
        return report;
    }

    // Traced: an untraced half for the overhead ratio, then a traced half
    // on a fresh, wrapped setup.
    let half = measured / 2;
    let plain = measure(&mut stream, half, &mut report, &mut clock, None);
    drop(stream);

    let mut probes = EventProbes::default();
    let mut stream = setup(args.seed, Some(&probes));
    let m = measure(
        &mut stream,
        half,
        &mut report,
        &mut clock,
        Some(&mut probes),
    );

    let ops = (m.latencies_us.len() + m.events) as f64;
    let [p99] = stats::percentiles(&m.latencies_us, [0.99]);
    report.set("event.p99_us", p99);
    report.detail(
        "generator_late_share",
        m.late as f64 / m.latencies_us.len() as f64,
    );
    report.detail("generator_max_late_us", m.max_late_ns as f64 / 1e3);
    report.set(
        "obs.overhead_ratio",
        (m.closed_ns as f64 / m.events as f64) / (plain.closed_ns as f64 / plain.events as f64),
    );
    report.set("registry.bind.us", probes.bind.us());
    report.set("registry.entities", stream.orch.registry().len() as f64);
    report.set("registry.discover.us", probes.discover.us() / ops);
    report.set("registry.discover.calls", probes.discover.calls() as f64);
    report.set("engine.admit.us", probes.admit.us() / ops);
    report.set(
        "engine.queue_wait.us",
        probes.queue_wait_ns as f64 / 1e3 / m.latencies_us.len() as f64,
    );
    report.set("engine.backlog.max", probes.backlog_max as f64);
    report.set("logic.context.us", probes.context.us() / ops);
    report.set("logic.controller.us", probes.controller.us() / ops);
    report.set("devices.invoke.us", probes.invoke.us() / ops);
    let callbacks_us =
        probes.context.us() + probes.controller.us() + probes.discover.us() + probes.invoke.us();
    engine_layers(&mut report, &stream.orch, &probes.drain, callbacks_us, ops);

    report.layer("generator.idle", None, 0.0, probes.idle_ns as f64 / 1e3, 0);
    report.layer(
        "engine.admit",
        None,
        probes.admit.us(),
        0.0,
        probes.admit.calls(),
    );
    report.layer(
        "engine.self",
        None,
        probes.drain.us() - callbacks_us,
        0.0,
        probes.drain.calls(),
    );
    report.layer(
        "logic.context",
        None,
        probes.context.us(),
        0.0,
        probes.context.calls(),
    );
    report.layer(
        "logic.controller",
        None,
        probes.controller.us(),
        0.0,
        probes.controller.calls(),
    );
    report.layer(
        "registry.discover",
        None,
        probes.discover.us(),
        0.0,
        probes.discover.calls(),
    );
    report.layer(
        "devices.invoke",
        None,
        probes.invoke.us(),
        0.0,
        probes.invoke.calls(),
    );
    report.close_layers((m.open_ns + m.closed_ns) as f64 / 1e3, ops as u64);
    report
}
