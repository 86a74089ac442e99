//! `city_parking` and `parking_tcp`: the shipped parking application
//! (`specs/parking.spec` plus `diaspec_apps::parking`), simulated as fast
//! as possible over whole simulated hours.
//!
//! `city_parking` runs 100 000 presence sensors in-process with serial
//! processing. Chosen because it is the paper's large-scale case study:
//! periodic polling, grouped-by MapReduce and 100k bindings dominate,
//! the working set is larger than the caches, and there is no event
//! admission or fan-out.
//!
//! `parking_tcp` runs 8 000 sensors on one edge served in-process over
//! loopback TCP, split by the manifest `plan_deployment` emits and using
//! its session link policy. Chosen because it is the only workload where
//! the wire, socket, session and edge layers run; every reading is one
//! synchronous round trip.
//!
//! Both check their orchestration summary: the in-process run against a
//! reference computed straight from the seeded city model, the TCP run
//! byte for byte against the in-process run of the same seed and fleet.

use crate::layers::{elapsed_ns, engine_layers, Probe, TimedDevice, TimedProcess, TimedTransport};
use crate::report::Report;
use crate::{pin_to_one_cpu, stats, Args, Rng, SetupClock};
use diaspec_apps::parking::generated::{CityEntranceEnum, ParkingLotEnum};
use diaspec_apps::parking::{
    register_components, ParkingAppConfig, ENVIRONMENT_FIRST_STEP_MS, SPEC,
};
use diaspec_codegen::deploy::{plan_deployment, DeployOptions, LinkPolicy};
use diaspec_devices::common::{ActuationLog, RecordingActuator};
use diaspec_devices::parking::{ParkingCityModel, ParkingConfig, PresenceSensorDriver, UsageCurve};
use diaspec_runtime::deploy::{
    BreakerConfig, EdgeRuntime, Link, RemoteDeviceProxy, SessionConfig, TickPump, TickPumpStop,
};
use diaspec_runtime::entity::{AttributeMap, DeviceInstance, EntityId};
use diaspec_runtime::transport::{
    serve_connection, MessageKind, TransportConfig, TransportError, TransportStats,
};
use diaspec_runtime::value::Value;
use diaspec_runtime::{Envelope, Orchestrator, RetryConfig, SpanCtx, TcpTransport, Transport};
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const PERIOD_MS: u64 = 600_000;
const PERIODS_PER_HOUR: u64 = 6;
const DAY_MS: u64 = 24 * 3_600_000;
/// City-model step cadence, pumped to the edge over TCP.
const TICK_MS: u64 = 60_000;
const CITY_SENSORS_PER_LOT: usize = 12_500;
const TCP_SENSORS_PER_LOT: usize = 1_000;
/// A TCP set-up takes tens of milliseconds: batches of two.
const TCP_SETUPS_PER_BATCH: usize = 2;
/// Lots the city-entrance panels suggest (the application default).
const SUGGESTIONS: usize = 3;

/// Probes of the traced run.
#[derive(Default)]
struct ParkingProbes {
    bind: Arc<Probe>,
    query: Arc<Probe>,
    invoke: Arc<Probe>,
    env: Arc<Probe>,
    plan: Arc<Probe>,
    request: Arc<Probe>,
    exchange: Arc<Probe>,
    edge_handle: Arc<Probe>,
    drain: Arc<Probe>,
    wall: Arc<Probe>,
}

impl ParkingProbes {
    fn new() -> Self {
        ParkingProbes {
            request: Probe::sampled(),
            ..ParkingProbes::default()
        }
    }

    fn devices(&self) -> (&Arc<Probe>, &Arc<Probe>) {
        (&self.query, &self.invoke)
    }

    /// Clears the probes of the periodic run, so set-up traffic (the
    /// edge handshake) is not charged to it.
    fn start_run(&self) {
        for p in [
            &self.query,
            &self.invoke,
            &self.env,
            &self.request,
            &self.exchange,
            &self.edge_handle,
            &self.drain,
            &self.wall,
        ] {
            p.reset();
        }
    }
}

fn lot_names() -> Vec<&'static str> {
    ParkingLotEnum::ALL.iter().map(|l| l.name()).collect()
}

/// The seeded city: the benchmark's seed drives the environment seed.
fn city_model(seed: u64, sensors_per_lot: usize) -> ParkingCityModel {
    let config = ParkingConfig {
        spaces_per_lot: sensors_per_lot,
        seed: Rng::new(seed).next_u64(),
        ..ParkingConfig::default()
    };
    ParkingCityModel::new(lot_names(), config, UsageCurve::default())
}

/// The coordinator's tear-down handles for an edge served over TCP.
struct Remote {
    link: Arc<Link>,
    pump: TickPumpStop,
    edge: Option<JoinHandle<Result<TransportStats, TransportError>>>,
}

impl Remote {
    /// Stops the tick pump, says `Bye` and joins the edge thread.
    fn shutdown(&mut self) -> Result<(), String> {
        let Some(edge) = self.edge.take() else {
            return Ok(());
        };
        self.pump.stop();
        self.link.close();
        match edge.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("edge connection failed: {e}")),
            Err(_) => Err("edge thread panicked".to_owned()),
        }
    }
}

impl Drop for Remote {
    fn drop(&mut self) {
        if let Err(e) = self.shutdown() {
            eprintln!("perfbench: {e}");
        }
    }
}

struct Parking {
    orch: Orchestrator,
    sensors_per_lot: usize,
    /// Entrance-panel logs, in `ParkingLotEnum::ALL` order.
    entrance: Vec<ActuationLog>,
    city: Vec<ActuationLog>,
    messenger: ActuationLog,
    remote: Option<Remote>,
    /// Peak RSS when this app's first simulated hour completed. Later
    /// hours grow the 24-hour occupancy window, so the peak at the end of
    /// a run would depend on how many hours fit in it.
    first_hour_rss_mb: Option<f64>,
    /// Readings polled per second of wall time, one entry per period run.
    rates: Vec<f64>,
    /// Wall time (ms) of each period without the hourly usage poll.
    regular_ms: Vec<f64>,
}

fn bind(
    orch: &mut Orchestrator,
    probes: Option<&ParkingProbes>,
    id: String,
    device_type: &str,
    attribute: Option<(&str, Value)>,
    device: Box<dyn DeviceInstance>,
) {
    let mut attrs = AttributeMap::new();
    if let Some((name, value)) = attribute {
        attrs.insert(name.to_owned(), value);
    }
    let t = Instant::now();
    orch.bind_entity(EntityId::from(id), device_type, attrs, device)
        .expect("parking entity binds");
    if let Some(p) = probes {
        p.bind.record_ns(elapsed_ns(t));
    }
}

fn orchestrator(
    probes: Option<&ParkingProbes>,
    sensors_per_lot: usize,
) -> (Orchestrator, Arc<diaspec_core::CheckedSpec>) {
    let spec = Arc::new(diaspec_core::compile_str(SPEC).expect("parking.spec compiles"));
    let mut orch = Orchestrator::with_transport(Arc::clone(&spec), TransportConfig::default());
    let config = ParkingAppConfig {
        sensors_per_lot,
        suggestions: SUGGESTIONS,
        ..ParkingAppConfig::default()
    };
    register_components(&mut orch, &config).expect("parking components register");
    if probes.is_some() {
        orch.set_observability(true);
        orch.set_span_tracing(true);
        orch.set_span_buffering(false);
    }
    (orch, spec)
}

/// Binds the coordinator-local devices: city entrance panels and the
/// management messenger.
fn bind_central(
    orch: &mut Orchestrator,
    probes: Option<&ParkingProbes>,
) -> (Vec<ActuationLog>, ActuationLog) {
    let mut city = Vec::new();
    for entrance in CityEntranceEnum::ALL {
        let log = ActuationLog::new();
        bind(
            orch,
            probes,
            format!("city-panel-{}", entrance.name()),
            "CityEntrancePanel",
            Some((
                "location",
                Value::enum_value("CityEntranceEnum", entrance.name()),
            )),
            TimedDevice::wrap(
                Box::new(RecordingActuator::new(log.clone())),
                probes.map(ParkingProbes::devices),
            ),
        );
        city.push(log);
    }
    let messenger = ActuationLog::new();
    bind(
        orch,
        probes,
        "messenger-mgmt".to_owned(),
        "Messenger",
        None,
        TimedDevice::wrap(
            Box::new(RecordingActuator::new(messenger.clone())),
            probes.map(ParkingProbes::devices),
        ),
    );
    (city, messenger)
}

/// The whole application in one process, as `diaspec_apps::parking::build`
/// wires it, with the benchmark's timing wrappers when traced.
fn setup_local(seed: u64, sensors_per_lot: usize, probes: Option<&ParkingProbes>) -> Parking {
    let (mut orch, _) = orchestrator(probes, sensors_per_lot);
    let (lots, process) = city_model(seed, sensors_per_lot).into_process();
    orch.begin_deployment();
    let mut entrance = Vec::new();
    for lot in lot_names() {
        let lot_value = Value::enum_value("ParkingLotEnum", lot);
        for space in 0..sensors_per_lot {
            bind(
                &mut orch,
                probes,
                format!("presence-{lot}-{space}"),
                "PresenceSensor",
                Some(("parkingLot", lot_value.clone())),
                TimedDevice::wrap(
                    Box::new(PresenceSensorDriver::new(lots[lot].clone(), space)),
                    probes.map(ParkingProbes::devices),
                ),
            );
        }
        let log = ActuationLog::new();
        bind(
            &mut orch,
            probes,
            format!("panel-{lot}"),
            "ParkingEntrancePanel",
            Some(("location", lot_value)),
            TimedDevice::wrap(
                Box::new(RecordingActuator::new(log.clone())),
                probes.map(ParkingProbes::devices),
            ),
        );
        entrance.push(log);
    }
    let (city, messenger) = bind_central(&mut orch, probes);
    match probes {
        Some(p) => orch.spawn_process_at(
            "city-dynamics",
            TimedProcess {
                inner: process,
                probe: Arc::clone(&p.env),
            },
            ENVIRONMENT_FIRST_STEP_MS,
        ),
        None => orch.spawn_process_at("city-dynamics", process, ENVIRONMENT_FIRST_STEP_MS),
    }
    orch.launch().expect("parking launches");
    Parking {
        orch,
        sensors_per_lot,
        entrance,
        city,
        messenger,
        remote: None,
        first_hour_rss_mb: None,
        rates: Vec::new(),
        regular_ms: Vec::new(),
    }
}

/// The manifest's link policy as a session link.
fn session_link<T: Transport + 'static>(transport: T, policy: &LinkPolicy) -> Arc<Link> {
    assert!(policy.session, "the manifest asks for a session link");
    Link::with_session(
        transport,
        SessionConfig {
            retry: RetryConfig {
                max_attempts: policy.max_attempts,
                base_backoff_ms: policy.base_backoff_ms,
                timeout_ms: policy.timeout_ms,
            },
            resend_queue: policy.resend_queue,
            breaker: BreakerConfig {
                failure_threshold: policy.breaker_failures,
                cooldown_ms: policy.breaker_cooldown_ms,
            },
        },
    )
}

/// The coordinator plus one edge over loopback TCP: the edge hosts the
/// lot-sharded families named by the deployment manifest and is served
/// on its own thread through `serve_connection`.
fn setup_tcp(seed: u64, sensors_per_lot: usize, probes: Option<&ParkingProbes>) -> Parking {
    let (mut orch, spec) = orchestrator(probes, sensors_per_lot);
    let t = Instant::now();
    let deployment = plan_deployment(
        &spec,
        &DeployOptions {
            design: "parking".to_owned(),
            edges: 1,
            ..DeployOptions::default()
        },
    )
    .expect("parking deployment plans");
    if let Some(p) = probes {
        p.plan.record_ns(elapsed_ns(t));
    }
    let edge = &deployment.manifest.edges[0];
    assert!(
        edge.devices.iter().any(|d| d == "PresenceSensor")
            && edge.devices.iter().any(|d| d == "ParkingEntrancePanel"),
        "the manifest places the lot-sharded families on the edge: {:?}",
        edge.devices
    );

    let mut model = city_model(seed, sensors_per_lot);
    let mut runtime = EdgeRuntime::new(edge.name.clone());
    let mut entrance = Vec::new();
    for lot in lot_names() {
        assert!(
            edge.shards.iter().any(|s| s == lot),
            "one edge hosts every lot"
        );
        let cell = model.lot(lot).expect("model lot");
        for space in 0..sensors_per_lot {
            runtime.add_device(
                format!("presence-{lot}-{space}"),
                TimedDevice::wrap(
                    Box::new(PresenceSensorDriver::new(cell.clone(), space)),
                    probes.map(ParkingProbes::devices),
                ),
            );
        }
        let log = ActuationLog::new();
        runtime.add_device(
            format!("panel-{lot}"),
            TimedDevice::wrap(
                Box::new(RecordingActuator::new(log.clone())),
                probes.map(ParkingProbes::devices),
            ),
        );
        entrance.push(log);
    }
    let env = probes.map(|p| Arc::clone(&p.env));
    runtime.on_tick(move |now| match &env {
        Some(p) => p.time(|| model.step(now)),
        None => model.step(now),
    });

    // The manifest's listen port is a fixed default; an ephemeral port
    // keeps concurrent runs apart.
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener");
    let addr = listener.local_addr().expect("listener address").to_string();
    let handle = probes.map(|p| Arc::clone(&p.edge_handle));
    let edge_thread = std::thread::spawn(move || {
        let (mut stream, _) = listener
            .accept()
            .map_err(|e| TransportError::Io(e.to_string()))?;
        // As the runtime's supervisor serves its edges.
        stream
            .set_nodelay(true)
            .map_err(|e| TransportError::Io(e.to_string()))?;
        serve_connection(&mut stream, |envelope| match &handle {
            Some(p) => p.time(|| runtime.handle(envelope)),
            None => runtime.handle(envelope),
        })
    });
    let connect = RetryConfig {
        max_attempts: 1,
        base_backoff_ms: 5,
        timeout_ms: edge.link.timeout_ms,
    };
    let tcp = TcpTransport::new(edge.name.clone(), addr, connect);
    let link = match probes {
        Some(p) => session_link(
            TimedTransport {
                inner: tcp,
                probe: Arc::clone(&p.exchange),
            },
            &edge.link,
        ),
        None => session_link(tcp, &edge.link),
    };
    link.request(|seq| Envelope::new(MessageKind::Hello, SpanCtx::NONE, seq, "", "", Vec::new()))
        .expect("edge answers hello");

    orch.begin_deployment();
    let proxied = |id: &str| {
        TimedDevice::wrap(
            Box::new(RemoteDeviceProxy::new(id, Arc::clone(&link))),
            probes.map(|p| (&p.request, &p.request)),
        )
    };
    for lot in lot_names() {
        let lot_value = Value::enum_value("ParkingLotEnum", lot);
        for space in 0..sensors_per_lot {
            let id = format!("presence-{lot}-{space}");
            let device = proxied(&id);
            bind(
                &mut orch,
                probes,
                id,
                "PresenceSensor",
                Some(("parkingLot", lot_value.clone())),
                device,
            );
        }
        let id = format!("panel-{lot}");
        let device = proxied(&id);
        bind(
            &mut orch,
            probes,
            id,
            "ParkingEntrancePanel",
            Some(("location", lot_value)),
            device,
        );
    }
    let (city, messenger) = bind_central(&mut orch, None);
    let pump = TickPump::new(vec![Arc::clone(&link)], TICK_MS);
    let stop = pump.stop_handle();
    match probes {
        // A tick is one more request over the link.
        Some(p) => orch.spawn_process_at(
            "tick-pump",
            TimedProcess {
                inner: pump,
                probe: Arc::clone(&p.request),
            },
            ENVIRONMENT_FIRST_STEP_MS,
        ),
        None => orch.spawn_process_at("tick-pump", pump, ENVIRONMENT_FIRST_STEP_MS),
    }
    orch.launch().expect("parking coordinator launches");
    Parking {
        orch,
        sensors_per_lot,
        entrance,
        city,
        messenger,
        remote: Some(Remote {
            link,
            pump: stop,
            edge: Some(edge_thread),
        }),
        first_hour_rss_mb: None,
        rates: Vec::new(),
        regular_ms: Vec::new(),
    }
}

impl Parking {
    /// Runs whole simulated hours until `budget` is spent; returns the
    /// wall time of each 10-minute period in ms. Traced, the whole loop's
    /// wall time is the end-to-end time the layer table partitions.
    fn run(&mut self, budget: Duration, probes: Option<&ParkingProbes>) -> Vec<f64> {
        let mut periods = Vec::new();
        if let Some(p) = probes {
            p.start_run();
        }
        let start = Instant::now();
        let mut k = self.orch.now() / PERIOD_MS;
        loop {
            k += 1;
            let polled = self.orch.metrics().readings_polled;
            let t = Instant::now();
            self.orch.run_until(k * PERIOD_MS);
            let ns = elapsed_ns(t);
            let readings = self.orch.metrics().readings_polled - polled;
            self.rates.push(readings as f64 / (ns as f64 / 1e9));
            if let Some(p) = probes {
                p.drain.record_ns(ns);
            }
            periods.push(ns as f64 / 1e6);
            if !k.is_multiple_of(PERIODS_PER_HOUR) {
                self.regular_ms.push(ns as f64 / 1e6);
            }
            if k == PERIODS_PER_HOUR {
                self.first_hour_rss_mb = Some(crate::peak_rss_mb());
            }
            if k.is_multiple_of(PERIODS_PER_HOUR) && start.elapsed() >= budget {
                if let Some(p) = probes {
                    p.wall.record_ns(elapsed_ns(start));
                }
                return periods;
            }
        }
    }

    /// The orchestration summary: per period, the availability shown on
    /// every lot's entrance panel and the suggestions shown on the city
    /// panels; then digests, engine counters and contained errors.
    fn summary(&mut self) -> Vec<String> {
        let periods = (self.orch.now() / PERIOD_MS) as usize;
        let entrance: Vec<_> = self.entrance.iter().map(ActuationLog::entries).collect();
        let city: Vec<_> = self.city.iter().map(ActuationLog::entries).collect();
        let text = |a: Option<&diaspec_devices::common::Actuation>| {
            a.and_then(|a| a.args.first())
                .and_then(Value::as_str)
                .unwrap_or("<none>")
                .to_owned()
        };
        let mut lines = Vec::with_capacity(periods + 3);
        for k in 0..periods {
            let free: Vec<String> = lot_names()
                .iter()
                .zip(&entrance)
                .map(|(lot, log)| format!("{lot} {}", text(log.get(k))))
                .collect();
            let shown: Vec<String> = city.iter().map(|log| text(log.get(k))).collect();
            lines.push(format!(
                "period {}: {} | {}",
                k + 1,
                free.join(", "),
                shown.join(" / ")
            ));
        }
        let m = self.orch.metrics();
        lines.push(format!("digests: {}", self.messenger.count("sendMessage")));
        lines.push(format!(
            "metrics: periodic={} polled={} mapreduce={} publications={} actuations={}",
            m.periodic_deliveries,
            m.readings_polled,
            m.map_reduce_executions,
            m.publications,
            m.actuations
        ));
        lines.push(format!("errors: {}", self.orch.drain_errors().len()));
        lines
    }
}

/// The summary computed straight from the seeded city model, without
/// the runtime: free spaces per lot at each poll, the application's
/// ranking (most free first, historically busy lots last) over an hourly
/// occupancy average, and the counts the design implies.
fn reference_summary(seed: u64, sensors_per_lot: usize, periods: u64) -> Vec<String> {
    let model = city_model(seed, sensors_per_lot);
    let mut model = model;
    let lots = lot_names();
    let mut usage: Vec<Option<f64>> = vec![None; lots.len()];
    let mut next_step = ENVIRONMENT_FIRST_STEP_MS;
    let mut lines = Vec::new();
    for k in 1..=periods {
        let now = k * PERIOD_MS;
        while next_step < now {
            model.step(next_step);
            next_step += TICK_MS;
        }
        let free: Vec<usize> = lots
            .iter()
            .map(|l| model.free_spaces(l).expect("lot"))
            .collect();
        // The hourly usage poll lands before the suggestion reads it.
        if k.is_multiple_of(PERIODS_PER_HOUR) {
            for (i, lot) in lots.iter().enumerate() {
                let occupied = model.occupancy(lot).expect("lot");
                let average = usage[i].get_or_insert(occupied);
                *average = 0.3 * occupied + 0.7 * *average;
            }
        }
        let penalty = |i: usize| match usage[i].unwrap_or(0.0) {
            o if o >= 0.75 => 2,
            o if o >= 0.4 => 1,
            _ => 0,
        };
        let mut ranked: Vec<usize> = (0..lots.len()).collect();
        ranked.sort_by_key(|&i| (-(free[i] as i64), penalty(i)));
        let suggested: Vec<&str> = ranked.iter().take(SUGGESTIONS).map(|&i| lots[i]).collect();
        let panel = format!("suggested lots: {}", suggested.join(", "));
        let free: Vec<String> = lots
            .iter()
            .zip(&free)
            .map(|(lot, n)| format!("{lot} free: {n}"))
            .collect();
        let shown = vec![panel; CityEntranceEnum::ALL.len()];
        lines.push(format!(
            "period {k}: {} | {}",
            free.join(", "),
            shown.join(" / ")
        ));
    }
    let digests = periods * PERIOD_MS / DAY_MS;
    let periodic = 2 * periods + periods / PERIODS_PER_HOUR;
    let sensors = (sensors_per_lot * lots.len()) as u64;
    lines.push(format!("digests: {digests}"));
    lines.push(format!(
        "metrics: periodic={periodic} polled={} mapreduce={periods} publications={} actuations={}",
        periodic * sensors,
        2 * periods + digests,
        (lots.len() + CityEntranceEnum::ALL.len()) as u64 * periods + digests
    ));
    lines.push("errors: 0".to_owned());
    lines
}

/// Compares two summaries line by line, one checked operation per line.
fn check_summary(report: &mut Report, what: &str, actual: &[String], expected: &[String]) {
    report.check(actual.len() == expected.len(), || {
        format!(
            "{what}: {} summary lines, expected {}",
            actual.len(),
            expected.len()
        )
    });
    for (a, e) in actual.iter().zip(expected) {
        report.check(a == e, || format!("{what}: got `{a}`, expected `{e}`"));
    }
}

/// The p90 of regular periods and the sustained per-period polling rate; the
/// medians go to the detail line. Every sixth period
/// also runs the hourly usage poll and takes about 1.5x as long, so the
/// p90 of all periods would fall among the few hourly ones.
fn set_end_to_end(report: &mut Report, app: &Parking, periods: &[f64], prefix: &str) {
    let p50 = stats::median(periods);
    let p90 = stats::percentile(&app.regular_ms, 0.9);
    let sustained = stats::sustained(&app.rates);
    report.set(
        "peak_rss_mb",
        app.first_hour_rss_mb
            .expect("a run covers at least one hour"),
    );
    report.set("latency_p90_ms", p90);
    report.set("throughput_per_s", sustained);
    report.detail(format!("{prefix}_period_ms"), p50);
    report.detail(format!("{prefix}_regular_period_p90_ms"), p90);
    report.detail(
        format!("{prefix}_readings_per_s"),
        stats::median(&app.rates),
    );
    report.detail(format!("{prefix}_readings_per_s_sustained"), sustained);
    report.detail("periods", periods.len() as f64);
}

/// Per-layer metrics shared by both parking workloads.
fn set_layers(
    report: &mut Report,
    app: &Parking,
    probes: &ParkingProbes,
    periods: &[f64],
    callbacks_us: f64,
) {
    let ops = periods.len() as f64;
    report.set("registry.bind.us", probes.bind.us());
    report.set("registry.entities", app.orch.registry().len() as f64);
    report.set("devices.query.us", probes.query.us() / ops);
    report.set("devices.invoke.us", probes.invoke.us() / ops);
    report.set("devices.env_step.us", probes.env.us() / ops);
    engine_layers(report, &app.orch, &probes.drain, callbacks_us, ops);
}

/// Times `batches` set-up batches of `per_batch` set-ups, after one
/// untimed set-up that pays the process's one-time costs, and returns
/// the clock and the last set-up.
fn timed_setups(
    per_batch: usize,
    batches: usize,
    setup: impl Fn() -> Parking,
) -> (SetupClock, Parking) {
    drop(setup());
    let mut clock = SetupClock::new(per_batch);
    for _ in 1..batches {
        clock.batch(&setup);
    }
    let app = clock.batch(&setup);
    (clock, app)
}

pub fn run_city(args: &Args) -> Report {
    let mut report = Report::default();
    let sensors = CITY_SENSORS_PER_LOT;
    // A second 100k-sensor city beside the running one would double the
    // memory, so every set-up batch comes before the run.
    let (clock, mut app) = timed_setups(1, 12, || setup_local(args.seed, sensors, None));
    if !args.trace {
        let periods = app.run(args.budget, None);
        let summary = app.summary();
        check_summary(
            &mut report,
            "city_parking",
            &summary,
            &reference_summary(args.seed, sensors, periods.len() as u64),
        );
        set_end_to_end(&mut report, &app, &periods, "parking");
        clock.set(&mut report);
        return report;
    }
    let plain = app.run(args.budget / 2, None);
    let summary = app.summary();
    check_summary(
        &mut report,
        "city_parking",
        &summary,
        &reference_summary(args.seed, sensors, plain.len() as u64),
    );
    drop(app);

    let probes = ParkingProbes::new();
    let mut app = setup_local(args.seed, sensors, Some(&probes));
    let traced = app.run(args.budget / 2, Some(&probes));
    let summary = app.summary();
    check_summary(
        &mut report,
        "city_parking traced",
        &summary,
        &reference_summary(args.seed, sensors, traced.len() as u64),
    );
    report.set(
        "obs.overhead_ratio",
        stats::median(&traced) / stats::median(&plain),
    );
    let callbacks_us = probes.query.us() + probes.invoke.us() + probes.env.us();
    set_layers(&mut report, &app, &probes, &traced, callbacks_us);
    report.layer(
        "engine.self",
        None,
        probes.drain.us() - callbacks_us,
        0.0,
        probes.drain.calls(),
    );
    report.layer(
        "devices.query",
        None,
        probes.query.us(),
        0.0,
        probes.query.calls(),
    );
    report.layer(
        "devices.invoke",
        None,
        probes.invoke.us(),
        0.0,
        probes.invoke.calls(),
    );
    report.layer(
        "devices.env_step",
        None,
        probes.env.us(),
        0.0,
        probes.env.calls(),
    );
    report.close_layers(probes.wall.us(), traced.len() as u64);
    report
}

/// Runs the TCP deployment in `blocks` equal blocks, calling `between`
/// before each, then checks it against the in-process run of the same
/// seed, fleet and span, and that the session never resent or replayed.
fn tcp_phase(
    args: &Args,
    app: &mut Parking,
    budget: Duration,
    probes: Option<&ParkingProbes>,
    report: &mut Report,
    blocks: u32,
    mut between: impl FnMut(),
) -> Vec<f64> {
    let mut periods = Vec::new();
    for _ in 0..blocks {
        between();
        periods.extend(app.run(budget / blocks, probes));
    }
    if let Some(p) = probes {
        tcp_layers(report, app, p, &periods);
    }
    let summary = app.summary();
    let remote = app.remote.as_mut().expect("tcp deployment");
    let session = remote.link.session_stats().unwrap_or_default();
    report.check(session.resends == 0 && session.replays == 0, || {
        format!(
            "session resent {} and replayed {} requests",
            session.resends, session.replays
        )
    });
    if let Err(e) = remote.shutdown() {
        report.check(false, || e);
    }
    let mut local = setup_local(args.seed, app.sensors_per_lot, None);
    local.orch.run_until(periods.len() as u64 * PERIOD_MS);
    check_summary(
        report,
        "parking_tcp vs in-process",
        &summary,
        &local.summary(),
    );
    periods
}

/// The traced TCP run's layers: the coordinator's remote requests split
/// into session, wire-and-socket and edge time, down to the devices.
fn tcp_layers(report: &mut Report, app: &Parking, probes: &ParkingProbes, periods: &[f64]) {
    let ops = periods.len() as f64;
    let link = &app.remote.as_ref().expect("tcp deployment").link;
    let session = link.session_stats().unwrap_or_default();
    let frames = link.stats();
    report.set("transport.frames_sent", frames.frames_sent as f64);
    report.set("transport.bytes_sent", frames.bytes_sent as f64);
    report.set(
        "transport.frames_per_reading",
        frames.frames_sent as f64 / app.orch.metrics().readings_polled as f64,
    );
    report.set("deploy.session.resends", session.resends as f64);
    report.set("deploy.session.replays", session.replays as f64);
    let request = probes.request.us();
    let exchange = probes.exchange.us();
    let handle = probes.edge_handle.us();
    set_layers(report, app, probes, periods, request);
    let [p50, p99] = stats::percentiles(&probes.request.samples_us(), [0.5, 0.99]);
    report.set("deploy.request.us", request / ops);
    report.set("deploy.request.p50_us", p50);
    report.set("deploy.request.p99_us", p99);
    report.set("transport.exchange.us", exchange / ops);
    report.set("deploy.session.us", (request - exchange) / ops);
    report.set("deploy.edge.handle.us", handle / ops);
    report.set("transport.wire_socket.us", (exchange - handle) / ops);
    report.layer(
        "engine.self",
        None,
        probes.drain.us() - request,
        0.0,
        probes.drain.calls(),
    );
    report.layer("deploy.request", None, request, 0.0, probes.request.calls());
    report.layer(
        "deploy.session",
        Some("deploy.request"),
        request - exchange,
        0.0,
        0,
    );
    report.layer(
        "transport.exchange",
        Some("deploy.request"),
        exchange,
        0.0,
        probes.exchange.calls(),
    );
    report.layer(
        "transport.wire_socket",
        Some("transport.exchange"),
        0.0,
        exchange - handle,
        0,
    );
    report.layer(
        "deploy.edge.handle",
        Some("transport.exchange"),
        handle,
        0.0,
        probes.edge_handle.calls(),
    );
    report.layer(
        "devices.query",
        Some("deploy.edge.handle"),
        probes.query.us(),
        0.0,
        probes.query.calls(),
    );
    report.layer(
        "devices.invoke",
        Some("deploy.edge.handle"),
        probes.invoke.us(),
        0.0,
        probes.invoke.calls(),
    );
    report.layer(
        "devices.env_step",
        Some("deploy.edge.handle"),
        probes.env.us(),
        0.0,
        probes.env.calls(),
    );
    report.close_layers(probes.wall.us(), periods.len() as u64);
}

pub fn run_tcp(args: &Args) -> Report {
    let mut report = Report::default();
    let sensors = TCP_SENSORS_PER_LOT;
    // The coordinator and the edge thread ping-pong once per reading. On
    // one CPU each round trip is a context switch; across two vCPUs of a
    // virtual machine it also waits for the hypervisor to wake the idle
    // one, which doubled the period time and made it vary twofold
    // between runs.
    pin_to_one_cpu();
    let setup = || setup_tcp(args.seed, sensors, None);
    let (mut clock, mut app) = timed_setups(TCP_SETUPS_PER_BATCH, 2, setup);
    if !args.trace {
        // Two more set-up batches before each block, beside the idle
        // running deployment.
        let between = || {
            for _ in 0..2 {
                clock.batch(setup);
            }
        };
        let periods = tcp_phase(args, &mut app, args.budget, None, &mut report, 5, between);
        set_end_to_end(&mut report, &app, &periods, "tcp");
        clock.set(&mut report);
        return report;
    }
    let plain = tcp_phase(args, &mut app, args.budget / 2, None, &mut report, 1, || {});
    drop(app);

    let probes = ParkingProbes::new();
    let mut app = setup_tcp(args.seed, sensors, Some(&probes));
    let traced = tcp_phase(
        args,
        &mut app,
        args.budget / 2,
        Some(&probes),
        &mut report,
        1,
        || {},
    );
    report.set(
        "obs.overhead_ratio",
        stats::median(&traced) / stats::median(&plain),
    );
    report.set("codegen.deploy.ms", probes.plan.us() / 1e3);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The runtime-free reference agrees with the runtime past the first
    /// daily digest, on a small fleet.
    #[test]
    fn reference_matches_the_runtime_past_a_day() {
        let periods = DAY_MS / PERIOD_MS + PERIODS_PER_HOUR;
        for seed in [1, 2] {
            let mut app = setup_local(seed, 20, None);
            app.orch.run_until(periods * PERIOD_MS);
            let summary = app.summary();
            assert_eq!(summary, reference_summary(seed, 20, periods));
            assert!(
                summary.iter().any(|l| l == "digests: 1"),
                "{:?}",
                &summary[summary.len() - 3..]
            );
        }
    }
}
