//! The parking case study deployed across processes: one coordinator
//! running the full orchestration (contexts, controllers, MapReduce)
//! plus edge nodes hosting the per-lot device slices, bridged by the
//! socket transport. The split comes from the deployment manifest
//! emitted by `diaspec-gen deploy specs/parking.spec`.
//!
//! ```text
//! # one process per node, socket backend:
//! parking_distributed --role edge --node edge0 --manifest m.json &
//! parking_distributed --role edge --node edge1 --manifest m.json &
//! parking_distributed --role coordinator --manifest m.json
//!
//! # same wiring, in-process backend (the golden for the smoke diff):
//! parking_distributed --role inprocess --manifest m.json
//! ```
//!
//! Both roles print the same orchestration-level summary: the backends
//! must be observationally identical. The wiring is the parking
//! application's own ([`diaspec_apps::parking::deploy`]), shared with
//! the single-process `build`. Every edge replicates the whole
//! deterministic city model (same seed) and steps it on coordinator
//! `Tick`s, so lot trajectories match the single-process run exactly
//! (pinned by `looped_edge_summary_equals_single_process_build`).
//!
//! `--die-at MS` makes an edge play dead from that sim time; with
//! `--recover`, the coordinator runs leases plus coordinator-local
//! standby drivers, so the kill shows up as `lease ... expired` and
//! `rebind ...` lines in its trace.
//!
//! Coordinator↔edge links run the manifest's per-link session policy
//! (at-least-once delivery with replay and a circuit breaker); edges
//! serve under a [`Supervisor`] that survives coordinator reconnects
//! and rebuilds a crashed runtime within its restart budget. A
//! repeatable `--chaos-partition FROM:UNTIL` flag cuts every link both
//! ways over the given sim window via [`ChaosTransport`]; placed
//! between poll instants, the orchestration summary must still be
//! byte-identical to the fault-free run — ticks queue in the session's
//! replay queue and land, in order, once the window closes.

use diaspec_apps::parking::deploy;
use diaspec_apps::parking::{ParkingAppConfig, ENVIRONMENT_FIRST_STEP_MS};
use diaspec_codegen::deploy::{EdgeManifest, NodeManifest};
use diaspec_runtime::deploy::{
    BreakerConfig, EdgeRuntime, Link, RemoteDeviceProxy, RestartPolicy, SessionConfig, Supervisor,
};
use diaspec_runtime::obs::render_prometheus;
use diaspec_runtime::transport::{ChaosConfig, ChaosTransport, Direction, Transport};
use diaspec_runtime::{RecoveryConfig, RetryConfig, TcpTransport, TransportSample};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::Arc;

/// Lease TTL for `--recover`: 2.5 missed 10-minute polls.
const LEASE_TTL_MS: u64 = 1_500_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let options = Options::parse(std::env::args().skip(1))?;
    let manifest: NodeManifest =
        serde_json::from_str(&std::fs::read_to_string(&options.manifest)?)?;
    match options.role.as_str() {
        "edge" => run_edge(&manifest, &options),
        "coordinator" => run_coordinator(&manifest, &options, Backend::Tcp),
        "inprocess" => run_coordinator(&manifest, &options, Backend::InProcess),
        other => {
            Err(format!("unknown role `{other}` (expected coordinator, edge, inprocess)").into())
        }
    }
}

/// Which transport backend the coordinator bridges edges over.
#[derive(Clone, Copy, PartialEq)]
enum Backend {
    /// Real sockets to separately launched edge processes.
    Tcp,
    /// Loopback `SimTransport` handlers onto in-process edge runtimes.
    InProcess,
}

struct Options {
    role: String,
    manifest: String,
    node: String,
    sensors: usize,
    hours: u64,
    die_at: Option<u64>,
    recover: bool,
    /// Bidirectional link partitions, as `(from_ms, until_ms)` sim
    /// windows, injected by wrapping every link in a `ChaosTransport`.
    chaos_partitions: Vec<(u64, u64)>,
}

impl Options {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
        let mut options = Options {
            role: String::new(),
            manifest: String::new(),
            node: String::new(),
            sensors: 4,
            hours: 1,
            die_at: None,
            recover: false,
            chaos_partitions: Vec::new(),
        };
        while let Some(arg) = args.next() {
            let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
            match arg.as_str() {
                "--role" => options.role = value("--role")?,
                "--manifest" => options.manifest = value("--manifest")?,
                "--node" => options.node = value("--node")?,
                "--sensors" => {
                    options.sensors = value("--sensors")?
                        .parse()
                        .map_err(|e| format!("--sensors: {e}"))?;
                }
                "--hours" => {
                    options.hours = value("--hours")?
                        .parse()
                        .map_err(|e| format!("--hours: {e}"))?;
                }
                "--die-at" => {
                    options.die_at = Some(
                        value("--die-at")?
                            .parse()
                            .map_err(|e| format!("--die-at: {e}"))?,
                    );
                }
                "--recover" => options.recover = true,
                "--chaos-partition" => {
                    let window = value("--chaos-partition")?;
                    let (from, until) = window
                        .split_once(':')
                        .ok_or(format!("--chaos-partition `{window}`: expected FROM:UNTIL"))?;
                    let from: u64 = from
                        .parse()
                        .map_err(|e| format!("--chaos-partition: {e}"))?;
                    let until: u64 = until
                        .parse()
                        .map_err(|e| format!("--chaos-partition: {e}"))?;
                    if from >= until {
                        return Err(format!("--chaos-partition `{window}`: empty window"));
                    }
                    options.chaos_partitions.push((from, until));
                }
                other => return Err(format!("unexpected argument `{other}`")),
            }
        }
        if options.role.is_empty() || options.manifest.is_empty() {
            return Err(
                "usage: parking_distributed --role coordinator|edge|inprocess \
                        --manifest <manifest.json> [--node NAME] [--sensors N] [--hours H] \
                        [--die-at MS] [--recover] [--chaos-partition FROM:UNTIL]..."
                    .to_owned(),
            );
        }
        Ok(options)
    }

    fn app_config(&self) -> ParkingAppConfig {
        ParkingAppConfig {
            sensors_per_lot: self.sensors,
            ..ParkingAppConfig::default()
        }
    }
}

/// Builds one edge node's runtime for its lot shards, armed with the
/// `--die-at` schedule.
fn edge_node(edge: &EdgeManifest, options: &Options) -> EdgeRuntime {
    let mut runtime = deploy::edge_runtime(edge.name.clone(), &edge.shards, &options.app_config());
    if let Some(die_at) = options.die_at {
        runtime.set_die_at(die_at);
    }
    runtime
}

/// Edge role: serve the coordinator under a [`Supervisor`] — the node
/// survives coordinator reconnects with its dedup cache intact, crashed
/// runtimes are rebuilt within the restart budget, and an absent
/// coordinator ends the process instead of leaking it.
fn run_edge(manifest: &NodeManifest, options: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let edge = manifest
        .edges
        .iter()
        .find(|e| e.name == options.node)
        .ok_or_else(|| format!("manifest has no edge node `{}`", options.node))?;
    let listener = TcpListener::bind(&edge.listen)?;
    eprintln!("{}: listening on {}", edge.name, edge.listen);
    let supervisor = Supervisor::new(RestartPolicy {
        // Generous first-join window: the coordinator process may be
        // launched after the edges.
        rejoin_window_ms: 5_000,
        ..RestartPolicy::default()
    });
    // The death schedule stays armed across rebuilds: a node killed on
    // schedule stays dead, so the coordinator's lease/standby recovery
    // is what brings the lots back, exactly as in the in-process run.
    let report = supervisor.serve(&listener, |_generation| edge_node(edge, options))?;
    if report.restarts > 0 {
        eprintln!(
            "{}: {} restart(s) over {} connection(s){}",
            edge.name,
            report.restarts,
            report.connections,
            if report.gave_up {
                ", crash budget exhausted"
            } else {
                ""
            }
        );
    }
    println!(
        "{}: served {} request(s), {} bytes in / {} bytes out{}",
        edge.name,
        report.requests,
        report.stats.bytes_received,
        report.stats.bytes_sent,
        if report.died_on_schedule {
            " (died on schedule)"
        } else {
            ""
        }
    );
    Ok(())
}

/// Builds the coordinator's link to one edge: the manifest's session
/// policy decides between an at-least-once session link and a
/// best-effort one, and any `--chaos-partition` windows wrap the
/// backend in a [`ChaosTransport`] first.
fn build_link(
    transport: impl Transport + 'static,
    edge: &EdgeManifest,
    options: &Options,
) -> Arc<Link> {
    let policy = &edge.link;
    let session = SessionConfig {
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
    };
    if options.chaos_partitions.is_empty() {
        if policy.session {
            Link::with_session(transport, session)
        } else {
            Link::new(transport)
        }
    } else {
        let mut config = ChaosConfig::default();
        for &(from_ms, until_ms) in &options.chaos_partitions {
            config = config.window(from_ms, until_ms, Direction::Both);
        }
        let chaos = ChaosTransport::new(transport, config);
        if policy.session {
            Link::with_session(chaos, session)
        } else {
            Link::new(chaos)
        }
    }
}

/// Coordinator (or whole-run in-process) role: run the orchestration
/// with every sharded device bridged over the chosen backend.
fn run_coordinator(
    manifest: &NodeManifest,
    options: &Options,
    backend: Backend,
) -> Result<(), Box<dyn std::error::Error>> {
    let config = options.app_config();
    let mut orch = deploy::orchestrator(&config)?;

    // One link per edge node. In-process: the very same EdgeRuntime
    // wiring, looped back through a SimTransport handler.
    let retry = RetryConfig {
        max_attempts: 1,
        base_backoff_ms: 5,
        timeout_ms: 1_000,
    };
    let mut links: BTreeMap<String, Arc<Link>> = BTreeMap::new();
    let mut lots = Vec::new();
    let mut link_of_lot = BTreeMap::new();
    for edge in &manifest.edges {
        let link = match backend {
            Backend::Tcp => build_link(
                TcpTransport::new(edge.name.clone(), edge.listen.clone(), retry),
                edge,
                options,
            ),
            Backend::InProcess => {
                build_link(deploy::loopback(edge_node(edge, options)).0, edge, options)
            }
        };
        for lot in &edge.shards {
            lots.push(lot.clone());
            link_of_lot.insert(lot.clone(), Arc::clone(&link));
        }
        links.insert(edge.name.clone(), link);
    }

    if options.recover {
        orch.set_tracing(true);
        orch.enable_recovery(RecoveryConfig::default().with_leases(LEASE_TTL_MS))?;
    }

    // Sharded families: one remote proxy per entity, over the link of
    // the edge that hosts its lot; city entrance panels and the
    // messenger stay coordinator-local.
    let city = deploy::bind_city(&mut orch, &lots, options.sensors, |device| {
        Box::new(RemoteDeviceProxy::new(
            device.id(),
            Arc::clone(&link_of_lot[device.lot]),
        ))
    })?;
    if options.recover {
        // Coordinator-local standbys over yet another model replica,
        // stepped on the edges' grid: when an edge dies and leases
        // expire, the registry promotes these and the orchestration
        // continues on identical data.
        let standby_model = deploy::city_model(&config);
        deploy::register_standbys(&mut orch, &lots, options.sensors, |device| {
            deploy::local_driver(&standby_model, device)
        })?;
        let (_, process) = standby_model.into_process();
        orch.spawn_process_at("standby-city", process, ENVIRONMENT_FIRST_STEP_MS);
    }
    // Stopped before the links say `Bye` so no tick races the orderly
    // shutdown.
    let pump_stop = deploy::spawn_tick_pump(&mut orch, &config, links.values().cloned().collect());
    orch.launch()?;

    eprintln!(
        "coordinator: {} entities bound, {} edge link(s) over {} backend",
        orch.registry().len(),
        links.len(),
        links.values().next().map_or("?", |l| l.backend()),
    );
    orch.run_until(options.hours * 3_600_000);
    pump_stop.stop();

    print!("{}", deploy::summary(&mut orch, &city.messenger));
    if options.recover {
        let mut lease_lines = 0usize;
        for event in orch.take_trace() {
            let line = event.to_string();
            if line.contains("lease ") || line.contains("rebind ") {
                println!("trace: {}", line.trim());
                lease_lines += 1;
            }
        }
        println!("recovery events: {lease_lines}");
    }
    let mut snapshot = orch.observation();
    for (name, link) in &links {
        let sample = TransportSample::from_stats(name, link.backend(), &link.stats());
        snapshot.transports.push(match link.session_stats() {
            Some(session) => sample.with_session(&session),
            None => sample,
        });
        link.close();
    }
    for line in render_prometheus(&snapshot)
        .lines()
        .filter(|l| l.starts_with("diaspec_transport_") || l.starts_with("diaspec_session_"))
    {
        eprintln!("{line}");
    }
    Ok(())
}
