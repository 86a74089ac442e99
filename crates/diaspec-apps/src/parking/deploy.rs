//! The parking city's deployment wiring, written once.
//!
//! The same design runs unchanged from one process to a city split over
//! edge nodes; only the drivers behind the lot-sharded devices change.
//! Every deployment of the parking application is assembled from these
//! pieces:
//!
//! - [`orchestrator`] — the engine with every context and controller
//!   registered;
//! - [`bind_city`] — binds each lot's presence sensors and entrance
//!   panel through a caller-supplied driver (a local
//!   [`local_driver`] in [`build`](super::build), a
//!   [`RemoteDeviceProxy`](diaspec_runtime::deploy::RemoteDeviceProxy)
//!   on a coordinator), then the coordinator-local city entrance panels
//!   and management messenger; [`register_standbys`] registers the same
//!   lot-sharded devices as `standby-` spares for lease recovery;
//! - [`edge_runtime`] — an edge node hosting a set of lots over a city
//!   model replica stepped on coordinator ticks ([`spawn_tick_pump`]),
//!   optionally looped back in-process through [`loopback`];
//! - [`summary`] — the orchestration-level summary every deployment of
//!   the same city must agree on byte for byte.

use super::generated::{Availability, CityEntranceEnum, ParkingLotEnum};
use super::{register_components, ParkingAppConfig, ENVIRONMENT_FIRST_STEP_MS, SPEC};
use diaspec_devices::common::{ActuationLog, RecordingActuator};
use diaspec_devices::parking::{ParkingCityModel, ParkingConfig, PresenceSensorDriver};
use diaspec_runtime::deploy::{EdgeRuntime, Link, TickPump, TickPumpStop};
use diaspec_runtime::entity::{AttributeMap, DeviceInstance};
use diaspec_runtime::error::RuntimeError;
use diaspec_runtime::transport::{SimTransport, TransportConfig};
use diaspec_runtime::value::{Value, ValueCodec};
use diaspec_runtime::Orchestrator;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// One lot-sharded device of the city: presence sensor `space` of
/// `lot`, or (`space: None`) the lot's entrance panel.
#[derive(Debug, Clone, Copy)]
pub struct LotDevice<'a> {
    /// The parking lot the device belongs to.
    pub lot: &'a str,
    /// The space a presence sensor watches; `None` for the panel.
    pub space: Option<usize>,
}

impl LotDevice<'_> {
    /// The entity id the device is bound under (and hosted under on an
    /// edge node).
    #[must_use]
    pub fn id(&self) -> String {
        match self.space {
            Some(space) => format!("presence-{}-{space}", self.lot),
            None => format!("panel-{}", self.lot),
        }
    }
}

/// Every lot-sharded device of `lots`: each lot's presence sensors,
/// then its entrance panel.
fn lot_devices(lots: &[String], sensors_per_lot: usize) -> impl Iterator<Item = LotDevice<'_>> {
    lots.iter().flat_map(move |lot| {
        (0..sensors_per_lot)
            .map(Some)
            .chain([None])
            .map(move |space| LotDevice { lot, space })
    })
}

/// The coordinator-local actuators [`bind_city`] binds.
pub struct CityDevices {
    /// Updates received by city entrance panels, keyed by entrance name.
    pub city_panels: BTreeMap<String, ActuationLog>,
    /// Messages received by the management messenger.
    pub messenger: ActuationLog,
}

/// Every parking lot of the design, in declaration order.
#[must_use]
pub fn lot_names() -> Vec<String> {
    ParkingLotEnum::ALL
        .iter()
        .map(|lot| lot.name().to_owned())
        .collect()
}

/// The simulated city of `config`: one lot per `ParkingLotEnum`
/// variant. Equal configs give identical models, so every node of a
/// deployment can step its own replica and see the same trajectories.
#[must_use]
pub fn city_model(config: &ParkingAppConfig) -> ParkingCityModel {
    let environment = ParkingConfig {
        spaces_per_lot: config.sensors_per_lot,
        ..config.environment
    };
    ParkingCityModel::new(lot_names(), environment, config.curve.clone())
}

/// An orchestrator for the parking design with every context and
/// controller registered, ready for [`bind_city`].
///
/// # Errors
///
/// Returns [`RuntimeError`] on a design/framework mismatch.
pub fn orchestrator(config: &ParkingAppConfig) -> Result<Orchestrator, RuntimeError> {
    let spec =
        Arc::new(diaspec_core::compile_str(SPEC).expect("bundled parking.spec must compile"));
    let mut orch = Orchestrator::with_transport(spec, config.transport);
    orch.set_processing_mode(config.processing);
    register_components(&mut orch, config)?;
    Ok(orch)
}

/// The in-process driver of a lot-sharded device over `model`: a
/// presence sensor reading its space, or an entrance panel recording
/// into a fresh log.
///
/// # Panics
///
/// Panics if `device.lot` is not a lot of `model`.
#[must_use]
pub fn local_driver(model: &ParkingCityModel, device: &LotDevice<'_>) -> Box<dyn DeviceInstance> {
    match device.space {
        Some(space) => {
            let cell = model.lot(device.lot).expect("device lot is a model lot");
            Box::new(PresenceSensorDriver::new(cell, space))
        }
        None => Box::new(RecordingActuator::new(ActuationLog::new())),
    }
}

/// Registers the lot-sharded devices of `lots` on `orch`, live or as
/// `standby-` spares.
fn register_lots(
    orch: &mut Orchestrator,
    lots: &[String],
    sensors_per_lot: usize,
    standby: bool,
    mut driver: impl FnMut(&LotDevice<'_>) -> Box<dyn DeviceInstance>,
) -> Result<(), RuntimeError> {
    for device in lot_devices(lots, sensors_per_lot) {
        let (device_type, attribute) = match device.space {
            Some(_) => ("PresenceSensor", "parkingLot"),
            None => ("ParkingEntrancePanel", "location"),
        };
        let mut attrs = AttributeMap::new();
        attrs.insert(
            attribute.to_owned(),
            Value::enum_value("ParkingLotEnum", device.lot),
        );
        let instance = driver(&device);
        if standby {
            let id = format!("standby-{}", device.id());
            orch.register_standby(id.into(), device_type, attrs, instance)?;
        } else {
            orch.bind_entity(device.id().into(), device_type, attrs, instance)?;
        }
    }
    Ok(())
}

/// Binds the city on `orch` (entering the deployment phase): one
/// presence sensor per space (paper: "each parking space is equipped
/// with a PresenceSensor device") and one entrance panel for each of
/// `lots`, each driven by what `driver` returns for it, then one
/// recording panel per city entrance and the management messenger.
///
/// # Errors
///
/// Returns [`RuntimeError`] when a binding is rejected (duplicate id or
/// a lot outside `ParkingLotEnum`).
pub fn bind_city(
    orch: &mut Orchestrator,
    lots: &[String],
    sensors_per_lot: usize,
    driver: impl FnMut(&LotDevice<'_>) -> Box<dyn DeviceInstance>,
) -> Result<CityDevices, RuntimeError> {
    orch.begin_deployment();
    register_lots(orch, lots, sensors_per_lot, false, driver)?;
    let mut city_panels = BTreeMap::new();
    for entrance in CityEntranceEnum::ALL {
        let log = ActuationLog::new();
        let mut attrs = AttributeMap::new();
        attrs.insert(
            "location".to_owned(),
            Value::enum_value("CityEntranceEnum", entrance.name()),
        );
        orch.bind_entity(
            format!("city-panel-{}", entrance.name()).into(),
            "CityEntrancePanel",
            attrs,
            Box::new(RecordingActuator::new(log.clone())),
        )?;
        city_panels.insert(entrance.name().to_owned(), log);
    }
    let messenger = ActuationLog::new();
    orch.bind_entity(
        "messenger-mgmt".into(),
        "Messenger",
        AttributeMap::new(),
        Box::new(RecordingActuator::new(messenger.clone())),
    )?;
    Ok(CityDevices {
        city_panels,
        messenger,
    })
}

/// Registers a `standby-` spare for every lot-sharded device of `lots`,
/// driven by what `driver` returns for it: when a lease expires, the
/// registry promotes the spare in place of the silent device.
///
/// # Errors
///
/// Returns [`RuntimeError`] when a registration is rejected.
pub fn register_standbys(
    orch: &mut Orchestrator,
    lots: &[String],
    sensors_per_lot: usize,
    driver: impl FnMut(&LotDevice<'_>) -> Box<dyn DeviceInstance>,
) -> Result<(), RuntimeError> {
    register_lots(orch, lots, sensors_per_lot, true, driver)
}

/// An edge node's runtime: local drivers for the devices of `lots` over
/// a replica of the whole city model, stepped on every coordinator
/// tick.
#[must_use]
pub fn edge_runtime(
    node: impl Into<String>,
    lots: &[String],
    config: &ParkingAppConfig,
) -> EdgeRuntime {
    let mut model = city_model(config);
    let mut runtime = EdgeRuntime::new(node);
    for device in lot_devices(lots, config.sensors_per_lot) {
        runtime.add_device(device.id(), local_driver(&model, &device));
    }
    runtime.on_tick(move |now| model.step(now));
    runtime
}

/// Loops `runtime` back in-process: the returned [`SimTransport`]
/// hands every envelope to it, standing in for the edge's socket. The
/// shared handle stays readable after the run.
#[must_use]
pub fn loopback(runtime: EdgeRuntime) -> (SimTransport, Arc<Mutex<EdgeRuntime>>) {
    let runtime = Arc::new(Mutex::new(runtime));
    let edge = Arc::clone(&runtime);
    let mut sim = SimTransport::new(TransportConfig::default());
    sim.connect_handler(Box::new(move |envelope| {
        edge.lock().expect("edge runtime lock").handle(envelope)
    }));
    (sim, runtime)
}

/// Spawns the coordinator process that ticks every edge in `links` on
/// the grid the single-process environment steps on, and returns its
/// stop handle.
pub fn spawn_tick_pump(
    orch: &mut Orchestrator,
    config: &ParkingAppConfig,
    links: Vec<Arc<Link>>,
) -> TickPumpStop {
    let pump = TickPump::new(links, config.environment.step_ms);
    let stop = pump.stop_handle();
    orch.spawn_process_at("tick-pump", pump, ENVIRONMENT_FIRST_STEP_MS);
    stop
}

/// The orchestration-level summary: the latest availability and
/// suggestions, the digests `messenger` received, the engine's delivery
/// metrics, and the surfaced errors (drained). Built only from
/// coordinator-side observations, so every deployment of one city —
/// single process, looped-back edges, edges over sockets, under link
/// chaos — must render it byte-identically.
pub fn summary(orch: &mut Orchestrator, messenger: &ActuationLog) -> String {
    let availability = orch
        .last_value("ParkingAvailability")
        .and_then(ValueCodec::from_value)
        .map_or("none".to_owned(), |list: Vec<Availability>| {
            let cells: Vec<String> = list
                .iter()
                .map(|a| format!("{}={}", a.parking_lot.name(), a.count))
                .collect();
            cells.join(" ")
        });
    let suggestions = orch
        .last_value("ParkingSuggestion")
        .and_then(ValueCodec::from_value)
        .map_or("none".to_owned(), |lots: Vec<ParkingLotEnum>| {
            let names: Vec<&str> = lots.iter().map(|l| l.name()).collect();
            names.join(", ")
        });
    let m = *orch.metrics();
    format!(
        "availability: {availability}\nsuggestions: {suggestions}\ndigests: {}\n\
         metrics: periodic={} polled={} mapreduce={} publications={} actuations={}\n\
         errors: {}\n",
        messenger.count("sendMessage"),
        m.periodic_deliveries,
        m.readings_polled,
        m.map_reduce_executions,
        m.publications,
        m.actuations,
        orch.drain_errors().len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parking::build;
    use diaspec_runtime::deploy::{RemoteDeviceProxy, SessionConfig};

    const HOUR_MS: u64 = 3_600_000;

    /// Runs the city as a coordinator whose one edge hosts every lot,
    /// looped back through a session link.
    fn looped_edge_summary(config: &ParkingAppConfig, hours: u64) -> String {
        let mut orch = orchestrator(config).unwrap();
        let lots = lot_names();
        let (sim, _edge) = loopback(edge_runtime("edge0", &lots, config));
        let link = Link::with_session(sim, SessionConfig::default());
        let city = bind_city(&mut orch, &lots, config.sensors_per_lot, |device| {
            Box::new(RemoteDeviceProxy::new(device.id(), Arc::clone(&link)))
        })
        .unwrap();
        let pump = spawn_tick_pump(&mut orch, config, vec![Arc::clone(&link)]);
        orch.launch().unwrap();
        orch.run_until(hours * HOUR_MS);
        pump.stop();
        link.close();
        summary(&mut orch, &city.messenger)
    }

    #[test]
    fn looped_edge_summary_equals_single_process_build() {
        for (sensors, hours) in [(4, 1), (4, 3), (10, 25)] {
            let config = ParkingAppConfig {
                sensors_per_lot: sensors,
                ..ParkingAppConfig::default()
            };
            let mut app = build(config.clone()).unwrap();
            app.orchestrator.run_until(hours * HOUR_MS);
            let single = summary(&mut app.orchestrator, &app.messenger);
            assert!(!single.contains("none"), "{single}");
            assert_eq!(
                single.contains("digests: 1"),
                hours > 24,
                "the daily digest fires once a day: {single}"
            );
            assert_eq!(
                looped_edge_summary(&config, hours),
                single,
                "{sensors} sensors per lot, {hours} h"
            );
        }
    }
}
