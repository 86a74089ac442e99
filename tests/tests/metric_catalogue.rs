//! Consistency guard for the Prometheus metric catalogue.
//!
//! `docs/OBSERVABILITY.md` lists every family `render_prometheus` can
//! emit, with its type, unit and labels. Nothing ties that table to the
//! renderer at compile time, so this test renders a snapshot exercising
//! every family — activities, pipeline stages, transport and session
//! counters, occupancy gauges — and fails the moment the two drift
//! apart, in either direction.

use diaspec_core::compile_str;
use diaspec_runtime::component::ContextActivation;
use diaspec_runtime::deploy::SessionStats;
use diaspec_runtime::engine::{ContextApi, ControllerApi, Orchestrator};
use diaspec_runtime::entity::DeviceInstance;
use diaspec_runtime::error::DeviceError;
use diaspec_runtime::obs::render_prometheus;
use diaspec_runtime::transport::TransportStats;
use diaspec_runtime::value::Value;
use diaspec_runtime::TransportSample;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const OBSERVABILITY_MD: &str = include_str!("../../docs/OBSERVABILITY.md");

/// `family -> (type, label keys)`.
type Catalogue = BTreeMap<String, (String, BTreeSet<String>)>;

/// The catalogue table: rows whose first cell is a backquoted
/// `diaspec_` family name.
fn documented() -> Catalogue {
    let mut out = Catalogue::new();
    for line in OBSERVABILITY_MD.lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let [_, family, kind, _unit, labels, _] = cells.as_slice() else {
            continue;
        };
        let Some(family) = family
            .strip_prefix("`diaspec_")
            .and_then(|f| f.strip_suffix('`'))
        else {
            continue;
        };
        let labels = labels
            .split(',')
            .map(|l| l.trim().trim_matches('`'))
            .filter(|l| !l.is_empty() && *l != "—")
            .map(str::to_owned)
            .collect();
        out.insert(format!("diaspec_{family}"), ((*kind).to_owned(), labels));
    }
    out
}

/// The rendered exposition: families from `# TYPE` lines, label keys
/// from the samples (a sample belongs to the longest family its name
/// starts with: `x_hist_bucket` to `x_hist`, not `x`).
fn emitted(text: &str) -> Catalogue {
    let mut out = Catalogue::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (family, kind) = rest.split_once(' ').expect("TYPE line has a type");
            out.insert(family.to_owned(), (kind.to_owned(), BTreeSet::new()));
        }
    }
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let name = line.split(['{', ' ']).next().unwrap_or_default();
        let family = out
            .keys()
            .filter(|f| name.starts_with(f.as_str()))
            .max_by_key(|f| f.len())
            .unwrap_or_else(|| panic!("sample outside any family: {line}"))
            .clone();
        if let Some((labels, _)) = line.split_once('{').and_then(|(_, l)| l.split_once('}')) {
            for pair in labels.split("\",") {
                let key = pair.split_once('=').expect("label has a value").0;
                out.get_mut(&family).unwrap().1.insert(key.to_owned());
            }
        }
    }
    out
}

struct Sink;
impl DeviceInstance for Sink {
    fn query(&mut self, s: &str, _n: u64) -> Result<Value, DeviceError> {
        Err(DeviceError::new("sink", s, "no sources"))
    }
    fn invoke(&mut self, _a: &str, _args: &[Value], _n: u64) -> Result<(), DeviceError> {
        Ok(())
    }
}

/// A traced sense-compute-control run, observed with every section
/// filled: activities, stages, gauges and one sampled session link.
fn full_exposition() -> String {
    let spec = Arc::new(
        compile_str(
            r#"
            device Sensor { source v as Integer; }
            device Sink { action absorb; }
            context Fast as Integer { when provided v from Sensor always publish; }
            controller Out { when provided Fast do absorb on Sink; }
            "#,
        )
        .unwrap(),
    );
    let mut orch = Orchestrator::new(spec);
    orch.register_context(
        "Fast",
        |_: &mut ContextApi<'_>, _: ContextActivation<'_>| Ok(Some(Value::Int(1))),
    )
    .unwrap();
    orch.register_controller("Out", |api: &mut ControllerApi<'_>, _: &str, _: &Value| {
        for sink in api.discover("Sink")?.ids() {
            api.invoke(&sink, "absorb", &[])?;
        }
        Ok(())
    })
    .unwrap();
    orch.set_observability(true);
    orch.set_span_tracing(true);
    let sensor = || Box::new(|_: &str, _: u64| Ok(Value::Int(0)));
    orch.bind_entity("s-1".into(), "Sensor", Default::default(), sensor())
        .unwrap();
    orch.bind_entity("sink-1".into(), "Sink", Default::default(), Box::new(Sink))
        .unwrap();
    orch.launch().unwrap();
    orch.emit_at(10, &"s-1".into(), "v", Value::Int(1), None)
        .unwrap();
    orch.run_until(100);

    let mut snapshot = orch.observation();
    let session = SessionStats {
        replays: 2,
        ..SessionStats::default()
    };
    let stats = TransportStats::default();
    snapshot
        .transports
        .push(TransportSample::from_stats("edge0", "tcp", &stats).with_session(&session));
    assert_eq!(snapshot.gauge("open_spans"), Some(0));
    render_prometheus(&snapshot)
}

#[test]
fn catalogue_lists_exactly_the_emitted_families() {
    let documented = documented();
    assert!(
        documented.len() > 20,
        "table parser found {} rows — did the table change format?",
        documented.len()
    );
    let emitted = emitted(&full_exposition());
    let names = |c: &Catalogue| c.keys().cloned().collect::<BTreeSet<_>>();
    let (doc_names, out_names) = (names(&documented), names(&emitted));
    let undocumented: Vec<_> = out_names.difference(&doc_names).collect();
    let stale: Vec<_> = doc_names.difference(&out_names).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "docs/OBSERVABILITY.md disagrees with render_prometheus — \
         emitted but undocumented: {undocumented:?}, documented but not emitted: {stale:?}"
    );
    for (family, shape) in &emitted {
        assert_eq!(
            &documented[family], shape,
            "type or labels of `{family}` (documented vs emitted)"
        );
    }
}
