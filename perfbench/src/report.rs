//! The result of one run: output checks, metrics, and the traced layer
//! table, rendered as the JSON lines the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, measured by every workload from untraced runs.
/// Each workload gives them its own operation (see `README.md`): latency
/// is a p90 and throughput a sustained rate ([`crate::stats::sustained`]),
/// since medians flip between the speed modes of a shared host.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not run reads 0. Times are per unit operation of the traced
/// phase unless the name says otherwise; counts are traced-phase totals.
pub const PER_LAYER: [(&str, &str); 69] = [
    ("trace.op.us", "us"),
    ("trace.ops", "count"),
    ("trace.residual_share", "ratio"),
    ("obs.overhead_ratio", "ratio"),
    ("shipped.core.lexer.ms", "ms"),
    ("shipped.core.lexer.tokens", "count"),
    ("shipped.core.parser.ms", "ms"),
    ("shipped.core.check.ms", "ms"),
    ("shipped.core.check.diagnostics", "count"),
    ("shipped.core.analysis.ms", "ms"),
    ("shipped.core.analysis.findings", "count"),
    ("shipped.core.analysis.deployment.ms", "ms"),
    ("shipped.codegen.rust.ms", "ms"),
    ("shipped.codegen.rust.bytes", "bytes"),
    ("shipped.codegen.java.ms", "ms"),
    ("shipped.codegen.java.bytes", "bytes"),
    ("large.core.lexer.ms", "ms"),
    ("large.core.lexer.tokens", "count"),
    ("large.core.parser.ms", "ms"),
    ("large.core.check.ms", "ms"),
    ("large.core.check.diagnostics", "count"),
    ("large.core.analysis.ms", "ms"),
    ("large.core.analysis.findings", "count"),
    ("large.codegen.rust.ms", "ms"),
    ("large.codegen.rust.bytes", "bytes"),
    ("large.codegen.java.ms", "ms"),
    ("large.codegen.java.bytes", "bytes"),
    ("codegen.deploy.ms", "ms"),
    ("registry.bind.us", "us"),
    ("registry.entities", "count"),
    ("registry.discover.us", "us"),
    ("registry.discover.calls", "count"),
    ("engine.admit.us", "us"),
    ("engine.drain.us", "us"),
    ("engine.self.us", "us"),
    ("engine.queue_wait.us", "us"),
    ("engine.backlog.max", "count"),
    ("engine.publications", "count"),
    ("engine.messages_delivered", "count"),
    ("engine.actuations", "count"),
    ("engine.readings_polled", "count"),
    ("engine.component_errors", "count"),
    ("engine.map_reduce_executions", "count"),
    ("engine.stage.admit.us", "us"),
    ("engine.stage.route.us", "us"),
    ("engine.stage.schedule.sim_ms", "ms"),
    ("engine.stage.dispatch.us", "us"),
    ("engine.stage.compute.us", "us"),
    ("engine.stage.actuate.us", "us"),
    ("engine.stage.ingest.us", "us"),
    ("process.processing.us", "us"),
    ("devices.query.us", "us"),
    ("devices.invoke.us", "us"),
    ("devices.env_step.us", "us"),
    ("logic.context.us", "us"),
    ("logic.controller.us", "us"),
    ("deploy.request.us", "us"),
    ("deploy.request.p50_us", "us"),
    ("deploy.request.p99_us", "us"),
    ("transport.exchange.us", "us"),
    ("deploy.session.us", "us"),
    ("deploy.edge.handle.us", "us"),
    ("transport.wire_socket.us", "us"),
    ("transport.frames_sent", "count"),
    ("transport.bytes_sent", "bytes"),
    ("transport.frames_per_reading", "ratio"),
    ("deploy.session.resends", "count"),
    ("deploy.session.replays", "count"),
    ("event.p99_us", "us"),
];

/// One row of the traced layer table. Rows without a parent partition
/// the workload's end-to-end time together with the residual; a child
/// row is a part of its parent's busy time.
pub struct LayerRow {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub busy_us: f64,
    pub wait_us: f64,
    pub calls: u64,
}

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    /// Workload-specific figures printed beside the metrics.
    detail: BTreeMap<String, f64>,
    layers: Vec<LayerRow>,
    /// End-to-end time of the traced phase the layer rows partition.
    traced_e2e_us: f64,
}

impl Report {
    /// Counts one checked operation, recording a failure message.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        let known = END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name);
        assert!(known, "metric `{name}` is not in the catalogue");
        self.metrics.insert(name, value);
    }

    pub fn has(&self, name: &str) -> bool {
        self.metrics.contains_key(name)
    }

    pub fn detail(&mut self, name: impl Into<String>, value: f64) {
        self.detail.insert(name.into(), value);
    }

    pub fn layer(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        busy_us: f64,
        wait_us: f64,
        calls: u64,
    ) {
        self.layers.push(LayerRow {
            name,
            parent,
            busy_us,
            wait_us,
            calls,
        });
    }

    /// Closes the layer table against the traced phase's end-to-end
    /// time and its number of unit operations, setting the residual.
    pub fn close_layers(&mut self, e2e_us: f64, ops: u64) {
        let accounted: f64 = self
            .layers
            .iter()
            .filter(|r| r.parent.is_none())
            .map(|r| r.busy_us + r.wait_us)
            .sum();
        self.traced_e2e_us = e2e_us;
        self.set("trace.op.us", e2e_us / ops.max(1) as f64);
        self.set("trace.ops", ops as f64);
        self.set("trace.residual_share", (e2e_us - accounted) / e2e_us);
    }

    /// Prints the detail line, the layer table (traced runs) and the
    /// result line, which is always the last line of standard output.
    pub fn print(&self, provenance: &str, trace: bool) {
        for failure in &self.failures {
            eprintln!("check failed: {failure}");
        }
        println!("{{\"provenance\":{provenance}}}");
        let detail: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_num(*v)))
            .collect();
        println!("{{\"detail\":{{{}}}}}", detail.join(","));
        if trace {
            self.print_layers();
        }
        let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::new();
        for (name, unit) in catalogue {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => panic!("end-to-end metric `{name}` was not measured"),
            };
            metrics.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            ));
        }
        let correct = self.failed == 0 && self.attempted > 0;
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }

    /// The layer table: a human-readable copy on stderr and one JSON
    /// line on stdout.
    fn print_layers(&self) {
        let e2e = self.traced_e2e_us;
        eprintln!(
            "{:<28} {:<16} {:>14} {:>14} {:>12} {:>8}",
            "layer", "parent", "busy_us", "wait_us", "calls", "share"
        );
        let mut rows = Vec::new();
        for r in &self.layers {
            eprintln!(
                "{:<28} {:<16} {:>14.1} {:>14.1} {:>12} {:>7.1}%",
                r.name,
                r.parent.unwrap_or("-"),
                r.busy_us,
                r.wait_us,
                r.calls,
                100.0 * (r.busy_us + r.wait_us) / e2e
            );
            rows.push(format!(
                "{{\"layer\":{},\"parent\":{},\"busy_us\":{},\"wait_us\":{},\"calls\":{}}}",
                json_str(r.name),
                r.parent.map_or_else(|| "null".to_owned(), json_str),
                json_num(r.busy_us),
                json_num(r.wait_us),
                r.calls
            ));
        }
        let residual = self
            .metrics
            .get("trace.residual_share")
            .copied()
            .unwrap_or(f64::NAN);
        eprintln!(
            "{:<28} {:<16} {:>14.1} {:>14} {:>12} {:>7.1}%",
            "residual",
            "-",
            residual * e2e,
            "",
            "",
            100.0 * residual
        );
        eprintln!("{:<28} {:<16} {:>14.1}", "end-to-end", "-", e2e);
        println!(
            "{{\"layers\":[{}],\"end_to_end_us\":{},\"residual_share\":{}}}",
            rows.join(","),
            json_num(e2e),
            json_num(residual)
        );
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all its digits; non-finite values (which JSON
/// cannot carry) become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(
                json.contains(&entry),
                "BENCHMARK.json lacks {name} ({unit})"
            );
        }
        assert_eq!(
            json.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_num(0.016484000000000002), "0.016484000000000002");
        assert_eq!(json_num(2.0), "2.0");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
