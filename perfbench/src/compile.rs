//! `design_compile`: lex → parse → check → analyze → generate Rust and
//! Java, on the shipped designs (plus the cross-design pass over the
//! choreography pair) and on one seeded city-scale synthetic design.
//!
//! Chosen because it is the only workload where the compiler layers
//! run. The shipped set is interactive-sized; the synthetic design
//! exposes the passes whose cost grows faster than the design.

use crate::layers::{elapsed_ns, Probe};
use crate::report::Report;
use crate::{stats, Args, Rng, SetupClock};
use diaspec_codegen::lint::{lint_designs, lint_source, LintOptions};
use diaspec_codegen::{generate_java, generate_rust};
use diaspec_core::analysis::{analyze, analyze_deployment, DeploymentOptions, DesignRef};
use diaspec_core::model::CheckedSpec;
use diaspec_core::{check, lexer, parser};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// The shipped designs, in `specs/`.
const SHIPPED: [&str; 6] = [
    "avionics",
    "choreo_climate",
    "choreo_security",
    "cooker",
    "homeassist",
    "parking",
];
/// Designs whose generated Rust is checked in under
/// `crates/diaspec-apps/src/<name>/generated.rs`.
const CHECKED_IN: [&str; 4] = ["cooker", "parking", "homeassist", "avionics"];
/// Device/context/controller triples in the synthetic design.
const TRIPLES: usize = 800;
/// Actuator families the synthetic controllers share.
const ACTUATOR_FAMILIES: usize = 100;

struct Inputs {
    shipped: Vec<(&'static str, String)>,
    generated: Vec<(&'static str, String)>,
    lint_goldens: Vec<(&'static str, String)>,
    large: String,
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn load(seed: u64) -> Inputs {
    Inputs {
        shipped: SHIPPED
            .iter()
            .map(|n| (*n, read(&format!("specs/{n}.spec"))))
            .collect(),
        generated: CHECKED_IN
            .iter()
            .map(|n| {
                (
                    *n,
                    read(&format!("crates/diaspec-apps/src/{n}/generated.rs")),
                )
            })
            .collect(),
        lint_goldens: ["cooker", "parking", "avionics", "homeassist", "choreo_pair"]
            .iter()
            .map(|n| (*n, read(&format!("tests/goldens/lint_{n}.txt"))))
            .collect(),
        large: synthetic_design(seed),
    }
}

/// A seeded city-scale design: `TRIPLES` sensor/context/controller
/// triples. Contexts are periodic grouped-by or event-driven; about one
/// in ten also listens to an earlier context (sparse chains); every
/// controller actuates one of `ACTUATOR_FAMILIES` shared families.
pub fn synthetic_design(seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let mut out = String::from("enumeration ZoneEnum { Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7 }\n");
    out.push_str(
        "device Actuator { attribute zone as ZoneEnum; action apply(level as Integer); }\n",
    );
    for f in 0..ACTUATOR_FAMILIES {
        let _ = writeln!(out, "device Family{f} extends Actuator {{ }}");
    }
    for i in 0..TRIPLES {
        let _ = writeln!(
            out,
            "device Sensor{i} {{ attribute zone as ZoneEnum; source reading as Integer; }}"
        );
        let _ = writeln!(out, "context Ctx{i} as Integer {{");
        if rng.chance(0.5) {
            let minutes = [1, 5, 10, 15, 30, 60][rng.below(6)];
            let _ = writeln!(
                out,
                "  when periodic reading from Sensor{i} <{minutes} min> grouped by zone always publish;"
            );
        } else {
            let _ = writeln!(out, "  when provided reading from Sensor{i} maybe publish;");
        }
        if i > 0 && rng.chance(0.1) {
            let _ = writeln!(out, "  when provided Ctx{} always publish;", rng.below(i));
        }
        out.push_str("}\n");
        let _ = writeln!(
            out,
            "controller Ctl{i} {{ when provided Ctx{i} do apply on Family{}; }}",
            rng.below(ACTUATOR_FAMILIES)
        );
    }
    out
}

/// Phase probes of one design set (shipped or large).
#[derive(Default)]
struct PhaseProbes {
    lex: Arc<Probe>,
    parse: Arc<Probe>,
    check: Arc<Probe>,
    analyze: Arc<Probe>,
    deployment: Arc<Probe>,
    rust: Arc<Probe>,
    java: Arc<Probe>,
    tokens: u64,
    diagnostics: u64,
    findings: u64,
    rust_bytes: u64,
    java_bytes: u64,
}

struct Compiled {
    spec: CheckedSpec,
    rust: String,
    java_fingerprint: u64,
}

/// The workload's set-up: the front end (lex, parse, check) of every
/// input design, which an editor or build tool runs before it analyzes or
/// generates anything. The inputs are read and generated beforehand.
fn front_end(inputs: &Inputs) -> Vec<CheckedSpec> {
    inputs
        .shipped
        .iter()
        .map(|(_, source)| source.as_str())
        .chain([inputs.large.as_str()])
        .map(|source| diaspec_core::compile_str(source).expect("every input design checks"))
        .collect()
}

/// One front-to-back compile. With probes, every phase is timed and the
/// lexer also runs on its own (the parser lexes internally), so the
/// parser's own time is `parse - lex`.
fn compile(source: &str, mut probes: Option<&mut PhaseProbes>) -> Result<Compiled, String> {
    let mut t = Instant::now();
    // Charges the time since the previous lap to `probe` (traced only).
    let lap = |t: &mut Instant, probe: Option<&Arc<Probe>>| {
        if let Some(p) = probe {
            p.record_ns(elapsed_ns(*t));
        }
        *t = Instant::now();
    };
    if let Some(p) = probes.as_deref_mut() {
        p.tokens += lexer::lex(source).0.len() as u64;
        lap(&mut t, Some(&p.lex));
    }
    let (ast, diags) = parser::parse(source);
    if diags.has_errors() {
        return Err(format!("{} parse error(s)", diags.error_count()));
    }
    lap(&mut t, probes.as_deref().map(|p| &p.parse));
    let (model, check_diags) = check::check(&ast);
    let spec = match model {
        Some(spec) if !check_diags.has_errors() => spec,
        _ => return Err(format!("{} check error(s)", check_diags.error_count())),
    };
    lap(&mut t, probes.as_deref().map(|p| &p.check));
    let analysis = analyze(&spec);
    lap(&mut t, probes.as_deref().map(|p| &p.analyze));
    let rust = generate_rust(&spec);
    lap(&mut t, probes.as_deref().map(|p| &p.rust));
    let java = generate_java(&spec);
    lap(&mut t, probes.as_deref().map(|p| &p.java));
    let rust = rust
        .files
        .into_iter()
        .map(|f| f.content)
        .collect::<String>();
    let mut java_fingerprint = 0xcbf2_9ce4_8422_2325u64;
    let mut java_bytes = 0;
    for file in &java.files {
        java_bytes += file.content.len();
        for b in file.path.bytes().chain(file.content.bytes()) {
            java_fingerprint = (java_fingerprint ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    if let Some(p) = probes {
        p.diagnostics += check_diags.len() as u64;
        p.findings += analysis.diagnostics.len() as u64;
        p.rust_bytes += rust.len() as u64;
        p.java_bytes += java_bytes as u64;
    }
    Ok(Compiled {
        spec,
        rust,
        java_fingerprint,
    })
}

/// Compiles every shipped design and runs the cross-design pass over
/// the choreography pair; checks the checked-in frameworks.
fn shipped_pass(inputs: &Inputs, report: &mut Report, mut probes: Option<&mut PhaseProbes>) {
    let mut climate = None;
    let mut security = None;
    for (name, source) in &inputs.shipped {
        match compile(source, probes.as_deref_mut()) {
            Ok(out) => {
                if let Some((_, golden)) = inputs.generated.iter().find(|(n, _)| n == name) {
                    report.check(out.rust == *golden, || {
                        format!("{name}: generated Rust differs from the checked-in framework")
                    });
                } else {
                    report.check(true, String::new);
                }
                match *name {
                    "choreo_climate" => climate = Some(out.spec),
                    "choreo_security" => security = Some(out.spec),
                    _ => {}
                }
            }
            Err(e) => report.check(false, || format!("{name}: {e}")),
        }
    }
    let (Some(climate), Some(security)) = (climate, security) else {
        return;
    };
    let start = Instant::now();
    let deployment = analyze_deployment(
        &[
            DesignRef {
                name: "choreo_climate",
                spec: &climate,
            },
            DesignRef {
                name: "choreo_security",
                spec: &security,
            },
        ],
        &[],
        &DeploymentOptions::default(),
    );
    if let Some(p) = probes {
        p.deployment.record_ns(elapsed_ns(start));
    }
    // The pair seeds a guaranteed cross-design conflict (E0601).
    report.check(!deployment.conflict_free(), || {
        "choreography pair: the cross-design conflict was not found".to_owned()
    });
}

/// Lints the shipped designs and the choreography pair against the
/// checked-in lint goldens.
fn lint_checks(inputs: &Inputs, report: &mut Report) {
    let options = LintOptions::default();
    for (name, golden) in &inputs.lint_goldens {
        let rendered = if *name == "choreo_pair" {
            let pair: Vec<(String, String)> = ["choreo_climate", "choreo_security"]
                .iter()
                .map(|n| {
                    let source = &inputs
                        .shipped
                        .iter()
                        .find(|(s, _)| s == n)
                        .expect("shipped")
                        .1;
                    (format!("specs/{n}.spec"), source.clone())
                })
                .collect();
            lint_designs(&pair, &[], &options).map(|o| o.rendered)
        } else {
            let source = &inputs
                .shipped
                .iter()
                .find(|(s, _)| s == name)
                .expect("shipped")
                .1;
            Ok(lint_source(&format!("specs/{name}.spec"), source, &options).rendered)
        };
        report.check(rendered.as_ref() == Ok(golden), || {
            format!("lint output for {name} differs from tests/goldens/lint_{name}.txt")
        });
    }
}

/// Share of a run's budget spent on shipped passes; the rest goes to
/// large compiles, which take seconds each and so need more of it.
const SHIPPED_SHARE: f64 = 0.3;
/// The run alternates this many shipped and large phases, so that host
/// contention, which comes and goes over seconds, reaches both sets.
const CYCLES: u32 = 4;

/// Set-ups per batch ([`SetupClock`]), and batches timed before the
/// run and at the start of each round.
const SETUPS_PER_BATCH: usize = 5;
const BATCHES: usize = 2;

/// Measurement: `CYCLES` rounds of shipped passes then large compiles,
/// each phase running until its share of the round is spent (at least
/// one compile each). Returns (shipped pass ms, large compile ms).
fn measure(
    inputs: &Inputs,
    report: &mut Report,
    budget: std::time::Duration,
    clock: &mut SetupClock,
    mut probes: Option<(&mut PhaseProbes, &mut PhaseProbes)>,
) -> (Vec<f64>, Vec<f64>) {
    let mut shipped_ms = Vec::new();
    let mut large_ms = Vec::new();
    let mut reference: Option<(String, u64)> = None;
    let round = budget / CYCLES;
    let start = Instant::now();
    for cycle in 1..=CYCLES {
        for _ in 0..BATCHES {
            clock.batch(|| front_end(inputs));
        }
        let round_start = Instant::now();
        loop {
            let t = Instant::now();
            shipped_pass(inputs, report, probes.as_mut().map(|(s, _)| &mut **s));
            shipped_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if round_start.elapsed() >= round.mul_f64(SHIPPED_SHARE) {
                break;
            }
        }
        loop {
            let t = Instant::now();
            let out = compile(&inputs.large, probes.as_mut().map(|(_, l)| &mut **l));
            large_ms.push(t.elapsed().as_secs_f64() * 1e3);
            match out {
                Ok(out) => {
                    let key = (out.rust, out.java_fingerprint);
                    let same = reference.get_or_insert_with(|| key.clone()) == &key;
                    report.check(same, || {
                        "synthetic design: output differs between compiles".to_owned()
                    });
                }
                Err(e) => report.check(false, || format!("synthetic design: {e}")),
            }
            if start.elapsed() >= round * cycle {
                break;
            }
        }
    }
    (shipped_ms, large_ms)
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let inputs = load(args.seed);
    let mut clock = SetupClock::new(SETUPS_PER_BATCH);
    for _ in 0..BATCHES {
        clock.batch(|| front_end(&inputs));
    }
    lint_checks(&inputs, &mut report);
    if !args.trace {
        let (shipped, large) = measure(&inputs, &mut report, args.budget, &mut clock, None);
        let [p50, p90] = stats::percentiles(&shipped, [0.5, 0.9]);
        let large_p50 = stats::median(&large);
        // Declarations of the synthetic design compiled per second, over
        // all large compiles. Unlike the other workloads' rates this is
        // not a tail: one compile lasts over a second, long enough to
        // average the host's sub-second speed modes itself, so the slowest
        // of the ten or so compiles of a run would be an extreme value.
        let declarations = (3 * TRIPLES + ACTUATOR_FAMILIES + 2) as f64;
        let large_s = large.iter().sum::<f64>() / 1e3;
        clock.set(&mut report);
        report.set("latency_p90_ms", p90);
        report.set(
            "throughput_per_s",
            declarations * large.len() as f64 / large_s,
        );
        report.detail("compile_shipped_ms", p50);
        report.detail("compile_shipped_p90_ms", p90);
        report.detail("compile_large_ms", large_p50);
        report.detail("shipped_passes", shipped.len() as f64);
        report.detail("large_compiles", large.len() as f64);
        return report;
    }

    // Traced: an untraced half for the overhead ratio, then a traced half.
    let half = args.budget / 2;
    let (plain_shipped, plain_large) = measure(&inputs, &mut report, half, &mut clock, None);
    let mut shipped = PhaseProbes::default();
    let mut large = PhaseProbes::default();
    let (traced_shipped, traced_large) = measure(
        &inputs,
        &mut report,
        half,
        &mut clock,
        Some((&mut shipped, &mut large)),
    );
    let plain_total = stats::median(&plain_shipped) * traced_shipped.len() as f64
        + stats::median(&plain_large) * traced_large.len() as f64;
    let traced_total: f64 = traced_shipped.iter().chain(&traced_large).sum();
    report.set("obs.overhead_ratio", traced_total / plain_total);

    let passes = traced_shipped.len() as f64;
    let compiles = traced_large.len() as f64;
    set_phases(&mut report, "shipped", &shipped, passes);
    set_phases(&mut report, "large", &large, compiles);
    report.set(
        "shipped.core.analysis.deployment.ms",
        shipped.deployment.us() / 1e3 / passes,
    );

    for (set, p) in [("shipped", &shipped), ("large", &large)] {
        let rows: [(&'static str, &Arc<Probe>); 7] = [
            ("core.lexer", &p.lex),
            ("core.parser", &p.parse),
            ("core.check", &p.check),
            ("core.analysis", &p.analyze),
            ("core.analysis.deployment", &p.deployment),
            ("codegen.rust", &p.rust),
            ("codegen.java", &p.java),
        ];
        let total: f64 = rows.iter().map(|(_, p)| p.us()).sum();
        report.layer(set, None, total, 0.0, p.lex.calls());
        for (name, probe) in rows {
            if probe.calls() > 0 {
                report.layer(name, Some(set), probe.us(), 0.0, probe.calls());
            }
        }
    }
    report.close_layers(traced_total * 1e3, (passes + compiles) as u64);
    report
}

fn set_phases(report: &mut Report, set: &str, p: &PhaseProbes, ops: f64) {
    let ms = |probe: &Arc<Probe>| probe.us() / 1e3 / ops;
    let name = |suffix: &str| -> &'static str {
        let full = format!("{set}.{suffix}");
        crate::report::PER_LAYER
            .iter()
            .find(|(n, _)| *n == full)
            .map(|(n, _)| *n)
            .unwrap_or_else(|| panic!("no per-layer metric {full}"))
    };
    report.set(name("core.lexer.ms"), ms(&p.lex));
    report.set(name("core.lexer.tokens"), p.tokens as f64 / ops);
    // `parser::parse` lexes internally: its own time excludes the lexer.
    report.set(name("core.parser.ms"), ms(&p.parse) - ms(&p.lex));
    report.set(name("core.check.ms"), ms(&p.check));
    report.set(name("core.check.diagnostics"), p.diagnostics as f64 / ops);
    report.set(name("core.analysis.ms"), ms(&p.analyze));
    report.set(name("core.analysis.findings"), p.findings as f64 / ops);
    report.set(name("codegen.rust.ms"), ms(&p.rust));
    report.set(name("codegen.rust.bytes"), p.rust_bytes as f64 / ops);
    report.set(name("codegen.java.ms"), ms(&p.java));
    report.set(name("codegen.java.bytes"), p.java_bytes as f64 / ops);
}
