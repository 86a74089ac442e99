//! E13 — design-compiler throughput (paper §V): wall time of each
//! compiler phase for the bundled case-study designs plus a synthetic
//! large design.
//!
//! The phases are the compiler's public entry points: `lexer::lex`,
//! `parser::parse` (which lexes internally, so its time includes the
//! lexer's), `check::check`, `analysis::analyze`, and Rust and Java
//! generation. Each phase is timed on the output of the previous one,
//! computed once outside the timer.

use crate::median_ns;
use diaspec_codegen::{generate_java, generate_rust};
use diaspec_core::{analysis::analyze, check::check, compile_str, lexer::lex, parser::parse};
use serde::Serialize;
use std::fmt::Write as _;

/// Synthesizes a well-formed design with `n` device/context/controller
/// triples, to measure compiler scaling beyond the bundled specs.
#[must_use]
pub fn synthetic_spec(n: usize) -> String {
    let mut out = String::new();
    for i in 0..n {
        let _ = writeln!(
            out,
            "device Dev{i} {{ attribute zone as String; source v{i} as Integer; action act{i}(level as Integer); }}"
        );
        let _ = writeln!(
            out,
            "context Ctx{i} as Integer[] {{ when periodic v{i} from Dev{i} <1 min> grouped by zone always publish; }}"
        );
        let _ = writeln!(
            out,
            "controller Ctl{i} {{ when provided Ctx{i} do act{i} on Dev{i}; }}"
        );
    }
    out
}

/// One design of the E13 table: median microseconds per phase.
#[derive(Debug, Clone, Serialize)]
pub struct CompilerRow {
    /// Design name.
    pub design: String,
    /// Source lines of the design.
    pub loc: usize,
    /// Declared components of the checked design.
    pub components: usize,
    /// `lexer::lex`.
    pub lex_us: f64,
    /// `parser::parse` (lexing included).
    pub parse_us: f64,
    /// `check::check` on the parsed AST.
    pub check_us: f64,
    /// `analysis::analyze` on the checked design.
    pub analyze_us: f64,
    /// `generate_rust` on the checked design.
    pub rust_us: f64,
    /// `generate_java` on the checked design.
    pub java_us: f64,
}

/// Times every phase of one design, `iters` calls per timed loop.
///
/// # Panics
///
/// Panics if the design does not compile.
#[must_use]
pub fn run(design: &str, source: &str, iters: u32) -> CompilerRow {
    let (ast, _) = parse(source);
    let spec = compile_str(source).expect("E13 design compiles");
    CompilerRow {
        design: design.to_owned(),
        loc: source.lines().count(),
        components: spec.component_count(),
        lex_us: median_ns(5, iters, || lex(source)) / 1e3,
        parse_us: median_ns(5, iters, || parse(source)) / 1e3,
        check_us: median_ns(5, iters, || check(&ast)) / 1e3,
        analyze_us: median_ns(5, iters, || analyze(&spec)) / 1e3,
        rust_us: median_ns(5, iters, || generate_rust(&spec)) / 1e3,
        java_us: median_ns(5, iters, || generate_java(&spec)) / 1e3,
    }
}

/// The E13 table: cooker, parking and a 50-triple synthetic design.
#[must_use]
pub fn table(iters: u32) -> Vec<CompilerRow> {
    [
        ("cooker", diaspec_apps::cooker::SPEC.to_owned()),
        ("parking", diaspec_apps::parking::SPEC.to_owned()),
        ("synthetic-50", synthetic_spec(50)),
    ]
    .iter()
    .map(|(design, source)| run(design, source, iters))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use diaspec_core::compile_str_with_warnings;

    #[test]
    fn synthetic_spec_compiles_clean_with_three_components_per_triple() {
        for n in [1, 7, 50] {
            let (spec, diags) =
                compile_str_with_warnings(&synthetic_spec(n)).expect("synthetic design compiles");
            assert!(diags.is_empty(), "n = {n}: {diags:?}");
            assert_eq!(spec.component_count(), 3 * n);
        }
    }

    #[test]
    fn quick_table_times_every_phase_of_every_design() {
        let rows = table(2);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            for (phase, us) in [
                ("lex", row.lex_us),
                ("parse", row.parse_us),
                ("check", row.check_us),
                ("analyze", row.analyze_us),
                ("rust", row.rust_us),
                ("java", row.java_us),
            ] {
                assert!(us > 0.0, "{} {phase}: {us} µs", row.design);
            }
        }
        assert_eq!(rows[2].components, 150);
    }
}
