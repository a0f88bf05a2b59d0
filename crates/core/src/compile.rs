//! The compile pipeline: parse → dependency analysis → elaborate → hash →
//! dehydrate (§3's `compile`, with §5's hashing and §4's pickling).

use std::sync::Arc;
use std::time::{Duration, Instant};

use smlsc_ids::{Pid, Symbol};
use smlsc_pickle::{collect_external_pids, dehydrate, ContextPids, PickleOptions};
use smlsc_statics::elab::{elaborate_unit, ImportEnv, ImportedUnit};
use smlsc_statics::env::Bindings;
use smlsc_syntax::deps::{digest_tokens, free_module_names};
use smlsc_syntax::lexer::{lex, LexError, SpannedTok};
use smlsc_syntax::parse_unit;
use smlsc_syntax::parser::parse_tokens;
use smlsc_trace::{self as trace, names};

use crate::hash::hash_exports;
use crate::unit::{CompiledUnit, ImportEdge};
use crate::CoreError;

/// One resolved import available to a compilation.
#[derive(Debug, Clone)]
pub struct ImportSource {
    /// The imported unit's name.
    pub unit: Symbol,
    /// Its current export pid.
    pub pid: Pid,
    /// Its (rehydrated or freshly compiled) export environment.
    pub exports: Arc<Bindings>,
}

/// Wall-clock cost of each phase of one compilation — the measurements
/// behind experiment E1 (§6's "how much does the manager add to a
/// compile").
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileTimings {
    /// Lexing + parsing.
    pub parse: Duration,
    /// Elaboration (type checking + translation).
    pub elaborate: Duration,
    /// Intrinsic-pid hashing.
    pub hash: Duration,
    /// Dehydration of the export environment.
    pub dehydrate: Duration,
}

impl CompileTimings {
    /// Adds another compile's timings into this accumulator.
    pub fn accumulate(&mut self, other: &CompileTimings) {
        self.parse += other.parse;
        self.elaborate += other.elaborate;
        self.hash += other.hash;
        self.dehydrate += other.dehydrate;
    }

    /// Total time across phases.
    pub fn total(&self) -> Duration {
        self.parse + self.elaborate + self.hash + self.dehydrate
    }
}

/// The result of compiling one unit.
#[derive(Debug)]
pub struct CompileOutput {
    /// The compiled unit (ready to write to a bin file).
    pub unit: CompiledUnit,
    /// The export environment, live, for same-session dependents.
    pub exports: Arc<Bindings>,
    /// Phase timings.
    pub timings: CompileTimings,
    /// Elaboration warnings (inexhaustive/redundant matches).
    pub warnings: Vec<smlsc_statics::ElabWarning>,
}

/// Digest of a source text (used for cutoff's "did the source change").
pub fn source_pid(text: &str) -> Pid {
    Pid::of_bytes(text.as_bytes())
}

/// Compiles one unit against its resolved imports (in slot order).
///
/// # Errors
///
/// Parse, elaboration, hashing, or pickling failures, wrapped in
/// [`CoreError`].
pub fn compile_unit(
    name: Symbol,
    source: &str,
    imports: &[ImportSource],
) -> Result<CompileOutput, CoreError> {
    let t0 = Instant::now();
    let ast = {
        let _span = trace::span(names::SPAN_PARSE).field("unit", name.as_str());
        parse_unit(source).map_err(|e| CoreError::Parse {
            unit: name,
            error: e,
        })?
    };
    let parse = t0.elapsed();

    let t0 = Instant::now();
    let elab_span = trace::span(names::SPAN_ELABORATE).field("unit", name.as_str());
    let import_env = ImportEnv {
        units: imports
            .iter()
            .map(|i| ImportedUnit {
                name: i.unit,
                exports: i.exports.clone(),
            })
            .collect(),
        ..ImportEnv::default()
    };
    let elab = elaborate_unit(&ast, &import_env).map_err(|e| CoreError::Elab {
        unit: name,
        error: e,
    })?;
    drop(elab_span);
    let elaborate = t0.elapsed();

    let t0 = Instant::now();
    let hash = {
        let _span = trace::span(names::SPAN_HASH).field("unit", name.as_str());
        hash_exports(name, &elab.exports).map_err(|e| CoreError::Hash {
            unit: name,
            error: e,
        })?
    };
    let hash_time = t0.elapsed();

    let t0 = Instant::now();
    let dehydrate_span = trace::span(names::SPAN_DEHYDRATE).field("unit", name.as_str());
    let external = collect_external_pids(imports.iter().map(|i| i.exports.as_ref()));
    let pickle = dehydrate(
        &elab.exports,
        &ContextPids::indexed(external),
        &PickleOptions::default(),
    )
    .map_err(|e| CoreError::Pickle {
        unit: name,
        error: e,
    })?;
    drop(dehydrate_span);
    trace::counter(names::PICKLE_NODES, pickle.stats.nodes as u64);
    trace::counter(names::PICKLE_STUBS, pickle.stats.stubs as u64);
    trace::counter(names::PICKLE_BACKREFS, pickle.stats.backrefs as u64);
    let dehydrate_time = t0.elapsed();

    Ok(CompileOutput {
        unit: CompiledUnit {
            name,
            source_pid: source_pid(source),
            imports: imports
                .iter()
                .map(|i| ImportEdge {
                    unit: i.unit,
                    pid: i.pid,
                })
                .collect(),
            export_pid: hash.export_pid,
            env_pickle: pickle.bytes,
            code: elab.code,
        },
        exports: elab.exports,
        timings: CompileTimings {
            parse,
            elaborate,
            hash: hash_time,
            dehydrate: dehydrate_time,
        },
        warnings: elab.warnings,
    })
}

/// The result of the IRM's automatic dependency analysis (§8) on one
/// source file.
#[derive(Debug, Clone)]
pub struct SourceAnalysis {
    /// Free module names — the unit's imports, sorted.
    pub imports: Vec<Symbol>,
    /// Top-level names the unit binds — its exports, in source order.
    pub exports: Vec<Symbol>,
    /// The digest of the token stream ([`smlsc_syntax::deps::token_pid`]).
    pub token_pid: Pid,
}

/// Lexes, digests and parses a source and returns its imports, exports
/// and token pid.
///
/// # Errors
///
/// [`CoreError::Parse`] when the source does not parse.
pub fn analyze_source(name: Symbol, source: &str) -> Result<SourceAnalysis, CoreError> {
    analyze_tokens(name, lex(source))
}

/// [`analyze_source`] over a source its caller already lexed, so a
/// source is lexed once per analysis: the same token vector is digested,
/// then parsed.
///
/// # Errors
///
/// [`CoreError::Parse`] when the source does not lex or parse.
pub fn analyze_tokens(
    name: Symbol,
    lexed: Result<Vec<SpannedTok>, LexError>,
) -> Result<SourceAnalysis, CoreError> {
    let parse_error = |error| CoreError::Parse { unit: name, error };
    let toks = lexed.map_err(|e| parse_error(e.into()))?;
    let token_pid = digest_tokens(&toks);
    let ast = parse_tokens(toks).map_err(parse_error)?;
    Ok(SourceAnalysis {
        imports: free_module_names(&ast),
        exports: ast.bound_names(),
        token_pid,
    })
}
