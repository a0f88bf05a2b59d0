//! The traced run: replays the CLI's call sequence for one build in
//! process, timing each public call with a harness span, and reads the
//! counters and spans the program already emits.
//!
//! The order follows `build()` in `crates/smlsc/src/bin/smlsc.rs`:
//! collector, scan, manager, stamps load, pack load, build, pack save,
//! stamps save, ledger append, collector uninstall, and the drops that
//! run when `build()` returns.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::{Duration, Instant};

use serde::Value;
use smlsc::core::irm::{FailurePolicy, Irm, Project, Strategy};
use smlsc::core::{trace, Ledger, LedgerRecord};

/// What one replayed build measured.
#[derive(Debug, Default)]
pub struct Sample {
    /// Harness spans: the public call and its duration, in call order.
    pub calls: Vec<(&'static str, Duration)>,
    /// First call's start to last call's end.
    pub wall: Duration,
    /// Whether the program's collector was installed.
    pub traced: bool,
    /// Σ duration per program span name, ms.
    pub span_ms: BTreeMap<String, f64>,
    /// Σ self time (duration minus same-thread child spans) per
    /// program span name, ms.
    pub self_ms: BTreeMap<String, f64>,
    /// Program counters.
    pub counters: BTreeMap<String, u64>,
    /// `irm.decision` events emitted.
    pub decision_events: u64,
    /// Units the build recompiled.
    pub recompiled: BTreeSet<String>,
    /// Recompiled count reported by the build (the set may be unknown).
    pub recompiled_count: usize,
}

impl Sample {
    /// Duration of the harness span `name`, ms (0 when absent).
    pub fn call_ms(&self, name: &str) -> f64 {
        self.calls
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, d)| ms(*d))
            .fold(0.0, |a, b| a + b)
    }

    /// Σ of every harness span, ms.
    pub fn calls_ms(&self) -> f64 {
        self.calls
            .iter()
            .map(|(_, d)| ms(*d))
            .fold(0.0, |a, b| a + b)
    }

    /// Σ duration of program spans named `name`, ms.
    pub fn span(&self, name: &str) -> f64 {
        self.span_ms.get(name).copied().unwrap_or(0.0)
    }

    /// A program counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Milliseconds in a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times `f` as harness span `name`.
fn timed<R>(
    calls: &mut Vec<(&'static str, Duration)>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let t0 = Instant::now();
    let r = f();
    calls.push((name, t0.elapsed()));
    r
}

/// Replays one `smlsc build --no-daemon <tree>` in process.  With
/// `traced`, the program's collector is installed as the CLI installs
/// it; without, the same calls run with no sink, which prices tracing.
pub fn cli_build(tree: &Path, jobs: usize, traced: bool) -> Result<Sample, String> {
    let bin_dir = tree.join(".smlsc-bins");
    let stamps_path = bin_dir.join("stamps.json");
    let mut calls = Vec::with_capacity(16);
    let t0 = Instant::now();
    let collector = timed(&mut calls, "cli.collector", || {
        let c = trace::Collector::new();
        if traced {
            c.install();
        }
        c
    });
    let project = timed(&mut calls, "irm.scan", || Project::from_dir(tree))
        .map_err(|e| format!("scan: {e}"))?;
    let mut irm = timed(&mut calls, "irm.new", || Irm::new(Strategy::Cutoff));
    timed(&mut calls, "stamps.load", || irm.load_stamps(&stamps_path));
    timed(&mut calls, "pack.load", || {
        if bin_dir.is_dir() {
            irm.load_bins(&bin_dir).map(|_| ())
        } else {
            Ok(())
        }
    })
    .map_err(|e| format!("load_bins: {e}"))?;
    let report = timed(&mut calls, "irm.build", || {
        irm.build_with(&project, jobs, FailurePolicy::FailFast)
    })
    .map_err(|e| format!("build: {e}"))?;
    timed(&mut calls, "pack.save", || irm.save_bins(&bin_dir))
        .map_err(|e| format!("save_bins: {e}"))?;
    timed(&mut calls, "stamps.save", || irm.save_stamps(&stamps_path))
        .map_err(|e| format!("save_stamps: {e}"))?;
    let wall_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
    timed(&mut calls, "ledger.append", || {
        let record = LedgerRecord::from_build(&report, &collector, jobs, wall_us, 0);
        Ledger::for_bin_dir(&bin_dir).append(&record)
    })
    .map_err(|e| format!("ledger: {e}"))?;
    timed(&mut calls, "trace.uninstall", trace::uninstall);
    let recompiled: BTreeSet<String> = report
        .recompiled
        .iter()
        .map(|s| s.as_str().to_string())
        .collect();
    timed(&mut calls, "irm.teardown", move || {
        drop(report);
        drop(irm);
        drop(project);
    });
    let wall = t0.elapsed();
    let mut sample = Sample {
        calls,
        wall,
        traced,
        recompiled_count: recompiled.len(),
        recompiled,
        ..Sample::default()
    };
    if traced {
        read_collector(&collector, &mut sample);
    }
    Ok(sample)
}

/// Copies span totals, self times, counters and decision events out of
/// the program's collector.
fn read_collector(c: &trace::Collector, s: &mut Sample) {
    let mut spans = c.spans();
    for sp in &spans {
        *s.span_ms.entry(sp.name.to_string()).or_default() += sp.dur_us as f64 / 1e3;
    }
    // Self time: walk each thread's spans in start order with a stack of
    // open ancestors; a span's direct parent is the innermost open span.
    spans.sort_by_key(|sp| (sp.tid, sp.ts_us, sp.depth));
    let mut stack: Vec<(usize, u64)> = Vec::new(); // (index, end_us)
    let mut child_us = vec![0u64; spans.len()];
    let mut tid = None;
    for (i, sp) in spans.iter().enumerate() {
        if tid != Some(sp.tid) {
            stack.clear();
            tid = Some(sp.tid);
        }
        let end = sp.ts_us + sp.dur_us;
        while stack.last().is_some_and(|&(_, e)| e < end) {
            stack.pop();
        }
        if let Some(&(p, _)) = stack.last() {
            child_us[p] += sp.dur_us;
        }
        stack.push((i, end));
    }
    for (sp, child) in spans.iter().zip(child_us) {
        *s.self_ms.entry(sp.name.to_string()).or_default() +=
            sp.dur_us.saturating_sub(child) as f64 / 1e3;
    }
    s.counters = c.counters().into_iter().collect();
    s.decision_events = c
        .events()
        .iter()
        .filter(|e| e.name == "irm.decision")
        .count() as u64;
}

/// Replays one daemon-dispatched `smlsc build <tree>`: the client
/// request the CLI makes, timed as one harness span, with the daemon's
/// own telemetry for that build read from the response.
pub fn daemon_build(tree: &Path) -> Result<Sample, String> {
    let socket = smlsc::daemon::socket_path(&tree.join(".smlsc-bins"));
    let request = smlsc::daemon::Request::build(true);
    let mut calls = Vec::with_capacity(1);
    let t0 = Instant::now();
    let response = timed(&mut calls, "daemon.request", || {
        smlsc::daemon::client::request(&socket, &request)
    })
    .map_err(|e| format!("daemon request: {e}"))?;
    let wall = t0.elapsed();
    if !response.ok || response.exit_code != 0 {
        return Err(format!("daemon build failed: {}", response.error));
    }
    let recompiled_count = crate::work::recompiled_in_summary(&response.summary)
        .ok_or_else(|| format!("no summary in daemon response: {:?}", response.summary))?;
    let mut sample = Sample {
        calls,
        wall,
        traced: true,
        recompiled_count,
        ..Sample::default()
    };
    let stats = serde_json::parse_value(response.stats_json.as_bytes())
        .map_err(|e| format!("daemon stats: {e}"))?;
    for (name, v) in fields(field(&stats, "counters")) {
        sample
            .counters
            .insert(name.clone(), as_u64(Some(v)).unwrap_or(0));
    }
    for (name, h) in fields(field(&stats, "histograms")) {
        let total_us = as_u64(field(h, "total_us")).unwrap_or(0);
        sample.span_ms.insert(name.clone(), total_us as f64 / 1e3);
    }
    sample.decision_events = as_u64(field(&stats, "events")).unwrap_or(0);
    Ok(sample)
}

/// Field `key` of a JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// The fields of a JSON object (empty for anything else).
fn fields(v: Option<&Value>) -> &[(String, Value)] {
    match v {
        Some(Value::Map(m)) => m,
        _ => &[],
    }
}

/// A JSON whole number that fits in a `u64`.
pub fn as_u64(v: Option<&Value>) -> Option<u64> {
    match v {
        Some(Value::UInt(n)) => u64::try_from(*n).ok(),
        _ => None,
    }
}
