//! `smlsc-perfbench`: times real `smlsc build` processes on seeded
//! workloads, checks every build against a compiler-independent oracle,
//! and, with `--trace 1`, splits builds by layer with an in-process
//! replay of the CLI's calls.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <noop-20k|edit-20k|cold-paper|daemon-edit-20k> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root: it builds the `smlsc` binary with
//! cargo (honouring `CARGO_TARGET_DIR`), generates the workload's tree
//! under `perfbench/work/`, and prints every metric by name and unit,
//! then one JSON line with `correct`, `attempted`, `failed` and
//! `metrics`.  See `perfbench/README.md` for the workloads and metrics.

mod replay;
mod sys;
mod work;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use replay::{as_u64, field, ms, Sample};
use work::{check_summary, EditClass, EditScript, Kind, Tree};

/// Share of a traced run spent on build processes (for
/// `cli.unattributed_ms`); the rest replays builds in process.
const TRACE_PROCESS_SHARE: f64 = 0.4;
/// Replayed builds alternate between collector on and off in runs of
/// this many, a whole edit block, so both sides see every edit class.
const TRACE_BLOCK: usize = 4;
/// The least share of a replayed build's wall time its harness spans
/// must cover.
const MIN_TRACE_COVERAGE: f64 = 0.95;
/// The idle window over which the daemon's own CPU use is sampled.
const DAEMON_IDLE_WINDOW: Duration = Duration::from_secs(1);
/// A daemon left behind by a crashed run shuts itself down after this
/// long without requests.
const DAEMON_IDLE_SECS: &str = "120";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Paths and host facts shared by every step of a run.
struct Env {
    smlsc: PathBuf,
    /// The generated project; the CLI's bin dir is `tree/.smlsc-bins`.
    tree: PathBuf,
    /// `--jobs` as the CLI resolves it when the flag is absent.
    jobs: usize,
}

impl Env {
    fn bin_dir(&self) -> PathBuf {
        self.tree.join(".smlsc-bins")
    }

    fn smlsc(&self, args: &[&str]) -> Command {
        let mut cmd = Command::new(&self.smlsc);
        cmd.args(args).arg(&self.tree).stdin(Stdio::null());
        cmd
    }
}

/// Builds the `smlsc` binary from the checkout and returns its path.
fn build_smlsc() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "-p",
            "smlsc",
            "--bin",
            "smlsc",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building smlsc failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let exe = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(target)
        .join("release")
        .join("smlsc");
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!("no smlsc binary at {}", exe.display()))
    }
}

/// A daemon started by `smlsc daemon start`; stopped (and reaped) on
/// drop if the run did not stop it.
struct Daemon<'a> {
    env: &'a Env,
    pid: u32,
    stopped: bool,
}

impl<'a> Daemon<'a> {
    fn start(env: &'a Env) -> Result<Daemon<'a>, String> {
        let mut cmd = env.smlsc(&["daemon", "start"]);
        cmd.env("SMLSC_DAEMON_IDLE_SECS", DAEMON_IDLE_SECS);
        let (exit, _, out) = sys::run_timed(&mut cmd).map_err(|e| e.to_string())?;
        if exit.code != Some(0) {
            return Err(format!("daemon start failed: {out}"));
        }
        let (pid, _) = daemon_status(env)?;
        Ok(Daemon {
            env,
            pid,
            stopped: false,
        })
    }

    fn stop(&mut self) -> Result<(), String> {
        self.stopped = true;
        let (exit, _, out) =
            sys::run_timed(&mut self.env.smlsc(&["daemon", "stop"])).map_err(|e| e.to_string())?;
        let reaped = sys::reap_descendant(self.pid, Duration::from_secs(10));
        if exit.code != Some(0) {
            return Err(format!("daemon stop failed: {out}"));
        }
        reaped.map_err(|e| format!("daemon {} did not exit: {e}", self.pid))
    }
}

impl Drop for Daemon<'_> {
    fn drop(&mut self) {
        if !self.stopped {
            let _ = self.stop();
        }
    }
}

/// The daemon's pid and served-build count, from `daemon status`.
fn daemon_status(env: &Env) -> Result<(u32, u64), String> {
    let socket = smlsc::daemon::socket_path(&env.bin_dir());
    let resp = smlsc::daemon::client::request(&socket, &smlsc::daemon::Request::simple("status"))
        .map_err(|e| format!("daemon status: {e}"))?;
    let status = serde_json::parse_value(resp.status_json.as_bytes())
        .map_err(|e| format!("daemon status: {e}"))?;
    let pid = as_u64(field(&status, "pid")).and_then(|p| u32::try_from(p).ok());
    match (pid, as_u64(field(&status, "builds"))) {
        (Some(pid), Some(builds)) => Ok((pid, builds)),
        _ => Err(format!("malformed daemon status: {}", resp.status_json)),
    }
}

/// Deletes the bin dir, first stopping any daemon a crashed run left on
/// it.  The sources stay: the next set-up overwrites them in place.
fn reset_bins(env: &Env) -> Result<(), String> {
    let socket = smlsc::daemon::socket_path(&env.bin_dir());
    if socket.exists() {
        if let Ok((pid, _)) = daemon_status(env) {
            let _ =
                smlsc::daemon::client::request(&socket, &smlsc::daemon::Request::simple("stop"));
            let _ = sys::reap_descendant(pid, Duration::from_secs(10));
        }
    }
    match std::fs::remove_dir_all(env.bin_dir()) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("cannot delete {}: {e}", env.bin_dir().display()))
        }
        _ => Ok(()),
    }
}

/// One set-up: generate and write the tree, run the seeding build, and
/// for the daemon workload start the daemon.  Returns its wall time.
fn setup<'a>(env: &'a Env, args: &Args) -> Result<(Tree, Option<Daemon<'a>>, Duration), String> {
    reset_bins(env)?;
    let t0 = Instant::now();
    let tree = Tree::generate(args.kind, args.seed);
    let generated = t0.elapsed();
    tree.write_all(&env.tree)
        .map_err(|e| format!("writing the tree: {e}"))?;
    let written = t0.elapsed();
    let (exit, seeding, out) =
        sys::run_timed(&mut env.smlsc(&["build", "--no-daemon"])).map_err(|e| e.to_string())?;
    println!(
        "set-up: tree generated in {:.3} s, written in {:.3} s, seeding build {:.3} s",
        generated.as_secs_f64(),
        (written - generated).as_secs_f64(),
        seeding.as_secs_f64()
    );
    if exit.code != Some(0) {
        return Err(format!("seeding build failed ({:?}): {out}", exit.code));
    }
    check_summary(&out, &tree.all_units()).map_err(|e| format!("seeding build: {e}"))?;
    let daemon = match args.kind {
        Kind::DaemonEdit => Some(Daemon::start(env)?),
        _ => None,
    };
    Ok((tree, daemon, t0.elapsed()))
}

/// The workload's state between ops.
struct State<'a> {
    kind: Kind,
    tree: Tree,
    script: EditScript,
    daemon: Option<Daemon<'a>>,
    all_units: BTreeSet<String>,
}

impl State<'_> {
    /// Applies the op's change to the tree and returns the edit class
    /// (if any) and the oracle's recompiled set.
    fn prepare(&mut self, env: &Env) -> Result<(Option<EditClass>, BTreeSet<String>), String> {
        match self.kind {
            Kind::Noop => Ok((None, BTreeSet::new())),
            Kind::ColdPaper => {
                std::fs::remove_dir_all(env.bin_dir())
                    .map_err(|e| format!("deleting the bin dir: {e}"))?;
                Ok((None, self.all_units.clone()))
            }
            Kind::Edit | Kind::DaemonEdit => {
                let edit = self.script.next_edit();
                self.tree
                    .apply(edit, &env.tree)
                    .map_err(|e| format!("applying {edit:?}: {e}"))?;
                Ok((Some(edit.class), self.tree.expected(edit)))
            }
        }
    }
}

/// One timed `smlsc build` process.
struct ProcOp {
    class: Option<EditClass>,
    wall: Duration,
    cpu: Duration,
    max_rss: u64,
    /// For a daemon op, the build's wall time as the daemon recorded it.
    served_ms: Option<f64>,
    failure: Option<String>,
}

/// The wall time the daemon recorded for the newest ledger record, ms,
/// or `None` when that record was not a daemon-served build.
fn daemon_served_ms(env: &Env) -> Option<f64> {
    let ledger = std::fs::read_to_string(env.bin_dir().join("builds.jsonl")).ok()?;
    let last = ledger.lines().rev().find(|l| !l.trim().is_empty())?;
    let record = serde_json::parse_value(last.as_bytes()).ok()?;
    let wall_us = as_u64(field(&record, "wall_us"))?;
    (as_u64(field(&record, "daemon")) == Some(1)).then_some(wall_us as f64 / 1e3)
}

fn process_op(env: &Env, st: &mut State) -> Result<ProcOp, String> {
    let (class, expected) = st.prepare(env)?;
    let daemon_pid = st.daemon.as_ref().map(|d| d.pid);
    let daemon = daemon_pid.is_some();
    let mut cmd = if daemon {
        env.smlsc(&["build"])
    } else {
        env.smlsc(&["build", "--no-daemon"])
    };
    let daemon_cpu = |pid| sys::proc_cpu(pid).map_err(|e| format!("daemon cpu: {e}"));
    let before = daemon_pid.map(daemon_cpu).transpose()?;
    let (exit, wall, out) = sys::run_timed(&mut cmd).map_err(|e| format!("spawning smlsc: {e}"))?;
    // A daemon-served build does its work in the daemon: charge the
    // daemon's CPU over the op to the op as well.
    let mut cpu = exit.cpu;
    if let (Some(pid), Some(before)) = (daemon_pid, before) {
        cpu += daemon_cpu(pid)?.saturating_sub(before);
    }
    let served_ms = daemon.then(|| daemon_served_ms(env)).flatten();
    let failure = if exit.code != Some(0) {
        Some(format!("exit {:?}: {out}", exit.code))
    } else if let Err(e) = check_summary(&out, &expected) {
        Some(e)
    } else if daemon && served_ms.is_none() {
        Some("build was not served by the daemon".to_string())
    } else {
        None
    };
    Ok(ProcOp {
        class,
        wall,
        cpu,
        max_rss: exit.max_rss,
        served_ms,
        failure,
    })
}

/// One replayed build plus the oracle's verdict on it.
struct ReplayOp {
    class: Option<EditClass>,
    sample: Sample,
    failure: Option<String>,
}

fn replay_op(env: &Env, st: &mut State, traced: bool) -> Result<ReplayOp, String> {
    let (class, expected) = st.prepare(env)?;
    let (sample, failure) = if st.daemon.is_some() {
        match replay::daemon_build(&env.tree) {
            Ok(s) if s.recompiled_count != expected.len() => {
                let why = format!(
                    "daemon recompiled {} unit(s), oracle expects {}",
                    s.recompiled_count,
                    expected.len()
                );
                (s, Some(why))
            }
            Ok(s) => (s, None),
            Err(e) => (Sample::default(), Some(e)),
        }
    } else {
        match replay::cli_build(&env.tree, env.jobs, traced) {
            Ok(s) => {
                let why = if s.recompiled != expected {
                    Some(format!(
                        "replay recompiled {} unit(s), oracle expects {} (differ on {:?})",
                        s.recompiled.len(),
                        expected.len(),
                        s.recompiled
                            .symmetric_difference(&expected)
                            .take(5)
                            .collect::<Vec<_>>()
                    ))
                } else if st.kind == Kind::Noop && traced {
                    noop_gate(&s)
                } else {
                    None
                };
                (s, why)
            }
            Err(e) => (Sample::default(), Some(e)),
        }
    };
    Ok(ReplayOp {
        class,
        sample,
        failure,
    })
}

/// The exact-work gates of a warm no-op build.
fn noop_gate(s: &Sample) -> Option<String> {
    let want = [
        ("source.reads", 0),
        ("sched.dirty_cone", 0),
        ("deps.pack_hits", 1),
    ];
    let bad: Vec<String> = want
        .iter()
        .filter(|(name, v)| s.counter(name) != *v)
        .map(|(name, v)| format!("{name} = {} (want {v})", s.counter(name)))
        .collect();
    (!bad.is_empty()).then(|| format!("no-op gate: {}", bad.join(", ")))
}

/// Total bytes of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples above it, and that
/// percentile; with fewer than eleven samples, the minimum (p0).
fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 11 {
        return (v.first().copied().unwrap_or(0.0), 0.0);
    }
    let rank = n - 11;
    (v[rank], 100.0 * (rank + 1) as f64 / n as f64)
}

/// Metrics in output order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    sys::become_subreaper().map_err(|e| format!("prctl: {e}"))?;
    let env = Env {
        smlsc: build_smlsc()?,
        tree: Path::new("perfbench/work")
            .join(args.kind.name())
            .join("src"),
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let reps = if args.trace {
        1
    } else {
        args.kind.setup_reps()
    };
    let mut setups = Vec::with_capacity(reps);
    let mut last: Option<(Tree, Option<Daemon>)> = None;
    for _ in 0..reps {
        // Stop the previous set-up's daemon before resetting its tree.
        if let Some((_, Some(mut d))) = last.take() {
            d.stop()?;
        }
        let (tree, daemon, took) = setup(&env, args)?;
        setups.push(took.as_secs_f64());
        last = Some((tree, daemon));
    }
    let (tree, daemon) = last.expect("at least one set-up");
    let mut st = State {
        kind: args.kind,
        all_units: tree.all_units(),
        script: EditScript::new(tree.workload.module_count(), args.seed),
        tree,
        daemon,
    };
    println!(
        "workload {} seed {}: {} units, {} lines; jobs {} (the CLI default, nproc)",
        args.kind.name(),
        args.seed,
        st.tree.workload.module_count(),
        st.tree.workload.total_lines(),
        env.jobs
    );

    let window = Duration::from_secs(args.seconds);
    let process_window = if args.trace {
        window.mul_f64(TRACE_PROCESS_SHARE)
    } else {
        window
    };
    let start = Instant::now();
    let mut procs = Vec::new();
    // Edit workloads run whole blocks, so every run builds each edit
    // class equally often.
    while procs.is_empty() || start.elapsed() < process_window || !st.script.at_block_end() {
        procs.push(process_op(&env, &mut st)?);
    }
    let mut replays = Vec::new();
    if args.trace {
        while replays.is_empty() || start.elapsed() < window || !st.script.at_block_end() {
            let traced = (replays.len() / TRACE_BLOCK).is_multiple_of(2);
            replays.push(replay_op(&env, &mut st, traced)?);
        }
    }
    let measured = start.elapsed();

    let mut failures: Vec<String> = procs
        .iter()
        .filter_map(|p| p.failure.clone())
        .chain(replays.iter().filter_map(|r| r.failure.clone()))
        .collect();
    let failed = failures.len();
    // The replay must time (nearly) all of its own wall clock, or its
    // layer split would leave work unattributed.
    let coverage: Vec<f64> = replays
        .iter()
        .filter(|r| r.sample.traced && r.failure.is_none())
        .map(|r| r.sample.calls_ms() / ms(r.sample.wall))
        .collect();
    if args.trace && median(&coverage) < MIN_TRACE_COVERAGE {
        failures.push(format!(
            "trace.coverage {:.4} is below {MIN_TRACE_COVERAGE}",
            median(&coverage)
        ));
    }
    let attempted = procs.len() + replays.len();
    let state_bytes = dir_bytes(&env.bin_dir());

    let mut daemon_facts = None;
    if let Some(mut d) = st.daemon.take() {
        let (_, builds) = daemon_status(&env)?;
        let served = procs.len() + replays.len();
        if builds != served as u64 {
            failures.push(format!(
                "daemon served {builds} build(s), the run made {served}"
            ));
        }
        if args.trace {
            let before = sys::proc_cpu(d.pid).map_err(|e| e.to_string())?;
            std::thread::sleep(DAEMON_IDLE_WINDOW);
            let after = sys::proc_cpu(d.pid).map_err(|e| e.to_string())?;
            daemon_facts = Some(DaemonFacts {
                idle_cpu_ms_per_s: ms(after.saturating_sub(before))
                    / DAEMON_IDLE_WINDOW.as_secs_f64(),
                peak_rss: sys::proc_peak_rss(d.pid).map_err(|e| e.to_string())?,
            });
        }
        d.stop()?;
    }
    reset_bins(&env)?;

    for f in failures.iter().take(10) {
        eprintln!("perfbench: failed op: {f}");
    }
    let walls: Vec<f64> = procs.iter().map(|p| ms(p.wall)).collect();
    let (tail_ms, tail_pct) = tail(&walls);
    println!(
        "{} build process(es) in {:.1} s; build_ms.tail is p{tail_pct:.1} of {}",
        procs.len(),
        measured.as_secs_f64(),
        walls.len()
    );
    print_classes(&procs);

    let mut m = Metrics::default();
    if args.trace {
        per_layer(
            &mut m,
            env.jobs,
            daemon_facts,
            &procs,
            &replays,
            failed,
            attempted,
        );
    } else {
        m.push("build_ms.p50", median(&walls), "ms");
        m.push("build_ms.tail", tail_ms, "ms");
        let cpus: Vec<f64> = procs.iter().map(|p| ms(p.cpu)).collect();
        m.push("cpu_ms.p50", median(&cpus), "ms");
        let rss = procs.iter().map(|p| p.max_rss).max().unwrap_or(0);
        m.push("peak_rss_mb", rss as f64 / 1e6, "MB");
        m.push("state_mb", state_bytes as f64 / 1e6, "MB");
        m.push("setup_s", median(&setups), "s");
    }
    for (name, value, unit) in &m.0 {
        println!("metric {name} = {value} {unit}");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failures.is_empty(),
        m.json()
    ))
}

/// Prints per-edit-class medians of the build processes.
fn print_classes(procs: &[ProcOp]) {
    for class in EditClass::ALL {
        let walls: Vec<f64> = procs
            .iter()
            .filter(|p| p.class == Some(class))
            .map(|p| ms(p.wall))
            .collect();
        if !walls.is_empty() {
            println!(
                "  {:<20} {:>3} build(s), median {:.1} ms",
                class.name(),
                walls.len(),
                median(&walls)
            );
        }
    }
}

/// What a traced run measures of the daemon itself, after its builds.
#[derive(Clone, Copy)]
struct DaemonFacts {
    idle_cpu_ms_per_s: f64,
    /// `VmHWM`: the daemon's peak RSS over its whole life, bytes.
    peak_rss: u64,
}

/// The per-layer metrics of a traced run, each the median over the
/// replayed builds that ran with the collector installed.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    m: &mut Metrics,
    jobs: usize,
    daemon_facts: Option<DaemonFacts>,
    procs: &[ProcOp],
    replays: &[ReplayOp],
    failed: usize,
    attempted: usize,
) {
    let daemon = daemon_facts.is_some();
    let traced: Vec<&Sample> = replays
        .iter()
        .filter(|r| r.sample.traced)
        .map(|r| &r.sample)
        .collect();
    let med = |f: &dyn Fn(&Sample) -> f64| -> f64 {
        median(&traced.iter().map(|s| f(s)).collect::<Vec<_>>())
    };
    // A harness span where the replay made the call; the program's own
    // span of the same layer where it did not (daemon-served builds).
    let call_or_span = |call: &'static str, span: &'static str| {
        move |s: &Sample| {
            if s.calls.iter().any(|(n, _)| *n == call) {
                s.call_ms(call)
            } else {
                s.span(span)
            }
        }
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let jobs = jobs as f64;

    m.push(
        "irm.scan_ms",
        med(&call_or_span("irm.scan", "irm.scan")),
        "ms",
    );
    m.push(
        "stamps.load_ms",
        med(&call_or_span("stamps.load", "irm.load_stamps")),
        "ms",
    );
    m.push("stamps.save_ms", med(&|s| s.call_ms("stamps.save")), "ms");
    m.push(
        "pack.load_ms",
        med(&call_or_span("pack.load", "irm.load_bins")),
        "ms",
    );
    m.push(
        "pack.save_ms",
        med(&call_or_span("pack.save", "irm.save_bins")),
        "ms",
    );
    m.push(
        "irm.bin_bytes_written",
        med(&|s| s.counter("irm.bin_bytes_written") as f64),
        "B",
    );
    m.push(
        "pack.bytes_written_per_compiled_unit",
        med(&|s| {
            ratio(
                s.counter("irm.bin_bytes_written") as f64,
                s.counter("irm.units_compiled") as f64,
            )
        }),
        "B/unit",
    );
    m.push(
        "irm.build_ms",
        med(&call_or_span("irm.build", "irm.build")),
        "ms",
    );
    m.push(
        "irm.analyze_all_ms",
        med(&|s| s.span("irm.analyze_all")),
        "ms",
    );
    m.push("irm.dirty_ms", med(&|s| s.span("irm.dirty")), "ms");
    m.push("depgraph.graph_ms", med(&|s| s.span("irm.graph")), "ms");
    m.push(
        "deps.pack_hits",
        med(&|s| s.counter("deps.pack_hits") as f64),
        "count",
    );
    m.push(
        "deps.pack_misses",
        med(&|s| s.counter("deps.pack_misses") as f64),
        "count",
    );
    m.push("sched.task_ms", med(&|s| s.span("irm.task")), "ms");
    m.push(
        "sched.busy_ratio",
        med(&|s| {
            ratio(
                s.span("irm.task"),
                jobs * call_or_span("irm.build", "irm.build")(s),
            )
        }),
        "ratio",
    );
    m.push(
        "sched.dirty_seed",
        med(&|s| s.counter("sched.dirty_seed") as f64),
        "count",
    );
    m.push(
        "sched.dirty_cone",
        med(&|s| s.counter("sched.dirty_cone") as f64),
        "count",
    );
    m.push(
        "sched.compiled_per_cone",
        med(&|s| {
            ratio(
                s.counter("irm.units_compiled") as f64,
                s.counter("sched.dirty_cone") as f64,
            )
        }),
        "ratio",
    );
    m.push("syntax.analyze_ms", med(&|s| s.span("irm.analyze")), "ms");
    m.push("syntax.parse_ms", med(&|s| s.span("compile.parse")), "ms");
    m.push(
        "statics.elaborate_ms",
        med(&|s| s.span("compile.elaborate")),
        "ms",
    );
    m.push("hash.intrinsic_ms", med(&|s| s.span("compile.hash")), "ms");
    m.push(
        "hash.share",
        med(&|s| ratio(s.span("compile.hash"), s.span("irm.task"))),
        "ratio",
    );
    m.push(
        "pickle.dehydrate_ms",
        med(&|s| s.span("compile.dehydrate")),
        "ms",
    );
    m.push(
        "pickle.rehydrate_ms",
        med(&|s| s.span("irm.rehydrate")),
        "ms",
    );
    for counter in [
        "pickle.bytes",
        "pickle.rehydrate_nodes",
        "rehydrate.allocs",
        "irm.env_cache_hits",
        "irm.env_cache_misses",
        "source.reads",
        "stamp.hits",
        "stamp.misses",
        "irm.bin_bytes_read",
        "bin.lazy_bodies",
        "irm.units_compiled",
        "irm.cutoff_hits",
    ] {
        let unit = if counter.contains("bytes") {
            "B"
        } else {
            "count"
        };
        m.push(counter, med(&|s| s.counter(counter) as f64), unit);
    }
    m.push(
        "irm.decision_events",
        med(&|s| s.decision_events as f64),
        "count",
    );
    m.push(
        "ledger.append_ms",
        med(&|s| s.call_ms("ledger.append")),
        "ms",
    );
    m.push("irm.teardown_ms", med(&|s| s.call_ms("irm.teardown")), "ms");

    // Process and replay builds ran different edits: compare them class
    // by class, and report the median over classes.
    let unattributed: Vec<f64> = std::iter::once(None)
        .chain(EditClass::ALL.map(Some))
        .filter_map(|class| {
            let walls: Vec<f64> = procs
                .iter()
                .filter(|p| p.class == class)
                .map(|p| ms(p.wall))
                .collect();
            let calls: Vec<f64> = replays
                .iter()
                .filter(|r| r.class == class && r.sample.traced)
                .map(|r| r.sample.calls_ms())
                .collect();
            if walls.is_empty() || calls.is_empty() {
                return None;
            }
            println!(
                "  {:<20} process median {:>9.3} ms, replay Σ calls median {:>9.3} ms",
                class.map_or("(all)", EditClass::name),
                median(&walls),
                median(&calls)
            );
            Some(median(&walls) - median(&calls))
        })
        .collect();
    m.push(
        "cli.unattributed_ms",
        if daemon { 0.0 } else { median(&unattributed) },
        "ms",
    );
    let request_p50 = if daemon {
        med(&|s| s.call_ms("daemon.request"))
    } else {
        0.0
    };
    m.push("daemon.request_ms", request_p50, "ms");
    m.push(
        "daemon.client_overhead_ms",
        median(
            &procs
                .iter()
                .filter_map(|p| Some(ms(p.wall) - p.served_ms?))
                .collect::<Vec<_>>(),
        ),
        "ms",
    );
    m.push(
        "daemon.idle_cpu_ms_per_s",
        daemon_facts.map_or(0.0, |d| d.idle_cpu_ms_per_s),
        "ms/s",
    );
    m.push(
        "daemon.peak_rss_mb",
        daemon_facts.map_or(0.0, |d| d.peak_rss as f64 / 1e6),
        "MB",
    );
    let untraced: Vec<f64> = replays
        .iter()
        .filter(|r| !r.sample.traced)
        .map(|r| ms(r.sample.wall))
        .collect();
    let overhead = if untraced.is_empty() {
        0.0
    } else {
        med(&|s| ms(s.wall)) - median(&untraced)
    };
    m.push("trace.overhead_ms", overhead, "ms");
    m.push(
        "trace.coverage",
        med(&|s| ratio(s.calls_ms(), ms(s.wall))),
        "ratio",
    );
    m.push(
        "op_failure_rate",
        ratio(failed as f64, attempted as f64),
        "ratio",
    );

    print_layers(&traced);
    // Each ratio's base: medians of its numerator and denominator.
    let build = call_or_span("irm.build", "irm.build");
    let bases: [(&str, &str, f64, &str, f64); 5] = [
        (
            "pack.bytes_written_per_compiled_unit",
            "irm.bin_bytes_written B",
            med(&|s| s.counter("irm.bin_bytes_written") as f64),
            "irm.units_compiled",
            med(&|s| s.counter("irm.units_compiled") as f64),
        ),
        (
            "sched.busy_ratio",
            "Σ irm.task ms",
            med(&|s| s.span("irm.task")),
            "jobs × irm.build ms",
            med(&|s| jobs * build(s)),
        ),
        (
            "sched.compiled_per_cone",
            "irm.units_compiled",
            med(&|s| s.counter("irm.units_compiled") as f64),
            "sched.dirty_cone",
            med(&|s| s.counter("sched.dirty_cone") as f64),
        ),
        (
            "hash.share",
            "Σ compile.hash ms",
            med(&|s| s.span("compile.hash")),
            "Σ irm.task ms",
            med(&|s| s.span("irm.task")),
        ),
        (
            "trace.coverage",
            "Σ harness spans ms",
            med(&|s| s.calls_ms()),
            "replay wall ms",
            med(&|s| ms(s.wall)),
        ),
    ];
    println!("  ratio bases (medians per traced build):");
    for (name, num, n, den, d) in bases {
        println!("    {name:<38} {num} {n:.3} / {den} {d:.3}");
    }
    println!(
        "    {:<38} failed ops {failed} / attempted ops {attempted}",
        "op_failure_rate"
    );
}

/// Prints the replay's layer table: harness spans, then the program's
/// spans with total and self time, each the median per replayed build.
fn print_layers(traced: &[&Sample]) {
    let med = |f: &dyn Fn(&Sample) -> f64| -> f64 {
        median(&traced.iter().map(|s| f(s)).collect::<Vec<_>>())
    };
    println!(
        "per-layer (median per replayed build over {} traced build(s)):",
        traced.len()
    );
    let wall = med(&|s| ms(s.wall));
    println!("  harness spans (share of replay wall {wall:.2} ms):");
    let mut call_names: Vec<&str> = Vec::new();
    for s in traced {
        for (n, _) in &s.calls {
            if !call_names.contains(n) {
                call_names.push(n);
            }
        }
    }
    for name in call_names {
        let v = med(&|s| s.call_ms(name));
        println!(
            "    {name:<24} {v:>10.3} ms  {:>6.1} %",
            100.0 * v / wall.max(1e-9)
        );
    }
    let mut span_names: BTreeSet<&str> = BTreeSet::new();
    for s in traced {
        span_names.extend(s.span_ms.keys().map(String::as_str));
    }
    println!("  program spans (Σ per build; self = minus same-thread children):");
    for name in span_names {
        let total = med(&|s| s.span(name));
        if traced.iter().any(|s| s.self_ms.contains_key(name)) {
            let own = med(&|s| s.self_ms.get(name).copied().unwrap_or(0.0));
            println!("    {name:<24} {total:>10.3} ms  self {own:>10.3} ms");
        } else {
            println!("    {name:<24} {total:>10.3} ms");
        }
    }
}
