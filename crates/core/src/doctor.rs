//! `smlsc doctor`: audit and repair every kind of durable build state.
//!
//! A build that is killed at an arbitrary instant — power loss, OOM
//! kill, `kill -9` — may leave half-finished state behind: staging-file
//! litter from interrupted atomic commits, a torn tail on the
//! append-only ledger, a truncated pack, partially published store
//! objects, or a daemon lockfile whose owner is dead.  Every reader in
//! smlsc already *tolerates* such debris (loads degrade to empty,
//! torn tails are healed on the next append, bad pack bodies force a
//! recompile), but tolerance is silent.  The doctor makes the debris
//! visible and, with `--fix`, removes it:
//!
//! | state                 | audit                                  | repair                         |
//! |-----------------------|----------------------------------------|--------------------------------|
//! | `stamps.json`         | magic + digest + decode                | delete (stamps are hints)      |
//! | `stamps-<digest>.delta` | as `stamps.json`, when bound to it   | delete (stamps are hints)      |
//! | stale stamps delta    | bound to no current `stamps.json`      | delete                         |
//! | `bins.pack`           | index decode, per-body digest          | rewrite keeping valid bodies   |
//! | `bins-<digest>.delta` | as `bins.pack`, when bound to it       | fold into one compacted base   |
//! | stale delta           | bound to no current base               | delete                         |
//! | `deps.pack`           | magic + digest + structural decode     | delete (re-derived next build) |
//! | `builds.jsonl`        | [`Ledger::audit`]                      | [`Ledger::compact_valid`]      |
//! | CAS store             | [`Store::verify`] + `tmp/` litter scan | quarantine + sweep litter      |
//! | daemon sock + lock    | lockfile pid liveness                  | remove stale sock + lock       |
//! | bin-dir tmp litter    | [`fsutil::is_tmp_litter`] names        | delete                         |
//!
//! The store audit *is* [`Store::verify`] — the same implementation
//! behind `smlsc cache verify` — so the two commands can never
//! disagree about what "corrupt" means.  Note that `verify` always
//! quarantines what it finds (quarantining is non-destructive; `gc`
//! purges the quarantine later), so store findings are reported as
//! repaired even without `--fix`.
//!
//! The report is machine-readable JSON; [`DoctorReport::exit_code`]
//! maps the verdict onto the CLI's exit-code contract: `0` healthy or
//! fully repaired, `4` issues found without `--fix`, `3` a repair
//! failed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use serde::Serialize;

use crate::ledger::Ledger;
use crate::pack::{self, PackEntry, PackReader, PackWriter, PACK_FILE};
use crate::stamps::StampCache;
use crate::{fsutil, CoreError};
use smlsc_store::Store;

/// Mirror of the daemon crate's socket filename (`smlsc-daemon`
/// depends on this crate, so the constant cannot be imported).
const DAEMON_SOCKET_FILE: &str = "daemon.sock";
/// Mirror of the daemon crate's lockfile name.
const DAEMON_LOCK_FILE: &str = "daemon.lock";

/// What `smlsc doctor` should look at and whether it may write.
#[derive(Debug, Clone)]
pub struct DoctorOptions {
    /// The project's bin directory (stamps, pack, ledger, daemon files).
    pub bin_dir: PathBuf,
    /// The CAS store root, when the project uses one.
    pub store: Option<PathBuf>,
    /// Repair what the audit finds instead of only reporting it.
    pub fix: bool,
}

/// One problem the audit found, and what happened to it.
#[derive(Debug, Clone, Serialize)]
pub struct DoctorFinding {
    /// Which state kind: `stamps`, `pack`, `ledger`, `store`,
    /// `daemon`, or `litter`.
    pub state: String,
    /// The file or object involved.
    pub path: String,
    /// What is wrong.
    pub issue: String,
    /// The repair taken (or the one `--fix` would take).
    pub action: String,
    /// Whether the repair ran and succeeded.
    pub repaired: bool,
    /// Set when a repair was attempted and failed.
    pub error: Option<String>,
}

/// The overall outcome of a doctor run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DoctorVerdict {
    /// Every state kind is sound.
    Healthy,
    /// Problems were found and every one was repaired.
    Repaired,
    /// Problems were found and left in place (no `--fix`).
    IssuesFound,
    /// At least one repair was attempted and failed.
    RepairFailed,
}

impl DoctorVerdict {
    /// The verdict's wire name, as emitted in the JSON report.
    pub fn as_str(self) -> &'static str {
        match self {
            DoctorVerdict::Healthy => "healthy",
            DoctorVerdict::Repaired => "repaired",
            DoctorVerdict::IssuesFound => "issues-found",
            DoctorVerdict::RepairFailed => "repair-failed",
        }
    }
}

/// The machine-readable result of a doctor run.
#[derive(Debug, Clone, Serialize)]
pub struct DoctorReport {
    /// Whether repairs were enabled.
    pub fix: bool,
    /// The bin directory audited.
    pub bin_dir: String,
    /// The store root audited, if any.
    pub store: Option<String>,
    /// State kinds that were audited.
    pub checked: Vec<String>,
    /// Everything the audit found.
    pub findings: Vec<DoctorFinding>,
    /// The verdict's wire name (see [`DoctorVerdict::as_str`]).
    pub verdict: String,
    /// The CLI exit code for this verdict.
    pub exit_code: i32,
}

impl DoctorReport {
    /// The typed verdict (the JSON carries its wire name).
    pub fn verdict(&self) -> DoctorVerdict {
        match self.verdict.as_str() {
            "healthy" => DoctorVerdict::Healthy,
            "repaired" => DoctorVerdict::Repaired,
            "issues-found" => DoctorVerdict::IssuesFound,
            _ => DoctorVerdict::RepairFailed,
        }
    }

    /// Exit code: `0` healthy/repaired, `4` issues without `--fix`,
    /// `3` repair failed.
    pub fn exit_code(&self) -> i32 {
        self.exit_code
    }

    /// The report as a single line of JSON (the vendored serde_json
    /// serializes compactly), for `smlsc doctor` output and scripts.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|_| "{}".into())
    }
}

/// Runs the full audit (and repairs, when `opts.fix`) over every state
/// kind in `opts.bin_dir` and `opts.store`.
pub fn run(opts: &DoctorOptions) -> DoctorReport {
    let mut findings = Vec::new();
    let mut checked = Vec::new();

    checked.push("stamps".to_string());
    audit_stamps(&opts.bin_dir, opts.fix, &mut findings);
    checked.push("pack".to_string());
    audit_pack(&opts.bin_dir, opts.fix, &mut findings);
    checked.push("deps".to_string());
    audit_deps(&opts.bin_dir, opts.fix, &mut findings);
    checked.push("ledger".to_string());
    audit_ledger(&opts.bin_dir, opts.fix, &mut findings);
    if let Some(root) = &opts.store {
        checked.push("store".to_string());
        audit_store(root, opts.fix, &mut findings);
    }
    checked.push("daemon".to_string());
    audit_daemon(&opts.bin_dir, opts.fix, &mut findings);
    checked.push("litter".to_string());
    audit_litter(&opts.bin_dir, opts.fix, &mut findings);

    let verdict = if findings.is_empty() {
        DoctorVerdict::Healthy
    } else if findings.iter().any(|f| f.error.is_some()) {
        DoctorVerdict::RepairFailed
    } else if findings.iter().all(|f| f.repaired) {
        DoctorVerdict::Repaired
    } else if opts.fix {
        DoctorVerdict::RepairFailed
    } else {
        DoctorVerdict::IssuesFound
    };
    let exit_code = match verdict {
        DoctorVerdict::Healthy | DoctorVerdict::Repaired => 0,
        DoctorVerdict::IssuesFound => 4,
        DoctorVerdict::RepairFailed => 3,
    };
    DoctorReport {
        fix: opts.fix,
        bin_dir: opts.bin_dir.display().to_string(),
        store: opts.store.as_ref().map(|p| p.display().to_string()),
        checked,
        findings,
        verdict: verdict.as_str().to_string(),
        exit_code,
    }
}

fn finding(
    state: &str,
    path: &Path,
    issue: impl Into<String>,
    action: impl Into<String>,
) -> DoctorFinding {
    DoctorFinding {
        state: state.into(),
        path: path.display().to_string(),
        issue: issue.into(),
        action: action.into(),
        repaired: false,
        error: None,
    }
}

/// Applies `repair` when `fix` is set and records the outcome.
fn apply_fix(
    mut f: DoctorFinding,
    fix: bool,
    repair: impl FnOnce() -> Result<(), String>,
) -> DoctorFinding {
    if fix {
        match repair() {
            Ok(()) => f.repaired = true,
            Err(e) => f.error = Some(e),
        }
    }
    f
}

/// Stamps are pure hints: a corrupt base or delta is simply deleted and
/// the next build re-digests the sources it covered the cold way.  A
/// delta bound to no current base (the base is absent, corrupt, or was
/// rewritten since) is stale and deleted too.
fn audit_stamps(bin_dir: &Path, fix: bool, findings: &mut Vec<DoctorFinding>) {
    let path = bin_dir.join("stamps.json");
    let mut live_delta = None;
    match StampCache::audit(&path) {
        Some(Err(reason)) => {
            let f = finding("stamps", &path, reason, "delete corrupt stamp file");
            findings.push(apply_fix(f, fix, || {
                std::fs::remove_file(&path).map_err(|e| e.to_string())
            }));
        }
        Some(Ok(base)) => live_delta = base.digest.map(|d| StampCache::delta_path(&path, d)),
        None => {}
    }
    for delta in StampCache::delta_files(&path) {
        let issue = if Some(&delta) != live_delta.as_ref() {
            "stale delta: bound to no current stamps.json".to_string()
        } else if let Some(Err(reason)) = StampCache::audit(&delta) {
            reason
        } else {
            continue;
        };
        let f = finding("stamps", &delta, issue, "delete stamp delta");
        findings.push(apply_fix(f, fix, || {
            std::fs::remove_file(&delta).map_err(|e| e.to_string())
        }));
    }
}

/// The archive is the base `bins.pack` plus at most one delta bound to
/// it.  An unreadable base is quarantined aside (`.corrupt`).  A delta
/// bound to no current base is stale and deleted.  When any body of
/// the base or its delta fails its digest, or the delta itself is
/// unreadable, the two are folded into one compacted base keeping every
/// valid body (a delta body shadows the base's), so the next build
/// recompiles exactly the lost units.
fn audit_pack(bin_dir: &Path, fix: bool, findings: &mut Vec<DoctorFinding>) {
    let path = bin_dir.join(PACK_FILE);
    let base = match PackReader::open(&path) {
        Ok(base) => base,
        Err(e) => {
            let f = finding(
                "pack",
                &path,
                format!("unreadable pack: {e}"),
                "move aside to bins.pack.corrupt (next build recompiles all)",
            );
            findings.push(apply_fix(f, fix, || {
                std::fs::rename(&path, path.with_extension("pack.corrupt"))
                    .map_err(|e| e.to_string())
            }));
            None
        }
    };
    let live_delta = base.as_ref().map(|b| pack::delta_path(bin_dir, b));
    for stale in pack::delta_files(bin_dir) {
        if Some(&stale) != live_delta.as_ref() {
            let f = finding(
                "pack",
                &stale,
                "stale delta: bound to no current base",
                "delete",
            );
            findings.push(apply_fix(f, fix, || {
                std::fs::remove_file(&stale).map_err(|e| e.to_string())
            }));
        }
    }
    let (Some(base), Some(delta_path)) = (base, live_delta) else {
        return;
    };
    let mut issues = Vec::new();
    let mut good = BTreeMap::new();
    verify_bodies("base", &base, &mut good, &mut issues);
    match PackReader::open(&delta_path) {
        Ok(None) => {}
        Ok(Some(delta)) => verify_bodies("delta", &delta, &mut good, &mut issues),
        Err(e) => issues.push(format!("unreadable delta: {e}")),
    }
    if issues.is_empty() {
        return;
    }
    let f = finding(
        "pack",
        &path,
        issues.join("; "),
        format!(
            "compact base and delta into one pack keeping {} valid bodies",
            good.len()
        ),
    );
    findings.push(apply_fix(f, fix, || {
        rewrite_pack(&path, good.values()).map_err(|e| e.to_string())?;
        match std::fs::remove_file(&delta_path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.to_string()),
            _ => Ok(()),
        }
    }));
}

/// Digest-checks every body of `pack` into `good`, keyed by unit name:
/// a valid body replaces the entry of the same name, an invalid one
/// removes it (the unit's newest body is lost) and is named in
/// `issues`.
fn verify_bodies(
    which: &str,
    pack: &PackReader,
    good: &mut BTreeMap<String, (PackEntry, Vec<u8>)>,
    issues: &mut Vec<String>,
) {
    let mut bad = Vec::new();
    for entry in pack.entries() {
        let name = entry.name.to_string();
        match pack.read_body(entry.offset, entry.len, entry.digest) {
            Ok(body) => {
                good.insert(name, (entry.clone(), body));
            }
            Err(_) => {
                good.remove(&name);
                bad.push(name);
            }
        }
    }
    if !bad.is_empty() {
        issues.push(format!(
            "{which}: {} of {} bodies fail digest verification: {}",
            bad.len(),
            pack.entries().len(),
            bad.join(", ")
        ));
    }
}

/// The import-DAG sidecar is pure derived state: a corrupt `deps.pack`
/// is simply deleted and the next build re-derives the graph from the
/// per-unit analyses (then republishes the sidecar).
fn audit_deps(bin_dir: &Path, fix: bool, findings: &mut Vec<DoctorFinding>) {
    let path = bin_dir.join(crate::depgraph::DEPS_FILE);
    if !path.is_file() {
        return;
    }
    if let Err(reason) = crate::depgraph::DepGraph::audit(&path) {
        let f = finding(
            "deps",
            &path,
            format!("corrupt import-DAG sidecar: {reason}"),
            "delete (next build re-derives the graph from analyses)",
        );
        findings.push(apply_fix(f, fix, || {
            std::fs::remove_file(&path).map_err(|e| e.to_string())
        }));
    }
}

fn rewrite_pack<'a>(
    path: &Path,
    good: impl Iterator<Item = &'a (PackEntry, Vec<u8>)>,
) -> Result<(), CoreError> {
    let mut w = PackWriter::create(path)?;
    for (entry, body) in good {
        w.add(&entry.meta(), body, entry.digest)?;
    }
    w.finish()?;
    Ok(())
}

/// The ledger's own audit/compact pair does all the work here.
fn audit_ledger(bin_dir: &Path, fix: bool, findings: &mut Vec<DoctorFinding>) {
    let ledger = Ledger::for_bin_dir(bin_dir);
    let audit = ledger.audit();
    if audit.is_healthy() {
        return;
    }
    let issue = format!(
        "{} of {} lines invalid{}",
        audit.lines - audit.valid,
        audit.lines,
        if audit.torn_tail { " (torn tail)" } else { "" }
    );
    let f = finding(
        "ledger",
        ledger.path(),
        issue,
        "compact to valid records only",
    );
    findings.push(apply_fix(f, fix, || {
        ledger
            .compact_valid()
            .map(|_| ())
            .map_err(|e| e.to_string())
    }));
}

/// Shared with `smlsc cache verify`: [`Store::verify`] checks every
/// object and quarantines failures (non-destructive, reversible until
/// `gc`), so corrupt objects count as repaired even without `--fix`.
/// Staging litter in `tmp/` is additionally swept under `--fix`.
fn audit_store(root: &Path, fix: bool, findings: &mut Vec<DoctorFinding>) {
    let store = match Store::open(root) {
        Ok(s) => s,
        Err(e) => {
            findings.push(finding(
                "store",
                root,
                format!("store cannot be opened: {e}"),
                "manual intervention (root unusable)",
            ));
            return;
        }
    };
    match store.verify() {
        Ok(report) => {
            if !report.corrupt.is_empty() {
                let mut f = finding(
                    "store",
                    root,
                    format!(
                        "{} of {} objects corrupt: {}",
                        report.corrupt.len(),
                        report.checked,
                        report.corrupt.join(", ")
                    ),
                    "quarantined by verify",
                );
                f.repaired = true;
                findings.push(f);
            }
        }
        Err(e) => findings.push(finding(
            "store",
            root,
            format!("verify failed: {e}"),
            "manual intervention",
        )),
    }
    let tmp_dir = root.join("tmp");
    let litter = std::fs::read_dir(&tmp_dir)
        .map(|r| r.flatten().count())
        .unwrap_or(0);
    if litter > 0 {
        let f = finding(
            "store",
            &tmp_dir,
            format!("{litter} staging files left by interrupted publishes"),
            "sweep tmp litter",
        );
        findings.push(apply_fix(f, fix, || {
            store
                .sweep_tmp(Duration::ZERO)
                .map(|_| ())
                .map_err(|e| e.to_string())
        }));
    }
}

/// A socket or lockfile whose recorded owner is dead will never serve
/// again; clearing both lets the next `daemon start` come up cleanly.
/// A live owner is healthy and left alone.
fn audit_daemon(bin_dir: &Path, fix: bool, findings: &mut Vec<DoctorFinding>) {
    let lock = bin_dir.join(DAEMON_LOCK_FILE);
    let sock = bin_dir.join(DAEMON_SOCKET_FILE);
    let owner: Option<u64> = std::fs::read_to_string(&lock)
        .ok()
        .and_then(|s| s.trim().parse().ok());
    let owner_alive = owner.is_some_and(pid_alive);
    if lock.exists() && !owner_alive {
        let issue = match owner {
            Some(pid) => format!("lockfile names dead pid {pid}"),
            None => "lockfile holds no parseable pid".to_string(),
        };
        let f = finding("daemon", &lock, issue, "remove stale lockfile and socket");
        findings.push(apply_fix(f, fix, || {
            std::fs::remove_file(&lock).map_err(|e| e.to_string())?;
            std::fs::remove_file(&sock).ok();
            Ok(())
        }));
    } else if sock.exists() && !lock.exists() {
        let f = finding(
            "daemon",
            &sock,
            "socket exists with no lockfile (daemon died before cleanup)",
            "remove stale socket",
        );
        findings.push(apply_fix(f, fix, || {
            std::fs::remove_file(&sock).map_err(|e| e.to_string())
        }));
    }
}

/// Is the process alive?  Mirrors the daemon crate's liveness test: a
/// zombie counts as dead — it will never serve its socket again.
fn pid_alive(pid: u64) -> bool {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return false;
    };
    !matches!(
        stat.rfind(')')
            .and_then(|i| stat[i + 1..].trim_start().chars().next()),
        Some('Z') | None
    )
}

/// Staging files (`*.tmp-<pid>-<seq>`) in the bin directory are debris
/// from atomic commits interrupted between write and rename.
fn audit_litter(bin_dir: &Path, fix: bool, findings: &mut Vec<DoctorFinding>) {
    let Ok(entries) = std::fs::read_dir(bin_dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if fsutil::is_tmp_litter(name) {
            let path = entry.path();
            let f = finding(
                "litter",
                &path,
                "staging file left by an interrupted commit",
                "delete",
            );
            findings.push(apply_fix(f, fix, || {
                std::fs::remove_file(&path).map_err(|e| e.to_string())
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "smlsc-doctor-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn opts(dir: &Path, fix: bool) -> DoctorOptions {
        DoctorOptions {
            bin_dir: dir.to_path_buf(),
            store: None,
            fix,
        }
    }

    #[test]
    fn empty_bin_dir_is_healthy() {
        let dir = temp("healthy");
        let report = run(&opts(&dir, false));
        assert_eq!(report.verdict(), DoctorVerdict::Healthy);
        assert_eq!(report.exit_code(), 0);
        assert!(report.findings.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_state_is_reported_then_repaired() {
        let dir = temp("repair");
        // Corrupt stamps: right magic, garbage payload.
        std::fs::write(dir.join("stamps.json"), b"SMLSSTM2garbage").unwrap();
        // Corrupt import-DAG sidecar: right magic, garbage payload.
        std::fs::write(dir.join("deps.pack"), b"SMLSDEP1garbage").unwrap();
        // Torn ledger tail.
        std::fs::write(dir.join("builds.jsonl"), b"{\"v\":9,\"truncated").unwrap();
        // Commit litter.
        std::fs::write(dir.join("stamps.tmp-1-1"), b"half").unwrap();
        // Stale daemon lock + socket for a certainly-dead pid.
        std::fs::write(dir.join("daemon.lock"), format!("{}\n", u32::MAX)).unwrap();
        std::fs::write(dir.join("daemon.sock"), b"").unwrap();

        let report = run(&opts(&dir, false));
        assert_eq!(report.verdict(), DoctorVerdict::IssuesFound);
        assert_eq!(report.exit_code(), 4);
        let states: Vec<&str> = report.findings.iter().map(|f| f.state.as_str()).collect();
        for want in ["stamps", "deps", "ledger", "daemon", "litter"] {
            assert!(states.contains(&want), "missing finding for {want}");
        }
        // The report is valid JSON naming the verdict.
        assert!(report.to_json().contains("issues-found"));

        let fixed = run(&opts(&dir, true));
        assert_eq!(fixed.verdict(), DoctorVerdict::Repaired);
        assert_eq!(fixed.exit_code(), 0);
        assert!(fixed.findings.iter().all(|f| f.repaired));

        // Everything is clean now.
        let clean = run(&opts(&dir, false));
        assert_eq!(clean.verdict(), DoctorVerdict::Healthy);
        assert!(!dir.join("daemon.lock").exists());
        assert!(!dir.join("daemon.sock").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_and_stale_stamp_deltas_are_deleted_by_fix() {
        use crate::stamps::{Analysis, StampEntry};
        use smlsc_ids::{Pid, Symbol};
        use std::sync::Arc;
        // Hold the fault gate: the `fsutil` tests inject `stamp.save`
        // faults process-wide.
        let _faults = smlsc_faults::install_scoped(smlsc_faults::FaultPlan::default());
        let dir = temp("stamp-delta");
        let path = dir.join("stamps.json");
        let entry = |unit: &str, mtime: u64| StampEntry {
            unit: Symbol::intern(unit),
            mtime_ns: mtime,
            size: 1,
            analysis: Arc::new(Analysis::new(
                Pid::of_bytes(b"s"),
                Pid::of_bytes(b"t"),
                vec![],
                vec![],
            )),
        };
        let mut c = StampCache::new();
        for i in 0..200 {
            c.record("/p/", &format!("u{i}.sml"), entry(&format!("u{i}"), i));
        }
        c.save(&path).unwrap();
        c.record("/p/", "u1.sml", entry("u1", 500));
        c.save(&path).unwrap();
        let live = StampCache::delta_files(&path);
        assert_eq!(live.len(), 1, "the edit was saved as a delta");
        assert_eq!(run(&opts(&dir, false)).verdict(), DoctorVerdict::Healthy);

        let mut bytes = std::fs::read(&live[0]).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&live[0], &bytes).unwrap();
        let stale = dir.join(fsutil::delta_file_name("stamps", Pid::from_raw(3)));
        std::fs::write(&stale, b"SMLSSTM2").unwrap();
        let report = run(&opts(&dir, false));
        assert_eq!(report.verdict(), DoctorVerdict::IssuesFound);
        let stamp_findings: Vec<&DoctorFinding> = report
            .findings
            .iter()
            .filter(|f| f.state == "stamps")
            .collect();
        assert_eq!(stamp_findings.len(), 2, "{stamp_findings:?}");
        assert!(stamp_findings.iter().any(|f| f.issue.contains("stale")));

        assert_eq!(run(&opts(&dir, true)).verdict(), DoctorVerdict::Repaired);
        assert!(StampCache::delta_files(&path).is_empty());
        assert!(path.is_file(), "the sound base is kept");
        assert_eq!(run(&opts(&dir, false)).verdict(), DoctorVerdict::Healthy);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn live_daemon_lock_is_left_alone() {
        let dir = temp("livelock");
        // Our own pid is alive.
        std::fs::write(dir.join("daemon.lock"), format!("{}\n", std::process::id())).unwrap();
        let report = run(&opts(&dir, true));
        assert_eq!(report.verdict(), DoctorVerdict::Healthy);
        assert!(dir.join("daemon.lock").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
