//! Crash-consistency harness: kill `smlsc` with a real `abort()` at
//! every registered durable-write crash point, then prove full
//! recovery.
//!
//! Each case runs the CLI as a subprocess with an injected
//! `<point>=crash(<stage>)` fault (see `smlsc_faults`), so the process
//! dies exactly as a power cut would: mid-stage, with tmp files,
//! half-renamed packs, or torn ledger lines on disk.  The recovery
//! property asserted for every point and stage:
//!
//! 1. the crashed run really aborted at the injected point (SIGABRT,
//!    marker on stderr);
//! 2. the next plain build succeeds with exit 0 — no manual cleanup;
//! 3. its artifacts are bit-identical to a never-crashed build of the
//!    same sources (pack entry set and body bytes);
//! 4. `smlsc doctor --fix` then reports exit 0 and a follow-up audit
//!    is fully healthy — no debris survives.
//!
//! Workloads are seeded monorepo graphs at N ∈ {50, 200} from
//! `smlsc-workload`, written to disk as real `*.sml` trees.

use std::path::{Path, PathBuf};
use std::process::Command;

use smlsc::core::pack::MergedPack;
use smlsc::core::BinFile;
use smlsc::workload::{module_name, EditKind, Topology, Workload, WorkloadSpec};

fn smlsc() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_smlsc"));
    cmd.env_remove("SMLSC_STORE");
    cmd.env_remove("SMLSC_FAULTS");
    cmd
}

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smlsc-crashrec-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a seeded monorepo workload to `dir` as one `*.sml` file per
/// module.  The same `(units, seed)` always produces byte-identical
/// sources, so two directories seeded alike are buildable references
/// for each other.
fn seed_project(dir: &Path, units: usize) {
    for f in workload(units).project().files() {
        std::fs::write(dir.join(format!("{}.sml", f.name)), f.read_text().unwrap()).unwrap();
    }
}

fn workload(units: usize) -> Workload {
    Workload::new(WorkloadSpec::with_topology(Topology::Monorepo {
        units,
        seed: 7,
    }))
}

/// Applies one body-only edit to a unit nothing imports, on disk: after
/// a good build, the save that follows writes only a delta.
fn edit_leaf(dir: &Path, units: usize) {
    let mut w = workload(units);
    let leaf = w.leaf_consumer().expect("a unit nothing imports");
    w.edit(leaf, EditKind::BodyOnly);
    let name = module_name(leaf);
    let text = w.project().file(&name).unwrap().read_text().unwrap();
    std::fs::write(dir.join(format!("{name}.sml")), text).unwrap();
}

fn build(dir: &Path, store: Option<&Path>, faults: Option<&str>) -> std::process::Output {
    let mut cmd = smlsc();
    cmd.arg("build").arg("--no-daemon");
    if let Some(s) = store {
        cmd.arg("--store").arg(s);
    }
    if let Some(f) = faults {
        cmd.arg("--inject-faults").arg(f);
    }
    cmd.arg(dir);
    cmd.output().unwrap()
}

/// The durable artifact state of a bin dir: every live entry of the
/// base pack and its delta, overlaid, with its identity and canonical
/// body bytes, sorted by unit name.  Bodies are
/// compared in the store's canonical mtime-zero form — identical
/// compiles are bit-identical once the per-compile virtual mtime is
/// zeroed, which is exactly the normalization `store.publish` uses.
type Fingerprint = Vec<(String, String, String, Vec<u8>)>;

fn fingerprint(bin_dir: &Path) -> Fingerprint {
    let merged = MergedPack::open(bin_dir)
        .expect("pack and delta readable")
        .expect("pack present after a successful build");
    let mut rows: Fingerprint = merged
        .entries()
        .into_iter()
        .map(|(e, pack)| {
            // `read_body` verifies the digest before returning bytes,
            // so a torn pack fails loudly here rather than producing a
            // bogus "match".
            let body = pack
                .read_body(e.offset, e.len, e.digest)
                .unwrap_or_else(|err| panic!("body of {} unreadable: {err}", e.name));
            let mut bin = BinFile::from_bytes(&body)
                .unwrap_or_else(|err| panic!("body of {} unparseable: {err}", e.name));
            bin.mtime = 0;
            (
                e.name.to_string(),
                format!("{:?}", e.source_pid),
                format!("{:?}", e.export_pid),
                bin.to_bytes(),
            )
        })
        .collect();
    rows.sort();
    rows
}

fn doctor(dir: &Path, store: Option<&Path>, fix: bool) -> std::process::Output {
    let mut cmd = smlsc();
    cmd.arg("doctor");
    if fix {
        cmd.arg("--fix");
    }
    if let Some(s) = store {
        cmd.arg("--store").arg(s);
    }
    cmd.arg(dir);
    cmd.output().unwrap()
}

/// The crash-recovery property for one `(point, stage)` crash rule.
fn crash_then_recover(
    tag: &str,
    units: usize,
    rule: &str,
    with_store: bool,
    reference: &Fingerprint,
) {
    let proj = temp(tag);
    seed_project(&proj, units);
    let store_dir = proj.join("_store");
    let store = with_store.then_some(store_dir.as_path());
    crash_then_recover_in(&proj, units, rule, store, reference);
}

/// The crash-recovery property for one crash rule, on the project
/// already on disk at `proj`.
fn crash_then_recover_in(
    proj: &Path,
    units: usize,
    rule: &str,
    store: Option<&Path>,
    reference: &Fingerprint,
) {
    // The crashed run: the injected fault aborts the process at the
    // exact durable-write stage named by the rule.
    let out = build(proj, store, Some(rule));
    assert!(
        out.status.code().is_none(),
        "{rule}: expected an abort (killed by signal), got {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("injected fault: crash at"),
        "{rule}: abort must come from the injected crash point, stderr: {stderr}"
    );

    // Recovery: a plain build on the crashed state succeeds and lands
    // in exactly the state a never-crashed build produces.
    let out = build(proj, store, None);
    assert!(
        out.status.success(),
        "{rule}: recovery build failed: {out:?}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!("built {units} unit(s)")),
        "{rule}: recovery build summary wrong: {stdout}"
    );
    let recovered = fingerprint(&proj.join(".smlsc-bins"));
    assert_eq!(
        &recovered, reference,
        "{rule}: recovered artifacts differ from a clean build"
    );

    // Self-healing: `doctor --fix` clears any crash debris (tmp litter,
    // torn ledger tail) and a follow-up audit is fully healthy.
    let out = doctor(proj, store, true);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{rule}: doctor --fix failed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let out = doctor(proj, store, false);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{rule}: post-fix audit not healthy: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    std::fs::remove_dir_all(proj).ok();
}

/// Builds the clean reference once per `(units, with_store)` shape.
fn reference(tag: &str, units: usize, with_store: bool) -> Fingerprint {
    let dir = temp(tag);
    seed_project(&dir, units);
    let store_dir = dir.join("_store");
    let store = with_store.then_some(store_dir.as_path());
    let out = build(&dir, store, None);
    assert!(out.status.success(), "reference build failed: {out:?}");
    let fp = fingerprint(&dir.join(".smlsc-bins"));
    std::fs::remove_dir_all(&dir).ok();
    fp
}

/// Every stage of every local durable-write point, N = 50.
#[test]
fn crash_at_every_local_durable_write_stage_recovers_n50() {
    let reference_fp = reference("ref-local-50", 50, false);
    for (i, rule) in [
        "stamp.save=crash(begin)",
        "stamp.save=crash(staged)",
        "stamp.save=crash(renamed)",
        "pack.save=crash(begin)",
        "pack.save=crash(staged)",
        "pack.save=crash(renamed)",
        "deps.save=crash(begin)",
        "deps.save=crash(staged)",
        "deps.save=crash(renamed)",
        "ledger.append=crash(begin)",
        "ledger.append=crash(mid)",
    ]
    .iter()
    .enumerate()
    {
        crash_then_recover(&format!("local50-{i}"), 50, rule, false, &reference_fp);
    }
}

/// Every stage of the store publication point, N = 50.
#[test]
fn crash_at_every_store_publish_stage_recovers_n50() {
    let reference_fp = reference("ref-store-50", 50, true);
    for (i, rule) in [
        "store.publish=crash(begin)",
        "store.publish=crash(staged)",
        "store.publish=crash(renamed)",
    ]
    .iter()
    .enumerate()
    {
        crash_then_recover(&format!("store50-{i}"), 50, rule, true, &reference_fp);
    }
}

/// One representative stage per point at monorepo scale, N = 200.
#[test]
fn crash_recovery_holds_at_monorepo_scale_n200() {
    let reference_fp = reference("ref-local-200", 200, false);
    for (i, rule) in [
        "stamp.save=crash(staged)",
        "pack.save=crash(renamed)",
        "deps.save=crash(staged)",
        "ledger.append=crash(mid)",
    ]
    .iter()
    .enumerate()
    {
        crash_then_recover(&format!("local200-{i}"), 200, rule, false, &reference_fp);
    }
    let store_fp = reference("ref-store-200", 200, true);
    crash_then_recover(
        "store200",
        200,
        "store.publish=crash(staged)",
        true,
        &store_fp,
    );
}

/// The delta save, crashed at each of its `pack.save` stages: a good
/// build, then a one-leaf edit whose save writes only a delta
/// (`bins-<digest>.delta`; the `bins-` filter never matches the base's
/// `bins.pack`).  Recovery lands on a clean build of the edited
/// sources and `doctor --fix` leaves a healthy bin dir.
#[test]
fn crash_at_every_delta_save_stage_recovers_n200() {
    let units = 200;
    let reference_fp = {
        let dir = temp("ref-delta-200");
        seed_project(&dir, units);
        edit_leaf(&dir, units);
        let out = build(&dir, None, None);
        assert!(out.status.success(), "reference build failed: {out:?}");
        let fp = fingerprint(&dir.join(".smlsc-bins"));
        std::fs::remove_dir_all(&dir).ok();
        fp
    };
    for stage in ["begin", "staged", "renamed"] {
        let proj = temp(&format!("delta200-{stage}"));
        seed_project(&proj, units);
        let out = build(&proj, None, None);
        assert!(out.status.success(), "good build failed: {out:?}");
        edit_leaf(&proj, units);
        let rule = format!("pack.save=crash({stage} bins-)");
        crash_then_recover_in(&proj, units, &rule, None, &reference_fp);
    }
}

/// A daemon killed while writing its lockfile leaves exactly the
/// stale-lock debris the next acquire and `smlsc doctor` must clear.
#[test]
fn crash_in_daemon_lock_leaves_recoverable_debris() {
    let proj = temp("daemonlock");
    seed_project(&proj, 10);

    let out = smlsc()
        .args(["daemon", "run", "--inject-faults", "daemon.lock=crash"])
        .arg(&proj)
        .output()
        .unwrap();
    assert!(
        out.status.code().is_none(),
        "daemon must abort at the lock crash point: {out:?}"
    );
    let lock = proj.join(".smlsc-bins/daemon.lock");
    assert!(lock.exists(), "the crash leaves a stale lockfile behind");

    // `doctor` sees the stale lock; `--fix` clears it; the audit is
    // then clean.
    let out = doctor(&proj, None, false);
    assert_eq!(out.status.code(), Some(4), "stale lock is a finding");
    let out = doctor(&proj, None, true);
    assert_eq!(
        out.status.code(),
        Some(0),
        "doctor --fix clears the stale lock: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(!lock.exists(), "stale lockfile removed by --fix");

    // And the daemon itself self-heals: a fresh start takes over the
    // same project without manual intervention even when the debris is
    // still there.
    std::fs::write(&lock, format!("{}\n", u32::MAX)).unwrap();
    let out = smlsc()
        .args(["daemon", "start"])
        .arg(&proj)
        .env("SMLSC_DAEMON_POLL_MS", "20")
        .output()
        .unwrap();
    assert!(out.status.success(), "start over stale debris: {out:?}");
    let out = smlsc()
        .args(["daemon", "stop"])
        .arg(&proj)
        .output()
        .unwrap();
    assert!(out.status.success(), "stop: {out:?}");

    std::fs::remove_dir_all(&proj).ok();
}
