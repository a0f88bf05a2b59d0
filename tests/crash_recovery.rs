//! Library-level crash-debris recovery: every class of half-finished
//! state an aborted process can leave behind is (a) harmless to the
//! next build and (b) detected and repaired by `doctor::run` — the
//! same audit/repair engine behind `smlsc doctor`.
//!
//! The subprocess harness (`crates/smlsc/tests/crash_recovery.rs`)
//! kills real `smlsc` processes at the registered crash points; this
//! suite constructs the resulting debris classes directly — tmp
//! litter, torn ledger tails, truncated and bit-flipped packs,
//! corrupted store objects, stale daemon files — so each repair path
//! is exercised in isolation, including the ones a lucky crash might
//! not produce.

use std::path::{Path, PathBuf};
use std::time::Duration;

use smlsc::core::doctor::{self, DoctorOptions, DoctorVerdict};
use smlsc::core::irm::{Irm, Strategy};
use smlsc::core::ledger::{Ledger, LedgerRecord, LEDGER_FILE, LEDGER_VERSION};
use smlsc::core::pack::{self, MergedPack, PackReader};
use smlsc::core::store::Store;
use smlsc::ids::Pid;
use smlsc::workload::{Topology, Workload, WorkloadSpec};
use smlsc_faults::{install_scoped, points, FaultKind, FaultPlan, FaultRule};

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "smlsc-crashlib-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn doctor_on(bin_dir: &Path, store: Option<PathBuf>, fix: bool) -> doctor::DoctorReport {
    doctor::run(&DoctorOptions {
        bin_dir: bin_dir.to_path_buf(),
        store,
        fix,
    })
}

fn record(id: u64) -> LedgerRecord {
    LedgerRecord {
        version: LEDGER_VERSION,
        build_id: id,
        timestamp_ms: 1000 + id,
        strategy: "cutoff".into(),
        jobs: 4,
        host_parallelism: 8,
        wall_us: 100 * id,
        parse_us: 10,
        elaborate_us: 20,
        hash_us: 3,
        dehydrate_us: 4,
        rehydrate_us: 5,
        compiled: 2,
        reused: 1,
        cutoff: 1,
        store_hits: 0,
        skipped: 0,
        failed: 0,
        stamp_hits: 3,
        stamp_misses: 0,
        store_misses: 0,
        deps_cache_hits: 3,
        deps_cache_misses: 0,
        source_reads: 0,
        critical_path: 2,
        exit_code: 0,
        daemon: 0,
    }
}

/// Tmp litter — the staging files a crash between `write` and `rename`
/// strands — is reported, swept by `--fix`, and gone on re-audit.
#[test]
fn tmp_litter_from_crashed_commits_is_swept() {
    let bin = temp("litter");
    // One stranded staging file per durable-write path: stamps, pack,
    // and a ledger rotation.
    for name in ["stamps.tmp-4242-0", "bins.tmp-4242-1", "builds.tmp-4242-2"] {
        std::fs::write(bin.join(name), b"half-written staging bytes").unwrap();
    }

    let report = doctor_on(&bin, None, false);
    assert_eq!(report.verdict(), DoctorVerdict::IssuesFound);
    assert_eq!(report.exit_code(), 4);
    let litter: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.state == "litter")
        .collect();
    assert_eq!(litter.len(), 3, "all three staging files reported");

    let report = doctor_on(&bin, None, true);
    assert_eq!(report.verdict(), DoctorVerdict::Repaired);
    assert_eq!(report.exit_code(), 0);
    for name in ["stamps.tmp-4242-0", "bins.tmp-4242-1", "builds.tmp-4242-2"] {
        assert!(!bin.join(name).exists(), "{name} swept");
    }
    assert_eq!(
        doctor_on(&bin, None, false).verdict(),
        DoctorVerdict::Healthy
    );
    std::fs::remove_dir_all(&bin).ok();
}

/// A torn ledger tail (crash mid-`append`) never corrupts earlier
/// records, is healed over by the next append, and is compacted away
/// by the doctor.
#[test]
fn torn_ledger_tail_heals_and_compacts() {
    use std::io::Write;
    let bin = temp("ledger");
    let ledger = Ledger::for_bin_dir(&bin);
    for i in 1..=3 {
        ledger.append(&record(i)).unwrap();
    }

    // Crash mid-append: a prefix of a record with no trailing newline.
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(bin.join(LEDGER_FILE))
        .unwrap();
    f.write_all(b"{\"v\":1,\"build_id\":99,\"timest").unwrap();
    drop(f);

    let audit = ledger.audit();
    assert!(audit.torn_tail, "torn tail detected");
    assert_eq!(audit.valid, 3, "earlier records untouched");

    // The next append heals over the torn tail: its record lands on a
    // fresh line and every valid record survives.
    ledger.append(&record(4)).unwrap();
    let back = ledger.read();
    assert_eq!(back.len(), 4);
    assert_eq!(back.last().unwrap().build_id, 4);
    let audit = ledger.audit();
    assert!(!audit.torn_tail, "tail healed by the append");
    assert_eq!(
        audit.lines - audit.valid,
        1,
        "the torn fragment remains as one dead line"
    );

    // Doctor: reported without --fix, compacted with it.
    let report = doctor_on(&bin, None, false);
    assert_eq!(report.verdict(), DoctorVerdict::IssuesFound);
    assert!(report.findings.iter().any(|f| f.state == "ledger"));
    let report = doctor_on(&bin, None, true);
    assert_eq!(report.verdict(), DoctorVerdict::Repaired);
    let audit = ledger.audit();
    assert_eq!(
        (audit.lines, audit.valid),
        (4, 4),
        "compacted to valid records only"
    );
    assert_eq!(ledger.read().len(), 4, "no record lost by the repair");
    std::fs::remove_dir_all(&bin).ok();
}

/// Seeds a workload, builds it, and persists bins + stamps to `bin`.
fn built_workload(bin: &Path, units: usize) -> Irm {
    let w = Workload::new(WorkloadSpec::with_topology(Topology::Monorepo {
        units,
        seed: 11,
    }));
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(w.project()).unwrap();
    irm.save_bins(bin).unwrap();
    irm.save_stamps(&bin.join("stamps.json")).unwrap();
    irm
}

/// A truncated pack (crash mid-rename exposed by a dirty page loss, or
/// plain disk truncation) is moved aside by the doctor, and the next
/// build recompiles from sources without failing.
#[test]
fn truncated_pack_is_moved_aside_and_rebuilt() {
    let bin = temp("packtrunc");
    built_workload(&bin, 30);
    let pack_path = bin.join("bins.pack");
    let bytes = std::fs::read(&pack_path).unwrap();
    std::fs::write(&pack_path, &bytes[..bytes.len() - 16]).unwrap();
    assert!(
        MergedPack::open(&bin).is_err(),
        "truncated pack no longer opens"
    );

    let report = doctor_on(&bin, None, true);
    assert_eq!(
        report.verdict(),
        DoctorVerdict::Repaired,
        "{}",
        report.to_json()
    );
    assert!(!pack_path.exists(), "unreadable pack moved aside");

    // The project still builds: a fresh session falls back to sources.
    let w = Workload::new(WorkloadSpec::with_topology(Topology::Monorepo {
        units: 30,
        seed: 11,
    }));
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.load_bins(&bin).unwrap();
    let report = irm.build(w.project()).unwrap();
    assert!(report.succeeded());
    irm.save_bins(&bin).unwrap();
    assert!(MergedPack::open(&bin).unwrap().is_some(), "pack rebuilt");
    std::fs::remove_dir_all(&bin).ok();
}

/// A single flipped byte inside one body (latent media corruption
/// under a valid index) is caught by the digest on read; the doctor
/// rewrites the pack keeping every good unit.
#[test]
fn bitflipped_pack_body_is_dropped_keeping_good_units() {
    let bin = temp("packflip");
    built_workload(&bin, 30);
    let pack_path = bin.join("bins.pack");
    let pack = PackReader::open(&pack_path).unwrap().unwrap();
    let victim = pack.entries()[0].clone();
    let total = pack.entries().len();
    drop(pack);

    let mut bytes = std::fs::read(&pack_path).unwrap();
    let mid = usize::try_from(victim.offset + victim.len / 2).unwrap();
    bytes[mid] ^= 0xFF;
    std::fs::write(&pack_path, &bytes).unwrap();

    let report = doctor_on(&bin, None, true);
    assert_eq!(
        report.verdict(),
        DoctorVerdict::Repaired,
        "{}",
        report.to_json()
    );
    assert_merged_verifies(&bin, total - 1, "only the corrupt body dropped");
    std::fs::remove_dir_all(&bin).ok();
}

/// A corrupted store object (partial write that still got its final
/// name) is quarantined — never served — and the doctor reports the
/// quarantine as a completed repair.
#[test]
fn corrupt_store_object_is_quarantined_not_served() {
    let bin = temp("storebin");
    let root = temp("storeroot");
    let store = Store::open(&root).unwrap();
    let payload = b"compiled unit payload".to_vec();
    let key = Pid::of_bytes(&payload);
    store.put(key, &payload).unwrap();
    assert_eq!(store.get(key), Some(payload.clone()));

    // Corrupt the object in place, keeping its (valid-looking) name.
    let object = walk_files(&root.join("objects"))
        .into_iter()
        .next()
        .expect("one published object on disk");
    let bytes = std::fs::read(&object).unwrap();
    std::fs::write(&object, &bytes[..bytes.len() / 2]).unwrap();

    let report = doctor_on(&bin, Some(root.clone()), false);
    let store_findings: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.state == "store")
        .collect();
    assert_eq!(store_findings.len(), 1);
    assert!(
        store_findings[0].repaired,
        "verification quarantines on detection, even without --fix"
    );
    assert_eq!(store.get(key), None, "corrupt object is never served");
    std::fs::remove_dir_all(&bin).ok();
    std::fs::remove_dir_all(&root).ok();
}

/// Store tmp litter (a publisher killed before its rename) is swept by
/// the doctor's `--fix` pass.
#[test]
fn store_tmp_litter_is_swept_by_fix() {
    let bin = temp("storetmpbin");
    let root = temp("storetmp");
    let store = Store::open(&root).unwrap();
    drop(store);
    std::fs::write(root.join("tmp/obj-1234-0"), b"half a payload").unwrap();

    let report = doctor_on(&bin, Some(root.clone()), false);
    assert_eq!(report.verdict(), DoctorVerdict::IssuesFound);
    let report = doctor_on(&bin, Some(root.clone()), true);
    assert_eq!(
        report.verdict(),
        DoctorVerdict::Repaired,
        "{}",
        report.to_json()
    );
    assert!(!root.join("tmp/obj-1234-0").exists(), "litter swept");
    std::fs::remove_dir_all(&bin).ok();
    std::fs::remove_dir_all(&root).ok();
}

/// The store's own sweep respects the age gate: fresh tmp files (a
/// publisher mid-flight right now) are left alone.
#[test]
fn store_tmp_sweep_respects_min_age() {
    let root = temp("storeage");
    let store = Store::open(&root).unwrap();
    std::fs::write(root.join("tmp/obj-9-9"), b"in flight").unwrap();
    let swept = store.sweep_tmp(Duration::from_secs(3600)).unwrap();
    assert_eq!(swept, 0, "young tmp files survive an aged sweep");
    let swept = store.sweep_tmp(Duration::ZERO).unwrap();
    assert_eq!(swept, 1, "a zero-age sweep collects them");
    std::fs::remove_dir_all(&root).ok();
}

/// An IO failure at any stage of the pack rewrite leaves the previous
/// pack fully readable — the build's artifacts are never torn by a
/// failed save — at both harness scales.
#[test]
fn failed_pack_save_never_tears_the_previous_pack() {
    for units in [50, 200] {
        for stage in ["begin", "staged"] {
            let bin = temp(&format!("iosave-{units}-{stage}"));
            let mut w = Workload::new(WorkloadSpec::with_topology(Topology::Monorepo {
                units,
                seed: 11,
            }));
            let mut irm = Irm::new(Strategy::Cutoff);
            irm.build(w.project()).unwrap();
            irm.save_bins(&bin).unwrap();

            // Dirty one unit so the next save really rewrites the pack,
            // then fail that save at the given stage.
            w.edit(units - 1, smlsc::workload::EditKind::BodyOnly);
            irm.build(w.project()).unwrap();
            {
                let _f = install_scoped(
                    FaultPlan::seeded(1)
                        .with(FaultRule::new(points::PACK_SAVE, FaultKind::Io).filtered(stage)),
                );
                irm.save_bins(&bin).unwrap_err();
            }

            // The previous pack is intact: opens, and every body
            // verifies against its digest.
            let edited = smlsc::workload::module_name(units - 1);
            let live_source = |bin: &Path| {
                let merged = MergedPack::open(bin).unwrap().unwrap();
                let entries = merged.entries();
                let (e, _) = entries
                    .iter()
                    .find(|(e, _)| e.name.as_str() == edited)
                    .unwrap();
                e.source_pid
            };
            let ctx = format!("{units}/{stage}");
            assert_merged_verifies(&bin, units, &ctx);
            assert_ne!(
                live_source(&bin),
                irm.bin_meta(&edited).unwrap().source_pid,
                "{ctx}: the failed save published nothing"
            );

            // With the fault gone the save completes and carries the
            // edited unit.
            irm.save_bins(&bin).unwrap();
            assert_merged_verifies(&bin, units, &ctx);
            assert_eq!(
                live_source(&bin),
                irm.bin_meta(&edited).unwrap().source_pid,
                "{ctx}: the save carries the edited unit"
            );
            std::fs::remove_dir_all(&bin).ok();
        }
    }
}

/// Stale daemon files from a killed daemon are findings; `--fix`
/// clears both lock and socket; a live owner's files are untouched.
#[test]
fn stale_daemon_files_are_cleared_live_ones_kept() {
    let bin = temp("daemonfiles");
    std::fs::write(bin.join("daemon.lock"), format!("{}\n", u32::MAX)).unwrap();
    std::fs::write(bin.join("daemon.sock"), b"").unwrap();

    let report = doctor_on(&bin, None, true);
    assert_eq!(
        report.verdict(),
        DoctorVerdict::Repaired,
        "{}",
        report.to_json()
    );
    assert!(!bin.join("daemon.lock").exists());
    assert!(!bin.join("daemon.sock").exists());

    // A lockfile naming a live pid (ours) is healthy state.
    std::fs::write(bin.join("daemon.lock"), format!("{}\n", std::process::id())).unwrap();
    let report = doctor_on(&bin, None, true);
    assert_eq!(report.verdict(), DoctorVerdict::Healthy);
    assert!(bin.join("daemon.lock").exists(), "live owner's lock kept");
    std::fs::remove_dir_all(&bin).ok();
}

/// Corrupt stamps (crash mid-write caught by the payload digest) are
/// deleted by `--fix`; the stamp cache is a pure accelerator, so the
/// next build just runs cold.
#[test]
fn corrupt_stamps_are_deleted_by_fix() {
    let bin = temp("stamps");
    std::fs::write(bin.join("stamps.json"), b"SMLSSTM2 then garbage bytes").unwrap();
    let report = doctor_on(&bin, None, false);
    assert_eq!(report.verdict(), DoctorVerdict::IssuesFound);
    assert!(report.findings.iter().any(|f| f.state == "stamps"));
    let report = doctor_on(&bin, None, true);
    assert_eq!(report.verdict(), DoctorVerdict::Repaired);
    assert!(!bin.join("stamps.json").exists());
    std::fs::remove_dir_all(&bin).ok();
}

/// A torn `deps.pack` sidecar (crash mid-commit caught by the payload
/// digest) reads as absent: the next build silently re-derives the
/// import DAG from the per-unit analyses and rebuilds exactly the
/// edited cone — never a wrong build.  The doctor reports the torn
/// sidecar and `--fix` deletes it.
#[test]
fn torn_deps_sidecar_is_rederived_and_repaired() {
    let bin = temp("depstorn");
    let mut w = Workload::new(WorkloadSpec::with_topology(Topology::Monorepo {
        units: 40,
        seed: 11,
    }));
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(w.project()).unwrap();
    {
        let _f = install_scoped(
            FaultPlan::seeded(1).with(FaultRule::new(points::DEPS_SAVE, FaultKind::Torn)),
        );
        irm.save_bins(&bin).unwrap();
    }
    let deps_path = bin.join("deps.pack");
    assert!(deps_path.exists(), "torn commit still publishes a file");
    assert!(
        smlsc::core::depgraph::DepGraph::audit(&deps_path).is_err(),
        "half-written sidecar fails its digest"
    );

    // A fresh session tolerates the torn sidecar: the warm no-op build
    // re-derives the graph from analyses and reuses every unit.
    let mut warm = Irm::new(Strategy::Cutoff);
    warm.load_bins(&bin).unwrap();
    let report = warm.build(w.project()).unwrap();
    assert!(report.succeeded());
    assert_eq!(report.reused.len(), 40, "no-op over torn sidecar");

    // And a leaf edit over the torn sidecar recompiles exactly its cone.
    w.edit(39, smlsc::workload::EditKind::BodyOnly);
    let mut warm = Irm::new(Strategy::Cutoff);
    warm.load_bins(&bin).unwrap();
    let report = warm.build(w.project()).unwrap();
    assert!(report.succeeded());
    assert_eq!(
        report.recompiled.len(),
        1,
        "exactly the edited leaf rebuilt"
    );

    // Doctor: reported without --fix, deleted with it.
    let dr = doctor_on(&bin, None, false);
    assert_eq!(dr.verdict(), DoctorVerdict::IssuesFound);
    assert!(dr.findings.iter().any(|f| f.state == "deps"));
    let dr = doctor_on(&bin, None, true);
    assert_eq!(dr.verdict(), DoctorVerdict::Repaired, "{}", dr.to_json());
    assert!(!deps_path.exists(), "corrupt sidecar deleted");

    // A clean save republishes a valid sidecar.
    warm.save_bins(&bin).unwrap();
    let n = smlsc::core::depgraph::DepGraph::audit(&deps_path).unwrap();
    assert_eq!(n, 40, "republished sidecar covers every unit");
    std::fs::remove_dir_all(&bin).ok();
}

/// An IO failure while publishing the sidecar fails the save without
/// touching the already-committed pack; retrying with the fault gone
/// completes the publication.
#[test]
fn failed_deps_save_keeps_pack_intact() {
    let bin = temp("depsio");
    let w = Workload::new(WorkloadSpec::with_topology(Topology::Monorepo {
        units: 30,
        seed: 11,
    }));
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(w.project()).unwrap();
    {
        let _f = install_scoped(
            FaultPlan::seeded(1)
                .with(FaultRule::new(points::DEPS_SAVE, FaultKind::Io).filtered("begin")),
        );
        irm.save_bins(&bin).unwrap_err();
    }
    assert_merged_verifies(&bin, 30, "pack committed before the sidecar");
    assert!(!bin.join("deps.pack").exists());

    irm.save_bins(&bin).unwrap();
    let n = smlsc::core::depgraph::DepGraph::audit(&bin.join("deps.pack")).unwrap();
    assert_eq!(n, 30);
    std::fs::remove_dir_all(&bin).ok();
}

/// The merged base ⊕ delta view of `bin` holds `units` live entries and
/// every one of their bodies verifies against its digest.
fn assert_merged_verifies(bin: &Path, units: usize, ctx: &str) {
    let merged = MergedPack::open(bin).unwrap().expect("a pack");
    let entries = merged.entries();
    assert_eq!(entries.len(), units, "{ctx}: live entry count");
    for (e, pack) in entries {
        pack.read_body(e.offset, e.len, e.digest)
            .unwrap_or_else(|err| panic!("{ctx}: body {} must verify: {err}", e.name));
    }
}

/// Builds a 200-unit workload cold, then edits two leaves and saves
/// again, which writes a delta holding exactly those two units.  Returns
/// the workload (at its edited state) and the two leaves' names.
fn workload_with_delta(bin: &Path) -> (Workload, [String; 2]) {
    let units = 200;
    let mut w = Workload::new(WorkloadSpec::with_topology(Topology::Monorepo {
        units,
        seed: 11,
    }));
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(w.project()).unwrap();
    irm.save_bins(bin).unwrap();
    let mut leaves = (0..units).filter(|i| !w.deps().iter().any(|d| d.contains(i)));
    let edited = [leaves.next().unwrap(), leaves.next().unwrap()];
    for &leaf in &edited {
        w.edit(leaf, smlsc::workload::EditKind::BodyOnly);
    }
    irm.build(w.project()).unwrap();
    irm.save_bins(bin).unwrap();
    let merged = MergedPack::open(bin).unwrap().unwrap();
    let delta = merged.delta().expect("a two-leaf edit saves as a delta");
    assert_eq!(delta.entries().len(), 2);
    (w, edited.map(smlsc::workload::module_name))
}

/// A delta body that fails its digest is a pack finding; `--fix` folds
/// base and delta into one compacted base that keeps every valid body —
/// the other edited leaf's new body included — and drops only the
/// corrupt unit, which the next build then recompiles alone.
#[test]
fn corrupt_delta_body_is_folded_into_a_compacted_base() {
    let bin = temp("deltaflip");
    let (w, [victim, survivor]) = workload_with_delta(&bin);
    let merged = MergedPack::open(&bin).unwrap().unwrap();
    let delta = merged.delta().unwrap();
    let delta_path = delta.path().to_path_buf();
    let e = delta
        .entries()
        .iter()
        .find(|e| e.name.as_str() == victim)
        .unwrap()
        .clone();
    let survivor_source = merged
        .entries()
        .iter()
        .find(|(e, _)| e.name.as_str() == survivor)
        .unwrap()
        .0
        .source_pid;
    drop(merged);
    let mut bytes = std::fs::read(&delta_path).unwrap();
    bytes[usize::try_from(e.offset + e.len / 2).unwrap()] ^= 0xff;
    std::fs::write(&delta_path, &bytes).unwrap();

    let report = doctor_on(&bin, None, false);
    assert_eq!(report.verdict(), DoctorVerdict::IssuesFound);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.state == "pack" && f.issue.contains("delta: 1 of 2")),
        "{}",
        report.to_json()
    );
    let report = doctor_on(&bin, None, true);
    assert_eq!(
        report.verdict(),
        DoctorVerdict::Repaired,
        "{}",
        report.to_json()
    );
    assert!(!delta_path.exists(), "the delta is folded away");
    assert!(pack::delta_files(&bin).is_empty());
    assert_merged_verifies(&bin, 199, "only the corrupt unit dropped");
    let merged = MergedPack::open(&bin).unwrap().unwrap();
    let entries = merged.entries();
    let (kept, _) = entries
        .iter()
        .find(|(e, _)| e.name.as_str() == survivor)
        .unwrap();
    assert_eq!(
        kept.source_pid, survivor_source,
        "the valid delta body survives"
    );
    assert_eq!(
        doctor_on(&bin, None, false).verdict(),
        DoctorVerdict::Healthy
    );

    let mut irm = Irm::new(Strategy::Cutoff);
    irm.load_bins(&bin).unwrap();
    let report = irm.build(w.project()).unwrap();
    assert_eq!(report.recompiled.len(), 1, "{:?}", report.recompiled);
    assert!(report.was_recompiled(&victim));
    std::fs::remove_dir_all(&bin).ok();
}

/// An unreadable delta is a finding too: its units fall back to their
/// base bodies (stale, so a build recompiles them), and `--fix` folds the
/// base alone into a fresh compacted base.
#[test]
fn unreadable_delta_is_folded_away_by_fix() {
    let bin = temp("deltagarbage");
    let (w, edited) = workload_with_delta(&bin);
    let delta_path = MergedPack::open(&bin)
        .unwrap()
        .unwrap()
        .delta()
        .unwrap()
        .path()
        .to_path_buf();
    std::fs::write(&delta_path, b"SMLSPAK2 then garbage, no footer").unwrap();

    // A build over it degrades, never fails.
    let mut irm = Irm::new(Strategy::Cutoff);
    let outcome = irm.load_bins(&bin).unwrap();
    assert_eq!(outcome.corrupt.len(), 1, "{:?}", outcome.corrupt);
    let report = irm.build(w.project()).unwrap();
    let mut rebuilt: Vec<String> = report.recompiled.iter().map(|s| s.to_string()).collect();
    rebuilt.sort();
    assert_eq!(rebuilt, edited.to_vec());

    let report = doctor_on(&bin, None, false);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.state == "pack" && f.issue.contains("unreadable delta")),
        "{}",
        report.to_json()
    );
    let report = doctor_on(&bin, None, true);
    assert_eq!(
        report.verdict(),
        DoctorVerdict::Repaired,
        "{}",
        report.to_json()
    );
    assert!(!delta_path.exists());
    assert_merged_verifies(&bin, 200, "the base keeps every unit");
    assert_eq!(
        doctor_on(&bin, None, false).verdict(),
        DoctorVerdict::Healthy
    );
    std::fs::remove_dir_all(&bin).ok();
}

/// A delta bound to no current base (left behind when a compaction was
/// cut between renaming the new base and deleting the old delta) is
/// ignored by loads, reported by the doctor, and deleted by `--fix`; the
/// live delta is kept.
#[test]
fn stale_delta_is_reported_and_deleted_by_fix() {
    let bin = temp("deltastale");
    let (w, edited) = workload_with_delta(&bin);
    let live = pack::delta_files(&bin);
    assert_eq!(live.len(), 1);
    let stale = bin.join(pack::delta_file_name(Pid::from_raw(1)));
    std::fs::copy(&live[0], &stale).unwrap();

    let report = doctor_on(&bin, None, false);
    assert_eq!(report.verdict(), DoctorVerdict::IssuesFound);
    let pack_findings: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.state == "pack")
        .collect();
    assert_eq!(pack_findings.len(), 1, "{}", report.to_json());
    assert!(pack_findings[0].issue.contains("stale delta"));
    let report = doctor_on(&bin, None, true);
    assert_eq!(
        report.verdict(),
        DoctorVerdict::Repaired,
        "{}",
        report.to_json()
    );
    assert!(!stale.exists(), "stale delta deleted");
    assert_eq!(pack::delta_files(&bin), live, "live delta kept");
    assert_eq!(
        doctor_on(&bin, None, false).verdict(),
        DoctorVerdict::Healthy
    );

    // The live delta still serves both edits: a warm build is a no-op.
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.load_bins(&bin).unwrap();
    let report = irm.build(w.project()).unwrap();
    assert!(
        report.recompiled.is_empty(),
        "{edited:?}: {:?}",
        report.recompiled
    );
    std::fs::remove_dir_all(&bin).ok();
}

fn walk_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            out.extend(walk_files(&p));
        } else {
            out.push(p);
        }
    }
    out
}
