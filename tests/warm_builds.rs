//! Warm-build correctness: the persistent stamp cache, the indexed
//! lazy bin archive, and the guarantee that every fast path is
//! *observationally identical* to the eager paranoid baseline.
//!
//! The central property: stamped and paranoid sessions, over pack and
//! legacy per-file bins, produce bit-identical export pids and the
//! same `RebuildDecision` sequence after any seeded edit history.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use smlsc_core::irm::{Irm, Project, Strategy};
use smlsc_core::{trace, RebuildDecision};
use smlsc_faults::{install_scoped, points, FaultKind, FaultPlan, FaultRule};
use smlsc_ids::Pid;
use smlsc_workload::{module_name, EditKind, Topology, Workload, WorkloadSpec};

static NEXT: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "smlsc-warm-{name}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn project() -> Project {
    let mut p = Project::new();
    p.add("base", "structure Base = struct val n = 10 end");
    p.add("mid", "structure Mid = struct val v = Base.n + 1 end");
    p.add("top", "structure Top = struct val t = Mid.v * 2 end");
    p
}

fn export_pids(irm: &Irm) -> Vec<(String, Pid)> {
    let mut pids: Vec<(String, Pid)> = ["base", "mid", "top"]
        .iter()
        .map(|n| (n.to_string(), irm.bin_meta(n).unwrap().export_pid))
        .collect();
    pids.sort();
    pids
}

/// Holds the process-wide fault gate, with an empty plan, for the rest of
/// the test.  Fault plans are process-global, so without it a save of a
/// unit named `mid` here could fire the `bin.save=torn(mid)` rule of
/// `torn_archive_body_quarantines_only_the_affected_unit` whenever the
/// two tests run concurrently.
fn no_foreign_faults() -> smlsc_faults::ScopedFaults {
    install_scoped(FaultPlan::default())
}

/// A torn body inside `bins.pack` — written under the *true* digest, so
/// the index loads cleanly — is caught on first use and quarantines
/// exactly the affected unit; everything else still links from the
/// archive.
#[test]
fn torn_archive_body_quarantines_only_the_affected_unit() {
    let dir = temp_dir("torn-body");
    let p = project();
    let clean = {
        let mut irm = Irm::new(Strategy::Cutoff);
        irm.build(&p).unwrap();
        let pids = export_pids(&irm);
        let _guard = install_scoped(
            FaultPlan::default()
                .with(FaultRule::new(points::BIN_SAVE, FaultKind::Torn).filtered("mid")),
        );
        irm.save_bins(&dir).unwrap();
        pids
    };

    let collector = trace::Collector::new();
    collector.install();
    let mut session = Irm::new(Strategy::Cutoff);
    let outcome = session.load_bins(&dir).unwrap();
    // The index is intact, so loading sees nothing wrong yet: bodies
    // are verified lazily, on first use.
    assert_eq!(outcome.loaded, 3, "{:?}", outcome.corrupt);
    assert!(outcome.corrupt.is_empty(), "{:?}", outcome.corrupt);

    // Linking forces bodies; the torn one is quarantined and exactly
    // `mid` recompiles, while `base` and `top` rehydrate from the
    // archive.  `mid`'s interface is unchanged, so `top` is cut off.
    let (report, env) = session.execute(&p).unwrap();
    trace::uninstall();
    assert_eq!(env.len(), 3);
    assert!(report.was_recompiled("mid"), "{:?}", report.decisions);
    assert!(!report.was_recompiled("base"), "{:?}", report.decisions);
    assert!(!report.was_recompiled("top"), "{:?}", report.decisions);
    assert_eq!(collector.counter(trace::names::BIN_BODY_QUARANTINED), 1);
    assert_eq!(export_pids(&session), clean);
    std::fs::remove_dir_all(&dir).ok();
}

/// Damage to the archive's *index* (footer truncation, a flipped byte
/// inside the index JSON) rejects the whole archive in one corruption
/// report; the build degrades to a full recompile and matches clean.
#[test]
fn corrupt_archive_index_degrades_to_full_recompile() {
    let _faults = no_foreign_faults();
    let p = project();
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(&p).unwrap();
    let clean = export_pids(&irm);

    for what in ["truncated-footer", "flipped-index"] {
        let dir = temp_dir(what);
        irm.save_bins(&dir).unwrap();
        let pack = dir.join("bins.pack");
        let mut bytes = std::fs::read(&pack).unwrap();
        match what {
            "truncated-footer" => bytes.truncate(bytes.len() - 8),
            _ => {
                // Last byte before the 40-byte footer sits inside the
                // binary index: flipping it breaks the index digest.
                let k = bytes.len() - 41;
                bytes[k] ^= 0xff;
            }
        }
        std::fs::write(&pack, &bytes).unwrap();

        let mut session = Irm::new(Strategy::Cutoff);
        let outcome = session.load_bins(&dir).unwrap();
        assert_eq!(outcome.loaded, 0, "{what}");
        assert_eq!(outcome.corrupt.len(), 1, "{what}: {:?}", outcome.corrupt);
        let report = session.build(&p).unwrap();
        assert_eq!(report.recompiled.len(), 3, "{what}: {:?}", report.decisions);
        assert_eq!(export_pids(&session), clean, "{what}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Transcribes a session's saved v2 archive into a `SMLSPAK1` archive
/// with `SMLCBIN1` JSON bodies — the on-disk state a project last built
/// before the binary-index format existed.  `mutate` may corrupt a
/// body's bytes *before* the (matching) digest is computed, modelling a
/// torn write under the true digest.
fn transcribe_to_v1(v2_pack: &Path, v1_pack: &Path, mutate: impl Fn(&str, &mut Vec<u8>)) {
    use smlsc_core::pack::PackReader;
    let reader = PackReader::open(v2_pack).unwrap().expect("archive exists");
    let items: Vec<(smlsc_core::BinMeta, Vec<u8>)> = reader
        .entries()
        .iter()
        .map(|e| {
            let body = reader.read_body(e.offset, e.len, e.digest).unwrap();
            let bin = smlsc_core::BinFile::from_bytes(&body).unwrap();
            let mut legacy = bin.to_legacy_v1_bytes();
            mutate(e.name.as_str(), &mut legacy);
            (e.meta(), legacy)
        })
        .collect();
    smlsc_core::pack::write_legacy_v1_pack(v1_pack, &items).unwrap();
}

/// A project last saved under the version-1 pack format (JSON index,
/// JSON bodies) must load, build warm with zero recompiles, and have its
/// archive rewritten in the current binary format by the next save —
/// even a save with nothing newly compiled.
#[test]
fn legacy_v1_archive_loads_builds_warm_and_is_rewritten_as_v2() {
    let _faults = no_foreign_faults();
    use smlsc_core::pack::PACK_FILE;
    let base = temp_dir("v1-migrate");
    let p = project();
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(&p).unwrap();
    let clean = export_pids(&irm);
    let v2 = base.join("v2");
    irm.save_bins(&v2).unwrap();

    let v1 = base.join("v1");
    std::fs::create_dir_all(&v1).unwrap();
    transcribe_to_v1(&v2.join(PACK_FILE), &v1.join(PACK_FILE), |_, _| {});
    let head = std::fs::read(v1.join(PACK_FILE)).unwrap();
    assert_eq!(&head[..8], b"SMLSPAK1");

    // A warm session over the v1 archive: everything loads, nothing
    // recompiles, pids match the original build exactly.
    let mut warm = Irm::new(Strategy::Cutoff);
    let outcome = warm.load_bins(&v1).unwrap();
    assert_eq!(outcome.loaded, 3, "{:?}", outcome.corrupt);
    assert!(outcome.corrupt.is_empty(), "{:?}", outcome.corrupt);
    let report = warm.build(&p).unwrap();
    assert_eq!(report.recompiled.len(), 0, "{:?}", report.decisions);
    assert_eq!(export_pids(&warm), clean);

    // The clean no-op save must still rewrite: a legacy-format archive
    // never counts as synced.
    warm.save_bins(&v1).unwrap();
    let head = std::fs::read(v1.join(PACK_FILE)).unwrap();
    assert_eq!(&head[..8], b"SMLSPAK2", "archive upgraded on save");

    // And the upgraded archive round-trips.
    let mut again = Irm::new(Strategy::Cutoff);
    let outcome = again.load_bins(&v1).unwrap();
    assert_eq!(outcome.loaded, 3, "{:?}", outcome.corrupt);
    let report = again.build(&p).unwrap();
    assert_eq!(report.recompiled.len(), 0, "{:?}", report.decisions);
    assert_eq!(export_pids(&again), clean);
    std::fs::remove_dir_all(&base).ok();
}

/// Torn-body quarantine behaves identically across pack versions: a v1
/// body corrupted under its true digest is caught on first force, the
/// unit alone recompiles, and the save that follows writes a clean v2
/// archive.
#[test]
fn torn_v1_body_quarantines_and_upgrade_save_heals() {
    let _faults = no_foreign_faults();
    use smlsc_core::pack::PACK_FILE;
    let base = temp_dir("v1-torn");
    let p = project();
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(&p).unwrap();
    let clean = export_pids(&irm);
    let v2 = base.join("v2");
    irm.save_bins(&v2).unwrap();

    let v1 = base.join("v1");
    std::fs::create_dir_all(&v1).unwrap();
    transcribe_to_v1(&v2.join(PACK_FILE), &v1.join(PACK_FILE), |name, body| {
        if name == "mid" {
            // Inside the JSON payload, past the SMLCBIN1 magic.
            let k = body.len() / 2;
            body[k] ^= 0xff;
        }
    });

    let collector = trace::Collector::new();
    collector.install();
    let mut session = Irm::new(Strategy::Cutoff);
    let outcome = session.load_bins(&v1).unwrap();
    assert_eq!(outcome.loaded, 3, "index loads; bodies verify lazily");
    // Linking forces every body; the corrupt v1 body is caught there.
    let (report, env) = session.execute(&p).unwrap();
    trace::uninstall();
    assert_eq!(env.len(), 3);
    assert_eq!(collector.counter(trace::names::BIN_BODY_QUARANTINED), 1);
    assert!(report.was_recompiled("mid"), "{:?}", report.decisions);
    assert_eq!(report.recompiled.len(), 1, "{:?}", report.decisions);
    assert_eq!(export_pids(&session), clean);

    session.save_bins(&v1).unwrap();
    let head = std::fs::read(v1.join(PACK_FILE)).unwrap();
    assert_eq!(&head[..8], b"SMLSPAK2");
    let mut again = Irm::new(Strategy::Cutoff);
    let outcome = again.load_bins(&v1).unwrap();
    assert_eq!(outcome.loaded, 3, "{:?}", outcome.corrupt);
    let report = again.build(&p).unwrap();
    assert_eq!(report.recompiled.len(), 0, "{:?}", report.decisions);
    std::fs::remove_dir_all(&base).ok();
}

/// The PR's acceptance property: a no-op warm build touches *no JSON
/// and no source text* on the hot path.  Stamps, pack index, and bin
/// bodies are all the binary wire format (checked by magic), the build
/// reads zero sources, and when bodies do rehydrate (execute), the
/// pickles stream through borrowed slices: `pickle.bytes` counts real
/// work while `rehydrate.allocs` stays zero.
#[test]
fn noop_warm_build_is_binary_end_to_end_and_allocation_free() {
    let _faults = no_foreign_faults();
    use smlsc_core::pack::PACK_FILE;
    let base = temp_dir("zero-json");
    let src = base.join("src");
    let bins = base.join("bins");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(
        src.join("base.sml"),
        "structure Base = struct val n = 10 end",
    )
    .unwrap();
    std::fs::write(
        src.join("mid.sml"),
        "structure Mid = struct val v = Base.n + 1 end",
    )
    .unwrap();
    std::fs::write(
        src.join("top.sml"),
        "structure Top = struct val t = Mid.v * 2 end",
    )
    .unwrap();

    let mut irm = Irm::new(Strategy::Cutoff);
    let p = Project::from_dir(&src).unwrap();
    irm.build(&p).unwrap();
    irm.save_bins(&bins).unwrap();
    irm.save_stamps(&bins.join("stamps.json")).unwrap();

    // Every persisted cache leads with its binary magic, not JSON.
    let stamps = std::fs::read(bins.join("stamps.json")).unwrap();
    assert_eq!(&stamps[..8], b"SMLSSTM2", "stamp cache is binary");
    let pack = std::fs::read(bins.join(PACK_FILE)).unwrap();
    assert_eq!(&pack[..8], b"SMLSPAK2", "pack index is binary");

    let collector = trace::Collector::new();
    collector.install();
    let mut warm = Irm::new(Strategy::Cutoff);
    warm.load_stamps(&bins.join("stamps.json"));
    warm.load_bins(&bins).unwrap();
    let p2 = Project::from_dir(&src).unwrap();
    let report = warm.build(&p2).unwrap();
    trace::uninstall();

    assert_eq!(report.recompiled.len(), 0, "{:?}", report.decisions);
    assert_eq!(collector.counter(trace::names::STAMP_HITS), 3);
    assert_eq!(collector.counter(trace::names::SOURCE_READS), 0);
    assert_eq!(collector.counter(trace::names::BIN_INDEX_ONLY), 3);
    assert_eq!(collector.counter(trace::names::BIN_LAZY_BODIES), 0);
    assert_eq!(
        collector.counter(trace::names::REHYDRATE_ALLOCS),
        0,
        "nothing rehydrated, nothing copied"
    );

    // A leaf edit makes `top` recompile, which rehydrates its import's
    // pickled env — still without copying a single string or byte
    // buffer out of the pickle.
    std::fs::write(
        src.join("top.sml"),
        "structure Top = struct val t = Mid.v * 3 end",
    )
    .unwrap();
    let collector = trace::Collector::new();
    collector.install();
    let p3 = Project::from_dir(&src).unwrap();
    let report = warm.build(&p3).unwrap();
    trace::uninstall();
    assert_eq!(report.recompiled.len(), 1, "{:?}", report.decisions);
    assert!(
        collector.counter(trace::names::PICKLE_BYTES) > 0,
        "pickles were actually parsed"
    );
    assert_eq!(
        collector.counter(trace::names::REHYDRATE_ALLOCS),
        0,
        "rehydration is allocation-free over borrowed slices"
    );
    std::fs::remove_dir_all(&base).ok();
}

/// A rename preserves (mtime, size) and content exactly — the
/// adversarial case for a stamp cache.  The stamp is keyed by path and
/// unit name, so the renamed file must re-digest, and the deps cache
/// (keyed by unit) must never serve the old unit's analysis.
#[test]
fn renamed_file_never_serves_stale_stamps_or_analysis() {
    let base = temp_dir("rename");
    let src = base.join("src");
    let bins = base.join("bins");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(src.join("a.sml"), "structure A = struct val n = 1 end").unwrap();

    let mut irm = Irm::new(Strategy::Cutoff);
    let p = Project::from_dir(&src).unwrap();
    irm.build(&p).unwrap();
    irm.save_bins(&bins).unwrap();
    irm.save_stamps(&bins.join("stamps.json")).unwrap();

    std::fs::rename(src.join("a.sml"), src.join("b.sml")).unwrap();

    let collector = trace::Collector::new();
    collector.install();
    let mut warm = Irm::new(Strategy::Cutoff);
    warm.load_stamps(&bins.join("stamps.json"));
    warm.load_bins(&bins).unwrap();
    let p2 = Project::from_dir(&src).unwrap();
    let report = warm.build(&p2).unwrap();
    trace::uninstall();

    assert_eq!(collector.counter(trace::names::STAMP_HITS), 0);
    assert!(report.was_recompiled("b"), "{:?}", report.decisions);
    assert!(matches!(report.decisions[0], (_, RebuildDecision::NewUnit)));
    assert!(warm.bin_meta("b").is_some());
    std::fs::remove_dir_all(&base).ok();
}

// ---------------------------------------------------------------------
// The 4-configuration equivalence property.
// ---------------------------------------------------------------------

/// One of the four warm-build configurations under test.
#[derive(Clone, Copy)]
struct Config {
    /// Distrust stamps: re-read and re-digest every source.
    paranoid: bool,
    /// Persist bins as the indexed archive (vs legacy per-unit files).
    pack: bool,
}

const CONFIGS: [Config; 4] = [
    Config {
        paranoid: false,
        pack: true,
    }, // the fast path
    Config {
        paranoid: false,
        pack: false,
    },
    Config {
        paranoid: true,
        pack: true,
    },
    Config {
        paranoid: true,
        pack: false,
    }, // the eager baseline
];

/// Mirrors the workload's current sources into `src` as real files.
fn write_sources(src: &Path, w: &Workload) {
    for i in 0..w.module_count() {
        let name = module_name(i);
        let text = w.project().file(&name).unwrap().read_text().unwrap();
        std::fs::write(src.join(format!("{name}.sml")), text).unwrap();
    }
}

/// Per-unit (name, source pid, export pid) observed after a build.
type UnitPids = Vec<(String, Pid, Pid)>;

/// Runs one cold-process build session for `cfg` against the sources in
/// `src`, persisting bins and stamps under `bin_dir`, and returns the
/// decision sequence plus every unit's (source pid, export pid).
fn session_step(
    cfg: Config,
    src: &Path,
    bin_dir: &Path,
    n: usize,
) -> (Vec<(String, RebuildDecision)>, UnitPids) {
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.set_paranoid(cfg.paranoid);
    let stamps = bin_dir.join("stamps.json");
    irm.load_stamps(&stamps);
    if bin_dir.is_dir() {
        let outcome = irm.load_bins(bin_dir).unwrap();
        assert!(outcome.corrupt.is_empty(), "{:?}", outcome.corrupt);
    }
    let project = Project::from_dir(src).unwrap();
    let report = irm.build(&project).unwrap();
    let decisions = report
        .decisions
        .iter()
        .map(|(s, d)| (s.to_string(), d.clone()))
        .collect();
    if cfg.pack {
        irm.save_bins(bin_dir).unwrap();
    } else {
        irm.save_bins_files(bin_dir).unwrap();
    }
    irm.save_stamps(&stamps).unwrap();
    let pids = (0..n)
        .map(|i| {
            let name = module_name(i);
            let meta = irm.bin_meta(&name).expect("built unit has a bin");
            (name, meta.source_pid, meta.export_pid)
        })
        .collect();
    (decisions, pids)
}

use proptest::strategy::Strategy as PropStrategy;

fn arb_edit() -> impl PropStrategy<Value = EditKind> {
    prop_oneof![
        Just(EditKind::CommentOnly),
        Just(EditKind::BodyOnly),
        Just(EditKind::InterfaceAdd),
        Just(EditKind::InterfaceChangeType),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Over any seeded edit history, all four configurations —
    /// {stamped, paranoid} × {indexed archive, legacy per-file bins} —
    /// produce bit-identical source/export pids and the exact same
    /// `RebuildDecision` sequence at every step.
    #[test]
    fn warm_paths_agree_with_the_eager_paranoid_baseline(
        seed in any::<u64>(),
        edits in proptest::collection::vec((any::<u16>(), arb_edit()), 1..4),
    ) {
        let spec = WorkloadSpec {
            topology: Topology::Library { lib: 2, clients: 3, seed },
            funs_per_module: 1,
            reexport_dep_types: false,
        };
        let mut w = Workload::new(spec);
        let n = w.module_count();
        let base = temp_dir("equiv");
        let src = base.join("src");
        std::fs::create_dir_all(&src).unwrap();
        let bin_dirs: Vec<PathBuf> = (0..CONFIGS.len()).map(|i| base.join(format!("cfg{i}"))).collect();
        write_sources(&src, &w);

        for step in 0..=edits.len() {
            if step > 0 {
                let (victim, kind) = edits[step - 1];
                w.edit(victim as usize % n, kind);
                write_sources(&src, &w);
            }
            let results: Vec<_> = CONFIGS
                .iter()
                .zip(&bin_dirs)
                .map(|(cfg, dir)| session_step(*cfg, &src, dir, n))
                .collect();
            for (i, r) in results.iter().enumerate().skip(1) {
                prop_assert_eq!(
                    &r.0, &results[0].0,
                    "step {}: config {} decisions diverged from the fast path", step, i
                );
                prop_assert_eq!(
                    &r.1, &results[0].1,
                    "step {}: config {} pids diverged from the fast path", step, i
                );
            }
            // On the no-op step 0 re-check below, the fast path must
            // also *reuse* everything (sanity that the cache persists).
        }

        // One final no-op step: every configuration reuses every unit.
        for (cfg, dir) in CONFIGS.iter().zip(&bin_dirs) {
            let (decisions, _) = session_step(*cfg, &src, dir, n);
            prop_assert!(
                decisions.iter().all(|(_, d)| !d.requires_recompile()),
                "no-op rebuild recompiled something: {:?}", decisions
            );
        }
        std::fs::remove_dir_all(&base).ok();
    }
}

/// The save after a one-leaf body edit is O(edit): it writes a delta
/// holding exactly the recompiled unit, so `irm.bin_bytes_written` is
/// that unit's serialized body length and the base is never rewritten
/// (`pack.compactions` stays 0).  A fresh session then sees the edit
/// through the merged base ⊕ delta view and reuses everything.
#[test]
fn leaf_edit_saves_exactly_its_body_as_a_delta() {
    use smlsc_core::pack::{MergedPack, PACK_FILE};
    let bins = temp_dir("delta-exact");
    let units = 200;
    let mut w = Workload::new(WorkloadSpec::with_topology(Topology::Monorepo {
        units,
        seed: 5,
    }));
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(w.project()).unwrap();
    irm.save_bins(&bins).unwrap();
    let base_before = std::fs::read(bins.join(PACK_FILE)).unwrap();

    let leaf = w.leaf_consumer().expect("a unit nothing imports");
    let name = module_name(leaf);
    w.edit(leaf, EditKind::BodyOnly);
    let collector = trace::Collector::new();
    collector.install();
    let report = irm.build(w.project()).unwrap();
    irm.save_bins(&bins).unwrap();
    trace::uninstall();
    assert_eq!(report.recompiled.len(), 1, "{:?}", report.recompiled);
    let body_len = irm.bin(&name).unwrap().to_bytes().len() as u64;
    assert_eq!(
        collector.counter(trace::names::BIN_BYTES_WRITTEN),
        body_len,
        "the save wrote exactly the edited unit's body"
    );
    assert_eq!(collector.counter(trace::names::PACK_COMPACTIONS), 0);
    assert_eq!(
        std::fs::read(bins.join(PACK_FILE)).unwrap(),
        base_before,
        "the base is untouched"
    );

    let merged = MergedPack::open(&bins).unwrap().unwrap();
    let delta = merged.delta().expect("the edit went to a delta");
    assert_eq!(delta.entries().len(), 1);
    assert_eq!(delta.entries()[0].name.as_str(), name);
    assert_eq!(delta.entries()[0].len, body_len);

    let mut warm = Irm::new(Strategy::Cutoff);
    let outcome = warm.load_bins(&bins).unwrap();
    assert_eq!(outcome.loaded, units, "{:?}", outcome.corrupt);
    assert!(outcome.corrupt.is_empty(), "{:?}", outcome.corrupt);
    let report = warm.build(w.project()).unwrap();
    assert!(report.recompiled.is_empty(), "{:?}", report.recompiled);
    assert_eq!(
        warm.bin_meta(&name).unwrap().source_pid,
        irm.bin_meta(&name).unwrap().source_pid
    );

    // A second leaf edit in that fresh session: the new delta carries
    // the first edit's body over, copied raw from the old delta, beside
    // the fresh compile.  Still no compaction.
    let (first, first_len) = (name, body_len);
    let second_ix = (0..units)
        .find(|&i| i != leaf && !w.deps().iter().any(|d| d.contains(&i)))
        .expect("a second leaf");
    let second = module_name(second_ix);
    w.edit(second_ix, EditKind::BodyOnly);
    let collector = trace::Collector::new();
    collector.install();
    let report = warm.build(w.project()).unwrap();
    warm.save_bins(&bins).unwrap();
    trace::uninstall();
    assert_eq!(report.recompiled.len(), 1, "{:?}", report.recompiled);
    let second_len = warm.bin(&second).unwrap().to_bytes().len() as u64;
    assert_eq!(
        collector.counter(trace::names::BIN_BYTES_WRITTEN),
        first_len + second_len
    );
    assert_eq!(collector.counter(trace::names::PACK_COMPACTIONS), 0);
    let merged = MergedPack::open(&bins).unwrap().unwrap();
    let mut in_delta: Vec<&str> = merged
        .delta()
        .unwrap()
        .entries()
        .iter()
        .map(|e| e.name.as_str())
        .collect();
    in_delta.sort_unstable();
    let mut want = [first.as_str(), second.as_str()];
    want.sort_unstable();
    assert_eq!(in_delta, want);

    let mut third = Irm::new(Strategy::Cutoff);
    assert_eq!(third.load_bins(&bins).unwrap().loaded, units);
    let report = third.build(w.project()).unwrap();
    assert!(report.recompiled.is_empty(), "{:?}", report.recompiled);
    std::fs::remove_dir_all(&bins).ok();
}
