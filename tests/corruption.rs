//! Corruption recovery: malformed bin files are reported as
//! `CoreError::CorruptBin`, and a build over a damaged bin cache
//! degrades to recompiling exactly the damaged units — never to a wrong
//! answer.

use std::path::{Path, PathBuf};

use smlsc_core::irm::{Irm, Project, Strategy};
use smlsc_core::{BinFile, CoreError};
use smlsc_ids::Pid;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smlsc-corrupt-{name}-{}", std::process::id()));
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
        .map(|n| (n.to_string(), irm.bin(n).unwrap().unit.export_pid))
        .collect();
    pids.sort();
    pids
}

fn saved_bin(dir: &Path, unit: &str) -> Vec<u8> {
    std::fs::read(dir.join(format!("{unit}.bin"))).unwrap()
}

#[test]
fn truncated_bin_is_corrupt() {
    let dir = temp_dir("trunc");
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(&project()).unwrap();
    irm.save_bins_files(&dir).unwrap();

    let bytes = saved_bin(&dir, "mid");
    let truncated = &bytes[..bytes.len() / 2];
    assert!(matches!(
        BinFile::from_bytes(truncated),
        Err(CoreError::CorruptBin(_))
    ));
    // Truncating *into* the magic is also corrupt, not a panic.
    assert!(matches!(
        BinFile::from_bytes(&bytes[..4]),
        Err(CoreError::CorruptBin(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flipped_bin_is_corrupt() {
    let dir = temp_dir("flip");
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(&project()).unwrap();
    irm.save_bins_files(&dir).unwrap();

    let mut bytes = saved_bin(&dir, "base");
    // Flip a byte inside the payload; the container self-digest catches it.
    let k = bytes.len() - 2;
    bytes[k] ^= 0xff;
    assert!(matches!(
        BinFile::from_bytes(&bytes),
        Err(CoreError::CorruptBin(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wrong_magic_is_corrupt() {
    assert!(matches!(
        BinFile::from_bytes(b"WRONGMAG{\"unit\":{}}"),
        Err(CoreError::CorruptBin(_))
    ));
    assert!(matches!(
        BinFile::from_bytes(b""),
        Err(CoreError::CorruptBin(_))
    ));
}

#[test]
fn build_over_a_corrupted_cache_recompiles_and_matches() {
    let dir = temp_dir("rebuild");
    let p = project();
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(&p).unwrap();
    irm.save_bins_files(&dir).unwrap();
    let clean_pids = export_pids(&irm);

    // Damage one bin three different ways across three fresh sessions;
    // each session loads what it can, recompiles the rest, and lands on
    // identical export pids.
    let original = saved_bin(&dir, "mid");
    let mut flipped = original.clone();
    let k = flipped.len() - 2;
    flipped[k] ^= 0xff;
    let damages: Vec<(&str, Vec<u8>)> = vec![
        ("truncated", original[..original.len() / 2].to_vec()),
        ("bit-flipped", flipped),
        ("wrong-magic", b"NOTABIN!garbage".to_vec()),
    ];
    for (what, bytes) in damages {
        std::fs::write(dir.join("mid.bin"), &bytes).unwrap();
        let mut session = Irm::new(Strategy::Cutoff);
        let outcome = session.load_bins(&dir).unwrap();
        assert_eq!(outcome.loaded, 2, "{what}: {:?}", outcome.corrupt);
        assert_eq!(outcome.corrupt.len(), 1, "{what}");
        assert!(
            matches!(outcome.corrupt[0].1, CoreError::CorruptBin(_)),
            "{what}: {:?}",
            outcome.corrupt[0]
        );

        let report = session.build(&p).unwrap();
        assert!(
            report.was_recompiled("mid"),
            "{what}: {:?}",
            report.decisions
        );
        assert!(!report.was_recompiled("base"), "{what}");
        // mid's interface is unchanged, so top is cut off, not rebuilt.
        assert!(
            !report.was_recompiled("top"),
            "{what}: {:?}",
            report.decisions
        );
        assert_eq!(export_pids(&session), clean_pids, "{what}");
        let (_, env) = session.execute(&p).unwrap();
        assert_eq!(env.len(), 3, "{what}");

        // Re-save repairs the cache for the next round.
        session.save_bins(&dir).unwrap();
        let check = Irm::new(Strategy::Cutoff)
            .load_bins(&dir)
            .map(|o| o.corrupt.len());
        assert_eq!(check.unwrap(), 0, "{what}: save did not repair");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn atomic_save_leaves_no_temp_files_and_skips_clean_bins() {
    let dir = temp_dir("atomic");
    let p = project();
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(&p).unwrap();
    irm.save_bins_files(&dir).unwrap();

    let entries = || {
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    assert_eq!(entries(), ["base.bin", "mid.bin", "top.bin"]);

    // A second save with nothing dirty must rewrite nothing: mtimes of
    // the on-disk files stay identical.
    let stamp = |name: &str| {
        std::fs::metadata(dir.join(name))
            .unwrap()
            .modified()
            .unwrap()
    };
    let before: Vec<_> = ["base.bin", "mid.bin", "top.bin"]
        .iter()
        .map(|n| stamp(n))
        .collect();
    irm.save_bins_files(&dir).unwrap();
    let after: Vec<_> = ["base.bin", "mid.bin", "top.bin"]
        .iter()
        .map(|n| stamp(n))
        .collect();
    assert_eq!(before, after, "no-op save must not rewrite bins");
    assert_eq!(entries(), ["base.bin", "mid.bin", "top.bin"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn atomic_archive_save_migrates_and_skips_when_clean() {
    let dir = temp_dir("atomic-pack");
    let p = project();
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(&p).unwrap();
    irm.save_bins_files(&dir).unwrap();

    // A fresh session loads the legacy files and saves the archive:
    // the per-unit bins migrate into `bins.pack` and are deleted.
    let mut session = Irm::new(Strategy::Cutoff);
    assert_eq!(session.load_bins(&dir).unwrap().loaded, 3);
    session.save_bins(&dir).unwrap();
    let entries = || {
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    assert_eq!(entries(), ["bins.pack"]);

    // A load + no-op save must not rewrite the archive.  The first warm
    // save publishes the import-DAG sidecar next to the archive; a second
    // no-op save must leave both files untouched.
    let mut warm = Irm::new(Strategy::Cutoff);
    assert_eq!(warm.load_bins(&dir).unwrap().loaded, 3);
    warm.build(&p).unwrap();
    let before = std::fs::metadata(dir.join("bins.pack"))
        .unwrap()
        .modified()
        .unwrap();
    warm.save_bins(&dir).unwrap();
    let after = std::fs::metadata(dir.join("bins.pack"))
        .unwrap()
        .modified()
        .unwrap();
    assert_eq!(before, after, "no-op save must not rewrite the archive");
    assert_eq!(entries(), ["bins.pack", "deps.pack"]);
    let deps_before = std::fs::metadata(dir.join("deps.pack"))
        .unwrap()
        .modified()
        .unwrap();
    warm.save_bins(&dir).unwrap();
    let deps_after = std::fs::metadata(dir.join("deps.pack"))
        .unwrap()
        .modified()
        .unwrap();
    assert_eq!(
        deps_before, deps_after,
        "no-op save must not rewrite the sidecar"
    );
    std::fs::remove_dir_all(&dir).ok();
}
