//! Durable filesystem idioms shared by every on-disk state writer.
//!
//! Three promises, one place:
//!
//! * **Unique staging names.**  [`unique_tmp`] derives a tmp path from
//!   the destination plus the process id *and* a process-global
//!   sequence number, so two saves — across processes or across
//!   threads of one process — can never clobber each other's staging
//!   file.
//! * **Atomic, durable publication.**  [`commit_atomic`] is the full
//!   tmp + write + fsync + rename + **fsync(parent dir)** sequence.
//!   The final directory fsync is the step the rest of the codebase
//!   historically skipped: `rename(2)` alone orders nothing — after a
//!   power loss the directory entry may still point at the old file,
//!   or at nothing.  Syncing the parent makes the rename itself
//!   durable.
//! * **Crash-point instrumentation.**  Every commit checks its fault
//!   point at three stages — `begin` (nothing written), `staged` (tmp
//!   complete, not yet renamed), `renamed` (renamed, parent not yet
//!   synced) — so the crash-recovery harness can kill the process in
//!   each distinct half-finished state and prove the next build
//!   recovers.
//! * **Base + delta binding.**  A state file that is saved often but
//!   changes a little each time (`bins.pack`, `stamps.json`) keeps a
//!   full **base** and at most one small **delta** beside it, named
//!   `<stem>-<32 hex>.delta` after a digest of the base
//!   (`delta_file_name`).  The name binds the delta to exactly one
//!   base with no header field: a delta whose name does not match the
//!   current base is stale, ignored by loads and deleted by the next
//!   save (`sweep_superseded`).  A delta may hold at most
//!   1/[`DELTA_CAP_DIVISOR`] of its base; a save that would pass that
//!   compacts back into the base instead.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use smlsc_faults::{self as faults, FaultKind};
use smlsc_ids::Pid;

/// A delta may hold at most `1 / DELTA_CAP_DIVISOR` of its base's
/// length; a save that would exceed that compacts instead, so the dead
/// bytes a state directory carries stay below 1.6 % of the base.
pub const DELTA_CAP_DIVISOR: u64 = 64;

/// Process-global staging counter: tmp names stay unique even when two
/// threads of one process save the same destination concurrently.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A staging path for `dest`, unique per process *and* per call:
/// `<stem>.tmp-<pid>-<seq>`.  Always in `dest`'s directory, so the
/// final rename never crosses a filesystem.
pub fn unique_tmp(dest: &Path) -> PathBuf {
    dest.with_extension(format!(
        "tmp-{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// True when `name` looks like one of our staging files (`*.tmp-*`):
/// the litter an interrupted save leaves behind, safe to sweep.
pub fn is_tmp_litter(name: &str) -> bool {
    name.rsplit_once('.')
        .is_some_and(|(_, ext)| ext.starts_with("tmp-"))
}

/// Opens `dir` and fsyncs it, making a just-completed rename within it
/// durable.  Errors are real: a caller that ignores them is back to
/// rename-only semantics.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// Publishes `bytes` at `path` atomically and durably:
/// tmp + write + fsync + rename + fsync(parent).
///
/// `point` is the fault point checked at each stage with a
/// `"<stage> <filename>"` detail (stages `begin`, `staged`,
/// `renamed`), so specs can select a precise half-finished state:
/// `io` fails the commit, `torn` writes only the first half of
/// `bytes` (the file-level corruption readers must detect), `crash`
/// aborts the process on the spot.
///
/// # Errors
///
/// Any IO failure along the sequence; the staging file is removed on
/// the failure paths that can still run code.
pub fn commit_atomic(path: &Path, bytes: &[u8], point: &'static str) -> io::Result<()> {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let mut payload = bytes;
    match faults::check(point, &format!("begin {name}")) {
        Some(FaultKind::Io) => return Err(faults::io_error(point, &name)),
        Some(FaultKind::Torn) => payload = &bytes[..bytes.len() / 2],
        _ => {}
    }
    let tmp = unique_tmp(path);
    let write = || -> io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(payload)?;
        f.sync_all()
    };
    if let Err(e) = write() {
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }
    if let Some(FaultKind::Io) = faults::check(point, &format!("staged {name}")) {
        std::fs::remove_file(&tmp).ok();
        return Err(faults::io_error(point, &name));
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }
    faults::check(point, &format!("renamed {name}"));
    if let Some(dir) = path.parent() {
        fsync_dir(dir)?;
    }
    Ok(())
}

/// The file name of the `stem` delta bound to the base whose digest is
/// `base_digest`: `<stem>-<32 hex>.delta`.
pub(crate) fn delta_file_name(stem: &str, base_digest: Pid) -> String {
    format!("{stem}-{base_digest}.delta")
}

/// True when `name` has the shape of a `stem` delta file name, whichever
/// base it is bound to.
pub(crate) fn is_delta_file_name(stem: &str, name: &str) -> bool {
    name.strip_prefix(stem)
        .and_then(|rest| rest.strip_prefix('-'))
        .and_then(|rest| rest.strip_suffix(".delta"))
        .is_some_and(|hex| hex.len() == 32 && hex.bytes().all(|b| b.is_ascii_hexdigit()))
}

/// Every `stem` delta in `dir`, bound to the current base or not, sorted.
pub(crate) fn delta_files(dir: &Path, stem: &str) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| {
                    e.file_name()
                        .to_str()
                        .is_some_and(|n| is_delta_file_name(stem, n))
                })
                .map(|e| e.path())
                .collect()
        })
        .unwrap_or_default();
    out.sort();
    out
}

/// Deletes what a just-written base or delta supersedes: every `stem`
/// delta in `dir` other than `keep`, plus any file `also_dead` names.
/// Best effort: a file that cannot be removed is only dead weight, since
/// loads never open a delta bound to another base.
pub(crate) fn sweep_superseded(
    dir: &Path,
    stem: &str,
    keep: Option<&Path>,
    also_dead: impl Fn(&Path) -> bool,
) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        let dead_delta = entry
            .file_name()
            .to_str()
            .is_some_and(|n| is_delta_file_name(stem, n))
            && keep != Some(p.as_path());
        if dead_delta || also_dead(&p) {
            std::fs::remove_file(&p).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smlsc_faults::{install_scoped, points, FaultPlan, FaultRule};

    fn temp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "smlsc-fsutil-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn delta_names_bind_a_stem_to_one_base() {
        let name = delta_file_name("stamps", Pid::from_raw(7));
        assert!(is_delta_file_name("stamps", &name));
        assert!(!is_delta_file_name("bins", &name), "stems never mix");
        assert!(!is_delta_file_name("stamps", "stamps-7.delta"));
        assert!(!is_delta_file_name("stamps", "stamps.json"));

        let dir = temp("sweep");
        let keep = dir.join(delta_file_name("stamps", Pid::from_raw(1)));
        let stale = dir.join(delta_file_name("stamps", Pid::from_raw(2)));
        let other = dir.join(delta_file_name("bins", Pid::from_raw(2)));
        for p in [&keep, &stale, &other] {
            std::fs::write(p, b"x").unwrap();
        }
        assert_eq!(delta_files(&dir, "stamps").len(), 2);
        sweep_superseded(&dir, "stamps", Some(&keep), |_| false);
        assert_eq!(delta_files(&dir, "stamps"), vec![keep.clone()]);
        assert!(other.is_file(), "another stem's delta is not swept");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tmp_names_are_unique_per_call() {
        let dest = Path::new("/x/stamps.json");
        let a = unique_tmp(dest);
        let b = unique_tmp(dest);
        assert_ne!(a, b);
        assert!(a.to_string_lossy().contains("tmp-"));
        assert!(is_tmp_litter(&a.file_name().unwrap().to_string_lossy()));
        assert!(!is_tmp_litter("stamps.json"));
        assert!(!is_tmp_litter("bins.pack"));
    }

    #[test]
    fn commit_replaces_the_destination_and_leaves_no_litter() {
        let dir = temp("commit");
        let path = dir.join("state.bin");
        commit_atomic(&path, b"first", points::STAMP_SAVE).unwrap();
        commit_atomic(&path, b"second", points::STAMP_SAVE).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["state.bin"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_io_fails_the_commit_and_keeps_the_old_file() {
        let dir = temp("io");
        let path = dir.join("state.bin");
        commit_atomic(&path, b"good", points::STAMP_SAVE).unwrap();
        for stage in ["begin", "staged"] {
            let _g = install_scoped(
                FaultPlan::default()
                    .with(FaultRule::new(points::STAMP_SAVE, FaultKind::Io).filtered(stage)),
            );
            assert!(commit_atomic(&path, b"bad", points::STAMP_SAVE).is_err());
            assert_eq!(std::fs::read(&path).unwrap(), b"good", "stage {stage}");
        }
        // No staging litter survives either failure.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["state.bin"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_torn_writes_half_the_payload() {
        let dir = temp("torn");
        let path = dir.join("state.bin");
        let _g = install_scoped(
            FaultPlan::default().with(FaultRule::new(points::STAMP_SAVE, FaultKind::Torn)),
        );
        commit_atomic(&path, b"12345678", points::STAMP_SAVE).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"1234");
        std::fs::remove_dir_all(&dir).ok();
    }
}
