//! The persistent stamp cache: `(path, mtime_ns, size) → analysis`.
//!
//! The paper's IRM promises that an unchanged project costs only digest
//! checks — but even digesting requires *reading* every source.  The
//! stamp cache removes that last O(project) scan: when a file's path,
//! mtime (nanoseconds) and size all match the recorded stamp, the
//! manager reuses the recorded source pid and dependency analysis
//! without opening the file at all.
//!
//! Stamps are a *hint*, never the truth (the paper's §4 stance applied
//! to timestamps): every pid that participates in a rebuild decision was
//! originally computed from file contents, and `--paranoid` re-reads and
//! re-digests everything, bypassing the stamp cache entirely.  A
//! property test asserts stamped and paranoid runs produce identical
//! pids and identical rebuild decisions.
//!
//! # Keys and the shape pid
//!
//! An entry is keyed by the file's path as the manager resolved it: the
//! canonicalized project directory plus the file name (see
//! [`crate::irm::Project::from_dir`]), so `t`, `./t` and `/abs/t` share
//! one entry per file.  Each [`Analysis`] carries three digests: the
//! source pid (file bytes), the deps pid (token stream, which keeps a
//! comment edit from re-parsing) and the **shape pid**, a digest of the
//! sorted imports plus the exports.  The shape pid is what the import
//! DAG (`deps.pack`, [`crate::depgraph`]) is keyed on: a body edit
//! changes the first two and leaves the shape, so the DAG is reused.  It
//! is computed once, when the analysis is made, and persisted in the
//! record, never recomputed on load.
//!
//! # Base and delta
//!
//! The cache persists as a **base**, `stamps.json` (historically named,
//! kept for compatibility; the content is the binary `SMLSSTM2` format
//! below), plus at most one **delta** beside it,
//! `stamps-<32 hex>.delta`, in the same format.  The delta holds every
//! entry recorded since the base was written, so a one-file edit saves
//! one record, not the project.  It is bound to its base by name: the
//! hex is the base's payload digest (`fsutil::delta_file_name`).
//! A load reads the base and overlays the matching delta by key; a
//! delta bound to another base is ignored and deleted by the next save.
//! A save **compacts** — rewrites the base from every entry and deletes
//! the delta — when there is no current base (cold, legacy or corrupt)
//! or when the delta would pass 1/[`DELTA_CAP_DIVISOR`] of the base.
//! A build whose project no longer has a file for some entry (a rename,
//! a removal) drops those entries (`StampCache::retain`) and makes its
//! save compact, so they leave the base too.
//!
//! Both files are published with the durable tmp + fsync + rename +
//! fsync(parent) idiom ([`crate::fsutil::commit_atomic`], fault point
//! `stamp.save`), so a crash mid-save can never tear either one.
//!
//! **Racy entries.**  Each file's entries are trusted only if stamped
//! strictly before that file's own mtime: the base's entries are cut
//! off at the base's mtime and the delta's at the delta's.  A file
//! edited within the same mtime tick and to the same size as its stamp
//! would otherwise be served as a hit with stale analysis.
//!
//! # On-disk layout (base and delta alike)
//!
//! ```text
//! magic "SMLSSTM2" (8 bytes)
//! payload:
//!   u32 format version (4)
//!   u32 directory count
//!   per directory, sorted:
//!     str directory                       -- the key up to its last '/'
//!     u32 entry count
//!     per entry, sorted by file name:     -- key = directory + name
//!       str file name | str unit | u64 mtime_ns | u64 size
//!       u128 source pid | u128 deps pid | u128 shape pid
//!       u32 import count, then that many str
//!       u32 export count, then that many str
//! u128 digest of payload (little-endian)
//! ```
//!
//! In memory, too, entries are grouped by directory: a project's files
//! share one directory string, and each entry stores only its file
//! name.
//!
//! A file of another version reads as absent.  Version-1 JSON stamp
//! files are still readable and are rewritten in the binary format by
//! the next save.  A missing or corrupt stamp file is *not* an error —
//! it degrades to "no hints", i.e. the cold path.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use smlsc_ids::{Pid, Symbol};
use smlsc_pickle::wire::{Reader, Writer};
use smlsc_trace::{self as trace, names};

use crate::fsutil::{self, DELTA_CAP_DIVISOR};
use crate::CoreError;

/// Version of the stamp-file format; a mismatch discards the file.
/// Version 4 changed no layout: its deps pids are the binary token
/// digest, so version-3 deps pids would never match again.
const STAMP_VERSION: u32 = 4;
/// The JSON format this repo shipped first; still readable, migrated on
/// the next save.
const LEGACY_STAMP_VERSION: u32 = 1;

/// Leading magic of the binary stamp file; a `u32` version field
/// follows it inside the digest-checked payload.
const STAMP_MAGIC: &[u8; 8] = b"SMLSSTM2";

/// The stem of the stamp delta's file name (`stamps-<32 hex>.delta`).
const DELTA_STEM: &str = "stamps";

/// The dependency analysis recorded for one source: its content, token
/// and shape digests plus the import/export lists.  Shared by [`Arc`]
/// between the stamp cache and the manager's in-memory deps cache, so
/// a warm stamp hit costs a refcount bump — never a clone of the
/// vectors (at monorepo scale those per-unit clones dominated the
/// no-op analyze phase).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    /// Digest of the file contents at stamp time.
    pub source_pid: Pid,
    /// Digest of the token stream (comment/whitespace-insensitive).
    pub deps_pid: Pid,
    /// Digest of the sorted `imports` plus the `exports`: all the import
    /// DAG reads of this unit.
    pub shape_pid: Pid,
    /// Imported module names, sorted.
    pub imports: Vec<Symbol>,
    /// Exported module names.
    pub exports: Vec<Symbol>,
}

impl Analysis {
    /// An analysis with its shape pid computed from `imports` (sorted)
    /// and `exports`.
    pub fn new(
        source_pid: Pid,
        deps_pid: Pid,
        imports: Vec<Symbol>,
        exports: Vec<Symbol>,
    ) -> Analysis {
        Analysis {
            source_pid,
            deps_pid,
            shape_pid: Analysis::shape_of(&imports, &exports),
            imports,
            exports,
        }
    }

    /// The shape pid of an import and an export list: equal shapes give
    /// the same export map entries and the same import edges.
    fn shape_of(imports: &[Symbol], exports: &[Symbol]) -> Pid {
        let mut w = Writer::new();
        for list in [imports, exports] {
            w.u32(list.len() as u32);
            for s in list {
                w.str(s.as_str());
            }
        }
        Pid::of_bytes(&w.into_bytes())
    }
}

/// One recorded analysis for a source path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StampEntry {
    /// The unit the path analyzed as (a rename never matches a stale
    /// stamp even if mtime and size coincide).
    pub unit: Symbol,
    /// File modification time, nanoseconds since the epoch.
    pub mtime_ns: u64,
    /// File size in bytes.
    pub size: u64,
    /// The recorded analysis, shareable with the deps cache.
    pub analysis: Arc<Analysis>,
}

/// The legacy version-1 JSON shape of a stamp entry (flat fields; the
/// Arc-shared [`Analysis`] split postdates the JSON format).
#[derive(Serialize, Deserialize)]
struct LegacyStampEntry {
    unit: Symbol,
    mtime_ns: u64,
    size: u64,
    source_pid: Pid,
    deps_pid: Pid,
    imports: Vec<Symbol>,
    exports: Vec<Symbol>,
}

impl From<LegacyStampEntry> for StampEntry {
    fn from(e: LegacyStampEntry) -> StampEntry {
        StampEntry {
            unit: e.unit,
            mtime_ns: e.mtime_ns,
            size: e.size,
            analysis: Arc::new(Analysis::new(
                e.source_pid,
                e.deps_pid,
                e.imports,
                e.exports,
            )),
        }
    }
}

impl From<&StampEntry> for LegacyStampEntry {
    fn from(e: &StampEntry) -> LegacyStampEntry {
        LegacyStampEntry {
            unit: e.unit,
            mtime_ns: e.mtime_ns,
            size: e.size,
            source_pid: e.analysis.source_pid,
            deps_pid: e.analysis.deps_pid,
            imports: e.analysis.imports.clone(),
            exports: e.analysis.exports.clone(),
        }
    }
}

/// One `(path, entry)` pair in the on-disk file (the vendored serde has
/// no map support, so the file is a vector of records).
#[derive(Serialize, Deserialize)]
struct StampRecord {
    path: String,
    entry: LegacyStampEntry,
}

#[derive(Serialize, Deserialize)]
struct StampFile {
    version: u32,
    entries: Vec<StampRecord>,
}

/// The base file a cache is layered over.
#[derive(Debug, Clone)]
struct StampBase {
    path: PathBuf,
    /// The base's payload digest, which names its delta.
    digest: Pid,
    /// The base's length, which caps its delta.
    len: u64,
}

/// What [`StampCache::audit`] found in a well-formed stamp file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StampAudit {
    /// Entries the file holds.
    pub entries: usize,
    /// The payload digest naming the delta bound to this file (`None`
    /// for a legacy JSON file, which never has one).
    pub digest: Option<Pid>,
}

/// Entries by directory (the key up to and including its last `/`),
/// then by file name.  A project's files share one directory string.
type Entries = HashMap<Arc<str>, HashMap<Box<str>, StampEntry>>;

/// The persistent stamp cache.  See the module docs.
#[derive(Debug, Default)]
pub struct StampCache {
    entries: Entries,
    /// The base file `entries` is layered over; `None` makes the next
    /// save compact.
    base: Option<StampBase>,
    /// Keys whose entry is not in the base: the delta's contents.
    since_base: HashSet<(Arc<str>, Box<str>)>,
    dirty: bool,
}

impl StampCache {
    /// An empty cache.
    pub fn new() -> StampCache {
        StampCache::default()
    }

    /// Loads the base stamp file at `path` and overlays the delta bound
    /// to it, if any.  Missing, unreadable, corrupt, or
    /// version-mismatched files all yield no entries — stamps are
    /// hints, so degradation is silent and safe (every miss just reads
    /// and digests the source the cold way).  A legacy JSON stamp file
    /// loads fine but comes back *dirty* with no base, so the next save
    /// rewrites it in the binary format.
    ///
    /// Entries whose recorded `mtime_ns` is at or after the mtime of the
    /// file they were read from (its save instant) are *racy* and
    /// dropped: a file edited within the same mtime tick and to the same
    /// byte size as its stamp would otherwise be served as a hit with
    /// stale analysis.  Dropping the entry forces one re-digest, whose
    /// `record` marks the cache dirty so the following save moves the
    /// trust boundary past the file's mtime and restores hits.
    pub fn load(path: &Path) -> StampCache {
        let mut cache = StampCache::default();
        let Some((bytes, saved_at_ns)) = read_with_mtime(path) else {
            return cache;
        };
        if let Some(payload) = bytes.strip_prefix(STAMP_MAGIC.as_slice()) {
            let Some((entries, digest)) = parse_binary(payload) else {
                return cache;
            };
            cache.entries = entries;
            cache.base = Some(StampBase {
                path: path.to_path_buf(),
                digest,
                len: bytes.len() as u64,
            });
            cache.drop_racy_entries(saved_at_ns);
            cache.overlay_delta(&Self::delta_path(path, digest));
        } else {
            // Legacy JSON: readable, but schedule a rewrite.
            if let Ok(f) = serde_json::from_slice::<StampFile>(&bytes) {
                if f.version == LEGACY_STAMP_VERSION {
                    for r in f.entries {
                        let (dir, name) = split_key(&r.path);
                        cache
                            .entries
                            .entry(Arc::from(dir))
                            .or_default()
                            .insert(Box::from(name), r.entry.into());
                    }
                    cache.dirty = true;
                    cache.drop_racy_entries(saved_at_ns);
                }
            }
        }
        cache
    }

    /// Overlays the delta at `path` by key.  A delta entry shadows the
    /// base's; a racy one drops the key altogether.  An absent or
    /// corrupt delta adds nothing.
    fn overlay_delta(&mut self, path: &Path) {
        let Some((bytes, saved_at_ns)) = read_with_mtime(path) else {
            return;
        };
        let Some((delta, _)) = bytes
            .strip_prefix(STAMP_MAGIC.as_slice())
            .and_then(parse_binary)
        else {
            return;
        };
        for (dir, names) in delta {
            let into = self.entries.entry(Arc::clone(&dir)).or_default();
            for (name, entry) in names {
                if saved_at_ns.is_some_and(|cutoff| entry.mtime_ns >= cutoff) {
                    into.remove(&name);
                    self.dirty = true;
                } else {
                    self.since_base.insert((Arc::clone(&dir), name.clone()));
                    into.insert(name, entry);
                }
            }
        }
    }

    /// Classifies one stamp file (a base or a delta) without loading
    /// it: `None` when the file is absent, `Some(Ok(_))` for a
    /// well-formed file (binary or legacy JSON), `Some(Err(reason))`
    /// when the bytes are corrupt.  [`Self::load`] silently degrades
    /// corrupt files to no entries; `smlsc doctor` uses this to tell the
    /// difference and report what `load` would quietly discard.
    pub fn audit(path: &Path) -> Option<Result<StampAudit, String>> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => return Some(Err(format!("unreadable: {e}"))),
        };
        if let Some(payload) = bytes.strip_prefix(STAMP_MAGIC.as_slice()) {
            match parse_binary(payload) {
                Some((entries, digest)) => Some(Ok(StampAudit {
                    entries: entries.values().map(HashMap::len).sum(),
                    digest: Some(digest),
                })),
                None => Some(Err("binary stamp payload fails digest or decode".into())),
            }
        } else {
            match serde_json::from_slice::<StampFile>(&bytes) {
                Ok(f) if f.version == LEGACY_STAMP_VERSION => Some(Ok(StampAudit {
                    entries: f.entries.len(),
                    digest: None,
                })),
                _ => Some(Err("neither binary magic nor legacy JSON".into())),
            }
        }
    }

    /// Every stamp delta beside the base at `path`, bound to it or not,
    /// sorted.
    pub fn delta_files(path: &Path) -> Vec<PathBuf> {
        fsutil::delta_files(parent_dir(path), DELTA_STEM)
    }

    /// The path of the delta bound to a base at `path` whose payload
    /// digest is `digest` ([`StampAudit::digest`]).
    pub fn delta_path(path: &Path, digest: Pid) -> PathBuf {
        parent_dir(path).join(fsutil::delta_file_name(DELTA_STEM, digest))
    }

    /// Drops entries stamped at or after `cutoff_ns` (see [`Self::load`]);
    /// dropping any marks the cache dirty so re-digested replacements are
    /// persisted even when their analysis comes out byte-identical.
    fn drop_racy_entries(&mut self, cutoff_ns: Option<u64>) {
        let Some(cutoff_ns) = cutoff_ns else {
            return;
        };
        let before = self.len();
        for names in self.entries.values_mut() {
            names.retain(|_, e| e.mtime_ns < cutoff_ns);
        }
        if self.len() != before {
            self.dirty = true;
        }
    }

    /// Persists what was recorded since the last load or save.  A clean
    /// cache writes nothing.  Otherwise the save writes a delta holding
    /// every entry recorded since the base, bound to the base at `path`,
    /// or compacts: rewrites the base from every entry and deletes the
    /// delta, when the base is not current or the delta would pass its
    /// cap (see the module docs).
    ///
    /// # Errors
    ///
    /// [`CoreError::Io`] on filesystem failures.
    pub fn save(&mut self, path: &Path) -> Result<(), CoreError> {
        if !self.dirty && path.is_file() {
            trace::counter(names::STAMP_SAVES_SKIPPED, 1);
            return Ok(());
        }
        let dir = parent_dir(path);
        std::fs::create_dir_all(dir)
            .map_err(|e| CoreError::Io(format!("{}: {e}", dir.display())))?;
        let io = |p: &Path, e: std::io::Error| CoreError::Io(format!("{}: {e}", p.display()));
        let base = self
            .base
            .as_ref()
            .filter(|b| b.path == path && std::fs::metadata(path).is_ok_and(|m| m.len() == b.len));
        if let Some(base) = base.filter(|_| !self.since_base.is_empty()) {
            let (bytes, _) = encode(
                self.since_base
                    .iter()
                    .map(|(d, n)| (&**d, &**n, &self.entries[d][n])),
            );
            if bytes.len() as u64 <= base.len / DELTA_CAP_DIVISOR {
                let delta = Self::delta_path(path, base.digest);
                fsutil::commit_atomic(&delta, &bytes, smlsc_faults::points::STAMP_SAVE)
                    .map_err(|e| io(&delta, e))?;
                fsutil::sweep_superseded(dir, DELTA_STEM, Some(&delta), |_| false);
                self.dirty = false;
                return Ok(());
            }
        }
        // Compaction: the base carries every entry.
        let (bytes, digest) = encode(
            self.entries
                .iter()
                .flat_map(|(d, names)| names.iter().map(move |(n, e)| (&**d, &**n, e))),
        );
        fsutil::commit_atomic(path, &bytes, smlsc_faults::points::STAMP_SAVE)
            .map_err(|e| io(path, e))?;
        fsutil::sweep_superseded(dir, DELTA_STEM, None, |_| false);
        trace::counter(names::STAMP_COMPACTIONS, 1);
        self.base = Some(StampBase {
            path: path.to_path_buf(),
            digest,
            len: bytes.len() as u64,
        });
        self.since_base.clear();
        self.dirty = false;
        Ok(())
    }

    /// The recorded entry for the file `name` in directory `dir` (the
    /// key's prefix up to and including its last `/`), but only if the
    /// stamp still matches: same unit, same mtime (nanoseconds), same
    /// size.
    pub fn lookup(
        &self,
        dir: &str,
        name: &str,
        unit: Symbol,
        mtime_ns: u64,
        size: u64,
    ) -> Option<&StampEntry> {
        self.entries
            .get(dir)?
            .get(name)
            .filter(|e| e.unit == unit && e.mtime_ns == mtime_ns && e.size == size)
    }

    /// Records (or refreshes) the entry for the file `name` in `dir`.
    /// Recording an identical entry does not mark the cache dirty, so a
    /// fully warm build saves nothing.
    pub fn record(&mut self, dir: &str, name: &str, entry: StampEntry) {
        if self.entries.get(dir).and_then(|names| names.get(name)) == Some(&entry) {
            return;
        }
        let dir: Arc<str> = self
            .entries
            .get_key_value(dir)
            .map_or_else(|| Arc::from(dir), |(shared, _)| Arc::clone(shared));
        let name: Box<str> = Box::from(name);
        self.since_base.insert((Arc::clone(&dir), name.clone()));
        self.entries.entry(dir).or_default().insert(name, entry);
        self.dirty = true;
    }

    /// Drops every entry whose file `keep` rejects, given its directory
    /// and file name.  Dropping any forces the next save to compact, so
    /// the dead entries leave the base too.
    pub(crate) fn retain(&mut self, keep: impl Fn(&str, &str) -> bool) {
        let before = self.len();
        for (dir, names) in &mut self.entries {
            names.retain(|name, _| keep(dir, name));
        }
        if self.len() != before {
            self.since_base.retain(|(dir, name)| keep(dir, name));
            self.base = None;
            self.dirty = true;
        }
    }

    /// Writes the legacy version-1 JSON format.  Only for migration
    /// tests; production saves always emit the binary format.
    ///
    /// # Errors
    ///
    /// [`CoreError::Io`] on filesystem failures.
    #[doc(hidden)]
    pub fn save_legacy_v1_json(&self, path: &Path) -> Result<(), CoreError> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| CoreError::Io(format!("{}: {e}", dir.display())))?;
        }
        let mut records: Vec<StampRecord> = self
            .entries
            .iter()
            .flat_map(|(dir, names)| {
                names.iter().map(move |(name, entry)| StampRecord {
                    path: format!("{dir}{name}"),
                    entry: entry.into(),
                })
            })
            .collect();
        records.sort_by(|a, b| a.path.cmp(&b.path));
        let file = StampFile {
            version: LEGACY_STAMP_VERSION,
            entries: records,
        };
        let json = serde_json::to_vec(&file).expect("stamp entries serialize");
        std::fs::write(path, &json).map_err(|e| CoreError::Io(format!("{}: {e}", path.display())))
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.values().map(HashMap::len).sum()
    }

    /// True when no entries are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The directory holding the stamp file at `path`.
fn parent_dir(path: &Path) -> &Path {
    path.parent().unwrap_or(Path::new("."))
}

/// A file's bytes and its mtime in nanoseconds; `None` when unreadable.
fn read_with_mtime(path: &Path) -> Option<(Vec<u8>, Option<u64>)> {
    let bytes = std::fs::read(path).ok()?;
    let mtime = std::fs::metadata(path)
        .ok()
        .and_then(|m| m.modified().ok())
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    Some((bytes, mtime))
}

/// Splits a key after its last `/` into its directory and file name.
fn split_key(key: &str) -> (&str, &str) {
    key.rfind('/').map_or(("", key), |i| key.split_at(i + 1))
}

/// Encodes `(dir, name, entry)` records as a complete stamp file, sorted
/// and grouped by directory; returns it with its payload digest.
fn encode<'a>(records: impl Iterator<Item = (&'a str, &'a str, &'a StampEntry)>) -> (Vec<u8>, Pid) {
    let mut records: Vec<_> = records.collect();
    records.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    let mut w = Writer::new();
    w.u32(STAMP_VERSION);
    let groups: Vec<&[(&str, &str, &StampEntry)]> = records.chunk_by(|a, b| a.0 == b.0).collect();
    w.u32(groups.len() as u32);
    for group in groups {
        w.str(group[0].0);
        w.u32(group.len() as u32);
        for (_, name, e) in group {
            w.str(name);
            w.str(e.unit.as_str());
            w.u64(e.mtime_ns);
            w.u64(e.size);
            w.u128(e.analysis.source_pid.as_raw());
            w.u128(e.analysis.deps_pid.as_raw());
            w.u128(e.analysis.shape_pid.as_raw());
            for list in [&e.analysis.imports, &e.analysis.exports] {
                w.u32(list.len() as u32);
                for s in list {
                    w.str(s.as_str());
                }
            }
        }
    }
    let body = w.into_bytes();
    let digest = Pid::of_bytes(&body);
    let mut out = Vec::with_capacity(STAMP_MAGIC.len() + body.len() + 16);
    out.extend_from_slice(STAMP_MAGIC);
    out.extend_from_slice(&body);
    out.extend_from_slice(&digest.as_raw().to_le_bytes());
    (out, digest)
}

/// Parses the digest-checked binary payload (everything after the
/// magic) into its entries and payload digest.  `None` on any
/// corruption or another format version.
fn parse_binary(payload: &[u8]) -> Option<(Entries, Pid)> {
    if payload.len() < 16 {
        return None;
    }
    let (body, tail) = payload.split_at(payload.len() - 16);
    let digest = Pid::from_raw(u128::from_le_bytes(tail.try_into().ok()?));
    if Pid::of_bytes(body) != digest {
        return None;
    }
    let mut r = Reader::new(body);
    if r.u32().ok()? != STAMP_VERSION {
        return None;
    }
    // The digest vouches for the bytes; these bounds guard against a
    // well-digested file written by a buggy producer.
    let count = |r: &mut Reader| -> Option<usize> {
        let n = r.u32().ok()? as usize;
        (n <= body.len()).then_some(n)
    };
    let symbols = |r: &mut Reader| -> Option<Vec<Symbol>> {
        let n = count(r)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(Symbol::intern(r.str_ref().ok()?));
        }
        Some(v)
    };
    let ndirs = count(&mut r)?;
    let mut entries = Entries::with_capacity(ndirs);
    for _ in 0..ndirs {
        let dir: Arc<str> = Arc::from(r.str_ref().ok()?);
        let n = count(&mut r)?;
        let mut names = HashMap::with_capacity(n);
        for _ in 0..n {
            let name: Box<str> = Box::from(r.str_ref().ok()?);
            let unit = Symbol::intern(r.str_ref().ok()?);
            let mtime_ns = r.u64().ok()?;
            let size = r.u64().ok()?;
            let source_pid = Pid::from_raw(r.u128().ok()?);
            let deps_pid = Pid::from_raw(r.u128().ok()?);
            let shape_pid = Pid::from_raw(r.u128().ok()?);
            let imports = symbols(&mut r)?;
            let exports = symbols(&mut r)?;
            let analysis = Arc::new(Analysis {
                source_pid,
                deps_pid,
                shape_pid,
                imports,
                exports,
            });
            let entry = StampEntry {
                unit,
                mtime_ns,
                size,
                analysis,
            };
            if names.insert(name, entry).is_some() {
                return None;
            }
        }
        if entries.insert(dir, names).is_some() {
            return None;
        }
    }
    if !r.at_end() {
        return None;
    }
    Some((entries, digest))
}

#[cfg(test)]
mod tests {
    use super::*;

    impl StampCache {
        /// [`StampCache::record`] by full key.
        fn put(&mut self, key: &str, entry: StampEntry) {
            let (dir, name) = split_key(key);
            self.record(dir, name, entry);
        }

        /// [`StampCache::lookup`] by full key.
        fn get(&self, key: &str, unit: Symbol, mtime_ns: u64, size: u64) -> Option<&StampEntry> {
            let (dir, name) = split_key(key);
            self.lookup(dir, name, unit, mtime_ns, size)
        }
    }

    fn entry(unit: &str, mtime: u64, size: u64) -> StampEntry {
        StampEntry {
            unit: Symbol::intern(unit),
            mtime_ns: mtime,
            size,
            analysis: Arc::new(Analysis::new(
                Pid::of_bytes(b"src"),
                Pid::of_bytes(b"toks"),
                vec![Symbol::intern("A")],
                vec![Symbol::intern("B")],
            )),
        }
    }

    /// Scopes an empty plan to this test's thread, which hides any
    /// process-wide plan.  Scoped plans no longer leak between threads;
    /// this stays as a second guard against the `fsutil` tests'
    /// `stamp.save` faults.
    fn no_foreign_faults() -> smlsc_faults::ScopedFaults {
        smlsc_faults::install_scoped(smlsc_faults::FaultPlan::default())
    }

    /// A cache of `n` settled entries, saved as a base at `path`.
    fn saved_base(path: &Path, n: u64) -> StampCache {
        let mut c = StampCache::new();
        for i in 0..n {
            c.put(&format!("/p/u{i}.sml"), entry(&format!("u{i}"), i, 20));
        }
        c.save(path).unwrap();
        c
    }

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "smlsc-stamps-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn round_trip() {
        let path = tmp_path("roundtrip").join("stamps.json");
        let mut c = StampCache::new();
        c.put("a.sml", entry("a", 10, 20));
        c.save(&path).unwrap();
        let back = StampCache::load(&path);
        assert_eq!(back.len(), 1);
        assert!(back.get("a.sml", Symbol::intern("a"), 10, 20).is_some());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn stale_stamp_does_not_match() {
        let mut c = StampCache::new();
        c.put("a.sml", entry("a", 10, 20));
        let a = Symbol::intern("a");
        assert!(c.get("a.sml", a, 11, 20).is_none(), "mtime moved");
        assert!(c.get("a.sml", a, 10, 21).is_none(), "size moved");
        assert!(
            c.get("a.sml", Symbol::intern("b"), 10, 20).is_none(),
            "renamed unit must not reuse the old path's analysis"
        );
        assert!(c.get("b.sml", a, 10, 20).is_none(), "other path");
    }

    #[test]
    fn racy_entries_are_dropped_on_load_and_heal_on_save() {
        let dir = tmp_path("racy");
        let path = dir.join("stamps.json");
        let now_ns = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos() as u64;
        let mut c = StampCache::new();
        c.put("old.sml", entry("old", 10, 20));
        // A stamp at (or after) the save instant is indistinguishable
        // from a same-tick, same-size edit that landed just after the
        // digest: it must not be served as a hit.
        c.put("racy.sml", entry("racy", now_ns + 1_000_000_000_000, 20));
        c.save(&path).unwrap();

        let mut back = StampCache::load(&path);
        assert_eq!(back.len(), 1, "racy entry dropped, settled entry kept");
        assert!(back
            .get(
                "racy.sml",
                Symbol::intern("racy"),
                now_ns + 1_000_000_000_000,
                20
            )
            .is_none());
        assert!(back.get("old.sml", Symbol::intern("old"), 10, 20).is_some());

        // Re-digesting yields the same analysis; recording it must still
        // dirty the cache so the save advances the trust boundary.
        back.put("racy.sml", entry("racy", 30, 20));
        back.save(&path).unwrap();
        let healed = StampCache::load(&path);
        assert_eq!(healed.len(), 2, "healed file trusts the re-digested entry");
        assert!(healed
            .get("racy.sml", Symbol::intern("racy"), 30, 20)
            .is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_and_corrupt_files_degrade_to_empty() {
        assert!(StampCache::load(Path::new("/nonexistent/stamps.json")).is_empty());
        let path = tmp_path("corrupt");
        std::fs::create_dir_all(&path).unwrap();
        let f = path.join("stamps.json");
        std::fs::write(&f, b"{ not json").unwrap();
        assert!(StampCache::load(&f).is_empty());
        // A torn binary file (flipped payload byte) fails the digest
        // check and degrades the same way.
        let mut c = StampCache::new();
        c.put("a.sml", entry("a", 10, 20));
        c.save(&f).unwrap();
        let mut bytes = std::fs::read(&f).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&f, &bytes).unwrap();
        assert!(StampCache::load(&f).is_empty());
        std::fs::remove_dir_all(&path).ok();
    }

    #[test]
    fn saved_file_is_binary_not_json() {
        let dir = tmp_path("binfmt");
        let path = dir.join("stamps.json");
        let mut c = StampCache::new();
        c.put("a.sml", entry("a", 10, 20));
        c.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(STAMP_MAGIC));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_json_loads_and_migrates_on_save() {
        let dir = tmp_path("legacy");
        let path = dir.join("stamps.json");
        let mut c = StampCache::new();
        c.put("a.sml", entry("a", 10, 20));
        c.put("b.sml", entry("b", 30, 40));
        c.save_legacy_v1_json(&path).unwrap();
        assert!(std::fs::read(&path).unwrap().starts_with(b"{"));

        // Loads with full fidelity...
        let mut back = StampCache::load(&path);
        assert_eq!(back.len(), 2);
        let e = back.get("a.sml", Symbol::intern("a"), 10, 20).unwrap();
        assert_eq!(e, &entry("a", 10, 20));
        // ...and comes back dirty, so the very next save (with nothing
        // newly recorded) rewrites the file in the binary format.
        back.save(&path).unwrap();
        assert!(std::fs::read(&path).unwrap().starts_with(STAMP_MAGIC));
        let again = StampCache::load(&path);
        assert_eq!(again.len(), 2);
        assert!(again.get("b.sml", Symbol::intern("b"), 30, 40).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_save_is_a_no_op() {
        let dir = tmp_path("clean");
        let path = dir.join("stamps.json");
        let mut c = StampCache::new();
        c.put("a.sml", entry("a", 1, 2));
        c.save(&path).unwrap();
        let mtime = std::fs::metadata(&path).unwrap().modified().unwrap();
        // Re-recording the identical entry keeps the cache clean.
        c.put("a.sml", entry("a", 1, 2));
        c.save(&path).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().modified().unwrap(), mtime);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_temp_files_survive_a_save() {
        let dir = tmp_path("tmpfiles");
        let path = dir.join("stamps.json");
        let mut c = StampCache::new();
        c.put("a.sml", entry("a", 1, 2));
        c.save(&path).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["stamps.json"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shape_pid_follows_imports_and_exports_only() {
        let a = Symbol::intern("A");
        let b = Symbol::intern("B");
        let x = Analysis::new(Pid::of_bytes(b"1"), Pid::of_bytes(b"t1"), vec![a], vec![b]);
        let y = Analysis::new(Pid::of_bytes(b"2"), Pid::of_bytes(b"t2"), vec![a], vec![b]);
        assert_eq!(x.shape_pid, y.shape_pid, "a body edit keeps the shape");
        let moved = Analysis::new(
            Pid::of_bytes(b"1"),
            Pid::of_bytes(b"t1"),
            vec![],
            vec![a, b],
        );
        assert_ne!(
            x.shape_pid, moved.shape_pid,
            "a name moving lists changes it"
        );
    }

    #[test]
    fn an_edit_saves_one_entry_as_a_delta_bound_to_the_base() {
        let _faults = no_foreign_faults();
        let dir = tmp_path("delta");
        let path = dir.join("stamps.json");
        saved_base(&path, 200);
        let base_bytes = std::fs::read(&path).unwrap();

        let mut c = StampCache::load(&path);
        assert_eq!(c.len(), 200);
        c.put("/p/u7.sml", entry("u7", 1_000, 21));
        c.save(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), base_bytes, "base untouched");
        let deltas = StampCache::delta_files(&path);
        assert_eq!(deltas.len(), 1);
        let digest = StampCache::audit(&path).unwrap().unwrap().digest.unwrap();
        assert_eq!(deltas[0], StampCache::delta_path(&path, digest));
        assert_eq!(StampCache::audit(&deltas[0]).unwrap().unwrap().entries, 1);

        // The merged view serves the delta's entry over the base's, and
        // a second edit carries the first one over.
        let mut c = StampCache::load(&path);
        assert_eq!(c.len(), 200);
        assert!(c
            .get("/p/u7.sml", Symbol::intern("u7"), 1_000, 21)
            .is_some());
        assert!(c.get("/p/u7.sml", Symbol::intern("u7"), 7, 20).is_none());
        assert_eq!(c.since_base.len(), 1);
        c.put("/p/u8.sml", entry("u8", 1_001, 21));
        c.save(&path).unwrap();
        let deltas = StampCache::delta_files(&path);
        assert_eq!(deltas.len(), 1);
        assert_eq!(StampCache::audit(&deltas[0]).unwrap().unwrap().entries, 2);

        // A delta bound to another base is ignored, and swept by a save.
        let stale = dir.join(fsutil::delta_file_name(DELTA_STEM, Pid::from_raw(9)));
        std::fs::rename(&deltas[0], &stale).unwrap();
        let mut c = StampCache::load(&path);
        assert!(c
            .get("/p/u7.sml", Symbol::intern("u7"), 1_000, 21)
            .is_none());
        c.put("/p/u9.sml", entry("u9", 1_002, 21));
        c.save(&path).unwrap();
        assert!(!stale.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_delta_past_its_cap_compacts() {
        let _faults = no_foreign_faults();
        let dir = tmp_path("compact");
        let path = dir.join("stamps.json");
        saved_base(&path, 40);
        let mut c = StampCache::load(&path);
        for i in 0..40 {
            c.put(&format!("/q/u{i}.sml"), entry(&format!("u{i}"), i, 20));
        }
        c.save(&path).unwrap();
        assert!(StampCache::delta_files(&path).is_empty(), "compacted");
        let back = StampCache::load(&path);
        assert_eq!(back.len(), 80);
        assert!(back.get("/q/u3.sml", Symbol::intern("u3"), 3, 20).is_some());
        assert!(back.since_base.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dropping_dead_entries_compacts_them_out_of_the_base() {
        let _faults = no_foreign_faults();
        let dir = tmp_path("retain");
        let path = dir.join("stamps.json");
        saved_base(&path, 200);
        let mut c = StampCache::load(&path);
        c.retain(|dir, name| dir == "/p/" && name != "u3.sml");
        c.save(&path).unwrap();
        assert!(StampCache::delta_files(&path).is_empty(), "compacted");
        let back = StampCache::load(&path);
        assert_eq!(back.len(), 199);
        assert!(back.get("/p/u3.sml", Symbol::intern("u3"), 3, 20).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn racy_delta_entries_are_cut_off_at_the_deltas_own_mtime() {
        let _faults = no_foreign_faults();
        let dir = tmp_path("racy-delta");
        let path = dir.join("stamps.json");
        saved_base(&path, 200);
        let far = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos() as u64
            + 1_000_000_000_000;
        let mut c = StampCache::load(&path);
        c.put("/p/u1.sml", entry("u1", far, 20));
        c.put("/p/u2.sml", entry("u2", 500, 20));
        c.save(&path).unwrap();
        let back = StampCache::load(&path);
        assert!(
            back.get("/p/u1.sml", Symbol::intern("u1"), far, 20)
                .is_none(),
            "stamped after the delta was written"
        );
        assert!(
            back.get("/p/u1.sml", Symbol::intern("u1"), 1, 20).is_none(),
            "the base's older entry is not resurrected"
        );
        assert!(back
            .get("/p/u2.sml", Symbol::intern("u2"), 500, 20)
            .is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_older_format_version_reads_as_absent() {
        // Version 3 stored deps pids in the older, text-based token digest.
        for version in [2u32, 3] {
            let dir = tmp_path(&format!("v{version}"));
            let path = dir.join("stamps.json");
            let mut body = Writer::new();
            body.u32(version);
            body.u32(0);
            let body = body.into_bytes();
            let mut bytes = STAMP_MAGIC.to_vec();
            bytes.extend_from_slice(&body);
            bytes.extend_from_slice(&Pid::of_bytes(&body).as_raw().to_le_bytes());
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, &bytes).unwrap();
            assert!(StampCache::load(&path).is_empty(), "version {version}");
            assert!(
                StampCache::audit(&path).unwrap().is_err(),
                "version {version}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
