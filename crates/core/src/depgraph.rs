//! The persistent import-DAG sidecar, `deps.pack`.
//!
//! A warm build needs the resolved dependency graph — the topological
//! order plus each unit's deduplicated import list — before it can
//! schedule anything.  Deriving it costs a full export-map construction,
//! an import-name resolution per unit, and a DFS over the whole
//! project: all linear-or-worse work that a build repeats every cold
//! process even though the graph did not change.
//!
//! [`DepGraph`] makes that derivation persistent.  After a build the
//! graph is serialized next to `bins.pack` (same digest-checked-payload
//! discipline, same tmp+fsync+rename publication); the next cold
//! process rehydrates it with one sequential read and *no* per-unit
//! name resolution.
//!
//! # Keyed on the shape pid
//!
//! The paper's dependency analysis (§8) reads only import and export
//! names, and so does the graph: the export map, import resolution and
//! the topological order are functions of the unit set plus each unit's
//! imports and exports, nothing else.  The sidecar therefore records
//! each unit's **shape pid** ([`crate::stamps::Analysis::shape_pid`]: a
//! digest of its sorted imports plus its exports), and the graph is
//! current iff the unit set is the same slot by slot and every unit's
//! shape pid matches its fresh analysis.  A body or comment edit —
//! every edit that leaves a unit's imports and exports alone — keeps
//! the graph, even though it changes the unit's token digest.  A rename,
//! addition or removal fails the per-slot unit-name check.  Any
//! mismatch, missing file, or corruption silently falls back to
//! re-deriving from analyses (`deps.pack_misses` counts it); a torn
//! sidecar can cost time, never correctness.
//!
//! # On-disk layout
//!
//! ```text
//! magic "SMLSDEP1" (8 bytes)
//! payload:
//!   u32 format version (2)
//!   u32 unit count
//!   per unit, in topological order:
//!     str  unit name
//!     u128 shape pid (import/export digest at save time)
//!     u32  import count, then that many u32 topological slot indices
//! u128 digest of payload (little-endian)
//! ```
//!
//! Import edges are stored as indices into the record table itself, so
//! loading performs zero hash lookups per edge; the topological
//! invariant (every import index precedes its importer) is validated on
//! load and doubles as a structural corruption check.  A sidecar of
//! another version (version 1 keyed on token digests) reads as absent.

use std::collections::HashMap;
use std::path::Path;

use smlsc_faults::points;
use smlsc_ids::{Pid, Symbol};
use smlsc_pickle::wire::{Reader, Writer};
use smlsc_trace as trace;

use crate::fsutil;
use crate::CoreError;

/// File name of the import-DAG sidecar, next to `bins.pack`.
pub const DEPS_FILE: &str = "deps.pack";

/// Magic prefix of the sidecar file.
pub const DEPS_MAGIC: &[u8; 8] = b"SMLSDEP1";

/// Bumped whenever the payload layout changes; older versions are
/// treated as absent (rebuilt from analyses), never migrated.
pub const DEPS_VERSION: u32 = 2;

/// The resolved import DAG: topological order, per-unit deduplicated
/// import lists (as names and as topological indices), and the shape
/// pid each unit had when the graph was derived.
#[derive(Debug, Clone)]
pub struct DepGraph {
    order: Vec<Symbol>,
    shape_pids: Vec<Pid>,
    import_units: Vec<Vec<Symbol>>,
    import_idx: Vec<Vec<usize>>,
    index_of: HashMap<Symbol, usize>,
}

impl DepGraph {
    /// Assembles a graph from a topological order, per-slot shape pids,
    /// and per-slot import indices (each index must point to an earlier
    /// slot).  The name-level import lists and the reverse index are
    /// derived here so every construction path agrees on them.
    pub fn new(order: Vec<Symbol>, shape_pids: Vec<Pid>, import_idx: Vec<Vec<usize>>) -> DepGraph {
        debug_assert_eq!(order.len(), shape_pids.len());
        debug_assert_eq!(order.len(), import_idx.len());
        let import_units = import_idx
            .iter()
            .map(|deps| deps.iter().map(|&j| order[j]).collect())
            .collect();
        let index_of = order.iter().enumerate().map(|(i, &u)| (u, i)).collect();
        DepGraph {
            order,
            shape_pids,
            import_units,
            import_idx,
            index_of,
        }
    }

    /// Number of units in the graph.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the graph has no units.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The topological order.
    pub fn order(&self) -> &[Symbol] {
        &self.order
    }

    /// The topological slot of `unit`, if it is in the graph.
    pub fn index_of(&self, unit: Symbol) -> Option<usize> {
        self.index_of.get(&unit).copied()
    }

    /// The shape pid recorded for topological slot `i`.
    pub fn shape_pid(&self, i: usize) -> Pid {
        self.shape_pids[i]
    }

    /// The deduplicated import units of topological slot `i`.
    pub fn import_units(&self, i: usize) -> &[Symbol] {
        &self.import_units[i]
    }

    /// The imports of topological slot `i` as topological slots.
    pub fn import_idx(&self, i: usize) -> &[usize] {
        &self.import_idx[i]
    }

    /// Total number of import edges.
    pub fn edge_count(&self) -> usize {
        self.import_idx.iter().map(Vec::len).sum()
    }

    /// Serializes the graph and publishes it atomically at `path`
    /// (tmp + fsync + rename, fault point `deps.save`).
    ///
    /// # Errors
    ///
    /// [`CoreError::Io`] on filesystem failures.
    pub fn save(&self, path: &Path) -> Result<(), CoreError> {
        let mut w = Writer::new();
        w.u32(DEPS_VERSION);
        w.u32(self.order.len() as u32);
        for i in 0..self.order.len() {
            w.str(self.order[i].as_str());
            w.u128(self.shape_pids[i].as_raw());
            w.u32(self.import_idx[i].len() as u32);
            for &j in &self.import_idx[i] {
                w.u32(j as u32);
            }
        }
        let payload = w.into_bytes();
        let mut bytes = Vec::with_capacity(DEPS_MAGIC.len() + payload.len() + 16);
        bytes.extend_from_slice(DEPS_MAGIC);
        let digest = Pid::of_bytes(&payload);
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&digest.as_raw().to_le_bytes());
        fsutil::commit_atomic(path, &bytes, points::DEPS_SAVE)
            .map_err(|e| CoreError::Io(format!("{}: {e}", path.display())))
    }

    /// Loads a sidecar from `path`.  Any problem — missing file, bad
    /// magic, wrong version, digest mismatch, structural corruption —
    /// returns `None` so the caller re-derives the graph from analyses.
    pub fn load(path: &Path) -> Option<DepGraph> {
        let bytes = std::fs::read(path).ok()?;
        match DepGraph::parse(&bytes) {
            Ok(g) => Some(g),
            Err(detail) => {
                trace::event("irm.deps_corrupt")
                    .field("path", path.display())
                    .field("error", detail);
                None
            }
        }
    }

    /// Doctor-facing audit of a sidecar file: `Ok(units)` when it
    /// parses clean, `Err(detail)` when it is corrupt.
    ///
    /// # Errors
    ///
    /// A human-readable description of the corruption.
    pub fn audit(path: &Path) -> Result<usize, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("unreadable: {e}"))?;
        DepGraph::parse(&bytes).map(|g| g.len())
    }

    fn parse(bytes: &[u8]) -> Result<DepGraph, String> {
        let body = bytes
            .strip_prefix(DEPS_MAGIC.as_slice())
            .ok_or("bad magic")?;
        if body.len() < 16 {
            return Err("truncated before digest".into());
        }
        let (payload, tail) = body.split_at(body.len() - 16);
        let digest = Pid::from_raw(u128::from_le_bytes(tail.try_into().expect("16 bytes")));
        if Pid::of_bytes(payload) != digest {
            return Err("payload fails digest check".into());
        }
        let mut r = Reader::new(payload);
        let bad = |e| format!("payload decode: {e}");
        let version = r.u32().map_err(bad)?;
        if version != DEPS_VERSION {
            return Err(format!("unsupported version {version}"));
        }
        let n = r.u32().map_err(bad)? as usize;
        // The digest already vouches for the bytes; these bounds guard
        // against a *well-digested* file written by a buggy producer.
        if n > payload.len() {
            return Err(format!("implausible unit count {n}"));
        }
        let mut order = Vec::with_capacity(n);
        let mut shape_pids = Vec::with_capacity(n);
        let mut import_idx = Vec::with_capacity(n);
        for i in 0..n {
            order.push(Symbol::intern(r.str_ref().map_err(bad)?));
            shape_pids.push(Pid::from_raw(r.u128().map_err(bad)?));
            let m = r.u32().map_err(bad)? as usize;
            if m > payload.len() {
                return Err(format!("implausible import count {m}"));
            }
            let mut deps = Vec::with_capacity(m);
            for _ in 0..m {
                let j = r.u32().map_err(bad)? as usize;
                if j >= i {
                    return Err(format!("import slot {j} does not precede unit slot {i}"));
                }
                deps.push(j);
            }
            import_idx.push(deps);
        }
        if !r.at_end() {
            return Err("trailing bytes after last record".into());
        }
        let g = DepGraph::new(order, shape_pids, import_idx);
        if g.index_of.len() != g.order.len() {
            return Err("duplicate unit names".into());
        }
        Ok(g)
    }
}

/// Loads the sidecar under `dir` if present.  Hit/miss accounting
/// happens at graph-validation time (`deps.pack_hits`/`_misses`), not
/// here — a sidecar that loads but fails its pid check is still a miss.
pub(crate) fn load_sidecar(dir: &Path) -> Option<DepGraph> {
    let path = dir.join(DEPS_FILE);
    if !path.is_file() {
        return None;
    }
    DepGraph::load(&path)
}

/// Writes the sidecar under `dir` (fault injection happens inside
/// [`fsutil::commit_atomic`] at the `deps.save` point).
pub(crate) fn save_sidecar(graph: &DepGraph, dir: &Path) -> Result<(), CoreError> {
    graph.save(&dir.join(DEPS_FILE))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "smlsc-depgraph-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample() -> DepGraph {
        let a = Symbol::intern("A");
        let b = Symbol::intern("B");
        let c = Symbol::intern("C");
        DepGraph::new(
            vec![a, b, c],
            vec![
                Pid::of_bytes(b"a"),
                Pid::of_bytes(b"b"),
                Pid::of_bytes(b"c"),
            ],
            vec![vec![], vec![0], vec![0, 1]],
        )
    }

    #[test]
    fn roundtrips_through_disk() {
        let dir = tmpdir("roundtrip");
        let path = dir.join(DEPS_FILE);
        let g = sample();
        g.save(&path).unwrap();
        let back = DepGraph::load(&path).expect("clean sidecar loads");
        assert_eq!(back.order(), g.order());
        assert_eq!(back.edge_count(), 3);
        assert_eq!(back.import_units(2), &[g.order()[0], g.order()[1]]);
        assert_eq!(back.shape_pid(1), g.shape_pid(1));
        assert_eq!(back.index_of(Symbol::intern("C")), Some(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_reads_as_absent() {
        let dir = tmpdir("corrupt");
        let path = dir.join(DEPS_FILE);
        sample().save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(DepGraph::load(&path).is_none(), "flipped byte fails digest");
        assert!(DepGraph::audit(&path).is_err());

        // A truncated (torn) file is equally absent.
        let full = sample();
        full.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert!(DepGraph::load(&path).is_none(), "torn prefix fails digest");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn forward_edges_are_structural_corruption() {
        // A digest-valid payload whose edges violate the topological
        // invariant must not load: rebuild-from-analyses is the only
        // safe answer.
        let dir = tmpdir("forward");
        let path = dir.join(DEPS_FILE);
        let a = Symbol::intern("A");
        let b = Symbol::intern("B");
        let bogus = DepGraph {
            order: vec![a, b],
            shape_pids: vec![Pid::of_bytes(b"a"), Pid::of_bytes(b"b")],
            import_units: vec![vec![b], vec![]],
            import_idx: vec![vec![1], vec![]],
            index_of: [(a, 0), (b, 1)].into_iter().collect(),
        };
        bogus.save(&path).unwrap();
        assert!(DepGraph::load(&path).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_graph_roundtrips() {
        let dir = tmpdir("empty");
        let path = dir.join(DEPS_FILE);
        let g = DepGraph::new(vec![], vec![], vec![]);
        g.save(&path).unwrap();
        let back = DepGraph::load(&path).expect("empty sidecar is valid");
        assert!(back.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
