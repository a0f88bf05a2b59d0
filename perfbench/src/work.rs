//! Workload definitions: the generated tree, the seeded edit script, and
//! the oracle that says which units each op must recompile.
//!
//! The oracle reads only the generator's dependency lists and the edit
//! class, never the compiler, so a compiler that recompiles too much or
//! too little fails the op.

use std::collections::BTreeSet;
use std::io::Write;
use std::path::Path;

use smlsc::workload::{
    module_name, monorepo_plan, EditKind, MonorepoPlan, Topology, Workload, WorkloadSpec,
};

/// Units in the monorepo tree of the three 20k workloads.
pub const MONOREPO_UNITS: usize = 20_000;
/// Bulk functions per monorepo module (about 365k lines at 20k units).
pub const MONOREPO_FUNS: usize = 2;
/// Bulk functions per paper-scale module: 200 units, about 59k lines.
pub const PAPER_FUNS: usize = 140;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 20k-unit tree, nothing changed between builds.
    Noop,
    /// 20k-unit tree, one scripted edit before each build.
    Edit,
    /// Paper-scale tree, bin dir deleted before each build.
    ColdPaper,
    /// 20k-unit tree and edit script, builds served by a daemon.
    DaemonEdit,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [Kind::Noop, Kind::Edit, Kind::ColdPaper, Kind::DaemonEdit];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Noop => "noop-20k",
            Kind::Edit => "edit-20k",
            Kind::ColdPaper => "cold-paper",
            Kind::DaemonEdit => "daemon-edit-20k",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Set-ups per untraced run; `setup_s` is their median.  A 20k
    /// set-up (tree rewrite plus a 20k-unit cold build) costs 6-10 s on
    /// a 2-CPU host, so those workloads set up once per run and rely on
    /// the median across runs; a paper-scale set-up costs under 2 s.
    pub fn setup_reps(self) -> usize {
        match self {
            Kind::ColdPaper => 3,
            _ => 1,
        }
    }

    /// The generator parameters; the seed drives the graph wiring.
    pub fn spec(self, seed: u64) -> WorkloadSpec {
        let (topology, funs_per_module) = match self {
            Kind::ColdPaper => (
                // `smlsc_bench::paper_scale`'s shape with the seed as
                // an input: a 30-module library chain and 170 clients.
                Topology::Library {
                    lib: 30,
                    clients: 170,
                    seed,
                },
                PAPER_FUNS,
            ),
            _ => (
                Topology::Monorepo {
                    units: MONOREPO_UNITS,
                    seed,
                },
                MONOREPO_FUNS,
            ),
        };
        WorkloadSpec {
            topology,
            funs_per_module,
            reexport_dep_types: false,
        }
    }
}

/// The four edit classes of the script, one of each per block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditClass {
    /// Body edit of a leaf: nothing imports it.
    LeafBody,
    /// Comment edit of a hub: cutoff stops its whole cone.
    HubComment,
    /// An added export on a functor-chain link.
    ChainAdd,
    /// The exported `tag` of a hub flips between `int` and `string`.
    HubType,
}

impl EditClass {
    /// Every class, in report order.
    pub const ALL: [EditClass; 4] = [
        EditClass::LeafBody,
        EditClass::HubComment,
        EditClass::ChainAdd,
        EditClass::HubType,
    ];

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            EditClass::LeafBody => "leaf-body",
            EditClass::HubComment => "hub-comment",
            EditClass::ChainAdd => "chain-interface-add",
            EditClass::HubType => "hub-interface-type",
        }
    }

    fn kind(self) -> EditKind {
        match self {
            EditClass::LeafBody => EditKind::BodyOnly,
            EditClass::HubComment => EditKind::CommentOnly,
            EditClass::ChainAdd => EditKind::InterfaceAdd,
            EditClass::HubType => EditKind::InterfaceChangeType,
        }
    }

    /// Whether the edit changes the unit's interface, so that its direct
    /// importers recompile too.
    fn changes_interface(self) -> bool {
        matches!(self, EditClass::ChainAdd | EditClass::HubType)
    }
}

/// One scripted edit: which unit, which class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edit {
    /// Module index.
    pub unit: usize,
    /// Edit class.
    pub class: EditClass,
}

/// SplitMix64: a small seeded generator for the edit script, so the
/// script depends on nothing but the seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x5eed_ed17_5c21_9a3b)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

/// The seeded edit script over a monorepo plan: blocks of four, each a
/// seeded permutation of the four classes, each edit on a seeded unit of
/// the right section.
#[derive(Debug, Clone)]
pub struct EditScript {
    plan: MonorepoPlan,
    rng: SplitMix,
    block: Vec<EditClass>,
}

impl EditScript {
    /// The script for a tree generated with `units` modules and `seed`.
    pub fn new(units: usize, seed: u64) -> EditScript {
        EditScript {
            plan: monorepo_plan(units),
            rng: SplitMix::new(seed),
            block: Vec::new(),
        }
    }

    /// Whether the last edit handed out ended a block of four.
    pub fn at_block_end(&self) -> bool {
        self.block.is_empty()
    }

    /// The next edit.
    pub fn next_edit(&mut self) -> Edit {
        if self.block.is_empty() {
            let mut classes = EditClass::ALL.to_vec();
            // Fisher-Yates; popped from the back below.
            for i in (1..classes.len()).rev() {
                let j = self.rng.range(0, i + 1);
                classes.swap(i, j);
            }
            self.block = classes;
        }
        let class = self.block.pop().expect("refilled above");
        let p = self.plan;
        let unit = match class {
            EditClass::LeafBody => self.rng.range(p.leaf_base(), p.units),
            EditClass::HubComment | EditClass::HubType => self.rng.range(0, p.hubs),
            // A link whose successor is a link: its one importer
            // recompiles and cutoff stops there.  (A chain tail would
            // pull in the ~50 leaves importing it, a seed-dependent cost.)
            EditClass::ChainAdd => loop {
                let i = self.rng.range(p.hubs, p.leaf_base());
                if p.is_chain_link(i) && p.is_chain_link(i + 1) {
                    break i;
                }
            },
        };
        Edit { unit, class }
    }
}

/// The generated tree plus the reverse dependency index the oracle needs.
pub struct Tree {
    /// The generator's state; edits go through it.
    pub workload: Workload,
    importers: Vec<Vec<usize>>,
}

impl Tree {
    /// Generates the tree for `kind` and `seed` in memory.
    pub fn generate(kind: Kind, seed: u64) -> Tree {
        Tree::from_spec(kind.spec(seed))
    }

    fn from_spec(spec: WorkloadSpec) -> Tree {
        let workload = Workload::new(spec);
        let mut importers = vec![Vec::new(); workload.module_count()];
        for (j, deps) in workload.deps().iter().enumerate() {
            for &d in deps {
                importers[d].push(j);
            }
        }
        Tree {
            workload,
            importers,
        }
    }

    /// Writes every module to `dir/M<i>.sml`.  Files left by an earlier
    /// run (same workload, so the same names) are rewritten in place:
    /// creating 20k directory entries costs several seconds more.
    pub fn write_all(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for i in 0..self.workload.module_count() {
            self.write_unit(dir, i)?;
        }
        Ok(())
    }

    fn write_unit(&self, dir: &Path, i: usize) -> std::io::Result<()> {
        let name = module_name(i);
        let text = self
            .workload
            .project()
            .file(&name)
            .and_then(|f| f.read_text().ok())
            .expect("generated sources are in memory");
        // Rewritten in place rather than truncated: a file that keeps its
        // blocks frees none, which on a discard-mounted disk keeps tree
        // writes from stalling on block discards.
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(format!("{name}.sml")))?;
        file.write_all(text.as_bytes())?;
        file.set_len(text.len() as u64)
    }

    /// Applies `edit` in memory and rewrites the edited file in `dir`.
    pub fn apply(&mut self, edit: Edit, dir: &Path) -> std::io::Result<()> {
        self.workload.edit(edit.unit, edit.class.kind());
        self.write_unit(dir, edit.unit)
    }

    /// Every unit name: what a cold build must compile.
    pub fn all_units(&self) -> BTreeSet<String> {
        (0..self.workload.module_count()).map(module_name).collect()
    }

    /// The units a cutoff build must recompile after `edit`: the edited
    /// unit, plus its direct importers when its interface changed.
    /// Importers' own interfaces never mention an import's types (the
    /// trees are generated without relays), so cutoff stops there.
    pub fn expected(&self, edit: Edit) -> BTreeSet<String> {
        let mut set = BTreeSet::from([module_name(edit.unit)]);
        if edit.class.changes_interface() {
            set.extend(self.importers[edit.unit].iter().map(|&j| module_name(j)));
        }
        set
    }
}

/// Parses the recompiled count from the CLI's summary line
/// (`built N unit(s) [cutoff]: R recompiled, U reused`).
pub fn recompiled_in_summary(stdout: &str) -> Option<usize> {
    let line = stdout.lines().rev().find(|l| l.starts_with("built "))?;
    let (_, rest) = line.split_once("]: ")?;
    rest.split(" recompiled").next()?.trim().parse().ok()
}

/// Checks one op's summary against the oracle; `Err` says why it failed.
pub fn check_summary(stdout: &str, expected: &BTreeSet<String>) -> Result<(), String> {
    match recompiled_in_summary(stdout) {
        Some(n) if n == expected.len() => Ok(()),
        Some(n) => Err(format!(
            "recompiled {n} unit(s), oracle expects {}",
            expected.len()
        )),
        None => Err(format!("no summary line in output: {stdout:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smlsc::core::irm::{Irm, Strategy};

    const SMALL: usize = 200;

    fn small_tree(seed: u64) -> Tree {
        Tree::from_spec(WorkloadSpec {
            topology: Topology::Monorepo { units: SMALL, seed },
            funs_per_module: MONOREPO_FUNS,
            reexport_dep_types: false,
        })
    }

    fn names(set: &[smlsc::ids::Symbol]) -> BTreeSet<String> {
        set.iter().map(|s| s.as_str().to_string()).collect()
    }

    #[test]
    fn script_is_seeded_and_balanced() {
        let a: Vec<Edit> = {
            let mut s = EditScript::new(SMALL, 7);
            (0..16).map(|_| s.next_edit()).collect()
        };
        let b: Vec<Edit> = {
            let mut s = EditScript::new(SMALL, 7);
            (0..16).map(|_| s.next_edit()).collect()
        };
        assert_eq!(a, b, "same seed, same script");
        for block in a.chunks(4) {
            for class in EditClass::ALL {
                assert_eq!(block.iter().filter(|e| e.class == class).count(), 1);
            }
        }
        let plan = monorepo_plan(SMALL);
        for e in &a {
            match e.class {
                EditClass::LeafBody => assert!(e.unit >= plan.leaf_base()),
                EditClass::HubComment | EditClass::HubType => assert!(e.unit < plan.hubs),
                EditClass::ChainAdd => {
                    assert!(plan.is_chain_link(e.unit) && plan.is_chain_link(e.unit + 1))
                }
            }
        }
    }

    /// The oracle agrees with the compiler on every edit class at
    /// 200 units, in process.
    #[test]
    fn oracle_matches_cutoff_builds() {
        let mut tree = small_tree(3);
        let mut irm = Irm::new(Strategy::Cutoff);
        let cold = irm.build(tree.workload.project()).expect("tree builds");
        assert_eq!(names(&cold.recompiled), tree.all_units());
        let mut script = EditScript::new(SMALL, 3);
        for _ in 0..12 {
            let edit = script.next_edit();
            tree.workload.edit(edit.unit, edit.class.kind());
            let report = irm.build(tree.workload.project()).expect("edit builds");
            assert_eq!(names(&report.recompiled), tree.expected(edit), "{edit:?}");
        }
        let noop = irm.build(tree.workload.project()).expect("noop builds");
        assert!(noop.recompiled.is_empty());
    }

    #[test]
    fn a_wrong_recompiled_count_fails_the_op() {
        let tree = small_tree(3);
        let plan = monorepo_plan(SMALL);
        let hub = Edit {
            unit: 0,
            class: EditClass::HubType,
        };
        let expected = tree.expected(hub);
        assert!(expected.len() > 1, "a hub has importers");
        let right = format!(
            "built {SMALL} unit(s) [cutoff]: {} recompiled, {} reused\n",
            expected.len(),
            SMALL - expected.len()
        );
        assert_eq!(check_summary(&right, &expected), Ok(()));
        // Recompiling only the hub (a missed cascade) and recompiling
        // everything (no cutoff) both fail.
        for wrong in [1, SMALL] {
            let out = format!("built {SMALL} unit(s) [cutoff]: {wrong} recompiled, 0 reused\n");
            assert!(check_summary(&out, &expected).is_err(), "{wrong}");
        }
        assert!(check_summary("error: boom\n", &expected).is_err());
        let leaf = Edit {
            unit: plan.leaf_base(),
            class: EditClass::LeafBody,
        };
        assert_eq!(tree.expected(leaf).len(), 1);
    }

    #[test]
    fn summary_parsing() {
        let out = "loaded 3 cached bin(s)\nbuilt 3 unit(s) [cutoff]: 2 recompiled, 1 reused\n";
        assert_eq!(recompiled_in_summary(out), Some(2));
        assert_eq!(recompiled_in_summary("nothing"), None);
    }
}
