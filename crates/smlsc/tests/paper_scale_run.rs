//! `smlsc run` over the paper-scale corpus (200 units, 58,798 lines)
//! prints the committed export pids.
//!
//! Export pids are intrinsic (§5): they depend only on each unit's
//! interface, so they pin the whole front end — layouts, elaboration,
//! hashing — across refactorings.  The expectation in
//! `data/paper_scale_140.pids` was produced by an independent build of
//! the same tree; any change to it means interfaces (and hence every
//! downstream cutoff decision) changed.

use std::path::PathBuf;
use std::process::Command;

use smlsc_workload::{Topology, Workload, WorkloadSpec};

#[test]
fn run_prints_the_committed_paper_scale_pids() {
    let w = Workload::new(WorkloadSpec {
        topology: Topology::Library {
            lib: 30,
            clients: 170,
            seed: 1994,
        },
        funs_per_module: 140,
        reexport_dep_types: false,
    });
    let dir: PathBuf =
        std::env::temp_dir().join(format!("smlsc-paper-scale-run-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    for f in w.project().files() {
        let path = dir.join(format!("{}.sml", f.name.as_str()));
        std::fs::write(path, f.read_text().unwrap()).unwrap();
    }

    let out = Command::new(env!("CARGO_BIN_EXE_smlsc"))
        .args(["run", "--no-daemon"])
        .arg(&dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    let mut lines = stdout.lines();
    assert_eq!(
        lines.next(),
        Some("built 200 unit(s) [cutoff]: 200 recompiled, 0 reused")
    );
    let got: Vec<&str> = lines.collect();
    let want: Vec<&str> = include_str!("data/paper_scale_140.pids").lines().collect();
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w);
    }
    std::fs::remove_dir_all(&dir).ok();
}
