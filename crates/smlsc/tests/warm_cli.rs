//! End-to-end warm builds through the `smlsc` CLI: the second build of
//! an unchanged project must do no source IO at all and parse only the
//! archive index — and `--stats` proves it with counters.

use std::path::{Path, PathBuf};
use std::process::Command;

fn smlsc() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_smlsc"));
    cmd.env_remove("SMLSC_STORE");
    cmd
}

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smlsc-warmcli-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_project(dir: &Path) {
    std::fs::write(
        dir.join("util.sml"),
        "structure Util = struct fun inc x = x + 1 end",
    )
    .unwrap();
    std::fs::write(
        dir.join("main.sml"),
        "structure Main = struct val v = Util.inc 41 end",
    )
    .unwrap();
}

fn stats_line(stdout: &str) -> &str {
    stdout.lines().find(|l| l.starts_with('{')).unwrap()
}

#[test]
fn warm_rebuild_reads_no_sources_and_only_the_index() {
    let proj = temp("noop");
    write_project(&proj);

    let out = smlsc()
        .args(["build", "--stats"])
        .arg(&proj)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 recompiled, 0 reused"), "{stdout}");
    let json = stats_line(&stdout);
    // Cold: every source is read and digested, no stamps match yet.
    assert!(json.contains(r#""source.reads":2"#), "{json}");
    assert!(json.contains(r#""stamp.misses":2"#), "{json}");
    assert!(proj.join(".smlsc-bins").join("bins.pack").is_file());
    assert!(proj.join(".smlsc-bins").join("stamps.json").is_file());

    // Warm: zero compiles, zero source reads, index-only bin loading.
    let out = smlsc()
        .args(["build", "--stats"])
        .arg(&proj)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 recompiled, 2 reused"), "{stdout}");
    let json = stats_line(&stdout);
    assert!(json.contains(r#""stamp.hits":2"#), "{json}");
    assert!(json.contains(r#""bin.index_only":2"#), "{json}");
    assert!(!json.contains(r#""source.reads""#), "{json}");
    assert!(!json.contains(r#""stamp.misses""#), "{json}");
    assert!(!json.contains(r#""irm.units_compiled""#), "{json}");
    assert!(!json.contains(r#""bin.lazy_bodies""#), "{json}");
    // Nothing changed, so the stamp cache skips its rewrite, the import
    // DAG rehydrates from the sidecar, and the dirty set stays empty.
    assert!(json.contains(r#""stamp.saves_skipped":1"#), "{json}");
    assert!(json.contains(r#""deps.pack_hits":1"#), "{json}");
    assert!(!json.contains(r#""sched.dirty_seed""#), "{json}");

    std::fs::remove_dir_all(&proj).ok();
}

#[test]
fn paranoid_flag_redigests_every_source() {
    let proj = temp("paranoid");
    write_project(&proj);
    let out = smlsc().arg("build").arg(&proj).output().unwrap();
    assert!(out.status.success(), "{out:?}");

    // `--paranoid` distrusts the stamps: both sources are re-read and
    // the archive bodies are verified eagerly — but the conclusion is
    // the same: nothing recompiles.
    let out = smlsc()
        .args(["build", "--paranoid", "--stats"])
        .arg(&proj)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 recompiled, 2 reused"), "{stdout}");
    let json = stats_line(&stdout);
    assert!(json.contains(r#""source.reads":2"#), "{json}");
    assert!(!json.contains(r#""stamp.hits""#), "{json}");
    assert!(!json.contains(r#""bin.index_only""#), "{json}");

    std::fs::remove_dir_all(&proj).ok();
}

#[test]
fn editing_one_leaf_recompiles_only_it_on_the_warm_path() {
    let proj = temp("leaf-edit");
    write_project(&proj);
    let out = smlsc().arg("build").arg(&proj).output().unwrap();
    assert!(out.status.success(), "{out:?}");

    // A body-only edit to the leaf: one stamp misses, one hits; only
    // the edited unit recompiles (its interface is unchanged, so the
    // dependent is cut off).
    std::fs::write(
        proj.join("main.sml"),
        "structure Main = struct val v = Util.inc 42 end",
    )
    .unwrap();
    let out = smlsc()
        .args(["build", "--stats"])
        .arg(&proj)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 recompiled, 1 reused"), "{stdout}");
    let json = stats_line(&stdout);
    assert!(json.contains(r#""stamp.hits":1"#), "{json}");
    assert!(json.contains(r#""stamp.misses":1"#), "{json}");
    assert!(json.contains(r#""source.reads":1"#), "{json}");
    // Dirty-set scheduling: the edited leaf seeds the wavefront and its
    // cone is just itself (no dependents).
    assert!(json.contains(r#""sched.dirty_seed":1"#), "{json}");
    assert!(json.contains(r#""sched.dirty_cone":1"#), "{json}");

    std::fs::remove_dir_all(&proj).ok();
}

/// Stamps are keyed by the canonical project directory: building `t`,
/// then `./t`, then the absolute path (all from the parent directory)
/// hits every stamp, reads no source, and keeps one entry per file.
#[test]
fn every_spelling_of_the_project_dir_shares_the_stamps() {
    let parent = temp("spelling");
    let proj = parent.join("t");
    std::fs::create_dir_all(&proj).unwrap();
    write_project(&proj);
    let build = |spelled: &Path| {
        let out = smlsc()
            .args(["build", "--no-daemon", "--stats"])
            .arg(spelled)
            .current_dir(&parent)
            .output()
            .unwrap();
        assert!(out.status.success(), "{out:?}");
        stats_line(&String::from_utf8_lossy(&out.stdout)).to_string()
    };
    // Two builds as `t`: the second re-stamps any file written within
    // the first save's mtime tick (a racy stamp is dropped on load).
    build(Path::new("t"));
    build(Path::new("t"));
    let absolute = std::fs::canonicalize(&proj).unwrap();
    for spelled in [Path::new("./t"), absolute.as_path()] {
        let json = build(spelled);
        let ctx = spelled.display();
        assert!(json.contains(r#""stamp.hits":2"#), "{ctx}: {json}");
        assert!(!json.contains(r#""stamp.misses""#), "{ctx}: {json}");
        assert!(!json.contains(r#""source.reads""#), "{ctx}: {json}");
        let stamps = smlsc::core::StampCache::load(&proj.join(".smlsc-bins/stamps.json"));
        assert_eq!(stamps.len(), 2, "{ctx}: one entry per file");
    }
    std::fs::remove_dir_all(&parent).ok();
}
