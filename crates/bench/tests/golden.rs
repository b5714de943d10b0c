//! Golden-snapshot test for `run_all --quick`: every JSON artifact the
//! full driver writes must match the blessed copies under
//! `tests/golden/` byte-for-byte.
//!
//! The artifacts are deterministic (the CI determinism gate checks them
//! across `--jobs` values), so any diff here is a real behaviour change.
//! After an intentional model change, regenerate the snapshots with
//! `./ci.sh bless` and review the diff like any other code change.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Artifact files are the `fig*.json` results; the result cache
/// (`.relsim-cache/`) is an implementation detail and not snapshotted.
fn artifact_names(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {dir:?}: {e}"))
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.starts_with("fig") && n.ends_with(".json"))
        .collect()
}

/// Runs the real `run_all` binary at quick scale and diffs every JSON
/// artifact against `tests/golden/`. A full quick-scale run, so it is
/// ignored in debug builds; `ci.sh` runs it in release.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full quick-scale run_all; run in release (ci.sh test)"
)]
fn run_all_quick_artifacts_match_golden() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden-run");
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).unwrap();

    let status = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .arg("--quick")
        .env("RELSIM_OUT", &out)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("spawn run_all");
    assert!(status.success(), "run_all --quick failed: {status}");

    let golden = golden_dir();
    assert!(
        golden.is_dir(),
        "missing {golden:?}; generate it with ./ci.sh bless"
    );
    let want = artifact_names(&golden);
    let got = artifact_names(&out);
    assert!(!want.is_empty(), "no golden snapshots in {golden:?}");
    assert_eq!(
        want, got,
        "artifact set changed; re-bless with ./ci.sh bless if intentional"
    );

    let mut diffs = Vec::new();
    for name in &want {
        let want_bytes = std::fs::read(golden.join(name)).unwrap();
        let got_bytes = std::fs::read(out.join(name)).unwrap();
        if want_bytes != got_bytes {
            diffs.push(name.clone());
        }
    }
    assert!(
        diffs.is_empty(),
        "artifacts diverged from tests/golden/: {diffs:?}\n\
         If the change is intentional, run ./ci.sh bless and commit the diff."
    );
}
