//! Command-line contract tests for the `repro` binary: malformed and
//! unknown flags must fail fast with a usage error before any
//! simulation starts, and the `pipetrace` subcommand must produce
//! exports that its own validator (`repro obs-validate`) accepts.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("repro binary runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcl-cli-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn sample_interval_rejects_zero_and_garbage() {
    let dir = temp_dir("sample-interval");
    for bad in ["0", "abc", "-1", "1.5"] {
        let out = repro(&dir, &["table2", "64", "--sample-interval", bad]);
        assert!(!out.status.success(), "--sample-interval {bad} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("invalid --sample-interval"),
            "--sample-interval {bad}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn range_flag_rejects_malformed_values() {
    let dir = temp_dir("range");
    for bad in ["abc", "5", "9..3", "4..4", "a..b"] {
        let out = repro(&dir, &["pipetrace", "64", "--range", bad]);
        assert!(!out.status.success(), "--range {bad} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--range"), "--range {bad}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipetrace_exports_pass_obs_validate() {
    let dir = temp_dir("pipetrace");
    let out_dir = dir.join("exports");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["pipetrace", "64", "--out"])
        .arg(&out_dir)
        .env("MCL_ONLY", "compress")
        .current_dir(&dir)
        .output()
        .expect("repro binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "pipetrace run failed: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("compress: "), "{stdout}");
    assert!(out_dir.join("compress.konata").is_file());
    assert!(out_dir.join("compress.pipetrace.json").is_file());

    let validate = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("obs-validate")
        .arg(&out_dir)
        .current_dir(&dir)
        .output()
        .expect("repro binary runs");
    let vout = String::from_utf8_lossy(&validate.stdout);
    assert!(
        validate.status.success(),
        "obs-validate failed: {}",
        String::from_utf8_lossy(&validate.stderr)
    );
    assert!(vout.contains("1 pipetrace export(s)"), "{vout}");
    assert!(vout.contains("1 Konata trace(s)"), "{vout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flags_are_rejected_not_ignored() {
    let dir = temp_dir("unknown-flag");
    // A typo of a real flag, an invented flag, and the `=VALUE` form:
    // each must fail before anything runs, naming the flag.
    for (args, named) in [
        (&["table1", "--job", "2"][..], "--job"),
        (&["table1", "--bogus-flag", "3"][..], "--bogus-flag"),
        (&["table2", "64", "--bogus=1"][..], "--bogus"),
    ] {
        let out = repro(&dir, args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("error: unknown flag {named}\n")), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed before failing");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
