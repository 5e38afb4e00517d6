//! The `reproduce` binary's command line: an argument it does not know, or a
//! `--scale` outside (0, 1], prints the usage block and exits 2 before
//! anything runs or is written; so does an output path it cannot write,
//! without the usage block; known targets still run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn reproduce(args: &[&str], out: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("reproduce failed to start")
}

/// A fresh, not yet created output directory under the target's scratch dir.
fn fresh_out(name: &str) -> PathBuf {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&out);
    out
}

#[test]
fn unknown_arguments_and_bad_scales_are_refused_before_anything_runs() {
    let out = fresh_out("reproduce-refused");
    for args in [
        &["--serve-open-loop"][..],
        &["fig66"],
        &["table1", "--bogus"],
        &["--scale", "0"],
        &["--scale", "1.5"],
        &["--scale", "half"],
    ] {
        let run = reproduce(args, &out);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "reproduce {args:?}: {stderr}");
        assert!(
            stderr.contains("usage: reproduce"),
            "reproduce {args:?}: {stderr}"
        );
        assert!(
            !out.exists(),
            "reproduce {args:?} created {}",
            out.display()
        );
    }
}

#[test]
fn known_targets_still_run() {
    let out = fresh_out("reproduce-tables");
    let run = reproduce(&["table1", "table2", "--scale", "0.5", "--quiet"], &out);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    for table in ["table1.csv", "table2.csv"] {
        assert!(out.join(table).is_file(), "{table} not written");
    }
}

#[test]
fn unwritable_outputs_are_refused_before_anything_runs() {
    // A regular file used as a parent directory: nothing can be written
    // under it, whatever the user's permissions.
    let file = Path::new(env!("CARGO_TARGET_TMPDIR")).join("reproduce-regular-file");
    std::fs::write(&file, "not a directory").unwrap();
    let report = file.join("x.json");
    let report = report.to_str().unwrap();
    let out = fresh_out("reproduce-unwritable");
    for (args, out_dir, named) in [
        (
            &["--serve-bench-json", report, "--scale", "0.01"][..],
            out.as_path(),
            report,
        ),
        (&["--bench-json", report, "--scale", "0.01"], &out, report),
        (&["table2"], &file, file.to_str().unwrap()),
    ] {
        let run = reproduce(args, out_dir);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "reproduce {args:?}: {stderr}");
        assert!(stderr.contains(named), "reproduce {args:?}: {stderr}");
        assert!(
            !stderr.contains("benchmarking"),
            "reproduce {args:?} ran a benchmark: {stderr}"
        );
    }
    // The reports need no output directory, so none was made.
    assert!(!out.exists(), "created {}", out.display());
}
