//! The `tdm-server` binary's command line: a tenant spec the server would
//! misread (a RATE that is not a finite number ≥ 0, anything after QUOTA, a
//! NAME given twice) prints the usage block and exits 2 before binding,
//! while the specs it reads right, and no spec at all, still start it.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The line a started server prints first (perfbench parses it).
const LISTENING: &str = "tdm-server listening on";

/// How long a refused start may take before the test stops the server.
const REFUSAL_WAIT: Duration = Duration::from_secs(10);

fn server(tenants: &[&str]) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tdm-server"));
    for spec in tenants {
        cmd.args(["--tenant", spec]);
    }
    cmd.stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("tdm-server failed to start")
}

#[test]
fn tenant_specs_it_would_misread_are_refused_before_binding() {
    for tenants in [
        &["a:b:nan"][..],
        &["a:b:inf"],
        &["a:b:-5"],
        &["a:b:5:2:junk"],
        &["a:x", "a:y"],
    ] {
        let mut child = server(tenants);
        let deadline = Instant::now() + REFUSAL_WAIT;
        let status = loop {
            if let Some(status) = child.try_wait().expect("wait on tdm-server") {
                break Some(status);
            }
            if Instant::now() >= deadline {
                child.kill().expect("kill tdm-server");
                child.wait().expect("reap tdm-server");
                break None;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let (mut stdout, mut stderr) = (String::new(), String::new());
        let out = child.stdout.take().expect("piped stdout");
        BufReader::new(out).read_to_string(&mut stdout).unwrap();
        let err = child.stderr.take().expect("piped stderr");
        BufReader::new(err).read_to_string(&mut stderr).unwrap();
        assert!(!stdout.contains(LISTENING), "{tenants:?} started: {stdout}");
        assert_eq!(
            status.and_then(|s| s.code()),
            Some(2),
            "{tenants:?}: {stderr}"
        );
        assert!(
            stderr.contains("usage: tdm-server"),
            "{tenants:?}: {stderr}"
        );
    }
}

#[test]
fn specs_it_reads_right_still_start_it() {
    for tenants in [&[][..], &["a:b:0:1", "c:d:2.5"]] {
        let mut child = server(tenants);
        let mut first = String::new();
        let out = child.stdout.take().expect("piped stdout");
        BufReader::new(out).read_line(&mut first).unwrap();
        child.kill().expect("kill tdm-server");
        child.wait().expect("reap tdm-server");
        assert!(first.starts_with(LISTENING), "{tenants:?}: {first:?}");
    }
}
