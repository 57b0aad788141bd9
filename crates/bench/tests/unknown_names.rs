//! A name a binary does not know is a usage error: the binary says which
//! name it refused and exits non-zero, without a panic.

use std::process::Command;

/// Runs `bin args` and checks that it is refused cleanly with `message`
/// on stderr.
fn assert_refused(bin: &str, args: &[&str], message: &str) {
    let out = Command::new(bin).args(args).output().expect("the binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{bin} {args:?} succeeded");
    assert!(!stderr.contains("panicked"), "{bin} {args:?} panicked:\n{stderr}");
    assert!(stderr.contains(message), "{bin} {args:?} did not say {message:?}:\n{stderr}");
}

#[test]
fn unknown_workloads_are_refused() {
    let bins = [env!("CARGO_BIN_EXE_compare_schemes"), env!("CARGO_BIN_EXE_inspect_ppf")];
    for bin in bins {
        assert_refused(bin, &["nosuch"], "unknown workload nosuch");
    }
    assert_refused(
        env!("CARGO_BIN_EXE_compare_schemes"),
        &["605.mcf_s", "nosuch"],
        "unknown workload nosuch",
    );
}

#[cfg(feature = "observe")]
#[test]
fn malformed_telemetry_interval_is_refused() {
    let bin = env!("CARGO_BIN_EXE_fig_telemetry");
    assert_refused(bin, &["--quick", "--interval", "x"], "--interval takes an integer, got \"x\"");
}
