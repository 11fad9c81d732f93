//! The `psr` binary on bad inputs: each must exit with status 1 and a
//! one-line `error: …` on stderr, never a panic.

use std::path::PathBuf;
use std::process::Command;

/// A per-test scratch path under the system temp directory.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("psr-cli-test-{}-{name}", std::process::id()))
}

/// Runs `psr` and asserts the clean failure contract.
fn assert_clean_error(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_psr")).args(args).output().expect("psr runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error:"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    stderr
}

#[test]
fn a_missing_input_file_is_an_error() {
    let stderr =
        assert_clean_error(&["recommend", "--target", "1", "--input", "/nonexistent/e.txt"]);
    assert!(stderr.contains("/nonexistent/e.txt"), "{stderr}");
}

#[test]
fn a_truncated_snapshot_is_an_error() {
    let snapshot = scratch("truncated.psrz");
    let requests = scratch("requests.json");
    let built = Command::new(env!("CARGO_BIN_EXE_psr"))
        .args(["build-snapshot", "--preset", "wiki", "--scale", "0.01", "--out"])
        .arg(&snapshot)
        .output()
        .expect("psr runs");
    assert!(built.status.success(), "{}", String::from_utf8_lossy(&built.stderr));
    let bytes = std::fs::read(&snapshot).unwrap();
    std::fs::write(&snapshot, &bytes[..bytes.len() / 2]).unwrap();
    std::fs::write(&requests, r#"[{"target": 0, "k": 1}]"#).unwrap();

    let args = [
        "serve",
        "--requests",
        requests.to_str().unwrap(),
        "--snapshot",
        snapshot.to_str().unwrap(),
    ];
    let stderr = assert_clean_error(&args);
    assert!(stderr.contains("opening snapshot"), "{stderr}");
    let _ = std::fs::remove_file(&snapshot);
    let _ = std::fs::remove_file(&requests);
}

#[test]
fn a_malformed_request_list_is_an_error() {
    let requests = scratch("malformed.json");
    std::fs::write(&requests, "[{\"target\": 0,").unwrap();
    let args = ["serve", "--requests", requests.to_str().unwrap(), "--scale", "0.01"];
    let stderr = assert_clean_error(&args);
    assert!(stderr.contains("parsing"), "{stderr}");
    let _ = std::fs::remove_file(&requests);
}
