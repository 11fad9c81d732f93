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

#[test]
fn a_mutation_batch_the_graph_rejects_is_an_error() {
    let requests = scratch("rejected-requests.json");
    let mutations = scratch("rejected-mutations.json");
    std::fs::write(&requests, r#"[{"target": 3, "k": 1}]"#).unwrap();
    let cases = [
        (r#"[[{"op":"Insert","u":0,"v":1}]]"#, "edge (0, 1) already exists"),
        (r#"[[{"op":"Insert","u":0,"v":99999999}]]"#, "out of range"),
    ];
    for (batch, why) in cases {
        std::fs::write(&mutations, batch).unwrap();
        let args = [
            "serve",
            "--requests",
            requests.to_str().unwrap(),
            "--mutations",
            mutations.to_str().unwrap(),
            "--preset",
            "wiki",
            "--scale",
            "0.05",
        ];
        let stderr = assert_clean_error(&args);
        assert!(stderr.contains("applying mutation batch 0: mutation #0"), "{stderr}");
        assert!(stderr.contains(why), "{stderr}");
    }
    let _ = std::fs::remove_file(&requests);
    let _ = std::fs::remove_file(&mutations);
}

#[test]
fn a_dynamic_serve_report_is_the_same_at_every_thread_count() {
    // Each epoch's record holds only what the input fixes: no cache
    // eviction count, which depends on how far the worker had drained.
    let requests = scratch("dynamic-requests.json");
    let mutations = scratch("dynamic-mutations.json");
    let targets = [3, 4, 3, 7, 3, 11, 4, 3];
    let list: Vec<String> = targets.iter().map(|t| format!(r#"{{"target":{t},"k":2}}"#)).collect();
    std::fs::write(&requests, format!("[{}]", list.join(","))).unwrap();
    std::fs::write(
        &mutations,
        r#"[[{"op":"Insert","u":3,"v":300}],[{"op":"Delete","u":3,"v":300}]]"#,
    )
    .unwrap();
    let report = |threads: &str| {
        let out_path = scratch(&format!("dynamic-report-{threads}.json"));
        let out = Command::new(env!("CARGO_BIN_EXE_psr"))
            .args(["serve", "--requests", requests.to_str().unwrap()])
            .args(["--mutations", mutations.to_str().unwrap()])
            .args(["--preset", "wiki", "--scale", "0.05", "--threads", threads, "--json"])
            .arg(&out_path)
            .output()
            .expect("psr runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let bytes = std::fs::read(&out_path).unwrap();
        let _ = std::fs::remove_file(&out_path);
        bytes
    };
    let one = report("1");
    let text = String::from_utf8_lossy(&one);
    assert!(text.contains("\"dirty_targets\""), "{text}");
    assert!(!text.contains("invalidated"), "{text}");
    for _ in 0..3 {
        assert!(report("2") == one, "reports differ between --threads 1 and 2");
        assert!(report("1") == one, "reports differ between runs at --threads 1");
    }
    let _ = std::fs::remove_file(&requests);
    let _ = std::fs::remove_file(&mutations);
}
