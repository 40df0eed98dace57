//! Deeply nested JSON is a configuration error, never a crash: the
//! vendored parser bounds its recursion at `serde_json::MAX_DEPTH`, so
//! half a megabyte of `[` makes `xui run` exit 2 and `xui serve` answer
//! 400 and keep serving, and trace validation returns an error, where
//! all three used to abort on a stack overflow.
//! Real scenario, sweep and fault-plan documents nest far below the
//! bound and still parse.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use xui::faults::FaultPlan;
use xui::scenario::{registry, sweep, Scenario, SweepSpec};
use xui_serve::http::MAX_BODY_BYTES;
use xui_serve::http_request;

/// 500 KB of `[`: overflowed the default 8 MiB main-thread stack.
fn deep_array() -> String {
    "[".repeat(500_000)
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("xui-deep-json-{}-{name}", std::process::id()))
}

/// Deepest array/object nesting in `json` (ignores brackets in strings).
fn nesting_depth(json: &str) -> usize {
    let (mut depth, mut max, mut in_str, mut escaped) = (0usize, 0usize, false, false);
    for c in json.chars() {
        match (in_str, escaped, c) {
            (true, true, _) => escaped = false,
            (true, false, '\\') => escaped = true,
            (true, false, '"') | (false, _, '"') => in_str = !in_str,
            (false, _, '[' | '{') => {
                depth += 1;
                max = max.max(depth);
            }
            (false, _, ']' | '}') => depth -= 1,
            _ => {}
        }
    }
    max
}

#[test]
fn run_on_deeply_nested_file_exits_2_with_message() {
    let file = tmp_path("deep.json");
    std::fs::write(&file, deep_array()).expect("write temp scenario");
    let out = Command::new(env!("CARGO_BIN_EXE_xui"))
        .arg("run")
        .arg(&file)
        .output()
        .expect("xui binary runs");
    std::fs::remove_file(&file).ok();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(err.contains("invalid scenario file"), "{err}");
    assert!(err.contains("nesting deeper than"), "{err}");
}

#[test]
fn trace_validation_rejects_deeply_nested_documents() {
    let err = xui::telemetry::chrome::validate(&deep_array()).unwrap_err();
    assert!(err.contains("nesting deeper than"), "{err}");
}

#[test]
fn serve_rejects_deeply_nested_bodies_and_keeps_serving() {
    let port_file = tmp_path("addr.txt");
    let mut child = Command::new(env!("CARGO_BIN_EXE_xui"))
        .arg("serve")
        .arg("--port-file")
        .arg(&port_file)
        .stdout(Stdio::null())
        .spawn()
        .expect("xui serve starts");
    let deadline = Instant::now() + Duration::from_secs(20);
    let addr: SocketAddr = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let Ok(addr) = text.trim().parse() {
                break addr;
            }
        }
        assert!(Instant::now() < deadline, "xui serve never wrote its port file");
        std::thread::sleep(Duration::from_millis(20));
    };
    std::fs::remove_file(&port_file).ok();

    let body = deep_array();
    assert!(body.len() < MAX_BODY_BYTES, "the body must reach the parser");
    for path in ["/api/runs", "/api/sweeps"] {
        let (status, reply) = http_request(addr, "POST", path, Some(&body)).expect("reply");
        assert_eq!(status, 400, "POST {path}: {reply}");
        assert!(reply.contains("nesting deeper than"), "POST {path}: {reply}");
    }
    let (status, reply) = http_request(addr, "GET", "/api/healthz", None).expect("reply");
    assert_eq!(status, 200, "{reply}");

    let (status, reply) = http_request(addr, "POST", "/api/shutdown", None).expect("reply");
    assert_eq!(status, 200, "{reply}");
    let exit = child.wait().expect("xui serve exits");
    assert_eq!(exit.code(), Some(0));
}

#[test]
fn real_documents_nest_below_the_limit_and_parse() {
    for sc in registry::all() {
        let json = sc.to_json();
        assert!(nesting_depth(&json) < serde_json::MAX_DEPTH, "{}", sc.name);
        let back = Scenario::from_json(&json).unwrap_or_else(|e| panic!("{}: {e}", sc.name));
        assert_eq!(back.to_json(), json, "{}", sc.name);
    }
    for sw in sweep::presets() {
        let json = sw.to_json();
        assert!(nesting_depth(&json) < serde_json::MAX_DEPTH, "{}", sw.name);
        let back = SweepSpec::from_json(&json).unwrap_or_else(|e| panic!("{}: {e}", sw.name));
        assert_eq!(back.to_json(), json, "{}", sw.name);
    }
    let plan = FaultPlan::named("deep")
        .seed(7)
        .drop_every(5, 1)
        .delay_every(3, 0, 400)
        .flip_sn(10, 20, true)
        .clamp_ring(1, 0, 1_000, 4)
        .reorder_posts(3);
    let json = serde_json::to_string_pretty(&plan).expect("plan serializes");
    assert!(nesting_depth(&json) < serde_json::MAX_DEPTH);
    let back: FaultPlan = serde_json::from_str(&json).expect("plan parses back");
    assert_eq!(serde_json::to_string_pretty(&back).expect("plan serializes"), json);
}
