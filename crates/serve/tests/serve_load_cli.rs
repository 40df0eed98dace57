//! Locks `serve_load`'s rejection of load shapes that would leave a
//! churn thread without a positive, finite arrival rate: the binary
//! exits 2 with a usage error, and the library's `run_load` returns
//! `Err` instead of panicking on a churn thread.

use std::process::{Command, Output};

use xui_serve::{run_load, LoadConfig};

fn serve_load(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_serve_load"))
        .args(args)
        .output()
        .expect("serve_load binary runs")
}

#[test]
fn bad_rate_or_client_count_exits_2() {
    for args in [
        ["--clients", "3"],
        ["--clients", "0"],
        ["--rps", "0"],
        ["--rps", "-1"],
        ["--rps", "nan"],
        ["--rps", "inf"],
    ] {
        let out = serve_load(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(&format!("invalid value `{}` for `{}`", args[1], args[0])), "{err}");
        assert!(err.contains("usage: serve_load"), "{err}");
    }
}

#[test]
fn run_load_rejects_a_thread_without_a_positive_rate() {
    let too_few_clients = LoadConfig { clients: 3, ..LoadConfig::default() };
    let zero_rate = LoadConfig { rps_per_client: 0.0, ..LoadConfig::default() };
    let nan_rate = LoadConfig { rps_per_client: f64::NAN, ..LoadConfig::default() };
    let no_threads = LoadConfig { churn_threads: 0, ..LoadConfig::default() };
    for cfg in [too_few_clients, zero_rate, nan_rate, no_threads] {
        let err = run_load(&cfg).expect_err("config must be rejected");
        assert!(err.contains("positive, finite arrival rate"), "{err}");
    }
}
