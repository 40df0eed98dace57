//! Locks the `xui` CLI's exit-status contract: 0 pass, 1 experiment
//! failure, 2 usage/config error — in particular that a bad scenario
//! *path* (missing, unreadable, or invalid JSON) is a clean exit 2
//! with a pointed message, never a panic or a silent pass.

use std::path::PathBuf;
use std::process::{Command, Output};

fn xui(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xui"))
        .args(args)
        .output()
        .expect("xui binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("xui-cli-exit-{}-{name}", std::process::id()))
}

#[test]
fn run_with_missing_file_exits_2_with_message() {
    let out = xui(&["run", "/no/such/dir/scenario.json"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("cannot read scenario file `/no/such/dir/scenario.json`"),
        "unhelpful message: {err}"
    );
}

#[test]
fn run_with_unreadable_path_exits_2_with_message() {
    // A directory is unreadable-as-a-file on every platform and for
    // every uid (tests often run as root, where mode 000 still reads).
    let dir = tmp_path("dir.json");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let arg = dir.to_str().expect("utf-8 temp path");
    let out = xui(&["run", arg]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("cannot read scenario file"), "{}", stderr(&out));
}

#[test]
fn run_with_invalid_json_file_exits_2_with_message() {
    let file = tmp_path("garbage.json");
    std::fs::write(&file, "{ not json").expect("write temp scenario");
    let arg = file.to_str().expect("utf-8 temp path");
    let out = xui(&["run", arg]);
    std::fs::remove_file(&file).ok();
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("invalid scenario file"), "{}", stderr(&out));
}

#[test]
fn run_with_unknown_preset_exits_2_and_points_at_list() {
    let out = xui(&["run", "no_such_preset"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("unknown scenario `no_such_preset`"), "{err}");
    assert!(err.contains("xui list"), "should point at `xui list`: {err}");
}

#[test]
fn unknown_flag_exits_2_with_usage() {
    // `--bench-meta` was removed; it must now be rejected like any other
    // undeclared flag.
    for flag in ["--no-such-flag", "--bench-meta"] {
        let out = xui(&["run", "fig2_timeline", flag]);
        assert_eq!(out.status.code(), Some(2), "{flag} stderr: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
        assert!(err.contains("usage"), "{err}");
    }
}

#[test]
fn show_preset_exits_0_with_json() {
    let out = xui(&["show", "fig2_timeline"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let body = String::from_utf8_lossy(&out.stdout);
    assert!(body.contains("\"fig2_timeline\""), "{body}");
}

#[test]
fn preset_name_wins_over_colliding_dirname() {
    // Regression: `load_scenario` used to treat any existing path as a
    // scenario file, so a stray `fig2_timeline/` in the CWD shadowed the
    // preset and `show`/`run` exited 2 ("cannot read scenario file").
    let cwd = tmp_path("collide-cwd");
    let dir = cwd.join("fig2_timeline");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let out = Command::new(env!("CARGO_BIN_EXE_xui"))
        .args(["show", "fig2_timeline"])
        .current_dir(&cwd)
        .output()
        .expect("xui binary runs");
    std::fs::remove_dir_all(&cwd).ok();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let body = String::from_utf8_lossy(&out.stdout);
    assert!(body.contains("\"fig2_timeline\""), "{body}");
}

#[test]
fn show_and_list_reject_run_only_flags() {
    // Regression: one shared CliSpec used to declare every flag for
    // every command, so `show --faults x` parsed and was ignored.
    for args in [
        &["show", "fig2_timeline", "--faults", "x"][..],
        &["show", "fig2_timeline", "--threads", "4"],
        &["show", "fig2_timeline", "--full", "3"],
        &["list", "--threads", "4"],
        &["list", "--full", "3"],
    ] {
        let out = xui(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} stderr: {}", stderr(&out));
        assert!(stderr(&out).contains("usage"), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn sweep_expand_prints_the_grid() {
    let out = xui(&["sweep", "sweep_fig2_grid", "--expand"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let body = String::from_utf8_lossy(&out.stdout);
    let points: Vec<&str> = body.lines().collect();
    assert_eq!(points.len(), 16, "{body}");
    assert!(points[0].starts_with("fig2_timeline@sender_countdown=1000,"), "{body}");
}

#[test]
fn sweep_with_malformed_grid_exits_2() {
    let file = tmp_path("bad-grid.json");
    std::fs::write(
        &file,
        r#"{"name":"bad","scenario":"fig2_timeline","grid":{"sender_countdown":{"from":9,"to":1,"step":1}}}"#,
    )
    .expect("write temp sweep");
    let arg = file.to_str().expect("utf-8 temp path");
    let out = xui(&["sweep", arg, "--expand"]);
    std::fs::remove_file(&file).ok();
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("empty range"), "{}", stderr(&out));

    let out = xui(&["sweep", "{ not json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown sweep"), "{}", stderr(&out));

    let out = xui(&["sweep", "no_such_sweep"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown sweep `no_such_sweep`"), "{}", stderr(&out));
}

#[test]
fn sweep_rejects_malformed_shards() {
    for bad in ["5/2", "2/2", "x/y", "1/0", "3"] {
        let out = xui(&["sweep", "sweep_fig2_grid", "--shard", bad, "--expand"]);
        assert_eq!(out.status.code(), Some(2), "--shard {bad}: {}", stderr(&out));
        assert!(stderr(&out).contains("invalid shard"), "--shard {bad}: {}", stderr(&out));
    }
}

#[test]
fn misspelled_flag_exits_2_with_named_flag_and_usage() {
    let out = xui(&["run", "fig6_timer_core", "--bench-mata"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("unknown flag `--bench-mata`"), "{err}");
    assert!(err.contains("usage: xui run"), "{err}");
}

#[test]
fn trace_without_value_exits_2() {
    let out = xui(&["run", "fig6_timer_core", "--trace"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("requires a value"), "{}", stderr(&out));
}

#[test]
fn run_help_lists_every_run_flag() {
    let out = xui(&["run", "--help"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let body = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "--metrics",
        "--trace <PATH>",
        "--threads <N>",
        "--full <N>",
        "--sim <N>",
        "--seed <S>",
    ] {
        assert!(body.contains(needle), "help missing {needle}: {body}");
    }
}

#[test]
fn corpus_flags_on_a_non_oracle_scenario_exit_2_with_usage() {
    // Regression: `xui run` used to accept `--full`/`--sim` for every
    // scenario and silently ignore them outside `oracle_fuzz`.
    for flag in ["--full", "--sim"] {
        let out = xui(&["run", "table2_uipi_metrics", flag, "3"]);
        assert_eq!(out.status.code(), Some(2), "{flag} stderr: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains(&format!("`{flag}` applies only to oracle_fuzz")), "{err}");
        assert!(err.contains("usage: xui run"), "{err}");
    }
}

#[test]
fn thread_count_does_not_change_stdout() {
    let serial = xui(&["run", "fig6_timer_core", "--threads", "1"]);
    let parallel = xui(&["run", "fig6_timer_core", "--threads", "4"]);
    assert_eq!(serial.status.code(), Some(0), "stderr: {}", stderr(&serial));
    assert_eq!(parallel.status.code(), Some(0), "stderr: {}", stderr(&parallel));
    assert!(!serial.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&parallel.stdout)
    );
}

#[test]
fn zero_counts_and_non_positive_rates_exit_2_with_message() {
    // Regression: each of these used to reach the model and panic
    // (exit 101) on an assert or a zero-rate Poisson process.
    use xui::scenario::registry;
    use xui::scenario::spec::Experiment;

    type Edit = fn(&mut Experiment);
    let cases: [(&str, Edit, &str); 8] = [
        ("fig8_l3fwd", |e| {
            if let Experiment::Fig8L3fwd { nic_counts, .. } = e {
                *nic_counts = vec![0];
            }
        }, "NIC count"),
        ("ablation_multiworker", |e| {
            if let Experiment::AblationMultiworker { worker_counts, .. } = e {
                *worker_counts = vec![0];
            }
        }, "worker count"),
        ("ablation_multiworker", |e| {
            if let Experiment::AblationMultiworker { per_worker_krps, .. } = e {
                *per_worker_krps = 0.0;
            }
        }, "per-worker load"),
        ("mt_tenants", |e| {
            if let Experiment::MultiTenant { tenant_counts, .. } = e {
                *tenant_counts = vec![0];
            }
        }, "client counts"),
        ("mt_tenants", |e| {
            if let Experiment::MultiTenant { clients_per_tenant, .. } = e {
                *clients_per_tenant = 0;
            }
        }, "client counts"),
        ("mt_tenants", |e| {
            if let Experiment::MultiTenant { rps_per_client, .. } = e {
                *rps_per_client = 0.0;
            }
        }, "request rate"),
        ("fig7_rocksdb", |e| {
            if let Experiment::Fig7Rocksdb { loads_krps, .. } = e {
                *loads_krps = vec![0.0];
            }
        }, "offered load"),
        ("fig7_rocksdb", |e| {
            if let Experiment::Fig7Rocksdb { loads_krps, .. } = e {
                *loads_krps = vec![50.0, -5.0];
            }
        }, "offered load"),
    ];
    for (i, (preset, edit, needle)) in cases.into_iter().enumerate() {
        let mut sc = registry::find(preset).expect("preset exists");
        let before = sc.experiment.clone();
        edit(&mut sc.experiment);
        assert_ne!(sc.experiment, before, "case {i}: the edit must apply");
        let file = tmp_path(&format!("bad-count-{i}.json"));
        std::fs::write(&file, sc.to_json()).expect("write temp scenario");
        let out = xui(&["run", file.to_str().expect("utf-8 temp path")]);
        std::fs::remove_file(&file).ok();
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "case {i} ({preset}): {err}");
        assert!(err.contains(needle), "case {i} ({preset}): {err}");
    }
}
