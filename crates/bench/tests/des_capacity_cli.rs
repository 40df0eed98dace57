//! Locks `des_capacity`'s usage errors: it accepts only its own flags,
//! and a zero pending-set size is rejected up front with exit 2 rather
//! than tripping the hold model's event-count assertion (exit 101).

use std::process::{Command, Output};

fn des_capacity(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_des_capacity"))
        .args(args)
        .output()
        .expect("des_capacity binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn foreign_run_flags_exit_2() {
    for args in [
        ["--threads", "4"].as_slice(),
        ["--metrics"].as_slice(),
        ["--trace", "t.json"].as_slice(),
    ] {
        let out = des_capacity(&[&["--pending", "1000", "--events", "1000"], args].concat());
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(&format!("unknown flag `{}`", args[0])), "{}", stderr(&out));
    }
}

#[test]
fn zero_pending_exits_2_with_message() {
    for pending in ["0", "1000,0"] {
        let out = des_capacity(&["--pending", pending, "--events", "1000"]);
        assert_eq!(out.status.code(), Some(2), "--pending {pending}: {}", stderr(&out));
        assert!(stderr(&out).contains("bad --pending entry `0`"), "{}", stderr(&out));
    }
}
