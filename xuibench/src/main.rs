//! `xuibench --workload <pipeline|difftest|models> --seed <n>
//! --seconds <n> --trace <0|1>`
//!
//! Prints the host stamp and the output digests as `#` lines, then as
//! its last line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Writes the run report, every call's digest and (with
//! `--trace 1`) the Chrome trace of the traced half under `out/`.

use std::process::ExitCode;

use xuibench::report::{json_num, json_str, metrics_json, result_line, stamp};
use xuibench::runner::{out_dir, run, Kind, Options};

const USAGE: &str =
    "usage: xuibench --workload <pipeline|difftest|models> --seed <n> --seconds <n> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<u32>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
                seconds = Some(f64::from(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        references: None,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xuibench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&opts);
    let stamp = stamp(opts.seed);
    let name = opts.kind.name();
    let tag = format!("{name}-seed{}-trace{}", opts.seed, u8::from(opts.trace));

    let dir = out_dir();
    let digests_path = dir.join(format!("{name}-seed{}.digests", opts.seed));
    let report_path = dir.join(format!("{tag}.json"));
    let shares: Vec<String> = outcome
        .shares
        .iter()
        .map(|(l, f)| format!("{}:{}", json_str(l), json_num(*f)))
        .collect();
    let report = format!(
        "{{\"workload\":{},\"stamp\":{},\"seconds\":{},\"combined_digest\":\"{:016x}\",\"layer_shares\":{{{}}},\"problems\":[{}],\"metrics\":{}}}\n",
        json_str(name),
        stamp.to_json(),
        opts.seconds,
        outcome.combined_digest,
        shares.join(","),
        outcome.problems.iter().map(|p| json_str(p)).collect::<Vec<_>>().join(","),
        metrics_json(&outcome.metrics),
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&digests_path, &outcome.digests))
        .and_then(|()| std::fs::write(&report_path, report));
    if let Err(e) = written {
        eprintln!("xuibench: cannot write under {}: {e}", dir.display());
    }
    if let Some(tracer) = &outcome.tracer {
        let path = dir.join(format!("{tag}.trace.json"));
        if let Err(e) = tracer.write_chrome(&path, &format!("xuibench {name} (host time, ns)")) {
            eprintln!("xuibench: cannot write {}: {e}", path.display());
        }
        println!("# trace: {}", path.display());
        let shares: Vec<String> = outcome
            .shares
            .iter()
            .map(|(l, f)| format!("{l} {:.4}", f))
            .collect();
        println!(
            "# traced self-time share of pass wall time: {}",
            shares.join(", ")
        );
    }
    for p in &outcome.problems {
        eprintln!("xuibench: check failed: {p}");
    }
    println!(
        "# passes: {} untraced, median {:.4} s (wall_s sums each chunk's fastest lap)",
        outcome.passes, outcome.median_pass_s
    );
    println!("# stamp: {}", stamp.to_json());
    println!(
        "# digests: combined {:016x}; per call in {}",
        outcome.combined_digest,
        digests_path.display()
    );
    println!(
        "{}",
        result_line(outcome.attempted, outcome.failed, &outcome.metrics)
    );
    ExitCode::SUCCESS
}
