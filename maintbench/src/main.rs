//! `md-maintbench`: the warehouse's end-to-end and per-layer maintenance
//! benchmark.
//!
//! ```text
//! cargo run --release --manifest-path maintbench/Cargo.toml -- \
//!     --workload bulk_feed --seed 1 --seconds 20 --trace 0 [--smoke]
//! ```
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Progress and check failures go to standard
//! error. See `README.md` beside this package.

mod layers;
mod reference;
mod rng;
mod run;
mod star;
mod stats;

use run::{Options, Workload};

const USAGE: &str = "usage: md-maintbench --workload <bulk_feed|hot_trickle|dim_churn> \
                     --seed <n> --seconds <n> --trace <0|1> [--smoke]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, not {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        smoke,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = run::run(&opts);
    if !report.correct {
        eprintln!("failed operations by kind: {:?}", report.failures);
    }
    println!("{}", report.json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let o = parse_args(&args(
            "--workload hot_trickle --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload, Workload::HotTrickle);
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.smoke),
            (7, 10.0, true, false)
        );
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload dim_churn --seconds 1")).is_err());
        assert!(parse_args(&args("--workload dim_churn --seed 1 --seconds 1 --trace 2")).is_err());
    }

    /// Every workload and every check, traced and untraced, at smoke scale.
    /// The only failures are the `sum_exact` checks, one per summary per
    /// round, as the probe group guarantees.
    #[test]
    fn smoke_every_workload() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let report = run::run(&Options {
                    workload,
                    seed: 3,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                });
                let name = workload.name();
                assert!(report.correct, "{name}: {:?}", report.failures);
                let rounds = report.failures["sum_exact"] / 4;
                assert!(rounds >= 3, "{name}");
                assert_eq!(report.failed, 4 * rounds, "{name}: {:?}", report.failures);
                let json = report.json();
                assert!(json.starts_with("{\"correct\": true"), "{json}");
                let want = if trace { 33 } else { 10 };
                assert_eq!(report.metrics.len(), want, "{name}: {json}");
            }
        }
    }
}
