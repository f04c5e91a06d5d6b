//! Command line of the end-to-end benchmark:
//!
//! ```text
//! e2ebench --workload <lookup13|topk-zipf-sharded|live-ingest> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! Prints note lines (provenance, sample counts, digests), then as its last
//! line one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`).

use e2ebench::{provenance, refused_env_set, run, Config, Workload};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {value} is out of range"));
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
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke: false,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let refused = refused_env_set(|name| std::env::var(name).ok());
    if !refused.is_empty() {
        eprintln!(
            "e2ebench: refusing to run with {} set: it changes the measured configuration",
            refused.join(", ")
        );
        return ExitCode::from(2);
    }
    println!(
        "# e2ebench workload={} seed={} seconds={} trace={}",
        config.workload.name(),
        config.seed,
        config.seconds,
        u8::from(config.trace)
    );
    println!("# {}", provenance());
    let outcome = run(&config);
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
