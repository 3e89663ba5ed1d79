//! The repository benchmark: four workloads, end-to-end metrics from an
//! untraced run and per-layer metrics from a traced one. See README.md.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig15-64 --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Run from the repository root: the benchmark reads its latency limits
//! from `BENCHMARK.json` and writes traces under `.perfbench_out/`.

mod adapters;
mod report;
mod service;
mod simrun;
mod spans;
mod stats;

use report::Report;
use std::path::PathBuf;

/// Workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["fig15-64", "ones-1k", "replay-1k", "service"];

/// A seed kept out of tuning, for checking claims later (README.md).
const HELD_OUT_SEED: u64 = 9001;

/// Where traces and the service's state file go, under the working
/// directory.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".perfbench_out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = seconds.unwrap_or(25.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Latency limits of `workload`, from the `slo` clause of its `why` in
/// `BENCHMARK.json`: `slo round<=60ms` or `slo submit<=3000ms
/// query<=50ms`.
fn slo_limits(benchmark_json: &str, workload: &str) -> Result<Vec<(String, f64)>, String> {
    let v: serde_json::Value =
        serde_json::from_str(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let why = v
        .get("workloads")
        .and_then(serde_json::Value::as_array)
        .and_then(|ws| {
            ws.iter()
                .find(|w| w.get("name").and_then(serde_json::Value::as_str) == Some(workload))
        })
        .and_then(|w| w.get("why").and_then(serde_json::Value::as_str))
        .ok_or_else(|| format!("BENCHMARK.json has no workload {workload}"))?;
    let clause = why
        .split("slo ")
        .nth(1)
        .ok_or_else(|| format!("the why of {workload} has no slo clause"))?;
    let mut limits = Vec::new();
    for token in clause.split_whitespace() {
        let Some((kind, rest)) = token.split_once("<=") else {
            break;
        };
        let ms = rest
            .trim_end_matches([',', ';', '.', ')'])
            .strip_suffix("ms")
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| format!("bad slo limit {token:?} for {workload}"))?;
        limits.push((kind.to_string(), ms));
    }
    if limits.is_empty() {
        return Err(format!("empty slo clause for {workload}"));
    }
    Ok(limits)
}

fn limit(limits: &[(String, f64)], kind: &str) -> Result<f64, String> {
    limits
        .iter()
        .find(|(k, _)| k == kind)
        .map(|(_, ms)| *ms)
        .ok_or_else(|| format!("no slo limit for {kind}"))
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, when the working directory is a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if head.len() == 40 => head.to_string(),
        None => "unknown".into(),
    }
}

fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (threads, conns) = if args.workload == "service" {
        (2, 2)
    } else {
        (0, 0)
    };
    format!(
        "{{\"provenance\":{{\"workload\":\"{}\",\"seed\":{},\"held_out_seed\":{HELD_OUT_SEED},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"generator_threads\":{threads},\"connections\":{conns},\"derive_threads\":{nproc},\"obs_level\":\"{}\",\"git_rev\":\"{}\"}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ones_obs::level().name(),
        git_rev()
    )
}

fn run(args: &Args) -> Result<Report, String> {
    let json = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("run from the repository root: BENCHMARK.json: {e}"))?;
    let limits = slo_limits(&json, &args.workload)?;
    let mut report = Report::default();
    if args.workload == "service" {
        let limits = service::Limits {
            submit_ms: limit(&limits, "submit")?,
            query_ms: limit(&limits, "query")?,
        };
        if args.trace {
            service::run_traced(args.seed, args.seconds, limits, &mut report);
        } else {
            service::run_timed(args.seed, args.seconds, limits, &mut report);
        }
    } else {
        let round_ms = limit(&limits, "round")?;
        let w = match args.workload.as_str() {
            "fig15-64" => simrun::fig15_64(round_ms),
            "ones-1k" => simrun::ones_1k(round_ms),
            _ => simrun::replay_1k(round_ms),
        };
        if args.trace {
            simrun::run_traced(&w, args.seed, args.seconds, &mut report);
        } else {
            simrun::run_timed(&w, args.seed, args.seconds, &mut report);
        }
    }
    if args.trace {
        // Track 1 is the simulator loop or the service's core thread;
        // tracks 2 and 3 are the service's submit and query generators.
        let path = out_dir().join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        ones_obs::write_chrome_trace(&path).map_err(|e| e.to_string())?;
        report.note("trace_spans", spans::spans().len() as f64);
        eprintln!("perfbench: trace written to {}", path.display());
    } else {
        report.set("peak_rss_mb", peak_rss_mb());
    }
    Ok(report)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", provenance(&args));
            println!("{}", report.stats_json());
            for f in &report.failures {
                eprintln!("perfbench: check failed: {f}");
            }
            println!("{}", report.result_json(args.trace));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_clause_parses() {
        let json = r#"{"workloads":[
            {"name":"a","why":"x; slo round<=60ms"},
            {"name":"b","why":"y; slo submit<=3000ms query<=50ms"},
            {"name":"c","why":"no clause"},
            {"name":"d","why":"slo round<=60s"}]}"#;
        assert_eq!(slo_limits(json, "a").unwrap(), vec![("round".into(), 60.0)]);
        let b = slo_limits(json, "b").unwrap();
        assert_eq!(limit(&b, "submit").unwrap(), 3000.0);
        assert_eq!(limit(&b, "query").unwrap(), 50.0);
        assert!(limit(&b, "round").is_err());
        assert!(slo_limits(json, "c").is_err());
        assert!(slo_limits(json, "d").is_err());
        assert!(slo_limits(json, "zz").is_err());
    }

    #[test]
    fn every_workload_has_limits_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        for w in WORKLOADS {
            let limits = slo_limits(&json, w).unwrap();
            let kinds: &[&str] = if w == "service" {
                &["submit", "query"]
            } else {
                &["round"]
            };
            for k in kinds {
                assert!(limit(&limits, k).unwrap() > 0.0, "{w} {k}");
            }
        }
    }
}
