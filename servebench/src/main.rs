//! Socket-level serving benchmark for the PATHFINDER prefetch daemon.
//!
//! ```text
//! servebench --daemon <repro binary> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Spawns `repro serve --shards 2` as a child process, drives it over its
//! Unix socket with one traffic mix generated from the seed before timing,
//! referees every reply against a local batch run, and prints one JSON
//! result line: the end-to-end metrics with `--trace 0`, or the per-layer
//! metrics of an extra traced round with `--trace 1`. See README.md.

mod daemon;
mod load;
mod plan;
mod referee;
mod stats;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use pathfinder_serve::{Request, Response, UnixClient};
use pathfinder_telemetry::json;

use crate::daemon::Daemon;
use crate::plan::Mix;
use crate::stats::{median, quantile, ratio, Metrics};

/// Daemon start-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Where the daemon's sockets live, relative to the working directory (a
/// Unix socket path must stay under ~100 bytes).
const RUN_DIR: &str = ".servebench_run";

#[derive(Debug)]
struct Args {
    daemon: PathBuf,
    mix: Mix,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: servebench --daemon <repro binary> --workload <single-frozen|batch-frozen|train-learning|churn-fanout> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut daemon = None;
    let mut mix = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--daemon" => daemon = Some(PathBuf::from(value)),
            "--workload" => {
                mix = Some(Mix::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        daemon: daemon.ok_or("--daemon is required")?,
        mix: mix.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Daemon-wide shard telemetry read from `status`: the burst histogram's
/// count and sum, and the grouped-inference counter.
#[derive(Debug, Clone, Copy, Default)]
struct ShardCounters {
    bursts: f64,
    burst_messages: f64,
    grouped_inferences: f64,
}

fn shard_counters(client: &mut UnixClient) -> Result<ShardCounters, String> {
    let resp = client
        .request(&Request::Status { stream: None })
        .map_err(|e| format!("status: {e}"))?;
    let Response::Status(status) = resp else {
        return Err(format!("status replied {resp:?}"));
    };
    let doc = json::parse(&status.telemetry_json).map_err(|e| format!("status telemetry: {e}"))?;
    let burst = doc
        .get("histograms")
        .and_then(|h| h.get("serve.shard.burst"));
    let field = |name: &str| {
        burst
            .and_then(|b| b.get(name))
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0)
    };
    Ok(ShardCounters {
        bursts: field("count"),
        burst_messages: field("sum"),
        grouped_inferences: doc
            .get("counters")
            .and_then(|c| c.get("serve.batch.inference_grouped"))
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0),
    })
}

/// Starts a daemon, waits for its first reply, and sends the mix's
/// `configure`. Returns the daemon, the connection, and the elapsed time.
fn start_daemon(args: &Args, socket: PathBuf) -> Result<(Daemon, UnixClient, f64), String> {
    let start = Instant::now();
    let mut daemon = Daemon::spawn(&args.daemon, &socket)
        .map_err(|e| format!("spawn {}: {e}", args.daemon.display()))?;
    let mut client = daemon.connect().map_err(|e| format!("connect: {e}"))?;
    match client.request(&Request::Status { stream: None }) {
        Ok(Response::Status(_)) => {}
        other => return Err(format!("first status replied {other:?}")),
    }
    if let Some(delta) = args.mix.delta() {
        match client.request(&Request::Configure(delta)) {
            Ok(Response::Ok) => {}
            other => return Err(format!("configure replied {other:?}")),
        }
    }
    Ok((daemon, client, start.elapsed().as_secs_f64()))
}

/// Shuts a daemon down; it must hold no live streams.
fn stop_daemon(daemon: Daemon, client: &mut UnixClient) -> Result<(), String> {
    match daemon.shutdown(client) {
        Ok(Response::Drained(rest)) if rest.is_empty() => Ok(()),
        Ok(other) => Err(format!("shutdown drain replied {other:?}")),
        Err(e) => Err(format!("shutdown: {e}")),
    }
}

/// One run. Returns whether every output was correct; prints the result
/// line either way.
fn run(args: &Args) -> Result<bool, String> {
    let plan = plan::build(args.mix, args.seed)?;
    let expected = referee::expect_all(&plan)?;
    std::fs::create_dir_all(RUN_DIR).map_err(|e| format!("{RUN_DIR}: {e}"))?;
    let socket = |i: usize| PathBuf::from(RUN_DIR).join(format!("{}-{i}.sock", std::process::id()));

    // Set up several times; keep the last daemon for the load.
    let mut setup_s = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS - 1 {
        let (daemon, mut client, took) = start_daemon(args, socket(i))?;
        setup_s.push(took);
        stop_daemon(daemon, &mut client)?;
    }
    let (mut daemon, first, took) = start_daemon(args, socket(SETUPS - 1))?;
    setup_s.push(took);

    let mut clients = vec![first];
    for _ in 1..args.mix.connections() {
        clients.push(daemon.connect().map_err(|e| format!("connect: {e}"))?);
    }
    let before = shard_counters(&mut clients[0])?;
    let cpu_before = daemon.cpu_seconds().map_err(|e| e.to_string())?;
    let load = load::run(&plan, &expected, &mut clients, args.seconds);
    let cpu = daemon.cpu_seconds().map_err(|e| e.to_string())? - cpu_before;
    let after = shard_counters(&mut clients[0])?;
    let rss_mib = daemon.peak_rss_mib().map_err(|e| e.to_string())?;

    let ingest_us: Vec<f64> = load
        .ingest
        .iter()
        .map(|d| d.as_nanos() as f64 / 1e3)
        .collect();
    let drain_s: Vec<f64> = load.drain.iter().map(|d| d.as_secs_f64()).collect();
    eprintln!(
        "# {} seed {}: {} round(s), {} accesses in {:.3} s; {} ingest frames, {} drains timed",
        args.mix.name(),
        args.seed,
        load.rounds,
        load.accesses,
        load.wall.as_secs_f64(),
        ingest_us.len(),
        drain_s.len(),
    );
    let rates: Vec<String> = load.round_rates.iter().map(|r| format!("{r:.0}")).collect();
    eprintln!("#   accesses/s per round: {}", rates.join(" "));
    // Each start-up sends status (and configure), each daemon gets a
    // shutdown drain, and the load is bracketed by two status reads.
    let per_setup = 2 + u64::from(args.mix.delta().is_some());
    let mut attempted = per_setup * SETUPS as u64 + 2 + load.attempted;
    let mut failed = load.failed;
    let mut errors = load.errors;

    let traced = if args.trace {
        let t = traced::run(&plan.template, &plan.rounds[0], &expected[0], &mut clients);
        attempted += t.attempted + 1;
        failed += t.failed;
        errors.extend(t.errors.iter().cloned());
        Some((t, shard_counters(&mut clients[0])?))
    } else {
        None
    };
    if let Err(e) = stop_daemon(daemon, &mut clients[0]) {
        failed += 1;
        errors.push(e);
    }
    for e in &errors {
        eprintln!("# error: {e}");
    }

    let mut m = Metrics::default();
    if let Some((t, traced_counters)) = traced {
        traced::add_metrics(&mut m, &t, median(&ingest_us));
        // Bursts come from the untraced load, where the daemon sees real
        // traffic rather than one frame at a time; grouped inferences from
        // the traced round, which is the same frames every run.
        let burst_mean = ratio(
            after.burst_messages - before.burst_messages,
            after.bursts - before.bursts,
        );
        m.add("engine.burst_mean", burst_mean, "count");
        m.add(
            "engine.grouped_inferences",
            traced_counters.grouped_inferences - after.grouped_inferences,
            "count",
        );
    } else {
        let ok = attempted.saturating_sub(failed);
        m.add("setup_s", median(&setup_s), "s");
        m.add(
            "accesses_per_s",
            ratio(load.accesses as f64, load.wall.as_secs_f64()),
            "1/s",
        );
        m.add("req_p50_us", median(&ingest_us), "us");
        m.add("req_p99_us", quantile(&ingest_us, 0.99), "us");
        m.add("drain_s", median(&drain_s), "s");
        m.add("rss_peak_mb", rss_mib, "MiB");
        m.add(
            "cpu_us_per_access",
            ratio(cpu * 1e6, load.accesses as f64),
            "us",
        );
        m.add("ok_frac", ratio(ok as f64, attempted as f64), "frac");
        m.add("prefetch_accuracy", load.quality.accuracy(), "frac");
        m.add("prefetch_coverage", load.quality.coverage(), "frac");
        m.add("ipc_speedup", load.quality.ipc_speedup(), "x");
    }
    let correct = failed == 0 && load.rounds > 0 && load.quality.accuracy() > 0.0;
    println!("{}", m.result_line(correct, attempted, failed));
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&argv(
            "--daemon d --workload churn-fanout --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.mix, a.seed, a.seconds, a.trace),
            (Mix::ChurnFanout, 3, 10.0, true)
        );
        assert!(parse_args(&argv("--daemon d --workload nope --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&argv("--daemon d --workload single-frozen --seconds 10")).is_err());
        assert!(parse_args(&argv(
            "--daemon d --workload single-frozen --seed 1 --seconds 0"
        ))
        .is_err());
        assert!(parse_args(&argv("--daemon")).is_err());
    }
}
