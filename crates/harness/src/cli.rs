//! The `repro` command-line interface — regenerates every table and figure of the PATHFINDER paper.
//!
//! ```text
//! repro <experiment> [--loads N] [--seed S] [--threads T]
//!
//! experiments:
//!   all    every experiment below, in order (except bench)
//!   fig4   prefetcher shootout: IPC/accuracy/coverage (+ Table 6)
//!   fig5   delta-range sweep
//!   fig6   neuron-count sweep (1-label vs 2-label)
//!   fig7   1-tick vs 32-tick readout
//!   fig8   STDP duty-cycle sweep
//!   fig9   implementation-variant ladder
//!   tab1   first-tick argmax vs 32-tick winner match rate
//!   tab2   SNN learning demonstration (§3.6, Figure 3 data)
//!   tab5   workload inventory
//!   tab7   deltas within range
//!   tab8   per-1K-access delta statistics
//!   tab9   hardware area/power model
//!   ext    beyond-the-paper: dynamic ensembles and cold-page prediction
//!   report structured run report with telemetry (also writes run_report.json
//!          and run_report.md next to the working directory)
//!   bench  perf micro-suite: SNN presentation kernels (including the
//!          SIMD-dispatched vs forced-scalar tier pair), encoding,
//!          per-prefetcher per-access cost (with a churn-shaped cell
//!          of 32 short duty-cycled streams), the replay engine's
//!          dispatched vs pinned-scalar pair, the serve daemon's
//!          stream throughput (singleton and `access_batch`
//!          frame cells), one end-to-end report cell.
//!          Writes bench_report.json (override with --bench-out). With
//!          --baseline <json> the run becomes a gate: exits nonzero when
//!          any suite's median regressed more than --threshold percent
//!          (default 40) versus the baseline document; snn.*, sim.*, and
//!          serve.* suites are skipped when the baseline was recorded on
//!          a different kernel tier (the document's kernel_tier field).
//!   serve  prefetch-as-a-service daemon: listens on --socket (default
//!          /tmp/pathfinder-serve.sock) with --shards lock stripes
//!          (streams map to stripe id % N), serving
//!          access/predict/train/status/configure/drain verbs until a
//!          full drain shuts it down.
//!   serve-smoke
//!          drives --clients concurrent streams of Table-5 trace
//!          prefixes (--loads each) through a running daemon and fails
//!          unless every stream's drained schedule/report/stats are
//!          bit-identical to a batch run; --batch sends the streamed
//!          half as 16-record access_batch frames over each client's
//!          connection instead of singleton accesses;
//!          --no-shutdown leaves the daemon running afterwards.
//! ```
//!
//! `--threads T` bounds the sweep engine's worker pool (default: available
//! parallelism). Results are bit-identical at any thread count; traces and
//! no-prefetch baselines are generated once per process and shared across
//! experiments (see [`crate::engine`]).

use std::process::ExitCode;

use crate::experiments::{
    bench, extensions, fig4, hardware, report, service, snn_analysis, sweeps, trace_stats,
};
use crate::runner::Scenario;
use pathfinder_traces::Workload;

struct Args {
    experiment: String,
    loads: usize,
    sweep_loads: usize,
    seed: u64,
    threads: Option<usize>,
    workloads: Vec<Workload>,
    baseline: Option<String>,
    threshold: f64,
    bench_out: String,
    socket: String,
    shards: usize,
    clients: usize,
    shutdown: bool,
    batch: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut experiment = String::from("all");
    let mut loads = 100_000usize;
    let mut sweep_loads = 0usize;
    let mut seed = 42u64;
    let mut threads: Option<usize> = None;
    let mut workloads: Vec<Workload> = Workload::ALL.to_vec();
    let mut baseline: Option<String> = None;
    let mut threshold = 40.0f64;
    let mut bench_out = String::from("bench_report.json");
    let mut socket = String::from("/tmp/pathfinder-serve.sock");
    let mut shards = 4usize;
    let mut clients = 8usize;
    let mut shutdown = true;
    let mut batch = false;

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0usize;
    let mut saw_experiment = false;
    while i < argv.len() {
        match argv[i].as_str() {
            "--loads" => {
                i += 1;
                loads = argv
                    .get(i)
                    .ok_or("--loads needs a value")?
                    .parse()
                    .map_err(|e| format!("--loads: {e}"))?;
            }
            "--sweep-loads" => {
                i += 1;
                sweep_loads = argv
                    .get(i)
                    .ok_or("--sweep-loads needs a value")?
                    .parse()
                    .map_err(|e| format!("--sweep-loads: {e}"))?;
            }
            "--seed" => {
                i += 1;
                seed = argv
                    .get(i)
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--threads" => {
                i += 1;
                let n: usize = argv
                    .get(i)
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                threads = Some(n);
            }
            "--workload" => {
                i += 1;
                let name = argv.get(i).ok_or("--workload needs a trace name")?;
                let w: Workload = name.parse().map_err(|e| format!("{e}"))?;
                if workloads.len() == Workload::ALL.len() {
                    workloads = vec![w];
                } else {
                    workloads.push(w);
                }
            }
            "--baseline" => {
                i += 1;
                baseline = Some(argv.get(i).ok_or("--baseline needs a path")?.clone());
            }
            "--threshold" => {
                i += 1;
                threshold = argv
                    .get(i)
                    .ok_or("--threshold needs a percentage")?
                    .parse()
                    .map_err(|e| format!("--threshold: {e}"))?;
                if threshold.is_nan() || threshold < 0.0 {
                    return Err("--threshold must be non-negative".to_string());
                }
            }
            "--bench-out" => {
                i += 1;
                bench_out = argv.get(i).ok_or("--bench-out needs a path")?.clone();
            }
            "--socket" => {
                i += 1;
                socket = argv.get(i).ok_or("--socket needs a path")?.clone();
            }
            "--shards" => {
                i += 1;
                shards = argv
                    .get(i)
                    .ok_or("--shards needs a value")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
                if shards == 0 {
                    return Err("--shards must be at least 1".to_string());
                }
            }
            "--clients" => {
                i += 1;
                clients = argv
                    .get(i)
                    .ok_or("--clients needs a value")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?;
                if clients == 0 {
                    return Err("--clients must be at least 1".to_string());
                }
            }
            "--no-shutdown" => {
                shutdown = false;
            }
            "--batch" => {
                batch = true;
            }
            "--help" | "-h" => {
                return Err(String::new());
            }
            exp if !saw_experiment && !exp.starts_with('-') => {
                experiment = exp.to_string();
                saw_experiment = true;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if sweep_loads == 0 {
        // Sweeps run many PATHFINDER configurations; default to a smaller
        // per-configuration trace than the shootout.
        sweep_loads = (loads / 2).max(1000);
    }
    Ok(Args {
        experiment,
        loads,
        sweep_loads,
        seed,
        threads,
        workloads,
        baseline,
        threshold,
        bench_out,
        socket,
        shards,
        clients,
        shutdown,
        batch,
    })
}

/// Parses CLI arguments and runs the selected experiment(s).
pub fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!(
                "usage: repro [all|fig4|fig5|fig6|fig7|fig8|fig9|tab1|tab2|tab5|tab7|tab8|tab9|ext|report|bench|serve|serve-smoke] \
                 [--loads N] [--sweep-loads N] [--seed S] [--threads T] [--workload NAME]... \
                 [--baseline JSON] [--threshold PCT] [--bench-out PATH] \
                 [--socket PATH] [--shards N] [--clients N] [--batch] [--no-shutdown]"
            );
            return if msg.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
    };

    if let Some(n) = args.threads {
        crate::engine::set_threads(n);
    }

    // `bench` controls its own exit code (the baseline gate), isn't part of
    // `all`, and interprets --loads as the per-access/e2e trace scale.
    if args.experiment == "bench" {
        return run_bench(&args);
    }

    // Service mode: long-running daemon / its CI smoke driver. Neither is
    // part of `all` (they don't regenerate a paper artifact).
    if args.experiment == "serve" {
        return match service::serve(&service::ServeOpts {
            socket: args.socket.clone(),
            shards: args.shards,
        }) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.experiment == "serve-smoke" {
        let t0 = std::time::Instant::now();
        return match service::smoke(&service::SmokeOpts {
            socket: args.socket.clone(),
            clients: args.clients,
            loads: args.loads,
            seed: args.seed,
            shutdown: args.shutdown,
            batch: args.batch,
        }) {
            Ok(text) => {
                println!("{text}");
                eprintln!(
                    "# serve-smoke finished in {:.1}s",
                    t0.elapsed().as_secs_f64()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: serve-smoke: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let scenario = Scenario {
        loads: args.loads,
        seed: args.seed,
        ..Scenario::default()
    };
    let sweep_scenario = Scenario {
        loads: args.sweep_loads,
        seed: args.seed,
        ..Scenario::default()
    };
    let all = args.workloads.clone();

    eprintln!(
        "# repro: experiment={} loads={} sweep_loads={} seed={} workloads={} threads={}",
        args.experiment,
        args.loads,
        args.sweep_loads,
        args.seed,
        all.len(),
        crate::engine::threads()
    );

    let run_one = |name: &str| -> Option<String> {
        let t0 = std::time::Instant::now();
        let text = match name {
            "fig4" => fig4::render(&fig4::run_with(&scenario, &all)),
            "fig5" => sweeps::fig5(&sweep_scenario, &all).1,
            "fig6" => sweeps::fig6(&sweep_scenario, &all).1,
            "fig7" => sweeps::fig7(&sweep_scenario, &all).1,
            "fig8" => sweeps::fig8(&sweep_scenario, &all).1,
            "fig9" => sweeps::fig9(&sweep_scenario, &all).1,
            "tab1" => snn_analysis::tab1(&sweep_scenario, &all).1,
            "tab2" => snn_analysis::tab2(args.seed).2,
            "tab5" => trace_stats::tab5(&scenario),
            "tab7" => trace_stats::tab7(&scenario, &all).1,
            "tab8" => trace_stats::tab8(&scenario, &all).1,
            "tab9" => hardware::tab9(),
            "ext" => extensions::run(&sweep_scenario, &all).1,
            "report" => {
                let rep = report::run(&scenario, &report::default_lineup(), &all);
                match std::fs::write("run_report.json", rep.to_json()) {
                    Ok(()) => eprintln!("# report: wrote run_report.json"),
                    Err(e) => eprintln!("# report: could not write run_report.json: {e}"),
                }
                match std::fs::write("run_report.md", rep.to_markdown()) {
                    Ok(()) => eprintln!("# report: wrote run_report.md"),
                    Err(e) => eprintln!("# report: could not write run_report.md: {e}"),
                }
                rep.render_text()
            }
            _ => return None,
        };
        eprintln!("# {name} finished in {:.1}s", t0.elapsed().as_secs_f64());
        Some(text)
    };

    let experiments: Vec<&str> = if args.experiment == "all" {
        vec![
            "tab5", "tab7", "tab8", "tab9", "tab2", "tab1", "fig4", "fig5", "fig6", "fig7", "fig8",
            "fig9", "ext", "report",
        ]
    } else {
        vec![args.experiment.as_str()]
    };

    for name in experiments {
        match run_one(name) {
            Some(text) => {
                println!("{text}");
            }
            None => {
                eprintln!("error: unknown experiment `{name}`");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Runs the perf micro-suite, writes the bench document, and (when
/// `--baseline` was given) gates on per-suite median regressions.
fn run_bench(args: &Args) -> ExitCode {
    let t0 = std::time::Instant::now();
    let opts = bench::BenchOpts {
        loads: args.loads,
        seed: args.seed,
    };
    eprintln!("# bench: loads={} seed={}", opts.loads, opts.seed);
    let report = bench::run(&opts);
    println!("{}", report.render_text());

    match std::fs::write(&args.bench_out, report.to_json()) {
        Ok(()) => eprintln!("# bench: wrote {}", args.bench_out),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", args.bench_out);
            return ExitCode::FAILURE;
        }
    }

    let mut verdict = ExitCode::SUCCESS;
    if let Some(path) = &args.baseline {
        let baseline_json = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: could not read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let cmp = match bench::compare_to_baseline(&report, &baseline_json, args.threshold) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("{}", bench::render_deltas(&cmp, args.threshold));
        if cmp.tier_mismatch {
            eprintln!(
                "# bench: baseline tier {} != current tier {}; {} tier-sensitive suite(s) (snn.*/sim.*/serve.*) not gated",
                cmp.baseline_tier.as_deref().unwrap_or("unknown"),
                report.kernel_tier,
                cmp.skipped.len()
            );
        }
        let regressed: Vec<&str> = cmp
            .deltas
            .iter()
            .filter(|d| d.regressed)
            .map(|d| d.name.as_str())
            .collect();
        if regressed.is_empty() {
            eprintln!(
                "# bench: gate passed ({} suites within +{:.0}% of {path})",
                cmp.deltas.len(),
                args.threshold
            );
        } else {
            eprintln!(
                "error: {} suite(s) regressed more than {:.0}% vs {path}: {}",
                regressed.len(),
                args.threshold,
                regressed.join(", ")
            );
            verdict = ExitCode::FAILURE;
        }
    }
    eprintln!("# bench finished in {:.1}s", t0.elapsed().as_secs_f64());
    verdict
}
