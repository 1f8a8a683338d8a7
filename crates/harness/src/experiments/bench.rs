//! `repro bench` — the perf-gate micro-suite.
//!
//! Runs a fixed set of microbenchmarks over the hot paths the ROADMAP
//! cares about (SNN presentation 32-tick event-driven vs the retained
//! reference kernel, the SIMD-dispatched vs forced-scalar tier pair
//! (`snn.present32.simd` / `snn.present32.scalar`), frozen-weight
//! inference on one repeated query (`snn.present32.frozen`) and on 32
//! distinct ones (`snn.present32.frozen_singleton32`, per query), the
//! 1-tick readout, pixel encoding, per-prefetcher
//! per-access cost, the duty-cycled cached vs always-on steady-state
//! pair, the churn-shaped learning cell (`prefetcher.pathfinder.churn`:
//! 32 fresh duty-cycled streams of 256 accesses), the flat-layout timed replay vs the retained reference engine
//! (`sim.replay.{demand,prefetch,e2e}` plus `sim.replay.e2e.reference`),
//! the serve daemon's stream-serving throughput at widening concurrency
//! (`serve.throughput.{1,64,1024}streams`, sustained aggregate
//! accesses/sec through the in-process engine), the duty-cycled serving
//! template one access per request (`serve.throughput.single`) and in
//! `access_batch` frames (`serve.throughput.batch{16,256}`), two clients
//! whose 64-record frames alternate stripes (`serve.throughput.contended`),
//! and one end-to-end report cell), then emits the results as
//! `bench_report.json` (the `--bench-out` default): suite → median ns/op +
//! throughput, the dispatched kernel tier, plus a telemetry snapshot of the
//! end-to-end cell.
//!
//! With `--baseline <json>` the run becomes a *gate*: each suite's median
//! is compared against the checked-in baseline (`benches/baseline.json`)
//! and the process exits nonzero when any suite regressed by more than the
//! `--threshold` percentage. When the baseline records a different
//! `kernel_tier` than the current run dispatches to (e.g. an AVX2-recorded
//! baseline gated on a scalar-only host), the tier-sensitive `snn.*` and
//! `serve.*` suites are skipped rather than spuriously flagged — see
//! [`compare_to_baseline`]. CI's `perf-smoke` job runs exactly this (see
//! `.github/workflows/ci.yml` and EXPERIMENTS.md § "Benchmark gate").
//!
//! The module produces a small, stable, machine-readable document that the
//! CI gate and the perf trajectory in git history consume. End-to-end
//! serving figures come from `servebench` (see `servebench/README.md`),
//! which drives the daemon through its socket.

use std::hint::black_box;
use std::time::Instant;

use pathfinder_core::{PathfinderConfig, PathfinderPrefetcher, PixelMatrixEncoder, StdpDutyCycle};
use pathfinder_prefetch::generate_prefetches;
use pathfinder_serve::{AccessRecord, Request, ServeEngine, StreamTemplate};
use pathfinder_sim::{MemoryAccess, ReferenceSimulator, Simulator, Trace};
use pathfinder_snn::{DiehlCookNetwork, KernelTier};
use pathfinder_telemetry::{json, Snapshot};
use pathfinder_traces::Workload;

use crate::runner::{PrefetcherKind, Scenario};
use crate::table::TextTable;

/// Schema tag written into every bench document.
pub const SCHEMA: &str = "pathfinder-bench/1";

/// Streams in the `prefetcher.pathfinder.churn` cell.
const CHURN_STREAMS: usize = 32;

/// Accesses per stream in the `prefetcher.pathfinder.churn` cell.
const CHURN_LOADS: usize = 256;

/// Scale parameters for one bench run.
#[derive(Debug, Clone, Copy)]
pub struct BenchOpts {
    /// Loads per trace for the per-access and end-to-end suites.
    pub loads: usize,
    /// Master seed (traces and SNN weights).
    pub seed: u64,
}

impl Default for BenchOpts {
    fn default() -> Self {
        BenchOpts {
            loads: 20_000,
            seed: 42,
        }
    }
}

/// One measured suite.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// Stable suite name (the baseline-matching key).
    pub name: &'static str,
    /// Median ns per operation across samples.
    pub median_ns: f64,
    /// Mean ns per operation across samples.
    pub mean_ns: f64,
    /// Fastest sample's ns per operation.
    pub min_ns: f64,
    /// 10th-percentile sample (nearest rank) of ns per operation.
    pub p10_ns: f64,
    /// 90th-percentile sample (nearest rank) of ns per operation.
    pub p90_ns: f64,
    /// Operations per second at the median.
    pub ops_per_sec: f64,
    /// Timed samples taken.
    pub samples: usize,
    /// Operations per timed sample.
    pub ops_per_sample: u64,
}

/// A full bench run: every suite plus derived figures and telemetry.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Scale parameters used.
    pub opts: BenchOpts,
    /// All suite results, in execution order.
    pub suites: Vec<SuiteResult>,
    /// Median-speedup of the event-driven 32-tick kernel over the retained
    /// reference kernel (the PR-3 acceptance figure).
    pub present32_speedup: f64,
    /// Median-speedup of the duty-cycled, cache-backed prefetcher over the
    /// always-on one on the steady repeating-delta trace (the PR-4
    /// acceptance figure; target ≥ 5x).
    pub pathfinder_cached_speedup: f64,
    /// Median-speedup of the flat-layout replay engine over the retained
    /// reference engine on the end-to-end report cell's trace and schedule
    /// (the PR-5 acceptance figure; target ≥ 1.3x).
    pub sim_replay_speedup: f64,
    /// Paired-median speedup of the dispatched (SIMD where available)
    /// event kernel over the forced-scalar tier on the 32-tick
    /// presentation (the PR-6 acceptance figure). Exactly 1.0-ish on
    /// hosts whose dispatched tier *is* scalar — check `kernel_tier`.
    pub snn_simd_speedup: f64,
    /// Median-speedup of 16-access `access_batch` frames
    /// (`serve.throughput.batch16`) over one access per request
    /// (`serve.throughput.single`), per access: one stream on one
    /// requester under the same duty-cycled serving template, so framing
    /// is the only difference.
    pub serve_batch_speedup: f64,
    /// The kernel tier this run's SNN suites dispatched to (`"avx2"` or
    /// `"scalar"`), from `pathfinder_snn::active_tier`.
    pub kernel_tier: &'static str,
    /// Telemetry snapshot of one end-to-end report cell (empty when the
    /// harness is built without the `telemetry` feature).
    pub telemetry: Snapshot,
}

/// Times `f`, which performs `ops` operations per call, over `samples`
/// timed samples (after one warmup call used for calibration) and returns
/// per-operation statistics. Each sample may batch multiple calls of `f`
/// so that it lasts long enough for the clock to resolve.
fn measure<F: FnMut()>(name: &'static str, samples: usize, ops: u64, mut f: F) -> SuiteResult {
    let calls_per_sample = calibrate(&mut f);
    let mut per_op: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        per_op.push(time_batch(&mut f, calls_per_sample, ops));
    }
    suite_from_samples(name, per_op, calls_per_sample * ops)
}

/// Each timed sample should last ~2 ms (or one call, whichever is longer)
/// so short operations aren't dominated by clock granularity.
const TARGET_SAMPLE_NS: u64 = 2_000_000;

/// Runs `f` once (warmup) and returns how many calls a timed sample needs
/// to reach [`TARGET_SAMPLE_NS`].
fn calibrate<F: FnMut()>(f: &mut F) -> u64 {
    let t0 = Instant::now();
    f();
    let once_ns = (t0.elapsed().as_nanos() as u64).max(1);
    (TARGET_SAMPLE_NS / once_ns).clamp(1, 1_000_000)
}

/// Times one sample of `calls` invocations of `f` and returns ns per
/// operation, where each call performs `ops` operations.
fn time_batch<F: FnMut()>(f: &mut F, calls: u64, ops: u64) -> f64 {
    let t = Instant::now();
    for _ in 0..calls {
        f();
    }
    t.elapsed().as_nanos() as f64 / (calls * ops) as f64
}

/// Folds raw per-op samples into a [`SuiteResult`].
fn suite_from_samples(
    name: &'static str,
    mut per_op: Vec<f64>,
    ops_per_sample: u64,
) -> SuiteResult {
    let samples = per_op.len();
    per_op.sort_by(f64::total_cmp);
    // Nearest-rank percentile; the median below is its q = 0.5 case.
    let rank = |q: f64| per_op[((q * samples as f64).ceil() as usize).clamp(1, samples) - 1];
    let median_ns = per_op[samples / 2];
    let mean_ns = per_op.iter().sum::<f64>() / per_op.len() as f64;
    SuiteResult {
        name,
        median_ns,
        mean_ns,
        min_ns: per_op[0],
        p10_ns: rank(0.1),
        p90_ns: rank(0.9),
        ops_per_sec: if median_ns > 0.0 {
            1e9 / median_ns
        } else {
            0.0
        },
        samples,
        ops_per_sample,
    }
}

/// Times two workloads in interleaved rounds — `a` then `b` within every
/// round — and returns their suite statistics plus the median of the
/// per-round `b`/`a` time ratios.
///
/// The paired ratio is the point: on a contended host the two sides of a
/// round run under (nearly) the same interference epoch, so dividing
/// within the round cancels machine-speed drift that dividing two
/// independently measured medians would fold straight into a derived
/// speedup. Used for the report's flat-vs-reference replay figure.
fn measure_ratio<A: FnMut(), B: FnMut()>(
    name_a: &'static str,
    name_b: &'static str,
    samples: usize,
    ops: u64,
    mut a: A,
    mut b: B,
) -> (SuiteResult, SuiteResult, f64) {
    let calls_a = calibrate(&mut a);
    let calls_b = calibrate(&mut b);
    let mut per_op_a: Vec<f64> = Vec::with_capacity(samples);
    let mut per_op_b: Vec<f64> = Vec::with_capacity(samples);
    let mut ratios: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let pa = time_batch(&mut a, calls_a, ops);
        let pb = time_batch(&mut b, calls_b, ops);
        per_op_a.push(pa);
        per_op_b.push(pb);
        ratios.push(if pa > 0.0 { pb / pa } else { f64::NAN });
    }
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[ratios.len() / 2];
    (
        suite_from_samples(name_a, per_op_a, calls_a * ops),
        suite_from_samples(name_b, per_op_b, calls_b * ops),
        ratio,
    )
}

/// Runs the full micro-suite at the given scale.
pub fn run(opts: &BenchOpts) -> BenchReport {
    let mut suites = Vec::new();

    // --- SNN presentation: the paper's central cost tradeoff. -----------
    let cfg = PathfinderConfig::default();
    let encoder = PixelMatrixEncoder::new(&cfg);
    let rates = encoder.encode(&[1, 2, 3]);

    let mut event_net = DiehlCookNetwork::new(cfg.snn_config(), opts.seed).unwrap();
    suites.push(measure("snn.present32.event", 25, 1, || {
        black_box(event_net.present(black_box(&rates), true));
    }));

    let mut ref_net = DiehlCookNetwork::new(cfg.snn_config(), opts.seed).unwrap();
    suites.push(measure("snn.present32.reference", 25, 1, || {
        black_box(ref_net.present_reference(black_box(&rates), true));
    }));

    // The tier pair (PR 6): the same event kernel through the dispatched
    // tier (AVX2 where detected) and pinned to the scalar fallback. The
    // two networks are same-seeded and bit-identical in behaviour (see
    // snn::accel), so the paired ratio below isolates pure kernel cost.
    // Measured in interleaved rounds for the same drift-cancelling reason
    // as the replay pair. On a host whose dispatched tier is already
    // scalar the pair measures scalar-vs-scalar and the ratio sits at
    // ~1.0 — the report's `kernel_tier` field says which case this was.
    let mut simd_net = DiehlCookNetwork::new(cfg.snn_config(), opts.seed).unwrap();
    let mut scalar_net =
        DiehlCookNetwork::with_kernel_tier(cfg.snn_config(), opts.seed, KernelTier::Scalar)
            .unwrap();
    let (simd_suite, scalar_suite, snn_simd_speedup) = measure_ratio(
        "snn.present32.simd",
        "snn.present32.scalar",
        25,
        1,
        || {
            black_box(simd_net.present(black_box(&rates), true));
        },
        || {
            black_box(scalar_net.present(black_box(&rates), true));
        },
    );
    suites.push(simd_suite);
    suites.push(scalar_suite);

    // Frozen-weight inference (PR 4): a few training rounds first so the
    // measured presentation reflects realistic spiking, then pure frozen
    // queries (no STDP, no traces, weight version fixed) — one repeated
    // query, and 32 distinct delta histories encoded as 32 pixel matrices
    // (ops = 32, so per-op figures stay per query).
    let mut frozen_net = DiehlCookNetwork::new(cfg.snn_config(), opts.seed).unwrap();
    for _ in 0..8 {
        frozen_net.present(&rates, true);
    }
    suites.push(measure("snn.present32.frozen", 25, 1, || {
        black_box(frozen_net.present_frozen(black_box(&rates)));
    }));
    let distinct_rates: Vec<Vec<f32>> = (0..32)
        .map(|i| encoder.encode(&[1 + (i % 5) as i16, 2 + (i % 7) as i16, 3 + (i % 11) as i16]))
        .collect();
    suites.push(measure("snn.present32.frozen_singleton32", 25, 32, || {
        for r in &distinct_rates {
            black_box(frozen_net.present_frozen(black_box(r)));
        }
    }));

    let mut one_tick_net = DiehlCookNetwork::new(cfg.snn_config(), opts.seed).unwrap();
    suites.push(measure("snn.present1.event", 25, 1, || {
        black_box(one_tick_net.present_one_tick(black_box(&rates), true));
    }));

    suites.push(measure("encode.pixel_matrix", 25, 1, || {
        black_box(encoder.encode(black_box(&[1, 2, 3])));
    }));

    // --- Per-prefetcher per-access generation cost. ----------------------
    // Each sample rebuilds the prefetcher and replays the whole trace, so
    // state never accumulates across samples; cost is reported per access.
    let scenario = Scenario {
        loads: opts.loads,
        seed: opts.seed,
        ..Scenario::default()
    };
    let micro_trace = scenario.shared_trace(Workload::Mcf);
    let per_access: &[(&'static str, PrefetcherKind)] = &[
        ("prefetcher.nextline", PrefetcherKind::NextLine),
        ("prefetcher.best_offset", PrefetcherKind::BestOffset),
        ("prefetcher.spp", PrefetcherKind::Spp),
        ("prefetcher.sisb", PrefetcherKind::Sisb),
        ("prefetcher.pythia", PrefetcherKind::Pythia),
        (
            "prefetcher.pathfinder",
            PrefetcherKind::Pathfinder(PathfinderConfig::default()),
        ),
    ];
    for (name, kind) in per_access {
        suites.push(measure(name, 11, micro_trace.len() as u64, || {
            let mut p = kind.build(opts.seed);
            black_box(generate_prefetches(p.as_mut(), black_box(&micro_trace), 2));
        }));
    }

    // --- Steady-state delta workload: the PR-4 acceptance pair. ----------
    // The same repeating-delta trace is replayed by an always-on PATHFINDER
    // (every access trains and queries the SNN) and by a duty-cycled one
    // whose inference-only accesses hit the frozen-query prediction cache.
    // Both produce bit-identical schedules for a given config; the derived
    // ratio below is the memoization speedup on this steady-state pattern.
    let steady_trace = steady_delta_trace(opts.loads);
    let steady_kind = PrefetcherKind::Pathfinder(PathfinderConfig::default());
    suites.push(measure(
        "prefetcher.pathfinder.steady",
        11,
        steady_trace.len() as u64,
        || {
            let mut p = steady_kind.build(opts.seed);
            black_box(generate_prefetches(p.as_mut(), black_box(&steady_trace), 2));
        },
    ));
    let cached_kind = PrefetcherKind::Pathfinder(PathfinderConfig {
        stdp_duty: StdpDutyCycle::first_n_of_5000(250),
        ..PathfinderConfig::default()
    });
    suites.push(measure(
        "prefetcher.pathfinder.cached",
        11,
        steady_trace.len() as u64,
        || {
            let mut p = cached_kind.build(opts.seed);
            black_box(generate_prefetches(p.as_mut(), black_box(&steady_trace), 2));
        },
    ));

    // --- Churn-shaped learning: many short duty-cycled streams. ----------
    // The servebench `churn-fanout` shape without the daemon: 32 fresh
    // duty-cycled prefetchers (STDP on for the first 250 of every 5000
    // accesses, SNN cache 1024), each replaying 256 accesses of Table-5
    // trace `Workload::ALL[i % 11]` in 64-access `on_access_run` chunks.
    // 250 of each stream's 256 accesses run learning presentations, so
    // this cell follows the learning kernel; cost is reported per access.
    let churn_traces: Vec<Trace> = (0..CHURN_STREAMS)
        .map(|i| {
            let workload = Workload::ALL[i % Workload::ALL.len()];
            workload.generate(CHURN_LOADS, opts.seed ^ i as u64)
        })
        .collect();
    let churn_cfg = PathfinderConfig {
        stdp_duty: StdpDutyCycle::first_n_of_5000(250),
        snn_cache_entries: 1024,
        ..PathfinderConfig::default()
    };
    suites.push(measure(
        "prefetcher.pathfinder.churn",
        7,
        (CHURN_STREAMS * CHURN_LOADS) as u64,
        || {
            for (i, trace) in churn_traces.iter().enumerate() {
                let mut p = PathfinderPrefetcher::new(PathfinderConfig {
                    seed: churn_cfg.seed ^ i as u64,
                    ..churn_cfg
                })
                .expect("valid pathfinder config");
                for chunk in trace.accesses().chunks(64) {
                    black_box(p.on_access_run(black_box(chunk)));
                }
            }
        },
    ));

    // --- Timed replay: flat engine vs the retained reference engine. ------
    // Same trace and schedule through both engines; they produce
    // bit-identical reports (pinned by `sim/tests/engine_equivalence.rs`),
    // so the median ratio below isolates the flat layout's win. The demand
    // suite replays the scattered Mcf trace with no schedule (miss-heavy,
    // DRAM-bound); the prefetch suite replays the steady delta trace under
    // a dense next-line schedule (probe/fill-heavy); the e2e pair replays
    // the exact trace + schedule of the report cell measured below.
    suites.push(measure(
        "sim.replay.demand",
        11,
        micro_trace.len() as u64,
        || {
            black_box(Simulator::new(scenario.sim).run(black_box(&micro_trace), &[]));
        },
    ));
    let steady_schedule = {
        let mut p = PrefetcherKind::NextLine.build(opts.seed);
        generate_prefetches(p.as_mut(), &steady_trace, scenario.sim.max_prefetch_degree)
    };
    suites.push(measure(
        "sim.replay.prefetch",
        11,
        steady_trace.len() as u64,
        || {
            black_box(
                Simulator::new(scenario.sim)
                    .run(black_box(&steady_trace), black_box(&steady_schedule)),
            );
        },
    ));
    let replay_trace = scenario.shared_trace(Workload::Sphinx);
    let replay_schedule = {
        let mut p = PrefetcherKind::NextLine.build(opts.seed);
        generate_prefetches(p.as_mut(), &replay_trace, scenario.sim.max_prefetch_degree)
    };
    // The e2e pair is measured in interleaved rounds (flat then reference
    // within each round) so the derived speedup is a median of *paired*
    // ratios — robust to machine-speed drift between the two cells.
    let (flat_e2e, ref_e2e, replay_ratio) = measure_ratio(
        "sim.replay.e2e",
        "sim.replay.e2e.reference",
        15,
        replay_trace.len() as u64,
        || {
            black_box(
                Simulator::new(scenario.sim)
                    .run(black_box(&replay_trace), black_box(&replay_schedule)),
            );
        },
        || {
            black_box(
                ReferenceSimulator::new(scenario.sim)
                    .run(black_box(&replay_trace), black_box(&replay_schedule)),
            );
        },
    );
    suites.push(flat_e2e);
    suites.push(ref_e2e);

    // --- Serve daemon throughput: concurrent streams over lock stripes. ---
    // The same trace is partitioned round-robin over N live streams and
    // pushed through an in-process ServeEngine (4 stripes) by 4 client
    // threads, client c owning the streams with s % 4 == c so per-stream
    // order is preserved. ops = total accesses, so ops/s is the sustained
    // aggregate access rate — the ROADMAP's serving success metric. Each
    // call builds a fresh engine (stream setup is part of serving cost)
    // and drops it without a drain (ingestion throughput, not replay).
    // The widening stream counts move the bottleneck: 1 stream serializes
    // behind its stream's lock, 64 exercises stream parallelism (each client
    // thread serves its own requests inline) with warm learners,
    // 1024 (clamped to the trace length at tiny scales) is dominated by
    // cold-stream setup and cross-stream cache pressure.
    const SERVE_CLIENTS: usize = 4;
    for &(name, want_streams) in &[
        ("serve.throughput.1streams", 1usize),
        ("serve.throughput.64streams", 64),
        ("serve.throughput.1024streams", 1024),
    ] {
        let n_streams = want_streams.min(micro_trace.len()).max(1);
        suites.push(measure(name, 7, micro_trace.len() as u64, || {
            let engine = ServeEngine::with_template(StreamTemplate::default(), 4);
            std::thread::scope(|scope| {
                for client in 0..SERVE_CLIENTS {
                    let engine = &engine;
                    let trace = &micro_trace;
                    scope.spawn(move || {
                        for (i, a) in trace.iter().enumerate() {
                            let stream = i % n_streams;
                            if stream % SERVE_CLIENTS != client {
                                continue;
                            }
                            black_box(engine.request(Request::Access {
                                stream: stream as u64,
                                access: AccessRecord {
                                    instr_id: a.instr_id,
                                    pc: a.pc.0,
                                    vaddr: a.vaddr.0,
                                    depends_on_prev: a.depends_on_prev,
                                },
                            }));
                        }
                    });
                }
            });
        }));
    }

    // --- Batched serving hot path: `access_batch` frames on one
    // requester. The concurrency cells above keep the default always-on
    // template for baseline continuity; these cells run the configuration
    // the service is built for — STDP duty-cycled (paper §5, first 250 of
    // every 5000 accesses) with the frozen-query cache on — where
    // per-access inference is cheap enough that framing and round-trip
    // overhead dominate, which is exactly what batching amortizes. One
    // stream, one requester thread: each frame's records run back-to-back
    // as one grouped inference run on the calling thread, under the
    // stream's stripe lock. `serve.throughput.single` sends the same
    // accesses one `Access` request each, so the derived
    // `serve_batch_vs_single_speedup` compares like with like.
    let serving_template = || {
        let mut t = StreamTemplate::default();
        t.config.stdp_duty = StdpDutyCycle::first_n_of_5000(250);
        t
    };
    let record = |a: &MemoryAccess| AccessRecord {
        instr_id: a.instr_id,
        pc: a.pc.0,
        vaddr: a.vaddr.0,
        depends_on_prev: a.depends_on_prev,
    };
    suites.push(measure(
        "serve.throughput.single",
        7,
        micro_trace.len() as u64,
        || {
            let engine = ServeEngine::with_template(serving_template(), 4);
            let mut requester = engine.requester();
            for a in micro_trace.iter() {
                black_box(requester.request(Request::Access {
                    stream: 0,
                    access: record(a),
                }));
            }
        },
    ));
    for &(name, frame) in &[
        ("serve.throughput.batch16", 16usize),
        ("serve.throughput.batch256", 256),
    ] {
        suites.push(measure(name, 7, micro_trace.len() as u64, || {
            let engine = ServeEngine::with_template(serving_template(), 4);
            let mut requester = engine.requester();
            for chunk in micro_trace.accesses().chunks(frame) {
                let accesses: Vec<(u64, AccessRecord)> =
                    chunk.iter().map(|a| (0u64, record(a))).collect();
                black_box(requester.request(Request::AccessBatch { accesses }));
            }
        }));
    }

    // --- Contended serving: churn-fanout's shape in process. Two client
    // threads on a fresh 2-stripe engine each own 8 streams whose ids
    // alternate stripes (client c owns the ids whose bit 1 is c). Like
    // churn-fanout's streams, stream s replays its own 256-access trace of
    // workload `s % 11`, sent as four 64-record `access_batch` frames,
    // round-robin over the client's streams. Different traces make frames
    // of different cost, so the two clients drift in and out of step and
    // meet on a stripe as they do over the socket; with one shared trace
    // they settle into strict alternation and never meet. ops = all 4096
    // accesses; no drain.
    const CONTENDED_STREAMS: u64 = 16;
    const CONTENDED_LOADS: usize = 256;
    let contended: Vec<Vec<AccessRecord>> = (0..CONTENDED_STREAMS)
        .map(|s| {
            Workload::ALL[s as usize % Workload::ALL.len()]
                .generate(CONTENDED_LOADS, opts.seed ^ s)
                .accesses()
                .iter()
                .map(record)
                .collect()
        })
        .collect();
    let contended_ops: usize = contended.iter().map(Vec::len).sum();
    suites.push(measure(
        "serve.throughput.contended",
        7,
        contended_ops as u64,
        || {
            let engine = ServeEngine::with_template(serving_template(), 2);
            std::thread::scope(|scope| {
                for client in 0..2 {
                    let (engine, contended) = (&engine, &contended);
                    scope.spawn(move || {
                        let mine: Vec<u64> = (0..CONTENDED_STREAMS)
                            .filter(|s| (s >> 1) & 1 == client)
                            .collect();
                        for frame in 0..CONTENDED_LOADS.div_ceil(64) {
                            for &stream in &mine {
                                let Some(chunk) = contended[stream as usize].chunks(64).nth(frame)
                                else {
                                    continue;
                                };
                                let accesses = chunk.iter().map(|&r| (stream, r)).collect();
                                black_box(engine.request(Request::AccessBatch { accesses }));
                            }
                        }
                    });
                }
            });
        },
    ));

    // --- End-to-end report cell (generate + replay + metrics), with the
    // --- telemetry the cell recorded attached to the document. -----------
    let e2e_trace = scenario.shared_trace(Workload::Sphinx);
    let e2e_baseline = scenario.shared_baseline(Workload::Sphinx);
    let (_, telemetry) = scenario.evaluate_with_telemetry(
        &PrefetcherKind::NextLine,
        Workload::Sphinx,
        &e2e_trace,
        e2e_baseline,
    );
    suites.push(measure("e2e.report_cell", 5, 1, || {
        black_box(scenario.evaluate(
            &PrefetcherKind::NextLine,
            Workload::Sphinx,
            black_box(&e2e_trace),
            e2e_baseline,
        ));
    }));

    let median = |n: &str| {
        suites
            .iter()
            .find(|s| s.name == n)
            .map(|s| s.median_ns)
            .unwrap_or(f64::NAN)
    };
    let present32_speedup = median("snn.present32.reference") / median("snn.present32.event");
    let pathfinder_cached_speedup =
        median("prefetcher.pathfinder.steady") / median("prefetcher.pathfinder.cached");
    let sim_replay_speedup = replay_ratio;
    let serve_batch_speedup =
        median("serve.throughput.single") / median("serve.throughput.batch16");

    BenchReport {
        opts: *opts,
        suites,
        present32_speedup,
        pathfinder_cached_speedup,
        sim_replay_speedup,
        snn_simd_speedup,
        serve_batch_speedup,
        kernel_tier: pathfinder_snn::active_tier().name(),
        telemetry,
    }
}

/// Pages visited with a repeating in-page delta pattern — the steady-state
/// workload of the PR-4 acceptance figure. Pixel matrices repeat heavily
/// across pages, so a duty-cycled prefetcher answers most inference-only
/// accesses from the frozen-query prediction cache.
fn steady_delta_trace(loads: usize) -> Trace {
    const DELTAS: [u64; 2] = [2, 3];
    let mut accesses = Vec::with_capacity(loads);
    let mut id = 0u64;
    let mut page = 100u64;
    'outer: loop {
        let mut off = 0u64;
        loop {
            accesses.push(MemoryAccess::new(id, 0x400, page * 4096 + off * 64));
            id += 1;
            if accesses.len() >= loads {
                break 'outer;
            }
            let d = DELTAS[id as usize % DELTAS.len()];
            if off + d >= 64 {
                break;
            }
            off += d;
        }
        page += 1;
    }
    Trace::from_accesses(accesses)
}

impl BenchReport {
    /// Renders the machine-readable JSON document (`bench_report.json` by
    /// default; committed snapshots are named `BENCH_pr*.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\"schema\":");
        json::write_string(&mut out, SCHEMA);
        out.push_str(",\"loads\":");
        out.push_str(&self.opts.loads.to_string());
        out.push_str(",\"seed\":");
        out.push_str(&self.opts.seed.to_string());
        out.push_str(",\"kernel_tier\":");
        json::write_string(&mut out, self.kernel_tier);
        out.push_str(",\"suites\":{");
        for (i, s) in self.suites.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(&mut out, s.name);
            out.push_str(":{\"median_ns\":");
            json::write_f64(&mut out, s.median_ns);
            out.push_str(",\"mean_ns\":");
            json::write_f64(&mut out, s.mean_ns);
            out.push_str(",\"min_ns\":");
            json::write_f64(&mut out, s.min_ns);
            out.push_str(",\"p10_ns\":");
            json::write_f64(&mut out, s.p10_ns);
            out.push_str(",\"p90_ns\":");
            json::write_f64(&mut out, s.p90_ns);
            out.push_str(",\"ops_per_sec\":");
            json::write_f64(&mut out, s.ops_per_sec);
            out.push_str(",\"samples\":");
            out.push_str(&s.samples.to_string());
            out.push_str(",\"ops_per_sample\":");
            out.push_str(&s.ops_per_sample.to_string());
            out.push('}');
        }
        out.push_str("},\"derived\":{\"snn_present32_event_vs_reference_speedup\":");
        json::write_f64(&mut out, self.present32_speedup);
        out.push_str(",\"pathfinder_cached_vs_steady_speedup\":");
        json::write_f64(&mut out, self.pathfinder_cached_speedup);
        out.push_str(",\"sim_replay_flat_vs_reference_speedup\":");
        json::write_f64(&mut out, self.sim_replay_speedup);
        out.push_str(",\"snn_present32_simd_vs_scalar_speedup\":");
        json::write_f64(&mut out, self.snn_simd_speedup);
        out.push_str(",\"serve_batch_vs_single_speedup\":");
        json::write_f64(&mut out, self.serve_batch_speedup);
        out.push_str("},\"telemetry\":");
        self.telemetry.write_json(&mut out);
        out.push('}');
        out
    }

    /// Renders the human-facing stdout table.
    pub fn render_text(&self) -> String {
        let mut t = TextTable::new(
            "Benchmark micro-suite (median per op)",
            &["suite", "median", "p10", "p90", "min", "ops/s"],
        );
        for s in &self.suites {
            t.row(vec![
                s.name.to_string(),
                fmt_ns(s.median_ns),
                fmt_ns(s.p10_ns),
                fmt_ns(s.p90_ns),
                fmt_ns(s.min_ns),
                format!("{:.0}", s.ops_per_sec),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "\nSNN 32-tick presentation: event-driven kernel is {:.2}x the reference kernel\n",
            self.present32_speedup
        ));
        out.push_str(&format!(
            "Steady-state deltas: duty-cycled cached prefetcher is {:.2}x the always-on one\n",
            self.pathfinder_cached_speedup
        ));
        out.push_str(&format!(
            "Timed replay (e2e cell): flat engine is {:.2}x the reference engine\n",
            self.sim_replay_speedup
        ));
        out.push_str(&format!(
            "Kernel tier: {} — dispatched event kernel is {:.2}x the forced-scalar tier\n",
            self.kernel_tier, self.snn_simd_speedup
        ));
        out.push_str(&format!(
            "Serve daemon: access_batch x16 frames are {:.2}x one access per request (one stream, duty-cycled)\n",
            self.serve_batch_speedup
        ));
        out
    }
}

/// Formats a nanosecond figure with an adaptive unit.
fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

/// One suite's comparison against the baseline document.
#[derive(Debug, Clone)]
pub struct BaselineDelta {
    /// Suite name.
    pub name: String,
    /// Baseline median ns/op.
    pub baseline_ns: f64,
    /// This run's median ns/op.
    pub current_ns: f64,
    /// `current / baseline` (> 1 is slower).
    pub ratio: f64,
    /// Whether the slowdown exceeds the gate threshold.
    pub regressed: bool,
}

/// The outcome of gating a run against a baseline document: per-suite
/// deltas plus what (if anything) was excluded because the two runs
/// dispatched to different kernel tiers.
#[derive(Debug, Clone)]
pub struct BaselineComparison {
    /// Per-suite comparisons, in the report's suite order.
    pub deltas: Vec<BaselineDelta>,
    /// The tier the baseline document recorded (`None` for pre-tier
    /// documents, which compare everything).
    pub baseline_tier: Option<String>,
    /// Whether the baseline's tier differs from the current run's — when
    /// true, the tier-sensitive `snn.*` and `serve.*` suites were skipped.
    pub tier_mismatch: bool,
    /// Names of suites excluded from the gate by the tier mismatch.
    pub skipped: Vec<String>,
}

/// Compares `report` against a baseline JSON document (produced by an
/// earlier [`BenchReport::to_json`]). A suite regresses when its median
/// exceeds the baseline median by more than `threshold_pct` percent.
/// Suites missing on either side are skipped (the gate only compares what
/// both runs measured).
///
/// When the baseline records a `kernel_tier` different from the current
/// run's, every `snn.*` and `serve.*` suite is excluded from the gate and
/// listed in [`BaselineComparison::skipped`] instead: an AVX2-recorded
/// median is not a meaningful bound for a scalar-dispatched run (or vice
/// versa), and flagging the tier difference as a "regression" would gate
/// on hardware, not code. (The serve daemon's streams run SNN inference
/// on every access, so they are as tier-sensitive as the SNN kernels.
/// The replay engine has no kernel tier, so `sim.*` gates on every
/// host.) Baselines without the field
/// (written before tiers existed) compare everything, preserving the old
/// behaviour.
///
/// # Errors
///
/// Returns a message when the baseline document cannot be parsed or has no
/// `suites` object.
pub fn compare_to_baseline(
    report: &BenchReport,
    baseline_json: &str,
    threshold_pct: f64,
) -> Result<BaselineComparison, String> {
    let doc = json::parse(baseline_json).map_err(|e| format!("baseline JSON: {e}"))?;
    let suites = doc
        .get("suites")
        .and_then(json::Value::as_object)
        .ok_or("baseline JSON has no \"suites\" object")?;
    let baseline_tier = doc
        .get("kernel_tier")
        .and_then(json::Value::as_str)
        .map(str::to_string);
    let tier_mismatch = baseline_tier
        .as_deref()
        .is_some_and(|t| t != report.kernel_tier);
    let mut deltas = Vec::new();
    let mut skipped = Vec::new();
    for s in &report.suites {
        if tier_mismatch && (s.name.starts_with("snn.") || s.name.starts_with("serve.")) {
            skipped.push(s.name.to_string());
            continue;
        }
        let Some(baseline_ns) = suites
            .get(s.name)
            .and_then(|v| v.get("median_ns"))
            .and_then(json::Value::as_f64)
        else {
            continue;
        };
        if !baseline_ns.is_finite() || baseline_ns <= 0.0 || !s.median_ns.is_finite() {
            continue;
        }
        let ratio = s.median_ns / baseline_ns;
        deltas.push(BaselineDelta {
            name: s.name.to_string(),
            baseline_ns,
            current_ns: s.median_ns,
            ratio,
            regressed: ratio > 1.0 + threshold_pct / 100.0,
        });
    }
    Ok(BaselineComparison {
        deltas,
        baseline_tier,
        tier_mismatch,
        skipped,
    })
}

/// Renders the gate verdict table for [`compare_to_baseline`] output,
/// including a note about suites the tier mismatch excluded.
pub fn render_deltas(cmp: &BaselineComparison, threshold_pct: f64) -> String {
    let mut t = TextTable::new(
        format!("Baseline gate (threshold +{threshold_pct:.0}%)"),
        &["suite", "baseline", "current", "ratio", "verdict"],
    );
    for d in &cmp.deltas {
        t.row(vec![
            d.name.clone(),
            fmt_ns(d.baseline_ns),
            fmt_ns(d.current_ns),
            format!("{:.2}x", d.ratio),
            if d.regressed { "REGRESSED" } else { "ok" }.to_string(),
        ]);
    }
    let mut out = t.render();
    if cmp.tier_mismatch {
        out.push_str(&format!(
            "note: baseline was recorded on the {} kernel tier; skipped {} tier-sensitive suite(s): {}\n",
            cmp.baseline_tier.as_deref().unwrap_or("unknown"),
            cmp.skipped.len(),
            cmp.skipped.join(", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> BenchReport {
        // A real (tiny) run so the JSON document reflects actual fields.
        run(&BenchOpts {
            loads: 600,
            seed: 42,
        })
    }

    #[test]
    fn bench_report_emits_all_suites_and_valid_json() {
        let rep = tiny_report();
        let names: Vec<&str> = rep.suites.iter().map(|s| s.name).collect();
        for expected in [
            "snn.present32.event",
            "snn.present32.reference",
            "snn.present32.simd",
            "snn.present32.scalar",
            "snn.present32.frozen",
            "snn.present32.frozen_singleton32",
            "snn.present1.event",
            "encode.pixel_matrix",
            "prefetcher.nextline",
            "prefetcher.pathfinder",
            "prefetcher.pathfinder.steady",
            "prefetcher.pathfinder.cached",
            "prefetcher.pathfinder.churn",
            "sim.replay.demand",
            "sim.replay.prefetch",
            "sim.replay.e2e",
            "sim.replay.e2e.reference",
            "serve.throughput.1streams",
            "serve.throughput.64streams",
            "serve.throughput.1024streams",
            "serve.throughput.single",
            "serve.throughput.batch16",
            "serve.throughput.batch256",
            "serve.throughput.contended",
            "e2e.report_cell",
        ] {
            assert!(names.contains(&expected), "missing suite {expected}");
        }
        assert!(rep.suites.iter().all(|s| s.median_ns > 0.0));
        assert!(rep.serve_batch_speedup.is_finite() && rep.serve_batch_speedup > 0.0);
        assert!(rep.present32_speedup.is_finite() && rep.present32_speedup > 0.0);
        assert!(rep.pathfinder_cached_speedup.is_finite() && rep.pathfinder_cached_speedup > 0.0);
        assert!(rep.sim_replay_speedup.is_finite() && rep.sim_replay_speedup > 0.0);
        assert!(rep.snn_simd_speedup.is_finite() && rep.snn_simd_speedup > 0.0);
        assert_eq!(rep.kernel_tier, pathfinder_snn::active_tier().name());

        let doc = json::parse(&rep.to_json()).expect("bench JSON parses");
        assert_eq!(
            doc.get("schema").and_then(json::Value::as_str),
            Some(SCHEMA)
        );
        assert_eq!(
            doc.get("kernel_tier").and_then(json::Value::as_str),
            Some(rep.kernel_tier)
        );
        let suites = doc.get("suites").and_then(json::Value::as_object).unwrap();
        assert_eq!(suites.len(), rep.suites.len());
        for s in &rep.suites {
            assert!(
                s.min_ns <= s.p10_ns && s.p10_ns <= s.median_ns && s.median_ns <= s.p90_ns,
                "{}: min <= p10 <= median <= p90",
                s.name
            );
            let cell = doc.get("suites").and_then(|d| d.get(s.name)).unwrap();
            for (field, value) in [
                ("median_ns", s.median_ns),
                ("min_ns", s.min_ns),
                ("p10_ns", s.p10_ns),
                ("p90_ns", s.p90_ns),
            ] {
                assert_eq!(
                    cell.get(field).and_then(json::Value::as_f64),
                    Some(value),
                    "{}: JSON {field}",
                    s.name
                );
            }
        }
        assert!(doc
            .get("derived")
            .and_then(|d| d.get("snn_present32_event_vs_reference_speedup"))
            .and_then(json::Value::as_f64)
            .is_some());
        assert!(doc
            .get("derived")
            .and_then(|d| d.get("pathfinder_cached_vs_steady_speedup"))
            .and_then(json::Value::as_f64)
            .is_some());
        assert!(doc
            .get("derived")
            .and_then(|d| d.get("sim_replay_flat_vs_reference_speedup"))
            .and_then(json::Value::as_f64)
            .is_some());
        assert!(doc
            .get("derived")
            .and_then(|d| d.get("snn_present32_simd_vs_scalar_speedup"))
            .and_then(json::Value::as_f64)
            .is_some());

        let text = rep.render_text();
        assert!(text.contains("snn.present32.event"));
        assert!(text.lines().any(|l| l.contains("p10") && l.contains("p90")));
        assert!(text.contains("Kernel tier:"));
    }

    #[test]
    fn baseline_gate_round_trips_and_flags_regressions() {
        let rep = tiny_report();
        // Against its own document nothing regresses, at any threshold.
        let cmp = compare_to_baseline(&rep, &rep.to_json(), 0.5).unwrap();
        assert_eq!(cmp.deltas.len(), rep.suites.len());
        assert!(
            cmp.deltas.iter().all(|d| !d.regressed),
            "self-compare is clean"
        );
        assert!(!cmp.tier_mismatch, "same tier on both sides");
        assert_eq!(cmp.baseline_tier.as_deref(), Some(rep.kernel_tier));

        // Against a 10x-faster fabricated baseline everything regresses.
        let mut fast = rep.clone();
        for s in &mut fast.suites {
            s.median_ns /= 10.0;
        }
        let cmp = compare_to_baseline(&rep, &fast.to_json(), 40.0).unwrap();
        assert!(cmp.deltas.iter().all(|d| d.regressed));
        let rendered = render_deltas(&cmp, 40.0);
        assert!(rendered.contains("REGRESSED"));

        // Unknown suites in the baseline are skipped, not fatal.
        let partial = r#"{"suites":{"snn.present32.event":{"median_ns":1e12}}}"#;
        let cmp = compare_to_baseline(&rep, partial, 40.0).unwrap();
        assert_eq!(cmp.deltas.len(), 1);
        assert!(!cmp.deltas[0].regressed, "1e12 ns baseline cannot regress");
        assert_eq!(
            cmp.baseline_tier, None,
            "pre-tier baselines compare everything"
        );
        assert!(!cmp.tier_mismatch);

        assert!(compare_to_baseline(&rep, "not json", 40.0).is_err());
        assert!(compare_to_baseline(&rep, "{}", 40.0).is_err());
    }

    #[test]
    fn baseline_gate_skips_tier_sensitive_suites_on_tier_mismatch() {
        let rep = tiny_report();
        // Fabricate a baseline recorded on a different tier with absurdly
        // fast snn.*, sim.*, and serve.* medians: the tier skip keeps the
        // snn.* and serve.* suites out of the gate, while the tier-free
        // sim.* suites are still compared and flagged.
        let mut other = rep.clone();
        other.kernel_tier = if rep.kernel_tier == "scalar" {
            "avx2"
        } else {
            "scalar"
        };
        let tier_sensitive = |n: &str| n.starts_with("snn.") || n.starts_with("serve.");
        for s in &mut other.suites {
            if tier_sensitive(s.name) || s.name.starts_with("sim.") {
                s.median_ns /= 1000.0;
            }
        }
        let cmp = compare_to_baseline(&rep, &other.to_json(), 40.0).unwrap();
        assert!(cmp.tier_mismatch);
        assert_eq!(cmp.baseline_tier.as_deref(), Some(other.kernel_tier));
        let want_skipped: Vec<&str> = rep
            .suites
            .iter()
            .map(|s| s.name)
            .filter(|n| tier_sensitive(n))
            .collect();
        assert!(
            want_skipped.iter().any(|n| n.starts_with("snn."))
                && want_skipped.iter().any(|n| n.starts_with("serve.")),
            "both tier-sensitive families are measured: {want_skipped:?}"
        );
        assert_eq!(cmp.skipped, want_skipped, "exactly snn.* and serve.* skip");
        let sim: Vec<&BaselineDelta> = cmp
            .deltas
            .iter()
            .filter(|d| d.name.starts_with("sim."))
            .collect();
        assert_eq!(
            sim.len(),
            rep.suites
                .iter()
                .filter(|s| s.name.starts_with("sim."))
                .count(),
            "every sim.* suite gates across tiers"
        );
        assert!(
            sim.iter().all(|d| d.regressed),
            "a 1000x-faster sim.* baseline is flagged on a tier mismatch"
        );
        assert!(
            cmp.deltas
                .iter()
                .all(|d| !tier_sensitive(&d.name) && (d.name.starts_with("sim.") || !d.regressed)),
            "suites outside snn.*/sim.*/serve.* still gate, and none regress against itself"
        );
        let rendered = render_deltas(&cmp, 40.0);
        assert!(rendered.contains("skipped"), "note surfaces the skip");
    }
}
