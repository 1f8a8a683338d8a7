//! The traced run: one more round of the same frames, each sent in lockstep
//! to every layer of the serving path, with a span around each call.
//!
//! For every frame the benchmark times, from its own code:
//!
//! * (a) `UnixClient::request` against the daemon;
//! * (b) `Requester::request` on an in-process `ServeEngine` built from the
//!   same template with the same shard count;
//! * (c) `StreamSession::access_run` (or `drain`) on a session it owns;
//! * (d) `PathfinderPrefetcher::on_access_run` on a prefetcher built from
//!   `config_for_stream`, inside a telemetry capture whose `snn.present` and
//!   `snn.present.batch` timers give the snn span;
//! * (e) `Request`/`Response` `encode` and `decode` of the frame;
//! * (f) `Simulator::run` on each stream's trace and schedule at drain.
//!
//! Levels (a)–(d) must return the same blocks for every frame. A layer's
//! self time is its span minus the next span down.

use std::mem::size_of;
use std::time::Instant;

use pathfinder_core::{PathfinderPrefetcher, PathfinderStats};
use pathfinder_serve::{
    Request, Requester, Response, ServeEngine, StreamSession, StreamTemplate, UnixClient,
};
use pathfinder_sim::{Block, MemoryAccess, PrefetchRequest, SimReport, Simulator, Trace};
use pathfinder_telemetry::{self as telemetry, Snapshot};

use crate::plan::{Op, Round, Step};
use crate::referee::{check_reply, Expected};
use crate::stats::{mean, median, quantile, ratio, Metrics};

/// One ingest frame's spans, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Spans {
    /// (a) Round trip through the daemon's socket.
    pub socket: f64,
    /// (b) In-process engine request.
    pub engine: f64,
    /// (c) Session `access_run`.
    pub stream: f64,
    /// (d) Prefetcher `on_access_run`.
    pub core: f64,
    /// Time inside the snn kernels during (d).
    pub snn: f64,
    /// (e) Request plus response encode.
    pub encode: f64,
    /// (e) Request plus response decode.
    pub decode: f64,
}

/// One frame's time per layer, each span minus the next one down. The six
/// parts add up to the socket span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfTimes {
    /// Encode and decode of request and response.
    pub protocol: f64,
    /// Socket span minus engine span and protocol work.
    pub socket: f64,
    /// Engine span minus session span: shard hand-off and grouping.
    pub engine: f64,
    /// Session span minus prefetcher span: dedup, trace and schedule growth.
    pub stream: f64,
    /// Prefetcher span minus snn kernel time.
    pub core: f64,
    /// snn kernel time.
    pub snn: f64,
}

impl SelfTimes {
    /// The parts in attribution order.
    fn parts(&self) -> [f64; 6] {
        [
            self.protocol,
            self.socket,
            self.engine,
            self.stream,
            self.core,
            self.snn,
        ]
    }
}

impl Spans {
    /// Peels the spans into per-layer self times.
    pub fn self_times(&self) -> SelfTimes {
        let protocol = self.encode + self.decode;
        SelfTimes {
            protocol,
            socket: self.socket - self.engine - protocol,
            engine: self.engine - self.stream,
            stream: self.stream - self.core,
            core: self.core - self.snn,
            snn: self.snn,
        }
    }
}

/// Sum over the layers of each layer's median share of a frame's socket
/// span. Each frame's shares add up to 1 exactly; their medians add up to
/// about 1 only when the layers split the typical frame the way they split
/// most frames, which is what makes the per-layer medians a faithful
/// account of the end-to-end median. Shares rather than absolute times, so
/// that frames of very different sizes (a `train` frame costs 1–15 ms,
/// depending on its trace) do not make the medians of different layers come
/// from different frames.
pub fn attributed_frac(spans: &[Spans]) -> f64 {
    let shares: Vec<[f64; 6]> = spans
        .iter()
        .map(|s| s.self_times().parts().map(|p| ratio(p, s.socket)))
        .collect();
    (0..6)
        .map(|i| median(&shares.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .sum()
}

/// Level (d)'s own copy of a stream: the prefetcher plus the trace and
/// schedule it has produced, for (f).
struct Mirror {
    pf: PathfinderPrefetcher,
    trace: Trace,
    schedule: Vec<PrefetchRequest>,
    last: Vec<u64>,
}

impl Mirror {
    /// The per-access tail of `generate_prefetches`: dedup and truncate to
    /// the degree limit, then record.
    fn issue(&mut self, access: MemoryAccess, blocks: Vec<Block>, max_degree: usize) -> Vec<u64> {
        let mut seen: Vec<u64> = Vec::with_capacity(max_degree);
        for b in blocks {
            if seen.len() >= max_degree {
                break;
            }
            if !seen.contains(&b.0) {
                seen.push(b.0);
                self.schedule.push(PrefetchRequest::new(access.instr_id, b));
            }
        }
        self.trace.push(access);
        self.last = seen.clone();
        seen
    }
}

/// Everything the traced round measured.
#[derive(Debug, Default)]
pub struct Traced {
    /// Spans of every ingest frame.
    pub spans: Vec<Spans>,
    /// Request plus response frame bytes (with length prefixes), per ingest
    /// frame.
    pub frame_bytes: Vec<f64>,
    /// Accesses per ingest frame.
    pub frame_accesses: Vec<f64>,
    /// `StreamSession::new` times, µs.
    pub new_us: Vec<f64>,
    /// `StreamSession::drain` times, ms.
    pub drain_ms: Vec<f64>,
    /// Peak computed trace + schedule bytes across live sessions.
    pub resident_peak: usize,
    /// Summed final prefetcher counters of every drained stream.
    pub pf: PathfinderStats,
    /// Merged snn telemetry of every (d) call.
    pub snn: Snapshot,
    /// Total `Simulator::run` time at drain, ns.
    pub sim_ns: f64,
    /// Accesses replayed at drain.
    pub sim_accesses: u64,
    /// Summed replay reports of (f).
    pub sim: SimReport,
    /// Frames sent to the daemon.
    pub attempted: u64,
    /// Frames that failed, diverged between levels, or were refereed wrong.
    pub failed: u64,
    /// The first failures.
    pub errors: Vec<String>,
}

fn us(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / 1e3
}

fn add_stats(total: &mut PathfinderStats, s: &PathfinderStats) {
    total.accesses += s.accesses;
    total.snn_queries += s.snn_queries;
    total.snn_cache_hits += s.snn_cache_hits;
    total.snn_cache_misses += s.snn_cache_misses;
    total.snn_cache_invalidations += s.snn_cache_invalidations;
}

fn add_report(total: &mut SimReport, r: &SimReport) {
    total.prefetches_useful += r.prefetches_useful;
    total.prefetches_late += r.prefetches_late;
    total.prefetches_useless += r.prefetches_useless;
}

/// Resident bytes one session holds for `accesses` loads and `entries`
/// schedule entries, computed from the element sizes.
fn resident_bytes(accesses: usize, entries: usize) -> usize {
    accesses * size_of::<MemoryAccess>() + entries * size_of::<PrefetchRequest>()
}

/// Per-stream state of levels (c) and (d).
struct Levels {
    sessions: Vec<Option<StreamSession>>,
    mirrors: Vec<Option<Mirror>>,
    resident: Vec<usize>,
}

/// Runs `round` once more on `clients` (one per connection, frames
/// interleaved) and in lockstep on every in-process layer.
pub fn run(
    template: &StreamTemplate,
    round: &Round,
    expected: &[Expected],
    clients: &mut [UnixClient],
) -> Traced {
    let engine = ServeEngine::with_template(template.clone(), crate::daemon::SHARDS);
    let mut requesters: Vec<_> = clients.iter().map(|_| engine.requester()).collect();
    let n = round.streams.len();
    let mut levels = Levels {
        sessions: (0..n).map(|_| None).collect(),
        mirrors: (0..n).map(|_| None).collect(),
        resident: vec![0; n],
    };
    let mut out = Traced::default();
    let longest = round.conns.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for (conn, steps) in round.conns.iter().enumerate() {
            if let Some(step) = steps.get(i) {
                out.attempted += 1;
                if let Err(e) = traced_step(
                    template,
                    round,
                    expected,
                    step,
                    &mut clients[conn],
                    &mut requesters[conn],
                    &mut levels,
                    &mut out,
                ) {
                    out.failed += 1;
                    if out.errors.len() < 8 {
                        out.errors.push(e);
                    }
                }
            }
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn traced_step(
    template: &StreamTemplate,
    round: &Round,
    expected: &[Expected],
    step: &Step,
    client: &mut UnixClient,
    requester: &mut Requester<'_>,
    levels: &mut Levels,
    out: &mut Traced,
) -> Result<(), String> {
    let s = step.op.stream();
    let stream = &round.streams[s];
    let max_degree = template.sim.max_prefetch_degree;

    // (e) request codec.
    let t = Instant::now();
    let req_bytes = step.request.encode();
    let mut encode = us(t);
    let t = Instant::now();
    let decoded = Request::decode(&req_bytes);
    let mut decode = us(t);
    if decoded.as_ref() != Ok(&step.request) {
        return Err(format!(
            "{:?}: request does not round-trip the codec",
            step.op
        ));
    }

    // (a) through the daemon.
    let t = Instant::now();
    let ra = client
        .request(&step.request)
        .map_err(|e| format!("{:?}: transport: {e}", step.op))?;
    let socket = us(t);

    // (b) in-process engine.
    let req = step.request.clone();
    let t = Instant::now();
    let rb = requester.request(req);
    let engine = us(t);

    // (c) and (d), which answer the same frame on their own state.
    let mut spans = None;
    let rc = match &step.op {
        Op::Access { .. } | Op::Batch { .. } | Op::Train { .. } => {
            let range = step.op.ingests();
            let session = match &mut levels.sessions[s] {
                Some(session) => session,
                slot => {
                    let t = Instant::now();
                    let session = StreamSession::new(stream.id, template)?;
                    out.new_us.push(us(t));
                    slot.insert(session)
                }
            };
            let t = Instant::now();
            let (blocks_c, _) = session.access_run(&stream.records[range.clone()]);
            let stream_us = us(t);

            let mirror = match &mut levels.mirrors[s] {
                Some(m) => m,
                slot => slot.insert(Mirror {
                    pf: PathfinderPrefetcher::new(template.config_for_stream(stream.id))?,
                    trace: Trace::new(),
                    schedule: Vec::new(),
                    last: Vec::new(),
                }),
            };
            let accesses = &stream.trace.accesses()[range.clone()];
            let ((raw, core_us), snap) = telemetry::capture(|| {
                let t = Instant::now();
                let raw = mirror.pf.on_access_run(accesses);
                (raw, us(t))
            });
            let snn_ns: u64 = ["snn.present", "snn.present.batch"]
                .iter()
                .filter_map(|name| snap.timer(name))
                .map(|t| t.total_ns)
                .sum();
            out.snn.merge(&snap);
            let blocks_d: Vec<Vec<u64>> = accesses
                .iter()
                .zip(raw)
                .map(|(&a, b)| mirror.issue(a, b, max_degree))
                .collect();
            let blocks_c: Vec<Vec<u64>> = blocks_c
                .into_iter()
                .map(|b| b.into_iter().map(|b| b.0).collect())
                .collect();
            if blocks_c != blocks_d {
                return Err(format!("{:?}: session and prefetcher disagree", step.op));
            }

            let issued: usize = blocks_c.iter().map(Vec::len).sum();
            levels.resident[s] += resident_bytes(range.len(), issued);
            out.resident_peak = out.resident_peak.max(levels.resident.iter().sum());

            spans = Some(Spans {
                socket,
                engine,
                stream: stream_us,
                core: core_us,
                snn: snn_ns as f64 / 1e3,
                ..Spans::default()
            });
            match &step.op {
                Op::Access { .. } => {
                    Response::Prefetches(blocks_c.into_iter().next().unwrap_or_default())
                }
                Op::Batch { .. } => Response::PrefetchBatch(blocks_c),
                _ => Response::Trained {
                    accesses: range.len() as u64,
                    prefetched: issued as u64,
                },
            }
        }
        Op::Predict { .. } => {
            let session = levels.sessions[s]
                .as_ref()
                .ok_or("predict before any access")?;
            let mirror = levels.mirrors[s]
                .as_ref()
                .ok_or("predict before any access")?;
            let last: Vec<u64> = session.last_prediction().iter().map(|b| b.0).collect();
            if last != mirror.last {
                return Err(format!("{:?}: session and prefetcher disagree", step.op));
            }
            Response::Prefetches(last)
        }
        Op::Drain { .. } => {
            let session = levels.sessions[s].take().ok_or("drain before any access")?;
            let mirror = levels.mirrors[s].take().ok_or("drain before any access")?;
            levels.resident[s] = 0;
            let t = Instant::now();
            let drained = session.drain();
            out.drain_ms.push(us(t) / 1e3);

            // (f) the timed replay on level (d)'s trace and schedule.
            let t = Instant::now();
            let report = Simulator::new(template.sim).run(&mirror.trace, &mirror.schedule);
            out.sim_ns += us(t) * 1e3;
            out.sim_accesses += mirror.trace.len() as u64;
            if report != drained.report {
                return Err(format!(
                    "{:?}: session and replay reports disagree",
                    step.op
                ));
            }
            add_report(&mut out.sim, &report);
            add_stats(&mut out.pf, mirror.pf.stats());
            Response::Drained(vec![drained])
        }
    };

    // Lockstep: daemon, engine and session answer identically, and the
    // daemon's answer is the batch run's.
    if ra != rb || ra != rc {
        return Err(format!("{:?}: levels diverged", step.op));
    }
    check_reply(&step.op, &ra, expected)?;

    // (e) response codec.
    let t = Instant::now();
    let resp_bytes = ra.encode();
    encode += us(t);
    let t = Instant::now();
    let round_trip = Response::decode(&resp_bytes);
    decode += us(t);
    if round_trip.as_ref() != Ok(&ra) {
        return Err(format!(
            "{:?}: response does not round-trip the codec",
            step.op
        ));
    }

    if let Some(spans) = spans {
        out.spans.push(Spans {
            encode,
            decode,
            ..spans
        });
        out.frame_bytes
            .push((8 + req_bytes.len() + resp_bytes.len()) as f64);
        out.frame_accesses.push(step.op.ingests().len() as f64);
    }
    Ok(())
}

/// Adds the per-layer metrics of a traced round. `untraced_p50_us` is the
/// load phase's median ingest round trip, against which the traced socket
/// span gives the tracing overhead.
pub fn add_metrics(m: &mut Metrics, t: &Traced, untraced_p50_us: f64) {
    let col = |f: fn(&Spans) -> f64| t.spans.iter().map(f).collect::<Vec<f64>>();
    let selfs: Vec<SelfTimes> = t.spans.iter().map(Spans::self_times).collect();
    let self_col = |f: fn(&SelfTimes) -> f64| selfs.iter().map(f).collect::<Vec<f64>>();

    m.add("protocol.encode_us", median(&col(|s| s.encode)), "us");
    m.add("protocol.decode_us", median(&col(|s| s.decode)), "us");
    m.add("protocol.frame_bytes", mean(&t.frame_bytes), "bytes");

    let socket = self_col(|s| s.socket);
    m.add("socket.self_us", median(&socket), "us");
    m.add("socket.self_p99_us", quantile(&socket, 0.99), "us");
    let engine = self_col(|s| s.engine);
    m.add("engine.self_us", median(&engine), "us");
    m.add("engine.self_p99_us", quantile(&engine, 0.99), "us");

    m.add("stream.self_us", median(&self_col(|s| s.stream)), "us");
    m.add(
        "stream.resident_mb",
        t.resident_peak as f64 / (1024.0 * 1024.0),
        "MiB",
    );
    m.add("stream.new_us", median(&t.new_us), "us");
    m.add("stream.drain_ms", median(&t.drain_ms), "ms");

    let core_per_access: Vec<f64> = selfs
        .iter()
        .zip(&t.frame_accesses)
        .map(|(s, &n)| s.core / n)
        .collect();
    m.add("core.self_us_per_access", median(&core_per_access), "us");
    let pf = &t.pf;
    m.add(
        "core.snn_cache.hit_ratio",
        ratio(
            pf.snn_cache_hits as f64,
            (pf.snn_cache_hits + pf.snn_cache_misses) as f64,
        ),
        "frac",
    );
    m.add(
        "core.snn_queries_per_access",
        ratio(pf.snn_queries as f64, pf.accesses as f64),
        "frac",
    );
    m.add(
        "core.snn_cache.invalidations",
        pf.snn_cache_invalidations as f64,
        "count",
    );

    let snn = &t.snn;
    let present = snn.timer("snn.present").cloned().unwrap_or_default();
    m.add(
        "snn.present_us",
        ratio(present.total_ns as f64 / 1e3, present.count as f64),
        "us",
    );
    m.add(
        "snn.learn_presentations",
        (snn.counter("snn.presentations") - snn.counter("snn.frozen.presentations")) as f64,
        "count",
    );
    m.add(
        "snn.stdp.weight_updates",
        snn.counter("snn.stdp.weight_updates") as f64,
        "count",
    );
    let batch = snn.timer("snn.present.batch").cloned().unwrap_or_default();
    m.add(
        "snn.batch_us_per_query",
        ratio(
            batch.total_ns as f64 / 1e3,
            snn.counter("snn.frozen.batch.queries") as f64,
        ),
        "us",
    );
    m.add(
        "snn.batch_lanes_mean",
        snn.histogram("snn.frozen.batch.lanes")
            .and_then(|h| h.mean())
            .unwrap_or(0.0),
        "count",
    );

    m.add(
        "sim.replay_ns_per_access",
        ratio(t.sim_ns, t.sim_accesses as f64),
        "ns",
    );
    m.add(
        "sim.prefetches_useful",
        t.sim.prefetches_useful as f64,
        "count",
    );
    m.add("sim.prefetches_late", t.sim.prefetches_late as f64, "count");
    m.add(
        "sim.prefetches_useless",
        t.sim.prefetches_useless as f64,
        "count",
    );

    m.add("trace.attributed_frac", attributed_frac(&t.spans), "frac");
    m.add(
        "trace.overhead_frac",
        ratio(median(&col(|s| s.socket)), untraced_p50_us) - 1.0,
        "frac",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans(socket: f64, snn: f64) -> Spans {
        Spans {
            socket,
            engine: socket - 20.0,
            stream: socket - 30.0,
            core: socket - 33.0,
            snn,
            encode: 1.0,
            decode: 2.0,
        }
    }

    #[test]
    fn self_times_peel_each_span_off_the_next_and_add_up() {
        let s = spans(100.0, 40.0);
        let st = s.self_times();
        assert_eq!(st.protocol, 3.0);
        assert_eq!(st.socket, 100.0 - 80.0 - 3.0);
        assert_eq!(st.engine, 10.0);
        assert_eq!(st.stream, 3.0);
        assert_eq!(st.core, 67.0 - 40.0);
        assert_eq!(st.snn, 40.0);
        assert_eq!(st.parts().iter().sum::<f64>(), s.socket);
    }

    #[test]
    fn attribution_is_one_for_a_uniform_split_and_drifts_when_splits_differ() {
        // Frames of very different sizes but one split: the shares' medians
        // add up to 1.
        let scaled = |k: f64| Spans {
            socket: 100.0 * k,
            engine: 80.0 * k,
            stream: 70.0 * k,
            core: 67.0 * k,
            snn: 40.0 * k,
            encode: 1.0 * k,
            decode: 2.0 * k,
        };
        let uniform: Vec<Spans> = [1.0, 3.0, 50.0, 7.0, 0.5].into_iter().map(scaled).collect();
        assert!((attributed_frac(&uniform) - 1.0).abs() < 1e-12);

        // Four frames are snn-heavy and four others core-heavy: the snn's
        // median share is 0 and the core's comes from the one light frame,
        // so the medians cover only 0.835 of a frame.
        let mixed: Vec<Spans> = (0..9)
            .map(|i| match i {
                0..=3 => spans(200.0, 100.0),
                4..=7 => spans(200.0, 0.0),
                _ => spans(100.0, 0.0),
            })
            .collect();
        let frac = attributed_frac(&mixed);
        assert!((frac - 0.835).abs() < 1e-9, "{frac}");
        assert_eq!(attributed_frac(&[]), 0.0);
    }
}
