//! The serving engine: each request runs to completion on the caller's
//! thread, under its stream's own lock.
//!
//! There is no worker pool. Whoever calls [`ServeEngine::request`] — a
//! socket connection thread or an in-process caller — serves the request
//! itself, start to finish. Streams live in `shards` lock stripes, stream
//! `s` in stripe `s % shards`. A stripe is one `Mutex` over a map from
//! stream id to that stream's *slot*, plus the telemetry of its drained
//! streams. A slot is a `Mutex` of its own over the stream's session and
//! the telemetry recorded serving it.
//!
//! A request locks its stripe only to look the slot up (or insert a new
//! one), releases it, and then serves the stream under the slot's lock. A
//! stream's accesses therefore apply in arrival order — which is what
//! keeps the bit-identical-to-batch guarantee from [`crate::stream`] —
//! while every other stream serves in parallel, on the same stripe or not.
//! No thread holds a stripe lock and a slot lock at once, and no serving
//! work runs under a stripe lock. A new stream's session is built before
//! the stripe is locked to insert it; if another request inserted the
//! stream first, the spare session is dropped.
//!
//! An `access` is served as a one-record `access_batch`. A frame's records
//! are grouped by stream, each group keeping its records' arrival order,
//! and each group runs as one [`StreamSession::access_run`] under its
//! stream's lock. No reply depends on another
//! stream's state, so serving the groups one after another is
//! indistinguishable from serving the records in frame order. No request
//! holds two slot locks at once.
//!
//! A drain removes slots from the map under the stripe lock, then takes
//! each session out under its slot's lock and runs the timed replay after
//! releasing it. The replay runs on the [`Requester`]'s own simulator,
//! built on its first drain and reset between replays, so a connection
//! that drains stream after stream reuses one set of cache arrays instead
//! of allocating and faulting in a fresh ~1 MiB per drain. A request that
//! looked a slot up before the drain removed it either locks the slot
//! first, and so is in the drained result, or finds its session gone and
//! looks the stream up again: an access then lands in a fresh stream,
//! exactly as if it had arrived after the drain.
//! A full drain raises the `draining` flag before it walks the stripes,
//! and every lookup checks that flag under the stripe lock, so once a full
//! drain has begun per-stream requests are answered `"daemon is
//! draining"`.
//!
//! A panic while serving a stream poisons that stream's slot only: the
//! stream answers an error until it is drained, and its stripe keeps
//! serving the rest.
//!
//! The engine is transport-agnostic: tests call [`ServeEngine::request`]
//! in-process over the same code path the Unix-socket server uses.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

use pathfinder_sim::{Block, Simulator};
use pathfinder_telemetry::{
    counter, histogram, record_into, Histogram, HistogramSnapshot, MemoryRecorder, Recorder,
};

use crate::protocol::{
    AccessRecord, DrainedStream, Request, Response, ServeStatus, StreamStatus, MAX_BATCH_RECORDS,
};
use crate::stream::{StreamSession, StreamTemplate};

/// The reply to every per-stream request once a full drain has begun.
const DRAINING: &str = "daemon is draining";

/// Engine-boundary latency histogram names, one per verb, indexed by
/// [`verb_index`]. Surfaced in the daemon-wide `status` telemetry JSON so
/// round-trip vs inference cost is observable without a bench run.
const VERB_LATENCY: [&str; 7] = [
    "serve.latency.access",
    "serve.latency.access_batch",
    "serve.latency.predict",
    "serve.latency.train",
    "serve.latency.status",
    "serve.latency.configure",
    "serve.latency.drain",
];

fn verb_index(req: &Request) -> usize {
    match req {
        Request::Access { .. } => 0,
        Request::AccessBatch { .. } => 1,
        Request::Predict { .. } => 2,
        Request::Train { .. } => 3,
        Request::Status { .. } => 4,
        Request::Configure(_) => 5,
        Request::Drain { .. } => 6,
    }
}

fn block_ids(blocks: &[Block]) -> Vec<u64> {
    blocks.iter().map(|b| b.0).collect()
}

fn poisoned_stream(stream: u64) -> String {
    format!("stream {stream} is poisoned by an earlier panic")
}

/// One stream: its session and the telemetry recorded serving it. The
/// recorder belongs to the stream, not to whichever short-lived thread
/// served a request, so daemon-wide `status` sees every request's metrics.
/// `session` is `None` once a drain has taken it.
struct Slot {
    session: Option<StreamSession>,
    telemetry: MemoryRecorder,
}

/// One lock stripe: its streams' slots, and the telemetry of its drained
/// streams and of the drains themselves. Its lock guards map bookkeeping
/// only.
#[derive(Default)]
struct Stripe {
    live: HashMap<u64, Arc<Mutex<Slot>>>,
    telemetry: MemoryRecorder,
}

/// The daemon core: streams in lock stripes, each served under its own
/// lock, run-to-completion.
pub struct ServeEngine {
    stripes: Vec<Mutex<Stripe>>,
    template: RwLock<StreamTemplate>,
    draining: AtomicBool,
    /// Accesses ingested, including already-drained streams.
    accesses: AtomicU64,
    /// Schedule entries produced, including already-drained streams.
    schedule_len: AtomicU64,
    /// Request latency at the engine boundary, one histogram per verb
    /// (nanoseconds), merged into daemon-wide `status`.
    latency: Mutex<[Histogram; VERB_LATENCY.len()]>,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("shards", &self.stripes.len())
            .field("draining", &self.is_draining())
            .finish()
    }
}

impl ServeEngine {
    /// Creates an engine with `shards` lock stripes and the default
    /// template.
    pub fn new(shards: usize) -> Self {
        ServeEngine::with_template(StreamTemplate::default(), shards)
    }

    /// Creates an engine with `shards` lock stripes whose streams are built
    /// from `template`. `shards` is clamped to at least 1.
    pub fn with_template(template: StreamTemplate, shards: usize) -> Self {
        ServeEngine {
            stripes: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
            template: RwLock::new(template),
            draining: AtomicBool::new(false),
            accesses: AtomicU64::new(0),
            schedule_len: AtomicU64::new(0),
            latency: Mutex::new(std::array::from_fn(|_| Histogram::new())),
        }
    }

    /// Number of lock stripes.
    pub fn shards(&self) -> u32 {
        self.stripes.len() as u32
    }

    /// Whether a full drain has begun: per-stream requests are refused and
    /// the transport loop should exit.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn stripe_index(&self, stream: u64) -> usize {
        (stream % self.stripes.len() as u64) as usize
    }

    /// Creates a [`Requester`], a per-connection handle on the engine.
    pub fn requester(&self) -> Requester<'_> {
        Requester {
            engine: self,
            sim: None,
        }
    }

    /// Serves one typed request on the calling thread through a one-shot
    /// [`Requester`]: a drain replays on a simulator built for this request
    /// alone. Callers that drain repeatedly should hold a `Requester`.
    pub fn request(&self, req: Request) -> Response {
        self.requester().request(req)
    }

    fn record_latency(&self, verb: usize, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.latency
            .lock()
            .expect("latency lock: recording never panics")[verb]
            .record(nanos);
    }

    fn serve(&self, req: Request, sim: &mut Option<Simulator>) -> Result<Response, String> {
        match req {
            Request::Access { stream, access } => {
                let mut blocks = self.access_batch(vec![(stream, access)], false)?;
                Ok(Response::Prefetches(blocks.pop().unwrap_or_default()))
            }
            Request::AccessBatch { accesses } => {
                Ok(Response::PrefetchBatch(self.access_batch(accesses, true)?))
            }
            Request::Train { stream, accesses } => {
                let blocks = self.ingest(stream, &accesses, None)?;
                Ok(Response::Trained {
                    accesses: accesses.len() as u64,
                    prefetched: blocks.iter().map(|b| b.len() as u64).sum(),
                })
            }
            Request::Predict { stream } => self.with_session(stream, false, |session| {
                Ok(Response::Prefetches(block_ids(session.last_prediction())))
            }),
            Request::Status {
                stream: Some(stream),
            } => self.with_session(stream, false, |session| {
                Ok(Response::Stream(StreamStatus {
                    stream,
                    shard: self.stripe_index(stream) as u32,
                    accesses: session.accesses(),
                    schedule_len: session.schedule_len(),
                    last_prediction: block_ids(session.last_prediction()),
                    pf: session.stats(),
                }))
            }),
            Request::Status { stream: None } => self.daemon_status(),
            Request::Configure(delta) => {
                let mut template = self
                    .template
                    .write()
                    .expect("template lock: StreamTemplate::apply never panics");
                match template.apply(&delta) {
                    Ok(()) => Ok(Response::Ok),
                    Err(e) => Err(format!("invalid configuration: {e}")),
                }
            }
            Request::Drain {
                stream: Some(stream),
            } => {
                let slot = self
                    .open_stripe(stream)?
                    .live
                    .remove(&stream)
                    .ok_or_else(|| format!("unknown stream {stream}"))?;
                let drained = self.drain_slots(self.stripe_index(stream), vec![slot], sim);
                if drained.is_empty() {
                    return Err(poisoned_stream(stream));
                }
                Ok(Response::Drained(drained))
            }
            Request::Drain { stream: None } => self.drain_all(sim),
        }
    }

    /// Locks stripe `index`. A stripe poisoned by a panic mid-request
    /// answers an error rather than panicking the caller.
    fn lock(&self, index: usize) -> Result<MutexGuard<'_, Stripe>, String> {
        self.stripes[index]
            .lock()
            .map_err(|_| format!("stripe {index} is poisoned by an earlier panic"))
    }

    /// Locks `stream`'s stripe for a per-stream request. Refused once a
    /// full drain has begun; the flag is read under the lock, so it is
    /// ordered against the drain emptying this stripe.
    fn open_stripe(&self, stream: u64) -> Result<MutexGuard<'_, Stripe>, String> {
        let stripe = self.lock(self.stripe_index(stream))?;
        if self.is_draining() {
            return Err(DRAINING.into());
        }
        Ok(stripe)
    }

    /// Looks up `stream`'s slot, and returns it with the time spent
    /// building a session. A missing stream is an error unless `create`,
    /// in which case its session is built outside every lock and inserted
    /// unless another request inserted the stream meanwhile.
    fn slot(&self, stream: u64, create: bool) -> Result<(Arc<Mutex<Slot>>, Duration), String> {
        if let Some(slot) = self.open_stripe(stream)?.live.get(&stream) {
            return Ok((Arc::clone(slot), Duration::ZERO));
        }
        if !create {
            return Err(format!("unknown stream {stream}"));
        }
        let building = Instant::now();
        let session = {
            let template = self
                .template
                .read()
                .expect("template lock: StreamTemplate::apply never panics");
            StreamSession::new(stream, &template)?
        };
        let built = building.elapsed();
        let mut stripe = self.open_stripe(stream)?;
        let slot = stripe.live.entry(stream).or_insert_with(|| {
            let telemetry = MemoryRecorder::new();
            record_into(&telemetry, || counter!("serve.streams_created", 1));
            Arc::new(Mutex::new(Slot {
                session: Some(session),
                telemetry,
            }))
        });
        Ok((Arc::clone(slot), built))
    }

    /// Runs `f` on `stream`'s session under the stream's own lock,
    /// recording telemetry into the stream's slot, creating the stream
    /// first if `create`. `serve.lock_wait` records the nanoseconds from
    /// the lookup's start to holding the stream's lock, less the time spent
    /// building a new stream's session: the time spent waiting for the
    /// stripe and stream locks.
    fn with_session<T>(
        &self,
        stream: u64,
        create: bool,
        f: impl FnOnce(&mut StreamSession) -> Result<T, String>,
    ) -> Result<T, String> {
        let start = Instant::now();
        let mut building = Duration::ZERO;
        loop {
            let (slot, built) = self.slot(stream, create)?;
            building += built;
            let mut guard = slot.lock().map_err(|_| poisoned_stream(stream))?;
            let Slot { session, telemetry } = &mut *guard;
            // `None`: a drain took the session after the lookup. Look the
            // stream up again, as a request arriving after the drain would.
            if let Some(session) = session {
                return record_into(telemetry, || {
                    histogram!("serve.lock_wait", (start.elapsed() - building).as_nanos());
                    f(session)
                });
            }
        }
    }

    /// Runs `recs` through `stream`'s session, creating the session on
    /// first use, and returns each record's prefetch blocks. `frames` is
    /// set for a group from an `access_batch` frame: the number of frames
    /// it adds to `serve.batch.frames` (1 for a frame's first group).
    fn ingest(
        &self,
        stream: u64,
        recs: &[AccessRecord],
        frames: Option<u64>,
    ) -> Result<Vec<Vec<Block>>, String> {
        self.with_session(stream, true, |session| {
            let (blocks, grouped_inferences) = session.access_run(recs);
            let n = recs.len() as u64;
            let issued: u64 = blocks.iter().map(|b| b.len() as u64).sum();
            counter!("serve.accesses", n);
            counter!("serve.prefetches", issued);
            if let Some(frames) = frames {
                counter!("serve.batch.frames", frames);
                counter!("serve.batch.accesses", n);
                if n > 1 {
                    counter!("serve.batch.inference_grouped", grouped_inferences);
                }
            }
            self.accesses.fetch_add(n, Ordering::Relaxed);
            self.schedule_len.fetch_add(issued, Ordering::Relaxed);
            Ok(blocks)
        })
    }

    /// Serves an `access_batch` frame (`frame`) or a singleton `access`:
    /// one [`ServeEngine::ingest`] per stream, replies in request order.
    fn access_batch(
        &self,
        accesses: Vec<(u64, AccessRecord)>,
        frame: bool,
    ) -> Result<Vec<Vec<u64>>, String> {
        let n = accesses.len();
        if n > MAX_BATCH_RECORDS {
            // The wire decoder already rejects these; this guards
            // in-process callers.
            return Err(format!(
                "access_batch of {n} records exceeds the {MAX_BATCH_RECORDS}-record cap"
            ));
        }
        // A stable sort groups records by stream and keeps each stream's
        // records in arrival order.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| accesses[i].0);
        let mut out = vec![Vec::new(); n];
        let groups = order.chunk_by(|&a, &b| accesses[a].0 == accesses[b].0);
        for (g, group) in groups.enumerate() {
            let recs: Vec<AccessRecord> = group.iter().map(|&i| accesses[i].1).collect();
            let frames = frame.then_some(u64::from(g == 0));
            let blocks = self.ingest(accesses[group[0]].0, &recs, frames)?;
            for (&i, blocks) in group.iter().zip(blocks) {
                out[i] = block_ids(&blocks);
            }
        }
        Ok(out)
    }

    /// Drains `slots`, already removed from stripe `index`'s map: takes
    /// each session out under its slot's lock, replays the sessions outside
    /// every lock on `sim` (built here if absent), then folds the slots'
    /// and the replay's telemetry into the stripe. A poisoned slot's
    /// telemetry is folded in too, but its session, which the panic may
    /// have left half-updated, is dropped without a replay.
    fn drain_slots(
        &self,
        index: usize,
        slots: Vec<Arc<Mutex<Slot>>>,
        sim: &mut Option<Simulator>,
    ) -> Vec<DrainedStream> {
        let local = MemoryRecorder::new();
        let sessions: Vec<StreamSession> = slots
            .iter()
            .filter_map(|slot| {
                let (mut slot, poisoned) = match slot.lock() {
                    Ok(slot) => (slot, false),
                    Err(poison) => (poison.into_inner(), true),
                };
                local.merge(&slot.telemetry);
                slot.session.take().filter(|_| !poisoned)
            })
            .collect();
        let drained = record_into(&local, || {
            counter!("serve.drains", sessions.len());
            sessions
                .into_iter()
                .map(|session| {
                    let sim = sim.get_or_insert_with(|| Simulator::new(session.sim_config()));
                    session.drain_on(sim)
                })
                .collect()
        });
        if let Ok(stripe) = self.stripes[index].lock() {
            stripe.telemetry.merge(&local);
        }
        drained
    }

    /// Daemon-wide `status`: the daemon totals, every stripe's and every
    /// live stream's telemetry, and the engine-boundary latency histograms. A slot
    /// is read after its stripe's lock is released; a drain folds a slot's
    /// telemetry into the stripe only after removing it from the map, so
    /// no recorder is counted twice.
    fn daemon_status(&self) -> Result<Response, String> {
        let merged = MemoryRecorder::new();
        let mut slots = Vec::new();
        for index in 0..self.stripes.len() {
            let stripe = self.lock(index)?;
            merged.merge(&stripe.telemetry);
            slots.extend(stripe.live.values().cloned());
        }
        for slot in &slots {
            // `record_into` restores a recorder even when its scope
            // panics, so a poisoned slot's telemetry is still whole.
            merged.merge(
                &slot
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .telemetry,
            );
        }
        let mut telemetry = merged.snapshot();
        {
            let latency = self
                .latency
                .lock()
                .expect("latency lock: recording never panics");
            for (name, h) in VERB_LATENCY.iter().zip(latency.iter()) {
                if h.count() > 0 {
                    telemetry
                        .histograms
                        .insert((*name).to_string(), HistogramSnapshot::from_histogram(h));
                }
            }
        }
        Ok(Response::Status(ServeStatus {
            shards: self.shards(),
            streams: slots.len() as u64,
            accesses: self.accesses.load(Ordering::Relaxed),
            schedule_len: self.schedule_len.load(Ordering::Relaxed),
            telemetry_json: telemetry.to_json(),
        }))
    }

    /// Full drain: raises `draining`, then empties every stripe's map (one
    /// lock at a time) and drains its slots, sorted by stream id.
    fn drain_all(&self, sim: &mut Option<Simulator>) -> Result<Response, String> {
        self.draining.store(true, Ordering::SeqCst);
        let mut drained = Vec::new();
        for index in 0..self.stripes.len() {
            let slots = std::mem::take(&mut self.lock(index)?.live);
            drained.extend(self.drain_slots(index, slots.into_values().collect(), sim));
        }
        drained.sort_by_key(|d| d.stream);
        Ok(Response::Drained(drained))
    }
}

/// A per-connection (or per-client-thread) handle on the engine. Requests
/// run on the calling thread; the handle holds the engine and the simulator
/// its drains replay on, built on the first drain and rebuilt only if a
/// session's simulator configuration differs.
#[derive(Debug)]
pub struct Requester<'a> {
    engine: &'a ServeEngine,
    sim: Option<Simulator>,
}

impl Requester<'_> {
    /// Serves one typed request on the calling thread, recording its
    /// engine-boundary latency. This is the single entry point shared by
    /// the Unix-socket transport and in-process callers.
    pub fn request(&mut self, req: Request) -> Response {
        let engine = self.engine;
        let verb = verb_index(&req);
        let start = Instant::now();
        let resp = engine
            .serve(req, &mut self.sim)
            .unwrap_or_else(Response::Error);
        engine.record_latency(verb, start.elapsed());
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> AccessRecord {
        AccessRecord {
            instr_id: i * 2,
            pc: 0x400,
            vaddr: i * 64,
            depends_on_prev: false,
        }
    }

    #[test]
    fn verbs_round_trip_through_the_stripes() {
        let engine = ServeEngine::new(3);
        assert_eq!(engine.shards(), 3);

        // Unknown stream: predict/status/drain all error.
        assert!(matches!(
            engine.request(Request::Predict { stream: 7 }),
            Response::Error(_)
        ));
        assert!(matches!(
            engine.request(Request::Status { stream: Some(7) }),
            Response::Error(_)
        ));
        assert!(matches!(
            engine.request(Request::Drain { stream: Some(7) }),
            Response::Error(_)
        ));

        // Accesses create the stream lazily and echo the issued blocks.
        for i in 0..50 {
            let resp = engine.request(Request::Access {
                stream: 7,
                access: rec(i),
            });
            let Response::Prefetches(blocks) = resp else {
                panic!("access reply was {resp:?}");
            };
            let Response::Prefetches(predicted) = engine.request(Request::Predict { stream: 7 })
            else {
                panic!("predict failed")
            };
            assert_eq!(blocks, predicted, "predict reads back the last access");
        }

        let Response::Stream(status) = engine.request(Request::Status { stream: Some(7) }) else {
            panic!("stream status failed")
        };
        assert_eq!(status.accesses, 50);
        assert_eq!(status.shard, 7 % 3);
        assert_eq!(status.pf.accesses, 50);

        // Train on a second stream; daemon-wide status sums both.
        let Response::Trained { accesses, .. } = engine.request(Request::Train {
            stream: 8,
            accesses: (0..30).map(rec).collect(),
        }) else {
            panic!("train failed")
        };
        assert_eq!(accesses, 30);
        let Response::Status(daemon) = engine.request(Request::Status { stream: None }) else {
            panic!("daemon status failed")
        };
        assert_eq!(daemon.streams, 2);
        assert_eq!(daemon.accesses, 80);
        assert_eq!(daemon.shards, 3);

        // Per-stream drain removes the stream; totals persist.
        let Response::Drained(drained) = engine.request(Request::Drain { stream: Some(7) }) else {
            panic!("drain failed")
        };
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].stream, 7);
        assert_eq!(drained[0].pf.accesses, 50);
        assert!(matches!(
            engine.request(Request::Status { stream: Some(7) }),
            Response::Error(_)
        ));
        let Response::Status(daemon) = engine.request(Request::Status { stream: None }) else {
            panic!("daemon status failed")
        };
        assert_eq!(daemon.streams, 1);
        assert_eq!(daemon.accesses, 80, "drained work still counted");

        // Full drain returns the remaining stream and refuses what follows.
        let Response::Drained(rest) = engine.request(Request::Drain { stream: None }) else {
            panic!("full drain failed")
        };
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].stream, 8);
        assert!(engine.is_draining());
        assert!(matches!(
            engine.request(Request::Predict { stream: 8 }),
            Response::Error(_)
        ));
    }

    #[test]
    fn configure_applies_to_new_streams_only() {
        let engine = ServeEngine::new(2);
        engine.request(Request::Access {
            stream: 1,
            access: rec(0),
        });
        // Invalid delta is rejected without changing anything.
        assert!(matches!(
            engine.request(Request::Configure(crate::protocol::ConfigDelta {
                degree: Some(0),
                ..Default::default()
            })),
            Response::Error(_)
        ));
        // Valid delta: new streams see it.
        assert!(matches!(
            engine.request(Request::Configure(crate::protocol::ConfigDelta {
                duty: Some((250, 5000)),
                ..Default::default()
            })),
            Response::Ok
        ));
        engine.request(Request::Access {
            stream: 2,
            access: rec(0),
        });
        let Response::Status(daemon) = engine.request(Request::Status { stream: None }) else {
            panic!("status failed")
        };
        assert_eq!(daemon.streams, 2);
    }

    #[test]
    fn access_batch_matches_singleton_accesses_slot_for_slot() {
        // Two engines, same template: one fed a cross-stream batch frame,
        // one fed the equivalent singleton sequence. Replies must agree
        // slot for slot, and predict must read back each stream's last
        // record.
        let batch_engine = ServeEngine::new(2);
        let single_engine = ServeEngine::new(2);
        let records: Vec<(u64, AccessRecord)> = (0..40u64).map(|i| (i % 3, rec(i / 3))).collect();

        let mut requester = batch_engine.requester();
        let Response::PrefetchBatch(batched) = requester.request(Request::AccessBatch {
            accesses: records.clone(),
        }) else {
            panic!("access_batch failed")
        };
        assert_eq!(batched.len(), records.len());

        for (i, (stream, access)) in records.iter().enumerate() {
            let Response::Prefetches(blocks) = single_engine.request(Request::Access {
                stream: *stream,
                access: *access,
            }) else {
                panic!("singleton access failed")
            };
            assert_eq!(batched[i], blocks, "slot {i} diverged");
        }

        // Per-stream predict agrees across both engines.
        for stream in 0..3u64 {
            let a = batch_engine.request(Request::Predict { stream });
            let b = single_engine.request(Request::Predict { stream });
            assert_eq!(a, b);
        }

        // Empty batches are a no-op, not an error.
        assert_eq!(
            batch_engine.request(Request::AccessBatch {
                accesses: Vec::new()
            }),
            Response::PrefetchBatch(Vec::new())
        );
    }

    #[test]
    fn requester_serves_every_verb_and_survives_drain() {
        let engine = ServeEngine::new(2);
        let mut requester = engine.requester();
        for i in 0..20 {
            let resp = requester.request(Request::Access {
                stream: 4,
                access: rec(i),
            });
            assert!(matches!(resp, Response::Prefetches(_)));
        }
        // A single-stream batch runs as one group.
        let resp = requester.request(Request::AccessBatch {
            accesses: (20..30).map(|i| (4, rec(i))).collect(),
        });
        let Response::PrefetchBatch(parts) = resp else {
            panic!("single-stream batch failed")
        };
        assert_eq!(parts.len(), 10);

        let Response::Stream(status) = requester.request(Request::Status { stream: Some(4) })
        else {
            panic!("status failed")
        };
        assert_eq!(status.accesses, 30);

        // Full drain through the same requester, then further requests on
        // it are refused.
        let Response::Drained(drained) = requester.request(Request::Drain { stream: None }) else {
            panic!("drain failed")
        };
        assert_eq!(drained.len(), 1);
        assert!(matches!(
            requester.request(Request::Access {
                stream: 4,
                access: rec(99),
            }),
            Response::Error(_)
        ));
        assert!(matches!(
            requester.request(Request::AccessBatch {
                accesses: vec![(4, rec(100))],
            }),
            Response::Error(_)
        ));
    }

    #[test]
    fn status_surfaces_engine_boundary_latency_histograms() {
        let engine = ServeEngine::new(1);
        let mut requester = engine.requester();
        requester.request(Request::Access {
            stream: 0,
            access: rec(0),
        });
        requester.request(Request::AccessBatch {
            accesses: vec![(0, rec(1)), (0, rec(2))],
        });
        let Response::Status(status) = requester.request(Request::Status { stream: None }) else {
            panic!("status failed")
        };
        assert!(
            status.telemetry_json.contains("serve.latency.access"),
            "status JSON missing access latency: {}",
            status.telemetry_json
        );
        assert!(
            status.telemetry_json.contains("serve.latency.access_batch"),
            "status JSON missing batch latency: {}",
            status.telemetry_json
        );
    }

    #[test]
    #[cfg_attr(
        not(feature = "telemetry"),
        ignore = "snn.frozen.batch counters need the telemetry feature (on in workspace builds)"
    )]
    fn status_surfaces_frozen_batch_counters() {
        // Duty-cycle learning off after 50 accesses so the batch's tail
        // runs frozen queries, whose cache misses run `present_frozen` —
        // visible in the merged status JSON as `snn.frozen.batch.queries`,
        // alongside the serve.batch.* counters.
        let engine = ServeEngine::new(1);
        let mut requester = engine.requester();
        assert!(matches!(
            requester.request(Request::Configure(crate::protocol::ConfigDelta {
                duty: Some((50, 5000)),
                ..Default::default()
            })),
            Response::Ok
        ));
        // Varied strides across a few PCs/pages: enough fresh pixel
        // matrices that several frozen queries miss the cache.
        let accesses: Vec<(u64, AccessRecord)> = (0..300u64)
            .map(|i| {
                (
                    0,
                    AccessRecord {
                        instr_id: i * 3,
                        pc: 0x400 + (i % 4) * 8,
                        vaddr: i * 64 + if i % 17 == 0 { 4096 } else { 0 },
                        depends_on_prev: i % 5 == 0,
                    },
                )
            })
            .collect();
        requester.request(Request::AccessBatch { accesses });
        let Response::Status(status) = requester.request(Request::Status { stream: None }) else {
            panic!("status failed")
        };
        assert!(
            status.telemetry_json.contains("snn.frozen.batch.queries"),
            "status JSON missing snn.frozen.batch.queries: {}",
            status.telemetry_json
        );
    }

    /// Four streams on `shards` stripes, each driven by its own thread
    /// until a full drain refuses it. The drain starts only once every
    /// thread has been served, so it lands mid-traffic on every stripe.
    /// Every `Prefetches` reply must be in the drained result.
    fn full_drain_race(shards: usize) {
        use std::sync::atomic::AtomicU64;

        const THREADS: usize = 4;
        let engine = ServeEngine::new(shards);
        let served: [AtomicU64; THREADS] = std::array::from_fn(|_| AtomicU64::new(0));
        let (drained, replies) = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (engine, served) = (&engine, &served[t]);
                    scope.spawn(move || {
                        for i in 0.. {
                            match engine.request(Request::Access {
                                stream: t as u64,
                                access: rec(i),
                            }) {
                                Response::Prefetches(_) => {
                                    served.fetch_add(1, Ordering::SeqCst);
                                }
                                Response::Error(e) => {
                                    assert_eq!(e, DRAINING);
                                    break;
                                }
                                other => panic!("access replied {other:?}"),
                            }
                        }
                        served.load(Ordering::SeqCst)
                    })
                })
                .collect();
            while served.iter().any(|n| n.load(Ordering::SeqCst) < 3) {
                std::thread::yield_now();
            }
            let drained = engine.request(Request::Drain { stream: None });
            let replies: Vec<u64> = workers
                .into_iter()
                .map(|w| w.join().expect("worker thread"))
                .collect();
            (drained, replies)
        });
        let Response::Drained(drained) = drained else {
            panic!("full drain replied {drained:?}")
        };
        let ids: Vec<u64> = drained.iter().map(|d| d.stream).collect();
        assert_eq!(ids, (0..THREADS as u64).collect::<Vec<_>>());
        for (d, &n) in drained.iter().zip(&replies) {
            assert_eq!(
                d.pf.accesses, n,
                "stream {}: drained accesses vs Prefetches replies",
                d.stream
            );
        }
    }

    #[test]
    fn full_drain_races_cleanly_with_concurrent_accesses() {
        full_drain_race(2);
    }

    #[test]
    fn full_drain_races_cleanly_with_concurrent_accesses_on_one_stripe() {
        // All four streams share the stripe, so they contend only on its
        // map and the drain takes every stream in one pass.
        full_drain_race(1);
    }

    #[test]
    fn stream_drain_races_cleanly_with_accesses_to_the_same_stream() {
        // One thread sends accesses to stream 5 while another drains it
        // over and over. Each access lands either in a stream some drain
        // took or in the one left live at the end: none is lost or
        // counted twice. The accesser waits after its first access until
        // the drainer has caught the stream live once, so the race always
        // includes a drain, however fast the accesses run.
        const ACCESSES: u64 = 300;
        let engine = ServeEngine::new(2);
        let done = AtomicBool::new(false);
        let drained_once = AtomicBool::new(false);
        let drained_accesses = std::thread::scope(|scope| {
            let accesser = scope.spawn(|| {
                for i in 0..ACCESSES {
                    let resp = engine.request(Request::Access {
                        stream: 5,
                        access: rec(i),
                    });
                    assert!(matches!(resp, Response::Prefetches(_)), "{resp:?}");
                    while i == 0 && !drained_once.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                }
                done.store(true, Ordering::SeqCst);
            });
            let drainer = scope.spawn(|| {
                let mut total = 0;
                let mut drains = 0;
                while !done.load(Ordering::SeqCst) {
                    match engine.request(Request::Drain { stream: Some(5) }) {
                        Response::Drained(d) => {
                            assert_eq!(d.len(), 1);
                            assert_eq!(d[0].pf.accesses, d[0].report.loads);
                            total += d[0].pf.accesses;
                            drains += 1;
                            drained_once.store(true, Ordering::SeqCst);
                        }
                        Response::Error(e) => assert_eq!(e, "unknown stream 5"),
                        other => panic!("drain replied {other:?}"),
                    }
                }
                (total, drains)
            });
            accesser.join().expect("accesser thread");
            drainer.join().expect("drainer thread")
        });
        let (mut total, drains) = drained_accesses;
        assert!(drains > 0, "the drainer never caught the stream live");
        if let Response::Drained(rest) = engine.request(Request::Drain { stream: Some(5) }) {
            total += rest[0].pf.accesses;
        }
        assert_eq!(total, ACCESSES);
        let Response::Status(daemon) = engine.request(Request::Status { stream: None }) else {
            panic!("daemon status failed")
        };
        assert_eq!(daemon.accesses, ACCESSES);
        assert_eq!(daemon.streams, 0);
    }

    #[test]
    fn an_access_that_loses_a_race_with_a_drain_lands_in_a_fresh_stream() {
        // The test holds stream 5's slot while an access looks it up, then
        // does what a drain does to it: removes it from the map and takes
        // its session. The access must find the session gone, look again
        // and create a fresh stream.
        let engine = ServeEngine::new(1);
        for i in 0..3 {
            engine.request(Request::Access {
                stream: 5,
                access: rec(i),
            });
        }
        let slot = Arc::clone(&engine.lock(0).expect("stripe 0").live[&5]);
        let mut held = slot.lock().expect("stream 5's slot");
        std::thread::scope(|scope| {
            let late = scope.spawn(|| {
                engine.request(Request::Access {
                    stream: 5,
                    access: rec(3),
                })
            });
            // Map, test and the access's lookup each hold one reference.
            while Arc::strong_count(&slot) < 3 {
                std::thread::yield_now();
            }
            engine.lock(0).expect("stripe 0").live.remove(&5);
            let taken = held.session.take().expect("live session");
            drop(held);
            assert_eq!(taken.accesses(), 3);
            let resp = late.join().expect("access thread");
            assert!(matches!(resp, Response::Prefetches(_)), "{resp:?}");
        });
        let Response::Stream(status) = engine.request(Request::Status { stream: Some(5) }) else {
            panic!("the access did not re-create stream 5")
        };
        assert_eq!(status.accesses, 1);
    }

    #[test]
    fn a_held_stream_does_not_block_another_on_its_stripe() {
        // One stripe. The test holds stream 0's lock and a second access to
        // stream 0 queues behind it; meanwhile stream 1 (new, then live)
        // must still be served, so neither the holder nor the waiter may
        // keep the stripe locked.
        let engine = ServeEngine::new(1);
        engine.request(Request::Access {
            stream: 0,
            access: rec(0),
        });
        let slot = Arc::clone(&engine.lock(0).expect("stripe 0").live[&0]);
        let held = slot.lock().expect("stream 0's slot");
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                engine.request(Request::Access {
                    stream: 0,
                    access: rec(1),
                })
            });
            // Map, test and the waiter's lookup each hold one reference.
            while Arc::strong_count(&slot) < 3 {
                std::thread::yield_now();
            }
            let other = scope.spawn(|| {
                let first = engine.request(Request::Access {
                    stream: 1,
                    access: rec(0),
                });
                let second = engine.request(Request::Access {
                    stream: 1,
                    access: rec(1),
                });
                tx.send((first, second)).expect("test thread waits");
            });
            let replies = rx.recv_timeout(Duration::from_secs(30));
            drop(held);
            other.join().expect("stream 1 thread");
            let waited = waiter.join().expect("stream 0 thread");
            assert!(matches!(waited, Response::Prefetches(_)), "{waited:?}");
            let (first, second) = replies.expect("stream 1 blocked behind stream 0's lock");
            assert!(matches!(first, Response::Prefetches(_)), "{first:?}");
            assert!(matches!(second, Response::Prefetches(_)), "{second:?}");
        });
    }

    #[test]
    #[cfg_attr(
        not(feature = "telemetry"),
        ignore = "serve.lock_wait needs the telemetry feature (on in workspace builds)"
    )]
    fn status_surfaces_lock_wait() {
        let engine = ServeEngine::new(2);
        for i in 0..3 {
            engine.request(Request::AccessBatch {
                accesses: vec![(0, rec(i)), (1, rec(i))],
            });
        }
        let Response::Status(status) = engine.request(Request::Status { stream: None }) else {
            panic!("status failed")
        };
        let telemetry = pathfinder_telemetry::json::parse(&status.telemetry_json)
            .expect("status telemetry is JSON");
        let count = telemetry
            .get("histograms")
            .and_then(|h| h.get("serve.lock_wait"))
            .and_then(|h| h.get("count"))
            .and_then(|c| c.as_f64());
        assert_eq!(count, Some(6.0), "{}", status.telemetry_json);
    }

    #[test]
    fn poisoned_stripe_answers_error_and_other_stripes_keep_serving() {
        let engine = ServeEngine::new(2);
        let poisoner = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = engine.stripes[0].lock().expect("fresh stripe");
                    panic!("poison stripe 0");
                })
                .join()
        });
        assert!(poisoner.is_err());
        let resp = engine.request(Request::Access {
            stream: 0,
            access: rec(0),
        });
        assert!(
            matches!(&resp, Response::Error(e) if e.contains("poisoned")),
            "{resp:?}"
        );
        assert!(matches!(
            engine.request(Request::Status { stream: None }),
            Response::Error(_)
        ));
        assert!(matches!(
            engine.request(Request::Access {
                stream: 1,
                access: rec(0),
            }),
            Response::Prefetches(_)
        ));
    }

    #[test]
    fn poisoned_stream_answers_error_and_its_stripe_keeps_serving() {
        // Streams 0 and 1 share the only stripe. A panic under stream 0's
        // lock poisons stream 0 alone.
        let engine = ServeEngine::new(1);
        for stream in 0..2 {
            engine.request(Request::Access {
                stream,
                access: rec(0),
            });
        }
        let slot = Arc::clone(&engine.lock(0).expect("stripe 0").live[&0]);
        let poisoner = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = slot.lock().expect("fresh slot");
                    panic!("poison stream 0");
                })
                .join()
        });
        assert!(poisoner.is_err());
        for req in [
            Request::Access {
                stream: 0,
                access: rec(1),
            },
            Request::Predict { stream: 0 },
        ] {
            let resp = engine.request(req);
            assert!(
                matches!(&resp, Response::Error(e) if e.contains("stream 0 is poisoned")),
                "{resp:?}"
            );
        }
        assert!(matches!(
            engine.request(Request::Access {
                stream: 1,
                access: rec(1),
            }),
            Response::Prefetches(_)
        ));
        let Response::Status(daemon) = engine.request(Request::Status { stream: None }) else {
            panic!("daemon status failed")
        };
        assert_eq!((daemon.streams, daemon.accesses), (2, 3));
        // Draining the poisoned stream answers an error and frees its id;
        // a full drain then returns the healthy stream.
        assert!(matches!(
            engine.request(Request::Drain { stream: Some(0) }),
            Response::Error(_)
        ));
        assert!(matches!(
            engine.request(Request::Access {
                stream: 0,
                access: rec(2),
            }),
            Response::Prefetches(_)
        ));
        let Response::Drained(drained) = engine.request(Request::Drain { stream: None }) else {
            panic!("full drain failed")
        };
        let accesses: Vec<(u64, u64)> = drained.iter().map(|d| (d.stream, d.pf.accesses)).collect();
        assert_eq!(accesses, [(0, 1), (1, 2)]);
    }

    #[test]
    fn oversized_in_process_batch_is_refused() {
        let engine = ServeEngine::new(1);
        let accesses = vec![(0u64, rec(0)); MAX_BATCH_RECORDS + 1];
        assert!(matches!(
            engine.request(Request::AccessBatch { accesses }),
            Response::Error(_)
        ));
    }
}
