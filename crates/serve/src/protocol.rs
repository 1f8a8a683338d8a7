//! The typed request/response protocol the daemon answers.
//!
//! Seven verbs, mirroring the daemon + typed-IPC-dispatch shape the ROADMAP
//! points at:
//!
//! * [`Request::Access`] — observe one demand load on a stream; the reply
//!   carries the prefetch blocks issued for exactly that trigger.
//! * [`Request::AccessBatch`] — observe N demand loads across any mix of
//!   streams in one frame; the reply carries N block vectors, one per
//!   record in request order. This amortizes framing and the socket
//!   round trip over the whole batch while producing the same per-access
//!   answers `access` would (records for the same stream are applied in
//!   frame order).
//! * [`Request::Predict`] — read back the blocks predicted on the stream's
//!   most recent access, without advancing any state (idempotent).
//! * [`Request::Train`] — bulk-ingest a batch of accesses through the same
//!   per-access path as `access` (warmup/training ingestion at frame
//!   granularity); only aggregate counts come back.
//! * [`Request::Status`] — per-stream counters, or daemon-wide aggregates
//!   plus the merged stripe and stream telemetry snapshot as JSON.
//! * [`Request::Configure`] — adjust the template new streams are built
//!   from; existing streams are immutable (that is what keeps them
//!   bit-identical to batch runs).
//! * [`Request::Drain`] — finish one stream (timed replay of its
//!   accumulated trace + schedule, returning the report, stats, and full
//!   schedule) or, with no stream, drain every stream and shut the daemon
//!   down.
//!
//! Every message round-trips through the [`crate::wire`] codec; integers
//! never pass through floating point, so the parity discipline ("the same
//! bits on both sides of the service boundary") holds on the wire too.

use pathfinder_core::PathfinderStats;
use pathfinder_sim::SimReport;

use crate::wire::{Dec, Enc, WireError};

/// One demand load, exactly as the simulator's `MemoryAccess` carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRecord {
    /// Dynamic instruction index (retire order) of the load.
    pub instr_id: u64,
    /// Program counter of the load instruction.
    pub pc: u64,
    /// Virtual address being loaded.
    pub vaddr: u64,
    /// Pointer-chasing dependence on the previous load.
    pub depends_on_prev: bool,
}

impl AccessRecord {
    fn encode(&self, e: &mut Enc) {
        e.u64(self.instr_id);
        e.u64(self.pc);
        e.u64(self.vaddr);
        e.bool(self.depends_on_prev);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(AccessRecord {
            instr_id: d.u64()?,
            pc: d.u64()?,
            vaddr: d.u64()?,
            depends_on_prev: d.bool()?,
        })
    }
}

/// Partial update to the stream template (`configure` verb). `None` fields
/// keep their current value. Applies to streams created *after* the call;
/// live streams never change configuration mid-flight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfigDelta {
    /// PATHFINDER prefetch degree (and the per-access schedule cap).
    pub degree: Option<u64>,
    /// Template seed; each stream still XORs its id on top.
    pub seed: Option<u64>,
    /// STDP duty cycle as `(on_accesses, epoch_accesses)`.
    pub duty: Option<(u64, u64)>,
    /// Frozen-inference prediction-cache capacity (0 disables).
    pub snn_cache_entries: Option<u64>,
}

impl ConfigDelta {
    fn encode(&self, e: &mut Enc) {
        e.opt_u64(self.degree);
        e.opt_u64(self.seed);
        match self.duty {
            Some((on, epoch)) => {
                e.u8(1);
                e.u64(on);
                e.u64(epoch);
            }
            None => e.u8(0),
        }
        e.opt_u64(self.snn_cache_entries);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, WireError> {
        let degree = d.opt_u64()?;
        let seed = d.opt_u64()?;
        let duty = match d.u8()? {
            0 => None,
            1 => Some((d.u64()?, d.u64()?)),
            other => return Err(WireError(format!("invalid duty tag {other}"))),
        };
        let snn_cache_entries = d.opt_u64()?;
        Ok(ConfigDelta {
            degree,
            seed,
            duty,
            snn_cache_entries,
        })
    }
}

/// Upper bound on records in one `access_batch` frame. At 25 wire bytes per
/// record the cap keeps the largest batch frame (~1.6 MiB) comfortably under
/// [`crate::wire::MAX_FRAME_LEN`], and it is enforced at decode time so a
/// hostile header cannot reserve unbounded memory.
pub const MAX_BATCH_RECORDS: usize = 1 << 16;

/// A client request. Streams are named by caller-chosen 64-bit ids and
/// created lazily on their first `access`/`access_batch`/`train`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Observe one demand load on `stream`.
    Access {
        /// Stream id.
        stream: u64,
        /// The load.
        access: AccessRecord,
    },
    /// Observe up to [`MAX_BATCH_RECORDS`] demand loads, each tagged with
    /// its stream, in one frame. The reply is
    /// [`Response::PrefetchBatch`] with one block vector per record, in
    /// request order.
    AccessBatch {
        /// `(stream, load)` records; same-stream records apply in order.
        accesses: Vec<(u64, AccessRecord)>,
    },
    /// Read the prefetches issued for `stream`'s most recent access.
    Predict {
        /// Stream id.
        stream: u64,
    },
    /// Bulk-ingest `accesses` on `stream` (same path as `Access`, one
    /// frame, aggregate reply).
    Train {
        /// Stream id.
        stream: u64,
        /// The loads, in stream order.
        accesses: Vec<AccessRecord>,
    },
    /// Stream counters (`Some`) or daemon-wide aggregates (`None`).
    Status {
        /// Stream id, or `None` for the whole daemon.
        stream: Option<u64>,
    },
    /// Update the template new streams are built from.
    Configure(ConfigDelta),
    /// Finish one stream (`Some`) or drain everything and shut down
    /// (`None`).
    Drain {
        /// Stream id, or `None` for daemon shutdown.
        stream: Option<u64>,
    },
}

const REQ_ACCESS: u8 = 1;
const REQ_PREDICT: u8 = 2;
const REQ_TRAIN: u8 = 3;
const REQ_STATUS: u8 = 4;
const REQ_CONFIGURE: u8 = 5;
const REQ_DRAIN: u8 = 6;
const REQ_ACCESS_BATCH: u8 = 7;

/// Wire bytes one `(stream, AccessRecord)` batch record occupies.
const BATCH_RECORD_BYTES: usize = 8 + 8 + 8 + 8 + 1;

impl Request {
    /// Serializes the request to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        self.encoder().into_bytes()
    }

    /// Serializes the request into an encoder, ready to be sent as one
    /// frame with [`Enc::write_frame`].
    pub fn encoder(&self) -> Enc {
        let mut e = Enc::new();
        match self {
            Request::Access { stream, access } => {
                e.u8(REQ_ACCESS);
                e.u64(*stream);
                access.encode(&mut e);
            }
            Request::AccessBatch { accesses } => {
                let mut enc = Enc::with_capacity(1 + 4 + accesses.len() * BATCH_RECORD_BYTES);
                enc.u8(REQ_ACCESS_BATCH);
                enc.u32(accesses.len() as u32);
                for (stream, rec) in accesses {
                    enc.u64(*stream);
                    rec.encode(&mut enc);
                }
                return enc;
            }
            Request::Predict { stream } => {
                e.u8(REQ_PREDICT);
                e.u64(*stream);
            }
            Request::Train { stream, accesses } => {
                e.u8(REQ_TRAIN);
                e.u64(*stream);
                e.u32(accesses.len() as u32);
                for a in accesses {
                    a.encode(&mut e);
                }
            }
            Request::Status { stream } => {
                e.u8(REQ_STATUS);
                e.opt_u64(*stream);
            }
            Request::Configure(delta) => {
                e.u8(REQ_CONFIGURE);
                delta.encode(&mut e);
            }
            Request::Drain { stream } => {
                e.u8(REQ_DRAIN);
                e.opt_u64(*stream);
            }
        }
        e
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation, unknown tags, or trailing
    /// bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(payload);
        let req = match d.u8()? {
            REQ_ACCESS => Request::Access {
                stream: d.u64()?,
                access: AccessRecord::decode(&mut d)?,
            },
            REQ_PREDICT => Request::Predict { stream: d.u64()? },
            REQ_TRAIN => {
                let stream = d.u64()?;
                let n = d.u32()? as usize;
                let mut accesses = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    accesses.push(AccessRecord::decode(&mut d)?);
                }
                Request::Train { stream, accesses }
            }
            REQ_STATUS => Request::Status {
                stream: d.opt_u64()?,
            },
            REQ_CONFIGURE => Request::Configure(ConfigDelta::decode(&mut d)?),
            REQ_DRAIN => Request::Drain {
                stream: d.opt_u64()?,
            },
            REQ_ACCESS_BATCH => {
                let n = d.u32()? as usize;
                if n > MAX_BATCH_RECORDS {
                    return Err(WireError(format!(
                        "access_batch of {n} records exceeds the {MAX_BATCH_RECORDS}-record cap"
                    )));
                }
                let mut accesses = Vec::with_capacity(n);
                for _ in 0..n {
                    let stream = d.u64()?;
                    accesses.push((stream, AccessRecord::decode(&mut d)?));
                }
                Request::AccessBatch { accesses }
            }
            other => return Err(WireError(format!("unknown request tag {other}"))),
        };
        if !d.is_empty() {
            return Err(WireError("trailing bytes after request".into()));
        }
        Ok(req)
    }
}

/// Per-stream counters (`status` with a stream id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamStatus {
    /// Stream id.
    pub stream: u64,
    /// Lock stripe holding the stream (`stream % shards`).
    pub shard: u32,
    /// Demand loads ingested so far.
    pub accesses: u64,
    /// Schedule entries accumulated so far.
    pub schedule_len: u64,
    /// Blocks predicted on the most recent access.
    pub last_prediction: Vec<u64>,
    /// The stream prefetcher's operational counters.
    pub pf: PathfinderStats,
}

/// Daemon-wide aggregates (`status` without a stream id).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStatus {
    /// Lock stripes streams are spread over (`--shards`).
    pub shards: u32,
    /// Live streams across all stripes.
    pub streams: u64,
    /// Demand loads ingested across all streams (including drained ones).
    pub accesses: u64,
    /// Schedule entries accumulated across all streams (including drained).
    pub schedule_len: u64,
    /// Merged stripe and stream telemetry snapshot, as the telemetry crate's JSON
    /// document (empty object when telemetry is compiled out).
    pub telemetry_json: String,
}

/// One finished stream (`drain` reply).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainedStream {
    /// Stream id.
    pub stream: u64,
    /// The full prefetch schedule the stream produced, as
    /// `(trigger_instr_id, block)` pairs in issue order — byte-comparable
    /// against a batch `generate_prefetches` run.
    pub schedule: Vec<(u64, u64)>,
    /// Timed-replay report of the stream's accumulated trace + schedule.
    pub report: SimReport,
    /// The stream prefetcher's final operational counters.
    pub pf: PathfinderStats,
}

/// A daemon reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Blocks to prefetch (for `access`; also `predict`'s read-back).
    Prefetches(Vec<u64>),
    /// Blocks to prefetch per `access_batch` record, in request order.
    PrefetchBatch(Vec<Vec<u64>>),
    /// Aggregate outcome of a `train` batch.
    Trained {
        /// Accesses ingested.
        accesses: u64,
        /// Schedule entries the batch produced.
        prefetched: u64,
    },
    /// Per-stream counters.
    Stream(StreamStatus),
    /// Daemon-wide aggregates.
    Status(ServeStatus),
    /// Finished streams, ascending by stream id.
    Drained(Vec<DrainedStream>),
    /// Verb acknowledged with nothing to report (`configure`).
    Ok,
    /// The verb could not be served (unknown stream, draining daemon,
    /// invalid configuration).
    Error(String),
}

const RESP_PREFETCHES: u8 = 1;
const RESP_TRAINED: u8 = 2;
const RESP_STREAM: u8 = 3;
const RESP_STATUS: u8 = 4;
const RESP_DRAINED: u8 = 5;
const RESP_OK: u8 = 6;
const RESP_ERROR: u8 = 7;
const RESP_PREFETCH_BATCH: u8 = 8;

fn encode_report(e: &mut Enc, r: &SimReport) {
    for v in [
        r.instructions,
        r.cycles,
        r.loads,
        r.l1d_hits,
        r.l2_hits,
        r.llc_load_accesses,
        r.llc_hits,
        r.llc_misses,
        r.prefetches_requested,
        r.prefetches_issued,
        r.prefetches_useful,
        r.prefetches_late,
        r.prefetches_useless,
    ] {
        e.u64(v);
    }
}

fn decode_report(d: &mut Dec<'_>) -> Result<SimReport, WireError> {
    Ok(SimReport {
        instructions: d.u64()?,
        cycles: d.u64()?,
        loads: d.u64()?,
        l1d_hits: d.u64()?,
        l2_hits: d.u64()?,
        llc_load_accesses: d.u64()?,
        llc_hits: d.u64()?,
        llc_misses: d.u64()?,
        prefetches_requested: d.u64()?,
        prefetches_issued: d.u64()?,
        prefetches_useful: d.u64()?,
        prefetches_late: d.u64()?,
        prefetches_useless: d.u64()?,
    })
}

fn encode_pf_stats(e: &mut Enc, s: &PathfinderStats) {
    for v in [
        s.accesses,
        s.snn_queries,
        s.fired,
        s.labels_assigned,
        s.predictions_correct,
        s.predictions_wrong,
        s.prefetches_issued,
        s.one_tick_comparisons,
        s.one_tick_matches,
        s.snn_cache_hits,
        s.snn_cache_misses,
        s.snn_cache_evictions,
        s.snn_cache_invalidations,
    ] {
        e.u64(v);
    }
}

fn decode_pf_stats(d: &mut Dec<'_>) -> Result<PathfinderStats, WireError> {
    Ok(PathfinderStats {
        accesses: d.u64()?,
        snn_queries: d.u64()?,
        fired: d.u64()?,
        labels_assigned: d.u64()?,
        predictions_correct: d.u64()?,
        predictions_wrong: d.u64()?,
        prefetches_issued: d.u64()?,
        one_tick_comparisons: d.u64()?,
        one_tick_matches: d.u64()?,
        snn_cache_hits: d.u64()?,
        snn_cache_misses: d.u64()?,
        snn_cache_evictions: d.u64()?,
        snn_cache_invalidations: d.u64()?,
    })
}

fn encode_blocks(e: &mut Enc, blocks: &[u64]) {
    e.u32(blocks.len() as u32);
    for &b in blocks {
        e.u64(b);
    }
}

fn decode_blocks(d: &mut Dec<'_>) -> Result<Vec<u64>, WireError> {
    let n = d.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(d.u64()?);
    }
    Ok(out)
}

impl Response {
    /// Serializes the response to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        self.encoder().into_bytes()
    }

    /// Serializes the response into an encoder, ready to be sent as one
    /// frame with [`Enc::write_frame`].
    pub fn encoder(&self) -> Enc {
        let mut e = Enc::new();
        match self {
            Response::Prefetches(blocks) => {
                e.u8(RESP_PREFETCHES);
                encode_blocks(&mut e, blocks);
            }
            Response::PrefetchBatch(batch) => {
                // Degree caps each record's vector at a handful of blocks;
                // pre-sizing for 2 per record avoids regrowth on the hot
                // serving path.
                let mut enc = Enc::with_capacity(1 + 4 + batch.len() * (4 + 2 * 8));
                enc.u8(RESP_PREFETCH_BATCH);
                enc.u32(batch.len() as u32);
                for blocks in batch {
                    encode_blocks(&mut enc, blocks);
                }
                return enc;
            }
            Response::Trained {
                accesses,
                prefetched,
            } => {
                e.u8(RESP_TRAINED);
                e.u64(*accesses);
                e.u64(*prefetched);
            }
            Response::Stream(s) => {
                e.u8(RESP_STREAM);
                e.u64(s.stream);
                e.u32(s.shard);
                e.u64(s.accesses);
                e.u64(s.schedule_len);
                encode_blocks(&mut e, &s.last_prediction);
                encode_pf_stats(&mut e, &s.pf);
            }
            Response::Status(s) => {
                e.u8(RESP_STATUS);
                e.u32(s.shards);
                e.u64(s.streams);
                e.u64(s.accesses);
                e.u64(s.schedule_len);
                e.str(&s.telemetry_json);
            }
            Response::Drained(streams) => {
                e.u8(RESP_DRAINED);
                e.u32(streams.len() as u32);
                for s in streams {
                    e.u64(s.stream);
                    e.u32(s.schedule.len() as u32);
                    for &(trigger, block) in &s.schedule {
                        e.u64(trigger);
                        e.u64(block);
                    }
                    encode_report(&mut e, &s.report);
                    encode_pf_stats(&mut e, &s.pf);
                }
            }
            Response::Ok => e.u8(RESP_OK),
            Response::Error(msg) => {
                e.u8(RESP_ERROR);
                e.str(msg);
            }
        }
        e
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation, unknown tags, or trailing
    /// bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(payload);
        let resp = match d.u8()? {
            RESP_PREFETCHES => Response::Prefetches(decode_blocks(&mut d)?),
            RESP_PREFETCH_BATCH => {
                let n = d.u32()? as usize;
                if n > MAX_BATCH_RECORDS {
                    return Err(WireError(format!(
                        "prefetch_batch of {n} records exceeds the {MAX_BATCH_RECORDS}-record cap"
                    )));
                }
                let mut out = Vec::with_capacity(n);
                for _ in 0..n {
                    out.push(decode_blocks(&mut d)?);
                }
                Response::PrefetchBatch(out)
            }
            RESP_TRAINED => Response::Trained {
                accesses: d.u64()?,
                prefetched: d.u64()?,
            },
            RESP_STREAM => Response::Stream(StreamStatus {
                stream: d.u64()?,
                shard: d.u32()?,
                accesses: d.u64()?,
                schedule_len: d.u64()?,
                last_prediction: decode_blocks(&mut d)?,
                pf: decode_pf_stats(&mut d)?,
            }),
            RESP_STATUS => Response::Status(ServeStatus {
                shards: d.u32()?,
                streams: d.u64()?,
                accesses: d.u64()?,
                schedule_len: d.u64()?,
                telemetry_json: d.str()?,
            }),
            RESP_DRAINED => {
                let n = d.u32()? as usize;
                let mut out = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let stream = d.u64()?;
                    let sched_n = d.u32()? as usize;
                    let mut schedule = Vec::with_capacity(sched_n.min(1 << 20));
                    for _ in 0..sched_n {
                        schedule.push((d.u64()?, d.u64()?));
                    }
                    out.push(DrainedStream {
                        stream,
                        schedule,
                        report: decode_report(&mut d)?,
                        pf: decode_pf_stats(&mut d)?,
                    });
                }
                Response::Drained(out)
            }
            RESP_OK => Response::Ok,
            RESP_ERROR => Response::Error(d.str()?),
            other => return Err(WireError(format!("unknown response tag {other}"))),
        };
        if !d.is_empty() {
            return Err(WireError("trailing bytes after response".into()));
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_req(req: Request) {
        let decoded = Request::decode(&req.encode()).expect("request decodes");
        assert_eq!(decoded, req);
    }

    fn round_trip_resp(resp: Response) {
        let decoded = Response::decode(&resp.encode()).expect("response decodes");
        assert_eq!(decoded, resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_req(Request::Access {
            stream: 7,
            access: AccessRecord {
                instr_id: u64::MAX,
                pc: 0x400,
                vaddr: 0xFFFF_FFFF_F000,
                depends_on_prev: true,
            },
        });
        round_trip_req(Request::Predict { stream: 0 });
        round_trip_req(Request::Train {
            stream: 3,
            accesses: (0..5)
                .map(|i| AccessRecord {
                    instr_id: i,
                    pc: 0x8,
                    vaddr: i * 64,
                    depends_on_prev: i % 2 == 0,
                })
                .collect(),
        });
        round_trip_req(Request::AccessBatch {
            accesses: (0..17)
                .map(|i| {
                    (
                        i % 3,
                        AccessRecord {
                            instr_id: i * 7,
                            pc: 0x400 + i,
                            vaddr: i * 64,
                            depends_on_prev: i % 4 == 0,
                        },
                    )
                })
                .collect(),
        });
        round_trip_req(Request::AccessBatch {
            accesses: Vec::new(),
        });
        round_trip_req(Request::Status { stream: None });
        round_trip_req(Request::Status { stream: Some(9) });
        round_trip_req(Request::Configure(ConfigDelta {
            degree: Some(2),
            seed: None,
            duty: Some((250, 5000)),
            snn_cache_entries: Some(0),
        }));
        round_trip_req(Request::Drain { stream: Some(1) });
        round_trip_req(Request::Drain { stream: None });
    }

    #[test]
    fn responses_round_trip() {
        round_trip_resp(Response::Prefetches(vec![1, 2, u64::MAX]));
        round_trip_resp(Response::PrefetchBatch(vec![
            vec![1, 2],
            Vec::new(),
            vec![u64::MAX],
        ]));
        round_trip_resp(Response::PrefetchBatch(Vec::new()));
        round_trip_resp(Response::Trained {
            accesses: 2000,
            prefetched: 311,
        });
        round_trip_resp(Response::Stream(StreamStatus {
            stream: 4,
            shard: 2,
            accesses: 100,
            schedule_len: 42,
            last_prediction: vec![77, 78],
            pf: PathfinderStats {
                accesses: 100,
                snn_queries: 90,
                ..PathfinderStats::default()
            },
        }));
        round_trip_resp(Response::Status(ServeStatus {
            shards: 4,
            streams: 11,
            accesses: 123456,
            schedule_len: 9876,
            telemetry_json: "{\"counters\":{}}".into(),
        }));
        round_trip_resp(Response::Drained(vec![DrainedStream {
            stream: 5,
            schedule: vec![(1, 100), (2, 101)],
            report: SimReport {
                instructions: 1000,
                cycles: 750,
                loads: 10,
                ..SimReport::default()
            },
            pf: PathfinderStats::default(),
        }]));
        round_trip_resp(Response::Ok);
        round_trip_resp(Response::Error("unknown stream 9".into()));
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[99]).is_err());
        assert!(Response::decode(&[0]).is_err());
        // Trailing bytes are an error, not silently ignored.
        let mut bytes = Request::Predict { stream: 1 }.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
        let mut bytes = Response::Ok.encode();
        bytes.push(1);
        assert!(Response::decode(&bytes).is_err());
    }

    #[test]
    fn oversized_and_truncated_batches_are_rejected() {
        // A declared record count over the cap is rejected before any
        // allocation or record parsing happens.
        let mut e = Enc::new();
        e.u8(7); // REQ_ACCESS_BATCH
        e.u32((MAX_BATCH_RECORDS + 1) as u32);
        let err = Request::decode(&e.into_bytes()).unwrap_err();
        assert!(err.0.contains("cap"), "got: {err}");

        // A batch whose payload runs out mid-record is a truncation error.
        let mut e = Enc::new();
        e.u8(7);
        e.u32(3);
        e.u64(0); // stream of record 0 only
        assert!(Request::decode(&e.into_bytes()).is_err());

        // Same caps on the reply side.
        let mut e = Enc::new();
        e.u8(8); // RESP_PREFETCH_BATCH
        e.u32((MAX_BATCH_RECORDS + 1) as u32);
        assert!(Response::decode(&e.into_bytes()).is_err());
    }
}
