//! Prefetch-as-a-service: a long-running daemon serving many concurrent
//! access streams, each backed by its own PATHFINDER prefetcher.
//!
//! The batch workflow (`repro run`) replays one trace to completion and
//! exits; this crate turns the same learner into a service. Clients open
//! streams implicitly by naming a 64-bit stream id, push `(pc, addr)` demand
//! loads one at a time (`access`), many per frame with per-record replies
//! (`access_batch`), or in aggregate-reply frames (`train`), read
//! predictions back (`predict`), inspect counters and per-stripe telemetry
//! (`status`), retune the template for future streams (`configure`), and
//! finish streams (`drain`) — receiving the full prefetch schedule, the
//! timed-replay [`pathfinder_sim::SimReport`], and the prefetcher's final
//! counters.
//!
//! Requests run to completion on the thread that receives them (see
//! [`engine`]): a socket connection thread, or the in-process caller, serves
//! each request inline under its stream's own lock. An
//! `access_batch` frame amortizes framing and runs each stream's records as
//! one group, so duty-cycled frozen inference shares one batched kernel call.
//!
//! # Architecture
//!
//! ```text
//!  clients ──frames──▶ connection thread ──inline──▶ ServeEngine ──lookup──▶ stripe 0: streams 0,S,2S…
//!           (wire.rs)     (socket.rs)                (engine.rs)              stripe 1: streams 1,S+1…
//!                                                         │                   …
//!                                                         └──lock──▶ stream slot: session + telemetry
//! ```
//!
//! Streams map to stripe `stream_id % shards`. Each stripe is one mutex over
//! a map from stream id to the stream's slot, held only to look a slot up,
//! insert it or remove it; a stream's requests are served under its slot's
//! own lock, so per-stream order is preserved while every other stream
//! serves in parallel. The engine is transport-agnostic: tests
//! call [`ServeEngine::request`] in-process; the daemon wraps the same
//! method in length-prefixed frames on a Unix socket.
//!
//! # Parity discipline
//!
//! The non-negotiable invariant, pinned by tests in this crate and enforced
//! in CI by the `service-smoke` job: **any single stream driven through the
//! daemon produces bit-identical prefetch schedules, replay reports, and
//! stats to a batch run of the same trace.** [`StreamSession::access_run`]
//! replicates `generate_prefetches`' per-access loop exactly, and PATHFINDER
//! learns online (`prepare` is a no-op), so incremental serving is the same
//! computation as batch generation. Per-stream prefetcher seeds derive as
//! `template.seed ^ stream_id`, so a batch comparator can reconstruct any
//! stream from `(template, id)`.

#![warn(missing_docs)]

pub mod engine;
pub mod protocol;
pub mod socket;
pub mod stream;
pub mod wire;

pub use engine::{Requester, ServeEngine};
pub use protocol::{
    AccessRecord, ConfigDelta, DrainedStream, Request, Response, ServeStatus, StreamStatus,
    MAX_BATCH_RECORDS,
};
pub use socket::{serve_unix, UnixClient};
pub use stream::{StreamSession, StreamTemplate};
