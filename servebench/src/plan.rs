//! The four traffic mixes: template, streams, and the request frames of
//! each round, all generated from the seed before any timer starts.
//!
//! A mix has a few distinct rounds, each opening fresh streams on fresh
//! traces; the load cycles through them. A round is deterministic and ends
//! with every stream it opened drained, so each time it runs the daemon
//! starts from the same state and must give the same replies. That lets the
//! referee check every round against one local batch run per stream, and
//! lets the quality metrics repeat exactly for a seed.

use std::ops::Range;

use pathfinder_serve::{AccessRecord, ConfigDelta, Request, StreamTemplate};
use pathfinder_sim::{MemoryAccess, Trace};
use pathfinder_traces::Workload;

/// Records per `access_batch` frame.
const BATCH_RECORDS: usize = 64;
/// Records per `train` frame.
const TRAIN_RECORDS: usize = 256;
/// Churn streams live per connection at a time.
const CHURN_WINDOW: usize = 8;

/// One traffic mix (`--workload`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// One connection, singleton `access` frames over 8 duty-cycled streams.
    SingleFrozen,
    /// The same streams and traces as `SingleFrozen`, in 64-record
    /// `access_batch` frames.
    BatchFrozen,
    /// The default always-learning template, 256-record `train` frames each
    /// followed by a `predict`.
    TrainLearning,
    /// Two connections, 512 short duty-cycled streams, each drained when its
    /// last frame returns.
    ChurnFanout,
}

impl Mix {
    /// Every mix, in `BENCHMARK.json` order.
    pub const ALL: [Mix; 4] = [
        Mix::SingleFrozen,
        Mix::BatchFrozen,
        Mix::TrainLearning,
        Mix::ChurnFanout,
    ];

    /// The workload name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Mix::SingleFrozen => "single-frozen",
            Mix::BatchFrozen => "batch-frozen",
            Mix::TrainLearning => "train-learning",
            Mix::ChurnFanout => "churn-fanout",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Mix> {
        Mix::ALL.into_iter().find(|m| m.name() == name)
    }

    /// The `configure` delta sent before the first access, if any: the
    /// duty-cycled template (STDP on for the first 250 of every 5000
    /// accesses, SNN query cache on).
    pub fn delta(self) -> Option<ConfigDelta> {
        match self {
            Mix::TrainLearning => None,
            _ => Some(ConfigDelta {
                duty: Some((250, 5000)),
                snn_cache_entries: Some(1024),
                ..ConfigDelta::default()
            }),
        }
    }

    /// Streams one round opens.
    fn streams(self) -> usize {
        match self {
            Mix::SingleFrozen | Mix::BatchFrozen => 8,
            Mix::TrainLearning => 4,
            Mix::ChurnFanout => 512,
        }
    }

    /// Accesses per stream. The duty-cycled long streams run past the
    /// start of their second epoch's frozen phase (access 5250), so every
    /// stream also meets one SNN-cache invalidation.
    fn loads(self) -> usize {
        match self {
            Mix::SingleFrozen | Mix::BatchFrozen => 5376,
            Mix::TrainLearning => 4096,
            Mix::ChurnFanout => 256,
        }
    }

    /// Distinct rounds the load cycles through. Each opens fresh streams on
    /// fresh traces, so one run averages over several trace draws for its
    /// seed. `batch-frozen` sends exactly `single-frozen`'s rounds, so the
    /// two differ only in framing.
    fn variants(self) -> usize {
        match self {
            Mix::SingleFrozen | Mix::BatchFrozen => 3,
            Mix::TrainLearning => 8,
            Mix::ChurnFanout => 2,
        }
    }

    /// Client connections (and client threads) driving the daemon.
    pub fn connections(self) -> usize {
        match self {
            Mix::ChurnFanout => 2,
            _ => 1,
        }
    }
}

/// One stream of a round: its id on the wire and the trace it replays.
#[derive(Debug)]
pub struct StreamPlan {
    /// Stream id sent to the daemon.
    pub id: u64,
    /// The trace, in the simulator's form.
    pub trace: Trace,
    /// The same trace as wire records.
    pub records: Vec<AccessRecord>,
}

/// What one request frame does, by stream index into [`Round::streams`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Singleton `access` of the stream's access `at`.
    Access { stream: usize, at: usize },
    /// `access_batch` of the stream's accesses `range`.
    Batch { stream: usize, range: Range<usize> },
    /// `train` of the stream's accesses `range`.
    Train { stream: usize, range: Range<usize> },
    /// `predict`, which reads back the blocks issued for access `at`.
    Predict { stream: usize, at: usize },
    /// Per-stream `drain`.
    Drain { stream: usize },
}

impl Op {
    /// The stream this frame addresses.
    pub fn stream(&self) -> usize {
        match *self {
            Op::Access { stream, .. }
            | Op::Batch { stream, .. }
            | Op::Train { stream, .. }
            | Op::Predict { stream, .. }
            | Op::Drain { stream } => stream,
        }
    }

    /// The accesses this frame ingests (empty for `predict` and `drain`).
    pub fn ingests(&self) -> Range<usize> {
        match self {
            Op::Access { at, .. } => *at..*at + 1,
            Op::Batch { range, .. } | Op::Train { range, .. } => range.clone(),
            Op::Predict { .. } | Op::Drain { .. } => 0..0,
        }
    }

    /// Whether the frame ingests accesses: the frames request latency is
    /// reported over.
    pub fn is_ingest(&self) -> bool {
        matches!(
            self,
            Op::Access { .. } | Op::Batch { .. } | Op::Train { .. }
        )
    }
}

/// One request frame, built before timing.
#[derive(Debug)]
pub struct Step {
    /// What the frame does.
    pub op: Op,
    /// The frame itself.
    pub request: Request,
}

/// One round: the streams it opens and the frames each connection sends.
#[derive(Debug)]
pub struct Round {
    /// The streams the round opens.
    pub streams: Vec<StreamPlan>,
    /// The frames, one list per connection.
    pub conns: Vec<Vec<Step>>,
}

impl Round {
    /// Accesses the round ingests across every connection.
    pub fn accesses(&self) -> u64 {
        self.streams.iter().map(|s| s.records.len() as u64).sum()
    }
}

/// Everything one run sends: the template and the distinct rounds the load
/// cycles through.
#[derive(Debug)]
pub struct Plan {
    /// The template the daemon's streams are built from (after `delta`).
    pub template: StreamTemplate,
    /// Distinct rounds; round `k` of the load sends `rounds[k % len]`.
    pub rounds: Vec<Round>,
}

/// SplitMix64 finalizer: decorrelates per-stream trace seeds.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn record(a: &MemoryAccess) -> AccessRecord {
    AccessRecord {
        instr_id: a.instr_id,
        pc: a.pc.0,
        vaddr: a.vaddr.0,
        depends_on_prev: a.depends_on_prev,
    }
}

/// Builds `mix`'s plan for `seed`. Round `v` opens streams `v * n ..
/// (v + 1) * n`; stream `id` replays `Workload::ALL[id % 11]`, generated
/// from `seed` and `id`.
///
/// # Errors
///
/// Returns the template validation message if the mix's delta is invalid.
pub fn build(mix: Mix, seed: u64) -> Result<Plan, String> {
    let mut template = StreamTemplate::default();
    if let Some(delta) = mix.delta() {
        template.apply(&delta)?;
    }
    let ops = round_ops(mix);
    let (n, loads) = (mix.streams() as u64, mix.loads());
    let rounds = (0..mix.variants() as u64)
        .map(|v| {
            let streams: Vec<StreamPlan> = (v * n..(v + 1) * n)
                .map(|id| {
                    let workload = Workload::ALL[id as usize % Workload::ALL.len()];
                    let trace = workload.generate(loads, mix64(seed ^ mix64(id)));
                    let records = trace.accesses().iter().map(record).collect();
                    StreamPlan { id, trace, records }
                })
                .collect();
            let conns = ops
                .iter()
                .map(|ops| {
                    ops.iter()
                        .map(|op| Step {
                            op: op.clone(),
                            request: request_for(op, &streams),
                        })
                        .collect()
                })
                .collect();
            Round { streams, conns }
        })
        .collect();
    Ok(Plan { template, rounds })
}

/// The frames of one round of `mix`, per connection, by stream index.
fn round_ops(mix: Mix) -> Vec<Vec<Op>> {
    let (n, loads) = (mix.streams(), mix.loads());
    let drains = (0..n).map(|stream| Op::Drain { stream });
    match mix {
        Mix::SingleFrozen => {
            let ops = (0..loads).flat_map(|at| (0..n).map(move |stream| Op::Access { stream, at }));
            vec![ops.chain(drains).collect()]
        }
        Mix::BatchFrozen => {
            let ops = (0..loads).step_by(BATCH_RECORDS).flat_map(|start| {
                (0..n).map(move |stream| Op::Batch {
                    stream,
                    range: start..(start + BATCH_RECORDS).min(loads),
                })
            });
            vec![ops.chain(drains).collect()]
        }
        Mix::TrainLearning => {
            let ops = (0..loads).step_by(TRAIN_RECORDS).flat_map(|start| {
                let end = (start + TRAIN_RECORDS).min(loads);
                (0..n).flat_map(move |stream| {
                    [
                        Op::Train {
                            stream,
                            range: start..end,
                        },
                        Op::Predict {
                            stream,
                            at: end - 1,
                        },
                    ]
                })
            });
            vec![ops.chain(drains).collect()]
        }
        Mix::ChurnFanout => {
            // Connection c takes the streams whose bit 1 is c, so both
            // connections alternate between both shards (id % 2). Each keeps
            // a window of streams live, round-robin, and drains a stream as
            // soon as its last frame returns.
            let frames: Vec<usize> = (0..loads).step_by(BATCH_RECORDS).collect();
            let (last, head) = frames.split_last().expect("a stream has frames");
            (0..2)
                .map(|conn| {
                    let mine: Vec<usize> = (0..n).filter(|s| (s >> 1) & 1 == conn).collect();
                    let mut ops = Vec::new();
                    for window in mine.chunks(CHURN_WINDOW) {
                        for &start in head {
                            ops.extend(window.iter().map(|&stream| Op::Batch {
                                stream,
                                range: start..start + BATCH_RECORDS,
                            }));
                        }
                        for &stream in window {
                            ops.push(Op::Batch {
                                stream,
                                range: *last..loads,
                            });
                            ops.push(Op::Drain { stream });
                        }
                    }
                    ops
                })
                .collect()
        }
    }
}

fn request_for(op: &Op, streams: &[StreamPlan]) -> Request {
    let s = &streams[op.stream()];
    match op {
        Op::Access { at, .. } => Request::Access {
            stream: s.id,
            access: s.records[*at],
        },
        Op::Batch { range, .. } => Request::AccessBatch {
            accesses: s.records[range.clone()]
                .iter()
                .map(|&r| (s.id, r))
                .collect(),
        },
        Op::Train { range, .. } => Request::Train {
            stream: s.id,
            accesses: s.records[range.clone()].to_vec(),
        },
        Op::Predict { .. } => Request::Predict { stream: s.id },
        Op::Drain { .. } => Request::Drain { stream: Some(s.id) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_round_ingests_each_access_once_and_drains_each_stream() {
        for mix in Mix::ALL {
            let plan = build(mix, 7).expect("plan builds");
            assert_eq!(plan.rounds.len(), mix.variants());
            for round in &plan.rounds {
                assert_eq!(round.conns.len(), mix.connections());
                let mut seen: Vec<Vec<u32>> = round
                    .streams
                    .iter()
                    .map(|s| vec![0; s.records.len()])
                    .collect();
                let mut drains = vec![0u32; round.streams.len()];
                for step in round.conns.iter().flatten() {
                    for at in step.op.ingests() {
                        seen[step.op.stream()][at] += 1;
                    }
                    if let Op::Drain { stream } = step.op {
                        drains[stream] += 1;
                        assert!(
                            seen[stream].iter().all(|&n| n == 1),
                            "{}: stream {stream} drained before its last access",
                            mix.name()
                        );
                    }
                }
                assert!(drains.iter().all(|&n| n == 1), "{}", mix.name());
            }
        }
    }

    #[test]
    fn plans_repeat_for_a_seed_and_differ_across_seeds_and_rounds() {
        let records = |seed, round: usize| {
            build(Mix::TrainLearning, seed).unwrap().rounds[round].streams[3]
                .records
                .clone()
        };
        assert_eq!(records(1, 0), records(1, 0));
        assert_ne!(records(1, 0), records(2, 0));
        assert_ne!(records(1, 0), records(1, 1));
    }
}
