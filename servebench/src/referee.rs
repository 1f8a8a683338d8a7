//! The correctness referee: what every reply must be, computed locally by
//! a batch run (`generate_prefetches` + `Simulator::run`) before timing, and
//! the quality metrics drawn only from drains that matched it.

use pathfinder_core::{PathfinderPrefetcher, PathfinderStats};
use pathfinder_prefetch::generate_prefetches;
use pathfinder_serve::{DrainedStream, Response, StreamTemplate};
use pathfinder_sim::{SimReport, Simulator};

use crate::plan::{Op, Plan, StreamPlan};

/// One stream's batch-run answer.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Stream id.
    pub id: u64,
    /// Blocks issued for each access, in trace order.
    pub blocks: Vec<Vec<u64>>,
    /// The full schedule as `(trigger_instr_id, block)` pairs.
    pub schedule: Vec<(u64, u64)>,
    /// Timed replay of the trace against the schedule.
    pub report: SimReport,
    /// The prefetcher's final counters.
    pub pf: PathfinderStats,
    /// Timed replay of the trace with no prefetching.
    pub baseline: SimReport,
}

/// Runs the batch referee for one stream.
///
/// # Errors
///
/// Returns a message if the prefetcher rejects the configuration, or if the
/// trace's instruction ids are not strictly increasing (the per-access
/// blocks are recovered from the schedule's trigger ids).
pub fn expect(template: &StreamTemplate, stream: &StreamPlan) -> Result<Expected, String> {
    let mut pf = PathfinderPrefetcher::new(template.config_for_stream(stream.id))?;
    let schedule = generate_prefetches(&mut pf, &stream.trace, template.sim.max_prefetch_degree);
    let report = Simulator::new(template.sim).run(&stream.trace, &schedule);
    let baseline = Simulator::new(template.sim).run(&stream.trace, &[]);

    let accesses = stream.trace.accesses();
    if accesses.windows(2).any(|w| w[0].instr_id >= w[1].instr_id) {
        return Err(format!(
            "stream {}: trace instruction ids are not strictly increasing",
            stream.id
        ));
    }
    let mut blocks = vec![Vec::new(); accesses.len()];
    let mut k = 0;
    for r in &schedule {
        while accesses[k].instr_id != r.trigger_instr_id {
            k += 1;
        }
        blocks[k].push(r.block.0);
    }
    Ok(Expected {
        id: stream.id,
        blocks,
        schedule: schedule
            .iter()
            .map(|r| (r.trigger_instr_id, r.block.0))
            .collect(),
        report,
        pf: *pf.stats(),
        baseline,
    })
}

/// Runs the referee for every stream of every round of `plan`, on two
/// threads. Returns one list per round, in stream order.
///
/// # Errors
///
/// The first stream's error, if any.
pub fn expect_all(plan: &Plan) -> Result<Vec<Vec<Expected>>, String> {
    let streams: Vec<&StreamPlan> = plan.rounds.iter().flat_map(|r| &r.streams).collect();
    let worker = |parity: usize| {
        streams
            .iter()
            .skip(parity)
            .step_by(2)
            .map(|s| expect(&plan.template, s))
            .collect::<Result<Vec<_>, String>>()
    };
    let (even, odd) = std::thread::scope(|scope| {
        let odd = scope.spawn(|| worker(1));
        (worker(0), odd.join().expect("referee thread panicked"))
    });
    let (mut even, mut odd) = (even?.into_iter(), odd?.into_iter());
    let mut all = (0..streams.len())
        .map(|i| if i % 2 == 0 { even.next() } else { odd.next() }.expect("one answer per stream"));
    Ok(plan
        .rounds
        .iter()
        .map(|r| all.by_ref().take(r.streams.len()).collect())
        .collect())
}

/// Checks a drained stream bit-for-bit against its batch run.
///
/// # Errors
///
/// Names the first part that diverged.
pub fn check_drained(d: &DrainedStream, e: &Expected) -> Result<(), String> {
    if d.stream != e.id {
        return Err(format!("drain returned stream {} for {}", d.stream, e.id));
    }
    if d.schedule != e.schedule {
        let at = d
            .schedule
            .iter()
            .zip(&e.schedule)
            .position(|(a, b)| a != b)
            .unwrap_or(d.schedule.len().min(e.schedule.len()));
        return Err(format!(
            "stream {}: schedule diverged at entry {at} ({} served vs {} batch entries)",
            e.id,
            d.schedule.len(),
            e.schedule.len()
        ));
    }
    if d.report != e.report {
        return Err(format!("stream {}: replay report diverged", e.id));
    }
    if d.pf != e.pf {
        return Err(format!("stream {}: prefetcher stats diverged", e.id));
    }
    Ok(())
}

/// Checks one reply's shape and content against the batch run: verb, slot
/// count, every block, and for `drain` the whole stream.
///
/// # Errors
///
/// Describes the mismatch.
pub fn check_reply(op: &Op, resp: &Response, expected: &[Expected]) -> Result<(), String> {
    let e = &expected[op.stream()];
    let ok = match (op, resp) {
        (Op::Access { at, .. }, Response::Prefetches(b)) => *b == e.blocks[*at],
        (Op::Predict { at, .. }, Response::Prefetches(b)) => *b == e.blocks[*at],
        (Op::Batch { range, .. }, Response::PrefetchBatch(parts)) => {
            parts.len() == range.len()
                && parts
                    .iter()
                    .zip(&e.blocks[range.clone()])
                    .all(|(a, b)| a == b)
        }
        (
            Op::Train { range, .. },
            Response::Trained {
                accesses,
                prefetched,
            },
        ) => {
            *accesses == range.len() as u64
                && *prefetched
                    == e.blocks[range.clone()]
                        .iter()
                        .map(|b| b.len() as u64)
                        .sum::<u64>()
        }
        (Op::Drain { .. }, Response::Drained(streams)) => {
            return match streams.as_slice() {
                [d] => check_drained(d, e),
                _ => Err(format!(
                    "stream {}: drain returned {} streams",
                    e.id,
                    streams.len()
                )),
            }
        }
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        let mut shown = format!("{resp:?}");
        shown.truncate(160);
        Err(format!("stream {}: {op:?} got {shown}", e.id))
    }
}

/// Simulated prefetch quality summed over refereed drains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quality {
    useful: u64,
    issued: u64,
    baseline_misses: u64,
    cycles: u64,
    baseline_cycles: u64,
}

impl Quality {
    /// Adds one refereed stream.
    pub fn add(&mut self, e: &Expected) {
        self.useful += e.report.prefetches_useful;
        self.issued += e.report.prefetches_issued;
        self.baseline_misses += e.baseline.llc_misses;
        self.cycles += e.report.cycles;
        self.baseline_cycles += e.baseline.cycles;
    }

    /// Adds another connection's streams.
    pub fn merge(&mut self, other: &Quality) {
        self.useful += other.useful;
        self.issued += other.issued;
        self.baseline_misses += other.baseline_misses;
        self.cycles += other.cycles;
        self.baseline_cycles += other.baseline_cycles;
    }

    /// Useful prefetches over issued prefetches.
    pub fn accuracy(&self) -> f64 {
        ratio(self.useful, self.issued)
    }

    /// Useful prefetches over the no-prefetch run's LLC load misses.
    pub fn coverage(&self) -> f64 {
        ratio(self.useful, self.baseline_misses)
    }

    /// Aggregate IPC over the no-prefetch aggregate IPC (the instruction
    /// counts are equal, so this is the cycle ratio).
    pub fn ipc_speedup(&self) -> f64 {
        ratio(self.baseline_cycles, self.cycles)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{build, Mix};

    fn drained(e: &Expected) -> DrainedStream {
        DrainedStream {
            stream: e.id,
            schedule: e.schedule.clone(),
            report: e.report.clone(),
            pf: e.pf,
        }
    }

    #[test]
    fn referee_accepts_the_batch_run_and_catches_a_corrupted_schedule() {
        let plan = build(Mix::ChurnFanout, 3).unwrap();
        let e = expect(&plan.template, &plan.rounds[0].streams[5]).unwrap();
        assert!(!e.schedule.is_empty(), "the stream prefetches something");
        let good = drained(&e);
        assert_eq!(check_drained(&good, &e), Ok(()));

        let mut bad = good.clone();
        let last = bad.schedule.len() - 1;
        bad.schedule[last].1 ^= 1;
        let err = check_drained(&bad, &e).unwrap_err();
        assert!(err.contains(&format!("entry {last}")), "{err}");

        let mut short = good.clone();
        short.schedule.pop();
        assert!(check_drained(&short, &e).is_err());

        let mut stats = good;
        stats.pf.snn_queries += 1;
        assert!(check_drained(&stats, &e).is_err());

        // The same corruption reaches the verdict through a drain reply.
        let op = Op::Drain { stream: 5 };
        let all = vec![e.clone(); 6];
        assert!(check_reply(&op, &Response::Drained(vec![bad]), &all).is_err());
        assert!(check_reply(&op, &Response::Drained(Vec::new()), &all).is_err());
    }

    #[test]
    fn per_access_blocks_rebuild_the_schedule() {
        let plan = build(Mix::TrainLearning, 9).unwrap();
        let e = expect(&plan.template, &plan.rounds[0].streams[0]).unwrap();
        let ids: Vec<u64> = plan.rounds[0].streams[0]
            .trace
            .accesses()
            .iter()
            .map(|a| a.instr_id)
            .collect();
        let rebuilt: Vec<(u64, u64)> = e
            .blocks
            .iter()
            .zip(ids)
            .flat_map(|(b, id)| b.iter().map(move |&blk| (id, blk)))
            .collect();
        assert_eq!(rebuilt, e.schedule);
    }

    #[test]
    fn reply_shape_is_checked() {
        let plan = build(Mix::BatchFrozen, 4).unwrap();
        let e = vec![expect(&plan.template, &plan.rounds[0].streams[0]).unwrap()];
        let op = Op::Batch {
            stream: 0,
            range: 0..64,
        };
        let good = Response::PrefetchBatch(e[0].blocks[0..64].to_vec());
        assert_eq!(check_reply(&op, &good, &e), Ok(()));
        let short = Response::PrefetchBatch(e[0].blocks[0..63].to_vec());
        assert!(check_reply(&op, &short, &e).is_err());
        assert!(check_reply(&op, &Response::Ok, &e).is_err());
    }
}
