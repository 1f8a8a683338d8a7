//! The tentpole invariant, pinned: any single stream driven through the
//! serving engine produces bit-identical prefetch schedules, timed-replay
//! reports, and prefetcher stats to a batch run of the same trace.
//!
//! Streams here carry real Table-5 trace prefixes and are deliberately
//! interleaved round-robin through a multi-stripe engine, so the test also
//! pins cross-stream isolation: a neighbor stream on the same daemon must
//! not perturb anyone else's schedule. Runs under whatever kernel tier the
//! environment selects (CI repeats it with `PATHFINDER_FORCE_SCALAR=1`);
//! both the daemon and the batch comparator resolve the same tier, so the
//! invariant is tier-independent.

use pathfinder_core::PathfinderPrefetcher;
use pathfinder_prefetch::generate_prefetches;
use pathfinder_serve::{
    AccessRecord, Request, Response, ServeEngine, StreamSession, StreamTemplate,
};
use pathfinder_sim::{MemoryAccess, Simulator, Trace};
use pathfinder_traces::Workload;

fn record(a: &MemoryAccess) -> AccessRecord {
    AccessRecord {
        instr_id: a.instr_id,
        pc: a.pc.0,
        vaddr: a.vaddr.0,
        depends_on_prev: a.depends_on_prev,
    }
}

/// Batch-path results for one stream: `(schedule pairs, report, stats)`.
fn batch_run(
    template: &StreamTemplate,
    stream: u64,
    trace: &Trace,
) -> (
    Vec<(u64, u64)>,
    pathfinder_sim::SimReport,
    pathfinder_core::PathfinderStats,
) {
    let mut pf = PathfinderPrefetcher::new(template.config_for_stream(stream))
        .expect("default template config is valid");
    let schedule = generate_prefetches(&mut pf, trace, template.sim.max_prefetch_degree);
    let report = Simulator::new(template.sim).run(trace, &schedule);
    let pairs = schedule
        .iter()
        .map(|r| (r.trigger_instr_id, r.block.0))
        .collect();
    (pairs, report, *pf.stats())
}

#[test]
fn interleaved_streams_match_batch_runs_bit_for_bit() {
    const LOADS: usize = 2_000;
    let workloads = [Workload::Cc5, Workload::Sphinx, Workload::Mcf];
    let template = StreamTemplate::default();
    let traces: Vec<Trace> = workloads
        .iter()
        .enumerate()
        .map(|(i, w)| w.generate(LOADS, 0xA11CE ^ i as u64))
        .collect();

    let engine = ServeEngine::with_template(template.clone(), 4);

    // Round-robin interleave the three streams' accesses through the
    // daemon, checking each access's reply against the accumulating
    // expectation later via the drained schedule.
    let max_len = traces.iter().map(Trace::len).max().unwrap();
    for i in 0..max_len {
        for (stream, trace) in traces.iter().enumerate() {
            if let Some(a) = trace.accesses().get(i) {
                let resp = engine.request(Request::Access {
                    stream: stream as u64,
                    access: record(a),
                });
                assert!(
                    matches!(resp, Response::Prefetches(_)),
                    "access reply was {resp:?}"
                );
            }
        }
    }

    let Response::Drained(drained) = engine.request(Request::Drain { stream: None }) else {
        panic!("full drain failed")
    };
    assert_eq!(drained.len(), traces.len());

    for (stream, trace) in traces.iter().enumerate() {
        let served = &drained[stream];
        assert_eq!(served.stream, stream as u64);
        let (schedule, report, stats) = batch_run(&template, stream as u64, trace);
        assert!(
            !schedule.is_empty(),
            "workload {stream} produced no prefetches; the parity check would be vacuous"
        );
        assert_eq!(
            served.schedule, schedule,
            "stream {stream}: served schedule diverged from batch"
        );
        assert_eq!(
            served.report, report,
            "stream {stream}: served replay report diverged from batch"
        );
        assert_eq!(
            served.pf, stats,
            "stream {stream}: served prefetcher stats diverged from batch"
        );
    }
}

#[test]
fn batched_and_sticky_traffic_matches_batch_runs_bit_for_bit() {
    const LOADS: usize = 1_500;
    let workloads = [Workload::Cc5, Workload::Sphinx, Workload::Mcf];
    let template = StreamTemplate::default();
    let traces: Vec<Trace> = workloads
        .iter()
        .enumerate()
        .map(|(i, w)| w.generate(LOADS, 0xBEEF ^ i as u64))
        .collect();

    let engine = ServeEngine::with_template(template.clone(), 4);
    let mut sticky = engine.requester();

    // Alternate cross-stream `access_batch` frames (up to 7 records per
    // live stream, slots in stream order) with singleton bursts on one
    // long-lived requester, until every trace is consumed.
    let mut cursors = vec![0usize; traces.len()];
    let mut round = 0usize;
    loop {
        let live: Vec<usize> = (0..traces.len())
            .filter(|&s| cursors[s] < traces[s].len())
            .collect();
        if live.is_empty() {
            break;
        }
        if round % 3 == 2 {
            let s = live[round % live.len()];
            for _ in 0..5 {
                if cursors[s] >= traces[s].len() {
                    break;
                }
                let resp = sticky.request(Request::Access {
                    stream: s as u64,
                    access: record(&traces[s].accesses()[cursors[s]]),
                });
                assert!(matches!(resp, Response::Prefetches(_)));
                cursors[s] += 1;
            }
        } else {
            let mut accesses: Vec<(u64, AccessRecord)> = Vec::new();
            for &s in &live {
                for _ in 0..7 {
                    if cursors[s] >= traces[s].len() {
                        break;
                    }
                    accesses.push((s as u64, record(&traces[s].accesses()[cursors[s]])));
                    cursors[s] += 1;
                }
            }
            let streams_in_frame: Vec<u64> = accesses.iter().map(|(s, _)| *s).collect();
            let n = accesses.len();
            let Response::PrefetchBatch(parts) = sticky.request(Request::AccessBatch { accesses })
            else {
                panic!("access_batch failed")
            };
            assert_eq!(parts.len(), n, "one reply slot per record");
            // Slot alignment: each stream's final record in the frame must
            // read back as that stream's current prediction.
            for &s in &live {
                if let Some(pos) = streams_in_frame.iter().rposition(|&x| x == s as u64) {
                    let Response::Prefetches(pred) =
                        engine.request(Request::Predict { stream: s as u64 })
                    else {
                        panic!("predict failed")
                    };
                    assert_eq!(parts[pos], pred, "stream {s}: slot misaligned");
                }
            }
        }
        round += 1;
    }

    let Response::Drained(drained) = engine.request(Request::Drain { stream: None }) else {
        panic!("full drain failed")
    };
    assert_eq!(drained.len(), traces.len());
    for (stream, trace) in traces.iter().enumerate() {
        let served = &drained[stream];
        let (schedule, report, stats) = batch_run(&template, stream as u64, trace);
        assert!(!schedule.is_empty(), "vacuous parity check");
        assert_eq!(
            served.schedule, schedule,
            "stream {stream}: batched/sticky schedule diverged from batch"
        );
        assert_eq!(served.report, report);
        assert_eq!(served.pf, stats);
    }
}

#[test]
fn per_stream_drain_matches_batch_too() {
    let template = StreamTemplate::default();
    let trace = Workload::Bfs10.generate(1_000, 7);
    let engine = ServeEngine::with_template(template.clone(), 2);

    // Same stream id on both sides; a second noisy stream shares the lock
    // stripe (id 3 lands on stripe 1 with id 1 under 2 stripes).
    for a in trace.iter() {
        engine.request(Request::Access {
            stream: 1,
            access: record(a),
        });
        engine.request(Request::Access {
            stream: 3,
            access: record(a),
        });
    }
    let Response::Drained(drained) = engine.request(Request::Drain { stream: Some(1) }) else {
        panic!("per-stream drain failed")
    };
    let (schedule, report, stats) = batch_run(&template, 1, &trace);
    assert_eq!(drained[0].schedule, schedule);
    assert_eq!(drained[0].report, report);
    assert_eq!(drained[0].pf, stats);
}

#[test]
fn one_requester_reuses_its_drain_simulator_bit_for_bit() {
    // One connection's requester drains a long stream, a short one and a
    // long one again, replaying all three on the one simulator it keeps.
    // Each drain must equal `StreamSession::drain` on a fresh simulator.
    // The short stream is a prefix of the first, so every block it loads
    // was resident when the previous replay ended.
    let mut template = StreamTemplate::default();
    template.config.stdp_duty = pathfinder_core::StdpDutyCycle::first_n_of_5000(250);
    let engine = ServeEngine::with_template(template.clone(), 2);
    let mut requester = engine.requester();
    let streams = [
        (11u64, Workload::Cc5.generate(5_376, 1)),
        (12, Workload::Cc5.generate(256, 1)),
        (13, Workload::Cc5.generate(5_376, 2)),
    ];
    for (stream, trace) in &streams {
        let records: Vec<AccessRecord> = trace.iter().map(record).collect();
        let mut session = StreamSession::new(*stream, &template).expect("valid template");
        for frame in records.chunks(64) {
            let resp = requester.request(Request::AccessBatch {
                accesses: frame.iter().map(|&r| (*stream, r)).collect(),
            });
            assert!(matches!(resp, Response::PrefetchBatch(_)), "{resp:?}");
            session.access_run(frame);
        }
        let Response::Drained(drained) = requester.request(Request::Drain {
            stream: Some(*stream),
        }) else {
            panic!("drain of stream {stream} failed")
        };
        assert_eq!(drained, [session.drain()], "stream {stream}");
    }
}

#[test]
fn repeated_and_backward_instruction_ids_match_batch_runs() {
    // The wire accepts any instruction ids. Rewrite a real trace's ids to
    // step by +4, 0, +3, -5, +5, 0, -1, +6 in turn. An access that repeats
    // its predecessor's id has its prefetches issued by the replay cursor
    // at the predecessor already. An id that drops below an earlier
    // access's leaves the schedule unsorted, so the replay sorts a copy
    // first, and the sorted copy issues that access's prefetches at the
    // earlier access. The trace ends on a backward step, so its last id is
    // not its largest. The session and the engine must equal the batch run.
    const STEPS: [i64; 8] = [4, 0, 3, -5, 5, 0, -1, 6];
    let template = StreamTemplate::default();
    let mut id = 100u64;
    let trace: Trace = Workload::Sphinx
        .generate(1_199, 3)
        .iter()
        .enumerate()
        .map(|(i, a)| {
            id = id.saturating_add_signed(STEPS[i % STEPS.len()]);
            MemoryAccess { instr_id: id, ..*a }
        })
        .collect();
    let records: Vec<AccessRecord> = trace.iter().map(record).collect();

    let engine = ServeEngine::with_template(template.clone(), 2);
    let mut session = StreamSession::new(5, &template).expect("valid template");
    let mut early = 0;
    for (i, r) in records.iter().enumerate() {
        let resp = engine.request(Request::Access {
            stream: 5,
            access: *r,
        });
        let (blocks, _) = session.access_run(std::slice::from_ref(r));
        assert_eq!(
            resp,
            Response::Prefetches(blocks[0].iter().map(|b| b.0).collect())
        );
        if i > 0 && records[i - 1].instr_id == r.instr_id && !blocks[0].is_empty() {
            early += 1;
        }
    }
    let Response::Drained(drained) = engine.request(Request::Drain { stream: Some(5) }) else {
        panic!("per-stream drain failed")
    };
    let (schedule, report, stats) = batch_run(&template, 5, &trace);
    assert!(early > 0, "no prefetch rode on a repeated id");
    assert!(
        !schedule.is_sorted_by_key(|&(trigger, _)| trigger),
        "the schedule must take the replay's unsorted fallback"
    );
    assert_eq!(drained, [session.drain()]);
    assert_eq!(drained[0].schedule, schedule);
    assert_eq!(drained[0].report, report);
    assert_eq!(drained[0].pf, stats);
}
