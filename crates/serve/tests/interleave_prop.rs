//! Property test for serving under lock stripes: interleaving K streams'
//! accesses in *any* order through the engine — as one-shot `access` calls,
//! `access` calls on one long-lived requester, or cross-stream
//! `access_batch` frames — yields per-stream results identical to each
//! stream replayed sequentially on its own.
//!
//! Per the ROADMAP's stub-rand constraint this is seed-robust by
//! construction: it asserts on schedules, reports, and stats equality —
//! values fully determined by per-stream inputs — never on which stream
//! "wins" any cross-stream ordering.

use proptest::prelude::*;

use pathfinder_serve::{
    AccessRecord, DrainedStream, Request, Response, ServeEngine, StreamSession, StreamTemplate,
};

const STREAMS: usize = 3;
const LOADS: u64 = 40;

/// Stream `s`'s deterministic access pattern: distinct stride + irregular
/// hop per stream so the learners see genuinely different inputs.
fn pattern(s: u64) -> Vec<AccessRecord> {
    (0..LOADS)
        .map(|i| AccessRecord {
            instr_id: i * (2 + s),
            pc: 0x400 + s * 0x1000 + (i % 3) * 8,
            vaddr: i * 64 * (s + 1) + if i % (7 + s) == 0 { 1 << 20 } else { 0 },
            depends_on_prev: i % (3 + s) == 0,
        })
        .collect()
}

/// The sequential baseline: each stream alone through its own session, one
/// record per `access_run`. Interleaving-independent, so it is computed
/// once across all cases.
fn sequential(template: &StreamTemplate) -> &'static [DrainedStream] {
    static EXPECTED: std::sync::OnceLock<Vec<DrainedStream>> = std::sync::OnceLock::new();
    EXPECTED.get_or_init(|| {
        (0..STREAMS as u64)
            .map(|s| {
                let mut session = StreamSession::new(s, template).expect("valid template");
                for rec in pattern(s) {
                    session.access_run(std::slice::from_ref(&rec));
                }
                session.drain()
            })
            .collect()
    })
}

/// Decodes proptest draws into an interleaving: at each step, the draw
/// picks which still-unfinished stream(s) advance, and over which verb
/// shape — a one-shot `access` through `ServeEngine::request`, an `access`
/// on one long-lived requester, or a cross-stream `access_batch` frame of
/// up to 5 records.
fn drive_interleaved(engine: &ServeEngine, picks: &[u64]) {
    let patterns: Vec<Vec<AccessRecord>> = (0..STREAMS as u64).map(pattern).collect();
    let mut cursors = [0usize; STREAMS];
    let mut picks = picks.iter().copied().cycle();
    let mut sticky = engine.requester();
    let total: usize = patterns.iter().map(Vec::len).sum();
    let mut sent = 0usize;
    while sent < total {
        let pick = picks.next().expect("cycled");
        let live: Vec<usize> = (0..STREAMS)
            .filter(|&s| cursors[s] < patterns[s].len())
            .collect();
        match pick % 3 {
            shape @ (0 | 1) => {
                let s = live[((pick >> 2) as usize) % live.len()];
                let req = Request::Access {
                    stream: s as u64,
                    access: patterns[s][cursors[s]],
                };
                cursors[s] += 1;
                let resp = if shape == 0 {
                    engine.request(req)
                } else {
                    sticky.request(req)
                };
                assert!(matches!(resp, Response::Prefetches(_)));
                sent += 1;
            }
            _ => {
                let want = 1 + ((pick >> 2) % 5) as usize;
                let mut accesses = Vec::new();
                for k in 0..want {
                    let live: Vec<usize> = (0..STREAMS)
                        .filter(|&s| cursors[s] < patterns[s].len())
                        .collect();
                    if live.is_empty() {
                        break;
                    }
                    let s = live[((pick >> (8 + 2 * k)) as usize) % live.len()];
                    accesses.push((s as u64, patterns[s][cursors[s]]));
                    cursors[s] += 1;
                }
                let n = accesses.len();
                let resp = sticky.request(Request::AccessBatch { accesses });
                let Response::PrefetchBatch(parts) = resp else {
                    panic!("access_batch reply was {resp:?}")
                };
                assert_eq!(parts.len(), n, "one reply slot per batch record");
                sent += n;
            }
        }
    }
}

proptest! {
    #[test]
    fn any_interleaving_matches_sequential_replay(
        picks in prop::collection::vec(any::<u64>(), 16..64),
        shards in 1u64..5,
    ) {
        let template = StreamTemplate::default();
        let expected = sequential(&template);

        let engine = ServeEngine::with_template(template.clone(), shards as usize);
        drive_interleaved(&engine, &picks);
        let Response::Drained(drained) = engine.request(Request::Drain { stream: None })
        else {
            panic!("full drain failed")
        };

        prop_assert_eq!(drained.len(), STREAMS);
        for (served, baseline) in drained.iter().zip(expected) {
            prop_assert_eq!(served.stream, baseline.stream);
            prop_assert_eq!(
                &served.schedule, &baseline.schedule,
                "stream {} schedule diverged under interleaving", served.stream
            );
            prop_assert_eq!(
                &served.report, &baseline.report,
                "stream {} report diverged under interleaving", served.stream
            );
            prop_assert_eq!(
                &served.pf, &baseline.pf,
                "stream {} stats diverged under interleaving", served.stream
            );
        }
    }
}
