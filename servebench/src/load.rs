//! The untraced load phase: whole rounds of the plan, closed loop, one
//! client thread per connection, until the time is up.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use pathfinder_serve::UnixClient;

use crate::plan::{Op, Plan, Step};
use crate::referee::{check_reply, Expected, Quality};

/// Keep at most this many failure messages per connection.
const MAX_ERRORS: usize = 8;

/// What one connection saw during the load phase.
#[derive(Debug, Default)]
struct ConnLog {
    /// Round trip of every ingest frame.
    ingest: Vec<Duration>,
    /// Round trip of every `drain` frame.
    drain: Vec<Duration>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Streams whose drain matched the referee, first pass over the rounds.
    quality: Quality,
}

/// The load phase's outcome.
#[derive(Debug)]
pub struct LoadOutcome {
    /// Whole rounds completed (every connection ran each one).
    pub rounds: usize,
    /// Accesses ingested.
    pub accesses: u64,
    /// Wall time from the first frame to the end of the last round.
    pub wall: Duration,
    /// Accesses per second of each round, for the log.
    pub round_rates: Vec<f64>,
    /// Round trip of every ingest frame.
    pub ingest: Vec<Duration>,
    /// Round trip of every per-stream `drain`.
    pub drain: Vec<Duration>,
    /// Frames sent.
    pub attempted: u64,
    /// Frames that failed or were refereed as wrong.
    pub failed: u64,
    /// The first failures, for stderr.
    pub errors: Vec<String>,
    /// Quality of the refereed drains of the first pass over the rounds.
    pub quality: Quality,
}

/// Sends one round on one connection, refereeing every reply. Stops the
/// round early on a transport failure (the connection is then unusable).
fn run_round(
    client: &mut UnixClient,
    steps: &[Step],
    expected: &[Expected],
    first_pass: bool,
    log: &mut ConnLog,
) -> Result<(), ()> {
    for step in steps {
        log.attempted += 1;
        let sent = Instant::now();
        let reply = client.request(&step.request);
        let took = sent.elapsed();
        let broken = reply.is_err();
        let verdict = reply
            .map_err(|e| format!("{:?}: transport: {e}", step.op))
            .and_then(|resp| check_reply(&step.op, &resp, expected));
        match &step.op {
            op if op.is_ingest() => log.ingest.push(took),
            Op::Drain { stream } => {
                log.drain.push(took);
                if first_pass && verdict.is_ok() {
                    log.quality.add(&expected[*stream]);
                }
            }
            _ => {}
        }
        if let Err(e) = verdict {
            log.failed += 1;
            if log.errors.len() < MAX_ERRORS {
                log.errors.push(e);
            }
        }
        if broken {
            return Err(());
        }
    }
    Ok(())
}

/// Runs whole rounds on `clients` (one thread each), cycling through the
/// plan's distinct rounds, until `seconds` have passed since the first
/// frame and every distinct round has run once. Every round starts on all
/// connections together; a round in progress when time runs out is
/// finished.
pub fn run(
    plan: &Plan,
    expected: &[Vec<Expected>],
    clients: &mut [UnixClient],
    seconds: f64,
) -> LoadOutcome {
    let budget = Duration::from_secs_f64(seconds);
    let variants = plan.rounds.len();
    let barrier = Barrier::new(clients.len());
    let go_on = AtomicBool::new(true);
    let broken = AtomicBool::new(false);
    let round_ends = Mutex::new(Vec::new());
    let start = Instant::now();

    let logs: Vec<ConnLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let (barrier, go_on, broken, round_ends) = (&barrier, &go_on, &broken, &round_ends);
                scope.spawn(move || {
                    let mut log = ConnLog::default();
                    let mut k = 0;
                    while go_on.load(Ordering::SeqCst) {
                        let (round, exp) = (&plan.rounds[k % variants], &expected[k % variants]);
                        if run_round(client, &round.conns[conn], exp, k < variants, &mut log)
                            .is_err()
                        {
                            broken.store(true, Ordering::SeqCst);
                        }
                        k += 1;
                        if barrier.wait().is_leader() {
                            let elapsed = start.elapsed();
                            let mut ends = round_ends.lock().expect("round log");
                            ends.push(elapsed);
                            let more = !broken.load(Ordering::SeqCst)
                                && (elapsed < budget || ends.len() < variants);
                            go_on.store(more, Ordering::SeqCst);
                        }
                        barrier.wait();
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let round_ends = round_ends.into_inner().expect("round log");
    let rounds = round_ends.len();
    let round_rates = round_ends
        .iter()
        .enumerate()
        .map(|(k, &end)| {
            let began = if k == 0 {
                Duration::ZERO
            } else {
                round_ends[k - 1]
            };
            plan.rounds[k % variants].accesses() as f64 / (end - began).as_secs_f64()
        })
        .collect();

    let mut out = LoadOutcome {
        rounds,
        accesses: (0..rounds)
            .map(|k| plan.rounds[k % variants].accesses())
            .sum(),
        wall: round_ends.last().copied().unwrap_or_default(),
        round_rates,
        ingest: Vec::new(),
        drain: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        quality: Quality::default(),
    };
    for log in logs {
        out.ingest.extend(log.ingest);
        out.drain.extend(log.drain);
        out.attempted += log.attempted;
        out.failed += log.failed;
        out.errors.extend(log.errors);
        out.quality.merge(&log.quality);
    }
    out
}
