//! Service mode: the `repro serve` daemon entry point and the
//! `repro serve-smoke` client driver the CI `service-smoke` job runs.
//!
//! The smoke driver is itself the parity referee: each client thread drives
//! one Table-5 trace prefix through the daemon as a live stream, drains it,
//! and compares the returned schedule, replay report, and prefetcher stats
//! against a batch run it computes locally from the shared
//! [`StreamTemplate`]. Any byte of divergence is a failure — the same
//! flat-vs-reference equivalence discipline the simulator crates use,
//! extended across the daemon's wire protocol.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use pathfinder_core::PathfinderPrefetcher;
use pathfinder_prefetch::generate_prefetches;
use pathfinder_serve::{
    serve_unix, AccessRecord, Request, Response, ServeEngine, StreamTemplate, UnixClient,
};
use pathfinder_sim::{MemoryAccess, Simulator, Trace};
use pathfinder_traces::Workload;

use crate::table::TextTable;

/// Options for `repro serve`.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// Unix-socket path to listen on.
    pub socket: String,
    /// Lock stripes streams are spread over (stream `id % shards`).
    pub shards: usize,
}

/// Options for `repro serve-smoke`.
#[derive(Debug, Clone)]
pub struct SmokeOpts {
    /// Unix-socket path of the daemon to drive.
    pub socket: String,
    /// Concurrent client count (one stream each).
    pub clients: usize,
    /// Trace-prefix length per stream.
    pub loads: usize,
    /// Trace generation seed.
    pub seed: u64,
    /// When true, the smoke finishes by draining the daemon itself
    /// (`drain` with no stream), shutting it down.
    pub shutdown: bool,
    /// When true, each client drives part of its trace as `access_batch`
    /// frames over its long-lived connection instead of pure
    /// singleton `access` calls, exercising the batched hot path.
    pub batch: bool,
}

/// Runs the daemon on `opts.socket` until a full `drain` shuts it down.
///
/// # Errors
///
/// Returns bind/accept failures as strings for the CLI to print.
pub fn serve(opts: &ServeOpts) -> Result<(), String> {
    let engine = Arc::new(ServeEngine::new(opts.shards));
    eprintln!(
        "# serve: listening on {} with {} lock stripe(s); send `drain` with no stream to stop",
        opts.socket,
        engine.shards()
    );
    serve_unix(engine, Path::new(&opts.socket)).map_err(|e| format!("serve: {e}"))
}

fn record(a: &MemoryAccess) -> AccessRecord {
    AccessRecord {
        instr_id: a.instr_id,
        pc: a.pc.0,
        vaddr: a.vaddr.0,
        depends_on_prev: a.depends_on_prev,
    }
}

/// One smoke client's verdict.
struct ClientOutcome {
    stream: u64,
    workload: Workload,
    accesses: u64,
    schedule_len: u64,
    llc_misses: u64,
    parity: Result<(), String>,
}

/// Drives one stream through the daemon and referees it against batch.
fn drive_stream(
    socket: &Path,
    template: &StreamTemplate,
    stream: u64,
    workload: Workload,
    trace: &Trace,
    batch: bool,
) -> Result<ClientOutcome, String> {
    let mut client = UnixClient::connect_with_retry(socket, Duration::from_secs(30))
        .map_err(|e| format!("stream {stream}: connect to {}: {e}", socket.display()))?;
    let fail = |what: &str, resp: &Response| format!("stream {stream}: {what} replied {resp:?}");

    // First half one access at a time (echoed prefetches each reply) —
    // or, under `--batch`, as 16-record `access_batch` frames — second
    // half as one `train` frame. Every ingestion verb that crosses the
    // wire must compose into one bit-identical schedule.
    let accesses = trace.accesses();
    let (head, tail) = accesses.split_at(accesses.len() / 2);
    if batch {
        for chunk in head.chunks(16) {
            let resp = client
                .request(&Request::AccessBatch {
                    accesses: chunk.iter().map(|a| (stream, record(a))).collect(),
                })
                .map_err(|e| format!("stream {stream}: access_batch: {e}"))?;
            let Response::PrefetchBatch(parts) = resp else {
                return Err(fail("access_batch", &resp));
            };
            if parts.len() != chunk.len() {
                return Err(format!(
                    "stream {stream}: access_batch returned {} reply slots for {} records",
                    parts.len(),
                    chunk.len()
                ));
            }
        }
    } else {
        for a in head {
            let resp = client
                .request(&Request::Access {
                    stream,
                    access: record(a),
                })
                .map_err(|e| format!("stream {stream}: access: {e}"))?;
            if !matches!(resp, Response::Prefetches(_)) {
                return Err(fail("access", &resp));
            }
        }
    }
    let resp = client
        .request(&Request::Train {
            stream,
            accesses: tail.iter().map(record).collect(),
        })
        .map_err(|e| format!("stream {stream}: train: {e}"))?;
    if !matches!(resp, Response::Trained { .. }) {
        return Err(fail("train", &resp));
    }

    let resp = client
        .request(&Request::Drain {
            stream: Some(stream),
        })
        .map_err(|e| format!("stream {stream}: drain: {e}"))?;
    let Response::Drained(mut drained) = resp else {
        return Err(fail("drain", &resp));
    };
    let served = drained
        .pop()
        .ok_or_else(|| format!("stream {stream}: drain returned no streams"))?;

    // The batch referee: same derivation, zero daemon involvement.
    let mut pf = PathfinderPrefetcher::new(template.config_for_stream(stream))
        .map_err(|e| format!("stream {stream}: config: {e}"))?;
    let schedule = generate_prefetches(&mut pf, trace, template.sim.max_prefetch_degree);
    let report = Simulator::new(template.sim).run(trace, &schedule);
    let pairs: Vec<(u64, u64)> = schedule
        .iter()
        .map(|r| (r.trigger_instr_id, r.block.0))
        .collect();

    let parity = if served.schedule != pairs {
        Err(format!(
            "schedule diverged ({} served vs {} batch entries)",
            served.schedule.len(),
            pairs.len()
        ))
    } else if served.report != report {
        Err("replay report diverged".to_string())
    } else if &served.pf != pf.stats() {
        Err("prefetcher stats diverged".to_string())
    } else {
        Ok(())
    };
    Ok(ClientOutcome {
        stream,
        workload,
        accesses: trace.len() as u64,
        schedule_len: served.schedule.len() as u64,
        llc_misses: served.report.llc_misses,
        parity,
    })
}

/// Runs the smoke: `opts.clients` concurrent clients, one Table-5 stream
/// each, every one refereed against batch. Returns the rendered result
/// table, or an error describing the first failure.
///
/// # Errors
///
/// Any transport failure or parity divergence on any stream.
pub fn smoke(opts: &SmokeOpts) -> Result<String, String> {
    let template = StreamTemplate::default();
    let socket = Path::new(&opts.socket).to_path_buf();

    let outcomes: Vec<Result<ClientOutcome, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.clients as u64)
            .map(|stream| {
                let socket = socket.clone();
                let template = &template;
                let workload = Workload::ALL[stream as usize % Workload::ALL.len()];
                let loads = opts.loads;
                let seed = opts.seed ^ stream;
                let batch = opts.batch;
                scope.spawn(move || {
                    let trace = workload.generate(loads, seed);
                    drive_stream(&socket, template, stream, workload, &trace, batch)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("smoke client panicked"))
            .collect()
    });

    let mut table = TextTable::new(
        "Service smoke: per-stream daemon-vs-batch parity",
        &[
            "stream",
            "trace",
            "accesses",
            "schedule",
            "llc_misses",
            "parity",
        ],
    );
    let mut failures: Vec<String> = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(c) => {
                let verdict = match &c.parity {
                    Ok(()) => "bit-identical".to_string(),
                    Err(e) => {
                        failures.push(format!("stream {}: {e}", c.stream));
                        "DIVERGED".to_string()
                    }
                };
                table.row(vec![
                    c.stream.to_string(),
                    c.workload.trace_name().to_string(),
                    c.accesses.to_string(),
                    c.schedule_len.to_string(),
                    c.llc_misses.to_string(),
                    verdict,
                ]);
            }
            Err(e) => failures.push(e),
        }
    }

    // Exercise daemon-wide status, then (optionally) the clean shutdown.
    let mut client = UnixClient::connect_with_retry(&socket, Duration::from_secs(30))
        .map_err(|e| format!("status client: {e}"))?;
    let status_line = match client
        .request(&Request::Status { stream: None })
        .map_err(|e| format!("status: {e}"))?
    {
        Response::Status(s) => format!(
            "# serve-smoke: daemon status: shards={} live_streams={} accesses={} schedule={}",
            s.shards, s.streams, s.accesses, s.schedule_len
        ),
        other => return Err(format!("status replied {other:?}")),
    };
    if opts.shutdown {
        match client
            .request(&Request::Drain { stream: None })
            .map_err(|e| format!("shutdown drain: {e}"))?
        {
            Response::Drained(rest) => {
                if !rest.is_empty() {
                    failures.push(format!(
                        "shutdown drain returned {} undrained stream(s)",
                        rest.len()
                    ));
                }
            }
            other => return Err(format!("shutdown drain replied {other:?}")),
        }
    }

    if !failures.is_empty() {
        return Err(format!(
            "{} of {} stream(s) failed:\n  {}",
            failures.len(),
            opts.clients,
            failures.join("\n  ")
        ));
    }
    let mode = if opts.batch {
        "access_batch x16 frames"
    } else {
        "singleton accesses"
    };
    Ok(format!(
        "## serve-smoke: {} concurrent client(s), {} loads each via {mode} — all bit-identical to batch\n\n{}\n{status_line}",
        opts.clients,
        opts.loads,
        table.render()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full daemon + smoke pair, in-process: daemon thread on a temp
    /// socket, the real smoke driver against it, clean shutdown at the end.
    /// Runs once per ingestion mode (singleton and `--batch`).
    fn smoke_round_trip(tag: &str, batch: bool) {
        let socket = std::env::temp_dir().join(format!(
            "pf-serve-smoke-unit-{tag}-{}.sock",
            std::process::id()
        ));
        let opts = ServeOpts {
            socket: socket.to_string_lossy().into_owned(),
            shards: 2,
        };
        let daemon = {
            let opts = opts.clone();
            std::thread::spawn(move || serve(&opts))
        };
        let text = smoke(&SmokeOpts {
            socket: opts.socket.clone(),
            clients: 3,
            loads: 600,
            seed: 42,
            shutdown: true,
            batch,
        })
        .expect("smoke passes");
        assert!(text.contains("bit-identical"));
        assert!(!text.contains("DIVERGED"));
        if batch {
            assert!(text.contains("access_batch"));
        }
        daemon.join().expect("daemon thread").expect("clean exit");
        assert!(!socket.exists());
    }

    #[test]
    fn smoke_passes_against_a_live_daemon() {
        smoke_round_trip("single", false);
    }

    #[test]
    fn batched_smoke_passes_against_a_live_daemon() {
        smoke_round_trip("batch", true);
    }
}
