//! End-to-end exercise of the Unix-socket transport: a real daemon on a
//! real socket, concurrent clients, clean drain shutdown, and schedule
//! parity across the full wire round trip.

use std::sync::Arc;
use std::time::Duration;

use pathfinder_serve::{
    serve_unix, AccessRecord, Request, Response, ServeEngine, StreamTemplate, UnixClient,
};
use pathfinder_traces::Workload;

fn socket_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pf-serve-{tag}-{}.sock", std::process::id()))
}

fn record(a: &pathfinder_sim::MemoryAccess) -> AccessRecord {
    AccessRecord {
        instr_id: a.instr_id,
        pc: a.pc.0,
        vaddr: a.vaddr.0,
        depends_on_prev: a.depends_on_prev,
    }
}

#[test]
fn concurrent_clients_over_a_unix_socket_with_clean_drain() {
    const CLIENTS: u64 = 4;
    const LOADS: usize = 500;
    let path = socket_path("e2e");
    let template = StreamTemplate::default();
    let engine = Arc::new(ServeEngine::with_template(template.clone(), 2));

    let daemon = {
        let engine = Arc::clone(&engine);
        let path = path.clone();
        std::thread::spawn(move || serve_unix(engine, &path))
    };

    // One client thread per stream; each mixes single `access` calls,
    // `access_batch` frames, and `train` frames so all three ingestion
    // verbs cross the wire, then reads `predict` and per-stream `status`
    // back.
    let workers: Vec<_> = (0..CLIENTS)
        .map(|stream| {
            let path = path.clone();
            std::thread::spawn(move || {
                let trace = Workload::ALL[stream as usize].generate(LOADS, stream);
                let mut client = UnixClient::connect_with_retry(&path, Duration::from_secs(10))
                    .expect("daemon comes up");
                let accesses = trace.accesses();
                let (head, tail) = accesses.split_at(accesses.len() / 2);
                let (singles, batched) = head.split_at(head.len() / 2);
                for a in singles {
                    let resp = client
                        .request(&Request::Access {
                            stream,
                            access: record(a),
                        })
                        .expect("access round trip");
                    assert!(matches!(resp, Response::Prefetches(_)));
                }
                // Stream-local frames: all records belong to one stream, so
                // the daemon runs each frame as one group under the
                // stream's lock.
                for chunk in batched.chunks(32) {
                    let resp = client
                        .request(&Request::AccessBatch {
                            accesses: chunk.iter().map(|a| (stream, record(a))).collect(),
                        })
                        .expect("access_batch round trip");
                    let Response::PrefetchBatch(parts) = resp else {
                        panic!("access_batch reply was {resp:?}")
                    };
                    assert_eq!(parts.len(), chunk.len());
                }
                let resp = client
                    .request(&Request::Train {
                        stream,
                        accesses: tail.iter().map(record).collect(),
                    })
                    .expect("train round trip");
                let Response::Trained { accesses: n, .. } = resp else {
                    panic!("train reply was {resp:?}")
                };
                assert_eq!(n, tail.len() as u64);

                let resp = client
                    .request(&Request::Predict { stream })
                    .expect("predict round trip");
                assert!(matches!(resp, Response::Prefetches(_)));

                let resp = client
                    .request(&Request::Status {
                        stream: Some(stream),
                    })
                    .expect("status round trip");
                let Response::Stream(status) = resp else {
                    panic!("status reply was {resp:?}")
                };
                assert_eq!(status.accesses, LOADS as u64);
                assert_eq!(status.pf.accesses, LOADS as u64);
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }

    // Daemon-wide status sums every client's work.
    let mut client =
        UnixClient::connect_with_retry(&path, Duration::from_secs(10)).expect("connect");
    let Response::Status(daemon_status) = client
        .request(&Request::Status { stream: None })
        .expect("daemon status")
    else {
        panic!("daemon status failed")
    };
    assert_eq!(daemon_status.streams, CLIENTS);
    assert_eq!(daemon_status.accesses, CLIENTS * LOADS as u64);

    // Full drain: all streams come back sorted, the accept loop exits, the
    // socket file disappears.
    let Response::Drained(drained) = client
        .request(&Request::Drain { stream: None })
        .expect("drain round trip")
    else {
        panic!("drain failed")
    };
    assert_eq!(drained.len(), CLIENTS as usize);
    let ids: Vec<u64> = drained.iter().map(|d| d.stream).collect();
    assert_eq!(ids, (0..CLIENTS).collect::<Vec<_>>());

    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exited cleanly");
    assert!(!path.exists(), "socket file removed on clean shutdown");

    // Wire parity: stream 0's drained schedule matches a batch run of the
    // same trace — the frames changed nothing.
    let trace = Workload::ALL[0].generate(LOADS, 0);
    let mut pf = pathfinder_core::PathfinderPrefetcher::new(template.config_for_stream(0))
        .expect("valid config");
    let schedule =
        pathfinder_prefetch::generate_prefetches(&mut pf, &trace, template.sim.max_prefetch_degree);
    let report = pathfinder_sim::Simulator::new(template.sim).run(&trace, &schedule);
    let pairs: Vec<(u64, u64)> = schedule
        .iter()
        .map(|r| (r.trigger_instr_id, r.block.0))
        .collect();
    assert_eq!(drained[0].schedule, pairs);
    assert_eq!(drained[0].report, report);
    assert_eq!(&drained[0].pf, pf.stats());
}

#[test]
fn malformed_frames_get_an_error_reply_not_a_dead_daemon() {
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    let path = socket_path("garbage");
    let engine = Arc::new(ServeEngine::new(1));
    let daemon = {
        let engine = Arc::clone(&engine);
        let path = path.clone();
        std::thread::spawn(move || serve_unix(engine, &path))
    };

    // Wait for the daemon, then send a syntactically valid frame holding a
    // semantically garbage payload: the daemon must answer Error, not die.
    let mut raw = loop {
        match UnixStream::connect(&path) {
            Ok(s) => break s,
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    let garbage = [9u8, 9, 9];
    raw.write_all(&(garbage.len() as u32).to_le_bytes())
        .unwrap();
    raw.write_all(&garbage).unwrap();
    let reply = pathfinder_serve::wire::read_frame(&mut raw)
        .expect("reply frame")
        .expect("daemon replied");
    assert!(matches!(
        Response::decode(&reply).expect("decodable reply"),
        Response::Error(_)
    ));
    drop(raw);

    // The daemon still serves a well-formed client afterwards.
    let mut client =
        UnixClient::connect_with_retry(&path, Duration::from_secs(10)).expect("connect");
    let resp = client
        .request(&Request::Access {
            stream: 0,
            access: AccessRecord {
                instr_id: 0,
                pc: 0x400,
                vaddr: 0,
                depends_on_prev: false,
            },
        })
        .expect("access after garbage");
    assert!(matches!(resp, Response::Prefetches(_)));
    let Response::Drained(_) = client
        .request(&Request::Drain { stream: None })
        .expect("drain")
    else {
        panic!("drain failed")
    };
    daemon.join().unwrap().expect("clean exit");
}

#[test]
fn batch_frames_cross_shards_and_bad_batches_are_rejected() {
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    let path = socket_path("batch");
    let engine = Arc::new(ServeEngine::new(2));
    let daemon = {
        let engine = Arc::clone(&engine);
        let path = path.clone();
        std::thread::spawn(move || serve_unix(engine, &path))
    };

    // A cross-stream batch frame over the wire: streams 0 and 1 land on
    // different lock stripes, so this exercises per-stream grouping of
    // the frame's records end-to-end and the per-slot reply ordering.
    let mut client =
        UnixClient::connect_with_retry(&path, Duration::from_secs(10)).expect("connect");
    let accesses: Vec<(u64, pathfinder_serve::AccessRecord)> = (0..64u64)
        .map(|i| {
            (
                i % 2,
                AccessRecord {
                    instr_id: i,
                    pc: 0x400 + (i % 2) * 8,
                    vaddr: i * 64,
                    depends_on_prev: false,
                },
            )
        })
        .collect();
    let resp = client
        .request(&Request::AccessBatch {
            accesses: accesses.clone(),
        })
        .expect("batch round trip");
    let Response::PrefetchBatch(parts) = resp else {
        panic!("batch reply was {resp:?}")
    };
    assert_eq!(parts.len(), accesses.len());
    // The last record per stream reads back via predict.
    for stream in 0..2u64 {
        let pos = accesses.iter().rposition(|(s, _)| *s == stream).unwrap();
        let Response::Prefetches(pred) = client
            .request(&Request::Predict { stream })
            .expect("predict round trip")
        else {
            panic!("predict failed")
        };
        assert_eq!(parts[pos], pred, "stream {stream} slot misaligned");
    }

    // A batch frame declaring more records than the cap gets an Error
    // reply on the same connection, which keeps serving afterwards.
    let mut raw = UnixStream::connect(&path).expect("raw connect");
    let mut payload = vec![7u8]; // REQ_ACCESS_BATCH
    payload.extend_from_slice(&(pathfinder_serve::MAX_BATCH_RECORDS as u32 + 1).to_le_bytes());
    raw.write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    raw.write_all(&payload).unwrap();
    let reply = pathfinder_serve::wire::read_frame(&mut raw)
        .expect("reply frame")
        .expect("daemon replied");
    assert!(matches!(
        Response::decode(&reply).expect("decodable reply"),
        Response::Error(_)
    ));

    // A truncated batch (count says 3, one record follows) also errors.
    let mut payload = vec![7u8];
    payload.extend_from_slice(&3u32.to_le_bytes());
    let one = Request::Access {
        stream: 0,
        access: AccessRecord {
            instr_id: 0,
            pc: 0,
            vaddr: 0,
            depends_on_prev: false,
        },
    }
    .encode();
    payload.extend_from_slice(&one[1..]); // strip the tag: stream + one record
    raw.write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    raw.write_all(&payload).unwrap();
    let reply = pathfinder_serve::wire::read_frame(&mut raw)
        .expect("reply frame")
        .expect("daemon replied");
    assert!(matches!(
        Response::decode(&reply).expect("decodable reply"),
        Response::Error(_)
    ));

    // An oversized frame header (beyond MAX_FRAME_LEN) kills just that
    // connection; the daemon itself keeps serving.
    let mut huge = UnixStream::connect(&path).expect("raw connect");
    huge.write_all(&((pathfinder_serve::wire::MAX_FRAME_LEN as u32) + 1).to_le_bytes())
        .unwrap();
    huge.write_all(&[0u8; 16]).unwrap();
    assert!(
        matches!(
            pathfinder_serve::wire::read_frame(&mut huge),
            Ok(None) | Err(_)
        ),
        "oversized-frame connection must die without a reply"
    );
    drop(huge);

    let Response::Drained(_) = client
        .request(&Request::Drain { stream: None })
        .expect("drain")
    else {
        panic!("drain failed")
    };
    daemon.join().unwrap().expect("clean exit");
}

#[test]
#[cfg_attr(
    not(feature = "telemetry"),
    ignore = "serve.* and snn.* counters need the telemetry feature (on in workspace builds)"
)]
fn status_reports_work_served_on_a_connection_that_has_closed() {
    use pathfinder_telemetry::json;

    const RECORDS: u64 = 300;
    let path = socket_path("telemetry");
    let engine = Arc::new(ServeEngine::new(2));
    let daemon = {
        let engine = Arc::clone(&engine);
        let path = path.clone();
        std::thread::spawn(move || serve_unix(engine, &path))
    };

    // Connection A: duty-cycle learning off after 50 accesses, so the
    // batch's tail runs frozen queries through the batched kernel; then A
    // closes, ending the thread that served it.
    {
        let mut a =
            UnixClient::connect_with_retry(&path, Duration::from_secs(10)).expect("connect A");
        let resp = a
            .request(&Request::Configure(pathfinder_serve::ConfigDelta {
                duty: Some((50, 5000)),
                ..Default::default()
            }))
            .expect("configure");
        assert_eq!(resp, Response::Ok);
        let accesses: Vec<(u64, AccessRecord)> = (0..RECORDS)
            .map(|i| {
                (
                    3,
                    AccessRecord {
                        instr_id: i * 3,
                        pc: 0x400 + (i % 4) * 8,
                        vaddr: i * 64 + if i % 17 == 0 { 4096 } else { 0 },
                        depends_on_prev: i % 5 == 0,
                    },
                )
            })
            .collect();
        let resp = a
            .request(&Request::AccessBatch { accesses })
            .expect("access_batch");
        assert!(matches!(resp, Response::PrefetchBatch(_)));
    }

    let mut b = UnixClient::connect_with_retry(&path, Duration::from_secs(10)).expect("connect B");
    let Response::Status(status) = b
        .request(&Request::Status { stream: None })
        .expect("status")
    else {
        panic!("daemon status failed")
    };
    let doc = json::parse(&status.telemetry_json).expect("status telemetry JSON");
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0)
    };
    assert_eq!(counter("serve.accesses"), RECORDS as f64);
    assert!(
        counter("snn.frozen.batch.queries") > 0.0,
        "{}",
        status.telemetry_json
    );

    let Response::Drained(_) = b.request(&Request::Drain { stream: None }).expect("drain") else {
        panic!("drain failed")
    };
    daemon.join().unwrap().expect("clean exit");
}

#[test]
fn an_idle_connection_does_not_hold_the_daemon_open_after_a_drain() {
    let path = socket_path("idle");
    let engine = Arc::new(ServeEngine::new(2));
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let daemon = {
        let engine = Arc::clone(&engine);
        let path = path.clone();
        std::thread::spawn(move || {
            let result = serve_unix(engine, &path);
            let _ = done_tx.send(());
            result
        })
    };

    // The idle connection is served once, so the daemon has surely
    // accepted it, then left open without another frame.
    let mut idle =
        UnixClient::connect_with_retry(&path, Duration::from_secs(10)).expect("connect idle");
    let resp = idle
        .request(&Request::Status { stream: None })
        .expect("status");
    assert!(matches!(resp, Response::Status(_)));

    let mut drainer =
        UnixClient::connect_with_retry(&path, Duration::from_secs(10)).expect("connect drainer");
    let resp = drainer
        .request(&Request::Drain { stream: None })
        .expect("drain");
    assert!(matches!(resp, Response::Drained(_)));

    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("serve_unix returns while a connection idles");
    daemon.join().unwrap().expect("clean exit");
    assert!(!path.exists(), "socket file removed on clean shutdown");
    // The idle peer sees the daemon hang up.
    assert!(idle.request(&Request::Status { stream: None }).is_err());
}
