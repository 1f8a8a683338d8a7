//! Per-stream memory follows use, not the configured table bounds.
//!
//! A counting global allocator tracks the live heap bytes of duty-cycled
//! [`StreamSession`]s (STDP on for the first 250 of every 5000 accesses,
//! 1024-entry SNN query cache):
//!
//! * one `churn-fanout`-shaped stream, fresh and after 256 accesses. The
//!   Training Table and the SNN query cache grow on demand, so neither
//!   reserves its 1024-row bound up front (that reservation alone was
//!   ~530 KiB per stream). The bounds sit well above today's footprint and
//!   well below a capacity-sized reservation.
//! * two `single-frozen`-shaped streams of 5,376 accesses: `605-mcf-s1`,
//!   whose Training Table fills to its 2,048-row eviction point, and
//!   `cc-5`. Their Training Table rows keep no heap but an exact-size list
//!   of tracked predictions, and the replay log keeps 16 bytes per access
//!   in fixed-size chunks; with 32-byte accesses in doubling buffers and
//!   two heap vectors per row they held ~1,120 and ~556 KiB.
//!
//! The binary holds a single test, so no other test's allocations land in
//! the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use pathfinder_core::StdpDutyCycle;
use pathfinder_serve::{AccessRecord, StreamSession, StreamTemplate};
use pathfinder_traces::Workload;

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the counter only
// observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::SeqCst);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::SeqCst);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const KIB: isize = 1024;

#[test]
fn duty_cycled_streams_hold_little_heap_short_and_long() {
    let mut template = StreamTemplate::default();
    template.config.stdp_duty = StdpDutyCycle::first_n_of_5000(250);
    template.config.snn_cache_entries = 1024;
    let short = records(Workload::Cc5, 256);

    let before = LIVE.load(Ordering::SeqCst);
    let mut session = StreamSession::new(1, &template).expect("valid template");
    let fresh = LIVE.load(Ordering::SeqCst) - before;
    for frame in short.chunks(64) {
        session.access_run(frame);
    }
    let used = LIVE.load(Ordering::SeqCst) - before;
    eprintln!(
        "live heap of one stream: fresh {} KiB, after 256 accesses {} KiB",
        fresh / KIB,
        used / KIB
    );
    assert_eq!(session.accesses(), 256);
    assert!(fresh <= 128 * KIB, "fresh stream holds {fresh} B");
    assert!(
        used <= 192 * KIB,
        "stream after 256 accesses holds {used} B"
    );
    drop(session);

    for (workload, bound) in [(Workload::Mcf, 700 * KIB), (Workload::Cc5, 360 * KIB)] {
        let long = records(workload, 5_376);
        let before = LIVE.load(Ordering::SeqCst);
        let mut session = StreamSession::new(1, &template).expect("valid template");
        for r in &long {
            session.access_run(std::slice::from_ref(r));
        }
        let used = LIVE.load(Ordering::SeqCst) - before;
        eprintln!(
            "live heap of one {} stream after 5,376 accesses: {} KiB",
            workload.trace_name(),
            used / KIB
        );
        assert_eq!(session.accesses(), 5_376);
        assert!(
            used <= bound,
            "{} stream after 5,376 accesses holds {used} B",
            workload.trace_name()
        );
    }
}

/// `loads` accesses of `workload` (seed 5) as wire records.
fn records(workload: Workload, loads: usize) -> Vec<AccessRecord> {
    workload
        .generate(loads, 5)
        .iter()
        .map(|a| AccessRecord {
            instr_id: a.instr_id,
            pc: a.pc.0,
            vaddr: a.vaddr.0,
            depends_on_prev: a.depends_on_prev,
        })
        .collect()
}
