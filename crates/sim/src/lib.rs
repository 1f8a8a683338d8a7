//! # pathfinder-sim
//!
//! Trace-driven memory-hierarchy simulator used as the ChampSim substitute in
//! the PATHFINDER (ASPLOS 2024) reproduction.
//!
//! The simulator mirrors the ML Prefetching Competition workflow the paper
//! uses (§4.1): prefetchers are run *offline* over a load trace to produce a
//! prefetch schedule, and the timed replay then charges realistic latencies
//! through an L1D/L2/LLC hierarchy (Table 3 geometry), a bank/bus/queue DRAM
//! model, and a reorder-buffer-bounded core model that converts load
//! latencies into IPC.
//!
//! ## Quick start
//!
//! ```
//! use pathfinder_sim::{MemoryAccess, PrefetchRequest, SimConfig, Simulator, Trace};
//!
//! // A little streaming trace: one load every 4 instructions.
//! let trace: Trace = (0..1000)
//!     .map(|i| MemoryAccess::new(i * 4, 0x400, 0x10_0000 + i * 64))
//!     .collect();
//!
//! // Next-line oracle prefetches.
//! let prefetches: Vec<PrefetchRequest> = trace
//!     .accesses()
//!     .windows(2)
//!     .map(|w| PrefetchRequest::new(w[0].instr_id, w[1].block()))
//!     .collect();
//!
//! let baseline = Simulator::new(SimConfig::default()).run(&trace, &[]);
//! let prefetched = Simulator::new(SimConfig::default()).run(&trace, &prefetches);
//! assert!(prefetched.ipc() >= baseline.ipc());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod access;
pub mod addr;
pub mod cache;
pub mod config;
pub mod core;
pub mod dram;
pub mod engine;
pub mod io;
pub mod mshr;
pub mod reference;
pub mod stats;

pub use access::{MemoryAccess, PrefetchRequest, ReplayAccess, Trace};
pub use addr::{Addr, Block, Page, BLOCKS_PER_PAGE, BLOCK_SIZE, PAGE_SIZE};
pub use cache::{Cache, CacheLevel, CacheStats, LookupResult};
pub use config::{CacheConfig, CoreConfig, DramConfig, SimConfig};
pub use core::RobModel;
pub use dram::{DramModel, DramStats, RowOutcome};
pub use engine::Simulator;
pub use io::{read_trace, write_trace, ReadTraceError};
pub use mshr::MshrTracker;
pub use reference::{ReferenceCache, ReferenceSimulator};
pub use stats::{DetailedStats, SimReport};
