//! # pathfinder-core
//!
//! PATHFINDER (ASPLOS 2024): a practical real-time-learning data prefetcher
//! built on a spiking neural network trained on-line with STDP.
//!
//! Per-page delta histories observed by a (PC, page)-indexed Training Table
//! are rendered into a binary *Memory Access Pixel Matrix* (§3.2), rate-
//! coded into Poisson spike trains, and classified by a layer of excitatory
//! LIF neurons with lateral inhibition. An Inference Table attaches up to
//! two (next-delta label, 3-bit confidence) pairs to each neuron; labels are
//! learned on the fly by watching which delta actually follows each firing
//! (§3.3), and confidences gate prefetch issue (§3.4).
//!
//! The crate implements every §3.4 design extension as a configuration knob:
//! enlarged pixels, pixel reorder (anti-aliasing), 1-tick readout, initial-
//! access encoding, multi-label neurons, and STDP duty-cycling — plus the
//! Figure 9 [`Variant`] ladder naming the paper's ablation points.
//!
//! ## Quick start
//!
//! ```
//! use pathfinder_core::{PathfinderConfig, PathfinderPrefetcher};
//! use pathfinder_prefetch::{generate_prefetches, Prefetcher};
//! use pathfinder_sim::{MemoryAccess, SimConfig, Simulator, Trace};
//!
//! // Pages visited with a +2 block stride.
//! let trace: Trace = (0..3000)
//!     .map(|i| {
//!         let (page, step) = (i / 25, i % 25);
//!         MemoryAccess::new(i, 0x400, page * 4096 + step * 2 * 64)
//!     })
//!     .collect();
//!
//! let mut pf = PathfinderPrefetcher::new(PathfinderConfig::default())?;
//! let schedule = generate_prefetches(&mut pf, &trace, 2);
//! let report = Simulator::new(SimConfig::default()).run(&trace, &schedule);
//! println!("IPC {:.3}, accuracy {:.1}%", report.ipc(), report.accuracy() * 100.0);
//! # Ok::<(), String>(())
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod encoder;
pub mod extensions;
pub mod prefetcher;
pub mod snn_cache;
pub mod tables;

pub use config::{PathfinderConfig, Readout, StdpDutyCycle, Variant};
pub use encoder::PixelMatrixEncoder;
pub use extensions::CrossPagePredictor;
pub use prefetcher::{PathfinderPrefetcher, PathfinderStats};
pub use snn_cache::{CachedQuery, SnnCacheStats, SnnQueryCache};
pub use tables::{
    InferenceTable, Label, TrainingEntry, TrainingTable, CONFIDENCE_INIT, CONFIDENCE_MAX,
    MAX_HISTORY,
};
