//! # pathfinder-suite
//!
//! Facade crate for the PATHFINDER (ASPLOS 2024) reproduction. Re-exports
//! every workspace crate under one roof so the `examples/` and `tests/`
//! directories — and downstream users who want the whole system — need a
//! single dependency.
//!
//! * [`accel`] — the SNN's SIMD capability probe, kernel-tier dispatch
//!   and f32 kernels (`pathfinder_snn::accel`)
//! * [`sim`] — trace-driven memory-hierarchy simulator (ChampSim substitute)
//! * [`traces`] — synthetic Table 5 workload generators
//! * [`snn`] — LIF/STDP spiking-network engine
//! * [`nn`] — small LSTM library for the neural baselines
//! * [`prefetch`] — the `Prefetcher` trait and all baselines
//! * [`core`] — PATHFINDER itself
//! * [`serve`] — prefetch-as-a-service daemon (sharded stream serving)
//! * [`hw`] — area/power model
//! * [`harness`] — experiment runners for every paper table/figure
//! * [`telemetry`] — zero-cost counters/timers and run-report snapshots
//!
//! ```
//! use pathfinder_suite::core::{PathfinderConfig, PathfinderPrefetcher};
//! use pathfinder_suite::prefetch::{generate_prefetches, Prefetcher};
//! use pathfinder_suite::traces::Workload;
//!
//! let trace = Workload::Cc5.generate(2_000, 1);
//! let mut pf = PathfinderPrefetcher::new(PathfinderConfig::default())?;
//! let schedule = generate_prefetches(&mut pf, &trace, 2);
//! assert!(schedule.len() <= 2 * trace.len());
//! # Ok::<(), String>(())
//! ```

pub use pathfinder_core as core;
pub use pathfinder_harness as harness;
pub use pathfinder_hw as hw;
pub use pathfinder_nn as nn;
pub use pathfinder_prefetch as prefetch;
pub use pathfinder_serve as serve;
pub use pathfinder_sim as sim;
pub use pathfinder_snn as snn;
pub use pathfinder_snn::accel;
pub use pathfinder_telemetry as telemetry;
pub use pathfinder_traces as traces;
