//! PATHFINDER configuration and the Figure 9 variant ladder.

use pathfinder_snn::SnnConfig;
use serde::{Deserialize, Serialize};

use crate::tables::{MAX_HISTORY, MAX_NEURONS};

/// How prefetch predictions are read out of the SNN.
///
/// `Hash` because the readout mode is part of the prediction-cache key:
/// the two modes can disagree on the winning neuron for the same matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Readout {
    /// Full `T`-tick stochastic simulation; the most-firing neuron wins.
    FullInterval,
    /// The paper's reduced-interval approximation (§3.4): argmax potential
    /// after one expected-current tick (Figure 7, Table 1).
    OneTick,
}

/// Periodic STDP duty-cycling (§5, Figure 8): learning is enabled for the
/// first `on_accesses` of every `epoch_accesses`, then frozen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StdpDutyCycle {
    /// Accesses with STDP enabled at the start of each epoch.
    pub on_accesses: u64,
    /// Epoch length in accesses (the paper uses 5000).
    pub epoch_accesses: u64,
}

impl StdpDutyCycle {
    /// STDP always on (the default).
    pub const ALWAYS_ON: StdpDutyCycle = StdpDutyCycle {
        on_accesses: u64::MAX,
        epoch_accesses: u64::MAX,
    };

    /// The paper's Figure 8 sweep points: on for the first `on` of every
    /// 5000 accesses.
    pub fn first_n_of_5000(on: u64) -> Self {
        StdpDutyCycle {
            on_accesses: on,
            epoch_accesses: 5000,
        }
    }

    /// Whether learning is enabled at the given access index.
    pub fn learning_enabled(&self, access_index: u64) -> bool {
        if self.epoch_accesses == u64::MAX {
            return true;
        }
        access_index % self.epoch_accesses < self.on_accesses
    }
}

/// Full PATHFINDER configuration.
///
/// Defaults reproduce the paper's Figure 4 configuration: "50 neurons with
/// 2 labels for each neuron, delta range: -63 to 63, input interval: 32
/// ticks, prefetch degree: 2".
///
/// # Examples
///
/// ```
/// use pathfinder_core::PathfinderConfig;
///
/// let cfg = PathfinderConfig::default();
/// assert_eq!(cfg.delta_range, 63);
/// assert_eq!(cfg.history, 3);
/// assert_eq!(cfg.labels_per_neuron, 2);
/// assert_eq!(cfg.n_input(), 127 * 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathfinderConfig {
    /// Maximum |delta| tracked; the input row width is `2 * delta_range + 1`
    /// (the paper's default range "127" spans -63..=63).
    pub delta_range: u8,
    /// Delta-history length `H` (paper: 3).
    pub history: usize,
    /// Excitatory/inhibitory neuron count (paper: 50).
    pub neurons: usize,
    /// Input interval in ticks when using [`Readout::FullInterval`].
    pub ticks: u32,
    /// Readout mode.
    pub readout: Readout,
    /// Labels (and confidence counters) per neuron: 1 or 2 (§3.4).
    pub labels_per_neuron: usize,
    /// Maximum prefetches per access (competition rule: 2).
    pub degree: usize,
    /// Enlarged-pixel encoding: each active pixel also lights its
    /// neighborhood at half intensity (§3.4).
    pub enlarged_pixels: bool,
    /// Anti-aliasing reorder: shift the middle delta row by a fixed constant
    /// (§3.4 "we shift the middle delta in the delta pattern").
    pub reorder_pixels: bool,
    /// Encode the first accesses to a page as offset/partial-delta patterns
    /// (§3.4 "Initial Accesses to a Page").
    pub initial_access_encoding: bool,
    /// Confidence threshold a label must exceed to issue a prefetch.
    pub confidence_threshold: u8,
    /// Training-table capacity in (PC, page) entries (paper: 1K rows).
    pub training_table_entries: usize,
    /// STDP duty cycle.
    pub stdp_duty: StdpDutyCycle,
    /// Capacity of the frozen-inference prediction cache (entries). While
    /// STDP is duty-cycled off, queries are memoized on the packed pixel
    /// matrix key and invalidated wholesale whenever the SNN's weight
    /// version moves. `0` disables memoization (every inference query still
    /// runs through the pure frozen kernel, so results are unchanged).
    pub snn_cache_entries: usize,
    /// RNG seed for SNN initialization and Poisson encoding.
    pub seed: u64,
}

impl Default for PathfinderConfig {
    fn default() -> Self {
        PathfinderConfig {
            delta_range: 63,
            history: 3,
            neurons: 50,
            ticks: 32,
            readout: Readout::FullInterval,
            labels_per_neuron: 2,
            degree: 2,
            enlarged_pixels: true,
            reorder_pixels: true,
            initial_access_encoding: true,
            confidence_threshold: 0,
            training_table_entries: 1024,
            stdp_duty: StdpDutyCycle::ALWAYS_ON,
            snn_cache_entries: 1024,
            seed: 0x9A7F,
        }
    }
}

impl PathfinderConfig {
    /// Width `D` of one pixel-matrix row (`2 * delta_range + 1`).
    pub fn row_width(&self) -> usize {
        2 * self.delta_range as usize + 1
    }

    /// Total SNN input size `D x H`.
    pub fn n_input(&self) -> usize {
        self.row_width() * self.history
    }

    /// Derives the SNN configuration for this prefetcher configuration.
    pub fn snn_config(&self) -> SnnConfig {
        SnnConfig {
            n_input: self.n_input(),
            n_exc: self.neurons,
            ticks: self.ticks,
            ..SnnConfig::default()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.delta_range == 0 || self.delta_range > 63 {
            return Err(format!(
                "delta_range {} must be in 1..=63 (within-page deltas)",
                self.delta_range
            ));
        }
        if self.history == 0 {
            return Err("history must be positive".into());
        }
        if self.history > MAX_HISTORY {
            return Err(format!(
                "history {} must be at most {MAX_HISTORY} (one byte per row in \
                 the packed pixel-matrix cache key)",
                self.history
            ));
        }
        if self.neurons == 0 {
            return Err("neurons must be positive".into());
        }
        if self.neurons > MAX_NEURONS {
            return Err(format!(
                "neurons {} must be at most {MAX_NEURONS} (the Training \
                 Table's packed prediction records)",
                self.neurons
            ));
        }
        if !(1..=2).contains(&self.labels_per_neuron) {
            return Err("labels_per_neuron must be 1 or 2".into());
        }
        if self.degree == 0 {
            return Err("degree must be positive".into());
        }
        if self.training_table_entries == 0 {
            return Err("training table must have capacity".into());
        }
        self.snn_config().validate()
    }
}

/// The named variants of Figure 9, ordered as the paper presents them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Variant {
    /// Basic 1-label version: plain pixels, full interval.
    Basic1Label,
    /// + enlarged pixels.
    EnlargedPixel1Label,
    /// + two labels per neuron.
    EnlargedPixel2Label,
    /// + reduced (1-tick) input interval.
    ReducedInterval2Label,
    /// + reordered (anti-aliased) pixels — the full configuration.
    Reordered2Label,
}

impl Variant {
    /// All Figure 9 variants in presentation order.
    pub const ALL: [Variant; 5] = [
        Variant::Basic1Label,
        Variant::EnlargedPixel1Label,
        Variant::EnlargedPixel2Label,
        Variant::ReducedInterval2Label,
        Variant::Reordered2Label,
    ];

    /// Label used in Figure 9.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Basic1Label => "basic 1-label",
            Variant::EnlargedPixel1Label => "enlarged-pixel 1-label",
            Variant::EnlargedPixel2Label => "enlarged-pixel 2-label",
            Variant::ReducedInterval2Label => "enlarged-pixel reduced-interval 2-label",
            Variant::Reordered2Label => "reordered enlarged-pixel reduced-interval 2-label",
        }
    }

    /// The configuration this variant denotes.
    pub fn config(self) -> PathfinderConfig {
        let base = PathfinderConfig::default();
        match self {
            Variant::Basic1Label => PathfinderConfig {
                enlarged_pixels: false,
                reorder_pixels: false,
                labels_per_neuron: 1,
                readout: Readout::FullInterval,
                ..base
            },
            Variant::EnlargedPixel1Label => PathfinderConfig {
                enlarged_pixels: true,
                reorder_pixels: false,
                labels_per_neuron: 1,
                readout: Readout::FullInterval,
                ..base
            },
            Variant::EnlargedPixel2Label => PathfinderConfig {
                enlarged_pixels: true,
                reorder_pixels: false,
                labels_per_neuron: 2,
                readout: Readout::FullInterval,
                ..base
            },
            Variant::ReducedInterval2Label => PathfinderConfig {
                enlarged_pixels: true,
                reorder_pixels: false,
                labels_per_neuron: 2,
                readout: Readout::OneTick,
                ..base
            },
            Variant::Reordered2Label => PathfinderConfig {
                enlarged_pixels: true,
                reorder_pixels: true,
                labels_per_neuron: 2,
                readout: Readout::OneTick,
                ..base
            },
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_figure4_caption() {
        let c = PathfinderConfig::default();
        assert_eq!(c.neurons, 50);
        assert_eq!(c.labels_per_neuron, 2);
        assert_eq!(c.delta_range, 63); // "-63 to 63"
        assert_eq!(c.row_width(), 127);
        assert_eq!(c.ticks, 32);
        assert_eq!(c.degree, 2);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn n_input_scales_with_range() {
        let mut c = PathfinderConfig {
            delta_range: 31,
            ..PathfinderConfig::default()
        };
        assert_eq!(c.n_input(), 63 * 3);
        c.delta_range = 15;
        assert_eq!(c.n_input(), 31 * 3);
    }

    #[test]
    fn validation_rejects_bad_values() {
        for f in [
            |c: &mut PathfinderConfig| c.delta_range = 0,
            |c: &mut PathfinderConfig| c.delta_range = 64,
            |c: &mut PathfinderConfig| c.history = 0,
            |c: &mut PathfinderConfig| c.history = 9,
            |c: &mut PathfinderConfig| c.labels_per_neuron = 3,
            |c: &mut PathfinderConfig| c.degree = 0,
            |c: &mut PathfinderConfig| c.training_table_entries = 0,
        ] {
            let mut c = PathfinderConfig::default();
            f(&mut c);
            assert!(c.validate().is_err());
        }
    }

    #[test]
    fn duty_cycle_windows() {
        let d = StdpDutyCycle::first_n_of_5000(50);
        assert!(d.learning_enabled(0));
        assert!(d.learning_enabled(49));
        assert!(!d.learning_enabled(50));
        assert!(!d.learning_enabled(4999));
        assert!(d.learning_enabled(5000));
        assert!(StdpDutyCycle::ALWAYS_ON.learning_enabled(u64::MAX - 1));
    }

    #[test]
    fn variant_ladder_is_monotone_in_features() {
        assert!(!Variant::Basic1Label.config().enlarged_pixels);
        assert!(Variant::EnlargedPixel1Label.config().enlarged_pixels);
        assert_eq!(Variant::EnlargedPixel2Label.config().labels_per_neuron, 2);
        assert_eq!(
            Variant::ReducedInterval2Label.config().readout,
            Readout::OneTick
        );
        assert!(Variant::Reordered2Label.config().reorder_pixels);
        // All variants validate.
        for v in Variant::ALL {
            assert!(v.config().validate().is_ok(), "{v}");
        }
    }
}
