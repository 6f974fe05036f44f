//! Global-placement parameters.

/// Tuning knobs for the electrostatic global placer.
///
/// Defaults are sized for the synthetic workload profiles (hundreds to
/// tens of thousands of cells); every field is deterministic input — two
/// runs with equal configs and equal netlists produce bit-identical
/// placements at any thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct GpConfig {
    /// Fixed number of Nesterov iterations (the placer never early-outs,
    /// so iteration count is part of the reproducibility contract).
    pub iterations: usize,
    /// Bins per axis of the density grid; `0` picks
    /// `ceil(sqrt(movable cells))` clamped to `[8, 64]`.
    pub bins: usize,
    /// Weighted-average HPWL smoothing parameter, in units of one bin
    /// width (the ePlace convention); larger is smoother but looser.
    pub gamma_bins: f64,
    /// Multiplicative density-weight growth per iteration; must be
    /// `>= 1` so the schedule is monotone.
    pub lambda_growth: f64,
    /// Worker threads for gradient/transform dispatch; `0` means the
    /// machine's parallelism, capped at 8 (resolved by
    /// [`crp_core::resolve_threads`]). Output is identical either way.
    pub threads: usize,
    /// Seed for the initial spreading jitter (drawn through
    /// `crp_core::ReplayRng` in cell-id order).
    pub seed: u64,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            iterations: 64,
            bins: 0,
            gamma_bins: 1.0,
            lambda_growth: 1.05,
            threads: 0,
            seed: 0xC0DE,
        }
    }
}

impl GpConfig {
    /// Resolves `bins == 0` to `ceil(sqrt(movables))` clamped to `[8, 64]`.
    #[must_use]
    pub fn effective_bins(&self, movables: usize) -> usize {
        if self.bins > 0 {
            self.bins
        } else {
            let root = (movables as f64).sqrt().ceil() as usize;
            root.clamp(8, 64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_auto_sizing_clamps() {
        let cfg = GpConfig::default();
        assert_eq!(cfg.effective_bins(4), 8);
        assert_eq!(cfg.effective_bins(900), 30);
        assert_eq!(cfg.effective_bins(1_000_000), 64);
        let fixed = GpConfig {
            bins: 12,
            ..GpConfig::default()
        };
        assert_eq!(fixed.effective_bins(4), 12);
    }

    #[test]
    fn threads_resolve_nonzero() {
        let resolve = |cfg: GpConfig| crp_core::resolve_threads(cfg.threads);
        assert!(resolve(GpConfig::default()) >= 1);
        let cfg = GpConfig {
            threads: 3,
            ..GpConfig::default()
        };
        assert_eq!(resolve(cfg), 3);
    }
}
