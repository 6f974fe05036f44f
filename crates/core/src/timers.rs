//! Stage timers for the Figure-3 runtime breakdown.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Accumulated wall-clock per CR&P stage, using the paper's Figure-3
/// stage names: GCP (generate candidate positions), ECC (estimate
/// candidate costs), UD (update database), and Misc (labeling + selection
/// ILP + bookkeeping).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTimers {
    /// Labeling critical cells (part of Misc in Figure 3).
    pub label: Duration,
    /// Generate Candidate Positions — the ILP-based legalizer.
    pub gcp: Duration,
    /// Estimating Candidates Cost — Steiner + 3D pattern route pricing.
    pub ecc: Duration,
    /// The selection ILP (part of Misc in Figure 3).
    pub select: Duration,
    /// Update Database — applying moves and rerouting nets.
    pub update: Duration,
    /// Per-net price-cache hits during ECC (0 when the cache is off).
    pub ecc_cache_hits: u64,
    /// Per-net price-cache misses during ECC.
    pub ecc_cache_misses: u64,
}

impl StageTimers {
    /// Total time across all stages.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.label + self.gcp + self.ecc + self.select + self.update
    }

    /// The Figure-3 "Misc" bucket: everything but GCP, ECC, and UD.
    #[must_use]
    pub fn misc(&self) -> Duration {
        self.label + self.select
    }

    /// Adds another timer set stage-wise.
    pub fn accumulate(&mut self, other: &StageTimers) {
        self.label += other.label;
        self.gcp += other.gcp;
        self.ecc += other.ecc;
        self.select += other.select;
        self.update += other.update;
        self.ecc_cache_hits += other.ecc_cache_hits;
        self.ecc_cache_misses += other.ecc_cache_misses;
    }

    /// Price-cache hit rate over the ECC stage, in `[0, 1]`; `None` when
    /// no cached lookups were made (cache disabled or nothing estimated).
    #[must_use]
    pub fn ecc_cache_hit_rate(&self) -> Option<f64> {
        let total = self.ecc_cache_hits + self.ecc_cache_misses;
        #[allow(clippy::cast_precision_loss)]
        (total > 0).then(|| self.ecc_cache_hits as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_and_total() {
        let mut a = StageTimers {
            label: Duration::from_millis(10),
            gcp: Duration::from_millis(20),
            ecc: Duration::from_millis(30),
            select: Duration::from_millis(5),
            update: Duration::from_millis(35),
            ecc_cache_hits: 7,
            ecc_cache_misses: 3,
        };
        let b = a;
        a.accumulate(&b);
        assert_eq!(a.total(), Duration::from_millis(200));
        assert_eq!(a.misc(), Duration::from_millis(30));
        assert_eq!(a.ecc_cache_hits, 14);
        assert_eq!(a.ecc_cache_misses, 6);
    }

    #[test]
    fn breakdown_sums_to_100() {
        // The Figure-3 buckets (GCP, ECC, UD, Misc) partition the total.
        let t = StageTimers {
            label: Duration::from_millis(10),
            gcp: Duration::from_millis(20),
            ecc: Duration::from_millis(50),
            select: Duration::from_millis(5),
            update: Duration::from_millis(15),
            ..StageTimers::default()
        };
        let total = t.total().as_secs_f64();
        let pct = |d: Duration| d.as_secs_f64() / total * 100.0;
        let (gcp, ecc, ud, misc) = (pct(t.gcp), pct(t.ecc), pct(t.update), pct(t.misc()));
        assert!((gcp + ecc + ud + misc - 100.0).abs() < 1e-9);
        assert!(ecc > gcp && ecc > ud);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        let t = StageTimers::default();
        assert_eq!(t.total(), Duration::ZERO);
        assert_eq!(t.misc(), Duration::ZERO);
        assert_eq!(t.ecc_cache_hit_rate(), None);
    }

    #[test]
    fn cache_hit_rate() {
        let mut t = StageTimers::default();
        assert_eq!(t.ecc_cache_hit_rate(), None);
        t.ecc_cache_hits = 3;
        t.ecc_cache_misses = 1;
        assert_eq!(t.ecc_cache_hit_rate(), Some(0.75));
    }
}
