//! CR&P configuration.

use crp_check::CheckLevel;
use serde::{Deserialize, Serialize};

/// Tunables of the CR&P flow, defaulting to the paper's values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrpConfig {
    /// Fraction `γ` of cells the labeling step may select per iteration
    /// (paper: 0.6).
    pub gamma: f64,
    /// Simulated-annealing temperature `T` of the labeling acceptance
    /// (paper: `exp(-(hist_c + hist_m)) / T` with T = 1).
    pub temperature: f64,
    /// Legalizer window width in sites (paper: 20).
    pub n_site: i64,
    /// Legalizer window height in rows (paper: 5).
    pub n_row: i64,
    /// Maximum cells in one legalizer ILP, including the critical cell
    /// (paper: 3).
    pub max_window_cells: usize,
    /// Maximum placement candidates kept per critical cell (including the
    /// current position).
    pub max_candidates: usize,
    /// Branch-and-bound node limit for the selection ILP.
    pub ilp_node_limit: u64,
    /// Worker threads for the parallel loops of Algorithm 2 (0 = all
    /// available cores, capped at 8 like the paper's machine).
    pub threads: usize,
    /// RNG seed for the labeling acceptance draw.
    pub seed: u64,
    /// Whether candidate pricing includes the congestion penalty of
    /// Eq. 10. Disabling this reduces the cost function to pure
    /// length/detour pricing — the ablation that mimics \[18\]'s cost model.
    pub congestion_aware: bool,
    /// Whether labeling prioritizes cells by routed net cost. Disabling
    /// selects cells in id order — the ablation that mimics \[18\]'s lack of
    /// prioritization.
    pub prioritize: bool,
    /// Flat cost added to every non-stay candidate, so a move must beat
    /// staying by a real margin (suppresses churn from pricing noise).
    pub move_margin: f64,
    /// Whether the engine memoizes per-net prices across candidates and
    /// iterations in an epoch-invalidated cache
    /// ([`PriceCache`](crate::PriceCache)). Pure memoization: results are
    /// bit-identical either way, only the ECC wall time changes.
    pub price_cache: bool,
    /// How much invariant checking [`Crp`](crate::Crp) performs after
    /// each phase (placement legality, routing consistency, price-cache
    /// purity). `Off` costs nothing; `Cheap` spot-checks in time bounded
    /// by the iteration's own work; `Full` recounts everything from
    /// scratch. Violations panic with a DEF/guide diagnostic bundle.
    pub check_level: CheckLevel,
}

impl Default for CrpConfig {
    fn default() -> CrpConfig {
        CrpConfig {
            gamma: 0.6,
            temperature: 1.0,
            n_site: 20,
            n_row: 5,
            max_window_cells: 3,
            max_candidates: 8,
            ilp_node_limit: 2_000_000,
            threads: 0,
            seed: 0xC0DE,
            congestion_aware: true,
            prioritize: true,
            move_margin: 1.0,
            price_cache: true,
            check_level: CheckLevel::Off,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CrpConfig::default();
        assert_eq!(c.gamma, 0.6);
        assert_eq!(c.n_site, 20);
        assert_eq!(c.n_row, 5);
        assert_eq!(c.max_window_cells, 3);
        assert!(c.congestion_aware && c.prioritize);
        assert_eq!(c.check_level, CheckLevel::Off, "checking must be opt-in");
    }
}
