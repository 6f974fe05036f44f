//! Differential regression harness: for every workload profile the CR&P
//! flow must produce **bit-identical** outcomes with the price cache on
//! or off, at one thread or many, and at every invariant-check level —
//! and the `Full` oracle (which panics on any violation) must stay
//! silent throughout, proving placement legality, routing-demand
//! consistency, and price-cache purity on all profiles.

use crp_core::{CheckLevel, Crp, CrpConfig};
use crp_grid::{GridConfig, RouteGrid};
use crp_router::{GlobalRouter, RouterConfig};
use crp_workload::ispd18_profiles;

/// The flow configuration under test.
fn config(threads: usize, cache: bool, level: CheckLevel) -> CrpConfig {
    CrpConfig {
        threads,
        price_cache: cache,
        check_level: level,
        ..CrpConfig::default()
    }
}

/// One full flow run; returns every observable output.
fn outcome(
    profile: usize,
    iterations: usize,
    cfg: CrpConfig,
) -> (Vec<(i64, i64)>, u64, u64, usize) {
    let mut design = ispd18_profiles()[profile].scaled(800.0).generate();
    let mut grid = RouteGrid::new(&design, GridConfig::default());
    let mut router = GlobalRouter::new(RouterConfig::default());
    let mut routing = router.route_all(&design, &mut grid);
    let mut crp = Crp::new(cfg);
    let reports = crp.run(
        iterations,
        &mut design,
        &mut grid,
        &mut router,
        &mut routing,
    );
    let positions = design
        .cell_ids()
        .map(|c| {
            let p = design.cell(c).pos;
            (p.x, p.y)
        })
        .collect();
    (
        positions,
        routing.total_wirelength(),
        routing.total_vias(),
        reports.iter().map(|r| r.moved_cells).sum(),
    )
}

#[test]
fn every_profile_bit_identical_across_cache_threads_and_check_levels() {
    for p in 0..ispd18_profiles().len() {
        // The reference run doubles as the zero-violation proof: at
        // `Full`, any drifted counter or illegal placement panics.
        let reference = outcome(p, 1, config(1, true, CheckLevel::Full));
        assert_eq!(
            reference,
            outcome(p, 1, config(4, true, CheckLevel::Off)),
            "profile {p}: thread count changed the outcome"
        );
        assert_eq!(
            reference,
            outcome(p, 1, config(1, false, CheckLevel::Off)),
            "profile {p}: price cache changed the outcome"
        );
        assert_eq!(
            reference,
            outcome(p, 1, config(4, false, CheckLevel::Cheap)),
            "profile {p}: cache x threads interaction changed the outcome"
        );
    }
}

#[test]
fn full_oracle_stays_silent_across_warm_cache_iterations() {
    // Multiple iterations on the congested profile: from iteration two
    // onward the estimate phase serves warm cache hits, and the `Full`
    // audit re-prices every one of them from scratch. Both pricing
    // branches run: the Eq. 10 cost, and the length-only one
    // (`congestion_aware = false`) that ablation (a) and the median-move
    // baseline price with. Neither may change a bit with the cache off.
    for congestion_aware in [true, false] {
        let cfg = |cache, level| CrpConfig {
            congestion_aware,
            ..config(4, cache, level)
        };
        let reference = outcome(6, 3, cfg(true, CheckLevel::Full));
        assert!(
            reference.3 > 0,
            "congestion_aware={congestion_aware}: fixture produced no moves — harness is vacuous"
        );
        assert_eq!(
            reference,
            outcome(6, 3, cfg(false, CheckLevel::Off)),
            "congestion_aware={congestion_aware}: price cache changed the outcome"
        );
    }
}
