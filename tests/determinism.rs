//! Thread-count and cache invariance: the parallel CR&P stages dispatch
//! work through an atomic work-stealing cursor and merge results by
//! index, and the price cache is a pure epoch-invalidated memo — so every
//! observable output (candidate costs, ILP selections, final placement,
//! final routing) must be **bit-identical** at any thread count, with the
//! cache on or off.

use crp_core::{
    estimate_candidates, label_critical_cells, select_candidates, Candidate, Crp, CrpConfig,
    Legalizer,
};
use crp_grid::{GridConfig, RouteGrid};
use crp_netlist::Design;
use crp_router::{GlobalRouter, RouterConfig, Routing};
use crp_workload::ispd18_profiles;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

fn routed(profile: usize, scale: f64) -> (Design, RouteGrid, GlobalRouter, Routing) {
    let design = ispd18_profiles()[profile].scaled(scale).generate();
    let mut grid = RouteGrid::new(&design, GridConfig::default());
    let mut router = GlobalRouter::new(RouterConfig::default());
    let routing = router.route_all(&design, &mut grid);
    (design, grid, router, routing)
}

fn config_with_threads(threads: usize) -> CrpConfig {
    CrpConfig {
        threads,
        ..CrpConfig::default()
    }
}

/// One estimate pass (label → legalize → price → select) at a given
/// thread count, returning every candidate cost and the ILP's picks.
fn estimate_pass(threads: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
    let (design, grid, _router, routing) = routed(6, 400.0);
    let cfg = config_with_threads(threads);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let critical = label_critical_cells(
        &design,
        &grid,
        &routing,
        &cfg,
        &HashSet::new(),
        &HashSet::new(),
        &mut rng,
    );
    assert!(!critical.is_empty(), "fixture produced no critical cells");
    let legalizer = Legalizer::new(&design, &cfg);
    let mut per_cell: Vec<Vec<Candidate>> = critical
        .iter()
        .map(|&c| {
            let mut cands = vec![Candidate::stay(&design, c)];
            cands.extend(legalizer.candidates_for(c));
            cands
        })
        .collect();
    estimate_candidates(&design, &grid, &routing, &mut per_cell, &cfg);
    let chosen = select_candidates(&design, &per_cell, &cfg).chosen;
    let costs = per_cell
        .iter()
        .map(|cands| cands.iter().map(|c| c.routing_cost).collect())
        .collect();
    (costs, chosen)
}

#[test]
fn candidate_costs_and_selection_identical_across_thread_counts() {
    let (costs1, chosen1) = estimate_pass(1);
    let (costs8, chosen8) = estimate_pass(8);
    assert_eq!(costs1, costs8, "candidate costs depend on thread count");
    assert_eq!(chosen1, chosen8, "ILP selections depend on thread count");
}

/// Full-iteration snapshot: every cell position plus the routing totals.
fn full_run(cfg: CrpConfig, iterations: usize) -> (Vec<(i64, i64)>, u64, u64, Vec<usize>) {
    let (mut design, mut grid, mut router, mut routing) = routed(6, 400.0);
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
        reports.iter().map(|r| r.moved_cells).collect(),
    )
}

#[test]
fn full_iteration_bit_identical_threads_1_vs_8() {
    let one = full_run(config_with_threads(1), 1);
    let eight = full_run(config_with_threads(8), 1);
    assert_eq!(
        one, eight,
        "one full CR&P iteration diverged with thread count"
    );
}

#[test]
fn multi_iteration_bit_identical_with_and_without_cache() {
    // Two iterations so the second prices through a warm cache.
    let mut cached = config_with_threads(4);
    cached.price_cache = true;
    let mut uncached = config_with_threads(4);
    uncached.price_cache = false;
    assert_eq!(
        full_run(cached, 2),
        full_run(uncached, 2),
        "price cache changed the flow's output"
    );
}
