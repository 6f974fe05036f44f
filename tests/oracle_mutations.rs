//! Mutation tests for the invariant oracle: deliberately corrupt the
//! placement, the grid's demand counters, the routing, and the price
//! cache, and assert the oracle **fires** — so `crp-check` is tested,
//! not just trusted. Each test seeds one distinct corruption class.

use crp_check::{
    check_connectivity, check_demand_exact, check_demand_totals, check_placement, check_untouched,
    CheckViolation, PlacementSnapshot,
};
use crp_core::{
    check_price_consistency, estimate_candidates, Candidate, CheckLevel, Crp, CrpConfig,
    PriceCache, PriceRegion,
};
use crp_grid::{GridConfig, RouteGrid};
use crp_netlist::{CellId, Design, LegalityViolation};
use crp_router::{GlobalRouter, NetRoute, RouterConfig, Routing};
use crp_workload::ispd18_profiles;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn routed(profile: usize) -> (Design, RouteGrid, GlobalRouter, Routing) {
    let design = ispd18_profiles()[profile].scaled(800.0).generate();
    let mut grid = RouteGrid::new(&design, GridConfig::default());
    let mut router = GlobalRouter::new(RouterConfig::default());
    let routing = router.route_all(&design, &mut grid);
    (design, grid, router, routing)
}

/// Two movable cells, for corruptions that need a victim and a witness.
fn two_movable(design: &Design) -> (CellId, CellId) {
    let mut it = design.cell_ids().filter(|&c| !design.cell(c).fixed);
    (it.next().expect("movable"), it.next().expect("movable"))
}

#[test]
fn corruption_overlap_fires_placement_check() {
    let (mut d, _, _, _) = routed(1);
    let (a, b) = two_movable(&d);
    assert!(check_placement(&d).is_empty(), "fixture must start legal");
    d.move_cell(a, d.cell(b).pos, d.cell(b).orient);
    let v = check_placement(&d);
    assert!(
        v.iter().any(|x| matches!(
            x,
            CheckViolation::Placement(LegalityViolation::Overlap { .. })
        )),
        "seeded overlap not reported: {v:?}"
    );
}

#[test]
fn corruption_off_site_fires_placement_check() {
    let (mut d, _, _, _) = routed(1);
    let (a, _) = two_movable(&d);
    let mut pos = d.cell(a).pos;
    pos.x += d.site.width / 2;
    d.move_cell(a, pos, d.cell(a).orient);
    let v = check_placement(&d);
    assert!(
        v.iter().any(|x| matches!(
            x,
            CheckViolation::Placement(LegalityViolation::OffSite { .. })
        )),
        "seeded off-site position not reported: {v:?}"
    );
}

#[test]
fn corruption_off_row_fires_placement_check() {
    let (mut d, _, _, _) = routed(1);
    let (a, _) = two_movable(&d);
    let mut pos = d.cell(a).pos;
    pos.y += 1;
    d.move_cell(a, pos, d.cell(a).orient);
    let v = check_placement(&d);
    assert!(
        v.iter().any(|x| matches!(
            x,
            CheckViolation::Placement(LegalityViolation::OffRow { .. })
        )),
        "seeded off-row position not reported: {v:?}"
    );
}

#[test]
fn corruption_moved_fixed_cell_fires_untouched_check() {
    let (mut d, _, _, _) = routed(1);
    let (a, _) = two_movable(&d);
    d.set_fixed(a, true);
    let snapshot = PlacementSnapshot::capture(&d);
    // Sneak the fixed cell sideways behind the database's back.
    d.set_fixed(a, false);
    let mut pos = d.cell(a).pos;
    pos.x += d.site.width;
    d.move_cell(a, pos, d.cell(a).orient);
    d.set_fixed(a, true);
    // Even listing it in the sanctioned move set must not excuse it.
    let allowed: HashSet<CellId> = [a].into_iter().collect();
    let v = check_untouched(&d, &snapshot, &allowed);
    assert_eq!(
        v,
        vec![CheckViolation::FixedCellMoved { cell: a }],
        "seeded fixed-cell move not reported"
    );
}

#[test]
fn corruption_wire_undercount_fires_demand_checks() {
    let (_, mut grid, _, routing) = routed(1);
    // Remove a wire a committed route actually occupies: the grid now
    // undercounts that edge's demand.
    let edge = routing
        .routes
        .iter()
        .flat_map(|r| r.segs.iter())
        .flat_map(|s| s.edges())
        .next()
        .expect("some routed wire");
    grid.remove_wire(edge);
    assert!(check_demand_exact(&grid, &routing)
        .iter()
        .any(|v| matches!(v, CheckViolation::WireUsageMismatch { .. })));
    assert!(check_demand_totals(&grid, &routing)
        .iter()
        .any(|v| matches!(v, CheckViolation::WireTotalMismatch { .. })));
}

#[test]
fn corruption_phantom_via_fires_demand_checks() {
    let (_, mut grid, _, routing) = routed(1);
    grid.add_via(1, 1, 2);
    assert!(check_demand_exact(&grid, &routing)
        .iter()
        .any(|v| matches!(v, CheckViolation::ViaCountMismatch { .. })));
    assert!(check_demand_totals(&grid, &routing)
        .iter()
        .any(|v| matches!(v, CheckViolation::ViaTotalMismatch { .. })));
}

#[test]
fn corruption_disconnected_route_fires_connectivity_check() {
    let (d, grid, _, mut routing) = routed(1);
    let net = d
        .net_ids()
        .find(|&n| d.net(n).pins.len() >= 2 && !routing.route(n).is_empty())
        .expect("multi-pin routed net");
    routing.routes[net.index()] = NetRoute::empty();
    let v = check_connectivity(&d, &grid, &routing, None);
    assert!(
        v.contains(&CheckViolation::Disconnected { net }),
        "seeded empty route not reported: {v:?}"
    );
}

#[test]
fn corruption_stale_cache_entry_fires_price_audit() {
    let (d, grid, _, routing) = routed(1);
    let cfg = CrpConfig::default();
    let cell = d
        .cell_ids()
        .find(|&c| !d.cell(c).fixed && !d.nets_of_cell(c).is_empty())
        .expect("cell with nets");
    let net = d.nets_of_cell(cell)[0];

    // Plant a bogus price under the key the stay candidate will hit:
    // (net, stay, no pins), with a live region so it is not invalidated.
    let cache = PriceCache::new();
    let mut region = PriceRegion::empty();
    region.cover(0, 0);
    cache.store(&grid, net, true, &[], region, 1e12);

    let mut lists = vec![vec![Candidate::stay(&d, cell)]];
    estimate_candidates(&d, &grid, &routing, &mut lists, &cfg, Some(&cache));
    assert!(cache.hits() > 0, "poisoned entry was never served");
    let v = check_price_consistency(&d, &grid, &routing, &lists, &cfg, None);
    assert!(
        v.iter()
            .any(|x| matches!(x, CheckViolation::PriceMismatch { .. })),
        "stale cache entry not reported: {v:?}"
    );
}

#[test]
fn end_to_end_corrupted_grid_panics_the_checked_flow() {
    // The flow-level wiring, not just the check functions: corrupt the
    // demand counters, run a real iteration at `Cheap`, and the update
    // phase's oracle must panic with the diagnostic bundle.
    let (mut d, mut grid, mut router, mut routing) = routed(1);
    let edge = grid.planar_edges().next().expect("routable edge");
    grid.add_wire(edge);
    let cfg = CrpConfig {
        check_level: CheckLevel::Cheap,
        ..CrpConfig::default()
    };
    let mut crp = Crp::new(cfg);
    let err = catch_unwind(AssertUnwindSafe(|| {
        crp.run(1, &mut d, &mut grid, &mut router, &mut routing);
    }))
    .expect_err("corrupted grid must panic the checked flow");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .expect("oracle panics with a String payload");
    assert!(msg.contains("invariant violation"), "{msg}");
    assert!(msg.contains("`update`"), "{msg}");
    assert!(msg.contains("total wire usage"), "{msg}");
}

#[test]
fn end_to_end_unchecked_flow_ignores_the_same_corruption() {
    // Control: at `Off` the identical corruption sails through — the
    // oracle, not some unrelated assertion, is what catches it above.
    let (mut d, mut grid, mut router, mut routing) = routed(1);
    let edge = grid.planar_edges().next().expect("routable edge");
    grid.add_wire(edge);
    let mut crp = Crp::new(CrpConfig::default());
    crp.run(1, &mut d, &mut grid, &mut router, &mut routing);
}
