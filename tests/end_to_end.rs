//! Cross-crate integration tests: the full GR → CR&P → DR flow must keep
//! every invariant the paper's problem formulation demands (Eq. 2–8).

use crp_bench::{FlowRunner, Optimizer, Start};
use crp_core::{Crp, CrpConfig};
use crp_drouter::{DetailedRouter, DrConfig};
use crp_grid::{GridConfig, RouteGrid};
use crp_netlist::{check_legality, Design};
use crp_router::{GlobalRouter, RouterConfig, Routing};
use crp_workload::ispd18_profiles;

fn routed(profile: usize, scale: f64) -> (Design, RouteGrid, GlobalRouter, Routing) {
    let design = ispd18_profiles()[profile].scaled(scale).generate();
    let mut grid = RouteGrid::new(&design, GridConfig::default());
    let mut router = GlobalRouter::new(RouterConfig::default());
    let routing = router.route_all(&design, &mut grid);
    (design, grid, router, routing)
}

#[test]
fn every_profile_generates_and_routes_clean() {
    for (i, profile) in ispd18_profiles().iter().enumerate() {
        let p = profile.scaled(600.0);
        let design = p.generate();
        assert!(
            check_legality(&design).is_empty(),
            "profile {i} generates an illegal placement"
        );
        let mut grid = RouteGrid::new(&design, GridConfig::default());
        let mut router = GlobalRouter::new(RouterConfig::default());
        let routing = router.route_all(&design, &mut grid);
        assert!(
            routing.is_fully_connected(&design, &grid),
            "profile {i} has open nets after global routing (Eq. 2)"
        );
    }
}

#[test]
fn crp_preserves_all_formulation_invariants() {
    let (mut design, mut grid, mut router, mut routing) = routed(6, 300.0);
    let mut crp = Crp::new(CrpConfig::default());
    for i in 0..4 {
        crp.run_iteration(i, &mut design, &mut grid, &mut router, &mut routing);
        // Eq. 5–8: placement legality after every iteration.
        let violations = check_legality(&design);
        assert!(violations.is_empty(), "iteration {i}: {violations:?}");
        // Eq. 2: every net still has a route.
        assert!(
            routing.is_fully_connected(&design, &grid),
            "iteration {i}: open nets"
        );
    }
    // Exact resource bookkeeping: grid state equals the sum of routes.
    assert!((grid.total_wire_usage() - routing.total_wirelength() as f64).abs() < 1e-9);
    assert!((grid.total_via_endpoints() - 2.0 * routing.total_vias() as f64).abs() < 1e-9);
}

#[test]
fn detailed_routing_reports_no_opens_on_connected_input() {
    let (design, grid, _router, routing) = routed(3, 400.0);
    let result = DetailedRouter::new(DrConfig::default()).run(&design, &grid, &routing);
    assert_eq!(result.drc.opens, 0);
    assert!(result.vias > 0);
    assert!(result.wirelength_dbu > 0);
}

#[test]
fn full_flow_is_deterministic_end_to_end() {
    let profile = ispd18_profiles()[4].scaled(500.0);
    let run = || {
        let score = FlowRunner::default()
            .run(&profile, Start::Generator, Optimizer::Crp(3))
            .score;
        (score.wirelength_dbu, score.vias, score.drvs)
    };
    assert_eq!(run(), run());
}

#[test]
fn crp_never_adds_open_nets_or_corrupts_counts() {
    let (mut design, mut grid, mut router, mut routing) = routed(1, 500.0);
    let nets_before = design.num_nets();
    let cells_before = design.num_cells();
    let mut crp = Crp::new(CrpConfig::default());
    crp.run(3, &mut design, &mut grid, &mut router, &mut routing);
    assert_eq!(design.num_nets(), nets_before);
    assert_eq!(design.num_cells(), cells_before);
    let result = DetailedRouter::new(DrConfig::default()).run(&design, &grid, &routing);
    assert_eq!(result.drc.opens, 0);
}
