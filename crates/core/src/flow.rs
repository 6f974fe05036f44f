//! The CR&P iteration driver (steps 1–5 of the flow).

use crate::candidate::Candidate;
use crate::config::CrpConfig;
use crate::estimate::{check_price_consistency, estimate_candidates};
use crate::label::label_critical_cells;
use crate::legalizer::Legalizer;
use crate::parallel::{resolve_threads, run_indexed};
use crate::price_cache::PriceCache;
use crate::replay_rng::ReplayRng;
use crate::select::select_candidates;
use crate::timers::StageTimers;
use crp_check::{CheckViolation, PlacementSnapshot};
use crp_grid::RouteGrid;
use crp_netlist::{CellId, Design, NetId, RowMap};
use crp_router::{GlobalRouter, Routing};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::time::Instant;

/// Per-iteration statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationReport {
    /// 0-based iteration number.
    pub iteration: usize,
    /// Cells labeled critical (Algorithm 1 output size).
    pub critical_cells: usize,
    /// Total candidates generated, including stay candidates.
    pub candidates: usize,
    /// Cells actually moved (critical + conflict relocations).
    pub moved_cells: usize,
    /// Nets ripped up and rerouted in the update step.
    pub rerouted_nets: usize,
    /// Total Eq. 1 routing cost before the iteration.
    pub cost_before: f64,
    /// Total Eq. 1 routing cost after the iteration.
    pub cost_after: f64,
    /// Branch-and-bound nodes the Eq. 12 selection ILP explored.
    pub select_nodes: u64,
    /// Selection conflict components whose search hit the node limit.
    pub select_unproven_components: usize,
    /// Critical cells kept in place because their selection component
    /// hit the node limit with no incumbent (not because staying was
    /// optimal).
    pub select_fallback_cells: usize,
}

/// The complete resumable state of a [`Crp`] engine between iterations:
/// everything `run_iteration` reads besides the design/grid/routing
/// triple. Captured by [`Crp::snapshot`] and revived by [`Crp::restore`];
/// a restored engine continues the flow **bit-identically** to one that
/// was never interrupted (the price cache is deliberately excluded — it
/// is a pure memo and rebuilding it can only change timings, never
/// results).
///
/// The history sets are stored sorted so the snapshot itself is a
/// canonical, byte-stable value (checkpoint files diff cleanly).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowState {
    /// Seed of the labeling RNG stream.
    pub rng_seed: u64,
    /// `u64`s drawn from that stream so far (see
    /// [`ReplayRng`](crate::ReplayRng)).
    pub rng_draws: u64,
    /// Cells ever labeled critical (`hist_c`), ascending.
    pub critical_hist: Vec<CellId>,
    /// Cells ever moved (`hist_m`), ascending.
    pub moved_set: Vec<CellId>,
    /// Accumulated stage timers at snapshot time.
    pub timers: StageTimers,
}

/// The CR&P engine: owns the iteration history (`hist_c` / `hist_m` sets)
/// and the stage timers. See the crate docs for the five steps.
#[derive(Debug)]
pub struct Crp {
    // crp-lint: allow(state-coverage, not snapshot state; restore takes the config from its caller)
    config: CrpConfig,
    critical_hist: HashSet<CellId>,
    moved_set: HashSet<CellId>,
    rng: ReplayRng,
    /// Per-net price memo, persistent across iterations: entries survive
    /// until the congestion under them changes (epoch invalidation), so
    /// later iterations re-price only the nets the flow actually touched.
    // crp-lint: allow(state-coverage, pure memo; restore starts it cold and results stay bit-identical)
    cache: PriceCache,
    /// Accumulated stage timings (Figure 3 data source).
    pub timers: StageTimers,
}

impl Crp {
    /// Creates a CR&P engine.
    #[must_use]
    pub fn new(config: CrpConfig) -> Crp {
        Crp {
            config,
            critical_hist: HashSet::new(),
            moved_set: HashSet::new(),
            rng: ReplayRng::new(config.seed),
            cache: PriceCache::new(),
            timers: StageTimers::default(),
        }
    }

    /// Captures the engine's resumable state (see [`FlowState`]).
    // crp-lint: checkpoint(Crp, snapshot, restore)
    #[must_use]
    pub fn snapshot(&self) -> FlowState {
        // crp-lint: allow(nondet-iter, sorted on the next line before any use)
        let mut critical_hist: Vec<CellId> = self.critical_hist.iter().copied().collect();
        critical_hist.sort_unstable();
        // crp-lint: allow(nondet-iter, sorted on the next line before any use)
        let mut moved_set: Vec<CellId> = self.moved_set.iter().copied().collect();
        moved_set.sort_unstable();
        FlowState {
            rng_seed: self.rng.seed(),
            rng_draws: self.rng.draws(),
            critical_hist,
            moved_set,
            timers: self.timers,
        }
    }

    /// Revives an engine from a [`snapshot`](Crp::snapshot), continuing
    /// the flow exactly where the snapshotted engine stood. The RNG
    /// stream resumes from the snapshot's `(seed, draws)` state — the
    /// snapshot's seed wins over `config.seed`, so a restored run stays
    /// on the stream the original run was using. The price cache starts
    /// empty (pure memo: identical results, cold first iteration).
    #[must_use]
    pub fn restore(config: CrpConfig, state: &FlowState) -> Crp {
        Crp {
            config,
            // crp-lint: allow(nondet-iter, source is a sorted Vec; the rule
            // matches the field name, not the collection type)
            critical_hist: state.critical_hist.iter().copied().collect(),
            // crp-lint: allow(nondet-iter, source is a sorted Vec; the rule
            // matches the field name, not the collection type)
            moved_set: state.moved_set.iter().copied().collect(),
            rng: ReplayRng::replayed(state.rng_seed, state.rng_draws),
            cache: PriceCache::new(),
            timers: state.timers,
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &CrpConfig {
        &self.config
    }

    /// Accumulated stage timers (including price-cache hit/miss totals).
    #[must_use]
    pub fn timers(&self) -> &StageTimers {
        &self.timers
    }

    /// Runs `k` iterations (the paper reports k = 1 and k = 10).
    pub fn run(
        &mut self,
        k: usize,
        design: &mut Design,
        grid: &mut RouteGrid,
        router: &mut GlobalRouter,
        routing: &mut Routing,
    ) -> Vec<IterationReport> {
        (0..k)
            .map(|i| self.run_iteration(i, design, grid, router, routing))
            .collect()
    }

    /// Runs one CR&P iteration: label → generate candidates → estimate →
    /// select → update database.
    pub fn run_iteration(
        &mut self,
        iteration: usize,
        design: &mut Design,
        grid: &mut RouteGrid,
        router: &mut GlobalRouter,
        routing: &mut Routing,
    ) -> IterationReport {
        let cost_before = routing.total_cost(grid);

        // The invariant oracle's baseline: how the placement looked and
        // where the congestion epoch stood before this iteration ran.
        let level = self.config.check_level;
        let baseline = level
            .enabled()
            .then(|| (PlacementSnapshot::capture(design), grid.epoch()));

        // Step 1: label critical cells.
        let t = Instant::now();
        let critical = label_critical_cells(
            design,
            grid,
            routing,
            &self.config,
            &self.critical_hist,
            &self.moved_set,
            &mut self.rng,
        );
        self.timers.label += t.elapsed();
        if level.enabled() {
            fail_on(
                "label",
                crp_check::check_critical_set(design, &critical),
                design,
                grid,
                routing,
            );
        }

        // Step 2: generate candidate positions (parallel; Algorithm 2).
        let t = Instant::now();
        let legalizer = Legalizer::new(design, &self.config);
        let mut per_cell: Vec<Vec<Candidate>> = generate_parallel(
            design,
            &legalizer,
            &critical,
            resolve_threads(self.config.threads),
        );
        self.timers.gcp += t.elapsed();
        if level.full() {
            // Every candidate's claimed footprints must already be legal:
            // on-site, on-row, inside the die, off blockages, and disjoint
            // from fixed cells — the Eq. 11 legalizer's contract.
            let fixed = crp_check::fixed_cell_rects(design);
            let mut v = Vec::new();
            for cands in &per_cell {
                for cand in cands {
                    v.extend(crp_check::check_claims(
                        design,
                        &cand.claimed_rects(design),
                        &fixed,
                    ));
                }
            }
            fail_on("generate", v, design, grid, routing);
        }

        // Step 3: estimate candidate costs (parallel; Algorithm 3).
        let t = Instant::now();
        let (hits0, misses0) = (self.cache.hits(), self.cache.misses());
        let cache = self.config.price_cache.then_some(&self.cache);
        estimate_candidates(design, grid, routing, &mut per_cell, &self.config, cache);
        self.timers.ecc += t.elapsed();
        self.timers.ecc_cache_hits += self.cache.hits() - hits0;
        self.timers.ecc_cache_misses += self.cache.misses() - misses0;
        if level.enabled() {
            // Cheap audits a fixed candidate budget; Full re-prices every
            // candidate without the cache and demands bitwise agreement.
            let sample = if level.full() { None } else { Some(8) };
            fail_on(
                "estimate",
                check_price_consistency(design, grid, routing, &per_cell, &self.config, sample),
                design,
                grid,
                routing,
            );
        }

        // Step 4: select with the Eq. 12 ILP.
        let t = Instant::now();
        let selection = select_candidates(design, &per_cell, &self.config);
        self.timers.select += t.elapsed();

        // Step 5: update database — apply moves and reroute.
        let t = Instant::now();
        let candidates_total: usize = per_cell.iter().map(Vec::len).sum();
        let mut moved_cells = 0usize;
        let mut moved_this_iter: HashSet<CellId> = HashSet::new();
        let mut nets_to_reroute: Vec<NetId> = Vec::new();
        let mut occupancy = RowMap::new(design);
        for (cands, &pick) in per_cell.iter().zip(&selection.chosen) {
            let cand = &cands[pick];
            if cand.is_stay(design) {
                continue;
            }
            // Safeguard: re-verify the joint move against the live design
            // (selection conflicts are conservative, but cheap certainty
            // beats a corrupted placement).
            if !joint_move_fits(&occupancy, design, cand) {
                continue;
            }
            for (cell, pos, orient) in std::iter::once((cand.cell, cand.pos, cand.orient))
                .chain(cand.moves.iter().copied())
            {
                occupancy.relocate(design, cell, pos);
                design.move_cell(cell, pos, orient);
                self.moved_set.insert(cell);
                if level.enabled() {
                    moved_this_iter.insert(cell);
                }
                moved_cells += 1;
                for n in design.nets_of_cell(cell) {
                    if !nets_to_reroute.contains(&n) {
                        nets_to_reroute.push(n);
                    }
                }
            }
        }
        for &net in &nets_to_reroute {
            router.reroute_net(design, grid, routing, net);
        }
        self.critical_hist.extend(critical.iter().copied());
        self.timers.update += t.elapsed();
        if let Some((snapshot, epoch0)) = &baseline {
            let mut v = crp_check::check_placement(design);
            v.extend(crp_check::check_untouched(
                design,
                snapshot,
                &moved_this_iter,
            ));
            v.extend(crp_check::check_epoch(grid, *epoch0));
            v.extend(crp_check::check_demand_totals(grid, routing));
            if level.full() {
                v.extend(crp_check::check_connectivity(design, grid, routing, None));
                v.extend(crp_check::check_demand_exact(grid, routing));
                v.extend(crp_check::check_touch_stamps(grid));
            } else {
                // Cheap trusts untouched routes and re-verifies only what
                // this iteration ripped up.
                v.extend(crp_check::check_connectivity(
                    design,
                    grid,
                    routing,
                    Some(&nets_to_reroute),
                ));
            }
            fail_on("update", v, design, grid, routing);
        }

        IterationReport {
            iteration,
            critical_cells: critical.len(),
            candidates: candidates_total,
            moved_cells,
            rerouted_nets: nets_to_reroute.len(),
            cost_before,
            cost_after: routing.total_cost(grid),
            select_nodes: selection.nodes,
            select_unproven_components: selection.unproven_components,
            select_fallback_cells: selection.fallback_cells,
        }
    }
}

/// Runs the legalizer for every critical cell on `threads` workers via
/// the work-stealing dispatcher and prepends the stay candidate to each
/// list (Algorithm 2, line 2). Legalizer ILP cost varies wildly with
/// local density, so stealing beats fixed chunks; results land in
/// critical-cell order regardless of thread count.
fn generate_parallel(
    design: &Design,
    legalizer: &Legalizer<'_>,
    critical: &[CellId],
    threads: usize,
) -> Vec<Vec<Candidate>> {
    run_indexed(
        critical.len(),
        threads,
        || (),
        |(), i| {
            let cell = critical[i];
            let mut cands = vec![Candidate::stay(design, cell)];
            cands.extend(legalizer.candidates_for(cell));
            cands
        },
    )
}

/// Escalates a non-empty violation list through the oracle's diagnostic
/// bundle (DEF + guides snapshot, then panic). A no-op when `violations`
/// is empty.
fn fail_on(
    phase: &str,
    violations: Vec<CheckViolation>,
    design: &Design,
    grid: &RouteGrid,
    routing: &Routing,
) {
    if !violations.is_empty() {
        crp_check::fail_with_bundle(phase, &violations, design, grid, routing);
    }
}

/// Apply-time legality safeguard: whether the candidate's claimed
/// footprints are free of every cell except those the candidate itself
/// relocates (selection conflicts are conservative, but cheap certainty
/// beats a corrupted placement).
fn joint_move_fits(occupancy: &RowMap, design: &Design, cand: &Candidate) -> bool {
    let movers: Vec<CellId> = cand.moved_cells().collect();
    let claims = cand.claimed_rects(design);
    // Claims must not overlap one another.
    for i in 0..claims.len() {
        for j in (i + 1)..claims.len() {
            if claims[i].1.intersects(&claims[j].1) {
                return false;
            }
        }
    }
    for (_, rect) in &claims {
        let Some(row) = design.row_with_origin_y(rect.lo.y) else {
            return false;
        };
        if !occupancy
            .overlapping(row.index(), rect.x_span(), &movers)
            .is_empty()
        {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_grid::GridConfig;
    use crp_netlist::check_legality;
    use crp_router::RouterConfig;
    use crp_workload::ispd18_profiles;

    fn flow(profile: usize, divisor: f64) -> (Design, RouteGrid, GlobalRouter, Routing) {
        let design = ispd18_profiles()[profile].scaled(divisor).generate();
        let mut grid = RouteGrid::new(&design, GridConfig::default());
        let mut router = GlobalRouter::new(RouterConfig::default());
        let routing = router.route_all(&design, &mut grid);
        (design, grid, router, routing)
    }

    #[test]
    fn iteration_keeps_design_legal_and_routing_connected() {
        let (mut d, mut grid, mut router, mut routing) = flow(0, 400.0);
        let mut crp = Crp::new(CrpConfig::default());
        let report = crp.run_iteration(0, &mut d, &mut grid, &mut router, &mut routing);
        assert!(report.critical_cells > 0);
        assert!(check_legality(&d).is_empty(), "placement corrupted");
        assert!(routing.is_fully_connected(&d, &grid), "routing broken");
    }

    #[test]
    fn grid_bookkeeping_stays_exact_across_iterations() {
        let (mut d, mut grid, mut router, mut routing) = flow(1, 800.0);
        let mut crp = Crp::new(CrpConfig::default());
        crp.run(3, &mut d, &mut grid, &mut router, &mut routing);
        let expect: f64 = routing.total_wirelength() as f64;
        assert!(
            (grid.total_wire_usage() - expect).abs() < 1e-9,
            "wire usage drifted"
        );
        assert!(
            (grid.total_via_endpoints() - 2.0 * routing.total_vias() as f64).abs() < 1e-9,
            "via bookkeeping drifted"
        );
    }

    #[test]
    fn iterations_reduce_total_cost() {
        // CR&P accepts only candidates the ILP scores better than staying
        // (by at least the move margin), so the Eq. 1 objective trends
        // down on congested designs.
        let (mut d, mut grid, mut router, mut routing) = flow(6, 800.0);
        let before = routing.total_cost(&grid);
        let mut crp = Crp::new(CrpConfig::default());
        let reports = crp.run(3, &mut d, &mut grid, &mut router, &mut routing);
        let after = routing.total_cost(&grid);
        assert!(
            after < before,
            "CR&P iterations must reduce the Eq. 1 objective: {before} -> {after} ({reports:?})"
        );
    }

    #[test]
    fn moves_actually_happen_on_congested_designs() {
        let (mut d, mut grid, mut router, mut routing) = flow(6, 400.0);
        let mut crp = Crp::new(CrpConfig::default());
        let reports = crp.run(2, &mut d, &mut grid, &mut router, &mut routing);
        let moved: usize = reports.iter().map(|r| r.moved_cells).sum();
        assert!(moved > 0, "no cells moved: {reports:?}");
    }

    #[test]
    fn timers_accumulate() {
        let (mut d, mut grid, mut router, mut routing) = flow(0, 800.0);
        let mut crp = Crp::new(CrpConfig::default());
        crp.run(2, &mut d, &mut grid, &mut router, &mut routing);
        assert!(crp.timers.total().as_nanos() > 0);
        assert!(crp.timers.ecc.as_nanos() > 0);
    }

    #[test]
    fn full_check_level_is_silent_on_a_clean_flow() {
        // The oracle panics on any violation, so simply finishing the run
        // proves every invariant held after every phase.
        let (mut d, mut grid, mut router, mut routing) = flow(6, 400.0);
        let cfg = CrpConfig {
            check_level: crp_check::CheckLevel::Full,
            ..CrpConfig::default()
        };
        let mut crp = Crp::new(cfg);
        let reports = crp.run(2, &mut d, &mut grid, &mut router, &mut routing);
        assert!(reports.iter().any(|r| r.moved_cells > 0));
    }

    #[test]
    fn check_levels_do_not_change_the_outcome() {
        // Checking is observation only: the flow's output must be
        // bit-identical at every level.
        let run = |level| {
            let (mut d, mut grid, mut router, mut routing) = flow(1, 800.0);
            let cfg = CrpConfig {
                check_level: level,
                ..CrpConfig::default()
            };
            let mut crp = Crp::new(cfg);
            crp.run(2, &mut d, &mut grid, &mut router, &mut routing);
            let positions: Vec<_> = d.cell_ids().map(|c| d.cell(c).pos).collect();
            (positions, routing.total_wirelength(), routing.total_vias())
        };
        let off = run(crp_check::CheckLevel::Off);
        assert_eq!(off, run(crp_check::CheckLevel::Cheap));
        assert_eq!(off, run(crp_check::CheckLevel::Full));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let (mut d, mut grid, mut router, mut routing) = flow(1, 800.0);
            let mut crp = Crp::new(CrpConfig::default());
            let reports = crp.run(2, &mut d, &mut grid, &mut router, &mut routing);
            (
                reports.iter().map(|r| r.moved_cells).sum::<usize>(),
                routing.total_wirelength(),
                routing.total_vias(),
            )
        };
        assert_eq!(run(), run());
    }
}
