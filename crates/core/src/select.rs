//! Eq. 12: selecting the best candidate per critical cell with an ILP.

use crate::candidate::Candidate;
use crate::config::CrpConfig;
use crp_geom::Rect;
use crp_ilp::{Model, Solution, SolveLimits, VarId};
use crp_netlist::{CellId, Design};

/// The outcome of one Eq. 12 selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// The chosen index into each cell's candidate list.
    pub chosen: Vec<usize>,
    /// Branch-and-bound nodes the solver explored.
    pub nodes: u64,
    /// Conflict components whose search hit the node limit.
    pub unproven_components: usize,
    /// Cells kept at their stay candidate because their component hit
    /// the node limit before finding any feasible assignment.
    pub fallback_cells: usize,
}

/// Selects one candidate per critical cell, minimizing the summed
/// Algorithm-3 routing cost (Eq. 12), subject to spatial compatibility:
///
/// - two candidates that move the same cell are mutually exclusive;
/// - two candidates whose claimed footprints overlap are mutually
///   exclusive.
///
/// The all-stay assignment is feasible on a legal placement. Each
/// conflict component has its own node budget
/// (`config.ilp_node_limit`); a component that hits it keeps its best
/// incumbent, and only the cells of a component without one stay put.
///
/// # Panics
///
/// Panics if any candidate list is empty.
#[must_use]
pub fn select_candidates(
    design: &Design,
    per_cell: &[Vec<Candidate>],
    config: &CrpConfig,
) -> Selection {
    assert!(
        per_cell.iter().all(|c| !c.is_empty()),
        "every cell needs >= 1 candidate"
    );

    // One variable per candidate, in cell order.
    let mut model = Model::new();
    let mut vars: Vec<VarId> = Vec::new();
    for cands in per_cell {
        let group: Vec<VarId> = cands
            .iter()
            .map(|c| model.add_var(c.routing_cost))
            .collect();
        vars.extend(&group);
        model.add_exactly_one(group);
    }
    for_each_conflict(design, per_cell, |a, b| {
        model.add_conflict(vars[a], vars[b])
    });

    // Stay candidates never conflict on a legal placement, so only an
    // overlapping input placement makes the model infeasible: then every
    // cell falls back to staying.
    let solution = model
        .solve(SolveLimits {
            max_nodes: config.ilp_node_limit,
        })
        .unwrap_or_else(|_| Solution {
            chosen: vec![None; per_cell.len()],
            objective: 0.0,
            nodes: 0,
            unproven_components: 0,
        });
    let mut first = 0;
    let mut fallback_cells = 0;
    let chosen = per_cell
        .iter()
        .zip(&solution.chosen)
        .map(|(cands, pick)| {
            let i = match pick {
                Some(v) => v.0 as usize - first,
                None => {
                    fallback_cells += 1;
                    cands.iter().position(|c| c.is_stay(design)).unwrap_or(0)
                }
            };
            first += cands.len();
            i
        })
        .collect();
    Selection {
        chosen,
        nodes: solution.nodes,
        unproven_components: solution.unproven_components,
        fallback_cells,
    }
}

/// Calls `add(a, b)` for every pair of spatially incompatible candidates
/// of different cells, as flat candidate indices in cell order. A pair
/// may be reported twice, once per reason.
///
/// Two sweeps replace the all-pairs test: candidates that move a common
/// cell are grouped by that cell, and footprint overlaps are only tested
/// between candidates whose claimed-rect bounding boxes overlap, found by
/// scanning candidates in order of their boxes' low x.
fn for_each_conflict(
    design: &Design,
    per_cell: &[Vec<Candidate>],
    mut add: impl FnMut(usize, usize),
) {
    let mut group = Vec::new();
    let mut rects = Vec::new();
    let mut bbox = Vec::new();
    let mut movers: Vec<(CellId, usize)> = Vec::new();
    for (g, cands) in per_cell.iter().enumerate() {
        for cand in cands {
            let claimed = cand.claimed_rects(design);
            bbox.push(claimed.iter().fold(claimed[0].1, |b, (_, r)| b.union(r)));
            movers.extend(cand.moved_cells().map(|c| (c, group.len())));
            rects.push(claimed);
            group.push(g);
        }
    }

    movers.sort_unstable();
    for run in movers.chunk_by(|a, b| a.0 == b.0) {
        for (i, &(_, a)) in run.iter().enumerate() {
            for &(_, b) in &run[i + 1..] {
                if group[a] != group[b] {
                    add(a, b);
                }
            }
        }
    }

    let mut order: Vec<usize> = (0..group.len()).collect();
    order.sort_unstable_by_key(|&v| (bbox[v].lo.x, v));
    for (i, &a) in order.iter().enumerate() {
        for &b in &order[i + 1..] {
            if bbox[b].lo.x >= bbox[a].hi.x {
                break;
            }
            if group[a] != group[b]
                && bbox[a].intersects(&bbox[b])
                && footprints_overlap(&rects[a], &rects[b])
            {
                add(a, b);
            }
        }
    }
}

/// Whether any claimed footprint of one candidate overlaps one of the
/// other's.
fn footprints_overlap(a: &[(CellId, Rect)], b: &[(CellId, Rect)]) -> bool {
    a.iter()
        .any(|(_, ra)| b.iter().any(|(_, rb)| ra.intersects(rb)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_geom::Point;
    use crp_netlist::{CellId, DesignBuilder, MacroCell};

    fn design() -> (Design, Vec<CellId>) {
        let mut b = DesignBuilder::new("sel", 1000);
        b.site(200, 2000);
        let m = b.add_macro(MacroCell::new("M", 400, 2000));
        b.add_rows(4, 60, Point::new(0, 0));
        let cells = vec![
            b.add_cell("u0", m, Point::new(0, 0)),
            b.add_cell("u1", m, Point::new(4000, 0)),
        ];
        (b.build(), cells)
    }

    fn cand(design: &Design, cell: CellId, pos: Point, cost: f64) -> Candidate {
        let mut c = Candidate::stay(design, cell);
        c.pos = pos;
        c.routing_cost = cost;
        c
    }

    #[test]
    fn picks_cheapest_per_group_when_independent() {
        let (d, cells) = design();
        let mut stay0 = Candidate::stay(&d, cells[0]);
        stay0.routing_cost = 10.0;
        let mut stay1 = Candidate::stay(&d, cells[1]);
        stay1.routing_cost = 10.0;
        let per_cell = vec![
            vec![stay0, cand(&d, cells[0], Point::new(800, 0), 3.0)],
            vec![stay1, cand(&d, cells[1], Point::new(4800, 0), 4.0)],
        ];
        let chosen = select_candidates(&d, &per_cell, &CrpConfig::default()).chosen;
        assert_eq!(chosen, vec![1, 1]);
    }

    #[test]
    fn overlapping_candidates_not_both_selected() {
        let (d, cells) = design();
        let same_spot = Point::new(2000, 0);
        let mut stay0 = Candidate::stay(&d, cells[0]);
        stay0.routing_cost = 10.0;
        let mut stay1 = Candidate::stay(&d, cells[1]);
        stay1.routing_cost = 10.0;
        let per_cell = vec![
            vec![stay0, cand(&d, cells[0], same_spot, 1.0)],
            vec![stay1, cand(&d, cells[1], same_spot, 2.0)],
        ];
        let chosen = select_candidates(&d, &per_cell, &CrpConfig::default()).chosen;
        // Best feasible: u0 to the spot (1.0), u1 stays (10.0) = 11 vs 12.
        assert_eq!(chosen, vec![1, 0]);
    }

    #[test]
    fn same_cell_moved_by_two_groups_is_exclusive() {
        let (d, cells) = design();
        let mut a = cand(&d, cells[0], Point::new(800, 0), 1.0);
        a.moves
            .push((cells[1], Point::new(8000, 0), crp_geom::Orientation::N));
        let mut b = cand(&d, cells[1], Point::new(4800, 0), 1.0);
        let mut stay0 = Candidate::stay(&d, cells[0]);
        stay0.routing_cost = 2.0;
        let mut stay1 = Candidate::stay(&d, cells[1]);
        stay1.routing_cost = 2.0;
        b.routing_cost = 1.0;
        let per_cell = vec![vec![stay0, a], vec![stay1, b]];
        let chosen = select_candidates(&d, &per_cell, &CrpConfig::default()).chosen;
        // Candidate a moves u1, candidate b IS u1 moving: both moving u1 is
        // forbidden, so at most one non-stay is selected.
        assert!(chosen != vec![1, 1]);
    }

    #[test]
    fn all_stay_fallback_on_node_limit() {
        let (d, cells) = design();
        // Node limit 0 aborts any search before its first node; a
        // conflict-free cell is solved without one.
        let cfg = CrpConfig {
            ilp_node_limit: 0,
            ..CrpConfig::default()
        };
        let mut stay0 = Candidate::stay(&d, cells[0]);
        stay0.routing_cost = 5.0;
        let per_cell = vec![vec![cand(&d, cells[0], Point::new(800, 0), 1.0), stay0]];
        let sel = select_candidates(&d, &per_cell, &cfg);
        assert_eq!(sel.chosen, vec![0]);
        assert_eq!((sel.unproven_components, sel.fallback_cells), (0, 0));

        let (d, cells) = design();
        let mut stays: Vec<Candidate> = cells.iter().map(|&c| Candidate::stay(&d, c)).collect();
        for s in &mut stays {
            s.routing_cost = 5.0;
        }
        let spot = Point::new(2000, 0);
        let per_cell = vec![
            vec![cand(&d, cells[0], spot, 1.0), stays[0].clone()],
            vec![cand(&d, cells[1], spot, 1.0), stays[1].clone()],
        ];
        let sel = select_candidates(&d, &per_cell, &cfg);
        assert_eq!(
            sel.chosen,
            vec![1, 1],
            "must fall back to the stay candidates"
        );
        assert_eq!((sel.unproven_components, sel.fallback_cells), (1, 2));
    }

    #[test]
    fn exhausted_component_does_not_discard_solved_ones() {
        let mut b = DesignBuilder::new("sel", 1000);
        b.site(200, 2000);
        let m = b.add_macro(MacroCell::new("M", 400, 2000));
        b.add_rows(4, 80, Point::new(0, 0));
        let cells: Vec<CellId> = [0, 2000, 8000, 10000]
            .iter()
            .enumerate()
            .map(|(i, &x)| b.add_cell(format!("u{i}"), m, Point::new(x, 0)))
            .collect();
        let d = b.build();
        let stay = |c: CellId| {
            let mut s = Candidate::stay(&d, c);
            s.routing_cost = 10.0;
            s
        };
        // u0 and u1 both want the same spot: their minima conflict, so
        // their component needs a branch. u2 and u3 conflict only on a
        // shared fallback spot, so their minima attain the bound at the
        // root node.
        let shared = Point::new(800, 0);
        let fallback = Point::new(9400, 2000);
        let per_cell = vec![
            vec![stay(cells[0]), cand(&d, cells[0], shared, 1.0)],
            vec![stay(cells[1]), cand(&d, cells[1], shared, 2.0)],
            vec![
                stay(cells[2]),
                cand(&d, cells[2], Point::new(8800, 0), 1.0),
                cand(&d, cells[2], fallback, 3.0),
            ],
            vec![
                stay(cells[3]),
                cand(&d, cells[3], Point::new(10800, 0), 1.0),
                cand(&d, cells[3], fallback, 3.0),
            ],
        ];
        let limited = CrpConfig {
            ilp_node_limit: 1,
            ..CrpConfig::default()
        };
        let sel = select_candidates(&d, &per_cell, &limited);
        assert_eq!(sel.chosen, vec![0, 0, 1, 1]);
        assert_eq!((sel.unproven_components, sel.fallback_cells), (1, 2));

        let sel = select_candidates(&d, &per_cell, &CrpConfig::default());
        assert_eq!(sel.chosen, vec![1, 0, 1, 1]);
        assert_eq!((sel.unproven_components, sel.fallback_cells), (0, 0));
    }

    #[test]
    fn empty_input_is_empty_output() {
        let (d, _) = design();
        let sel = select_candidates(&d, &[], &CrpConfig::default());
        assert!(sel.chosen.is_empty());
        assert_eq!(sel.nodes, 0);
    }

    /// The all-pairs conflict builder the sweep replaced, pruned by the
    /// distance of the critical cells, kept as the sweep's oracle.
    fn conflict_pairs_pairwise(
        design: &Design,
        per_cell: &[Vec<Candidate>],
        config: &CrpConfig,
    ) -> Vec<(usize, usize)> {
        let window_reach =
            2 * (config.n_site * design.site.width + config.n_row * design.site.height);
        let first: Vec<usize> = per_cell
            .iter()
            .scan(0, |n, c| {
                *n += c.len();
                Some(*n - c.len())
            })
            .collect();
        let rects: Vec<Vec<Vec<(CellId, Rect)>>> = per_cell
            .iter()
            .map(|cands| cands.iter().map(|c| c.claimed_rects(design)).collect())
            .collect();
        let mut pairs = Vec::new();
        for ga in 0..per_cell.len() {
            let pa = design.cell(per_cell[ga][0].cell).pos;
            for gb in (ga + 1)..per_cell.len() {
                let pb = design.cell(per_cell[gb][0].cell).pos;
                if pa.manhattan(pb) > window_reach {
                    continue;
                }
                for (ia, a) in per_cell[ga].iter().enumerate() {
                    for (ib, b) in per_cell[gb].iter().enumerate() {
                        let shared = a.moved_cells().any(|ca| b.moved_cells().any(|cb| cb == ca));
                        if shared || footprints_overlap(&rects[ga][ia], &rects[gb][ib]) {
                            pairs.push((first[ga] + ia, first[gb] + ib));
                        }
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn sweep_conflicts_match_the_pairwise_builder() {
        let cfg = CrpConfig::default();
        for (profile, scale) in [(6, 400.0), (0, 200.0)] {
            let d = crp_workload::ispd18_profiles()[profile]
                .scaled(scale)
                .generate();
            let legalizer = crate::legalizer::Legalizer::new(&d, &cfg);
            let per_cell: Vec<Vec<Candidate>> = d
                .cells()
                .filter(|(_, c)| !c.fixed)
                .take(300)
                .map(|(id, _)| {
                    let mut cands = vec![Candidate::stay(&d, id)];
                    cands.extend(legalizer.candidates_for(id));
                    cands
                })
                .collect();
            let mut sweep = Vec::new();
            for_each_conflict(&d, &per_cell, |a, b| sweep.push((a.min(b), a.max(b))));
            sweep.sort_unstable();
            sweep.dedup();
            assert!(
                sweep.len() > per_cell.len(),
                "fixture has too few conflicts"
            );
            assert_eq!(sweep, conflict_pairs_pairwise(&d, &per_cell, &cfg));
        }
    }
}
