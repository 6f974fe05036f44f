//! The ILP-based legalizer (Algorithm 2, Eq. 11).
//!
//! For a critical cell, the legalizer explores an `N_site × N_row` window
//! around its current position. Every site-aligned slot the cell could
//! take is a potential candidate; when the slot overlaps other movable
//! cells ("conflict cells", at most `max_window_cells − 1` of them), a
//! small exact ILP relocates those cells into the window's free space,
//! minimizing the Eq. 11 displacement-toward-median objective. The result
//! is a set of *jointly legal* placement candidates.

use crate::candidate::Candidate;
use crate::config::CrpConfig;
use crp_geom::{Dbu, Interval, Point, Rect};
use crp_ilp::{Model, SolveLimits, VarId};
use crp_netlist::{median_position, CellId, Design, RowId, RowMap};

/// Joint relocation list: each conflict cell with its new legal slot.
type Relocations = Vec<(CellId, Point, crp_geom::Orientation)>;

/// The per-iteration legalizer. Construction indexes cells by row; the
/// index reflects the design at construction time, so rebuild after moves.
#[derive(Debug)]
pub struct Legalizer<'a> {
    design: &'a Design,
    config: &'a CrpConfig,
    rows: RowMap,
}

impl<'a> Legalizer<'a> {
    /// Builds the row index for `design`.
    #[must_use]
    pub fn new(design: &'a Design, config: &'a CrpConfig) -> Legalizer<'a> {
        Legalizer {
            design,
            config,
            rows: RowMap::new(design),
        }
    }

    /// Runs the legalizer for one critical cell (`legalizer.run(c, N_site,
    /// N_row)` in Algorithm 2) and returns the joint candidates, cheapest
    /// displacement first, **excluding** the stay candidate (the flow adds
    /// it).
    #[must_use]
    pub fn candidates_for(&self, cell: CellId) -> Vec<Candidate> {
        let design = self.design;
        let c = design.cell(cell);
        if c.fixed {
            return Vec::new();
        }
        let Some(cur_row) = design.row_with_origin_y(c.pos.y) else {
            return Vec::new();
        };
        let m = design.macro_of(cell);
        let site_w = design.site.width;
        let median = median_position(design, cell);

        // Window rows and x-span, clamped to the floorplan.
        let half_rows = self.config.n_row / 2;
        let r0 = (cur_row.index() as i64 - half_rows).max(0) as usize;
        let r1 = ((cur_row.index() as i64 + half_rows) as usize).min(design.rows.len() - 1);
        let half_span = self.config.n_site / 2 * site_w;
        let wx = Interval::new(c.pos.x - half_span, c.pos.x + half_span + m.width);

        // Enumerate slots for the critical cell, cheapest-toward-median
        // first (Eq. 11 ordering).
        let mut slots: Vec<(f64, RowId, Dbu)> = Vec::new();
        for r in r0..=r1 {
            let row = &design.rows[r];
            let row_span = row.rect(design.site).x_span();
            let lo = align_up(wx.lo.max(row_span.lo), row.origin.x, site_w);
            let hi = (wx.hi.min(row_span.hi) - m.width).max(lo - 1);
            let mut x = lo;
            while x <= hi {
                if !(x == c.pos.x && row.origin.y == c.pos.y) {
                    let cost = eq11_cost(Point::new(x, row.origin.y), median);
                    slots.push((cost, RowId::from_index(r), x));
                }
                x += site_w;
            }
        }
        slots.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));

        let mut out: Vec<Candidate> = Vec::new();
        let budget = self.config.max_candidates * 4;
        for (tried, &(c_cost, row_id, x)) in slots.iter().enumerate() {
            if out.len() + 1 >= self.config.max_candidates || tried >= budget {
                break;
            }
            let row = &design.rows[row_id.index()];
            let pos = Point::new(x, row.origin.y);
            let rect = Rect::with_size(pos, m.width, m.height);
            if !design.die.contains_rect(&rect)
                || design.blockages.iter().any(|b| b.intersects(&rect))
            {
                continue;
            }
            // Conflicts: cells overlapping the slot on this row.
            let span = rect.x_span();
            let mut conflicts: Vec<CellId> = Vec::new();
            let mut blocked_by_fixed = false;
            for other in self.rows.overlapping(row_id.index(), span, &[cell]) {
                if design.cell(other).fixed {
                    blocked_by_fixed = true;
                    break;
                }
                conflicts.push(other);
            }
            if blocked_by_fixed || conflicts.len() + 1 > self.config.max_window_cells {
                continue;
            }
            if conflicts.is_empty() {
                out.push(Candidate {
                    cell,
                    pos,
                    orient: row.orient,
                    moves: Vec::new(),
                    displacement_cost: c_cost,
                    routing_cost: 0.0,
                });
                continue;
            }
            if let Some((moves, ilp_cost)) =
                self.relocate_conflicts(cell, rect, &conflicts, r0, r1, wx)
            {
                out.push(Candidate {
                    cell,
                    pos,
                    orient: row.orient,
                    moves,
                    displacement_cost: c_cost + ilp_cost,
                    routing_cost: 0.0,
                });
            }
        }
        out.sort_by(|a, b| a.displacement_cost.total_cmp(&b.displacement_cost));
        out
    }

    /// Solves the Eq. 11 ILP that relocates `conflicts` into the window's
    /// free space, with the critical cell pinned at `crit_rect`.
    fn relocate_conflicts(
        &self,
        cell: CellId,
        crit_rect: Rect,
        conflicts: &[CellId],
        r0: usize,
        r1: usize,
        wx: Interval,
    ) -> Option<(Relocations, f64)> {
        let design = self.design;
        let site_w = design.site.width;

        // Free intervals per window row: the row span ∩ window minus every
        // standing cell (except the conflicts themselves, which vacate)
        // minus the critical cell's claimed slot and blockages.
        let mut exclude: Vec<CellId> = conflicts.to_vec();
        exclude.push(cell);
        let mut free: Vec<(RowId, Vec<Interval>)> = Vec::new();
        for r in r0..=r1 {
            let row_rect = design.rows[r].rect(design.site);
            let mut intervals = self.rows.free_intervals(design, &exclude, r, wx);
            // Carve the critical cell's claimed slot out of the free space.
            if crit_rect.y_span().overlaps(&row_rect.y_span()) {
                let claim = crit_rect.x_span();
                intervals = intervals
                    .into_iter()
                    .flat_map(|iv| {
                        let mut parts = Vec::with_capacity(2);
                        match iv.intersection(&claim) {
                            None => parts.push(iv),
                            Some(_) => {
                                if iv.lo < claim.lo {
                                    parts.push(Interval::new(iv.lo, claim.lo));
                                }
                                if claim.hi < iv.hi {
                                    parts.push(Interval::new(claim.hi, iv.hi));
                                }
                            }
                        }
                        parts
                    })
                    .collect();
            }
            free.push((RowId::from_index(r), intervals));
        }

        // Candidate slots per conflict cell (cheapest-toward-median first,
        // capped to keep the ILP tiny).
        const SLOTS_PER_CELL: usize = 15;
        let mut model = Model::new();
        let mut var_info: Vec<(CellId, Point, crp_geom::Orientation, Rect)> = Vec::new();
        let mut groups: Vec<Vec<VarId>> = Vec::new();
        for &cc in conflicts {
            let mc = design.macro_of(cc);
            let med = median_position(design, cc);
            let mut options: Vec<(f64, RowId, Dbu)> = Vec::new();
            for (row_id, intervals) in &free {
                let row = &design.rows[row_id.index()];
                for iv in intervals {
                    let lo = align_up(iv.lo, row.origin.x, site_w);
                    let mut x = lo;
                    while x + mc.width <= iv.hi {
                        options.push((eq11_cost(Point::new(x, row.origin.y), med), *row_id, x));
                        x += site_w;
                    }
                }
            }
            if options.is_empty() {
                return None; // this conflict cell cannot be relocated
            }
            options.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
            options.truncate(SLOTS_PER_CELL);
            let mut vars = Vec::with_capacity(options.len());
            for (cost, row_id, x) in options {
                let row = &design.rows[row_id.index()];
                let pos = Point::new(x, row.origin.y);
                let rect = Rect::with_size(pos, mc.width, mc.height);
                let v = model.add_var(cost);
                var_info.push((cc, pos, row.orient, rect));
                vars.push(v);
            }
            groups.push(vars);
        }
        // Pairwise overlap conflicts between different cells' slots.
        for gi in 0..groups.len() {
            for gj in (gi + 1)..groups.len() {
                for &va in &groups[gi] {
                    for &vb in &groups[gj] {
                        let ra = var_info[var_index(va)].3;
                        let rb = var_info[var_index(vb)].3;
                        if ra.intersects(&rb) {
                            model.add_conflict(va, vb);
                        }
                    }
                }
            }
        }
        for g in &groups {
            model.add_exactly_one(g.iter().copied());
        }
        let solution = model.solve(SolveLimits { max_nodes: 100_000 }).ok()?;
        let moves = solution
            .chosen
            .iter()
            .map(|&v| {
                let (cc, pos, orient, _) = var_info[var_index(v?)];
                Some((cc, pos, orient))
            })
            .collect::<Option<_>>()?;
        Some((moves, solution.objective))
    }
}

fn var_index(v: VarId) -> usize {
    v.0 as usize
}

/// The Eq. 11 displacement cost: Manhattan distance to the median target.
/// Row moves are naturally `H_row / W_site` times more expensive than site
/// moves because distances are in DBU.
fn eq11_cost(pos: Point, median: Point) -> f64 {
    pos.manhattan(median) as f64
}

/// The smallest site-aligned x at or above `x` for a row starting at
/// `row_x` with site width `site_w`.
fn align_up(x: Dbu, row_x: Dbu, site_w: Dbu) -> Dbu {
    let rel = x - row_x;
    let aligned = rel.div_euclid(site_w) * site_w
        + if rel.rem_euclid(site_w) == 0 {
            0
        } else {
            site_w
        };
    row_x + aligned
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_netlist::{check_legality, DesignBuilder, MacroCell};

    fn design_with_gap() -> (Design, Vec<CellId>) {
        let mut b = DesignBuilder::new("leg", 1000);
        b.site(200, 2000);
        let m = b.add_macro(
            MacroCell::new("INV", 400, 2000)
                .with_pin("A", 100, 1000, 0)
                .with_pin("Y", 300, 1000, 0),
        );
        b.add_rows(5, 40, Point::new(0, 0));
        // Row 0: u0 at site 0, u1 at site 10, gap elsewhere.
        let u0 = b.add_cell("u0", m, Point::new(0, 0));
        let u1 = b.add_cell("u1", m, Point::new(2000, 0));
        // Row 2: u2 far right; net pulls u0 toward it.
        let u2 = b.add_cell("u2", m, Point::new(6000, 4000));
        let n = b.add_net("n0");
        b.connect(n, u0, "Y");
        b.connect(n, u2, "A");
        (b.build(), vec![u0, u1, u2])
    }

    #[test]
    fn candidates_are_window_bounded_and_legal_slots() {
        let (d, cells) = design_with_gap();
        let cfg = CrpConfig::default();
        let lg = Legalizer::new(&d, &cfg);
        let cands = lg.candidates_for(cells[0]);
        assert!(!cands.is_empty());
        let cur = d.cell(cells[0]).pos;
        for cand in &cands {
            // Site-aligned, on a row, inside the window.
            assert_eq!(cand.pos.x % 200, 0);
            assert!(d.row_with_origin_y(cand.pos.y).is_some());
            assert!((cand.pos.x - cur.x).abs() <= cfg.n_site / 2 * 200 + 400);
            assert!(cand.moves.len() < cfg.max_window_cells);
        }
    }

    #[test]
    fn candidates_sorted_by_displacement_toward_median() {
        let (d, cells) = design_with_gap();
        let cfg = CrpConfig::default();
        let lg = Legalizer::new(&d, &cfg);
        let cands = lg.candidates_for(cells[0]);
        for w in cands.windows(2) {
            assert!(w[0].displacement_cost <= w[1].displacement_cost);
        }
        // The median target is u2's pin area; best candidates move right.
        assert!(cands[0].pos.x > d.cell(cells[0]).pos.x);
    }

    #[test]
    fn applying_any_candidate_keeps_design_legal() {
        let (d, cells) = design_with_gap();
        let cfg = CrpConfig::default();
        let lg = Legalizer::new(&d, &cfg);
        for cand in lg.candidates_for(cells[0]) {
            let mut trial = d.clone();
            trial.move_cell(cand.cell, cand.pos, cand.orient);
            for &(cc, p, o) in &cand.moves {
                trial.move_cell(cc, p, o);
            }
            let v = check_legality(&trial);
            assert!(v.is_empty(), "candidate {cand:?} produced violations {v:?}");
        }
    }

    #[test]
    fn occupied_slot_generates_conflict_moves() {
        let (d, cells) = design_with_gap();
        let cfg = CrpConfig::default();
        let lg = Legalizer::new(&d, &cfg);
        // u1 occupies sites 10-11 of row 0; a candidate placing u0 there
        // must relocate u1.
        let cands = lg.candidates_for(cells[0]);
        let overlapping: Vec<_> = cands
            .iter()
            .filter(|c| c.pos.y == 0 && (c.pos.x - 2000i64).abs() < 400)
            .collect();
        for c in &overlapping {
            assert!(
                c.moves.iter().any(|&(m, _, _)| m == cells[1]),
                "expected u1 relocation in {c:?}"
            );
        }
    }

    #[test]
    fn fixed_cell_gets_no_candidates() {
        let (mut d, cells) = design_with_gap();
        d.set_fixed(cells[0], true);
        let cfg = CrpConfig::default();
        let lg = Legalizer::new(&d, &cfg);
        assert!(lg.candidates_for(cells[0]).is_empty());
    }

    #[test]
    fn fixed_neighbour_blocks_slot() {
        let (mut d, cells) = design_with_gap();
        d.set_fixed(cells[1], true);
        let cfg = CrpConfig::default();
        let lg = Legalizer::new(&d, &cfg);
        for cand in lg.candidates_for(cells[0]) {
            let rect = Rect::with_size(cand.pos, 400, 2000);
            let u1_rect = d.cell_rect(cells[1]);
            assert!(!rect.intersects(&u1_rect), "candidate overlaps fixed cell");
        }
    }

    #[test]
    fn candidate_count_capped() {
        let (d, cells) = design_with_gap();
        let cfg = CrpConfig {
            max_candidates: 3,
            ..CrpConfig::default()
        };
        let lg = Legalizer::new(&d, &cfg);
        assert!(lg.candidates_for(cells[0]).len() < 3);
    }

    #[test]
    fn align_up_works() {
        assert_eq!(align_up(0, 0, 200), 0);
        assert_eq!(align_up(1, 0, 200), 200);
        assert_eq!(align_up(200, 0, 200), 200);
        assert_eq!(align_up(350, 100, 200), 500);
        assert_eq!(align_up(-150, 0, 200), 0);
    }

    /// Every claim of every candidate must satisfy the oracle's claim
    /// geometry — the Eq. 11 window contract `crp-check` enforces at
    /// `Full` — and applying the joint move must leave the design legal.
    fn assert_candidates_legal_per_oracle(d: &Design, cell: CellId) -> Vec<Candidate> {
        let cfg = CrpConfig::default();
        let lg = Legalizer::new(d, &cfg);
        let cands = lg.candidates_for(cell);
        let fixed = crp_check::fixed_cell_rects(d);
        for cand in &cands {
            let claims = cand.claimed_rects(d);
            let v = crp_check::check_claims(d, &claims, &fixed);
            assert!(v.is_empty(), "candidate {cand:?} claims illegally: {v:?}");
            let mut trial = d.clone();
            trial.move_cell(cand.cell, cand.pos, cand.orient);
            for &(cc, p, o) in &cand.moves {
                trial.move_cell(cc, p, o);
            }
            let v = crp_check::check_placement(&trial);
            assert!(v.is_empty(), "candidate {cand:?} breaks placement: {v:?}");
        }
        cands
    }

    #[test]
    fn window_clipped_at_die_corners_stays_inside_die() {
        // Cells in the extreme corners: the Eq. 11 window hangs past the
        // die on two sides and must be clipped, not wrapped or skipped.
        let mut b = DesignBuilder::new("corner", 1000);
        b.site(200, 2000);
        let m = b.add_macro(
            MacroCell::new("INV", 400, 2000)
                .with_pin("A", 100, 1000, 0)
                .with_pin("Y", 300, 1000, 0),
        );
        b.add_rows(4, 30, Point::new(0, 0));
        let u0 = b.add_cell("u0", m, Point::new(0, 0));
        let u1 = b.add_cell("u1", m, Point::new(5600, 6000));
        let n = b.add_net("n0");
        b.connect(n, u0, "Y");
        b.connect(n, u1, "A");
        let d = b.build();
        for cell in [u0, u1] {
            let cands = assert_candidates_legal_per_oracle(&d, cell);
            assert!(!cands.is_empty(), "corner cell {cell} got no candidates");
            for cand in &cands {
                for (_, rect) in cand.claimed_rects(&d) {
                    assert!(d.die.contains_rect(&rect), "claim {rect} leaves the die");
                }
            }
        }
    }

    #[test]
    fn window_with_blockage_keeps_claims_off_it() {
        // A placement blockage sits squarely inside u0's window, in the
        // direction the net median pulls; every candidate must route
        // around it (Eq. 11 slots on blockages are not legal slots).
        let mut b = DesignBuilder::new("blocked", 1000);
        b.site(200, 2000);
        let m = b.add_macro(
            MacroCell::new("INV", 400, 2000)
                .with_pin("A", 100, 1000, 0)
                .with_pin("Y", 300, 1000, 0),
        );
        b.add_rows(3, 30, Point::new(0, 0));
        b.add_blockage(Rect::with_size(Point::new(800, 0), 1200, 2000));
        let u0 = b.add_cell("u0", m, Point::new(0, 0));
        let u1 = b.add_cell("u1", m, Point::new(4800, 4000));
        let n = b.add_net("n0");
        b.connect(n, u0, "Y");
        b.connect(n, u1, "A");
        let d = b.build();
        let cands = assert_candidates_legal_per_oracle(&d, u0);
        assert!(!cands.is_empty(), "blockage must not starve the window");
        for cand in &cands {
            for (_, rect) in cand.claimed_rects(&d) {
                for blk in &d.blockages {
                    assert!(!rect.intersects(blk), "claim {rect} sits on a blockage");
                }
            }
        }
    }
}
