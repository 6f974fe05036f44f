//! Greedy median-based placement refinement.
//!
//! ISPD-2018 inputs are *placer-produced*: connected cells sit close
//! together and per-cell HPWL slack is small. A freshly generated random
//! placement has enormous slack, which would let any optimizer report
//! unrealistically large gains. This module closes that gap: a few passes
//! of classic greedy detailed placement (move each cell to the best free
//! legal slot near its net median if that reduces its nets' HPWL) — the
//! same refinement loop FastPlace-style detailed placers use.

use crp_geom::{Dbu, Interval, Point};
use crp_netlist::{median_position, CellId, Design, NetId, PinOwner, RowMap};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Runs `passes` greedy refinement passes over all movable cells.
///
/// Deterministic for a given `rng` state; the placement stays legal
/// (moves only go to verified-free, site-aligned slots).
pub fn refine_placement(design: &mut Design, passes: usize, rng: &mut StdRng) {
    let mut rows = RowMap::new(design);
    for _ in 0..passes {
        let mut order: Vec<CellId> = design
            .cell_ids()
            .filter(|&c| !design.cell(c).fixed)
            .collect();
        order.shuffle(rng);
        for cell in order {
            if let Some((pos, orient)) = best_slot(design, &rows, cell) {
                rows.relocate(design, cell, pos);
                design.move_cell(cell, pos, orient);
            }
        }
    }
}

/// The HPWL of `cell`'s nets with the cell hypothetically at `pos`.
fn cell_nets_hpwl_at(design: &Design, cell: CellId, pos: Point) -> Dbu {
    let mut total = 0;
    for net in design.nets_of_cell(cell) {
        total += net_hpwl_with(design, net, cell, pos);
    }
    total
}

fn net_hpwl_with(design: &Design, net: NetId, moved: CellId, pos: Point) -> Dbu {
    let mut lo: Option<Point> = None;
    let mut hi: Option<Point> = None;
    for &pin in &design.net(net).pins {
        let p = match design.pin(pin).owner {
            PinOwner::Cell { cell, macro_pin } if cell == moved => {
                pos + design.macro_of(cell).pins[macro_pin].offset
            }
            _ => design.pin_position(pin),
        };
        lo = Some(lo.map_or(p, |l| l.min(p)));
        hi = Some(hi.map_or(p, |h| h.max(p)));
    }
    match (lo, hi) {
        (Some(l), Some(h)) => (h.x - l.x) + (h.y - l.y),
        _ => 0,
    }
}

/// The best free slot near the cell's median, if it strictly improves the
/// cell's nets' HPWL.
fn best_slot(
    design: &Design,
    rows: &RowMap,
    cell: CellId,
) -> Option<(Point, crp_geom::Orientation)> {
    let median = median_position(design, cell);
    let current = design.cell(cell).pos;
    let m = design.macro_of(cell);
    let site_w = design.site.width;
    let med_row = design
        .row_at_y(median.y.clamp(design.die.lo.y, design.die.hi.y - 1))
        .or_else(|| design.row_with_origin_y(current.y))?;
    let r0 = med_row.index().saturating_sub(2);
    let r1 = (med_row.index() + 2).min(design.rows.len() - 1);
    let wx = Interval::new(median.x - 20 * site_w, median.x + 20 * site_w);

    let mut best: Option<(Dbu, Point, crp_geom::Orientation)> = None;
    let base = cell_nets_hpwl_at(design, cell, current);
    for r in r0..=r1 {
        let row = &design.rows[r];
        for iv in rows.free_intervals(design, &[cell], r, wx) {
            if iv.len() < m.width {
                continue;
            }
            // Try the slot nearest the median inside this interval.
            let lo = row.align_up(design.site, iv.lo);
            let hi = iv.hi - m.width;
            if hi < lo {
                continue;
            }
            let target = median.x.clamp(lo, hi);
            let snapped = lo + (target - lo) / site_w * site_w;
            let pos = Point::new(snapped, row.origin.y);
            if pos == current {
                continue;
            }
            let hpwl = cell_nets_hpwl_at(design, cell, pos);
            if hpwl < base && best.as_ref().is_none_or(|(b, _, _)| hpwl < *b) {
                best = Some((hpwl, pos, row.orient));
            }
        }
    }
    best.map(|(_, pos, orient)| (pos, orient))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::ispd18_profiles;
    use crp_netlist::{check_legality, total_hpwl};
    use rand::SeedableRng;

    #[test]
    fn refinement_reduces_hpwl_and_stays_legal() {
        // Generate WITHOUT refinement by calling the raw generator knobs:
        // easiest is to refine an already-refined design further — the
        // HPWL must not increase and legality must hold.
        let mut design = ispd18_profiles()[1].scaled(600.0).generate();
        let before = total_hpwl(&design);
        let mut rng = StdRng::seed_from_u64(7);
        refine_placement(&mut design, 2, &mut rng);
        let after = total_hpwl(&design);
        assert!(after <= before, "refinement grew HPWL: {before} -> {after}");
        assert!(check_legality(&design).is_empty());
    }

    #[test]
    fn refinement_is_deterministic() {
        let run = || {
            let mut design = ispd18_profiles()[0].scaled(600.0).generate();
            let mut rng = StdRng::seed_from_u64(42);
            refine_placement(&mut design, 1, &mut rng);
            total_hpwl(&design)
        };
        assert_eq!(run(), run());
    }
}
