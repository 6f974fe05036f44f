//! The full front-end: strip, globally place, legalize.

use crate::config::GpConfig;
use crate::error::GpError;
use crate::legalize::{legalize_abacus, AbacusStats};
use crate::placer::{GlobalPlacer, GpIterStats};
use crp_netlist::Design;

/// What [`place`] did: the solver trajectory and the legalization
/// summary.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceReport {
    /// One entry per global-placement iteration, in order.
    pub iterations: Vec<GpIterStats>,
    /// Row-legalization summary.
    pub legalize: AbacusStats,
}

/// Moves every movable cell to the die's lower-left corner, erasing the
/// incoming placement. The placer ignores movable positions anyway (its
/// initial state is a function of netlist, config, and seed), so running
/// [`place`] after this produces bit-identical output to running it on
/// the original placement — stripping first makes the netlist-only
/// cold-start claim observable rather than implicit.
pub fn strip_placement(design: &mut Design) {
    let lo = design.die.lo;
    let ids: Vec<_> = design.cell_ids().collect();
    for id in ids {
        if !design.cell(id).fixed {
            design.move_cell(id, lo, crp_geom::Orientation::N);
        }
    }
}

/// Places `design` from its netlist alone: electrostatic global
/// placement followed by Abacus row legalization. On success the design
/// holds a legal placement (every movable cell row- and site-aligned,
/// overlap-free, clear of blockages and fixed cells) ready for routing
/// and CR&P refinement.
pub fn place(design: &mut Design, cfg: &GpConfig) -> Result<PlaceReport, GpError> {
    let mut placer = GlobalPlacer::new(design, cfg.clone());
    let iterations = placer.run();
    let targets = placer.positions();
    let legalize = legalize_abacus(design, &targets)?;
    Ok(PlaceReport {
        iterations,
        legalize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_geom::{Point, Rect};
    use crp_netlist::{DesignBuilder, MacroCell};

    fn design() -> Design {
        let mut b = DesignBuilder::new("place-e2e", 1000);
        let inv = b.add_macro(MacroCell::new("INV", 200, 2000).with_pin("A", 50, 1000, 1));
        b.die(Rect::new(Point::new(0, 0), Point::new(8000, 8000)));
        b.add_rows(4, 40, Point::new(0, 0));
        let cells: Vec<_> = (0..16)
            .map(|k| b.add_cell(format!("u{k}"), inv, Point::new(0, 0)))
            .collect();
        for k in 0..12 {
            let n = b.add_net(format!("n{k}"));
            b.connect(n, cells[k % 16], "A");
            b.connect(n, cells[(k * 5 + 2) % 16], "A");
        }
        b.build()
    }

    #[test]
    fn place_produces_a_legal_placement() {
        let mut d = design();
        let report = place(
            &mut d,
            &GpConfig {
                iterations: 16,
                threads: 2,
                ..GpConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.iterations.len(), 16);
        assert_eq!(report.legalize.cells, 16);
        assert!(crp_check::check_placement(&d).is_empty());
    }

    #[test]
    fn stripped_and_unstripped_inputs_place_identically() {
        let cfg = GpConfig {
            iterations: 10,
            threads: 1,
            ..GpConfig::default()
        };
        let mut a = design();
        let mut b = design();
        strip_placement(&mut b);
        place(&mut a, &cfg).unwrap();
        place(&mut b, &cfg).unwrap();
        for id in a.cell_ids() {
            assert_eq!(a.cell(id).pos, b.cell(id).pos, "cell {id}");
        }
    }
}
