//! The placed-design database.

use crate::ids::{CellId, MacroId, NetId, PinId, RowId};
use crate::tech::{LayerInfo, MacroCell, SiteInfo};
use crp_geom::{Dbu, Orientation, Point, Rect};
use serde::{Deserialize, Serialize};

/// A placed component (DEF `COMPONENT`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cell {
    /// Instance name, e.g. `"u1024"`.
    pub name: String,
    /// Library macro implementing this instance.
    pub macro_id: MacroId,
    /// Lower-left corner of the footprint.
    pub pos: Point,
    /// Placement orientation.
    pub orient: Orientation,
    /// Whether the cell is fixed (not movable by CR&P).
    pub fixed: bool,
    /// Pins of this cell, in macro pin order (`PinId(u32::MAX)`-free).
    pub pins: Vec<PinId>,
}

/// A signal net (DEF `NET`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Net {
    /// Net name.
    pub name: String,
    /// Connected pins.
    pub pins: Vec<PinId>,
}

/// What a pin is attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PinOwner {
    /// A pin of a placed cell; `macro_pin` indexes into the macro's pin list.
    Cell {
        /// Owning cell.
        cell: CellId,
        /// Index into [`MacroCell::pins`](crate::MacroCell::pins).
        macro_pin: usize,
    },
    /// A fixed I/O pin on the die boundary.
    Io {
        /// Absolute position.
        pos: Point,
        /// Routing layer of the pad.
        layer: usize,
    },
}

/// A net terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pin {
    /// The net this pin belongs to.
    pub net: NetId,
    /// What the pin is attached to.
    pub owner: PinOwner,
}

/// A placement row (DEF `ROW`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Row {
    /// Lower-left origin of the row.
    pub origin: Point,
    /// Number of sites in the row.
    pub num_sites: u32,
    /// Orientation every cell in this row must use.
    pub orient: Orientation,
}

impl Row {
    /// The row's footprint given the site geometry.
    #[must_use]
    pub fn rect(&self, site: SiteInfo) -> Rect {
        Rect::with_size(
            self.origin,
            site.width * Dbu::from(self.num_sites),
            site.height,
        )
    }

    /// X coordinate of site `i` in this row.
    #[must_use]
    pub fn site_x(&self, site: SiteInfo, i: u32) -> Dbu {
        self.origin.x + site.width * Dbu::from(i)
    }

    /// The smallest site-aligned x at or above `x` in this row.
    #[must_use]
    pub fn align_up(&self, site: SiteInfo, x: Dbu) -> Dbu {
        let rel = x - self.origin.x;
        let aligned = rel.div_euclid(site.width) * site.width
            + if rel.rem_euclid(site.width) == 0 {
                0
            } else {
                site.width
            };
        self.origin.x + aligned
    }
}

/// The complete placed design: technology + floorplan + netlist + placement.
///
/// Construct one with [`DesignBuilder`](crate::DesignBuilder) (or the
/// `crp-workload` generator / `crp-lefdef` reader) and query or mutate it
/// through the methods here. All flow stages share this type.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Design {
    /// Design name (DEF `DESIGN`).
    pub name: String,
    /// Database units per micron (DEF `UNITS DISTANCE MICRONS`).
    pub dbu_per_micron: u32,
    /// Die area (DEF `DIEAREA`).
    pub die: Rect,
    /// Routing layer stack, lowest first.
    pub layers: Vec<LayerInfo>,
    /// The core placement site.
    pub site: SiteInfo,
    /// Macro library.
    pub macros: Vec<MacroCell>,
    /// Placement rows, sorted by ascending y.
    pub rows: Vec<Row>,
    /// Placement/routing blockages (also model fixed macros).
    pub blockages: Vec<Rect>,
    pub(crate) cells: Vec<Cell>,
    pub(crate) nets: Vec<Net>,
    pub(crate) pins: Vec<Pin>,
}

impl Design {
    /// Number of cells.
    #[must_use]
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    #[must_use]
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of pins.
    #[must_use]
    pub fn num_pins(&self) -> usize {
        self.pins.len()
    }

    /// Immutable access to a cell.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Immutable access to a net.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Immutable access to a pin.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn pin(&self, id: PinId) -> &Pin {
        &self.pins[id.index()]
    }

    /// Iterates over `(CellId, &Cell)`.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> + '_ {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId::from_index(i), c))
    }

    /// Iterates over `(NetId, &Net)`.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> + '_ {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId::from_index(i), n))
    }

    /// Iterates over all cell ids.
    pub fn cell_ids(&self) -> impl Iterator<Item = CellId> {
        (0..self.cells.len()).map(CellId::from_index)
    }

    /// Iterates over all net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> {
        (0..self.nets.len()).map(NetId::from_index)
    }

    /// The macro implementing `cell`.
    #[must_use]
    pub fn macro_of(&self, cell: CellId) -> &MacroCell {
        &self.macros[self.cell(cell).macro_id.index()]
    }

    /// The placed footprint of `cell`.
    #[must_use]
    pub fn cell_rect(&self, cell: CellId) -> Rect {
        let c = self.cell(cell);
        let m = self.macro_of(cell);
        // Orientation never swaps axes for row-based standard cells (N/FS).
        Rect::with_size(c.pos, m.width, m.height)
    }

    /// The absolute position of a pin's access point.
    ///
    /// Cell pins apply the owning cell's orientation to the macro offset;
    /// only the row orientations N / FS / S / FN are supported, which is all
    /// row-based placement produces.
    #[must_use]
    pub fn pin_position(&self, pin: PinId) -> Point {
        match self.pin(pin).owner {
            PinOwner::Io { pos, .. } => pos,
            PinOwner::Cell { cell, macro_pin } => {
                let c = self.cell(cell);
                let m = self.macro_of(cell);
                let off = m.pins[macro_pin].offset;
                let oriented = match c.orient {
                    Orientation::N => off,
                    Orientation::FS => Point::new(off.x, m.height - off.y),
                    Orientation::S => Point::new(m.width - off.x, m.height - off.y),
                    Orientation::FN => Point::new(m.width - off.x, off.y),
                    other => {
                        debug_assert!(false, "unsupported cell orientation {other}");
                        off
                    }
                };
                c.pos + oriented
            }
        }
    }

    /// Like [`pin_position`](Design::pin_position), but with hypothetical
    /// cell placements: `lookup` may return an overriding `(position,
    /// orientation)` for a cell. Used by CR&P's candidate-cost estimation
    /// (Algorithm 3), which prices moves without mutating the database.
    pub fn pin_position_overridden<F>(&self, pin: PinId, lookup: F) -> Point
    where
        F: Fn(CellId) -> Option<(Point, Orientation)>,
    {
        match self.pin(pin).owner {
            PinOwner::Io { pos, .. } => pos,
            PinOwner::Cell { cell, macro_pin } => {
                let c = self.cell(cell);
                let (pos, orient) = lookup(cell).unwrap_or((c.pos, c.orient));
                let m = self.macro_of(cell);
                let off = m.pins[macro_pin].offset;
                let oriented = match orient {
                    Orientation::N => off,
                    Orientation::FS => Point::new(off.x, m.height - off.y),
                    Orientation::S => Point::new(m.width - off.x, m.height - off.y),
                    Orientation::FN => Point::new(m.width - off.x, off.y),
                    _ => off,
                };
                pos + oriented
            }
        }
    }

    /// The routing layer of a pin's access point.
    #[must_use]
    pub fn pin_layer(&self, pin: PinId) -> usize {
        match self.pin(pin).owner {
            PinOwner::Io { layer, .. } => layer,
            PinOwner::Cell { cell, macro_pin } => self.macro_of(cell).pins[macro_pin].layer,
        }
    }

    /// The nets incident to `cell`, deduplicated, in first-seen order.
    #[must_use]
    pub fn nets_of_cell(&self, cell: CellId) -> Vec<NetId> {
        let mut out = Vec::new();
        for &pin in &self.cell(cell).pins {
            let net = self.pin(pin).net;
            if !out.contains(&net) {
                out.push(net);
            }
        }
        out
    }

    /// The cells sharing a net with `cell` (excluding `cell`), deduplicated.
    ///
    /// This is the `getConnectedCells` query of Algorithm 1.
    #[must_use]
    pub fn connected_cells(&self, cell: CellId) -> Vec<CellId> {
        let mut out = Vec::new();
        for net in self.nets_of_cell(cell) {
            for &pin in &self.net(net).pins {
                if let PinOwner::Cell { cell: other, .. } = self.pin(pin).owner {
                    if other != cell && !out.contains(&other) {
                        out.push(other);
                    }
                }
            }
        }
        out
    }

    /// Cells on `net`, deduplicated, in pin order.
    #[must_use]
    pub fn cells_of_net(&self, net: NetId) -> Vec<CellId> {
        let mut out = Vec::new();
        for &pin in &self.net(net).pins {
            if let PinOwner::Cell { cell, .. } = self.pin(pin).owner {
                if !out.contains(&cell) {
                    out.push(cell);
                }
            }
        }
        out
    }

    /// Moves `cell` to `pos` with orientation `orient`.
    ///
    /// Performs no legality checking; run
    /// [`check_legality`](crate::check_legality) afterwards if needed.
    ///
    /// # Panics
    ///
    /// Panics if the cell is fixed.
    pub fn move_cell(&mut self, cell: CellId, pos: Point, orient: Orientation) {
        let c = &mut self.cells[cell.index()];
        assert!(!c.fixed, "cannot move fixed cell {}", c.name);
        c.pos = pos;
        c.orient = orient;
    }

    /// Marks a cell as fixed (true) or movable (false).
    pub fn set_fixed(&mut self, cell: CellId, fixed: bool) {
        self.cells[cell.index()].fixed = fixed;
    }

    /// The row whose y-span contains `y`, if any.
    #[must_use]
    pub fn row_at_y(&self, y: Dbu) -> Option<RowId> {
        // Rows are sorted by y; binary search on origin.
        let idx = self.rows.partition_point(|r| r.origin.y <= y);
        if idx == 0 {
            return None;
        }
        let row = &self.rows[idx - 1];
        (y < row.origin.y + self.site.height).then(|| RowId::from_index(idx - 1))
    }

    /// The index of the row at exactly `y`, if a row origin matches.
    #[must_use]
    pub fn row_with_origin_y(&self, y: Dbu) -> Option<RowId> {
        self.rows
            .binary_search_by_key(&y, |r| r.origin.y)
            .ok()
            .map(RowId::from_index)
    }

    /// Total movable-cell area divided by total row area.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let cell_area: i128 = self
            .cells
            .iter()
            .map(|c| {
                let m = &self.macros[c.macro_id.index()];
                i128::from(m.width) * i128::from(m.height)
            })
            .sum();
        let row_area: i128 = self
            .rows
            .iter()
            .map(|r| {
                i128::from(r.num_sites) * i128::from(self.site.width) * i128::from(self.site.height)
            })
            .sum();
        if row_area == 0 {
            return 0.0;
        }
        cell_area as f64 / row_area as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DesignBuilder;

    fn tiny() -> Design {
        let mut b = DesignBuilder::new("t", 1000);
        b.site(200, 2000);
        let m = b.add_macro(
            MacroCell::new("INV", 400, 2000)
                .with_pin("A", 100, 1000, 0)
                .with_pin("Y", 300, 1000, 0),
        );
        b.add_rows(4, 20, Point::new(0, 0));
        let u1 = b.add_cell("u1", m, Point::new(0, 0));
        let u2 = b.add_cell("u2", m, Point::new(800, 2000));
        let u3 = b.add_cell("u3", m, Point::new(1600, 0));
        let n1 = b.add_net("n1");
        b.connect(n1, u1, "Y");
        b.connect(n1, u2, "A");
        let n2 = b.add_net("n2");
        b.connect(n2, u2, "Y");
        b.connect(n2, u3, "A");
        b.build()
    }

    #[test]
    fn align_up_works() {
        let site = SiteInfo::new(200, 2000);
        let row = |x| Row {
            origin: Point::new(x, 0),
            num_sites: 10,
            orient: Orientation::N,
        };
        assert_eq!(row(0).align_up(site, 0), 0);
        assert_eq!(row(0).align_up(site, 1), 200);
        assert_eq!(row(0).align_up(site, 200), 200);
        assert_eq!(row(100).align_up(site, 350), 500);
        assert_eq!(row(0).align_up(site, -150), 0);
    }

    #[test]
    fn pin_position_n_orientation() {
        let d = tiny();
        let u1 = CellId(0);
        // u1's only connected pin is "Y" at macro offset (300, 1000).
        let y_pin = d.cell(u1).pins[0];
        assert_eq!(d.pin_position(y_pin), Point::new(300, 1000));
    }

    #[test]
    fn pin_position_fs_orientation_mirrors_y() {
        let d = tiny();
        // u2 sits in row 1 which alternates to FS.
        let u2 = CellId(1);
        assert_eq!(d.cell(u2).orient, crp_geom::Orientation::FS);
        let a_pin = d.cell(u2).pins[0];
        // offset (100, 1000) in a 2000-tall macro mirrors to (100, 1000).
        assert_eq!(d.pin_position(a_pin), Point::new(800 + 100, 2000 + 1000));
    }

    #[test]
    fn connected_cells_excludes_self_and_dedups() {
        let d = tiny();
        let u2 = CellId(1);
        let conn = d.connected_cells(u2);
        assert_eq!(conn.len(), 2);
        assert!(!conn.contains(&u2));
    }

    #[test]
    fn nets_of_cell() {
        let d = tiny();
        assert_eq!(d.nets_of_cell(CellId(0)), vec![NetId(0)]);
        assert_eq!(d.nets_of_cell(CellId(1)).len(), 2);
    }

    #[test]
    fn row_at_y_lookup() {
        let d = tiny();
        assert_eq!(d.row_at_y(0), Some(RowId(0)));
        assert_eq!(d.row_at_y(1999), Some(RowId(0)));
        assert_eq!(d.row_at_y(2000), Some(RowId(1)));
        assert_eq!(d.row_at_y(-1), None);
        assert_eq!(d.row_at_y(2000 * 4), None);
    }

    #[test]
    fn move_cell_updates_footprint() {
        let mut d = tiny();
        d.move_cell(CellId(0), Point::new(400, 2000), crp_geom::Orientation::FS);
        assert_eq!(d.cell_rect(CellId(0)).lo, Point::new(400, 2000));
    }

    #[test]
    #[should_panic(expected = "fixed")]
    fn moving_fixed_cell_panics() {
        let mut d = tiny();
        d.cells[0].fixed = true;
        d.move_cell(CellId(0), Point::ORIGIN, crp_geom::Orientation::N);
    }

    #[test]
    fn pin_position_overridden_matches_actual_after_move() {
        // Pricing a hypothetical move through the override must agree with
        // actually moving the cell.
        let mut d = tiny();
        let cell = CellId(0);
        let pin = d.cell(cell).pins[0];
        let target = (Point::new(800, 2000), crp_geom::Orientation::FS);
        let hypothetical = d.pin_position_overridden(pin, |c| (c == cell).then_some(target));
        d.move_cell(cell, target.0, target.1);
        assert_eq!(hypothetical, d.pin_position(pin));
    }

    #[test]
    fn pin_position_overridden_ignores_other_cells() {
        let d = tiny();
        let u2_pin = d.cell(CellId(1)).pins[0];
        let moved = d.pin_position_overridden(u2_pin, |c| {
            (c == CellId(0)).then_some((Point::ORIGIN, crp_geom::Orientation::N))
        });
        assert_eq!(moved, d.pin_position(u2_pin));
    }

    #[test]
    fn set_fixed_roundtrip() {
        let mut d = tiny();
        d.set_fixed(CellId(0), true);
        assert!(d.cell(CellId(0)).fixed);
        d.set_fixed(CellId(0), false);
        assert!(!d.cell(CellId(0)).fixed);
    }

    #[test]
    fn utilization_is_fractional() {
        let d = tiny();
        let u = d.utilization();
        assert!(u > 0.0 && u < 1.0, "utilization {u} out of range");
    }
}
