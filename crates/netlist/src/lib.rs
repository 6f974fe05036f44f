//! Placed-design database for the CR&P physical-design toolkit.
//!
//! [`Design`] holds everything the flow needs about a placed circuit:
//! the technology ([`LayerInfo`], [`SiteInfo`], [`MacroCell`] library), the
//! floorplan ([`Row`]s and placement blockages), and the netlist proper
//! ([`Cell`]s, [`Net`]s, [`Pin`]s). It corresponds to the "database (db)"
//! the CR&P paper's algorithms read and update.
//!
//! Placement legality follows Eq. 5–8 of the paper: cells inside the die,
//! no overlaps, site alignment, row alignment with matching orientation.
//! [`check_legality`] reports every violation.
//!
//! # Examples
//!
//! ```
//! use crp_netlist::{Design, DesignBuilder, MacroCell};
//! use crp_geom::Point;
//!
//! let mut b = DesignBuilder::new("demo", 1000);
//! let site = b.site(200, 2000);
//! let inv = b.add_macro(MacroCell::new("INV", 1 * 200, 2000).with_pin("A", 50, 1000, 0).with_pin("Y", 150, 1000, 0));
//! b.add_rows(4, 10, Point::new(0, 0));
//! let u1 = b.add_cell("u1", inv, Point::new(0, 0));
//! let u2 = b.add_cell("u2", inv, Point::new(600, 2000));
//! let n = b.add_net("n1");
//! b.connect(n, u1, "Y");
//! b.connect(n, u2, "A");
//! let design: Design = b.build();
//! assert_eq!(design.num_cells(), 2);
//! assert!(crp_netlist::check_legality(&design).is_empty());
//! # let _ = site;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod design;
mod ids;
mod legal;
mod rowmap;
mod stats;
mod tech;

pub use builder::DesignBuilder;
pub use design::{Cell, Design, Net, Pin, PinOwner, Row};
pub use ids::{CellId, MacroId, NetId, PinId, RowId};
pub use legal::{check_legality, LegalityViolation};
pub use rowmap::RowMap;
pub use stats::{median_position, net_bounding_box, net_hpwl, total_hpwl, DesignStats};
pub use tech::{LayerInfo, MacroCell, MacroPin, SiteInfo};
