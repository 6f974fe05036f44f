//! Electrostatic global placement and Abacus row legalization.
//!
//! CR&P is a *refinement* pass: it co-operates with the global router to
//! improve an existing placement. This crate supplies the placement it
//! refines, from nothing but a netlist — the generator-independent
//! scenario axis the flow was missing:
//!
//! 1. **Global placement** ([`GlobalPlacer`]) — the ePlace-family
//!    electrostatic formulation. Cell area becomes charge on a bin grid;
//!    the density penalty is the potential energy of that charge under
//!    the discrete Poisson equation (solved FFT-free with a separable
//!    naive DCT, exact at our grid sizes); wirelength is the
//!    weighted-average smooth approximation of HPWL; the two gradients
//!    drive a Nesterov-accelerated descent with a per-cell
//!    preconditioner and a monotone density-weight schedule.
//! 2. **Legalization** ([`legalize_abacus`]) — an Abacus-style row
//!    legalizer: cells are processed in x order, appended to per-row
//!    clusters whose quadratic displacement cost has a closed-form
//!    optimal position, and merged until no clusters overlap. It scales
//!    past the windowed ILP legalizer and never moves fixed cells.
//! 3. **Handoff** ([`place`]) — runs both stages and leaves the design
//!    legally placed, ready for `crp-grid` routing and `crp-core`
//!    refinement. [`strip_placement`] erases the incoming placement
//!    first, proving the cold-start claim mechanically.
//!
//! Determinism is the same contract as the rest of the workspace: all
//! parallel work dispatches through `crp_core::run_indexed` (results
//! merged by index), every f64 reduction that reaches a result runs
//! through `crp_geom::sum_ordered` over a fixed-order view, and the only
//! randomness (the initial spreading jitter) flows through
//! `crp_core::ReplayRng`, so placer output is bit-identical for every
//! thread count and resumable from a [`GpState`] snapshot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod density;
mod error;
pub mod legalize;
mod model;
mod place;
mod placer;
mod wirelength;

pub use config::GpConfig;
pub use error::GpError;
pub use legalize::{legalize_abacus, AbacusStats};
pub use place::{place, strip_placement, PlaceReport};
pub use placer::{GlobalPlacer, GpIterStats, GpState};
