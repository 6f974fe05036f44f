//! The Nesterov-accelerated electrostatic placer.
//!
//! One iteration evaluates the combined objective gradient at the
//! *reference* point `v` — weighted-average wirelength gradient plus
//! `lambda` times the density field force, divided by a per-cell
//! preconditioner `max(1, pins + lambda*charge)` — then takes the
//! accelerated step of ePlace's Algorithm 2:
//!
//! ```text
//! u'   = clamp(v - eta * g(v))                    (major solution)
//! a'   = (1 + sqrt(4a^2 + 1)) / 2
//! v'   = clamp(u' + ((a - 1) / a') * (u' - u))    (reference)
//! eta  = |v - v_prev| / |g(v) - g(v_prev)|        (Lipschitz estimate)
//! ```
//!
//! `lambda` starts at `|grad W|_1 / |grad D|_1` (the two terms balanced)
//! and grows by a fixed factor each iteration — a monotone schedule, so
//! the density term steadily wins and the placement spreads. The
//! iteration count is fixed by config: no adaptive early-out, no
//! wall-clock coupling, nothing schedule-dependent.
//!
//! Everything the next iteration needs lives in [`GpState`]: a resumed
//! placer continues bit-identically from a snapshot, which is exactly
//! what the serve daemon's `place` jobs checkpoint.

use crate::config::GpConfig;
use crate::density::DensityGrid;
use crate::error::GpError;
use crate::model::PlaceModel;
use crate::wirelength::wl_grad;
use crp_core::ReplayRng;
use crp_geom::sum_ordered;
use crp_netlist::{CellId, Design};
use rand::Rng;

/// Complete optimizer state between iterations — the `place` job
/// checkpoint payload. All vectors are indexed by movable cell (cell-id
/// order); restoring a snapshot into a placer built from the same
/// netlist and config resumes bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct GpState {
    /// Iterations completed.
    pub iter: usize,
    /// Density weight; `0.0` until the first iteration computes the
    /// balancing initial value.
    pub lambda: f64,
    /// Nesterov momentum parameter `a_k`.
    pub ak: f64,
    /// Last accepted step length (`0.0` before the first step).
    pub eta: f64,
    /// Major solution, x centers.
    pub u_x: Vec<f64>,
    /// Major solution, y centers.
    pub u_y: Vec<f64>,
    /// Reference point, x centers.
    pub v_x: Vec<f64>,
    /// Reference point, y centers.
    pub v_y: Vec<f64>,
    /// Previous reference point, x (Lipschitz estimate numerator).
    pub v_prev_x: Vec<f64>,
    /// Previous reference point, y.
    pub v_prev_y: Vec<f64>,
    /// Preconditioned gradient at the previous reference, x.
    pub g_prev_x: Vec<f64>,
    /// Preconditioned gradient at the previous reference, y.
    pub g_prev_y: Vec<f64>,
    /// Seed the initial jitter was drawn with.
    pub rng_seed: u64,
    /// Draws consumed from that seed (the full `ReplayRng` state).
    pub rng_draws: u64,
}

/// Per-iteration metrics, in solver order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpIterStats {
    /// Iteration index this step computed (0-based).
    pub iter: usize,
    /// Smooth (WA) wirelength at the evaluated reference point.
    pub wl: f64,
    /// Exact HPWL at the evaluated reference point.
    pub hpwl: f64,
    /// Density overflow fraction at the evaluated reference point.
    pub overflow: f64,
    /// Density weight used this iteration.
    pub lambda: f64,
}

/// The electrostatic global placer over one design.
pub struct GlobalPlacer {
    model: PlaceModel,
    grid: DensityGrid,
    cfg: GpConfig,
    /// Charge per movable, bin-area units.
    charge: Vec<f64>,
    state: GpState,
}

impl GlobalPlacer {
    /// Builds a placer with a fresh initial state: movable cells at the
    /// die center plus a deterministic jitter of up to one bin, drawn
    /// through [`ReplayRng`] in cell-id order. The *incoming* movable
    /// positions are deliberately ignored — placement output is a
    /// function of netlist, config, and seed alone, which is the
    /// netlist-only cold-start guarantee.
    #[must_use]
    pub fn new(design: &Design, cfg: GpConfig) -> GlobalPlacer {
        let model = PlaceModel::build(design);
        let bins = cfg.effective_bins(model.len());
        let grid = DensityGrid::new(&model, bins);
        let charge: Vec<f64> = (0..model.len()).map(|i| grid.charge(&model, i)).collect();

        let mut rng = ReplayRng::new(cfg.seed);
        let cx = (model.die.0 + model.die.2) * 0.5;
        let cy = (model.die.1 + model.die.3) * 0.5;
        let mut u_x = Vec::with_capacity(model.len());
        let mut u_y = Vec::with_capacity(model.len());
        for i in 0..model.len() {
            let jx: f64 = rng.gen_range(-1.0..1.0);
            let jy: f64 = rng.gen_range(-1.0..1.0);
            u_x.push(model.clamp_x(i, cx + jx * grid.bin_w));
            u_y.push(model.clamp_y(i, cy + jy * grid.bin_h));
        }
        let state = GpState {
            iter: 0,
            lambda: 0.0,
            ak: 1.0,
            eta: 0.0,
            v_x: u_x.clone(),
            v_y: u_y.clone(),
            v_prev_x: u_x.clone(),
            v_prev_y: u_y.clone(),
            g_prev_x: vec![0.0; model.len()],
            g_prev_y: vec![0.0; model.len()],
            u_x,
            u_y,
            rng_seed: rng.seed(),
            rng_draws: rng.draws(),
        };
        GlobalPlacer {
            model,
            grid,
            cfg,
            charge,
            state,
        }
    }

    /// Rebuilds a placer around a checkpointed [`GpState`]. The design
    /// and config must be the ones the snapshot was taken with; vector
    /// lengths and scalar ranges are validated, netlist identity is the
    /// caller's contract (the serve daemon rebuilds the design from the
    /// same workload spec).
    pub fn resume(design: &Design, cfg: GpConfig, state: GpState) -> Result<GlobalPlacer, GpError> {
        let mut placer = GlobalPlacer::new(design, cfg);
        let n = placer.model.len();
        let lens = [
            state.u_x.len(),
            state.u_y.len(),
            state.v_x.len(),
            state.v_y.len(),
            state.v_prev_x.len(),
            state.v_prev_y.len(),
            state.g_prev_x.len(),
            state.g_prev_y.len(),
        ];
        if lens.iter().any(|&l| l != n) {
            return Err(GpError::BadState(format!(
                "state vectors sized {lens:?}, design has {n} movable cells"
            )));
        }
        if !(state.lambda.is_finite() && state.lambda >= 0.0) {
            return Err(GpError::BadState(format!("lambda {}", state.lambda)));
        }
        if !(state.ak.is_finite() && state.ak >= 1.0) {
            return Err(GpError::BadState(format!("ak {}", state.ak)));
        }
        placer.state = state;
        Ok(placer)
    }

    /// The current optimizer state (checkpoint payload).
    #[must_use]
    pub fn state(&self) -> &GpState {
        &self.state
    }

    /// Whether the configured iteration budget is exhausted.
    #[must_use]
    pub fn done(&self) -> bool {
        self.state.iter >= self.cfg.iterations
    }

    /// Major-solution cell centers, `(cell, x, y)` in cell-id order.
    #[must_use]
    pub fn positions(&self) -> Vec<(CellId, f64, f64)> {
        (0..self.model.len())
            .map(|i| (self.model.cells[i], self.state.u_x[i], self.state.u_y[i]))
            .collect()
    }

    /// Combined preconditioned gradient at `(x, y)`, plus metrics.
    /// Initializes `lambda` on the first ever evaluation.
    fn grad_at(&mut self, x: &[f64], y: &[f64]) -> (Vec<f64>, Vec<f64>, GpIterStats) {
        let threads = crp_core::resolve_threads(self.cfg.threads);
        let gamma_x = self.cfg.gamma_bins * self.grid.bin_w;
        let gamma_y = self.cfg.gamma_bins * self.grid.bin_h;
        let wl = wl_grad(&self.model, x, y, gamma_x, gamma_y, threads);

        let rho = self.grid.rasterize(&self.model, x, y);
        let field = self.grid.field(&rho, threads);
        let n = self.model.len();
        let mut dgx = vec![0.0; n];
        let mut dgy = vec![0.0; n];
        for i in 0..n {
            let (ex, ey) = self.grid.sample(&field, x[i], y[i]);
            // dD/dx = -q * E: energy falls along the field.
            dgx[i] = -self.charge[i] * ex;
            dgy[i] = -self.charge[i] * ey;
        }

        if self.state.lambda == 0.0 {
            let wl_l1 = sum_ordered((0..n).map(|i| wl.gx[i].abs() + wl.gy[i].abs()));
            let d_l1 = sum_ordered((0..n).map(|i| dgx[i].abs() + dgy[i].abs()));
            self.state.lambda = (wl_l1 / d_l1.max(1e-12)).max(1e-12);
        }
        let lambda = self.state.lambda;

        let mut gx = vec![0.0; n];
        let mut gy = vec![0.0; n];
        for i in 0..n {
            let pre = (self.model.pin_count[i] + lambda * self.charge[i]).max(1.0);
            gx[i] = (wl.gx[i] + lambda * dgx[i]) / pre;
            gy[i] = (wl.gy[i] + lambda * dgy[i]) / pre;
        }
        let stats = GpIterStats {
            iter: self.state.iter,
            wl: wl.wl,
            hpwl: wl.hpwl,
            overflow: field.overflow,
            lambda,
        };
        (gx, gy, stats)
    }

    /// Runs one Nesterov iteration; returns the metrics evaluated at the
    /// reference point it stepped from. No-op (bar the returned metrics)
    /// once [`done`](Self::done).
    pub fn step(&mut self) -> GpIterStats {
        let (gx, gy, stats) = {
            let v_x = self.state.v_x.clone();
            let v_y = self.state.v_y.clone();
            self.grad_at(&v_x, &v_y)
        };
        if self.done() {
            return stats;
        }
        let n = self.model.len();

        // Lipschitz step estimate from the previous reference/gradient
        // pair; the first iteration bootstraps with a quarter-bin step.
        let eta = if self.state.iter == 0 {
            let mut g_inf: f64 = 0.0;
            for i in 0..n {
                g_inf = g_inf.max(gx[i].abs()).max(gy[i].abs());
            }
            0.25 * self.grid.bin_w.max(self.grid.bin_h) / g_inf.max(1e-12)
        } else {
            let dv = sum_ordered((0..n).map(|i| {
                let dx = self.state.v_x[i] - self.state.v_prev_x[i];
                let dy = self.state.v_y[i] - self.state.v_prev_y[i];
                dx * dx + dy * dy
            }))
            .sqrt();
            let dg = sum_ordered((0..n).map(|i| {
                let dx = gx[i] - self.state.g_prev_x[i];
                let dy = gy[i] - self.state.g_prev_y[i];
                dx * dx + dy * dy
            }))
            .sqrt();
            if dg > 1e-12 {
                dv / dg
            } else {
                self.state.eta
            }
        };

        let ak = self.state.ak;
        let ak_next = (1.0 + (4.0 * ak * ak + 1.0).sqrt()) * 0.5;
        let coef = (ak - 1.0) / ak_next;

        let mut u_next_x = vec![0.0; n];
        let mut u_next_y = vec![0.0; n];
        let mut v_next_x = vec![0.0; n];
        let mut v_next_y = vec![0.0; n];
        for i in 0..n {
            u_next_x[i] = self.model.clamp_x(i, self.state.v_x[i] - eta * gx[i]);
            u_next_y[i] = self.model.clamp_y(i, self.state.v_y[i] - eta * gy[i]);
            v_next_x[i] = self
                .model
                .clamp_x(i, u_next_x[i] + coef * (u_next_x[i] - self.state.u_x[i]));
            v_next_y[i] = self
                .model
                .clamp_y(i, u_next_y[i] + coef * (u_next_y[i] - self.state.u_y[i]));
        }

        self.state.v_prev_x = std::mem::replace(&mut self.state.v_x, v_next_x);
        self.state.v_prev_y = std::mem::replace(&mut self.state.v_y, v_next_y);
        self.state.u_x = u_next_x;
        self.state.u_y = u_next_y;
        self.state.g_prev_x = gx;
        self.state.g_prev_y = gy;
        self.state.ak = ak_next;
        self.state.eta = eta;
        self.state.lambda *= self.cfg.lambda_growth;
        self.state.iter += 1;
        stats
    }

    /// Runs to the configured iteration count, returning one
    /// [`GpIterStats`] per executed iteration.
    pub fn run(&mut self) -> Vec<GpIterStats> {
        let mut out = Vec::new();
        while !self.done() {
            out.push(self.step());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_geom::{Point, Rect};
    use crp_netlist::{DesignBuilder, MacroCell};

    /// A small multi-row design with arithmetic (seed-free) connectivity.
    fn small_design() -> Design {
        let mut b = DesignBuilder::new("gp-small", 1000);
        let inv = b.add_macro(MacroCell::new("INV", 200, 2000).with_pin("A", 50, 1000, 1));
        let buf = b.add_macro(
            MacroCell::new("BUF", 400, 2000)
                .with_pin("A", 100, 1000, 1)
                .with_pin("Z", 300, 1000, 1),
        );
        b.die(Rect::new(Point::new(0, 0), Point::new(12_000, 16_000)));
        b.add_rows(8, 60, Point::new(0, 0));
        let mut cells = Vec::new();
        for k in 0..24 {
            let m = if k % 3 == 0 { buf } else { inv };
            // Clump everything into one corner so the density term has
            // real work to do.
            let x = (k % 4) as i64 * 600;
            let y = (k / 4) as i64 % 4 * 2000;
            cells.push(b.add_cell(format!("u{k}"), m, Point::new(x, y)));
        }
        for k in 0..20 {
            let n = b.add_net(format!("n{k}"));
            b.connect(n, cells[k % 24], "A");
            b.connect(n, cells[(k * 7 + 3) % 24], "A");
            if k % 4 == 0 {
                b.connect(n, cells[(k * 5 + 11) % 24], "A");
            }
        }
        b.build()
    }

    #[test]
    fn spreads_and_keeps_cells_inside_die() {
        let design = small_design();
        let mut placer = GlobalPlacer::new(
            &design,
            GpConfig {
                iterations: 40,
                threads: 1,
                ..GpConfig::default()
            },
        );
        let stats = placer.run();
        assert_eq!(stats.len(), 40);
        let first = stats[0].overflow;
        let last = stats[stats.len() - 1].overflow;
        assert!(last < first, "overflow did not improve: {first} -> {last}");
        for (i, (_, x, y)) in placer.positions().into_iter().enumerate() {
            assert!(x.is_finite() && y.is_finite(), "cell {i} not finite");
            assert!((0.0..=12_000.0).contains(&x), "cell {i} x {x}");
            assert!((0.0..=16_000.0).contains(&y), "cell {i} y {y}");
        }
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let design = small_design();
        let run = |threads: usize| {
            let mut placer = GlobalPlacer::new(
                &design,
                GpConfig {
                    iterations: 12,
                    threads,
                    ..GpConfig::default()
                },
            );
            placer.run();
            placer
                .positions()
                .into_iter()
                .map(|(c, x, y)| (c, x.to_bits(), y.to_bits()))
                .collect::<Vec<_>>()
        };
        let one = run(1);
        for threads in [4, 8] {
            assert_eq!(one, run(threads), "threads={threads} diverged");
        }
    }

    #[test]
    fn resume_from_snapshot_is_bit_identical() {
        let design = small_design();
        let cfg = GpConfig {
            iterations: 10,
            threads: 2,
            ..GpConfig::default()
        };
        let mut full = GlobalPlacer::new(&design, cfg.clone());
        full.run();

        let mut first = GlobalPlacer::new(&design, cfg.clone());
        for _ in 0..4 {
            first.step();
        }
        let snapshot = first.state().clone();
        let mut resumed = GlobalPlacer::resume(&design, cfg, snapshot).unwrap();
        resumed.run();
        assert_eq!(full.state(), resumed.state());
    }

    #[test]
    fn resume_rejects_mismatched_state() {
        let design = small_design();
        let cfg = GpConfig::default();
        let mut state = GlobalPlacer::new(&design, cfg.clone()).state().clone();
        state.u_x.pop();
        assert!(matches!(
            GlobalPlacer::resume(&design, cfg, state),
            Err(GpError::BadState(_))
        ));
    }

    #[test]
    fn initial_placement_ignores_input_positions() {
        let design = small_design();
        let mut moved = design.clone();
        let ids: Vec<_> = moved.cell_ids().collect();
        for id in ids {
            if !moved.cell(id).fixed {
                moved.move_cell(id, Point::new(0, 0), crp_geom::Orientation::N);
            }
        }
        let cfg = GpConfig {
            iterations: 6,
            threads: 1,
            ..GpConfig::default()
        };
        let mut a = GlobalPlacer::new(&design, cfg.clone());
        let mut b = GlobalPlacer::new(&moved, cfg);
        a.run();
        b.run();
        assert_eq!(a.state(), b.state());
    }
}
