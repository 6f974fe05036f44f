//! Criterion microbenchmarks of the flow's kernels: edge-cost evaluation,
//! Steiner-tree construction, pattern routing, maze routing, the legalizer
//! ILP, and one full CR&P iteration.
//!
//! ```text
//! cargo bench -p crp-bench
//! ```

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use crp_core::{CrpConfig, Legalizer};
use crp_geom::Point;
use crp_grid::{Edge, GridConfig, RouteGrid};
use crp_ilp::{Model, SolveLimits};
use crp_netlist::{CellId, Design};
use crp_router::{maze_route, pattern_route_tree, price_net, GlobalRouter, PinNode, RouterConfig};
use crp_rsmt::rsmt;
use crp_workload::ispd18_profiles;
use std::collections::BTreeMap;
use std::hint::black_box;

fn fixture() -> (Design, RouteGrid) {
    let design = ispd18_profiles()[4].scaled(400.0).generate();
    let grid = RouteGrid::new(&design, GridConfig::default());
    (design, grid)
}

fn bench_edge_cost(c: &mut Criterion) {
    let (_design, grid) = fixture();
    let edges: Vec<Edge> = grid.planar_edges().take(1024).collect();
    c.bench_function("grid/edge_cost_1024", |b| {
        b.iter(|| {
            let mut sum = 0.0;
            for &e in &edges {
                sum += grid.cost(black_box(e));
            }
            black_box(sum)
        })
    });
}

fn bench_rsmt(c: &mut Criterion) {
    let terms8: Vec<Point> = (0..8)
        .map(|i| Point::new((i * 37) % 100, (i * 61) % 100))
        .collect();
    c.bench_function("rsmt/8_terminals", |b| {
        b.iter(|| black_box(rsmt(black_box(&terms8))))
    });
}

fn bench_pattern_route(c: &mut Criterion) {
    let (_design, grid) = fixture();
    let (nx, ny, _) = grid.dims();
    let pins = [
        PinNode::new(1, 1, 0),
        PinNode::new(nx - 2, 2, 0),
        PinNode::new(3, ny - 2, 0),
    ];
    let history = BTreeMap::new();
    c.bench_function("router/pattern_route_3pin", |b| {
        b.iter(|| black_box(pattern_route_tree(&grid, black_box(&pins), &history, 0.0)))
    });
    c.bench_function("router/price_net_3pin", |b| {
        b.iter(|| black_box(price_net(&grid, black_box(&pins))))
    });
}

fn bench_maze(c: &mut Criterion) {
    let (_design, grid) = fixture();
    let (nx, ny, _) = grid.dims();
    let history = BTreeMap::new();
    c.bench_function("router/maze_corner_to_corner", |b| {
        b.iter(|| {
            black_box(maze_route(
                &grid,
                &[(0, 0, 0)],
                &[(nx - 1, ny - 1, 0)],
                &history,
                0.0,
            ))
        })
    });
}

fn bench_legalizer(c: &mut Criterion) {
    let (design, _grid) = fixture();
    let config = CrpConfig::default();
    let legalizer = Legalizer::new(&design, &config);
    let cell = CellId::from_index(design.num_cells() / 2);
    c.bench_function("crp/legalizer_candidates", |b| {
        b.iter(|| black_box(legalizer.candidates_for(black_box(cell))))
    });
}

fn bench_ilp(c: &mut Criterion) {
    c.bench_function("ilp/20_groups_sparse_conflicts", |b| {
        b.iter_batched(
            || {
                let mut m = Model::new();
                let mut groups = Vec::new();
                for g in 0..20 {
                    let vars: Vec<_> = (0..5)
                        .map(|i| m.add_var(((g * 7 + i * 3) % 13) as f64))
                        .collect();
                    groups.push(vars);
                }
                for g in 0..19 {
                    m.add_conflict(groups[g][0], groups[g + 1][0]);
                }
                for vars in &groups {
                    m.add_exactly_one(vars.iter().copied());
                }
                m
            },
            |m| black_box(m.solve(SolveLimits::default())),
            BatchSize::SmallInput,
        )
    });
}

fn bench_global_route(c: &mut Criterion) {
    let design = ispd18_profiles()[0].scaled(400.0).generate();
    c.bench_function("router/route_all_test1_scaled", |b| {
        b.iter_batched(
            || RouteGrid::new(&design, GridConfig::default()),
            |mut grid| {
                let mut router = GlobalRouter::new(RouterConfig::default());
                black_box(router.route_all(&design, &mut grid))
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_estimate_phase(c: &mut Criterion) {
    use crp_core::{estimate_candidates, label_critical_cells, Candidate, PriceCache};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    // Congested workload (the profile the paper's congestion plots use):
    // pricing here is dominated by discounted pattern routing.
    let design = ispd18_profiles()[6].scaled(400.0).generate();
    let mut grid = RouteGrid::new(&design, GridConfig::default());
    let mut router = GlobalRouter::new(RouterConfig::default());
    let routing = router.route_all(&design, &mut grid);
    let config = CrpConfig::default();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let critical = label_critical_cells(
        &design,
        &grid,
        &routing,
        &config,
        &HashSet::new(),
        &HashSet::new(),
        &mut rng,
    );
    let legalizer = Legalizer::new(&design, &config);
    let per_cell: Vec<Vec<Candidate>> = critical
        .iter()
        .map(|&cell| {
            let mut cands = vec![Candidate::stay(&design, cell)];
            cands.extend(legalizer.candidates_for(cell));
            cands
        })
        .collect();

    // Work stealing + per-worker scratch + persistent price cache. The
    // cache stays warm across bench iterations, mirroring the flow's
    // steady state where most nets' congestion is untouched between
    // iterations.
    let cache = PriceCache::new();
    c.bench_function("crp/estimate_work_stealing_cached", |b| {
        b.iter_batched(
            || per_cell.clone(),
            |mut pc| {
                estimate_candidates(&design, &grid, &routing, &mut pc, &config, Some(&cache));
                black_box(pc)
            },
            BatchSize::LargeInput,
        )
    });
    let (h, m) = (cache.hits(), cache.misses());
    #[allow(clippy::cast_precision_loss)]
    let rate = if h + m > 0 {
        h as f64 / (h + m) as f64 * 100.0
    } else {
        0.0
    };
    println!("estimate price cache: {h} hits / {m} misses ({rate:.1}% hit rate)");
}

fn bench_crp_iteration(c: &mut Criterion) {
    use crp_core::Crp;
    let design0 = ispd18_profiles()[0].scaled(400.0).generate();
    c.bench_function("crp/one_iteration_test1_scaled", |b| {
        b.iter_batched(
            || {
                let design = design0.clone();
                let mut grid = RouteGrid::new(&design, GridConfig::default());
                let mut router = GlobalRouter::new(RouterConfig::default());
                let routing = router.route_all(&design, &mut grid);
                (design, grid, router, routing)
            },
            |(mut design, mut grid, mut router, mut routing)| {
                let mut crp = Crp::new(CrpConfig::default());
                black_box(crp.run_iteration(0, &mut design, &mut grid, &mut router, &mut routing))
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_check_overhead(c: &mut Criterion) {
    use crp_core::{CheckLevel, Crp};
    // The invariant oracle's overhead gate: `Cheap` must stay within a
    // few percent of `Off` on the congested profile-6 flow iteration.
    let design0 = ispd18_profiles()[6].scaled(400.0).generate();
    for (name, level) in [
        ("crp/profile6_iteration_check_off", CheckLevel::Off),
        ("crp/profile6_iteration_check_cheap", CheckLevel::Cheap),
    ] {
        c.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let design = design0.clone();
                    let mut grid = RouteGrid::new(&design, GridConfig::default());
                    let mut router = GlobalRouter::new(RouterConfig::default());
                    let routing = router.route_all(&design, &mut grid);
                    (design, grid, router, routing)
                },
                |(mut design, mut grid, mut router, mut routing)| {
                    let mut crp = Crp::new(CrpConfig {
                        check_level: level,
                        ..CrpConfig::default()
                    });
                    black_box(crp.run_iteration(
                        0,
                        &mut design,
                        &mut grid,
                        &mut router,
                        &mut routing,
                    ))
                },
                BatchSize::LargeInput,
            )
        });
    }
}

criterion_group! {
    name = benches;
    // Short measurement windows: the kernels are microsecond-scale and the
    // flow-level benches are batched; 20 samples give stable medians.
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1));
    targets =
        bench_edge_cost,
        bench_rsmt,
        bench_pattern_route,
        bench_maze,
        bench_legalizer,
        bench_ilp,
        bench_global_route,
        bench_estimate_phase,
        bench_crp_iteration,
        bench_check_overhead
}
criterion_main!(benches);
