//! The paper's headline claims, as integration tests on scaled profiles:
//!
//! - CR&P improves detailed-routing vias (the dominant term) and does not
//!   add DRVs over the baseline (Table III);
//! - k = 10 improves at least as much as k = 1;
//! - CR&P beats the congestion-blind median-move baseline on congested
//!   designs (Section V.B's explanation).
//!
//! These run on small scaled designs so they are statistical smoke tests
//! of *direction*, not of the exact percentages (see EXPERIMENTS.md for
//! the full-scale numbers).

use crp_bench::{FlowOutcome, FlowRunner, Optimizer, Start};
use crp_workload::ispd18_profiles;

#[test]
fn crp_does_not_add_drvs() {
    let runner = FlowRunner::default();
    for idx in [1usize, 6] {
        let p = ispd18_profiles()[idx].scaled(300.0);
        let baseline = runner.run(&p, Start::Generator, Optimizer::Baseline);
        let k10 = runner.run(&p, Start::Generator, Optimizer::Crp(10));
        assert!(
            k10.score.drvs <= baseline.score.drvs,
            "{}: DRVs grew {} -> {}",
            p.name,
            baseline.score.drvs,
            k10.score.drvs
        );
    }
}

#[test]
fn crp_improves_vias_on_congested_profile() {
    let runner = FlowRunner::default();
    let p = ispd18_profiles()[6].scaled(300.0); // test7 analogue
    let baseline = runner.run(&p, Start::Generator, Optimizer::Baseline);
    let k10 = runner.run(&p, Start::Generator, Optimizer::Crp(10));
    assert!(
        k10.score.vias <= baseline.score.vias,
        "{}: vias {} -> {}",
        p.name,
        baseline.score.vias,
        k10.score.vias
    );
}

#[test]
fn more_iterations_do_not_hurt() {
    let runner = FlowRunner::default();
    let p = ispd18_profiles()[4].scaled(300.0); // test5 analogue
    let baseline = runner.run(&p, Start::Generator, Optimizer::Baseline);
    let k1 = runner.run(&p, Start::Generator, Optimizer::Crp(1));
    let k10 = runner.run(&p, Start::Generator, Optimizer::Crp(10));
    // Weighted score folds WL + vias + DRVs with the contest weights.
    assert!(k10.score.weighted <= k1.score.weighted * 1.001);
    assert!(k10.score.weighted <= baseline.score.weighted * 1.001);
}

#[test]
fn median_mover_completes_on_small_profiles() {
    let runner = FlowRunner::default();
    let p = ispd18_profiles()[1].scaled(300.0); // test2 analogue: sparse
    let median = runner.run(&p, Start::Generator, Optimizer::Median);
    assert_eq!(median.outcome, FlowOutcome::Completed);
    assert_eq!(median.detailed.drc.opens, 0);
}

#[test]
fn shape_survives_clustered_netlist_model() {
    // Robustness: the Table III direction must not be an artifact of the
    // proximity netlist model. Under the Rent-style clustered model the
    // weighted score must still not regress.
    use crp_workload::NetlistStyle;
    let runner = FlowRunner::default();
    let mut p = ispd18_profiles()[6].scaled(300.0);
    p.netlist_style = NetlistStyle::Clustered;
    let baseline = runner.run(&p, Start::Generator, Optimizer::Baseline);
    let k10 = runner.run(&p, Start::Generator, Optimizer::Crp(10));
    assert!(
        k10.score.weighted <= baseline.score.weighted * 1.001,
        "clustered model regressed: {} -> {}",
        baseline.score.weighted,
        k10.score.weighted
    );
}

#[test]
fn crp_runtime_scales_roughly_linearly_in_k() {
    // Figure 2's claim: "even after ten iterations this runtime increases
    // by a constant value and is not increased exponentially."
    let runner = FlowRunner::default();
    let p = ispd18_profiles()[3].scaled(300.0);
    let k2 = runner.run(&p, Start::Generator, Optimizer::Crp(2));
    let k8 = runner.run(&p, Start::Generator, Optimizer::Crp(8));
    let per_iter_2 = k2.opt_time.as_secs_f64() / 2.0;
    let per_iter_8 = k8.opt_time.as_secs_f64() / 8.0;
    // Later iterations are typically cheaper (history damping shrinks the
    // critical set); allow generous noise either way but reject blow-ups.
    assert!(
        per_iter_8 < per_iter_2 * 3.0,
        "per-iteration cost grew superlinearly: {per_iter_2:.4}s -> {per_iter_8:.4}s"
    );
}
