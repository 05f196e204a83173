//! **Fig. 5** — empirical variance analysis of the PTS and PTS-CP
//! estimators on SYN1/SYN2 at ε = 1.
//!
//! * Fig. 5(a): vary the label-item correlation strength (PMI) at fixed
//!   class size `n` and item total `f(I)` (SYN1) — variance barely moves,
//!   because `n` and `N` dominate Eq. (5).
//! * Fig. 5(b): vary the class size `n` at fixed `f(C,I)` (SYN2) —
//!   variance grows linearly with `n`.
//!
//! Run: `cargo bench -p mcim-bench --bench fig5_variance`

use mcim_bench::{fmt, run_trials, BenchEnv, Scale, Table};
use mcim_core::{Framework, FrequencyTable};
use mcim_datasets::{syn1, syn2};
use mcim_metrics::{pmi, RunningMoments};
use mcim_oracles::exec::Exec;
use mcim_oracles::stream::SliceSource;
use mcim_oracles::Eps;

fn empirical_variance(
    framework: Framework,
    ds: &mcim_datasets::Dataset,
    truth: &FrequencyTable,
    targets: &[(u32, u32)],
    trials: usize,
) -> Vec<f64> {
    let eps = Eps::new(1.0).unwrap();
    let per_trial: Vec<Vec<f64>> = run_trials(trials, |trial| {
        let plan = Exec::seeded(0xF165 ^ trial).threads(1);
        let result = framework
            .execute(eps, ds.domains, &plan, SliceSource::new(&ds.pairs))
            .expect("framework run");
        targets
            .iter()
            .map(|&(c, i)| result.table.get(c, i))
            .collect()
    });
    targets
        .iter()
        .enumerate()
        .map(|(idx, &(c, i))| {
            let mut rm = RunningMoments::new();
            for t in &per_trial {
                rm.push(t[idx]);
            }
            // The paper's estimator: Var = (1/t)·Σ(f̂ − f)².
            rm.mse_about(truth.get(c, i))
        })
        .collect()
}

fn main() {
    let env = BenchEnv::from_env(100);
    env.announce("Fig. 5: empirical variance (SYN1/SYN2, eps = 1)");
    let scale = match env.scale {
        Scale::Small => 0.03,
        Scale::Paper => 1.0,
    };

    // ---- Fig. 5(a): SYN1, varying f(C,I) (and hence PMI) in class 0. ----
    let ds = syn1(scale, 0x51);
    let truth = ds.ground_truth();
    let n_total: f64 = ds.len() as f64;
    let n_class = truth.class_total(0);
    let targets: Vec<(u32, u32)> = (0..4).map(|i| (0u32, i)).collect();
    let pts = empirical_variance(
        Framework::Pts { label_frac: 0.5 },
        &ds,
        &truth,
        &targets,
        env.trials,
    );
    let cp = empirical_variance(
        Framework::PtsCp { label_frac: 0.5 },
        &ds,
        &truth,
        &targets,
        env.trials,
    );
    let mut table = Table::new(
        "fig5a_variance_vs_pmi",
        &["f(C,I)", "PMI", "Var PTS", "Var PTS-CP"],
    );
    let mut order: Vec<usize> = (0..targets.len()).collect();
    order.sort_by(|&a, &b| {
        truth
            .get(0, targets[a].1)
            .partial_cmp(&truth.get(0, targets[b].1))
            .unwrap()
    });
    for idx in order {
        let (c, i) = targets[idx];
        let f = truth.get(c, i);
        let p = pmi(f, n_class, truth.item_total(i), n_total);
        table.push(vec![fmt(f), fmt(p), fmt(pts[idx]), fmt(cp[idx])]);
    }
    table.print_and_save().expect("write results");
    println!("Expected shape: variance roughly flat in PMI (class size and N dominate).\n");

    // ---- Fig. 5(b): SYN2, varying class size n at fixed f(C,I). ---------
    let ds = syn2(scale, 0x52);
    let truth = ds.ground_truth();
    let targets: Vec<(u32, u32)> = (0..4).map(|c| (c, 0u32)).collect();
    let pts = empirical_variance(
        Framework::Pts { label_frac: 0.5 },
        &ds,
        &truth,
        &targets,
        env.trials,
    );
    let cp = empirical_variance(
        Framework::PtsCp { label_frac: 0.5 },
        &ds,
        &truth,
        &targets,
        env.trials,
    );
    let mut table = Table::new("fig5b_variance_vs_n", &["n", "Var PTS", "Var PTS-CP"]);
    for (idx, &(c, _)) in targets.iter().enumerate() {
        table.push(vec![fmt(truth.class_total(c)), fmt(pts[idx]), fmt(cp[idx])]);
    }
    table.print_and_save().expect("write results");
    println!("Expected shape: variance grows with n; PTS-CP sits below PTS.");
}
