//! **Fig. 6** — multi-class frequency-estimation RMSE on the Diabetes-like
//! and Heart-Disease-like workloads, ε ∈ {0.5, …, 4}, frameworks HEC / PTJ
//! / PTS / PTS-CP.
//!
//! The paper's setup: users are partitioned by feature; each group mines
//! its feature's label-value pairs; we report the RMSE pooled over all
//! `(C, I)` cells of all groups.
//!
//! Run: `cargo bench -p mcim-bench --bench fig6_frequency_rmse`

use mcim_bench::{fmt, mean, run_trials, BenchEnv, Scale, Table};
use mcim_core::Framework;
use mcim_datasets::{diabetes_like, heart_like, GroupedDataset, RealConfig};
use mcim_oracles::exec::Exec;
use mcim_oracles::stream::SliceSource;
use mcim_oracles::Eps;

/// Pooled RMSE over every (class, item) cell of every feature group.
fn pooled_rmse(framework: Framework, eps: Eps, ds: &GroupedDataset, seed: u64) -> f64 {
    let mut sum_sq = 0.0;
    let mut cells = 0usize;
    for (g, group) in ds.groups.iter().enumerate() {
        let truth = group.ground_truth();
        let plan = Exec::seeded(seed.wrapping_add(g as u64)).threads(1);
        let result = framework
            .execute(eps, group.domains, &plan, SliceSource::new(&group.pairs))
            .expect("framework run");
        for (est, tru) in result.table.values().iter().zip(truth.values()) {
            sum_sq += (est - tru) * (est - tru);
        }
        cells += truth.values().len();
    }
    (sum_sq / cells as f64).sqrt()
}

fn main() {
    let env = BenchEnv::from_env(5);
    env.announce("Fig. 6: frequency-estimation RMSE (Diabetes-like, Heart-like)");
    let users = match env.scale {
        Scale::Small => 100_000,
        Scale::Paper => 100_000, // the real dataset's size — already modest
    };
    let heart_users = match env.scale {
        Scale::Small => 253_680,
        Scale::Paper => 253_680,
    };
    let datasets = [
        (
            "fig6a_diabetes_rmse",
            diabetes_like(RealConfig {
                users,
                items: 0,
                seed: 0xD1AB,
            }),
        ),
        (
            "fig6b_heart_rmse",
            heart_like(RealConfig {
                users: heart_users,
                items: 0,
                seed: 0x4EA7,
            }),
        ),
    ];
    let frameworks = Framework::fig6_set();
    for (name, ds) in &datasets {
        let mut table = Table::new(*name, &["eps", "HEC", "PTJ", "PTS", "PTS-CP"]);
        for eps_v in [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0] {
            let eps = Eps::new(eps_v).unwrap();
            let mut row = vec![format!("{eps_v}")];
            for fw in frameworks {
                let rmses = run_trials(env.trials, |trial| {
                    pooled_rmse(
                        fw,
                        eps,
                        ds,
                        0xF166 ^ (trial * 7919) ^ (eps_v * 100.0) as u64,
                    )
                });
                row.push(fmt(mean(&rmses)));
            }
            table.push(row);
        }
        println!(
            "dataset: {} ({} users over {} feature groups)",
            ds.name,
            ds.len(),
            ds.groups.len()
        );
        table.print_and_save().expect("write results");
    }
    println!(
        "Expected shape (paper Fig. 6): HEC worst by an order of magnitude;\n\
         PTS-CP below PTS especially at small ε; PTJ best or tied at larger ε."
    );
}
