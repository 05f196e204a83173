//! **Fig. 8** — per-class F1 on the JD-like workload (ε = 8, k = 20).
//!
//! The JD classes are heavily imbalanced (850k/4M/3M/314k/170k proportions);
//! the paper's observation: classes 2-3 (large) are easy for everyone,
//! classes 4-5 (tiny) defeat PTJ — which cannot exploit globally frequent
//! items — while the optimized PTS still produces results there.
//!
//! Run: `cargo bench -p mcim-bench --bench fig8_topk_per_class`

use mcim_bench::workloads::jd;
use mcim_bench::{fmt, mean, run_trials, BenchEnv, Table};
use mcim_metrics::f1_at_k;
use mcim_oracles::exec::Exec;
use mcim_oracles::stream::SliceSource;
use mcim_oracles::Eps;
use mcim_topk::{execute, TopKConfig, TopKMethod};

fn main() {
    let env = BenchEnv::from_env(3);
    env.announce("Fig. 8: per-class F1 on JD-like (eps = 8, k = 20)");
    let k = 20;
    let ds = jd(env.scale);
    let truth = ds.true_top_k(k);
    let config = TopKConfig::new(k, Eps::new(8.0).unwrap());
    let sizes = ds.class_sizes();
    println!(
        "class sizes: {:?} (paper: 850k/4m/3m/314k/170k proportions)\n",
        sizes
    );

    let mut table = Table::new(
        "fig8_jd_per_class_f1",
        &[
            "class",
            "size",
            "HEC",
            "PTJ",
            "PTJ-Shuffling+VP",
            "PTS",
            "PTS-Shuffling+VP+CP",
        ],
    );
    let methods = TopKMethod::fig7_set();
    // per_class_scores[method][class]
    let mut per_class_scores = vec![vec![0.0f64; 5]; methods.len()];
    for (mi, method) in methods.iter().enumerate() {
        let trial_scores = run_trials(env.trials, |trial| {
            let plan = Exec::seeded(0xF168 ^ (trial * 31)).threads(1);
            let result = execute(
                *method,
                config,
                ds.domains,
                &plan,
                SliceSource::new(&ds.pairs),
            )
            .expect("mine");
            (0..5)
                .map(|c| f1_at_k(&result.per_class[c], &truth[c]))
                .collect::<Vec<f64>>()
        });
        for c in 0..5 {
            per_class_scores[mi][c] = mean(&trial_scores.iter().map(|t| t[c]).collect::<Vec<_>>());
        }
    }
    for c in 0..5usize {
        let mut row = vec![format!("{}", c + 1), format!("{}", sizes[c])];
        for scores in &per_class_scores {
            row.push(fmt(scores[c]));
        }
        table.push(row);
    }
    table.print_and_save().expect("write results");
    println!(
        "Expected shape (paper Fig. 8): large classes 2-3 score highest for\n\
         all methods; on the tiny classes 4-5 PTJ collapses while the\n\
         PTS-based optimized method retains utility via global candidates."
    );
}
