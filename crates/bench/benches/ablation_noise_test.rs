//! **Design ablation (README "Deviations from the paper")** — the two
//! forms of Algorithm 2's noise test, on SYN3 with growing class counts
//! (ε = 4, k = 20).
//!
//! The paper's printed test `|D_C| > b·|D'_C|` never trips for uniform
//! classes, so the final CP round runs even when the routed groups are
//! almost pure label-flip noise (valid fraction p₁ → 0); the intent-based
//! noise-to-valid test falls back to VP there. This bench documents why the
//! library defaults to the latter.
//!
//! Run: `cargo bench -p mcim-bench --bench ablation_noise_test`

use mcim_bench::workloads::{evaluate_topk, syn_config};
use mcim_bench::{fmt, BenchEnv, Table};
use mcim_datasets::syn3;
use mcim_oracles::Eps;
use mcim_topk::{NoiseTest, TopKConfig, TopKMethod};

fn main() {
    let env = BenchEnv::from_env(2);
    env.announce("Ablation: Algorithm 2 noise-test variants (SYN3, eps = 4, k = 20)");
    let k = 20;
    let method = TopKMethod::PtsShuffled {
        validity: true,
        global: true,
        correlated: true,
    };
    let baseline = TopKMethod::PtsPem {
        validity: false,
        global: false,
    };
    let mut table = Table::new(
        "ablation_noise_test_f1",
        &[
            "classes",
            "PTS baseline",
            "CP w/ paper ratio test",
            "CP w/ noise-to-valid test",
        ],
    );
    for classes in [5u32, 10, 20, 50] {
        let ds = syn3(syn_config(env.scale, classes));
        let truth = ds.true_top_k(k);
        let mut row = vec![format!("{classes}")];
        let base = evaluate_topk(
            baseline,
            TopKConfig::new(k, Eps::new(4.0).unwrap()),
            &ds,
            &truth,
            env.trials,
            0xAB1A,
        );
        row.push(fmt(base.f1));
        for test in [NoiseTest::PaperRatio, NoiseTest::NoiseToValid] {
            let mut config = TopKConfig::new(k, Eps::new(4.0).unwrap());
            config.noise_test = test;
            let scores = evaluate_topk(method, config, &ds, &truth, env.trials, 0xAB1A);
            row.push(fmt(scores.f1));
        }
        table.push(row);
    }
    table.print_and_save().expect("write results");
    println!(
        "Expected shape: the two tests agree at few classes (both run CP);\n\
         at ≥ 20 uniform classes the printed test keeps CP alive on ~90%-noise\n\
         groups and falls below the baseline, while the noise-to-valid test\n\
         falls back to VP and stays at or above it."
    );
}
