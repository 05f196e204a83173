//! Both forms of Algorithm 2's noise test must run end-to-end and agree in
//! the regime the paper discusses (imbalanced classes, few of them).

use mcim_core::{Domains, LabelItem};
use mcim_oracles::exec::Exec;
use mcim_oracles::stream::SliceSource;
use mcim_oracles::Eps;
use mcim_topk::{execute, NoiseTest, TopKConfig, TopKMethod};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn imbalanced_dataset(n: usize) -> (Domains, Vec<LabelItem>) {
    let domains = Domains::new(3, 64).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let data: Vec<LabelItem> = (0..n)
        .map(|u| {
            // 70% class 0, 25% class 1, 5% class 2; heavy head per class.
            let label = match u % 20 {
                0..=13 => 0,
                14..=18 => 1,
                _ => 2,
            };
            use rand::Rng;
            let item = (label * 20 + rng.random_range(0..4) + rng.random_range(0..4)) % 64;
            LabelItem::new(label, item)
        })
        .collect();
    (domains, data)
}

#[test]
fn both_noise_tests_mine_successfully() {
    let (domains, data) = imbalanced_dataset(90_000);
    let method = TopKMethod::PtsShuffled {
        validity: true,
        global: true,
        correlated: true,
    };
    for test in [NoiseTest::PaperRatio, NoiseTest::NoiseToValid] {
        let mut config = TopKConfig::new(3, Eps::new(6.0).unwrap());
        config.noise_test = test;
        let result = execute(
            method,
            config,
            domains,
            &Exec::seeded(7).threads(1),
            SliceSource::new(&data),
        )
        .unwrap();
        assert_eq!(result.per_class.len(), 3, "{test:?}");
        // The dominant class must be mined well under either test.
        let truth_top = 0u32; // class 0's head items live at 0..8
        assert!(
            result.per_class[0]
                .iter()
                .any(|&i| (truth_top..8).contains(&i)),
            "{test:?}: class 0 results {:?}",
            result.per_class[0]
        );
    }
}

#[test]
fn default_config_uses_noise_to_valid() {
    let config = TopKConfig::new(5, Eps::new(1.0).unwrap());
    assert_eq!(config.noise_test, NoiseTest::NoiseToValid);
}

#[test]
fn tests_agree_at_few_balanced_classes() {
    // c = 3, ε = 6 → p₁ large: neither test should trip, so results under
    // the same seed are identical (same CP/VP decisions ⇒ same RNG path).
    let (domains, data) = imbalanced_dataset(30_000);
    let method = TopKMethod::PtsShuffled {
        validity: true,
        global: true,
        correlated: true,
    };
    let run = |test: NoiseTest| {
        let mut config = TopKConfig::new(3, Eps::new(6.0).unwrap());
        config.noise_test = test;
        execute(
            method,
            config,
            domains,
            &Exec::seeded(99).threads(1),
            SliceSource::new(&data),
        )
        .unwrap()
        .per_class
    };
    assert_eq!(run(NoiseTest::PaperRatio), run(NoiseTest::NoiseToValid));
}
