//! Failure injection and edge-case robustness across the public API: a
//! production deployment sees malformed reports, degenerate domains and
//! pathological populations; none of them may panic or silently corrupt
//! estimates.

use multiclass_ldp::core::{
    CorrelatedPerturbation, PairReport, ValidityInput, ValidityPerturbation, VpAggregator,
};
use multiclass_ldp::oracles::{Aggregator, BitVec, Oracle, Report, UnaryEncoding};
use multiclass_ldp::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------- reports

#[test]
fn aggregators_reject_malformed_reports_without_state_damage() {
    let domains = Domains::new(3, 8).unwrap();
    let mech = CorrelatedPerturbation::with_total(Eps::new(2.0).unwrap(), domains).unwrap();
    let mut agg = mech.aggregator();
    let mut rng = StdRng::seed_from_u64(1);

    // Wrong label domain.
    let bad_label = PairReport {
        label: 99,
        bits: BitVec::zeros(9),
    };
    assert!(agg.absorb(&bad_label).is_err());
    // Wrong bit length.
    let bad_bits = PairReport {
        label: 0,
        bits: BitVec::zeros(4),
    };
    assert!(agg.absorb(&bad_bits).is_err());
    // State unchanged: rejected reports must not count.
    assert_eq!(agg.report_count(), 0);

    // A valid report still works afterwards.
    let ok = mech.privatize(LabelItem::new(0, 0), &mut rng).unwrap();
    agg.absorb(&ok).unwrap();
    assert_eq!(agg.report_count(), 1);
}

// -------------------------------------------------------- crafted reports

/// A crafted-report row: a mechanism and the report a malicious client
/// sends it.
enum Crafted {
    /// VP, sent all-ones vectors on an empty aggregator.
    Vp(ValidityPerturbation),
    /// An oracle at budget ε, sent a crafted report on top of honest ones.
    Oracle(f64, Oracle, Report),
}

/// Any client can send an arbitrary well-formed report (a poisoning
/// attempt, cf. Cao, Jia & Gong, USENIX Security 2021). Each row absorbs
/// `m` crafted reports and checks what they can move.
///
/// * VP: the flag bit routes an all-ones vector to the invalid bucket,
///   so no item count moves at all — exactly VP's design.
/// * Oracle aggregators: one report changes each support count by at
///   most 1 and `n` by 1, so each cell's estimate `(c − n·q)/(p − q)`
///   moves by at most `m/(p − q)`, and stays finite.
#[test]
fn crafted_reports_move_estimates_within_their_bound() {
    const D: u32 = 8;
    let mut rows = vec![Crafted::Vp(
        ValidityPerturbation::new(Eps::new(1.0).unwrap(), D).unwrap(),
    )];
    let mut ones = BitVec::zeros(D as usize);
    ones.toggle_all();
    let zeros = Report::Bits(BitVec::zeros(D as usize));
    let ones = Report::Bits(ones);
    for e in [0.01, 1.0, 710.0] {
        let eps = Eps::new(e).unwrap();
        let sue = Oracle::Ue(UnaryEncoding::symmetric(eps, D).unwrap());
        let oue = Oracle::oue(eps, D).unwrap();
        rows.push(Crafted::Oracle(
            e,
            Oracle::grr(eps, D).unwrap(),
            Report::Value(3),
        ));
        rows.push(Crafted::Oracle(e, oue.clone(), ones.clone()));
        rows.push(Crafted::Oracle(e, oue, zeros.clone()));
        rows.push(Crafted::Oracle(e, sue.clone(), ones.clone()));
        rows.push(Crafted::Oracle(e, sue, zeros.clone()));
    }

    for row in &rows {
        for m in [1u64, 100] {
            match row {
                Crafted::Vp(vp) => {
                    let mut agg = VpAggregator::new(vp);
                    let mut ones = BitVec::zeros(D as usize + 1);
                    ones.toggle_all();
                    for _ in 0..m {
                        agg.absorb(&ones).unwrap();
                    }
                    assert_eq!(agg.raw_flag_count(), m, "flag set ⇒ item bits ignored");
                    assert!(agg.raw_counts().iter().all(|&c| c == 0));
                }
                Crafted::Oracle(e, oracle, crafted) => {
                    let mut agg = Aggregator::new(oracle);
                    let mut rng = StdRng::seed_from_u64(11);
                    for u in 0..1_000 {
                        agg.absorb(&oracle.privatize(u % D, &mut rng).unwrap())
                            .unwrap();
                    }
                    let honest = agg.estimate();
                    for _ in 0..m {
                        agg.absorb(crafted).unwrap();
                    }
                    let bound = m as f64 / (oracle.p() - oracle.q());
                    let name = format!("{} at ε={e} with {crafted:?}", oracle.name());
                    for (v, (after, before)) in agg.estimate().iter().zip(&honest).enumerate() {
                        assert!(after.is_finite(), "{name}, m={m}, cell {v}: {after}");
                        // Float slack only: at ε = 710 OUE's all-ones shift
                        // equals the bound exactly.
                        assert!(
                            (after - before).abs() <= bound * (1.0 + 1e-9),
                            "{name}, m={m}, cell {v}: moved {} > {bound}",
                            (after - before).abs()
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------- domains

#[test]
fn degenerate_domains_work_end_to_end() {
    // One class, one item: everything should run and estimate ~N.
    let domains = Domains::new(1, 1).unwrap();
    let data = vec![LabelItem::new(0, 0); 1_000];
    for (i, fw) in Framework::fig6_set().into_iter().enumerate() {
        let plan = Exec::seeded(2 + i as u64).threads(1);
        let result = fw
            .execute(
                Eps::new(1.0).unwrap(),
                domains,
                &plan,
                SliceSource::new(&data),
            )
            .unwrap();
        let est = result.table.get(0, 0);
        assert!(
            (est - 1_000.0).abs() < 500.0,
            "{}: degenerate estimate {est}",
            fw.name()
        );
    }
}

#[test]
fn single_user_dataset_does_not_panic() {
    let domains = Domains::new(2, 16).unwrap();
    let data = vec![LabelItem::new(1, 7)];
    // HEC requires a user per class group and must error cleanly.
    assert!(Framework::Hec
        .execute(
            Eps::new(1.0).unwrap(),
            domains,
            &Exec::seeded(3).threads(1),
            SliceSource::new(&data),
        )
        .is_err());
    // The others must produce finite estimates.
    for (i, fw) in [
        Framework::Ptj,
        Framework::Pts { label_frac: 0.5 },
        Framework::PtsCp { label_frac: 0.5 },
    ]
    .into_iter()
    .enumerate()
    {
        let result = fw
            .execute(
                Eps::new(1.0).unwrap(),
                domains,
                &Exec::seeded(4 + i as u64).threads(1),
                SliceSource::new(&data),
            )
            .unwrap();
        assert!(
            result.table.values().iter().all(|v| v.is_finite()),
            "{}",
            fw.name()
        );
    }
}

// ----------------------------------------------------------------- top-k

#[test]
fn k_larger_than_domain_is_served_gracefully() {
    let domains = Domains::new(2, 8).unwrap();
    let data: Vec<LabelItem> = (0..20_000)
        .map(|u| LabelItem::new((u % 2) as u32, (u % 8) as u32))
        .collect();
    let config = TopKConfig::new(20, Eps::new(4.0).unwrap()); // k = 20 > d = 8
    for (i, method) in TopKMethod::fig7_set().into_iter().enumerate() {
        let plan = Exec::seeded(40 + i as u64).threads(1);
        let result = execute(method, config, domains, &plan, SliceSource::new(&data)).unwrap();
        for (c, items) in result.per_class.iter().enumerate() {
            assert!(
                items.len() <= 8,
                "{} class {c}: {}",
                method.name(),
                items.len()
            );
            let unique: std::collections::HashSet<_> = items.iter().collect();
            assert_eq!(unique.len(), items.len(), "{}", method.name());
        }
    }
}

#[test]
fn all_users_in_one_class_leaves_other_classes_quiet() {
    let domains = Domains::new(4, 64).unwrap();
    let data: Vec<LabelItem> = (0..40_000)
        .map(|u| LabelItem::new(0, (u % 5) as u32))
        .collect();
    let config = TopKConfig::new(3, Eps::new(6.0).unwrap());
    let result = execute(
        TopKMethod::PtsShuffled {
            validity: true,
            global: true,
            correlated: true,
        },
        config,
        domains,
        &Exec::seeded(5).threads(1),
        SliceSource::new(&data),
    )
    .unwrap();
    // The populated class finds its heavy items.
    assert!(
        result.per_class[0].iter().any(|&i| i < 5),
        "class 0 should find a true item: {:?}",
        result.per_class[0]
    );
    // Empty classes return at most k arbitrary candidates, never panic.
    for c in 1..4 {
        assert!(result.per_class[c].len() <= 3);
    }
}

#[test]
fn extreme_budgets_behave() {
    let domains = Domains::new(2, 16).unwrap();
    let data: Vec<LabelItem> = (0..10_000)
        .map(|u| LabelItem::new((u % 2) as u32, (u % 4) as u32))
        .collect();
    // Tiny ε: results are noise but finite and well-formed.
    let tiny = Framework::PtsCp { label_frac: 0.5 }
        .execute(
            Eps::new(0.01).unwrap(),
            domains,
            &Exec::seeded(6).threads(1),
            SliceSource::new(&data),
        )
        .unwrap();
    assert!(tiny.table.values().iter().all(|v| v.is_finite()));
    // Huge ε: estimates are near-exact.
    let huge = Framework::PtsCp { label_frac: 0.5 }
        .execute(
            Eps::new(20.0).unwrap(),
            domains,
            &Exec::seeded(7).threads(1),
            SliceSource::new(&data),
        )
        .unwrap();
    let truth = FrequencyTable::ground_truth(domains, &data).unwrap();
    for label in 0..2 {
        for item in 0..4 {
            assert!(
                (huge.table.get(label, item) - truth.get(label, item)).abs() < 200.0,
                "({label},{item})"
            );
        }
    }
}

#[test]
fn validity_input_extremes() {
    // All users invalid: estimates must be ≈ 0 for all items, and the
    // invalid-count estimate ≈ N.
    let vp = ValidityPerturbation::new(Eps::new(2.0).unwrap(), 8).unwrap();
    let mut agg = VpAggregator::new(&vp);
    let mut rng = StdRng::seed_from_u64(7);
    let n = 20_000;
    for _ in 0..n {
        agg.absorb(&vp.privatize(ValidityInput::Invalid, &mut rng).unwrap())
            .unwrap();
    }
    assert!((agg.estimate_invalid() - n as f64).abs() < 0.05 * n as f64);
    for est in agg.estimate() {
        assert!(est.abs() < 0.05 * n as f64);
    }
}
