//! Every aggregator's two block paths agree with its per-report path.
//!
//! `absorb_all(&reports)` and `absorb_each(n, next)` (each report written
//! into one reused report) must leave the same counts, `n` and flag
//! tallies as absorbing the reports one by one — the aggregator's wire
//! state holds all three, so the rows compare its bytes. A malformed
//! report mid-block stops all three paths with the same typed error and
//! every report before it absorbed; an error from `next` does the same.

use mcim_core::frameworks::{Hec, HecAggregator, HecReport, Ptj, PtjAggregator, Pts};
use mcim_core::{
    CorrelatedPerturbation, Domains, LabelItem, PairAggregator, PairReport, ValidityInput,
    ValidityPerturbation, VpAggregator,
};
use mcim_oracles::wire::WireState;
use mcim_oracles::{Aggregator, BitVec, Eps, Error, Oracle, Report, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One aggregator type's three ways in.
trait Absorb: Clone + WireState {
    type Rep: Clone;
    fn one(&mut self, report: &Self::Rep) -> Result<()>;
    fn all(&mut self, reports: &[Self::Rep]) -> Result<()>;
    fn each<F>(&mut self, n: usize, next: F) -> Result<()>
    where
        F: FnMut(usize, &mut Self::Rep) -> Result<()>;
}

macro_rules! absorb {
    ($agg:ty, $rep:ty) => {
        impl Absorb for $agg {
            type Rep = $rep;
            fn one(&mut self, report: &$rep) -> Result<()> {
                self.absorb(report)
            }
            fn all(&mut self, reports: &[$rep]) -> Result<()> {
                self.absorb_all(reports)
            }
            fn each<F>(&mut self, n: usize, next: F) -> Result<()>
            where
                F: FnMut(usize, &mut $rep) -> Result<()>,
            {
                self.absorb_each(n, next)
            }
        }
    };
}

absorb!(PairAggregator, PairReport);
absorb!(HecAggregator, HecReport);
absorb!(PtjAggregator, Report);
absorb!(Aggregator, Report);
absorb!(VpAggregator, BitVec);

fn state<A: WireState>(agg: &A) -> Vec<u8> {
    let mut bytes = Vec::new();
    agg.save(&mut bytes);
    bytes
}

const USERS: usize = 603;
const AT: usize = 301;

/// Checks one aggregator: `reports` well-formed, then with `bad` at
/// [`AT`], then with `next` failing at [`AT`]. Every path starts from the
/// same non-empty state.
fn check<A: Absorb>(name: &str, empty: &A, reports: &[A::Rep], bad: A::Rep, want: &Error) {
    let mut start = empty.clone();
    start.one(&reports[0]).unwrap();

    let mut faulty = reports.to_vec();
    faulty[AT] = bad;
    for (case, reports) in [("well-formed", reports), ("malformed", &faulty[..])] {
        let cell = format!("{name} / {case}");
        let mut seq = start.clone();
        let seq_outcome = reports.iter().try_for_each(|r| seq.one(r));
        let mut all = start.clone();
        let all_outcome = all.all(reports);
        let mut each = start.clone();
        let each_outcome = each.each(reports.len(), |i, r| {
            r.clone_from(&reports[i]);
            Ok(())
        });
        if case == "malformed" {
            assert_eq!(seq_outcome.as_ref(), Err(want), "{cell}");
        } else {
            assert_eq!(seq_outcome, Ok(()), "{cell}");
        }
        assert_eq!(all_outcome, seq_outcome, "{cell}: absorb_all");
        assert_eq!(each_outcome, seq_outcome, "{cell}: absorb_each");
        assert_eq!(state(&all), state(&seq), "{cell}: absorb_all");
        assert_eq!(state(&each), state(&seq), "{cell}: absorb_each");
    }

    // `next` fails at AT: the reports before it stay absorbed.
    let mut prefix = start.clone();
    prefix.all(&reports[..AT]).unwrap();
    let mut each = start.clone();
    let outcome = each.each(reports.len(), |i, r| {
        if i == AT {
            return Err(Error::EmptyDomain);
        }
        r.clone_from(&reports[i]);
        Ok(())
    });
    assert_eq!(outcome, Err(Error::EmptyDomain), "{name} / next fails");
    assert_eq!(state(&each), state(&prefix), "{name} / next fails");
}

fn pairs(domains: Domains) -> impl Iterator<Item = (u64, LabelItem)> {
    let (c, d) = (domains.classes(), domains.items());
    (0..USERS as u32).map(move |u| (u as u64, LabelItem::new(u % c, (u * 7919) % d)))
}

fn out_of_domain(value: u64, domain: u64) -> Error {
    Error::ValueOutOfDomain { value, domain }
}

#[test]
fn absorb_each_and_absorb_all_match_per_report_absorb() {
    let eps = Eps::new(2.0).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let short = |width: usize| BitVec::zeros(width - 1);
    let ue_length = Error::ReportMismatch {
        expected: "UE bits of the aggregator's domain length",
    };
    let wrong_variant = Error::ReportMismatch {
        expected: "report variant matching the aggregator's oracle",
    };

    // PairAggregator at both widths: d bits (PTS) and d + 1 flagged
    // (PTS-CP); a label out of range, then a report one bit short.
    let domains = Domains::new(5, 130).unwrap();
    let pts = Pts::with_total(eps, domains).unwrap();
    let reports: Vec<PairReport> = pairs(domains)
        .map(|(_, p)| pts.privatize(p, &mut rng).unwrap())
        .collect();
    let bad = PairReport {
        label: 5,
        bits: BitVec::zeros(130),
    };
    check(
        "PTS",
        &pts.aggregator(),
        &reports,
        bad,
        &out_of_domain(5, 5),
    );
    let cp = CorrelatedPerturbation::with_total(Eps::new(6.0).unwrap(), domains).unwrap();
    let reports: Vec<PairReport> = pairs(domains)
        .map(|(_, p)| cp.privatize(p, &mut rng).unwrap())
        .collect();
    let bad = PairReport {
        label: 1,
        bits: short(131),
    };
    let width = Error::ReportMismatch {
        expected: "item bits of the mechanism's report width",
    };
    check("PTS-CP", &cp.aggregator(), &reports, bad, &width);

    // HecAggregator over its adaptive oracle's GRR and OUE branches; a
    // group out of range, then a report of the other oracle's variant.
    for (d, bad_group) in [(4, true), (200, false)] {
        let domains = Domains::new(3, d).unwrap();
        let hec = Hec::new(eps, domains).unwrap();
        let reports: Vec<HecReport> = pairs(domains)
            .map(|(u, p)| hec.privatize(u, p, &mut rng).unwrap())
            .collect();
        let (bad, want) = if bad_group {
            let bad = HecReport {
                group: 3,
                report: Report::Value(0),
            };
            (bad, out_of_domain(3, 3))
        } else {
            let bad = HecReport {
                group: 1,
                report: Report::Value(0),
            };
            (bad, wrong_variant.clone())
        };
        let name = format!("HEC / {}", hec.oracle().name());
        check(&name, &HecAggregator::new(&hec), &reports, bad, &want);
    }

    // PtjAggregator over GRR and OUE (its adaptive oracle's branches), and
    // the oracle aggregator it wraps over GRR and OUE, the second OUE row
    // with a report of the wrong variant.
    for (domains, bad, want) in [
        (
            Domains::new(2, 3).unwrap(),
            Report::Value(6),
            out_of_domain(6, 6),
        ),
        (
            Domains::new(4, 50).unwrap(),
            Report::Bits(short(200)),
            ue_length.clone(),
        ),
    ] {
        let ptj = Ptj::new(eps, domains).unwrap();
        let reports: Vec<Report> = pairs(domains)
            .map(|(_, p)| ptj.privatize(p, &mut rng).unwrap())
            .collect();
        let name = format!("PTJ / {}", ptj.oracle().name());
        check(&name, &PtjAggregator::new(&ptj), &reports, bad, &want);
    }
    for (oracle, bad, want) in [
        (
            Oracle::grr(eps, 6).unwrap(),
            Report::Value(6),
            out_of_domain(6, 6),
        ),
        (
            Oracle::oue(eps, 200).unwrap(),
            Report::Bits(short(200)),
            ue_length,
        ),
        (
            Oracle::oue(eps, 32).unwrap(),
            Report::Value(0),
            wrong_variant,
        ),
    ] {
        let d = oracle.domain_size();
        let reports: Vec<Report> = (0..USERS as u32)
            .map(|u| oracle.privatize((u * 7) % d, &mut rng).unwrap())
            .collect();
        check(
            oracle.name(),
            &Aggregator::new(&oracle),
            &reports,
            bad,
            &want,
        );
    }

    // VpAggregator: valid and invalid inputs, then a report one bit short.
    let vp = ValidityPerturbation::new(eps, 70).unwrap();
    let reports: Vec<BitVec> = (0..USERS as u32)
        .map(|u| {
            let input = if u % 3 == 0 {
                ValidityInput::Invalid
            } else {
                ValidityInput::Valid(u % 70)
            };
            vp.privatize(input, &mut rng).unwrap()
        })
        .collect();
    let want = Error::ReportMismatch {
        expected: "VP report of length d+1",
    };
    check("VP", &VpAggregator::new(&vp), &reports, short(71), &want);
}
