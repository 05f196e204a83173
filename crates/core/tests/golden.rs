//! Cross-commit pin for the frequency-estimation frameworks.
//!
//! `every_framework_matches_its_golden_digest` hashes the estimated table
//! (`f64` bits) and the [`CommStats`] of every [`Framework`] variant over a
//! domain × seed × ε × thread × chunk-size matrix, and compares the result
//! with a committed digest. The identity tables only show that execution
//! plans agree with each other; this digest shows that their shared answer
//! did not move. A refactor of a mechanism, an aggregator or the runtime
//! must leave it alone; a deliberate RNG contract bump re-pins it (the
//! failure message prints the new value).

use mcim_core::{CommStats, Domains, EstimationResult, Framework, LabelItem};
use mcim_oracles::exec::Exec;
use mcim_oracles::stream::SliceSource;
use mcim_oracles::Eps;

/// Every framework, the two-phase ones at the paper's even split and at
/// an uneven one.
fn all_frameworks() -> Vec<Framework> {
    let mut frameworks = vec![Framework::Hec, Framework::Ptj];
    for label_frac in [0.5, 0.3] {
        frameworks.push(Framework::Pts { label_frac });
        frameworks.push(Framework::PtsCp { label_frac });
    }
    frameworks
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn comm(&mut self, comm: CommStats) {
        self.word(comm.users);
        self.word(comm.total_report_bits);
    }

    fn result(&mut self, r: &EstimationResult) {
        let values = r.table.values();
        self.word(values.len() as u64);
        for v in values {
            self.word(v.to_bits());
        }
        self.comm(r.comm);
    }
}

/// A skewed population: each class has a heavy head, a shared globally
/// frequent item 0, and a long tail.
fn skewed_data(domains: Domains, n: usize) -> Vec<LabelItem> {
    let (c, d) = (domains.classes(), domains.items());
    (0..n)
        .map(|u| {
            let u = u as u32;
            let label = (u * 7 / 5) % c;
            let item = match u % 8 {
                0 | 1 => 0,
                2..=4 => (label * 5 + 1) % d,
                5 => (label * 5 + 2) % d,
                _ => (u / 8 * 13 + label) % d,
            };
            LabelItem::new(label, item)
        })
        .collect()
}

const GOLDEN: u64 = 0x32c9_f694_0c28_eaf5;

#[test]
fn every_framework_matches_its_golden_digest() {
    let mut digest = Digest::new();
    // Item rows of one word, of one word plus the validity flag, and of
    // several words; 9000 users span three 4096-user shards.
    for domains in [
        Domains::new(4, 63).unwrap(),
        Domains::new(3, 64).unwrap(),
        Domains::new(5, 130).unwrap(),
    ] {
        let data = skewed_data(domains, 9000);
        for fw in all_frameworks() {
            for seed in 1..=3u64 {
                for eps in [1.0, 4.0] {
                    let eps = Eps::new(eps).unwrap();
                    for threads in [1, 2] {
                        for chunk in [4095, data.len()] {
                            let plan = Exec::seeded(seed).threads(threads).chunk_size(chunk);
                            let r = fw
                                .execute(eps, domains, &plan, SliceSource::new(&data))
                                .unwrap();
                            digest.result(&r);
                        }
                    }
                }
            }
        }
    }
    assert_eq!(
        digest.0, GOLDEN,
        "framework matrix digest moved: {:#018x}",
        digest.0
    );
}
