//! The identity table's snapshot row and the sized-source refusal. The
//! table itself lives in `tests/common/mod.rs`; `determinism`,
//! `exec_equivalence`, `obs_equivalence` and `streaming` check its other
//! slices.

mod common;

use common::{plans, recorded, source, ObsGuard, MANUAL, MONOTONIC, N};
use multiclass_ldp::prelude::*;
use multiclass_ldp::topk::{Pem, PemConfig};

/// The snapshot row of the metrics-on column, on PTS-CP: in every plan,
/// a real and a manual clock agree beyond timing fields, and two
/// manual-clock runs agree outright.
#[test]
fn snapshots_are_reproducible() {
    let _obs = ObsGuard::take();
    let domains = Domains::new(3, 32).unwrap();
    let data = common::pairs(domains, N);
    let (fw, eps) = (Framework::PtsCp { label_frac: 0.5 }, Eps::new(2.0).unwrap());
    for plan in plans(N) {
        let run = |clock| {
            let out = || {
                common::freq_digest(
                    &fw.execute(eps, domains, &plan, source(&data, true))
                        .unwrap(),
                )
            };
            recorded(true, clock, out).1
        };
        let (real, manual, again) = (run(&MONOTONIC), run(&MANUAL), run(&MANUAL));
        assert_eq!(
            real.without_timing(),
            manual.without_timing(),
            "{plan}: snapshots diverged beyond timing fields"
        );
        assert_eq!(manual, again, "{plan}: manual-clock snapshots diverged");
    }
}

/// An explicit executor splits rounds up front and needs the source's
/// size, while `Pem::execute` drains an unsized source first.
#[test]
fn pem_sharded_execute_requires_sized_source() {
    let _obs = ObsGuard::take();
    let items = common::pem_items(100);
    let pem = Pem::new(64, PemConfig::new(2)).unwrap();
    let (eps, plan) = (Eps::new(1.0).unwrap(), Exec::seeded(1));
    let err = pem
        .execute_on(&plan.in_process(), eps, 1, source(&items, false))
        .unwrap_err();
    assert!(matches!(err, Error::InvalidParameter { .. }));
    assert!(pem.execute(eps, &plan, source(&items, false)).is_ok());
}
