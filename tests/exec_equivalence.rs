//! Mode invariance: every `execute` entry point gives the same bits
//! under every `Exec` plan, whether or not the source knows its length
//! (slices of the identity table in `tests/common/mod.rs`).

mod common;

use common::{Cols, ObsGuard, N, SEED};
use multiclass_ldp::prelude::*;

#[test]
fn framework_execute_is_mode_invariant() {
    let _obs = ObsGuard::take();
    common::frameworks(&[Cols::Unsized]);
}

#[test]
fn pem_engine_execute_round_is_mode_invariant() {
    let _obs = ObsGuard::take();
    common::pem_engine(&[Cols::Threads, Cols::Chunks]);
}

#[test]
fn pem_execute_is_mode_invariant() {
    let _obs = ObsGuard::take();
    common::pem_execute(&[Cols::Threads]);
}

/// A one-thread plan is the sharded runtime pinned to one worker, so it
/// and a two-thread whole-source run of the same seed share one noise
/// stream.
#[test]
fn sequential_and_sharded_modes_share_one_stream() {
    let _obs = ObsGuard::take();
    let domains = Domains::new(3, 32).unwrap();
    let data = common::pairs(domains, N);
    let run = |plan: &Exec| {
        let fw = Framework::PtsCp { label_frac: 0.5 };
        let out = fw.execute(
            Eps::new(2.0).unwrap(),
            domains,
            plan,
            SliceSource::new(&data),
        );
        common::freq_digest(&out.unwrap())
    };
    let sharded = Exec::seeded(SEED).threads(2).chunk_size(data.len());
    assert!(
        run(&common::reference_plan(SEED)) == run(&sharded),
        "one-thread and two-thread whole-source runs diverged"
    );
}

#[test]
fn topk_execute_is_mode_invariant() {
    let _obs = ObsGuard::take();
    common::topk(&[Cols::Unsized, Cols::Recording]);
}
