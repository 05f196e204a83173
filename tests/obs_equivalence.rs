//! Observability non-interference: the metrics-on slices of the identity
//! table (`tests/common/mod.rs`). Recording must not change an output,
//! must see a fold, must time nothing under a manual clock at rest, and
//! must count the same PEM rounds in every plan.

mod common;

use common::{Cols, ObsGuard};

#[test]
fn metrics_on_and_off_are_bit_identical_in_every_mode() {
    let _obs = ObsGuard::take();
    common::frameworks(&[Cols::Recording]);
}

#[test]
fn pem_round_counters_are_work_derived_and_mode_invariant() {
    let _obs = ObsGuard::take();
    common::pem_engine(&[Cols::Recording]);
    common::pem_execute(&[Cols::Recording]);
}
