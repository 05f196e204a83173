//! Seed determinism: the thread-count and rerun slices of the identity
//! table (`tests/common/mod.rs`). Identical seeds must give bit-identical
//! outputs at every thread count, and a second seed a different noisy
//! table.

mod common;

use common::{Cols, ObsGuard};

#[test]
fn batch_plan_thread_matrix_is_bit_identical_for_every_framework() {
    let _obs = ObsGuard::take();
    common::frameworks(&[Cols::Threads]);
}

#[test]
fn pts_cp_tables_identical_for_identical_seeds() {
    let _obs = ObsGuard::take();
    common::frameworks(&[Cols::Rerun, Cols::Reseed]);
}

#[test]
fn topk_batch_plan_thread_matrix_is_bit_identical() {
    let _obs = ObsGuard::take();
    common::topk(&[Cols::Threads]);
}

#[test]
fn topk_mining_identical_for_identical_seeds() {
    let _obs = ObsGuard::take();
    common::topk(&[Cols::Rerun]);
}
