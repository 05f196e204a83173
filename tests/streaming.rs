//! Streaming ingestion: every chunk size equals the whole source, for
//! every thread count (slices of the identity table in
//! `tests/common/mod.rs`).

mod common;

use common::{Cols, ObsGuard};

#[test]
fn stream_plans_match_batch_plans_at_every_chunk_boundary() {
    let _obs = ObsGuard::take();
    common::frameworks(&[Cols::Chunks]);
}

#[test]
fn pem_stream_plans_match_batch_plans() {
    let _obs = ObsGuard::take();
    common::pem_execute(&[Cols::Chunks]);
}

#[test]
fn pem_execute_drains_unsized_sources_under_every_plan() {
    let _obs = ObsGuard::take();
    common::pem_execute(&[Cols::Unsized]);
}

#[test]
fn topk_stream_plans_match_batch_plans() {
    let _obs = ObsGuard::take();
    common::topk(&[Cols::Chunks]);
}
