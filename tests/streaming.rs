//! Streaming ingestion: every aggregator's `absorb_stream` equals its
//! `absorb_all`, and every chunk size equals the whole source, for every
//! thread count (slices of the identity table in `tests/common/mod.rs`).

mod common;

use common::{Cols, ObsGuard};

const SIZED: [Cols; 3] = [Cols::Threads, Cols::Chunks, Cols::Recording];

#[test]
fn aggregator_absorb_stream_matches_batch_for_every_oracle() {
    let _obs = ObsGuard::take();
    common::oracle_aggregators(&SIZED);
}

#[test]
fn vp_and_cp_absorb_stream_match_batch() {
    let _obs = ObsGuard::take();
    common::vp_aggregator(&[Cols::Chunks, Cols::Recording]);
    common::cp_aggregator(&SIZED);
}

#[test]
fn pts_ptj_hec_absorb_stream_match_batch() {
    let _obs = ObsGuard::take();
    common::pts_ptj_hec_aggregators(&SIZED);
}

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
