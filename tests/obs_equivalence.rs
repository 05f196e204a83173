//! The observability non-interference net: metrics collection must be
//! invisible to every estimate, and the snapshots themselves must be
//! deterministic.
//!
//! Two claims are pinned here, across a matrix of `Exec` plans (threads
//! {1, 4} × chunk {one short of a shard, one past, the whole source}):
//!
//! 1. **Bit-identity on/off.** A pipeline run with the global registry
//!    recording is bit-identical to the same run with recording off —
//!    nothing downstream of a counter or a span feeds back into an
//!    estimate.
//! 2. **Snapshot determinism.** Two identical runs produce identical
//!    snapshots modulo timing fields (`Snapshot::without_timing` strips
//!    exactly those); under an injected `ManualClock` the snapshots are
//!    identical outright, timing included.
//!
//! The registry, toggle and clock are process-wide, so every test here
//! serializes on one mutex.

use std::sync::Mutex;

use multiclass_ldp::obs;
use multiclass_ldp::prelude::*;
use multiclass_ldp::topk::{Pem, PemConfig};

static OBS_STATE: Mutex<()> = Mutex::new(());
static MANUAL: obs::ManualClock = obs::ManualClock::new();
static MONOTONIC: obs::MonotonicClock = obs::MonotonicClock::new();

const SHARD: usize = parallel::SHARD_SIZE;

fn sample_pairs(domains: Domains, n: usize) -> Vec<LabelItem> {
    (0..n)
        .map(|u| {
            LabelItem::new(
                (u % domains.classes() as usize) as u32,
                ((u * 7919) % domains.items() as usize) as u32,
            )
        })
        .collect()
}

/// Fully pinned plans: one and four threads, each with chunks on both
/// sides of a shard boundary and one holding the whole `n`-item source.
fn plans(seed: u64, n: usize) -> Vec<Exec> {
    let mut plans = Vec::new();
    for threads in [1, 4] {
        for chunk in [SHARD - 1, SHARD + 1, n] {
            plans.push(Exec::seeded(seed).threads(threads).chunk_size(chunk));
        }
    }
    plans
}

/// Runs PTS-CP under `plan` with recording toggled as asked; returns the
/// estimate table as raw bits plus the snapshot recorded along the way.
fn run(
    plan: &Exec,
    data: &[LabelItem],
    domains: Domains,
    record: bool,
) -> (Vec<u64>, obs::Snapshot) {
    obs::reset();
    obs::set_enabled(record);
    let result = Framework::PtsCp { label_frac: 0.5 }
        .execute(
            Eps::new(2.0).unwrap(),
            domains,
            plan,
            SliceSource::new(data),
        )
        .unwrap();
    obs::set_enabled(false);
    let snap = obs::snapshot();
    obs::reset();
    let mut bits = Vec::new();
    for label in 0..domains.classes() {
        for item in 0..domains.items() {
            bits.push(result.table.get(label, item).to_bits());
        }
    }
    (bits, snap)
}

#[test]
fn metrics_on_and_off_are_bit_identical_in_every_mode() {
    let _guard = OBS_STATE.lock().unwrap_or_else(|p| p.into_inner());
    let domains = Domains::new(3, 32).unwrap();
    let data = sample_pairs(domains, SHARD + 700);
    for plan in plans(0x0B5_2025, data.len()) {
        let (off, off_snap) = run(&plan, &data, domains, false);
        let (on, on_snap) = run(&plan, &data, domains, true);
        assert_eq!(off, on, "{plan}: recording metrics changed the estimates");
        assert!(off_snap.is_empty(), "{plan}: disabled run left a snapshot");
        assert!(
            on_snap.counters.contains_key("mcim_folds_total"),
            "{plan}: enabled run recorded nothing"
        );
    }
}

#[test]
fn identical_runs_snapshot_identically_modulo_timing() {
    let _guard = OBS_STATE.lock().unwrap_or_else(|p| p.into_inner());
    let domains = Domains::new(3, 32).unwrap();
    let data = sample_pairs(domains, SHARD + 700);
    for plan in plans(0x0B5_2026, data.len()) {
        // Real clock vs a manual clock at rest: every timing field
        // differs, everything work-derived must not.
        obs::set_clock(&MONOTONIC);
        let (_, real) = run(&plan, &data, domains, true);
        obs::set_clock(&MANUAL);
        let (_, manual_a) = run(&plan, &data, domains, true);
        let (_, manual_b) = run(&plan, &data, domains, true);
        assert_eq!(
            real.without_timing(),
            manual_a.without_timing(),
            "{plan}: snapshots diverged beyond timing fields"
        );
        // Under the injected clock the whole snapshot is reproducible,
        // histogram sums and buckets included.
        assert_eq!(
            manual_a, manual_b,
            "{plan}: identical runs under a manual clock diverged"
        );
        // Sanity: the timing strip keeps counts but zeroes durations.
        for (key, h) in &manual_a.histograms {
            assert!(h.count > 0, "{plan}: {key} observed nothing");
            assert_eq!(h.sum, 0, "{plan}: manual clock at rest must sum to 0");
        }
    }
    obs::set_clock(&MONOTONIC);
}

#[test]
fn pem_round_counters_are_work_derived_and_mode_invariant() {
    let _guard = OBS_STATE.lock().unwrap_or_else(|p| p.into_inner());
    let items: Vec<Option<u32>> = (0..SHARD + 2200)
        .map(|u| (u % 5 != 0).then_some(((u * 31) % 40) as u32))
        .collect();
    let pem = Pem::new(128, PemConfig::new(4)).unwrap();
    obs::set_clock(&MANUAL);
    let mut per_plan = Vec::new();
    for plan in plans(0x0B5_2027, items.len()) {
        obs::reset();
        obs::set_enabled(true);
        let result = pem
            .execute(Eps::new(4.0).unwrap(), &plan, SliceSource::new(&items))
            .unwrap();
        obs::set_enabled(false);
        let snap = obs::snapshot();
        obs::reset();
        per_plan.push((plan, result.top.clone(), snap.without_timing()));
    }
    let (first_plan, first_top, first_snap) = &per_plan[0];
    for (plan, top, snap) in &per_plan[1..] {
        assert_eq!(top, first_top, "{plan} vs {first_plan}: results");
        assert_eq!(
            snap.counters.get("mcim_pem_rounds_total"),
            first_snap.counters.get("mcim_pem_rounds_total"),
            "{plan} vs {first_plan}: PEM round counts"
        );
    }
    assert!(
        first_snap.counters.get("mcim_pem_rounds_total").copied() > Some(0),
        "PEM recorded no rounds"
    );
}
