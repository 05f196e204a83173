//! Peak live heap of each framework's fold, in bytes.
//!
//! Each row runs `Framework::execute` on 100k in-memory pairs at one
//! thread with the default chunk, and measures the highest number of live
//! heap bytes during the run above what was live before it. A fold holds
//! its input chunk (one 4096-item shard at one thread), one accumulator,
//! one in-flight report and the aggregator's in-flight block; the
//! estimated table is allocated at the end. None of that grows with the
//! user count, and no fragment's reports are kept. A row fails at 10%
//! over its measured value, so holding a shard of reports, a 16-shard
//! chunk or a second, untouched copy of the accumulator again crosses it.
//!
//! The binary runs under an allocator probe that counts live bytes in
//! every thread, so it holds this one test: another test running beside
//! it would move the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mcim_core::{Domains, Framework, LabelItem};
use mcim_oracles::exec::Exec;
use mcim_oracles::stream::SliceSource;
use mcim_oracles::Eps;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// [`System`], plus a count of live bytes and their high-water mark.
struct Probe;

fn grow(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(size: usize) {
    LIVE.fetch_sub(size, Ordering::Relaxed);
}

// SAFETY: every call forwards unchanged to `System`; the counters are
// plain atomics, which never allocate.
unsafe impl GlobalAlloc for Probe {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }
}

#[global_allocator]
static ALLOC: Probe = Probe;

const USERS: u32 = 100_000;

/// A framework run: `(framework, classes, items, ε)`.
type Run = (Framework, u32, u32, f64);

/// Each run with its measured peak live bytes above the input (x86-64
/// Linux). HEC and PTJ use the adaptive oracle's OUE branch here.
const ROWS: [(Run, usize); 4] = [
    ((Framework::Pts { label_frac: 0.5 }, 8, 1024, 1.0), 189_536),
    ((Framework::PtsCp { label_frac: 0.5 }, 16, 64, 6.0), 57_392),
    ((Framework::Hec, 8, 1024, 1.0), 190_928),
    ((Framework::Ptj, 16, 64, 1.0), 52_496),
];

#[test]
fn framework_folds_hold_one_report_in_flight() {
    let mut over = Vec::new();
    for ((framework, classes, items, eps), measured) in ROWS {
        let domains = Domains::new(classes, items).unwrap();
        let pairs: Vec<LabelItem> = (0..USERS)
            .map(|u| LabelItem::new(u % classes, u.wrapping_mul(2_654_435_761) % items))
            .collect();
        let bound = measured + measured / 10;
        let plan = Exec::seeded(1).threads(1);
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        let result = framework
            .execute(
                Eps::new(eps).unwrap(),
                domains,
                &plan,
                SliceSource::new(&pairs),
            )
            .unwrap();
        let peak = PEAK.load(Ordering::Relaxed) - before;
        assert_eq!(result.comm.users, USERS as u64);
        drop(result);
        println!("{}: {peak} bytes", framework.name());
        if peak > bound {
            over.push(format!("{}: {peak} bytes, bound {bound}", framework.name()));
        }
    }
    assert!(over.is_empty(), "{over:#?}");
}
