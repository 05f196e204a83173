//! Peak live heap of the label-routed top-k methods, per user.
//!
//! Each row runs one method on 400k JD-like users (d = 2048, c = 5,
//! k = 10, ε = 4) at one thread and measures the highest number of live
//! heap bytes during the run above what was live before it, divided by
//! the user count. The drained copy of the pairs is ~10.5 bytes per user
//! (8-byte pairs in a `Vec` grown by doubling); each routed user adds a
//! 4-byte routed class and a group entry (a 4-byte item for the PEM
//! methods, an 8-byte reference for the shuffled one). A row fails at 10%
//! over its measured value, so one more per-user copy crosses it.
//!
//! The binary runs under an allocator probe that counts live bytes in
//! every thread, so it holds this one test: another test running beside
//! it would move the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mcim_datasets::{jd_like, RealConfig};
use mcim_oracles::exec::Exec;
use mcim_oracles::stream::SliceSource;
use mcim_oracles::Eps;
use mcim_topk::{execute, TopKConfig, TopKMethod};

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

const USERS: usize = 400_000;

/// Each method with its measured peak live bytes per user above the input
/// (x86-64 Linux).
const ROWS: [(TopKMethod, f64); 3] = [
    (
        TopKMethod::PtsPem {
            validity: true,
            global: true,
        },
        16.89,
    ),
    (
        TopKMethod::PtsPem {
            validity: false,
            global: false,
        },
        18.49,
    ),
    (
        TopKMethod::PtsShuffled {
            validity: true,
            global: true,
            correlated: true,
        },
        20.13,
    ),
];

#[test]
fn routed_methods_hold_one_copy_of_each_user() {
    let ds = jd_like(RealConfig {
        users: USERS,
        items: 2048,
        seed: 3,
    });
    let config = TopKConfig::new(10, Eps::new(4.0).unwrap());
    let mut over = Vec::new();
    for (method, measured) in ROWS {
        let bound = 1.1 * measured;
        let plan = Exec::seeded(1).threads(1);
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        let result = execute(
            method,
            config,
            ds.domains,
            &plan,
            SliceSource::new(&ds.pairs),
        )
        .unwrap();
        let peak = PEAK.load(Ordering::Relaxed) - before;
        drop(result);
        let per_user = peak as f64 / USERS as f64;
        println!("{}: {per_user:.2} bytes per user", method.name());
        if per_user > bound {
            over.push(format!(
                "{}: {per_user:.2} bytes per user, bound {bound:.2}",
                method.name()
            ));
        }
    }
    assert!(over.is_empty(), "{over:#?}");
}
