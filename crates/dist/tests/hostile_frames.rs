//! Hostile input on the frame reader's bulk byte path: the byte payloads
//! of `Job`, `Chunk` and `Partial` with lying length prefixes, and a real
//! full-size `Chunk` cut short. Every case must fail with
//! [`Error::Transport`], never panic, and never allocate the size a
//! hostile prefix declares. Well-formed `Chunk` frames in an impossible
//! order must be refused by the worker with an `Err` reply.
//!
//! The binary runs under an allocator probe that records, per thread, the
//! largest allocation requested and whether any request had exactly one
//! watched size, so "no allocation of the declared size" is checked, not
//! assumed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mcim_core::frameworks::stages::{FwStage, PtsArm};
use mcim_core::{Domains, LabelItem};
use mcim_dist::proto::{read_frame, write_chunk_frame, write_frame};
use mcim_dist::{builtin_worker, Frame, ShardAssignment, MAX_FRAME, PROTOCOL_VERSION};
use mcim_oracles::exec::Stage;
use mcim_oracles::parallel::SHARD_SIZE;
use mcim_oracles::wire::Wire;
use mcim_oracles::{Eps, Error};

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
    static WATCHED: Cell<usize> = const { Cell::new(usize::MAX) };
    static WATCHED_SEEN: Cell<bool> = const { Cell::new(false) };
}

/// [`System`], plus a per-thread note of every requested size.
struct Probe;

fn note(size: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
    if WATCHED.try_with(Cell::get) == Ok(size) {
        let _ = WATCHED_SEEN.try_with(|s| s.set(true));
    }
}

// SAFETY: every call forwards unchanged to `System`; `note` only touches
// const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Probe {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Probe = Probe;

/// Reads one frame from `wire`; returns the result, the largest single
/// allocation made meanwhile, and whether any allocation was exactly
/// `watched` bytes.
fn read_probed(wire: &[u8], watched: usize) -> (mcim_oracles::Result<Option<Frame>>, usize, bool) {
    PEAK.with(|p| p.set(0));
    WATCHED_SEEN.with(|s| s.set(false));
    WATCHED.with(|w| w.set(watched));
    let out = read_frame(&mut &wire[..]);
    WATCHED.with(|w| w.set(usize::MAX));
    (out, PEAK.with(Cell::get), WATCHED_SEEN.with(Cell::get))
}

/// Encodes `frame` and returns the wire bytes with the `u32` at byte
/// `offset` (an inner length prefix) overwritten by `len`.
fn with_prefix(frame: &Frame, offset: usize, len: u32) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, frame).expect("encode");
    wire[offset..offset + 4].copy_from_slice(&len.to_le_bytes());
    wire
}

/// `Job.payload`, `Chunk.items` and `Partial.state`, each with its inner
/// length prefix one past the bytes that follow it, and at `u32::MAX`.
#[test]
fn lying_payload_lengths_fail_without_allocating_them() {
    let kind = "fw/pts";
    let cases = [
        (
            Frame::Job {
                stage_seed: 9,
                contract: 4,
                kind: kind.into(),
                payload: vec![7; 40],
                shards: ShardAssignment::Range { first: 0, end: 4 },
            },
            // length, tag, stage_seed, contract, kind
            4 + 1 + 8 + 4 + 4 + kind.len(),
        ),
        (
            Frame::Chunk {
                first_abs: 3,
                items: vec![5; 40],
            },
            4 + 1 + 8,
        ),
        (Frame::Partial { state: vec![1; 40] }, 4 + 1),
    ];
    for (frame, offset) in cases {
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).expect("encode");
        let remaining = (wire.len() - offset - 4) as u32;
        for declared in [remaining + 1, u32::MAX] {
            let hostile = with_prefix(&frame, offset, declared);
            let (out, peak, seen) = read_probed(&hostile, declared as usize);
            let ctx = format!("{} with a {declared}-byte payload prefix", frame.name());
            let err = out.expect_err(&ctx);
            assert!(matches!(err, Error::Transport { .. }), "{ctx}: {err}");
            assert!(!seen, "{ctx}: allocated the declared size");
            // Only the frame body and error text are allocated, both far
            // below a 4 GiB claim.
            assert!(peak < MAX_FRAME as usize, "{ctx}: allocated {peak} bytes");
        }
    }
}

/// A real 65 536-pair `Chunk`, cut at every byte of its 17-byte header
/// and at every 4 KiB boundary of its body: every cut errors, none panics.
#[test]
fn full_chunk_truncated_anywhere_errors() {
    let pairs: Vec<LabelItem> = (0..65_536u32)
        .map(|u| LabelItem::new(u % 8, u.wrapping_mul(2_654_435_761) % 64))
        .collect();
    let mut items = Vec::new();
    pairs.put(&mut items);
    let mut wire = Vec::new();
    write_chunk_frame(&mut wire, 1 << 20, &items).expect("encode");
    const HEADER: usize = 17;
    assert_eq!(wire.len(), HEADER + 4 + 8 * pairs.len());

    // Cut 0 is a clean end-of-stream at a frame boundary, not an error.
    assert!(read_frame(&mut &wire[..0]).expect("clean EOF").is_none());
    let cuts = (1..=HEADER).chain((HEADER..wire.len()).step_by(4096).skip(1));
    for cut in cuts {
        let err = read_frame(&mut &wire[..cut]).expect_err(&format!("cut at {cut}"));
        assert!(
            matches!(err, Error::Transport { .. }),
            "cut at {cut}: {err}"
        );
    }
    // The uncut frame still decodes to the pairs.
    let Some(Frame::Chunk { items: got, .. }) = read_frame(&mut &wire[..]).expect("decode") else {
        panic!("expected a Chunk frame");
    };
    assert_eq!(got, items);
}

/// One session against the built-in worker: a `fw/pts` job owning shards
/// 0 and 1 per entry of `jobs`, each streaming Chunks at the given
/// `(first_abs, len)` positions, then Flush. Returns the worker's reply
/// to every job.
fn serve_jobs(jobs: &[&[(u64, u32)]]) -> Vec<Frame> {
    let eps = Eps::new(1.0).unwrap();
    let arm = PtsArm::new(eps, eps, Domains::new(2, 8).unwrap()).unwrap();
    let spec = FwStage::new(arm)
        .spec()
        .expect("PTS stages are distributable");
    let mut wire = Vec::new();
    let mut send = |frame: &Frame| write_frame(&mut wire, frame).expect("encode");
    send(&Frame::Hello {
        version: PROTOCOL_VERSION,
    });
    for chunks in jobs {
        send(&Frame::Job {
            stage_seed: 3,
            contract: spec.contract,
            kind: spec.kind.to_string(),
            payload: spec.payload.clone(),
            shards: ShardAssignment::Range { first: 0, end: 2 },
        });
        for &(first_abs, len) in *chunks {
            let pairs: Vec<LabelItem> = (0..len).map(|u| LabelItem::new(u % 2, u % 8)).collect();
            let mut items = Vec::new();
            pairs.put(&mut items);
            send(&Frame::Chunk { first_abs, items });
        }
        send(&Frame::Flush);
    }
    send(&Frame::Shutdown);

    let mut replies = Vec::new();
    builtin_worker()
        .serve_io(&wire[..], &mut replies)
        .expect("the session survives refused jobs");
    let mut replies = &replies[..];
    let hello = read_frame(&mut replies).expect("decode").expect("a Hello");
    assert!(matches!(hello, Frame::Hello { .. }), "got {}", hello.name());
    std::iter::from_fn(|| read_frame(&mut replies).expect("decode")).collect()
}

/// Chunk sequences no coordinator sends: an unowned shard, a first Chunk
/// mid-shard, a gap inside a shard, and a new shard while the previous
/// one is still open. Each job is answered with `Err` at Flush, and the
/// same connection then folds a good job.
#[test]
fn worker_refuses_impossible_chunk_sequences() {
    let shard = SHARD_SIZE as u64;
    let good: &[(u64, u32)] = &[(0, 100)];
    let cases: [(&str, &[(u64, u32)]); 4] = [
        ("a shard the job does not own", &[(5 * shard, 10)]),
        ("a first Chunk mid-shard", &[(100, 10)]),
        ("a gap inside a shard", &[(0, 100), (200, 10)]),
        ("a new shard while one is open", &[(0, 100), (shard, 10)]),
    ];
    for (what, chunks) in cases {
        let replies = serve_jobs(&[chunks, good]);
        assert_eq!(replies.len(), 2, "{what}: one reply per job");
        assert!(
            matches!(replies[0], Frame::Err { .. }),
            "{what}: got {}",
            replies[0].name()
        );
        assert!(
            matches!(replies[1], Frame::Partial { .. }),
            "{what}: the next job got {}",
            replies[1].name()
        );
    }
}
