//! Allocation during `PipelineCodec::decode` is bounded by payload size.
//!
//! A store entry is outside input: a corrupt or forged payload can claim
//! any element count in a few bytes. Decoding must size its reservations
//! by the bytes actually present, never by a claimed count, so no single
//! allocation made while decoding these few-dozen-byte payloads may
//! exceed [`LIMIT`]. Every one of them must still decode to a miss.
//!
//! This is its own test binary because it installs a counting global
//! allocator.

use gnnunlock_core::PipelineCodec;
use gnnunlock_engine::{ByteWriter, JobKind, ValueCodec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to the system allocator, recording the largest single
/// request since the last reset.
struct PeakAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// The largest single allocation a decode of these payloads may make.
const LIMIT: usize = 64 << 10;

/// A claimed element count no payload here comes close to backing.
const HUGE: u64 = 1 << 40;

/// A payload opening with `tag` and the `Some` marker of an optional
/// stage value.
fn some_payload(tag: &str) -> ByteWriter {
    let mut w = ByteWriter::new();
    w.str(tag);
    w.bool(true);
    w
}

/// A parse payload: a netlist name, then `empty` zero-length sections
/// before one that claims `HUGE` entries, then EOF.
fn netlist_claiming_huge_section(empty: usize) -> Vec<u8> {
    let mut w = some_payload("netlist-v1");
    w.str("c17");
    for _ in 0..empty {
        w.usize(0);
    }
    w.u64(HUGE);
    w.into_bytes()
}

/// A classify artifact with an empty outcome whose `preds` claims
/// `HUGE` entries.
fn classify_claiming_huge_preds() -> Vec<u8> {
    let mut w = some_payload("classify-v1");
    w.str("c17");
    w.usize(8); // key bits
    w.usize(0); // gnn confusion matrix: 0 classes
    w.usize(0); // post-processed confusion matrix: 0 classes
    w.u8(2); // removal not attempted
    w.usize(0); // misclassifications
    w.u64(HUGE);
    w.into_bytes()
}

/// A training checkpoint whose first weight matrix claims 2^20 × 2^20.
fn checkpoint_claiming_huge_matrix() -> Vec<u8> {
    let mut w = some_payload("ckpt-v1");
    w.usize(13); // feature length
    w.usize(8); // hidden
    w.usize(3); // classes
    w.f64(0.5); // dropout
    w.u64(1); // seed
    w.u64(1 << 20); // encoder weight rows
    w.u64(1 << 20); // encoder weight cols
    w.into_bytes()
}

#[test]
fn forged_counts_cannot_force_large_reservations() {
    let cases = [
        (
            "parse: 2^40 nets",
            JobKind::Parse,
            netlist_claiming_huge_section(0),
        ),
        (
            "parse: 2^40 gates",
            JobKind::Parse,
            netlist_claiming_huge_section(3),
        ),
        (
            "classify: 2^40 preds",
            JobKind::Classify,
            classify_claiming_huge_preds(),
        ),
        (
            "train-epoch: 2^20 x 2^20 matrix",
            JobKind::TrainEpoch,
            checkpoint_claiming_huge_matrix(),
        ),
    ];
    let mut failures = Vec::new();
    for (name, kind, bytes) in &cases {
        LARGEST.store(0, Ordering::Relaxed);
        let decoded = PipelineCodec.decode(*kind, bytes);
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(decoded.is_none(), "{name}: a truncated payload decoded");
        if largest > LIMIT {
            failures.push(format!(
                "{name} ({} bytes): largest allocation {largest} bytes",
                bytes.len()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "decode reserved more than {LIMIT} bytes at once:\n{}",
        failures.join("\n")
    );
}
