//! Allocation guard for the request path: what one round trip through
//! client → codec → `DirectTransport` → server → registry allocates, with
//! telemetry on and with `Telemetry::disabled()`.
//!
//! The envelope around a call — metric lookups, span names, attribute and
//! event values, frame buffers — is paid on every request. Metric handles
//! are resolved once, span names and most values are literals, a frame is
//! built in the buffer that becomes the `Bytes`, so what is left per call
//! is the message itself: the DTO's strings on both sides, a request and a
//! reply frame, two attribute vectors and one event. A counting global
//! allocator (this test is its own binary) counts the calling thread's
//! allocations and bytes per call, after a warm-up long enough to fill
//! the span and event rings. A 40-row `modelQuery` is counted too: its
//! reply is written from the stored rows, so what it allocates is mostly
//! the client's decode. What the registry and the store allocate
//! below the server is counted too, but has its own guard
//! (`gallery-store/tests/read_allocs.rs`).
//!
//! The lock-rank checker keeps books in debug builds, so the counts are
//! asserted only in release builds (`cargo test --release`); a debug build
//! merely runs the calls.

// Integration tests unwrap freely; the disallowed-methods ban only
// guards non-test code.
#![allow(clippy::disallowed_methods)]

use bytes::Bytes;
use gallery_core::Gallery;
use gallery_service::telemetry::Telemetry;
use gallery_service::{
    DirectTransport, GalleryClient, GalleryServer, WireConstraint, WireOp, WireValue,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocations made by this thread and the bytes they asked for.
    /// Const-initialised and without a destructor, so the allocator can
    /// touch them at any point of a thread's life without allocating or
    /// re-entering itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is two thread-local counter
// bumps that neither allocate nor unwind (`try_with` turns access during
// thread teardown into a no-op).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's obligations for `realloc` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocations, bytes)` of one call of `f` on this thread: the median
/// of 15 calls, each counted alone, so a table or ring that grows under
/// one of them does not decide the result.
fn per_call(mut f: impl FnMut()) -> (u64, u64) {
    let mut counts: Vec<(u64, u64)> = (0..15)
        .map(|_| {
            let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
            f();
            (
                ALLOCATIONS.with(Cell::get) - before.0,
                BYTES.with(Cell::get) - before.1,
            )
        })
        .collect();
    counts.sort_unstable();
    counts[counts.len() / 2]
}

const BLOB_LEN: usize = 64 * 1024;

/// Instances a `modelQuery` in this test returns: a dashboard's search.
const QUERY_ROWS: usize = 40;

/// Per-call costs of the four calls a serving host and a training
/// pipeline make most, and of a dashboard's search.
#[derive(Debug)]
struct Costs {
    get: (u64, u64),
    latest: (u64, u64),
    metric: (u64, u64),
    blob: (u64, u64),
    query: (u64, u64),
}

/// `telemetry` is the client's and the server's; the registry and the
/// store underneath record into the global bundle either way, so the two
/// arms of the test differ by the service layer alone.
fn costs_with(telemetry: Arc<Telemetry>) -> Costs {
    let gallery = Arc::new(Gallery::in_memory());
    let server = Arc::new(GalleryServer::new(gallery).with_telemetry(Arc::clone(&telemetry)));
    let client =
        GalleryClient::new(Arc::new(DirectTransport::new(server))).with_telemetry(telemetry);

    let model = client
        .create_model("project", "base", "rf", "owner", "", "{}")
        .unwrap();
    let metadata = r#"{"city":"san_francisco","model_name":"rf","model_type":"sparkml"}"#;
    let instance = client
        .upload_model(&model.id, metadata, Bytes::from(vec![7u8; BLOB_LEN]))
        .unwrap();
    let searched = client
        .create_model("search", "searched", "rf", "owner", "", "{}")
        .unwrap();
    for _ in 0..QUERY_ROWS {
        client
            .upload_model(&searched.id, metadata, Bytes::from_static(b"w"))
            .unwrap();
    }

    let get = || {
        client.get_instance(&instance.id).unwrap();
    };
    let latest = || {
        client.latest_instance(&model.id).unwrap().unwrap();
    };
    let metric = || {
        client
            .insert_metric(&instance.id, "mape", "validation", 0.25)
            .unwrap();
    };
    let blob = || {
        assert_eq!(client.fetch_blob(&instance.id).unwrap().len(), BLOB_LEN);
    };
    let search = vec![WireConstraint::new(
        "projectName",
        WireOp::Eq,
        WireValue::Str("search".into()),
    )];
    let query = || {
        assert_eq!(
            client.model_query(search.clone()).unwrap().len(),
            QUERY_ROWS
        );
    };

    // Each call leaves two spans and one event; both rings hold 4,096.
    for _ in 0..1_100 {
        get();
        latest();
        metric();
        blob();
        query();
    }
    Costs {
        get: per_call(get),
        latest: per_call(latest),
        metric: per_call(metric),
        blob: per_call(blob),
        query: per_call(query),
    }
}

#[test]
fn a_round_trip_allocates_for_its_message_not_its_bookkeeping() {
    let on = costs_with(Telemetry::new());
    let off = costs_with(Telemetry::disabled());
    println!("per call (allocations, bytes), telemetry on:  {on:?}");
    println!("per call (allocations, bytes), telemetry off: {off:?}");
    if cfg!(debug_assertions) {
        return;
    }
    assert!(on.get.0 <= 32, "get_instance: {:?}", on.get);
    assert!(on.latest.0 <= 44, "latest_instance: {:?}", on.latest);
    assert!(on.metric.0 <= 48, "insert_metric: {:?}", on.metric);
    // The blob is copied once, into the reply frame.
    assert!(on.blob.1 <= 70_000, "fetch_blob of 64 KiB: {:?}", on.blob);
    // The reply is written from the stored rows into one frame sized up
    // front; what is left is mostly the client's decode.
    assert!(on.query.0 <= 400, "model_query of 40: {:?}", on.query);
    assert!(on.query.1 <= 60_000, "model_query of 40: {:?}", on.query);

    // Disabled telemetry costs a branch per record call: never more than
    // enabled, and what it saves is the two attribute vectors and the
    // event — there is no other per-call bookkeeping left to save.
    for (name, on, off) in [
        ("get_instance", on.get, off.get),
        ("latest_instance", on.latest, off.latest),
        ("insert_metric", on.metric, off.metric),
        ("fetch_blob", on.blob, off.blob),
        ("model_query", on.query, off.query),
    ] {
        assert!(off.0 <= on.0, "{name}: off {off:?} above on {on:?}");
        assert!(on.0 - off.0 <= 4, "{name}: on {on:?}, off {off:?}");
    }
}
