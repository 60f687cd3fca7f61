//! Allocation bound on the one-pass `/v1/extract` body decode. This
//! binary holds a single test, so no other test's allocations land in
//! the count.

use fieldswap_datagen::{generate, Domain};
use fieldswap_serve::ExtractRequest;
use serde::{Serialize, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts allocations and reallocations, then defers to the system
/// allocator.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn decoding_a_32_document_body_allocates_per_document_token_and_line() {
    let docs = generate(Domain::Fara, 7, 32).documents;
    let body = serde_json::to_string(&Value::Object(vec![(
        "documents".into(),
        Value::Array(docs.iter().map(Serialize::to_value).collect()),
    )]))
    .unwrap();
    let units: usize = docs
        .iter()
        .map(|d| 1 + d.tokens.len() + d.lines.len())
        .sum();

    let before = ALLOCS.load(Ordering::Relaxed);
    let request: ExtractRequest = serde_json::from_str(&body).unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    assert_eq!(request.documents.as_deref(), Some(&docs[..]));
    // Each document, token and line owns a buffer or two (id, text, a
    // line's token ids) and each `Vec` grows a few times; a value tree
    // would cost about ten per token on top.
    eprintln!(
        "{allocs} allocations for {} bytes, {units} documents + tokens + lines",
        body.len()
    );
    assert!(
        allocs <= 2 * units,
        "{allocs} allocations decoding {units} documents + tokens + lines"
    );
}
