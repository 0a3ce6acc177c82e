//! `PreparedReference::heap_bytes` against the bytes a counting allocator
//! sees a prepared reference keep, on every corpus reference.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wfspeak_corpus::references::{annotated, configs};
use wfspeak_metrics::{BleuScorer, ChrfScorer, Scorer};

thread_local! {
    /// Bytes allocated and not yet freed by this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

/// The system allocator, counting live bytes per thread so tests running
/// on other threads do not disturb the count.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            track(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            track(layout.size() as isize);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        track(-(layout.size() as isize));
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Build a value and report the bytes it still holds once built.
fn live_bytes_of<T>(build: impl FnOnce() -> T) -> (T, isize) {
    let before = LIVE.with(Cell::get);
    let value = build();
    (value, LIVE.with(Cell::get) - before)
}

#[test]
fn heap_bytes_match_the_allocator_on_every_corpus_reference() {
    let references = [
        ("WILKINS_3NODE", configs::WILKINS_3NODE),
        ("ADIOS2_3NODE", configs::ADIOS2_3NODE),
        ("HENSON_3NODE", configs::HENSON_3NODE),
        ("ADIOS2_PRODUCER", annotated::ADIOS2_PRODUCER),
        ("HENSON_PRODUCER", annotated::HENSON_PRODUCER),
        ("PARSL_PRODUCER", annotated::PARSL_PRODUCER),
        ("PYCOMPSS_PRODUCER", annotated::PYCOMPSS_PRODUCER),
    ];
    let scorers: [&dyn Scorer; 2] = [&BleuScorer::default(), &ChrfScorer::default()];
    for (name, reference) in references {
        for scorer in scorers {
            let (prepared, live) = live_bytes_of(|| scorer.prepare(reference));
            println!("{name} {}: {live} B", scorer.name());
            assert_eq!(
                prepared.heap_bytes() as isize,
                live,
                "{name} {}",
                scorer.name()
            );
        }
    }
}
