//! A counting global allocator: how many allocations, and how many bytes,
//! a stretch of single-threaded work asks the heap for.
//!
//! Wall-clock rows cannot say whether a hot path still copies its payload —
//! a 10 kB `memcpy` into a recycled, cache-hot block costs a few hundred
//! nanoseconds in a micro-benchmark and a page fault in a real run.  An
//! allocation count can: every copy of a payload lands in a fresh
//! allocation at least as large as the payload.  The `hotpath` `frame_path`
//! section and the `tests/zero_copy.rs` guard both read that count.
//!
//! A binary opts in by installing the allocator:
//!
//! ```
//! use fs_bench::alloc_count::{count_allocs, CountingAlloc};
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc;
//!
//! let (v, counts) = count_allocs(1024, || vec![0u8; 4096]);
//! assert_eq!(v.len(), 4096);
//! assert_eq!((counts.large_allocs, counts.large_bytes), (1, 4096));
//! ```
//!
//! Counters are per thread (the simulator runs on the calling thread), and
//! nothing is recorded outside [`count_allocs`], where the wrapper costs one
//! thread-local read per allocation.
//!
//! # Unsafe policy
//!
//! Implementing [`GlobalAlloc`] is `unsafe` by signature; this is the
//! crate's one scoped `#![allow(unsafe_code)]`.  Every method forwards its
//! arguments untouched to [`System`] and returns what it returns, so each
//! caller obligation of `GlobalAlloc` is discharged by the caller's own
//! promise to us; the bookkeeping beside the call touches only
//! `const`-initialised, destructor-free thread-locals of `Copy` data, which
//! never allocate and so cannot re-enter the allocator.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What one [`count_allocs`] scope asked of the heap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Allocations (growing reallocations included).
    pub allocs: u64,
    /// Bytes requested by them.
    pub bytes: u64,
    /// Allocations of at least the scope's `large_from` bytes.
    pub large_allocs: u64,
    /// Bytes requested by those.
    pub large_bytes: u64,
}

thread_local! {
    /// `Some(large_from)` while a `count_allocs` scope is open on this thread.
    static LARGE_FROM: Cell<Option<usize>> = const { Cell::new(None) };
    static COUNTS: Cell<AllocCounts> = const {
        Cell::new(AllocCounts { allocs: 0, bytes: 0, large_allocs: 0, large_bytes: 0 })
    };
}

fn record(size: usize) {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; that allocation simply goes uncounted.
    let Ok(Some(large_from)) = LARGE_FROM.try_with(Cell::get) else {
        return;
    };
    let _ = COUNTS.try_with(|counts| {
        let mut c = counts.get();
        c.allocs += 1;
        c.bytes += size as u64;
        if size >= large_from {
            c.large_allocs += 1;
            c.large_bytes += size as u64;
        }
        counts.set(c);
    });
}

/// The system allocator, counting what [`count_allocs`] scopes allocate.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

// SAFETY: every method is `System`'s, called with the caller's own
// arguments; `record` neither allocates nor touches the memory involved.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout` — the caller's obligation, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            record(new_size);
        }
        // SAFETY: `ptr`/`layout` as for `dealloc`, `new_size` as the caller
        // promises `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns what this thread allocated meanwhile; allocations
/// of at least `large_from` bytes are also counted on their own.  All zeros
/// unless the binary installed [`CountingAlloc`] as its global allocator.
/// Scopes do not nest.
pub fn count_allocs<R>(large_from: usize, f: impl FnOnce() -> R) -> (R, AllocCounts) {
    COUNTS.with(|counts| counts.set(AllocCounts::default()));
    LARGE_FROM.with(|armed| armed.set(Some(large_from)));
    let result = f();
    LARGE_FROM.with(|armed| armed.set(None));
    (result, COUNTS.with(Cell::get))
}
