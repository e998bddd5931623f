//! What loading the PageRank workload's graph costs the loading thread: the
//! heap requests (`alloc`, `alloc_zeroed` and `realloc` calls, and the bytes
//! they ask for) `workloads::load_edges` makes through a `LocalDriver`, and
//! the statements the engine parses for it. Rows travel as typed parameters
//! of one prepared `INSERT` per chunk shape, so no row is formatted, parsed
//! or cached as text; the counts are deterministic, so the literals below
//! guard that mechanism without a timer. The allocator is `sqldb`'s
//! `kernel_allocs` one: that binary cannot reach `workloads`.

use dbcp::{Driver, LocalDriver};
use sqldb::{Database, EngineProfile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// `(allocations, bytes)` requested by this thread so far.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    let _ = COUNTS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

unsafe impl GlobalAlloc for Counting {
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
static ALLOC: Counting = Counting;

/// The counts this load makes. Printing each edge as a literal, in one
/// `INSERT` text per 512 rows that was translated, parsed and cached once,
/// made 206 978 allocations of 47 088 412 bytes and 33 plan-cache misses;
/// copying the cached statement per execution with its parameters as
/// literals, then building a row of values per tuple, made 39 008 of
/// 10 767 249 bytes.
const ALLOCATIONS: u64 = 5_127;
const BYTES: u64 = 4_296_828;
/// One parse for the full 512-row chunks, one for the remainder.
const MISSES: u64 = 2;

#[test]
fn loading_edges_parses_per_chunk_shape_not_per_chunk() {
    let graph = graphgen::web_graph(3_000, 8, 2018);
    let db = Database::new(EngineProfile::Postgres);
    let mut conn = LocalDriver::new(db.clone()).connect().unwrap();
    let misses_before = db.plan_cache_stats().misses;
    let before = COUNTS.with(Cell::get);
    workloads::load_edges(conn.as_mut(), &graph).unwrap();
    let after = COUNTS.with(Cell::get);
    let misses = db.plan_cache_stats().misses - misses_before;
    let (allocations, bytes) = (after.0 - before.0, after.1 - before.1);
    println!(
        "edges={} allocations={allocations} bytes={bytes} misses={misses}",
        graph.edge_count()
    );
    let loaded = conn.query("SELECT COUNT(*) FROM edges").unwrap();
    assert_eq!(
        loaded.rows[0][0],
        sqldb::Value::Int(graph.edge_count() as i64)
    );
    assert!(allocations <= ALLOCATIONS, "{allocations} allocations");
    assert!(bytes <= BYTES, "{bytes} bytes");
    assert!(misses <= MISSES, "{misses} plan-cache misses");
}
