//! What one execution of the PageRank script's round allocates: the heap
//! requests (`alloc`, `alloc_zeroed` and `realloc` calls, and the bytes they
//! ask for) the statement's own thread makes while it runs, on a fixed
//! seeded graph. The join and aggregate kernels run a batch at a time on
//! typed lanes, so these counts follow batches and groups, not rows; the
//! counts are deterministic, so the literals below guard that mechanism
//! without a timer.

use sqldb::{Database, EngineProfile, Session};
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

const NODES: u64 = 3_000;
const EDGES: u64 = 24_000;

const ROUND: &str = "INSERT INTO pr_s_tmp \
     SELECT pr_s.node, \
            COALESCE(pr_s.rank + pr_s.delta, 0.15), \
            COALESCE(0.85 * SUM(ir.delta * ie.weight), 0.0) \
     FROM pr_s \
     LEFT JOIN edges AS ie ON pr_s.node = ie.dst \
     LEFT JOIN pr_s AS ir ON ir.node = ie.src \
     GROUP BY pr_s.node";

fn run(s: &mut Session, sql: &str) {
    s.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
}

/// `pr_s` and `edges` as the script sets them up, over a graph drawn by a
/// fixed linear congruential generator.
fn seeded_graph(s: &mut Session) {
    run(s, "CREATE TABLE edges (src INT, dst INT, weight FLOAT)");
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    for _ in 0..EDGES / 1_000 {
        let rows: Vec<String> = (0..1_000)
            .map(|_| {
                let (src, dst) = (next() % NODES, next() % NODES);
                format!("({src}, {dst}, {}.0)", 1 + next() % 4)
            })
            .collect();
        run(s, &format!("INSERT INTO edges VALUES {}", rows.join(", ")));
    }
    run(s, "CREATE TABLE pr_s (node INT, rank FLOAT, delta FLOAT)");
    run(
        s,
        "INSERT INTO pr_s SELECT src, 0.0, 0.15 \
         FROM (SELECT src FROM edges UNION SELECT dst FROM edges) AS alledges \
         GROUP BY src",
    );
}

/// `(allocations, bytes)` of one execution of the round, after one that
/// warms the plan cache.
fn round_allocations(s: &mut Session) -> (u64, u64) {
    let mut counts = (0, 0);
    for _ in 0..2 {
        run(s, "DROP TABLE IF EXISTS pr_s_tmp");
        run(
            s,
            "CREATE TABLE pr_s_tmp (node INT, rank FLOAT, delta FLOAT)",
        );
        let before = COUNTS.with(Cell::get);
        let inserted = s.execute(ROUND).unwrap().rows_affected();
        let after = COUNTS.with(Cell::get);
        assert_eq!(inserted, NODES);
        counts = (after.0 - before.0, after.1 - before.1);
    }
    counts
}

/// The counts this round makes; the per-lane join and aggregate loops these
/// kernels replaced made 1 859 allocations of 6 986 512 bytes, the joins
/// made 1 023 of 3 993 757 while they carried every column of every joined
/// table, and 867 of 3 318 976 while they copied the columns read above
/// them (the joins now pass positions).
const ALLOCATIONS: u64 = 828;
const BYTES: u64 = 2_190_704;

/// The memory budget's high-water mark once the round has run, set by the
/// round's position lanes over the heap; 5 265 135 bytes while its joins
/// carried every column, 4 158 090 while they copied the columns read.
const PEAK: u64 = 2_160_000;

#[test]
fn the_pagerank_round_allocates_per_batch_not_per_row() {
    let db = Database::new(EngineProfile::Postgres);
    let mut s = db.connect();
    seeded_graph(&mut s);
    let (allocations, bytes) = round_allocations(&mut s);
    let peak = db.memory_peak();
    println!("allocations={allocations} bytes={bytes} peak={peak}");
    assert!(allocations <= ALLOCATIONS, "{allocations} allocations");
    assert!(bytes <= BYTES, "{bytes} bytes");
    assert!(peak <= PEAK, "{peak} peak bytes");
}
