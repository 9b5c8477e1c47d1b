//! What the object base and the stored partitions cost in live heap on
//! Figure 6's population at 1/5 scale, and the invariant behind the row
//! figure: a partition row is one allocation, held by both of its
//! clustering trees, however the partition was filled.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Mutex;

use asr_core::{AsrConfig, Database, Decomposition, Extension};
use asr_costmodel::{profiles, Mix, Op};
use asr_gom::snapshot;
use asr_workload::{
    execute_trace, generate, generate_trace, scale_profile, GeneratedBase, GeneratorSpec,
};

/// Counts the bytes currently allocated, process-wide.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

/// Serializes the tests of this file: the live-byte counter is global, so
/// a measurement must not overlap another test's allocations.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one `GlobalAlloc` states; the counter is a
// static atomic, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout` (every
        // allocation above is `System`'s).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s
        // contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `make()`'s result and the live bytes it holds once built.
fn live_bytes_of<T>(make: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    let made = make();
    let held = LIVE.load(Ordering::Relaxed) - before;
    (made, usize::try_from(held).expect("building allocates"))
}

/// Figure 6's population at 1/5 scale (generator seed 7) with one
/// Full/binary ASR over its chain, bulk-loaded.
fn fig6_fifth() -> GeneratedBase {
    let profile = scale_profile(&profiles::fig6_profile().profile, 5.0);
    let mut g = generate(&GeneratorSpec::from_profile(&profile, 1.0), 7);
    let m = g.path.arity(false) - 1;
    let config = AsrConfig {
        extension: Extension::Full,
        decomposition: Decomposition::binary(m),
        keep_set_oids: false,
    };
    g.db.create_asr(g.path.clone(), config).expect("ASR builds");
    g
}

fn stored_rows(db: &Database) -> usize {
    db.asrs().map(|(_, asr)| asr.total_rows()).sum()
}

/// Each row of every partition is one allocation, held once by each of
/// its two clustering trees.
fn assert_rows_stored_once(db: &Database) {
    for (_, asr) in db.asrs() {
        for p in asr.partitions() {
            let mut fwd = HashSet::new();
            p.forward_tree().scan_all(|_, row| {
                assert!(fwd.insert(row.cells().as_ptr()), "{row} twice in fwd");
            });
            assert_eq!(fwd.len(), p.len(), "one allocation per row");
            let mut entries = 0;
            p.backward_tree().scan_all(|_, row| {
                assert!(fwd.contains(&row.cells().as_ptr()), "{row} copied");
                entries += 1;
            });
            assert_eq!(entries, p.len());
        }
    }
}

/// Live heap per object of a restored base and per stored partition row
/// of a restored database,
/// against ceilings ~15 % over the measured 116 B and 209 B.  A
/// three-word `Value` and a row mirror beside the trees measured 137 B
/// and 295 B; a `BTreeMap` per tuple and three copies of each row 533 B
/// and 457 B.
#[test]
fn objects_and_rows_fit_their_heap_budget() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let g = fig6_fifth();
    let base_text = snapshot::write_base(g.db.base());
    let db_text = g.db.save_to_string();
    let rows = stored_rows(&g.db);
    drop(g);

    let (base, base_bytes) = live_bytes_of(|| snapshot::read_base(&base_text).unwrap());
    let per_object = base_bytes / base.object_count();
    drop(base);
    let (db, db_bytes) = live_bytes_of(|| Database::load_from_string(&db_text).unwrap());
    let per_row = (db_bytes - base_bytes) / rows;
    assert_eq!(stored_rows(&db), rows);
    println!("{per_object} B per object, {per_row} B per stored partition row");
    assert!(per_object <= 135, "{per_object} B per object");
    assert!(per_row <= 240, "{per_row} B per stored partition row");
}

#[test]
fn both_trees_hold_one_allocation_per_row_after_bulk_load_insert_and_restore() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut g = fig6_fifth();
    assert_rows_stored_once(&g.db);

    let before = stored_rows(&g.db);
    let mix = Mix::new(vec![], vec![(1.0, Op::ins(3))], 1.0);
    let trace = generate_trace(&g, &mix, 20, 4);
    let (asr, _) = g.db.asrs().next().expect("one ASR");
    let path = g.path.clone();
    execute_trace(&mut g.db, Some(asr), &path, &trace);
    assert!(stored_rows(&g.db) > before, "the inserts stored new rows");
    assert_rows_stored_once(&g.db);

    let restored = Database::load_from_string(&g.db.save_to_string()).unwrap();
    assert_eq!(stored_rows(&restored), stored_rows(&g.db));
    assert_rows_stored_once(&restored);
}
