//! What the object base and the stored partitions cost in live heap on
//! Figure 6's population at 1/5 scale, what building an ASR costs above
//! what it then holds, and the invariants behind the object and row
//! figures: a tuple is no allocation of its own — the object table holds
//! every tuple's slots in one arena — and a partition row is none either
//! — both clustering trees hold its cells inline in their leaf pages —
//! however the partition was filled.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Mutex;

use asr_core::{AsrConfig, Database, Decomposition, Extension};
use asr_costmodel::{profiles, Mix, Op};
use asr_gom::{snapshot, ObjectBase, ObjectBody, Value};
use asr_workload::{
    company_database, execute_trace, generate, generate_trace, scale_profile, GeneratedBase,
    GeneratorSpec,
};

/// Counts the bytes currently allocated, process-wide, and the most ever
/// allocated at once.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
/// Allocations currently live.
static BLOCKS: AtomicIsize = AtomicIsize::new(0);

/// Add `delta` to the live bytes, raising the peak to match.
fn count(delta: isize) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Serializes the tests of this file: the live-byte counter is global, so
/// a measurement must not overlap another test's allocations.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one `GlobalAlloc` states; the counter is a
// static atomic, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        BLOCKS.fetch_sub(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout` (every
        // allocation above is `System`'s).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s
        // contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `make()`'s result and the live bytes it holds once built.
fn live_bytes_of<T>(make: impl FnOnce() -> T) -> (T, usize) {
    let (made, _, held) = peak_and_held_of(make);
    (made, held)
}

/// `make()`'s result, the most live bytes it held at once while it ran,
/// and the live bytes its result holds once built.
fn peak_and_held_of<T>(make: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let made = make();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let held = LIVE.load(Ordering::Relaxed) - before;
    let bytes = |n: isize| usize::try_from(n).expect("building allocates");
    (made, bytes(peak), bytes(held))
}

/// Figure 6's population at 1/5 scale (generator seed 7), no ASR yet.
fn fig6_fifth_base() -> GeneratedBase {
    let profile = scale_profile(&profiles::fig6_profile().profile, 5.0);
    generate(&GeneratorSpec::from_profile(&profile, 1.0), 7)
}

/// The Full/binary design over the generated chain.
fn full_binary(g: &GeneratedBase) -> AsrConfig {
    AsrConfig {
        extension: Extension::Full,
        decomposition: Decomposition::binary(g.path.arity(false) - 1),
        keep_set_oids: false,
    }
}

/// [`fig6_fifth_base`] with one Full/binary ASR over its chain,
/// bulk-loaded.
fn fig6_fifth() -> GeneratedBase {
    let mut g = fig6_fifth_base();
    let config = full_binary(&g);
    g.db.create_asr(g.path.clone(), config).expect("ASR builds");
    g
}

fn stored_rows(db: &Database) -> usize {
    db.asrs().map(|(_, asr)| asr.total_rows()).sum()
}

/// No row is an allocation of its own: dropping every ASR of `db` frees
/// a few allocations per tree page (a page, its entries or keys and
/// children, the separator its parent holds for it) and per partition,
/// under one per ten rows — a row behind its own allocation would free
/// at least one per row.
fn assert_no_allocation_per_row(mut db: Database) {
    let rows = stored_rows(&db);
    let pages: u64 = db.asrs().map(|(_, asr)| asr.total_pages()).sum();
    let ids: Vec<_> = db.asrs().map(|(id, _)| id).collect();
    let before = BLOCKS.load(Ordering::Relaxed);
    for id in ids {
        db.drop_asr(id).unwrap();
    }
    let freed = before - BLOCKS.load(Ordering::Relaxed);
    println!("{rows} rows on {pages} pages held {freed} allocations");
    assert!(
        freed * 10 <= rows as isize,
        "{freed} allocations for {rows} rows on {pages} pages"
    );
}

/// Live heap of a restored database: per object of its base, per object
/// of its clustered files (the OID index and slot of each object), and
/// per stored partition row (what dropping the ASRs frees), against
/// ceilings ~15 % over the measured 54 B, 49 B and 66 B.  An object is
/// a 16-byte table entry, its tuple slots in the table's arena or its
/// set's sorted vector, its OID in its type's extent and its share of
/// the referrer index; a `BTreeMap` node per object, a `BTreeSet` per set
/// and a boxed slice per tuple measured 116 B.  Each row is
/// its `w` cells inline in both trees' leaves: 2 × 16 B × 2 cells, plus
/// leaf slack and inner pages.  Rows behind a shared allocation, keyed
/// by row id in both trees, measured 198 B for rows and clustered files
/// together (130 B for the rows alone); a three-word `Value` and a row mirror
/// beside the trees 137 B and 295 B; a `BTreeMap` per tuple and three
/// copies of each row 533 B and 457 B.
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
    let (mut db, db_bytes) = live_bytes_of(|| Database::load_from_string(&db_text).unwrap());
    assert_eq!(stored_rows(&db), rows);
    let objects = db.base().object_count();
    let with_asrs = LIVE.load(Ordering::Relaxed);
    let ids: Vec<_> = db.asrs().map(|(id, _)| id).collect();
    for id in ids {
        db.drop_asr(id).unwrap();
    }
    let asr_bytes = usize::try_from(with_asrs - LIVE.load(Ordering::Relaxed)).unwrap();
    let per_row = asr_bytes / rows;
    let store_per_object = (db_bytes - base_bytes - asr_bytes) / objects;
    println!(
        "{per_object} B per object, {store_per_object} B per object in the clustered files, \
         {per_row} B per stored partition row"
    );
    assert!(per_object <= 62, "{per_object} B per object");
    assert!(
        store_per_object <= 56,
        "{store_per_object} B per object in the files"
    );
    assert!(per_row <= 76, "{per_row} B per stored partition row");
}

/// The build transient: the most live heap `create_asr` holds at once
/// while it builds the Full/binary ASR, over the heap the ASR holds
/// afterwards, against a ceiling of 1.28.  The peak is the end of the
/// extension walk (the extension plus the stages still ahead); the walk
/// frees each stage it has started every path from, and each partition's
/// distinct projections are found after the extension dropped the
/// columns no later partition reads: 249 952 B for 199 004 B held,
/// 1.26.  Projecting the whole extension for every partition peaked at
/// 356 432 B (1.79).  Rows behind a shared allocation, keyed by row id
/// in both trees, measured 1.16 of a held heap twice this one; copying
/// the leaves out of the whole entries vector 1.19 of that, and row
/// sets, with the extension alive through the bulk loads, 1.83.
#[test]
fn create_asr_peaks_within_its_build_budget() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut g = fig6_fifth_base();
    let config = full_binary(&g);
    let path = g.path.clone();
    let (_, peak, held) = peak_and_held_of(|| g.db.create_asr(path, config).expect("ASR builds"));
    let ratio = peak as f64 / held as f64;
    println!("create_asr peaks at {peak} B for {held} B held: {ratio:.2}x");
    assert!(ratio <= 1.28, "build peak {ratio:.2}x what the ASR holds");
}

#[test]
fn no_row_is_an_allocation_after_bulk_load_insert_and_restore() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut g = fig6_fifth();
    let bulk = Database::load_from_string(&g.db.save_to_string()).unwrap();
    let pages = |db: &Database| -> u64 { db.asrs().map(|(_, asr)| asr.total_pages()).sum() };
    assert_eq!(pages(&bulk), pages(&g.db), "a restore is page for page");
    assert_no_allocation_per_row(bulk);

    let before = stored_rows(&g.db);
    let mix = Mix::new(vec![], vec![(1.0, Op::ins(3))], 1.0);
    let trace = generate_trace(&g, &mix, 20, 4);
    let (asr, _) = g.db.asrs().next().expect("one ASR");
    let path = g.path.clone();
    execute_trace(&mut g.db, Some(asr), &path, &trace);
    assert!(stored_rows(&g.db) > before, "the inserts stored new rows");

    let restored = Database::load_from_string(&g.db.save_to_string()).unwrap();
    assert_eq!(stored_rows(&restored), stored_rows(&g.db));
    assert_no_allocation_per_row(restored);
    assert_no_allocation_per_row(g.db);
}

/// The allocations dropping `made` frees.
fn allocations_freed_by_dropping<T>(made: T) -> isize {
    let before = BLOCKS.load(Ordering::Relaxed);
    drop(made);
    before - BLOCKS.load(Ordering::Relaxed)
}

/// No tuple is an allocation of its own: dropping `base` read back from
/// its text snapshot frees, beyond what an empty base read back over the
/// same schema frees, one allocation per set or list object, those of
/// its string values and variables, the referrer index's tree nodes (a
/// non-root node holds at least five entries) and at most one extent per
/// type plus the table's entry, slot and collection vectors.  A tuple
/// behind its own allocation would free one more per tuple.
fn assert_no_allocation_per_tuple(what: &str, base: &ObjectBase) {
    let empty = snapshot::write_base(&ObjectBase::new(base.schema().clone()));
    let empty = allocations_freed_by_dropping(snapshot::read_base(&empty).unwrap());
    let loaded = snapshot::read_base(&snapshot::write_base(base)).unwrap();
    let string_allocations = |values: &[Value]| -> usize {
        (values.iter())
            .map(|v| match v {
                Value::String(s) => 1 + usize::from(s.capacity() > 0),
                _ => 0,
            })
            .sum()
    };
    let (mut tuples, mut collections, mut strings, mut referrers) = (0, 0, 0, 0);
    for obj in loaded.objects() {
        match obj.body {
            ObjectBody::Tuple(slots) => {
                tuples += 1;
                let mut targets: Vec<_> = slots.iter().filter_map(Value::as_ref_oid).collect();
                targets.sort_unstable();
                targets.dedup();
                referrers += targets.len();
                strings += string_allocations(slots);
            }
            ObjectBody::Set(elements) | ObjectBody::List(elements) => {
                collections += 1;
                strings += string_allocations(elements);
            }
        }
    }
    let variables: Vec<Value> = loaded.variables().map(|(_, v)| v.clone()).collect();
    let variables = match variables.len() {
        0 => 0,
        n => 1 + n + string_allocations(&variables),
    };
    let types = (loaded.schema().types())
        .filter(|&(ty, _)| !loaded.extent(ty).is_empty())
        .count();
    let bookkeeping = referrers.div_ceil(5) + types + 3;
    let allowed = collections + strings + variables + bookkeeping;
    let objects = loaded.object_count();
    let freed = allocations_freed_by_dropping(loaded) - empty;
    println!(
        "{what}: dropping {objects} objects ({tuples} tuples, {collections} sets and lists) \
         freed {freed} allocations, {strings} of them strings"
    );
    assert!(
        freed <= allowed as isize,
        "{what}: {freed} allocations for {objects} objects ({tuples} tuples), at most {allowed} allowed"
    );
}

#[test]
fn no_tuple_is_an_allocation() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    assert_no_allocation_per_tuple("fig6 at 1/5", fig6_fifth_base().db.base());
    assert_no_allocation_per_tuple("company", company_database().db.base());
}
