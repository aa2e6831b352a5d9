//! The store's footprint is the §5 entry budget.
//!
//! The paper prices a stored document at `8 + η·⌈r/8⌉` bytes (176 B at r = 448,
//! η = 3). A [`ShardedStore`] keeps exactly those bytes in entry pages plus an
//! id column and the id map; a [`SearchEngine`] adds its scan planes (η·r bits
//! again, transposed) and their id column, and nothing else per document. A
//! counting allocator holds both to their budgets in live bytes — allocated
//! minus freed — after the inputs are gone, so a decoded copy kept anywhere
//! (η + 1 heap allocations per document) fails here.
//!
//! CI also runs this suite in release mode, where the optimizer may change
//! what is allocated but must not change what is kept.

use mkse_core::scanplane::CHUNK;
use mkse_core::{BitIndex, RankedDocumentIndex, SearchEngine, ShardedStore, SystemParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Bytes handed out and given back, by every thread of the process.
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static FREED: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is two relaxed atomic counters,
// which neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout (above).
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        FREED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Bytes allocated and not yet freed, process-wide. Every free follows its
/// allocation, so reading `FREED` first never reads more freed than allocated.
fn live() -> usize {
    let freed = FREED.load(Ordering::Relaxed);
    ALLOCATED.load(Ordering::Relaxed) - freed
}

/// The tests measure one process-wide counter: one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

const DOCS: usize = 8_192;
const SHARDS: usize = 2;
/// The store's budget per document: the 168-byte entry, its 8-byte id and the
/// id map's share — 240 B, where a decoded document alone costs ≈ 330 B.
const STORE_BYTES_PER_DOC: usize = 240;
/// What a scanning process adds per document: the plane's η·r bits (168 B at
/// the paper's geometry) and its id column.
const PLANE_BYTES_PER_DOC: usize = 184;

/// The live bytes `build` leaves behind once it returns, with what it built
/// still held.
fn live_bytes_of<T>(build: impl FnOnce() -> T) -> (T, usize) {
    let before = live();
    let built = build();
    (built, live().saturating_sub(before))
}

/// `DOCS` paper-geometry documents of random bits, one at a time: each is
/// built, handed to `insert` and dropped, so nothing of the inputs stays live.
fn insert_corpus(params: &SystemParams, mut insert: impl FnMut(RankedDocumentIndex)) {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let r = params.index_bits;
    for id in 0..DOCS as u64 {
        let levels = (0..params.rank_levels())
            .map(|_| BitIndex::from_blocks((0..r.div_ceil(64)).map(|_| rng.gen()).collect(), r))
            .collect();
        insert(RankedDocumentIndex {
            document_id: id,
            levels,
        });
    }
}

/// One open entry page: the slack a shard may hold beyond its documents.
fn page_bytes(params: &SystemParams) -> usize {
    CHUNK * params.rank_levels() * params.index_bits.div_ceil(64) * 8
}

#[test]
fn store_holds_the_entry_bytes_and_the_id_map_only() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let params = SystemParams::default();
    let (store, held) = live_bytes_of(|| {
        let mut store = ShardedStore::new(params.clone(), SHARDS);
        insert_corpus(&params, |doc| {
            store.insert(doc).unwrap();
        });
        store
    });
    assert_eq!(store.len(), DOCS);
    let budget = DOCS * STORE_BYTES_PER_DOC + SHARDS * page_bytes(&params);
    assert!(
        held <= budget,
        "{SHARDS}-shard store holds {held} B for {DOCS} documents ({} B/doc), budget {budget} B",
        held / DOCS
    );
}

#[test]
fn engine_adds_only_its_planes() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let params = SystemParams::default();
    let (engine, held) = live_bytes_of(|| {
        let mut engine = SearchEngine::sharded(params.clone(), SHARDS);
        insert_corpus(&params, |doc| engine.insert(doc).unwrap());
        engine
    });
    assert_eq!(engine.len(), DOCS);
    let budget = DOCS * (STORE_BYTES_PER_DOC + PLANE_BYTES_PER_DOC) + SHARDS * page_bytes(&params);
    assert!(
        held <= budget,
        "{SHARDS}-shard engine holds {held} B for {DOCS} documents ({} B/doc), budget {budget} B",
        held / DOCS
    );
}
