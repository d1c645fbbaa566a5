//! Out-of-core backing storage for term columns: spill files, pages and the
//! LRU buffer pool.
//!
//! A [`crate::view::TermColumn`] is logically a sequence of fixed-width
//! chunks ([`crate::par::CHUNK_WIDTH`] elements, the same grid every chunked
//! scan and reduction in the engine runs on). This module supplies the
//! *paged* representation of that sequence: column chunks serialized to a
//! process-local spill file, faulted back on demand through a small buffer
//! pool. The resident representation (dense in-memory vectors) lives in
//! [`crate::view`]; both representations expose the identical chunk-cursor
//! API, so every consumer above the storage layer is oblivious to where a
//! chunk's bytes currently are.
//!
//! # Page layout
//!
//! One page holds exactly one column chunk:
//!
//! * [`crate::par::CHUNK_WIDTH`] little-endian-native `f64` coefficients
//!   (tail chunks are zero-padded to full width), followed by
//! * [`MASK_WORDS_PER_CHUNK`] `u64` inclusion-mask words (bit `i % 64` of
//!   word `i / 64` set ⟺ element `i` of the chunk is included).
//!
//! Every page is therefore [`PAGE_BYTES`] bytes and page `p` starts at file
//! offset `p · PAGE_BYTES` — no directory, no indirection: a column stores
//! its first page id and chunk `c` lives on page `first + c`.
//!
//! Every chunk is written, but a `COUNT` chunk that includes every lane is
//! never read back: its coefficients are 1.0 exactly where its mask is set,
//! so its resident [`crate::view::ChunkMeta`] already says what the page
//! holds, and [`crate::view::TermColumn::chunk`] serves it from memory. The
//! file layout and the spilled byte counts do not depend on that.
//!
//! # Pinning rules
//!
//! [`SpillStore::read`] returns a [`PageGuard`] — an `Arc` over the decoded
//! frame. A page is *pinned* while any guard for it is alive: the pool may
//! drop the page from its table (so a later access re-reads the file), but
//! the frame's memory is only freed when the last guard goes. Pinning can
//! therefore never deadlock or block a concurrent scan, at the price of the
//! pool temporarily overshooting its capacity when more pages are pinned
//! than it can hold (a *starvation pool*: CI's forced-paged leg runs every
//! test through 4 frames, and `paged_determinism` scans through 2 under
//! 8-way [`crate::par::ParExec`] fan-outs).
//!
//! A miss allocates nothing once the pool is full: it evicts first, then
//! reads the page into the pool's one staging buffer and decodes it into the
//! frame it evicted. A frame is recycled only after it has been evicted
//! unpinned — the victim has no guard, and none can appear while the pool is
//! locked — so a guard's bytes never change under it.
//!
//! # Determinism contract
//!
//! Paging is storage, not computation: a faulted chunk decodes to exactly
//! the bytes the build wrote, chunk boundaries stay the fixed
//! [`crate::par::CHUNK_WIDTH`] grid, and per-chunk metadata
//! ([`crate::view::ChunkMeta`]) is computed once at build time from the
//! chunk buffer — before it is spilled — so resident and paged columns are
//! bit-identical sources and every result derived from them (packages,
//! objectives, solver counters) is too, at every thread count and every pool
//! size. Only the pool's *hit/miss counters* are timing-dependent; they are
//! observability, deliberately kept out of every solver result.
//!
//! # Spill-file lifecycle
//!
//! A [`SpillStore`] creates one file under the OS temp directory, named by
//! process id and a process-wide counter so concurrent stores never collide.
//! Columns built through one view build share that view's store (and its
//! pool); the file is deleted when the last `Arc<SpillStore>` drops — banked
//! columns in a [`crate::cache::ViewCache`] keep it alive exactly as long as
//! they are served.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::par::{chunk_count, CHUNK_WIDTH};

/// Inclusion-mask words per page: one bit per chunk element.
/// `CHUNK_WIDTH` is a multiple of 64, so chunks and words never straddle.
pub const MASK_WORDS_PER_CHUNK: usize = CHUNK_WIDTH / 64;

/// Bytes per page: a full-width coefficient chunk plus its mask words.
pub const PAGE_BYTES: usize = CHUNK_WIDTH * 8 + MASK_WORDS_PER_CHUNK * 8;

/// Default resident budget (bytes of column data per view build) above which
/// [`crate::spec::PackageSpec::build`] switches to paged columns: 1 GiB.
pub const DEFAULT_COLUMN_MEMORY_BUDGET: usize = 1 << 30;

/// Default buffer-pool capacity, in pages (~33 MiB).
pub const DEFAULT_POOL_PAGES: usize = 1024;

/// Pools smaller than this cannot make progress pinning a chunk per scan;
/// policies clamp up to it.
pub const MIN_POOL_PAGES: usize = 2;

/// Bytes one column of `len` candidates occupies (coefficients plus
/// chunk-aligned inclusion-mask words) — the unit both the paged-mode
/// decision and the [`crate::cache::ViewCache`] byte accounting use.
pub fn column_bytes(len: usize) -> usize {
    len * 8 + chunk_count(len) * MASK_WORDS_PER_CHUNK * 8
}

/// How a view build stores its term columns: resident below the budget,
/// paged (spill file + buffer pool) above it.
///
/// The decision is made once per view over the *estimated total* column
/// bytes (`#terms × `[`column_bytes`]`(n)`), so all columns one build
/// materializes share a mode — and a store. A policy reaches a build as the
/// `policy` of its [`crate::spec::BuildCtx`], always written down by someone
/// (the engine writes [`crate::config::EngineConfig`]'s `column_memory_budget`
/// and `pool_pages`). This module never reads the environment:
/// `PB_COLUMN_BUDGET` / `PB_POOL_PAGES` are only the defaults of those two
/// fields ([`crate::config::env_defaults`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnPolicy {
    /// Estimated column bytes above which a build goes paged.
    pub memory_budget: usize,
    /// Buffer-pool capacity, in pages, for stores this policy creates.
    pub pool_pages: usize,
}

impl ColumnPolicy {
    /// Always-resident storage (today's layout, zero-cost path).
    pub fn resident() -> Self {
        ColumnPolicy {
            memory_budget: usize::MAX,
            pool_pages: DEFAULT_POOL_PAGES,
        }
    }

    /// Always-paged storage through a pool of `pool_pages` pages (clamped to
    /// [`MIN_POOL_PAGES`]) — what the paged-vs-resident test suites use.
    pub fn paged(pool_pages: usize) -> Self {
        ColumnPolicy {
            memory_budget: 0,
            pool_pages: pool_pages.max(MIN_POOL_PAGES),
        }
    }

    /// True when a view of `terms` columns over `len` candidates should be
    /// built paged under this policy. Empty views stay resident: there is
    /// nothing to spill.
    pub fn wants_paged(&self, terms: usize, len: usize) -> bool {
        len > 0 && terms > 0 && terms.saturating_mul(column_bytes(len)) > self.memory_budget
    }
}

/// Buffer-pool activity counters (process-wide, aggregated over every
/// [`SpillStore`]) — see [`pool_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Page reads answered from the pool.
    pub hits: u64,
    /// Page reads that faulted the page in from the spill file.
    pub misses: u64,
    /// Unpinned pages dropped to make room.
    pub evictions: u64,
    /// Pages written to spill files (column chunks spilled).
    pub pages_spilled: u64,
}

static GLOBAL_HITS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_MISSES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_EVICTIONS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_SPILLED: AtomicU64 = AtomicU64::new(0);
static STORE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Process-wide buffer-pool counters, summed over every store that ever
/// lived. The harness snapshots this around each measured cell and records
/// the delta in the BENCH json; counters are monotone and never reset.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        hits: GLOBAL_HITS.load(Ordering::Relaxed),
        misses: GLOBAL_MISSES.load(Ordering::Relaxed),
        evictions: GLOBAL_EVICTIONS.load(Ordering::Relaxed),
        pages_spilled: GLOBAL_SPILLED.load(Ordering::Relaxed),
    }
}

/// One decoded page: a full-width coefficient chunk and its mask words.
#[derive(Clone)]
struct Frame {
    coeffs: Box<[f64]>,
    mask: Box<[u64]>,
}

impl Frame {
    /// A zeroed full-width frame, for a miss that found nothing to recycle.
    fn blank() -> Frame {
        Frame {
            coeffs: vec![0.0; CHUNK_WIDTH].into_boxed_slice(),
            mask: vec![0; MASK_WORDS_PER_CHUNK].into_boxed_slice(),
        }
    }
}

/// A pinned page. The pool may evict the page's table entry while guards
/// are alive; the frame's memory lives until the last guard drops (see the
/// module docs on pinning).
#[derive(Clone)]
pub struct PageGuard {
    frame: Arc<Frame>,
}

impl PageGuard {
    /// The first `len` coefficients of the pinned chunk.
    #[inline]
    pub fn coeffs(&self, len: usize) -> &[f64] {
        &self.frame.coeffs[..len]
    }

    /// The chunk's inclusion-mask words.
    #[inline]
    pub fn mask(&self) -> &[u64] {
        &self.frame.mask
    }

    /// Whether element `i` of the pinned chunk is included.
    #[inline]
    pub fn included(&self, i: usize) -> bool {
        (self.frame.mask[i / 64] >> (i % 64)) & 1 == 1
    }
}

struct PoolEntry {
    frame: Arc<Frame>,
    /// Monotone recency stamp; the smallest unpinned stamp is evicted first.
    stamp: u64,
}

struct Pool {
    frames: HashMap<u64, PoolEntry>,
    tick: u64,
    /// The one page-sized buffer every miss reads the file into.
    staging: Box<[u8]>,
}

/// A write-once spill file plus its LRU buffer pool.
///
/// Pages are appended during column materialization (columns are immutable
/// after construction, so the pool is a pure read cache — no dirty pages, no
/// write-back) and read back through [`SpillStore::read`]. The file is
/// deleted when the last `Arc<SpillStore>` drops.
pub struct SpillStore {
    file: Mutex<File>,
    path: PathBuf,
    pages: AtomicU64,
    pool: Mutex<Pool>,
    pool_pages: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl SpillStore {
    /// Creates an empty store whose pool holds at most `pool_pages` pages
    /// (clamped to [`MIN_POOL_PAGES`]). The backing file is created eagerly
    /// so creation fails loudly when the temp directory is unwritable.
    pub fn create(pool_pages: usize) -> io::Result<Arc<SpillStore>> {
        let path = std::env::temp_dir().join(format!(
            "pb-columns-{}-{}.spill",
            std::process::id(),
            STORE_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        Ok(Arc::new(SpillStore {
            file: Mutex::new(file),
            path,
            pages: AtomicU64::new(0),
            pool: Mutex::new(Pool {
                frames: HashMap::new(),
                tick: 0,
                staging: vec![0; PAGE_BYTES].into_boxed_slice(),
            }),
            pool_pages: pool_pages.max(MIN_POOL_PAGES),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }))
    }

    fn lock_file(&self) -> MutexGuard<'_, File> {
        self.file.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_pool(&self) -> MutexGuard<'_, Pool> {
        self.pool.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Path of the backing file (tests assert cleanup; diagnostics print it).
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Pages reserved so far (every one of them written once its column is
    /// sealed).
    pub fn page_count(&self) -> u64 {
        self.pages.load(Ordering::Relaxed)
    }

    /// Pool capacity, in pages.
    pub fn pool_pages(&self) -> usize {
        self.pool_pages
    }

    /// This store's own `(hits, misses, evictions)` counters (the global
    /// [`pool_stats`] aggregates all stores).
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }

    /// Allocates `pages` consecutive page ids and returns the first. A
    /// column reserves all of its pages before its first chunk is written,
    /// so it can address chunk `c` as page `first + c` even when several
    /// columns are written to the store chunk by chunk, interleaved.
    pub fn reserve(&self, pages: u64) -> u64 {
        self.pages.fetch_add(pages, Ordering::Relaxed)
    }

    /// Writes one column chunk (at most [`CHUNK_WIDTH`] coefficients, zero-
    /// padded to a full page, and the chunk's [`MASK_WORDS_PER_CHUNK`]
    /// inclusion-mask words, laid out as the module docs describe) to a
    /// page obtained from [`SpillStore::reserve`]. Pages are written once.
    pub fn write_chunk(&self, page: u64, coeffs: &[f64], mask: &[u64]) -> io::Result<()> {
        assert!(coeffs.len() <= CHUNK_WIDTH);
        assert_eq!(mask.len(), MASK_WORDS_PER_CHUNK);
        assert!(page < self.page_count(), "page {page} was never reserved");
        let mut buf = vec![0u8; PAGE_BYTES];
        for (i, &c) in coeffs.iter().enumerate() {
            buf[i * 8..i * 8 + 8].copy_from_slice(&c.to_ne_bytes());
        }
        let mask_base = CHUNK_WIDTH * 8;
        for (w, &word) in mask.iter().enumerate() {
            buf[mask_base + w * 8..mask_base + w * 8 + 8].copy_from_slice(&word.to_ne_bytes());
        }
        let mut file = self.lock_file();
        file.seek(SeekFrom::Start(page * PAGE_BYTES as u64))?;
        file.write_all(&buf)?;
        GLOBAL_SPILLED.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Reserves the next page and writes one chunk to it, returning the
    /// page id.
    pub fn append_chunk(&self, coeffs: &[f64], mask: &[u64]) -> io::Result<u64> {
        let page = self.reserve(1);
        self.write_chunk(page, coeffs, mask)?;
        Ok(page)
    }

    /// Pins `page`, faulting it in from the spill file on a pool miss and
    /// evicting the least-recently-used *unpinned* page when the pool is
    /// full. When every resident page is pinned the pool overshoots instead
    /// of blocking (see the module docs), so concurrent scans always make
    /// progress.
    ///
    /// # Panics
    ///
    /// On I/O errors reading the spill file — the store wrote this page
    /// itself, so a failed read means the environment destroyed the file
    /// under a live store, which no caller can meaningfully handle.
    pub fn read(&self, page: u64) -> PageGuard {
        debug_assert!(page < self.page_count());
        let mut pool = self.lock_pool();
        pool.tick += 1;
        let tick = pool.tick;
        if let Some(entry) = pool.frames.get_mut(&page) {
            entry.stamp = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            GLOBAL_HITS.fetch_add(1, Ordering::Relaxed);
            return PageGuard {
                frame: entry.frame.clone(),
            };
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        GLOBAL_MISSES.fetch_add(1, Ordering::Relaxed);
        // Make room first: the page is decoded into the frame it displaces.
        let mut recycled = None;
        while pool.frames.len() >= self.pool_pages {
            // Evict the stalest unpinned page (guards hold an Arc, so a
            // pinned page has strong_count > 1). Ties cannot happen: stamps
            // are unique.
            let victim = pool
                .frames
                // pb-lint: allow(no-hash-iteration) — LRU victim scan:
                // min_by_key over *unique* stamps is order-independent, so
                // map iteration order cannot change which page is evicted.
                .iter()
                .filter(|(_, e)| Arc::strong_count(&e.frame) == 1)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(&p, _)| p);
            let Some(p) = victim else {
                // Everything is pinned: overshoot rather than deadlock.
                break;
            };
            let evicted = pool.frames.remove(&p).map(|e| e.frame);
            recycled = recycled.or(evicted);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            GLOBAL_EVICTIONS.fetch_add(1, Ordering::Relaxed);
        }
        let mut frame = recycled.unwrap_or_else(|| Arc::new(Frame::blank()));
        // Fault the page in. Holding the pool lock across the read
        // serializes concurrent misses but guarantees each page is decoded
        // once; spill reads are the slow path by definition. The victim was
        // unpinned and no guard can appear while the pool is locked, so
        // `make_mut` hands back the evicted frame itself, never a copy.
        self.read_frame(page, &mut pool.staging, Arc::make_mut(&mut frame))
            .unwrap_or_else(|e| {
                panic!(
                    "spill file {} lost under a live store (page {page}): {e}",
                    self.path.display()
                )
            });
        pool.frames.insert(
            page,
            PoolEntry {
                frame: frame.clone(),
                stamp: tick,
            },
        );
        PageGuard { frame }
    }

    /// Reads `page` into `staging` and decodes it into `frame`, overwriting
    /// every coefficient and mask word.
    fn read_frame(&self, page: u64, staging: &mut [u8], frame: &mut Frame) -> io::Result<()> {
        {
            let mut file = self.lock_file();
            file.seek(SeekFrom::Start(page * PAGE_BYTES as u64))?;
            file.read_exact(staging)?;
        }
        let (coeffs, mask) = staging.split_at(CHUNK_WIDTH * 8);
        for (c, bytes) in frame.coeffs.iter_mut().zip(coeffs.chunks_exact(8)) {
            *c = f64::from_ne_bytes(bytes.try_into().unwrap());
        }
        for (word, bytes) in frame.mask.iter_mut().zip(mask.chunks_exact(8)) {
            *word = u64::from_ne_bytes(bytes.try_into().unwrap());
        }
        Ok(())
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        // Best effort: a failed unlink leaks one temp file, never data.
        let _ = std::fs::remove_file(&self.path);
    }
}

impl std::fmt::Debug for SpillStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (hits, misses, evictions) = self.counters();
        write!(
            f,
            "SpillStore({} pages, pool {} pages, {hits} hits, {misses} misses, {evictions} evictions)",
            self.page_count(),
            self.pool_pages,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::ParExec;

    /// Inclusion flags as a page's mask words.
    fn pack_mask(included: &[bool]) -> [u64; MASK_WORDS_PER_CHUNK] {
        let mut words = [0u64; MASK_WORDS_PER_CHUNK];
        for (i, &inc) in included.iter().enumerate() {
            words[i / 64] |= u64::from(inc) << (i % 64);
        }
        words
    }

    /// A recognizable chunk: element `i` of chunk `c` holds `c·W + i`, odd
    /// elements included — plus a few adversarial bit patterns in chunk 0.
    fn test_chunk(c: usize, len: usize) -> (Vec<f64>, Vec<bool>) {
        let mut coeffs: Vec<f64> = (0..len).map(|i| (c * CHUNK_WIDTH + i) as f64).collect();
        if c == 0 && len >= 4 {
            coeffs[0] = -0.0;
            coeffs[1] = f64::NEG_INFINITY;
            coeffs[2] = f64::MIN_POSITIVE / 2.0; // subnormal
            coeffs[3] = 1e308;
        }
        let included = (0..len).map(|i| i % 2 == 1).collect();
        (coeffs, included)
    }

    #[test]
    fn pages_round_trip_bit_exactly() {
        let store = SpillStore::create(4).unwrap();
        for c in 0..3usize {
            let len = if c == 2 { 100 } else { CHUNK_WIDTH };
            let (coeffs, included) = test_chunk(c, len);
            let page = store.append_chunk(&coeffs, &pack_mask(&included)).unwrap();
            assert_eq!(page, c as u64);
            let guard = store.read(page);
            for (i, &x) in coeffs.iter().enumerate() {
                assert_eq!(
                    guard.coeffs(len)[i].to_bits(),
                    x.to_bits(),
                    "chunk {c} elem {i}"
                );
                assert_eq!(guard.included(i), included[i]);
            }
        }
    }

    #[test]
    fn lru_eviction_respects_capacity_and_counts() {
        let store = SpillStore::create(2).unwrap();
        for c in 0..4usize {
            let (coeffs, included) = test_chunk(c, CHUNK_WIDTH);
            store.append_chunk(&coeffs, &pack_mask(&included)).unwrap();
        }
        // Cold reads: all misses; pages 0 and 1 then resident.
        store.read(0);
        store.read(1);
        assert_eq!(store.counters(), (0, 2, 0));
        // Re-reads hit.
        store.read(0);
        store.read(1);
        assert_eq!(store.counters(), (2, 2, 0));
        // Page 2 evicts page 0 (stalest); page 0 then misses again.
        store.read(2);
        assert_eq!(store.counters(), (2, 3, 1));
        store.read(0);
        assert_eq!(store.counters(), (2, 4, 2));
        // Page 2 was touched more recently than 1, so 1 was the victim.
        store.read(2);
        assert_eq!(store.counters(), (3, 4, 2));
    }

    #[test]
    fn pinned_pages_survive_eviction_and_starved_pools_overshoot() {
        let store = SpillStore::create(2).unwrap();
        for c in 0..4usize {
            let (coeffs, included) = test_chunk(c, CHUNK_WIDTH);
            store.append_chunk(&coeffs, &pack_mask(&included)).unwrap();
        }
        let g0 = store.read(0);
        let g1 = store.read(1);
        // Both resident pages are pinned: faulting two more pages must not
        // block and must leave the pinned data intact.
        let g2 = store.read(2);
        let g3 = store.read(3);
        assert_eq!(g0.coeffs(CHUNK_WIDTH)[5], 5.0);
        assert_eq!(g1.coeffs(CHUNK_WIDTH)[5], (CHUNK_WIDTH + 5) as f64);
        assert_eq!(g2.coeffs(CHUNK_WIDTH)[5], (2 * CHUNK_WIDTH + 5) as f64);
        assert_eq!(g3.coeffs(CHUNK_WIDTH)[5], (3 * CHUNK_WIDTH + 5) as f64);
        drop((g0, g1, g2, g3));
        // With the pins gone the pool trims back to capacity on the next
        // fault — and the previously pinned pages' contents re-read intact.
        store.read(0);
        assert_eq!(store.read(0).coeffs(CHUNK_WIDTH)[7], 7.0);
    }

    /// Asserts that `guard` holds chunk `c` as [`test_chunk`] wrote it.
    fn assert_holds(guard: &PageGuard, c: usize) {
        let (coeffs, included) = test_chunk(c, CHUNK_WIDTH);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(guard.coeffs(CHUNK_WIDTH)), bits(&coeffs), "page {c}");
        assert_eq!(guard.mask(), pack_mask(&included), "page {c}");
    }

    #[test]
    fn misses_recycle_evicted_frames_and_never_a_pinned_one() {
        let store = SpillStore::create(2).unwrap();
        let pages = 6usize;
        for c in 0..pages {
            let (coeffs, included) = test_chunk(c, CHUNK_WIDTH);
            store.append_chunk(&coeffs, &pack_mask(&included)).unwrap();
        }
        let a = store.read(0);
        let frame = |g: &PageGuard| Arc::as_ptr(&g.frame);

        // One guard at a time besides A's: the pool has one frame to spare,
        // and every miss after the first decodes into it again.
        let mut spare = Vec::new();
        for _ in 0..3 {
            for c in 1..pages {
                let g = store.read(c as u64);
                assert_ne!(frame(&g), frame(&a), "A's pinned frame was recycled");
                assert_holds(&g, c);
                assert_holds(&a, 0);
                spare.push(frame(&g));
            }
        }
        spare.dedup();
        assert_eq!(spare.len(), 1, "every miss reused the evicted frame");
        assert_eq!(store.counters(), (0, 16, 14));

        // Two pins besides A's, so every resident page is pinned at each
        // miss: no pinned frame is ever handed out for another page.
        let mut held = (1, store.read(1));
        for c in (1..pages).cycle().skip(1).take(20) {
            let g = store.read(c as u64);
            assert!(![frame(&a), frame(&held.1)].contains(&frame(&g)));
            assert_holds(&g, c);
            assert_holds(&held.1, held.0);
            assert_holds(&a, 0);
            held = (c, g);
        }
    }

    #[test]
    fn concurrent_parexec_scans_pin_and_unpin_safely() {
        // A 2-page starvation pool under an 8-way chunk fan-out: every
        // worker pins, reads and unpins concurrently; contents must be
        // correct everywhere and the pool must end within bounds.
        let store = SpillStore::create(2).unwrap();
        let chunks = 16usize;
        for c in 0..chunks {
            let (coeffs, included) = test_chunk(c, CHUNK_WIDTH);
            store.append_chunk(&coeffs, &pack_mask(&included)).unwrap();
        }
        let par = ParExec::new(8);
        let sums = par.run_chunks(chunks * CHUNK_WIDTH, |c, range| {
            let guard = store.read(c as u64);
            let coeffs = guard.coeffs(range.len());
            let mut sum = 0.0;
            for (i, &x) in coeffs.iter().enumerate() {
                if guard.included(i) {
                    sum += x;
                }
            }
            sum
        });
        assert_eq!(sums.len(), chunks);
        for (c, &sum) in sums.iter().enumerate() {
            let (coeffs, included) = test_chunk(c, CHUNK_WIDTH);
            let expect: f64 = coeffs
                .iter()
                .zip(&included)
                .filter(|(_, &inc)| inc)
                .map(|(&x, _)| x)
                .sum();
            assert_eq!(sum, expect, "chunk {c}");
        }
        let (hits, misses, _) = store.counters();
        assert_eq!(hits + misses, chunks as u64);
    }

    #[test]
    fn spill_file_is_cleaned_up_on_drop() {
        let store = SpillStore::create(2).unwrap();
        let (coeffs, included) = test_chunk(0, 64);
        store.append_chunk(&coeffs, &pack_mask(&included)).unwrap();
        let path = store.path().to_path_buf();
        assert!(path.exists(), "spill file must exist while the store lives");
        // A pinned guard does not keep the *file* alive — only the frame.
        let guard = store.read(0);
        drop(store);
        assert!(!path.exists(), "spill file must be deleted on drop");
        assert_eq!(guard.coeffs(64)[5], 5.0, "pinned frame outlives the file");
    }

    #[test]
    fn policy_thresholds_and_env_defaults() {
        assert!(!ColumnPolicy::resident().wants_paged(3, 10_000_000));
        assert!(ColumnPolicy::paged(2).wants_paged(1, 1));
        assert!(!ColumnPolicy::paged(2).wants_paged(0, 100));
        assert!(!ColumnPolicy::paged(2).wants_paged(3, 0));
        let p = ColumnPolicy {
            memory_budget: column_bytes(10_000) * 2,
            pool_pages: 8,
        };
        assert!(!p.wants_paged(2, 10_000));
        assert!(p.wants_paged(3, 10_000));
        assert_eq!(ColumnPolicy::paged(0).pool_pages, MIN_POOL_PAGES);
        assert_eq!(PAGE_BYTES, CHUNK_WIDTH * 8 + MASK_WORDS_PER_CHUNK * 8);
    }
}
