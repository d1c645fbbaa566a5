//! The columnar evaluation core: [`CandidateView`].
//!
//! Every evaluation strategy used to re-interpret PaQL aggregate expressions
//! per tuple against the base table — an expression-tree walk per member per
//! neighbour per move. The view replaces that with a **columnar**
//! representation built once per query, in one fused pass over the candidate
//! set (`materialize_chunk`: every term's filter and argument bound once as
//! a [`minidb::eval::BoundExpr`] and evaluated in its chunk form, 4096
//! candidates at a time, from the base table's typed column vectors straight
//! into the term columns' own buffers or pages):
//!
//! * for every distinct aggregate term referenced by the `SUCH THAT` formula
//!   or the objective, a dense `f64` column over the candidate set (the
//!   term's per-tuple contribution) plus an inclusion bitmask folding in the
//!   `FILTER (WHERE ...)` predicate and NULL-ness of the argument;
//! * the formula and objective recompiled against term indices
//!   ([`CompiledExpr`] / [`CompiledFormula`]), so package-level evaluation is
//!   a handful of dot products and comparisons with no AST in sight;
//! * [`ViewState`], an incremental accumulator that scores multiplicity
//!   deltas (swap / add / drop moves) in `O(#terms)` per move instead of
//!   re-aggregating the whole package. Single moves are point lookups
//!   ([`ViewState::score_with`]); the full-neighbourhood scans of greedy
//!   repair and the local search score a whole chunk per pin through
//!   [`ViewState::move_scan`] (the kernel in `view/scan.rs`), bit-identical
//!   to the point path.
//!
//! The interpreted path ([`Package::eval_aggregate`] and friends) survives as
//! the debug oracle: `columnar_matches_interpreted` asserts agreement on
//! random queries, and the property suite in `tests/columnar_oracle.rs`
//! exercises both paths over every datagen scenario.
//!
//! Columns are chunked at a fixed 4096-element width ([`TermColumn`]), and
//! since the [`crate::column_store`] subsystem landed a column's chunks can
//! live **out of core**: under a paged [`crate::column_store::ColumnPolicy`]
//! (the `policy` of the build's [`crate::spec::BuildCtx`]) they are spilled
//! to a temporary file at build time and scanned back through an LRU buffer
//! pool, chunk by chunk, while the per-chunk [`ChunkMeta`] summaries stay
//! resident. Consumers iterate
//! [`TermColumn::chunk`] cursors (or the point accessor
//! [`TermColumn::entry_at`]) and never learn where the bytes live; resident
//! and paged builds are bit-identical.
//!
//! A view has one constructor, [`CandidateView::assemble`], which adopts a
//! candidate list and any already-built term columns verbatim and computes
//! only the columns the query adds from the base table — how the
//! [`crate::cache`] serves a hit; [`CandidateView::build`] is the same thing
//! with nothing to adopt. Every view additionally
//! carries a [`crate::cache::PartitionMemo`] so the sketch→refine solver's
//! offline partitioning is computed at most once per (view contents,
//! partition size, seed) — including across cached queries.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use minidb::eval::BoundExpr;
use minidb::table::Selection;
use minidb::{Expr, Schema, Table, TupleId};
use paql::ast::GlobalArithOp;
use paql::{
    AggCall, AggFunc, CmpOp, GlobalExpr, GlobalFormula, Objective, ObjectiveDirection, PaqlQuery,
};

use crate::budget::Budget;
use crate::cache::PartitionMemo;
use crate::column_store::{PageGuard, SpillStore, MASK_WORDS_PER_CHUNK, PAGE_BYTES};
use crate::ilp::STRICT_MARGIN;
use crate::package::Package;
use crate::par::{chunk_count, chunk_range, ParExec, CHUNK_WIDTH};
use crate::partition::Partitioning;
use crate::spec::BuildCtx;
use crate::{PbError, PbResult};

mod scan;
#[cfg(test)]
pub(crate) use scan::MIN_GAIN;
pub(crate) use scan::{lex_better, neighbourhood_pass, Score};
pub use scan::{ChunkScores, MoveScan, ScanChunk};

/// Penalty for constraints whose sides cannot be evaluated (NULL aggregate)
/// or whose distance is NaN while they fail; the interpreted path's too.
pub(crate) const UNEVALUABLE_PENALTY: f64 = 1e9;

/// Precomputed aggregates of one [`crate::par::CHUNK_WIDTH`]-wide chunk of a
/// [`TermColumn`], over the chunk's *included* entries only.
///
/// Chunk metadata is computed once at column materialization (per chunk, so
/// the values are identical no matter how many threads built the column) and
/// lets consumers answer whole-column questions — the value range feeding
/// [`crate::pruning::derive_bounds`], for instance — in `O(#chunks)` by
/// combining the per-chunk values **in chunk order**, without rescanning the
/// column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkMeta {
    /// Sum of the included entries' coefficients (0.0 when none).
    pub sum: f64,
    /// Minimum included coefficient (`+∞` when the chunk has none).
    pub min: f64,
    /// Maximum included coefficient (`-∞` when the chunk has none).
    pub max: f64,
    /// Number of included entries in the chunk.
    pub included: u32,
}

/// Where a column's chunk payload lives. Metadata ([`ChunkMeta`]) is always
/// resident either way — only the coefficient/mask bytes move.
#[derive(Debug, Clone)]
enum ColumnData {
    /// The dense in-memory layout: one contiguous coefficient vector and a
    /// chunk-aligned inclusion bitmask (chunk `c` owns words
    /// `c · MASK_WORDS_PER_CHUNK ..`, padded at the tail so every chunk's
    /// words are full-width — the same shape a spill page has). Shared, not
    /// copied, by every clone of the column: a view and the cache bank that
    /// adopts its columns hold the same vectors.
    Resident {
        coeffs: Arc<Vec<f64>>,
        mask: Arc<Vec<u64>>,
    },
    /// Chunks spilled to a [`SpillStore`]: chunk `c` is page `first_page + c`
    /// of the (possibly shared) store, faulted in through its buffer pool.
    Paged {
        store: Arc<SpillStore>,
        first_page: u64,
    },
}

/// One aggregate term (`SUM(P.calories)`, `COUNT(*) FILTER (WHERE ...)`, …)
/// lowered to columns over the candidate set.
///
/// # Chunked layout
///
/// A column is a sequence of *chunk handles*: fixed-width chunks of
/// [`crate::par::CHUNK_WIDTH`] elements with a [`ChunkMeta`] (partial sum,
/// min/max, included count over the chunk's included entries) kept per chunk,
/// always in memory. The chunk *payload* (coefficients + inclusion mask)
/// lives either resident (dense vectors — the zero-cost path) or paged
/// (spill file + LRU buffer pool, [`crate::column_store`]); consumers access
/// it uniformly through [`TermColumn::chunk`] cursors or the per-element
/// [`TermColumn::entry_at`]. Two invariants make this the substrate for
/// deterministic data parallelism:
///
/// * **Chunk boundaries are fixed** — always `CHUNK_WIDTH` elements, derived
///   from the candidate count alone, never from the thread count or the
///   storage mode.
/// * **Reductions combine chunks in chunk order** — so any whole-column
///   value derived from the metadata (or from a parallel scan chunked the
///   same way) is bit-identical at every `num_threads` — and, since paging
///   moves bytes without touching values or boundaries, in both storage
///   modes.
///
/// Columns are immutable after construction (a [`ColumnSink`]'s
/// [`ChunkSlot`]s compute the metadata chunk by chunk as the column is
/// materialized; paged chunks are written to the spill file exactly once and
/// never written back); the cache shares them by `Arc` across queries.
#[derive(Debug, Clone)]
pub struct TermColumn {
    /// The aggregate function.
    pub func: AggFunc,
    /// Number of candidates (elements) in the column.
    len: usize,
    /// The chunk payload: per-candidate contribution (the argument value,
    /// 1.0 for `COUNT(*)`, forced to 0.0 where excluded) plus the inclusion
    /// mask (`FILTER` passed and the argument was non-NULL).
    data: ColumnData,
    /// Per-chunk partial aggregates over the included entries.
    chunks: Vec<ChunkMeta>,
}

/// One pinned chunk of a [`TermColumn`]: borrowed slices for resident
/// columns, a buffer-pool [`PageGuard`] for paged ones. The chunk stays
/// pinned (immune to eviction) for the guard's lifetime — scan loops hold
/// one of these per chunk, never per element.
pub enum ColumnChunk<'c> {
    /// Resident chunk: slices borrowed straight from the column (or, for a
    /// paged COUNT chunk that includes every lane, the static all-ones
    /// payload its metadata implies).
    Resident {
        /// The chunk's coefficients (exact chunk length).
        coeffs: &'c [f64],
        /// The chunk's inclusion-mask words ([`MASK_WORDS_PER_CHUNK`] of them).
        mask: &'c [u64],
    },
    /// Paged chunk: a pinned buffer-pool page.
    Paged {
        /// The pinned page.
        guard: PageGuard,
        /// The chunk's exact length (tail chunks are shorter than the page).
        len: usize,
    },
}

impl ColumnChunk<'_> {
    /// Elements in this chunk.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            ColumnChunk::Resident { coeffs, .. } => coeffs.len(),
            ColumnChunk::Paged { len, .. } => *len,
        }
    }

    /// True when the chunk has no elements (never, for chunks of a
    /// non-empty column).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The chunk's coefficients.
    #[inline]
    pub fn coeffs(&self) -> &[f64] {
        match self {
            ColumnChunk::Resident { coeffs, .. } => coeffs,
            ColumnChunk::Paged { guard, len } => guard.coeffs(*len),
        }
    }

    /// Whether element `i` of this chunk is included.
    #[inline]
    pub fn included(&self, i: usize) -> bool {
        match self {
            ColumnChunk::Resident { mask, .. } => (mask[i / 64] >> (i % 64)) & 1 == 1,
            ColumnChunk::Paged { guard, .. } => guard.included(i),
        }
    }

    /// The chunk's inclusion-mask words ([`MASK_WORDS_PER_CHUNK`] of them;
    /// bit `i % 64` of word `i / 64` is element `i`).
    #[inline]
    pub fn mask_words(&self) -> &[u64] {
        match self {
            ColumnChunk::Resident { mask, .. } => mask,
            ColumnChunk::Paged { guard, .. } => guard.mask(),
        }
    }
}

#[inline]
fn mask_bit(mask: &[u64], idx: usize) -> bool {
    (mask[idx / 64] >> (idx % 64)) & 1 == 1
}

/// The payload of a COUNT chunk that includes every lane: the coefficient
/// is 1.0 exactly where the mask is set, so such a chunk needs no page.
static COUNT_ONES: [f64; CHUNK_WIDTH] = [1.0; CHUNK_WIDTH];
static ALL_INCLUDED: [u64; MASK_WORDS_PER_CHUNK] = [u64::MAX; MASK_WORDS_PER_CHUNK];

impl TermColumn {
    /// Builds a resident column from its dense coefficient and inclusion
    /// vectors, computing the per-chunk metadata. ([`ColumnSink`] is the
    /// general constructor; this is the convenience wrapper around it.)
    pub fn new(func: AggFunc, coeffs: Vec<f64>, included: Vec<bool>) -> Self {
        ColumnSink::resident(func, coeffs.len())
            .fill_from(&coeffs, &included)
            // pb-lint: allow(no-panic-in-solver-paths) — invariant: a
            // resident sink does no I/O, and the error arm exists only
            // for the paged variant.
            .expect("resident sink cannot fail")
    }

    /// Number of candidates (elements) in the column.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the column has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when the chunk payload lives in a spill file rather than memory.
    pub fn is_paged(&self) -> bool {
        matches!(self.data, ColumnData::Paged { .. })
    }

    /// Bytes of chunk payload held in memory (0 for paged columns — the
    /// buffer pool's frames belong to the pool, not the column).
    pub fn resident_bytes(&self) -> usize {
        match &self.data {
            ColumnData::Resident { coeffs, mask } => coeffs.len() * 8 + mask.len() * 8,
            ColumnData::Paged { .. } => 0,
        }
    }

    /// Bytes of chunk payload in the spill file (0 for resident columns).
    pub fn spilled_bytes(&self) -> usize {
        match &self.data {
            ColumnData::Resident { .. } => 0,
            ColumnData::Paged { .. } => self.chunks.len() * PAGE_BYTES,
        }
    }

    /// Whether chunk `c` is a COUNT chunk that includes every lane, whose
    /// payload its [`ChunkMeta`] already determines. Only a full-width chunk
    /// can be one, so a tail chunk (whose mask words are zero past the
    /// column's end) always keeps its page.
    #[inline]
    fn all_ones(&self, c: usize) -> bool {
        self.func == AggFunc::Count && self.chunks[c].included as usize == CHUNK_WIDTH
    }

    /// Pins chunk `c` and returns a cursor over its payload. Scan loops call
    /// this once per chunk and index inside the guard — one buffer-pool
    /// round-trip per [`crate::par::CHUNK_WIDTH`] elements. A paged COUNT
    /// chunk that includes every lane makes no round-trip: its payload is
    /// all ones, served from memory (its page is written, never read).
    #[inline]
    pub fn chunk(&self, c: usize) -> ColumnChunk<'_> {
        let r = chunk_range(c, self.len);
        match &self.data {
            ColumnData::Resident { coeffs, mask } => ColumnChunk::Resident {
                coeffs: &coeffs[r],
                mask: &mask[c * MASK_WORDS_PER_CHUNK..(c + 1) * MASK_WORDS_PER_CHUNK],
            },
            ColumnData::Paged { .. } if self.all_ones(c) => ColumnChunk::Resident {
                coeffs: &COUNT_ONES,
                mask: &ALL_INCLUDED,
            },
            ColumnData::Paged { store, first_page } => ColumnChunk::Paged {
                guard: store.read(first_page + c as u64),
                len: r.len(),
            },
        }
    }

    /// `(coefficient, included)` of element `idx` with a single chunk pin.
    /// A **point lookup**: on a paged column every call is a buffer-pool
    /// request (except in a COUNT chunk that includes every lane, which
    /// [`TermColumn::chunk`] serves without a page), so it serves [`ViewState::apply`] and
    /// [`ViewState::score_with`] (a handful of elements per move) and
    /// nothing that visits every candidate — full scans pin
    /// [`TermColumn::chunk`] once per 4096 elements
    /// ([`ViewState::move_scan`]).
    #[inline]
    pub fn entry_at(&self, idx: usize) -> (f64, bool) {
        match &self.data {
            ColumnData::Resident { coeffs, mask } => (coeffs[idx], mask_bit(mask, idx)),
            ColumnData::Paged { .. } if self.all_ones(idx / CHUNK_WIDTH) => (1.0, true),
            ColumnData::Paged { store, first_page } => {
                let g = store.read(first_page + (idx / CHUNK_WIDTH) as u64);
                (
                    g.coeffs(CHUNK_WIDTH)[idx % CHUNK_WIDTH],
                    g.included(idx % CHUNK_WIDTH),
                )
            }
        }
    }

    /// The resident coefficient slice, when there is one — the fast path
    /// scan loops take before falling back to chunk cursors.
    pub fn resident_coeffs(&self) -> Option<&[f64]> {
        match &self.data {
            ColumnData::Resident { coeffs, .. } => Some(coeffs.as_slice()),
            ColumnData::Paged { .. } => None,
        }
    }

    /// Copies the whole coefficient column out as a dense vector (chunk by
    /// chunk, in chunk order), for partitioning and tests. Linear rows are
    /// written from [`TermColumn::chunk`] cursors by [`crate::ilp`] instead.
    pub fn coeffs_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len);
        for c in 0..self.chunks.len() {
            out.extend_from_slice(self.chunk(c).coeffs());
        }
        out
    }

    /// Copies the whole inclusion column out as a dense vector.
    pub fn included_vec(&self) -> Vec<bool> {
        let mut out = Vec::with_capacity(self.len);
        for c in 0..self.chunks.len() {
            let chunk = self.chunk(c);
            out.extend((0..chunk.len()).map(|i| chunk.included(i)));
        }
        out
    }

    /// The per-chunk metadata, one entry per [`crate::par::CHUNK_WIDTH`]-wide
    /// chunk — always resident, whatever the payload's storage mode, so
    /// metadata consumers ([`crate::pruning::derive_bounds`], the k-d spread
    /// scans) never fault a page.
    pub fn chunk_meta(&self) -> &[ChunkMeta] {
        &self.chunks
    }

    /// Number of included entries (combining chunk metadata).
    pub fn included_count(&self) -> u64 {
        self.chunks.iter().map(|m| m.included as u64).sum()
    }

    /// Sum of the included entries' coefficients, combining the per-chunk
    /// partial sums in chunk order (so the value is bit-identical no matter
    /// how the column was built). Feeds the pruning layer's reachable-sum
    /// infeasibility probe.
    pub fn included_sum(&self) -> f64 {
        self.chunks.iter().map(|m| m.sum).sum()
    }

    /// Minimum coefficient over the included entries (`None` when no entry
    /// is included), combined from the chunk metadata in chunk order.
    pub fn included_min(&self) -> Option<f64> {
        (self.included_count() > 0)
            .then(|| self.chunks.iter().fold(f64::INFINITY, |a, m| a.min(m.min)))
    }

    /// Maximum coefficient over the included entries (`None` when no entry
    /// is included), combined from the chunk metadata in chunk order.
    pub fn included_max(&self) -> Option<f64> {
        (self.included_count() > 0).then(|| {
            self.chunks
                .iter()
                .fold(f64::NEG_INFINITY, |a, m| a.max(m.max))
        })
    }
}

/// [`TermColumn`] builder: the column's storage — resident vectors, or
/// reserved pages of a [`SpillStore`] — is laid out up front for a known
/// length, and [`ColumnSink::chunk_slots`] hands out one [`ChunkSlot`] per
/// fixed-width chunk. Chunks are filled in place, in any order and from any
/// thread; the per-chunk [`ChunkMeta`] is computed by the slot, from the
/// chunk's lanes, *before* the payload is stored — the same values in both
/// modes, which is half of the paged-vs-resident determinism contract (the
/// other half being fixed chunk boundaries).
pub struct ColumnSink {
    func: AggFunc,
    len: usize,
    mode: SinkMode,
}

enum SinkMode {
    Resident {
        coeffs: Vec<f64>,
        mask: Vec<u64>,
    },
    /// Chunk `c` goes to page `first_page + c`.
    Paged {
        store: Arc<SpillStore>,
        first_page: u64,
    },
}

/// One chunk of a column under construction: where its coefficient lanes
/// and inclusion-mask words go.
pub struct ChunkSlot<'s> {
    len: usize,
    target: SlotTarget<'s>,
}

enum SlotTarget<'s> {
    /// The chunk's own range of the resident vectors.
    Resident {
        coeffs: &'s mut [f64],
        mask: &'s mut [u64],
    },
    /// A reserved page, written once from a page-shaped scratch buffer.
    Paged { store: &'s SpillStore, page: u64 },
}

impl ChunkSlot<'_> {
    /// Hands `fill` the chunk's coefficient lanes (all zero) and one
    /// inclusion flag per lane (all false) to write in place, then packs
    /// the flags into the chunk's mask words, summarizes the included lanes
    /// into the chunk's [`ChunkMeta`] (in lane order) and, for a paged
    /// column, writes the page.
    pub fn fill(
        self,
        fill: impl FnOnce(&mut [f64], &mut [bool]) -> PbResult<()>,
    ) -> PbResult<ChunkMeta> {
        let mut included = vec![false; self.len];
        match self.target {
            SlotTarget::Resident { coeffs, mask } => {
                fill(coeffs, &mut included)?;
                Ok(seal_chunk(coeffs, &included, mask))
            }
            SlotTarget::Paged { store, page } => {
                let mut coeffs = vec![0.0; self.len];
                let mut mask = [0u64; MASK_WORDS_PER_CHUNK];
                fill(&mut coeffs, &mut included)?;
                let meta = seal_chunk(&coeffs, &included, &mut mask);
                store
                    .write_chunk(page, &coeffs, &mask)
                    .map_err(|e| PbError::Internal(format!("column spill write: {e}")))?;
                Ok(meta)
            }
        }
    }
}

/// Packs a chunk's inclusion flags into its (zeroed) mask words and folds
/// the included coefficients, in lane order, into its [`ChunkMeta`].
fn seal_chunk(coeffs: &[f64], included: &[bool], mask: &mut [u64]) -> ChunkMeta {
    let mut meta = ChunkMeta {
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
        included: 0,
    };
    for ((coeffs, included), word) in coeffs.chunks(64).zip(included.chunks(64)).zip(mask) {
        for (i, &inc) in included.iter().enumerate() {
            *word |= u64::from(inc) << i;
        }
        meta.included += word.count_ones();
        // `min`/`max` are NaN-aware and slow to chain, and the running
        // extrema are never NaN: a lane can only move one if it is at or
        // beyond it with different bits. Extrema only tighten, so a word
        // none of whose lanes passes that test against the extrema it
        // starts from just adds up, in lane order.
        let moves = |c: f64, meta: &ChunkMeta| {
            (c <= meta.min && c.to_bits() != meta.min.to_bits())
                || (c >= meta.max && c.to_bits() != meta.max.to_bits())
        };
        if *word == u64::MAX && !coeffs.iter().any(|&c| moves(c, &meta)) {
            coeffs.iter().for_each(|&c| meta.sum += c);
            continue;
        }
        // Set bits, lowest first: one iteration per included lane.
        let mut rest = *word;
        while rest != 0 {
            let c = coeffs[rest.trailing_zeros() as usize];
            meta.sum += c;
            if moves(c, &meta) {
                meta.min = meta.min.min(c);
                meta.max = meta.max.max(c);
            }
            rest &= rest - 1;
        }
    }
    meta
}

impl ColumnSink {
    /// A sink building a resident column of `len` elements.
    pub fn resident(func: AggFunc, len: usize) -> Self {
        ColumnSink {
            func,
            len,
            mode: SinkMode::Resident {
                coeffs: vec![0.0; len],
                mask: vec![0; chunk_count(len) * MASK_WORDS_PER_CHUNK],
            },
        }
    }

    /// A sink spilling a column of `len` elements to `store` (one view build
    /// shares one store across all its columns — and its buffer pool with
    /// every reader). The column's pages are reserved here, consecutively,
    /// so the fused build can write chunks of several columns interleaved.
    pub fn paged(func: AggFunc, store: Arc<SpillStore>, len: usize) -> Self {
        ColumnSink {
            func,
            len,
            mode: SinkMode::Paged {
                first_page: store.reserve(chunk_count(len) as u64),
                store,
            },
        }
    }

    /// The column's chunks, in chunk order (all
    /// [`crate::par::CHUNK_WIDTH`] wide except possibly the last). Every
    /// slot must be [`ChunkSlot::fill`]ed exactly once before
    /// [`ColumnSink::finish`].
    pub fn chunk_slots(&mut self) -> Vec<ChunkSlot<'_>> {
        let len = self.len;
        let slot_len = |c: usize| chunk_range(c, len).len();
        match &mut self.mode {
            SinkMode::Resident { coeffs, mask } => coeffs
                .chunks_mut(CHUNK_WIDTH)
                .zip(mask.chunks_mut(MASK_WORDS_PER_CHUNK))
                .map(|(coeffs, mask)| ChunkSlot {
                    len: coeffs.len(),
                    target: SlotTarget::Resident { coeffs, mask },
                })
                .collect(),
            SinkMode::Paged { store, first_page } => (0..chunk_count(len))
                .map(|c| ChunkSlot {
                    len: slot_len(c),
                    target: SlotTarget::Paged {
                        store,
                        page: *first_page + c as u64,
                    },
                })
                .collect(),
        }
    }

    /// Seals the column; `chunks` is what [`ChunkSlot::fill`] returned for
    /// each chunk, in chunk order.
    pub fn finish(self, chunks: Vec<ChunkMeta>) -> TermColumn {
        assert_eq!(
            chunks.len(),
            chunk_count(self.len),
            "a column is sealed with one ChunkMeta per chunk"
        );
        let data = match self.mode {
            SinkMode::Resident { coeffs, mask } => ColumnData::Resident {
                coeffs: Arc::new(coeffs),
                mask: Arc::new(mask),
            },
            SinkMode::Paged { store, first_page } => ColumnData::Paged { store, first_page },
        };
        TermColumn {
            func: self.func,
            len: self.len,
            data,
            chunks,
        }
    }

    /// Fills every chunk from dense coefficient and inclusion vectors of the
    /// sink's length and seals the column.
    pub fn fill_from(mut self, coeffs: &[f64], included: &[bool]) -> PbResult<TermColumn> {
        assert_eq!((coeffs.len(), included.len()), (self.len, self.len));
        let chunks = self
            .chunk_slots()
            .into_iter()
            .enumerate()
            .map(|(c, slot)| {
                let r = chunk_range(c, coeffs.len());
                slot.fill(|lanes, flags| {
                    lanes.copy_from_slice(&coeffs[r.clone()]);
                    flags.copy_from_slice(&included[r]);
                    Ok(())
                })
            })
            .collect::<PbResult<_>>()?;
        Ok(self.finish(chunks))
    }
}

/// Running aggregates of one term over one package.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TermAccum {
    /// Multiplicity-weighted count of included members.
    pub count: u64,
    /// Multiplicity-weighted sum of included contributions.
    pub sum: f64,
    /// Number of *distinct* included members (drives SQL-NULL semantics and
    /// MIN/MAX recomputation).
    pub distinct: u32,
}

impl TermAccum {
    fn zero() -> Self {
        TermAccum {
            count: 0,
            sum: 0.0,
            distinct: 0,
        }
    }
}

/// A global expression with aggregate calls resolved to term indices.
#[derive(Debug, Clone)]
pub enum CompiledExpr {
    /// A literal constant.
    Literal(f64),
    /// The value of term `TermId`.
    Term(usize),
    /// Arithmetic over sub-expressions.
    Binary {
        /// The operator.
        op: GlobalArithOp,
        /// Left operand.
        lhs: Box<CompiledExpr>,
        /// Right operand.
        rhs: Box<CompiledExpr>,
    },
}

/// A compiled global constraint.
#[derive(Debug, Clone)]
pub struct CompiledConstraint {
    /// Left side.
    pub lhs: CompiledExpr,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right side.
    pub rhs: CompiledExpr,
}

/// A compiled `SUCH THAT` formula.
#[derive(Debug, Clone)]
pub enum CompiledFormula {
    /// A single constraint.
    Atom(CompiledConstraint),
    /// Conjunction.
    And(Box<CompiledFormula>, Box<CompiledFormula>),
    /// Disjunction.
    Or(Box<CompiledFormula>, Box<CompiledFormula>),
    /// Negation.
    Not(Box<CompiledFormula>),
}

/// The columnar form of a package query over its candidate set.
///
/// Built once inside [`crate::spec::PackageSpec::build`]; consumed by every
/// [`crate::solver::Solver`]. The view owns everything a solver needs —
/// candidates, multiplicity bound, term columns, compiled formula/objective,
/// and the original ASTs (for bound derivation and diagnostics) — so
/// solvers never touch the base table.
#[derive(Debug, Clone)]
pub struct CandidateView {
    candidates: Vec<TupleId>,
    max_multiplicity: u32,
    terms: Vec<TermColumn>,
    term_keys: Vec<AggCall>,
    formula: Option<GlobalFormula>,
    compiled_formula: Option<CompiledFormula>,
    objective: Option<Objective>,
    compiled_objective: Option<CompiledExpr>,
    partition_memo: PartitionMemo,
}

impl CandidateView {
    /// Lowers `query`'s global part — its multiplicity bound, `SUCH THAT`
    /// formula and objective — over `candidates` into columns:
    /// [`CandidateView::assemble`] with a source that has no column, so
    /// every term is materialized from the base table. No other column of
    /// the table is read.
    ///
    /// Evaluation errors (non-numeric aggregate arguments, unknown columns)
    /// surface here, once, instead of on every package evaluation.
    pub fn build(
        table: &Table,
        candidates: Vec<TupleId>,
        query: &PaqlQuery,
        ctx: &BuildCtx<'_>,
    ) -> PbResult<Self> {
        Self::assemble(table, candidates, query, |_| None, ctx)
    }

    /// Assembles a view from precomputed building blocks: the candidate list
    /// is adopted verbatim, and each required term column is first
    /// requested from `column_source` — only columns the source does not
    /// have are materialized from the base table. With the engine's
    /// [`crate::cache::ViewCache`] as the source, a repeated query skips
    /// per-row evaluation entirely and a query that adds aggregate terms
    /// pays only for the new columns.
    ///
    /// Materialization fans out over `ctx.par`, a
    /// [`crate::par::CHUNK_WIDTH`]-wide chunk of candidates per task, and
    /// the columns it builds go paged when their estimated footprint
    /// exceeds `ctx.policy`'s resident budget. Adopted columns keep the
    /// storage mode they were built with, so a view may mix resident
    /// (cached) and paged (fresh) columns; `ctx.cache` is not consulted —
    /// the source is the cache here.
    ///
    /// The view is bit-identical to a sequential resident
    /// [`CandidateView::build`] of the same query whatever the source, the
    /// thread count and the storage mode: terms are interned in the query's
    /// own discovery order, chunks write disjoint fixed ranges, and an
    /// evaluation error is the first in chunk order.
    pub fn assemble(
        table: &Table,
        candidates: Vec<TupleId>,
        query: &PaqlQuery,
        column_source: impl FnMut(&AggCall) -> Option<TermColumn>,
        ctx: &BuildCtx<'_>,
    ) -> PbResult<Self> {
        // The table is only read when some column must actually be
        // materialized — on a full cache hit it is never touched.

        // Collect the distinct aggregate terms of the formula and objective.
        let mut term_keys: Vec<AggCall> = Vec::new();
        let mut intern = |call: &AggCall, keys: &mut Vec<AggCall>| -> usize {
            match keys.iter().position(|k| k == call) {
                Some(i) => i,
                None => {
                    keys.push(call.clone());
                    keys.len() - 1
                }
            }
        };
        fn compile_expr(
            expr: &GlobalExpr,
            keys: &mut Vec<AggCall>,
            intern: &mut impl FnMut(&AggCall, &mut Vec<AggCall>) -> usize,
        ) -> CompiledExpr {
            match expr {
                GlobalExpr::Literal(x) => CompiledExpr::Literal(*x),
                GlobalExpr::Agg(call) => CompiledExpr::Term(intern(call, keys)),
                GlobalExpr::Binary { op, lhs, rhs } => CompiledExpr::Binary {
                    op: *op,
                    lhs: Box::new(compile_expr(lhs, keys, intern)),
                    rhs: Box::new(compile_expr(rhs, keys, intern)),
                },
            }
        }
        fn compile_formula(
            formula: &GlobalFormula,
            keys: &mut Vec<AggCall>,
            intern: &mut impl FnMut(&AggCall, &mut Vec<AggCall>) -> usize,
        ) -> CompiledFormula {
            match formula {
                GlobalFormula::Atom(c) => CompiledFormula::Atom(CompiledConstraint {
                    lhs: compile_expr(&c.lhs, keys, intern),
                    op: c.op,
                    rhs: compile_expr(&c.rhs, keys, intern),
                }),
                GlobalFormula::And(a, b) => CompiledFormula::And(
                    Box::new(compile_formula(a, keys, intern)),
                    Box::new(compile_formula(b, keys, intern)),
                ),
                GlobalFormula::Or(a, b) => CompiledFormula::Or(
                    Box::new(compile_formula(a, keys, intern)),
                    Box::new(compile_formula(b, keys, intern)),
                ),
                GlobalFormula::Not(a) => {
                    CompiledFormula::Not(Box::new(compile_formula(a, keys, intern)))
                }
            }
        }
        let compiled_formula = query
            .such_that
            .as_ref()
            .map(|f| compile_formula(f, &mut term_keys, &mut intern));
        let compiled_objective = query
            .objective
            .as_ref()
            .map(|o| compile_expr(&o.expr, &mut term_keys, &mut intern));

        // Materialize every term the source does not already have (a cache
        // hit on that term), all of them in **one fused pass** over the
        // candidate set. The pass fans out over fixed-width candidate
        // chunks: a chunk task takes every missing term's [`ChunkSlot`] for
        // its chunk and evaluates the terms straight into them — disjoint
        // fixed ranges of the sinks' own storage, so the columns (and any
        // evaluation error, see [`materialize_chunk`]) are identical at
        // every thread count and storage mode, and no chunk is copied
        // between evaluation and column.
        //
        // The storage decision is made once, view-level, over the columns
        // this assembly actually has to build (source-adopted columns keep
        // their mode): if their estimated footprint exceeds the policy's
        // budget, all of them spill to one shared store.
        let mut terms: Vec<Option<TermColumn>> = term_keys.iter().map(column_source).collect();
        let missing: Vec<usize> = (0..terms.len()).filter(|&t| terms[t].is_none()).collect();
        if !missing.is_empty() {
            let n = candidates.len();
            let fused = FusedTerms::bind(missing.iter().map(|&t| &term_keys[t]), table.schema())?;
            let store = if ctx.policy.wants_paged(missing.len(), n) {
                Some(
                    SpillStore::create(ctx.policy.pool_pages)
                        .map_err(|e| PbError::Internal(format!("column spill file: {e}")))?,
                )
            } else {
                None
            };
            let mut sinks: Vec<ColumnSink> = missing
                .iter()
                .map(|&t| match &store {
                    Some(store) => ColumnSink::paged(term_keys[t].func, Arc::clone(store), n),
                    None => ColumnSink::resident(term_keys[t].func, n),
                })
                .collect();
            // Chunk `c`'s slots, one per missing term; the task that runs
            // chunk `c` takes them.
            let mut slots: Vec<Vec<ChunkSlot<'_>>> = (0..chunk_count(n))
                .map(|_| Vec::with_capacity(sinks.len()))
                .collect();
            for sink in &mut sinks {
                for (of_chunk, slot) in slots.iter_mut().zip(sink.chunk_slots()) {
                    of_chunk.push(slot);
                }
            }
            let slots: Vec<Mutex<Option<Vec<ChunkSlot<'_>>>>> =
                slots.into_iter().map(|s| Mutex::new(Some(s))).collect();
            let built = ctx.par.run_chunks(n, |c, range| {
                let slots = slots[c].lock().unwrap().take().ok_or_else(|| {
                    PbError::Internal(format!("chunk {c} was materialized twice"))
                })?;
                materialize_chunk(&fused, table, &candidates[range], slots)
            });
            drop(slots);
            let mut metas: Vec<Vec<ChunkMeta>> = sinks
                .iter()
                .map(|_| Vec::with_capacity(built.len()))
                .collect();
            for chunk in built {
                for (of_term, meta) in metas.iter_mut().zip(chunk?) {
                    of_term.push(meta);
                }
            }
            for ((t, sink), metas) in missing.into_iter().zip(sinks).zip(metas) {
                terms[t] = Some(sink.finish(metas));
            }
        }
        let terms: Vec<TermColumn> = terms.into_iter().flatten().collect();
        debug_assert_eq!(terms.len(), term_keys.len());
        debug_assert!(terms.iter().all(|t| t.len() == candidates.len()));

        Ok(CandidateView {
            candidates,
            max_multiplicity: query.max_multiplicity(),
            terms,
            term_keys,
            formula: query.such_that.clone(),
            compiled_formula,
            objective: query.objective.clone(),
            compiled_objective,
            partition_memo: PartitionMemo::default(),
        })
    }

    /// The sketch→refine partitioning of this view's candidates, memoized
    /// per `(max_partition_size, seed)`: computed on first request (honouring
    /// `budget` — `None` on expiry, and nothing is memoized), returned from
    /// the memo afterwards. Clones of a view share the memo, and a view
    /// assembled through the engine's [`crate::cache::ViewCache`] shares it
    /// with every past and future view of the same cached columns — which is
    /// how a repeated query skips partitioning entirely.
    ///
    /// A memoized partitioning is identical to a freshly computed one
    /// ([`crate::partition::partition_view`] is deterministic per seed), so
    /// results never depend on whether this hit the memo.
    pub fn partitioning(
        &self,
        max_partition_size: usize,
        seed: u64,
        budget: &Budget,
        par: ParExec,
    ) -> Option<Arc<Partitioning>> {
        self.partition_memo
            .get_or_compute(self, max_partition_size, seed, budget, par)
    }

    /// The progressive-shading partition tree over this view's candidates,
    /// memoized per `(leaf_size, fanout, seed)` beside the flat
    /// partitionings — and *sharing* the `(leaf_size, seed)` leaf
    /// partitioning with them (one `Arc`), so with `shade_leaf_size` equal
    /// to `sketch_partition_size` the flat and hierarchical solvers pay for
    /// the leaves once between them. `None` on budget expiry (nothing is
    /// memoized), like [`CandidateView::partitioning`].
    pub fn partition_tree(
        &self,
        leaf_size: usize,
        fanout: usize,
        seed: u64,
        budget: &Budget,
        par: ParExec,
    ) -> Option<Arc<crate::partition::PartitionTree>> {
        self.partition_memo
            .tree_or_compute(self, leaf_size, fanout, seed, budget, par)
    }

    /// Replaces the partition memo (the cache wires in the shared, per-column
    /// -signature memo after assembly — see [`crate::cache::ViewCache`]).
    pub(crate) fn set_partition_memo(&mut self, memo: PartitionMemo) {
        self.partition_memo = memo;
    }

    /// The view's partition memo (shared with clones of this view).
    pub fn partition_memo(&self) -> &PartitionMemo {
        &self.partition_memo
    }

    /// The candidate tuples, in id order.
    pub fn candidates(&self) -> &[TupleId] {
        &self.candidates
    }

    /// Number of candidates (`n` in the paper's complexity discussion).
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// Maximum multiplicity of a tuple in a package (from `REPEAT`).
    pub fn max_multiplicity(&self) -> u32 {
        self.max_multiplicity
    }

    /// The original `SUCH THAT` formula, if any.
    pub fn formula(&self) -> Option<&GlobalFormula> {
        self.formula.as_ref()
    }

    /// The original objective, if any.
    pub fn objective(&self) -> Option<&Objective> {
        self.objective.as_ref()
    }

    /// The objective direction (`Maximize` when absent, matching the
    /// engine-wide default).
    pub fn direction(&self) -> ObjectiveDirection {
        self.objective
            .as_ref()
            .map(|o| o.direction)
            .unwrap_or(ObjectiveDirection::Maximize)
    }

    /// The compiled formula.
    pub fn compiled_formula(&self) -> Option<&CompiledFormula> {
        self.compiled_formula.as_ref()
    }

    /// The compiled objective expression.
    pub fn compiled_objective(&self) -> Option<&CompiledExpr> {
        self.compiled_objective.as_ref()
    }

    /// The aggregate terms, indexed by the ids in compiled expressions.
    pub fn terms(&self) -> &[TermColumn] {
        &self.terms
    }

    /// The source aggregate call of each term.
    pub fn term_keys(&self) -> &[AggCall] {
        &self.term_keys
    }

    /// True when any term column's payload is paged (out-of-core).
    pub fn is_paged(&self) -> bool {
        self.terms.iter().any(|t| t.is_paged())
    }

    /// Total in-memory column-payload bytes across the view's terms.
    pub fn resident_bytes(&self) -> usize {
        self.terms.iter().map(|t| t.resident_bytes()).sum()
    }

    /// Total spill-file column-payload bytes across the view's terms.
    pub fn spilled_bytes(&self) -> usize {
        self.terms.iter().map(|t| t.spilled_bytes()).sum()
    }

    /// Index of a tuple within the candidate set (candidates are in id
    /// order, so this is a binary search).
    pub fn index_of(&self, tuple: TupleId) -> Option<usize> {
        self.candidates.binary_search(&tuple).ok()
    }

    /// Lowers a package onto the candidate index space; `None` when some
    /// member is not a candidate (i.e. the package violates a base
    /// constraint).
    pub fn project(&self, package: &Package) -> Option<ViewState<'_>> {
        // Members come in tuple-id order, and candidates are sorted by id, so
        // the indices ascend as `ViewState::of_members` requires.
        let members = package
            .members()
            .map(|(tid, mult)| Some((self.index_of(tid)?, mult)))
            .collect::<Option<Vec<_>>>()?;
        Some(ViewState::of_members(self, &members))
    }

    /// True when `package` is a valid answer: every member is a candidate,
    /// multiplicities respect `REPEAT`, and the formula holds.
    pub fn is_valid(&self, package: &Package) -> bool {
        if package.max_multiplicity() > self.max_multiplicity {
            return false;
        }
        match self.project(package) {
            None => false,
            Some(state) => state.is_feasible(),
        }
    }

    /// Objective value of a package (`None` when the query has no objective,
    /// the objective is un-evaluable, or the package strays outside the
    /// candidate set).
    pub fn objective_value(&self, package: &Package) -> Option<f64> {
        self.project(package)?.objective_value()
    }

    /// Total constraint violation of a package (0 when feasible). Packages
    /// containing non-candidates get the un-evaluable penalty per atom.
    pub fn violation(&self, package: &Package) -> f64 {
        match self.project(package) {
            Some(state) => state.violation(),
            None => UNEVALUABLE_PENALTY,
        }
    }
}

/// The terms one assembly has to materialize, bound to the table schema
/// once for the whole fused pass.
struct FusedTerms {
    /// The distinct `FILTER` predicates among the terms (structural
    /// [`minidb::Expr`] equality — the same equality that interns terms).
    filters: Vec<BoundExpr>,
    /// The terms, in interning order.
    terms: Vec<FusedTerm>,
}

struct FusedTerm {
    func: AggFunc,
    /// Index of the term's predicate in [`FusedTerms::filters`].
    filter: Option<usize>,
    /// The aggregate's argument; `None` for `COUNT(*)`.
    arg: Option<BoundExpr>,
}

impl FusedTerms {
    /// Binds every filter and argument. Unknown columns surface here, before
    /// any row is read, in interning order (a term's filter before its
    /// argument).
    fn bind<'c>(calls: impl Iterator<Item = &'c AggCall>, schema: &Schema) -> PbResult<Self> {
        let mut distinct: Vec<&Expr> = Vec::new();
        let mut filters = Vec::new();
        let mut terms = Vec::new();
        for call in calls {
            let filter = match &call.filter {
                None => None,
                Some(f) => Some(match distinct.iter().position(|d| *d == f) {
                    Some(slot) => slot,
                    None => {
                        distinct.push(f);
                        filters.push(BoundExpr::bind(f, schema)?);
                        filters.len() - 1
                    }
                }),
            };
            let arg = call.arg.as_ref().map(|arg| BoundExpr::bind(arg, schema));
            terms.push(FusedTerm {
                func: call.func,
                filter,
                arg: arg.transpose()?,
            });
        }
        Ok(FusedTerms { filters, terms })
    }
}

/// One distinct `FILTER`'s verdict over a chunk.
struct Passed {
    /// The verdict per lane.
    flags: Vec<bool>,
    /// The lanes it lets in, ascending, and their candidates.
    lanes: Vec<usize>,
    ids: Vec<TupleId>,
}

impl Passed {
    fn of(flags: Vec<bool>, ids: &[TupleId]) -> Passed {
        // Branch-free compaction: every lane is written to the next free
        // place, which only a passing lane then claims.
        let mut lanes = vec![0; ids.len()];
        let mut kept = vec![TupleId(0); ids.len()];
        let mut k = 0;
        for (i, (&flag, &id)) in flags.iter().zip(ids).enumerate() {
            lanes[k] = i;
            kept[k] = id;
            k += usize::from(flag);
        }
        lanes.truncate(k);
        kept.truncate(k);
        Passed {
            flags,
            lanes,
            ids: kept,
        }
    }
}

impl FusedTerm {
    /// Writes one chunk of the term's column: `coeffs[i]` and `included[i]`
    /// for lane `i` of `sel`. `pass` is the term's filter verdict, `None`
    /// without a filter; both buffers arrive zeroed, and excluded lanes are
    /// left (or put back) at zero.
    fn fill(
        &self,
        sel: &Selection<'_>,
        pass: Option<&Passed>,
        coeffs: &mut [f64],
        included: &mut [bool],
    ) -> PbResult<()> {
        // Only a filter that turns some lane away narrows anything.
        let pass = pass.filter(|pass| pass.lanes.len() < sel.len());
        // COUNT counts included members: its linear coefficient is 1, not
        // its argument's value.
        let count = self.func == AggFunc::Count;
        let Some(arg) = &self.arg else {
            // COUNT(*): every filtered-in member contributes 1.
            match pass {
                None => included.fill(true),
                Some(pass) => included.copy_from_slice(&pass.flags),
            }
            for (c, &inc) in coeffs.iter_mut().zip(&*included) {
                *c = if inc { 1.0 } else { 0.0 };
            }
            return Ok(());
        };
        // NULL arguments are skipped for every aggregate (COUNT(expr)
        // included), matching SQL.
        let ctx = format_args!("argument of {}", self.func.name());
        match pass {
            None => {
                arg.eval_f64_chunk(sel, ctx, coeffs, included)?;
                for (c, &inc) in coeffs.iter_mut().zip(&*included) {
                    *c = match (inc, count) {
                        (false, _) => 0.0,
                        (true, true) => 1.0,
                        (true, false) => *c,
                    };
                }
            }
            // The argument is evaluated on the lanes the filter lets in and
            // on no other — a row the filter excludes cannot fail the build.
            Some(pass) => {
                let mut vals = vec![0.0; pass.ids.len()];
                let mut valid = vec![false; pass.ids.len()];
                let narrowed = sel.table().select(&pass.ids)?;
                arg.eval_f64_chunk(&narrowed, ctx, &mut vals, &mut valid)?;
                for ((&i, value), valid) in pass.lanes.iter().zip(vals).zip(valid) {
                    if valid {
                        coeffs[i] = if count { 1.0 } else { value };
                        included[i] = true;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Evaluates one fixed-width chunk of candidates (`ids`) for **all** the
/// fused terms at once, each term straight into its [`ChunkSlot`] (one per
/// term, in term order), and returns the terms' [`ChunkMeta`]s for the
/// chunk. Everything runs in [`BoundExpr`]'s chunk form over the base
/// table's column vectors: every distinct `FILTER` predicate is evaluated
/// at most once per chunk and shared by the terms that carry it, and a
/// term's argument is evaluated only on the lanes its filter lets in. Pure
/// per-chunk work, which is what makes the chunk fan-out deterministic.
///
/// # Error order
///
/// A build that fails reports the error of the **first failing chunk**,
/// within it the **first failing row** in candidate order, and within that
/// row the **first failing term** in interning order (a term fails on its
/// filter before its argument; a shared filter fails on behalf of the first
/// term that carries it). Chunk boundaries are fixed and the caller reads
/// chunk results in chunk order, so the reported error is the same at every
/// thread count and in both storage modes. Within the chunk the order is
/// established by [`first_error`], only once something has failed.
fn materialize_chunk(
    fused: &FusedTerms,
    table: &Table,
    ids: &[TupleId],
    slots: Vec<ChunkSlot<'_>>,
) -> PbResult<Vec<ChunkMeta>> {
    let columnwise = || -> PbResult<Vec<ChunkMeta>> {
        let sel = table.select(ids)?;
        // This chunk's verdict per distinct filter, filled in on first use.
        let mut passed: Vec<Option<Passed>> = fused.filters.iter().map(|_| None).collect();
        let mut metas = Vec::with_capacity(slots.len());
        for (term, slot) in fused.terms.iter().zip(slots) {
            let pass = match term.filter {
                None => None,
                Some(f) => {
                    if passed[f].is_none() {
                        let flags = fused.filters[f].eval_predicate_chunk(&sel)?;
                        passed[f] = Some(Passed::of(flags, ids));
                    }
                    passed[f].as_ref()
                }
            };
            metas.push(slot.fill(|coeffs, included| term.fill(&sel, pass, coeffs, included))?);
        }
        Ok(metas)
    };
    columnwise().map_err(|e| first_error(fused, table, ids).unwrap_or(e))
}

/// The evaluation error a failing chunk reports (see [`materialize_chunk`]):
/// the chunk again, one candidate at a time in candidate order and, for each
/// candidate, term by term — one-lane selections through the same chunk
/// form — up to the first evaluation that fails. `None` when no evaluation
/// does (the chunk failed on its spill write).
fn first_error(fused: &FusedTerms, table: &Table, ids: &[TupleId]) -> Option<PbError> {
    let probe = |id: &TupleId| -> PbResult<()> {
        let sel = table.select(std::slice::from_ref(id))?;
        let mut passes: Vec<Option<bool>> = vec![None; fused.filters.len()];
        for term in &fused.terms {
            if let Some(f) = term.filter {
                if passes[f].is_none() {
                    passes[f] = Some(fused.filters[f].eval_predicate_chunk(&sel)?[0]);
                }
                if passes[f] == Some(false) {
                    continue;
                }
            }
            if let Some(arg) = &term.arg {
                let ctx = format_args!("argument of {}", term.func.name());
                arg.eval_f64_chunk(&sel, ctx, &mut [0.0], &mut [false])?;
            }
        }
        Ok(())
    };
    ids.iter().find_map(|id| probe(id).err())
}

/// Incremental package accumulator over a [`CandidateView`].
///
/// Holds the multiplicity multiset (by candidate index) and the running
/// [`TermAccum`] per term, so evaluating a candidate move is `O(#terms)` —
/// plus an `O(|package|)` rescan only for MIN/MAX terms, which have no
/// constant-time delta. This is the structure behind the local search's
/// delta evaluation of swap moves: [`ViewState::score_with`] for one move,
/// [`ViewState::move_scan`] for every candidate at once.
#[derive(Debug, Clone)]
pub struct ViewState<'v> {
    view: &'v CandidateView,
    members: BTreeMap<usize, u32>,
    accums: Vec<TermAccum>,
    cardinality: u64,
}

impl<'v> ViewState<'v> {
    /// The empty package.
    pub fn empty(view: &'v CandidateView) -> Self {
        ViewState {
            view,
            members: BTreeMap::new(),
            accums: vec![TermAccum::zero(); view.terms.len()],
            cardinality: 0,
        }
    }

    /// The package holding `members`: `(candidate index, multiplicity)`
    /// pairs with ascending, distinct indices and nonzero multiplicities.
    /// Bit-identical to [`ViewState::apply`]ing them one at a time in that
    /// order — each term's accumulator sees the same additions in the same
    /// order — but folded term by term, so a paged term costs one chunk pin
    /// per chunk the members touch instead of one per member.
    pub(crate) fn of_members(view: &'v CandidateView, members: &[(usize, u32)]) -> Self {
        debug_assert!(members.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(members.iter().all(|&(_, m)| m > 0));
        let same_chunk =
            |a: &(usize, u32), b: &(usize, u32)| a.0 / CHUNK_WIDTH == b.0 / CHUNK_WIDTH;
        let mut accums = vec![TermAccum::zero(); view.terms.len()];
        for (term, accum) in view.terms.iter().zip(&mut accums) {
            for run in members.chunk_by(same_chunk) {
                let chunk = term.chunk(run[0].0 / CHUNK_WIDTH);
                for &(idx, mult) in run {
                    let i = idx % CHUNK_WIDTH;
                    if chunk.included(i) {
                        accum.count += mult as u64;
                        accum.sum += chunk.coeffs()[i] * mult as f64;
                        accum.distinct += 1;
                    }
                }
            }
        }
        ViewState {
            view,
            members: members.iter().copied().collect(),
            accums,
            cardinality: members.iter().map(|&(_, m)| m as u64).sum(),
        }
    }

    /// The view this state accumulates over.
    pub fn view(&self) -> &'v CandidateView {
        self.view
    }

    /// Total cardinality (counting multiplicities).
    pub fn cardinality(&self) -> u64 {
        self.cardinality
    }

    /// Multiplicity of the candidate at `idx`.
    #[inline]
    pub fn multiplicity(&self, idx: usize) -> u32 {
        self.members.get(&idx).copied().unwrap_or(0)
    }

    /// Distinct member indices, ascending.
    pub fn member_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.members.keys().copied()
    }

    /// Applies a multiplicity delta to one candidate (delta may be negative;
    /// multiplicities clamp at zero).
    pub fn apply(&mut self, idx: usize, delta: i64) {
        if delta == 0 {
            return;
        }
        let old = self.multiplicity(idx);
        let new = (old as i64 + delta).max(0) as u32;
        if new == old {
            return;
        }
        if new == 0 {
            self.members.remove(&idx);
        } else {
            self.members.insert(idx, new);
        }
        let applied = new as i64 - old as i64;
        self.cardinality = (self.cardinality as i64 + applied) as u64;
        for (term, accum) in self.view.terms.iter().zip(self.accums.iter_mut()) {
            let (coeff, inc) = term.entry_at(idx);
            if !inc {
                continue;
            }
            accum.count = (accum.count as i64 + applied) as u64;
            accum.sum += coeff * applied as f64;
            if old == 0 {
                accum.distinct += 1;
            } else if new == 0 {
                accum.distinct -= 1;
            }
        }
    }

    /// Converts the accumulated multiset back into a [`Package`].
    pub fn to_package(&self) -> Package {
        Package::from_members(
            self.members
                .iter()
                .map(|(&idx, &m)| (self.view.candidates[idx], m)),
        )
    }

    /// The value of one term under the current accumulators, with the exact
    /// NULL semantics of the interpreted path.
    pub fn term_value(&self, term_id: usize) -> Option<f64> {
        TermValues::term_value(self, term_id)
    }

    /// Evaluates a compiled expression; `None` on NULL sub-aggregates or
    /// division by zero (SQL semantics, identical to the interpreted path).
    pub fn eval_expr(&self, expr: &CompiledExpr) -> Option<f64> {
        eval_expr(self, expr)
    }

    /// True when the formula holds (multiplicity bounds are checked by the
    /// caller — the state clamps to the candidate space by construction).
    pub fn is_feasible(&self) -> bool {
        if self
            .members
            .values()
            .any(|&m| m > self.view.max_multiplicity)
        {
            return false;
        }
        match &self.view.compiled_formula {
            None => true,
            Some(f) => formula_satisfied(self, f),
        }
    }

    /// Total violation (0 when feasible).
    pub fn violation(&self) -> f64 {
        violation_of(self, self.view)
    }

    /// Objective value (`None` when absent or un-evaluable).
    pub fn objective_value(&self) -> Option<f64> {
        objective_of(self, self.view)
    }

    /// `(violation, objective)` — the lexicographic score the local search
    /// hill-climbs on.
    pub fn score(&self) -> (f64, Option<f64>) {
        (self.violation(), self.objective_value())
    }

    /// Scores the state *as if* `changes` (candidate index, multiplicity
    /// delta) were applied, without mutating it. This is the point-lookup
    /// delta evaluation for `O(1)`-sized move sets (single drops and swaps):
    /// `O(#terms · #changes)` element pins plus a member rescan for MIN/MAX
    /// terms only. Full-neighbourhood scans score a whole chunk per pin
    /// through [`ViewState::move_scan`] instead — bit-identical scores.
    pub fn score_with(&self, changes: &[(usize, i64)]) -> (f64, Option<f64>) {
        let overlay = Overlay {
            base: self,
            changes,
        };
        (
            violation_of(&overlay, self.view),
            objective_of(&overlay, self.view),
        )
    }

    /// The violation half of [`ViewState::score_with`], for callers that
    /// discard the objective (feasibility repair): the objective's terms are
    /// never read.
    pub fn violation_with(&self, changes: &[(usize, i64)]) -> f64 {
        let overlay = Overlay {
            base: self,
            changes,
        };
        violation_of(&overlay, self.view)
    }
}

/// Where the scalar evaluator gets a term's value from: the state's running
/// accumulators ([`ViewState`]) or the same with pending changes netted in
/// ([`Overlay`]). Everything above term level — expression arithmetic, the
/// NULL and division-by-zero rules, constraint and formula violation — is
/// defined once, in the free functions below, over this trait.
trait TermValues {
    fn term_value(&self, term_id: usize) -> Option<f64>;
}

/// A term's value from its accumulators, with the interpreted path's NULL
/// semantics; `extremum` is only consulted for MIN/MAX terms.
#[inline]
fn accum_value(
    func: AggFunc,
    accum: TermAccum,
    extremum: impl FnOnce() -> Option<f64>,
) -> Option<f64> {
    match func {
        AggFunc::Count => Some(accum.count as f64),
        AggFunc::Sum => (accum.distinct > 0).then_some(accum.sum),
        AggFunc::Avg => (accum.count > 0).then(|| accum.sum / accum.count as f64),
        AggFunc::Min | AggFunc::Max => extremum(),
    }
}

/// Folds one more value into a running MIN/MAX (`func` picks which).
#[inline]
fn fold_extremum(func: AggFunc, best: Option<f64>, v: f64) -> f64 {
    match (best, func) {
        (None, _) => v,
        (Some(b), AggFunc::Min) => b.min(v),
        (Some(b), _) => b.max(v),
    }
}

/// MIN/MAX of `term` over the included entries among `members`, folded in
/// iteration order (multiplicity-independent, like the interpreted path).
/// `O(|members|)` — there is no constant-time delta for extrema.
fn extremum(term: &TermColumn, members: impl Iterator<Item = usize>) -> Option<f64> {
    let mut best = None;
    for idx in members {
        let (v, inc) = term.entry_at(idx);
        if inc {
            best = Some(fold_extremum(term.func, best, v));
        }
    }
    best
}

impl TermValues for ViewState<'_> {
    fn term_value(&self, term_id: usize) -> Option<f64> {
        let term = &self.view.terms[term_id];
        accum_value(term.func, self.accums[term_id], || {
            extremum(term, self.members.keys().copied())
        })
    }
}

fn eval_expr<S: TermValues>(src: &S, expr: &CompiledExpr) -> Option<f64> {
    match expr {
        CompiledExpr::Literal(x) => Some(*x),
        CompiledExpr::Term(id) => src.term_value(*id),
        CompiledExpr::Binary { op, lhs, rhs } => {
            let a = eval_expr(src, lhs)?;
            let b = eval_expr(src, rhs)?;
            match op {
                GlobalArithOp::Add => Some(a + b),
                GlobalArithOp::Sub => Some(a - b),
                GlobalArithOp::Mul => Some(a * b),
                GlobalArithOp::Div => (b != 0.0).then_some(a / b),
            }
        }
    }
}

/// Distance of `a op b` from holding (0 when it holds). A distance that is
/// NaN — a NaN side, or `∞ − ∞` — measures nothing: the comparison scores 0
/// when it holds ([`CmpOp::compare`]) and [`UNEVALUABLE_PENALTY`] when it
/// does not, so no violation is NaN. A strict `<`/`>` that fails scores its
/// non-strict twin's distance plus [`STRICT_MARGIN`], so it fails at
/// equality too with a violation above 0. A failing comparison never scores
/// 0, and the score stays monotone in each side, which keeps
/// [`MoveScan::violation_floor`] a lower bound.
#[inline]
pub(crate) fn comparison_violation(op: CmpOp, a: f64, b: f64) -> f64 {
    let distance = match op {
        CmpOp::Eq => (a - b).abs(),
        CmpOp::NotEq => return if op.compare(a, b) { 0.0 } else { 1.0 },
        CmpOp::Lt | CmpOp::LtEq => a - b,
        CmpOp::Gt | CmpOp::GtEq => b - a,
    };
    // Where the distance is NaN, a non-strict `<=` or `>=` holds only
    // between equal infinities. `max` maps a NaN distance to 0, so adding 0
    // elsewhere keeps every other distance (a zero's sign aside, which `max`
    // leaves unspecified), and each choice stays a select the scan kernel's
    // lane loops can take.
    let holds = !matches!(op, CmpOp::Eq) && a == b;
    let unmeasured = if holds { 0.0 } else { UNEVALUABLE_PENALTY };
    let weak = distance.max(0.0) + if distance.is_nan() { unmeasured } else { 0.0 };
    let strict_miss = matches!(op, CmpOp::Lt | CmpOp::Gt) && !op.compare(a, b);
    weak + if strict_miss { STRICT_MARGIN } else { 0.0 }
}

fn constraint_satisfied<S: TermValues>(src: &S, c: &CompiledConstraint) -> bool {
    match (eval_expr(src, &c.lhs), eval_expr(src, &c.rhs)) {
        (Some(a), Some(b)) => c.op.compare(a, b),
        _ => false,
    }
}

fn constraint_violation<S: TermValues>(src: &S, c: &CompiledConstraint) -> f64 {
    match (eval_expr(src, &c.lhs), eval_expr(src, &c.rhs)) {
        (Some(a), Some(b)) => comparison_violation(c.op, a, b),
        _ => UNEVALUABLE_PENALTY,
    }
}

fn formula_satisfied<S: TermValues>(src: &S, f: &CompiledFormula) -> bool {
    match f {
        CompiledFormula::Atom(c) => constraint_satisfied(src, c),
        CompiledFormula::And(a, b) => formula_satisfied(src, a) && formula_satisfied(src, b),
        CompiledFormula::Or(a, b) => formula_satisfied(src, a) || formula_satisfied(src, b),
        CompiledFormula::Not(a) => !formula_satisfied(src, a),
    }
}

fn formula_violation<S: TermValues>(src: &S, f: &CompiledFormula) -> f64 {
    match f {
        CompiledFormula::Atom(c) => constraint_violation(src, c),
        CompiledFormula::And(a, b) => formula_violation(src, a) + formula_violation(src, b),
        CompiledFormula::Or(a, b) => formula_violation(src, a).min(formula_violation(src, b)),
        CompiledFormula::Not(a) => {
            if formula_satisfied(src, a) {
                1.0
            } else {
                0.0
            }
        }
    }
}

fn violation_of<S: TermValues>(src: &S, view: &CandidateView) -> f64 {
    match &view.compiled_formula {
        None => 0.0,
        Some(f) => formula_violation(src, f),
    }
}

fn objective_of<S: TermValues>(src: &S, view: &CandidateView) -> Option<f64> {
    eval_expr(src, view.compiled_objective.as_ref()?)
}

/// A lightweight "state + pending changes" overlay used by
/// [`ViewState::score_with`]. Term accumulators are adjusted on the fly;
/// membership queries consult the overlay first.
struct Overlay<'s, 'v> {
    base: &'s ViewState<'v>,
    changes: &'s [(usize, i64)],
}

impl Overlay<'_, '_> {
    #[inline]
    fn multiplicity(&self, idx: usize) -> u32 {
        let mut m = self.base.multiplicity(idx) as i64;
        for &(i, d) in self.changes {
            if i == idx {
                m += d;
            }
        }
        m.max(0) as u32
    }

    #[inline]
    fn accum(&self, term_id: usize) -> TermAccum {
        let term = &self.base.view.terms[term_id];
        let mut accum = self.base.accums[term_id];
        // Process each distinct index once (repeated deltas to one candidate
        // — a swap whose incoming index is its outgoing one — are netted
        // through `multiplicity`). Move vectors are tiny, so the quadratic
        // first-occurrence scan beats any allocation.
        for (pos, &(idx, _)) in self.changes.iter().enumerate() {
            if self.changes[..pos].iter().any(|&(i, _)| i == idx) {
                continue;
            }
            let (coeff, inc) = term.entry_at(idx);
            if !inc {
                continue;
            }
            let old = self.base.multiplicity(idx);
            let new = self.multiplicity(idx);
            let applied = new as i64 - old as i64;
            if applied == 0 {
                continue;
            }
            accum.count = (accum.count as i64 + applied) as u64;
            accum.sum += coeff * applied as f64;
            if old == 0 && new > 0 {
                accum.distinct += 1;
            } else if old > 0 && new == 0 {
                accum.distinct -= 1;
            }
        }
        accum
    }

    /// MIN/MAX rescan: base members the changes do not touch, then the
    /// changed indices that remain (or become) members.
    fn extremum(&self, term_id: usize) -> Option<f64> {
        let touched = |idx: usize| self.changes.iter().any(|&(i, _)| i == idx);
        let untouched = self.base.members.keys().copied().filter(|&i| !touched(i));
        let changed = self
            .changes
            .iter()
            .map(|&(idx, _)| idx)
            .filter(|&idx| self.multiplicity(idx) > 0);
        extremum(&self.base.view.terms[term_id], untouched.chain(changed))
    }
}

impl TermValues for Overlay<'_, '_> {
    fn term_value(&self, term_id: usize) -> Option<f64> {
        let func = self.base.view.terms[term_id].func;
        accum_value(func, self.accum(term_id), || self.extremum(term_id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column_store::ColumnPolicy;
    use datagen::{recipes, Seed};
    use paql::compile;

    fn view_for(table: &Table, q: &str) -> CandidateView {
        let analyzed = compile(q, table.schema()).unwrap();
        let spec = crate::spec::PackageSpec::build(&analyzed, table, &BuildCtx::default()).unwrap();
        spec.view().clone()
    }

    const MEAL_QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' \
        SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 MAXIMIZE SUM(P.protein)";

    #[test]
    fn a_nan_distance_scores_by_whether_the_comparison_holds() {
        // The rule as stated — a NaN distance scores 0 where `compare`
        // holds and the penalty where it does not; every other distance
        // keeps `max(0)`; a failing strict comparison adds `STRICT_MARGIN`
        // to its non-strict twin's score — against the select the kernel
        // runs.
        let values = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1.0,
            -2.5,
            1e308,
            -1e308,
            5e-324,
        ];
        let ops = [
            CmpOp::Eq,
            CmpOp::NotEq,
            CmpOp::Lt,
            CmpOp::LtEq,
            CmpOp::Gt,
            CmpOp::GtEq,
        ];
        for op in ops {
            for a in values {
                for b in values {
                    let scored = |holds: bool, otherwise: f64| if holds { 0.0 } else { otherwise };
                    let (weak_op, margin) = match op {
                        CmpOp::Lt => (CmpOp::LtEq, STRICT_MARGIN),
                        CmpOp::Gt => (CmpOp::GtEq, STRICT_MARGIN),
                        _ => (op, 0.0),
                    };
                    let want = match op {
                        CmpOp::NotEq => scored(op.compare(a, b), 1.0),
                        _ => {
                            let distance = match op {
                                CmpOp::Eq => (a - b).abs(),
                                CmpOp::Lt | CmpOp::LtEq => a - b,
                                _ => b - a,
                            };
                            let weak = if distance.is_nan() {
                                scored(weak_op.compare(a, b), UNEVALUABLE_PENALTY)
                            } else {
                                distance.max(0.0)
                            };
                            weak + scored(op.compare(a, b), margin)
                        }
                    };
                    // `max` leaves the sign of a zero result unspecified.
                    let got = comparison_violation(op, a, b);
                    assert!(
                        got.to_bits() == want.to_bits() || (got == 0.0 && want == 0.0),
                        "{a} {op:?} {b}: {got} against {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn full_count_chunks_read_like_their_pages_without_one() {
        use crate::column_store::SpillStore;
        use crate::ilp::same_mask;
        use crate::spec::tests::respill;
        use crate::spec::PackageSpec;
        use minidb::{ColumnType, Schema, Tuple, Value};

        // Four full chunks and a 100-lane tail. The filter `g = 0` turns
        // lanes of chunk 1 away and `x` is NULL in lanes of chunk 2; `g < 5`
        // admits every lane. `SUM(P.x)` is the control: a full chunk of a
        // SUM keeps reading its page.
        let n = 4 * CHUNK_WIDTH + 100;
        let mut t = Table::new(
            "t",
            Schema::build(&[("x", ColumnType::Float), ("g", ColumnType::Int)]),
        );
        for i in 0..n {
            let (c, lane) = (i / CHUNK_WIDTH, i % CHUNK_WIDTH);
            let g = i64::from(c == 1 && lane % 7 == 3);
            let x = match c == 2 && lane % 5 == 1 {
                true => Value::Null,
                false => Value::Float(i as f64 * 0.5),
            };
            t.insert(Tuple::new(vec![x, Value::Int(g)])).unwrap();
        }
        let q = "SELECT PACKAGE(T) AS P FROM t T SUCH THAT COUNT(*) >= 1 \
                 AND COUNT(*) FILTER (WHERE T.g = 0) >= 1 AND COUNT(P.x) >= 1 \
                 AND COUNT(*) FILTER (WHERE T.g < 5) >= 1 AND SUM(P.x) >= 1";
        let analyzed = compile(q, t.schema()).unwrap();
        let ctx = BuildCtx {
            policy: ColumnPolicy::resident(),
            ..BuildCtx::default()
        };
        let spec = PackageSpec::build(&analyzed, &t, &ctx).unwrap();
        let resident = spec.view();
        let store = SpillStore::create(2).unwrap();
        let paged = respill(&spec, &vec![Some(Arc::clone(&store)); 5]);
        let requests = || {
            let (hits, misses, _) = store.counters();
            hits + misses
        };

        let full = |term: &TermColumn| -> Vec<bool> {
            let chunks = term.chunk_meta().iter();
            chunks.map(|m| m.included as usize == CHUNK_WIDTH).collect()
        };
        let expect_full = [
            [true, true, true, true, false],
            [true, false, true, true, false],
            [true, true, false, true, false],
            [true, true, true, true, false],
            [true, true, false, true, false],
        ];
        let terms = resident.terms().iter().zip(paged.terms());
        for (t, ((r, p), expect_full)) in terms.clone().zip(expect_full).enumerate() {
            let func = if t < 4 { AggFunc::Count } else { AggFunc::Sum };
            assert_eq!((r.func, p.func), (func, func));
            assert!(!r.is_paged() && p.is_paged());
            assert_eq!(full(r), expect_full);
            assert_eq!(r.chunk_meta(), p.chunk_meta());
            for c in 0..5 {
                let (rc, pc) = (r.chunk(c), p.chunk(c));
                let bits = |chunk: &ColumnChunk<'_>| -> Vec<u64> {
                    chunk.coeffs().iter().map(|x| x.to_bits()).collect()
                };
                assert_eq!(bits(&rc), bits(&pc), "chunk {c}");
                assert_eq!(rc.mask_words(), pc.mask_words(), "chunk {c}");
                assert!((0..rc.len()).all(|i| rc.included(i) == pc.included(i)));
            }
            for idx in 0..n {
                let (rv, ri) = r.entry_at(idx);
                let (pv, pi) = p.entry_at(idx);
                assert_eq!((rv.to_bits(), ri), (pv.to_bits(), pi), "lane {idx}");
            }
        }
        for (a, b) in terms
            .clone()
            .flat_map(|a| terms.clone().map(move |b| (a, b)))
        {
            assert_eq!(same_mask(a.0, b.0), same_mask(a.1, b.1));
        }
        assert!(same_mask(&paged.terms()[0], &paged.terms()[3]));
        assert!(!same_mask(&paged.terms()[0], &paged.terms()[1]));
        assert!(!same_mask(&paged.terms()[0], &paged.terms()[2]));

        // A scan reads the pages of the COUNT chunks that are not full and
        // every page of the SUM, and no other.
        let before = requests();
        for term in paged.terms() {
            for c in 0..5 {
                term.chunk(c);
            }
        }
        let count_pages = expect_full[..4].iter().flatten().filter(|&&f| !f).count();
        assert_eq!(requests() - before, (count_pages + 5) as u64);
    }

    #[test]
    fn terms_are_deduplicated_across_formula_and_objective() {
        let t = recipes(50, Seed(1));
        let v = view_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT SUM(P.protein) >= 10 AND SUM(P.protein) <= 500 MAXIMIZE SUM(P.protein)",
        );
        assert_eq!(
            v.terms().len(),
            1,
            "one distinct SUM(protein) term expected"
        );
    }

    #[test]
    fn columnar_matches_interpreted_on_the_meal_query() {
        let t = recipes(120, Seed(2));
        let v = view_for(&t, MEAL_QUERY);
        let spec_formula = v.formula().unwrap().clone();
        let objective = v.objective().unwrap().clone();
        for skip in 0..20 {
            let p = Package::from_ids(v.candidates().iter().copied().skip(skip).take(3));
            let interp_violation = p.formula_violation(&t, &spec_formula).unwrap();
            let interp_obj = p.objective_value(&t, &objective).unwrap();
            assert!((v.violation(&p) - interp_violation).abs() < 1e-9);
            assert_eq!(v.objective_value(&p), interp_obj);
            assert_eq!(v.is_valid(&p), interp_violation == 0.0);
        }
    }

    #[test]
    fn delta_scores_match_full_recomputation() {
        let t = recipes(100, Seed(3));
        let v = view_for(&t, MEAL_QUERY);
        let base = Package::from_ids(v.candidates().iter().copied().take(3));
        let state = v.project(&base).unwrap();
        // Swap member 0 out for each other candidate and compare the delta
        // score with a from-scratch projection.
        for inn in 3..v.candidate_count().min(30) {
            let (dv, dobj) = state.score_with(&[(0, -1), (inn, 1)]);
            let mut moved = state.clone();
            moved.apply(0, -1);
            moved.apply(inn, 1);
            let fresh = v.project(&moved.to_package()).unwrap();
            let (fv, fobj) = fresh.score();
            assert!((dv - fv).abs() < 1e-9, "violation delta mismatch at {inn}");
            match (dobj, fobj) {
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9),
                (a, b) => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn folding_members_term_by_term_equals_applying_them_one_by_one() {
        // Three chunks, a FILTER term (a mixed inclusion mask), REPEAT 2
        // (multiplicities above one) and non-integral coefficients (sums that
        // depend on their order), resident and paged behind a 2-page pool.
        let t = datagen::uniform_table("t", 10_000, 5.0, 20.0, Seed(7));
        let analyzed = compile(
            "SELECT PACKAGE(T) AS P FROM t T REPEAT 2 \
             SUCH THAT SUM(P.w) FILTER (WHERE T.u < 0.5) >= 3 \
             AND SUM(P.w) <= 2500 MAXIMIZE SUM(P.v)",
            t.schema(),
        )
        .unwrap();
        for (policy, paged) in [
            (ColumnPolicy::resident(), false),
            (ColumnPolicy::paged(2), true),
        ] {
            let ctx = BuildCtx {
                par: ParExec::sequential(),
                policy,
                cache: None,
            };
            let spec = crate::spec::PackageSpec::build(&analyzed, &t, &ctx).unwrap();
            let v = spec.view();
            assert_eq!(v.is_paged(), paged);
            let members: Vec<(usize, u32)> = (0..v.candidate_count())
                .step_by(7)
                .map(|i| (i, 1 + (i % 2) as u32))
                .collect();
            let mut one_by_one = ViewState::empty(v);
            for &(i, m) in &members {
                one_by_one.apply(i, m as i64);
            }
            let folded = ViewState::of_members(v, &members);
            let bits = |s: &ViewState<'_>| {
                let accums: Vec<_> = (s.accums.iter())
                    .map(|a| (a.count, a.sum.to_bits(), a.distinct))
                    .collect();
                (s.members.clone(), s.cardinality, accums)
            };
            assert_eq!(bits(&folded), bits(&one_by_one), "paged: {paged}");
        }
    }

    #[test]
    fn membership_outside_candidates_is_invalid() {
        let t = recipes(60, Seed(4));
        let v = view_for(&t, MEAL_QUERY);
        let outsider = (0..60u32)
            .map(TupleId)
            .find(|id| v.index_of(*id).is_none())
            .expect("some recipe has gluten");
        let p = Package::from_ids([v.candidates()[0], outsider]);
        assert!(!v.is_valid(&p));
        assert!(v.objective_value(&p).is_none());
        assert!(v.violation(&p) >= UNEVALUABLE_PENALTY);
    }

    #[test]
    fn min_max_terms_rescan_correctly() {
        let t = recipes(40, Seed(5));
        let v = view_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT COUNT(*) = 2 AND MIN(P.calories) >= 100 MAXIMIZE MAX(P.protein)",
        );
        let ids: Vec<TupleId> = v.candidates().to_vec();
        let p = Package::from_ids(ids.iter().copied().take(2));
        let state = v.project(&p).unwrap();
        let formula = v.formula().unwrap().clone();
        let objective = v.objective().unwrap().clone();
        assert!((state.violation() - p.formula_violation(&t, &formula).unwrap()).abs() < 1e-9);
        assert_eq!(
            state.objective_value(),
            p.objective_value(&t, &objective).unwrap()
        );
        // Delta path for MIN/MAX: swap and compare against the oracle.
        let (dv, dobj) = state.score_with(&[(0, -1), (2, 1)]);
        let q = Package::from_ids([ids[1], ids[2]]);
        assert!((dv - q.formula_violation(&t, &formula).unwrap()).abs() < 1e-9);
        assert_eq!(dobj, q.objective_value(&t, &objective).unwrap());
    }

    #[test]
    fn empty_package_semantics_match_sql() {
        let t = recipes(30, Seed(6));
        let v = view_for(&t, MEAL_QUERY);
        let empty = Package::new();
        // COUNT = 0, SUM = NULL → violation contains the un-evaluable penalty.
        assert!(v.violation(&empty) >= 3.0); // COUNT(*) = 3 violated by 3
        assert_eq!(v.objective_value(&empty), None);
        assert!(!v.is_valid(&empty));
    }
}
