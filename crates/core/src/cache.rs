//! Cross-query caching of materialized views and partitionings.
//!
//! Real package-query workloads repeat: the same relation and base (`WHERE`)
//! predicate are queried over and over with varying global constraints and
//! objectives — a meal planner re-solving per user, a portfolio screener
//! re-running per rebalance. SketchRefine (PVLDB 2016) and Progressive
//! Shading (2023) both amortize an *offline* partitioning across such
//! queries; this module extends that idea to everything a cold
//! [`crate::spec::PackageSpec::build`] recomputes per query:
//!
//! * **[`ViewCache`]** — what a build whose [`crate::spec::BuildCtx`] names
//!   a `cache` goes through ([`ViewCache::view_for`]): an LRU cache of *term
//!   banks*, keyed by `(relation fingerprint, normalized base predicate)`.
//!   A bank holds the candidate tuple list and every term column
//!   (coefficients + inclusion mask) any past query over that key has
//!   materialized. Lookups reuse by **subset**, not exact match: a
//!   query whose aggregate terms are all in the bank builds its view
//!   without touching the base table at all, and a query that adds terms
//!   pays only for the missing columns (the bank then grows to cover them).
//! * **[`PartitionMemo`]** — a shared memo of sketch→refine partitionings
//!   and partition trees, keyed by `(max_partition_size, seed)` and
//!   `(leaf_size, fanout, seed)`. Every [`CandidateView`] carries one; views
//!   assembled from the same bank (and the same term signature) share one
//!   memo, so the k-d partitioning is computed once and every later query —
//!   and every portfolio worker — pulls the memoized [`Partitioning`].
//!
//! Both caches memoize a solve's *inputs*, never its answer: the sketches
//! and the refine ILP of the sketch family are solved by every query that
//! needs them, since the constraints they carry change between queries.
//!
//! # Staleness is impossible by construction
//!
//! Cache keys embed [`minidb::Table::fingerprint`], a stamp refreshed on
//! every table mutation. Mutating a relation (or re-registering it) changes
//! the fingerprint, so every cached entry for the old contents silently
//! stops matching — a stale view can never be served. The explicit
//! [`ViewCache::invalidate_relation`] / [`ViewCache::clear`] APIs exist to
//! reclaim memory, not for correctness.
//!
//! # Determinism
//!
//! A cache hit is *bit-identical* to a cold build: columns are reused
//! verbatim, term interning order is the query's own, and partitioning is
//! deterministic per seed — so a warm solve returns exactly the package, and
//! does exactly the solver work, a cold solve would (the `view_cache` test
//! suite asserts this).
//!
//! ```
//! use packagebuilder::PackageEngine;
//! use datagen::{recipes, Seed};
//! use minidb::Catalog;
//!
//! let mut catalog = Catalog::new();
//! catalog.register(recipes(500, Seed(7)));
//! let engine = PackageEngine::new(catalog);
//! let query = "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' \
//!     SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
//!     MAXIMIZE SUM(P.protein)";
//!
//! let cold = engine.execute_paql(query).unwrap();
//! let warm = engine.execute_paql(query).unwrap(); // hits the view cache
//! assert_eq!(cold.best(), warm.best());
//! let stats = engine.view_cache().stats();
//! assert_eq!((stats.misses, stats.hits), (1, 1));
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use minidb::{Expr, Table, TupleId};
use paql::{AggCall, PaqlQuery};

use crate::budget::Budget;
use crate::par::ParExec;
use crate::partition::{
    build_partition_tree, partition_view_budgeted, PartitionTree, Partitioning,
};
use crate::spec::{cold_view, BuildCtx};
use crate::view::{CandidateView, TermColumn};
use crate::PbResult;

/// Default number of `(relation, predicate)` entries a
/// [`ViewCache`] retains (see
/// [`crate::config::EngineConfig::view_cache_capacity`]).
pub const DEFAULT_VIEW_CACHE_CAPACITY: usize = 16;

/// Default byte budget for cached payload across every bank (resident +
/// spilled column bytes plus partition-memo bytes): 256 MiB. Enforced after each
/// write-back — least-recently-used banks are evicted until the cache fits,
/// and if the freshest bank alone overflows, it is reset to the current
/// query's columns (memos go with it — their signatures index the old column
/// order). Resets and evictions only cost a rebuild, never correctness.
pub const DEFAULT_CACHE_BYTE_BUDGET: usize = 256 << 20;

/// Growth bound on each bank's partition-memo table. Memo contents now weigh
/// into the byte budget ([`DEFAULT_CACHE_BYTE_BUDGET`], via
/// [`PartitionMemo::approx_bytes`]); this count cap remains as a backstop
/// against pathological workloads that accumulate many near-empty memos (one
/// per term signature). An overflowing memo table is simply cleared.
const MAX_BANK_MEMOS: usize = 32;

/// A shared memo of sketch→refine partitionings for one view's columns.
///
/// Keyed by `(max_partition_size, seed)` — the only partitioning inputs
/// besides the columns themselves. Clones share storage (`Arc`), which is
/// the mechanism behind partition reuse: every [`CandidateView`] cloned or
/// assembled from the same cached columns holds a clone of one memo, so
/// whichever solver partitions first pays, and everyone after reads.
///
/// The memo holds inputs only — flat partitionings and partition trees —
/// never a solver's answer: every sketch and refine ILP is solved anew
/// by the query that needs it, so a warm solve's counters are the work it
/// did.
#[derive(Clone, Default)]
pub struct PartitionMemo {
    inner: Arc<Mutex<MemoMap>>,
    trees: Arc<Mutex<TreeMap>>,
}

/// `(max_partition_size, seed)` → the memoized partitioning.
type MemoMap = HashMap<(usize, u64), Arc<Partitioning>>;

/// `(leaf_size, fanout, seed)` → the memoized partition tree (progressive
/// shading). The leaf layer is the `(leaf_size, seed)` entry of [`MemoMap`]
/// (one shared `Arc`), so a tree memo only adds the grouping layers.
type TreeMap = HashMap<(usize, usize, u64), Arc<PartitionTree>>;

impl PartitionMemo {
    fn lock(&self) -> MutexGuard<'_, MemoMap> {
        // A poisoning panic cannot leave the map half-written (single
        // insert), so recover instead of cascading.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The memoized partitioning for `(max_partition_size, seed)`, computing
    /// (and memoizing) it on first request — with the k-d spread scans fanned
    /// out over `par`. Returns `None` — memoizing nothing — when `budget`
    /// expires mid-computation, exactly like [`partition_view_budgeted`].
    /// The thread count never changes the partitioning (chunk-ordered
    /// reductions), so memo entries computed at different `par` values are
    /// interchangeable.
    pub fn get_or_compute(
        &self,
        view: &CandidateView,
        max_partition_size: usize,
        seed: u64,
        budget: &Budget,
        par: ParExec,
    ) -> Option<Arc<Partitioning>> {
        let key = (max_partition_size, seed);
        if let Some(p) = self.lock().get(&key) {
            return Some(p.clone());
        }
        // Compute outside the lock: partitioning is deterministic, so two
        // concurrent computations produce identical results and the first
        // insert wins without blocking anyone.
        let fresh = Arc::new(partition_view_budgeted(
            view,
            max_partition_size,
            seed,
            budget,
            par,
        )?);
        Some(self.lock().entry(key).or_insert(fresh).clone())
    }

    fn lock_trees(&self) -> MutexGuard<'_, TreeMap> {
        self.trees.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The memoized partition tree for `(leaf_size, fanout, seed)`, growing
    /// it on first request: the leaf partitioning comes through
    /// [`PartitionMemo::get_or_compute`] (so it is the *same* `Arc` the flat
    /// sketch→refine path memoizes for `(leaf_size, seed)`), then
    /// [`build_partition_tree`] stacks the grouping layers. Returns `None` —
    /// memoizing nothing — when `budget` expires mid-computation. Like the
    /// flat memo, entries computed at different `par` values are
    /// interchangeable (tree construction is chunk-order deterministic).
    pub fn tree_or_compute(
        &self,
        view: &CandidateView,
        leaf_size: usize,
        fanout: usize,
        seed: u64,
        budget: &Budget,
        par: ParExec,
    ) -> Option<Arc<PartitionTree>> {
        // Normalized exactly like `build_partition_tree` clamps it, so
        // degenerate fanouts share one memo slot instead of duplicating.
        let fanout = fanout.max(2);
        let key = (leaf_size, fanout, seed);
        if let Some(t) = self.lock_trees().get(&key) {
            return Some(t.clone());
        }
        let leaves = self.get_or_compute(view, leaf_size, seed, budget, par)?;
        let fresh = Arc::new(build_partition_tree(leaves, fanout, seed, budget, par)?);
        Some(self.lock_trees().entry(key).or_insert(fresh).clone())
    }

    /// Number of memoized partitionings.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Number of memoized partition trees.
    pub fn tree_len(&self) -> usize {
        self.lock_trees().len()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty() && self.lock_trees().is_empty()
    }

    /// Rough heap footprint of everything this memo retains — flat
    /// partitionings and partition-tree layers — so the view cache can weigh
    /// memos into its byte budget (a 10^7-candidate partitioning is ~100 MB
    /// of assignment + member indices, far from the rounding error the
    /// pre-shading accounting treated it as). Tree leaf layers are shared
    /// `Arc`s with the flat map and deliberately not double-counted.
    pub fn approx_bytes(&self) -> usize {
        let parts: usize = self.lock().values().map(|p| p.approx_bytes()).sum();
        let trees: usize = self.lock_trees().values().map(|t| t.approx_bytes()).sum();
        parts + trees
    }
}

impl fmt::Debug for PartitionMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PartitionMemo({} entries)", self.len())
    }
}

/// The cache key: which relation contents and which base predicate a bank of
/// materialized columns belongs to.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ViewKey {
    /// The relation name, lowercased (matching the catalog's namespace).
    pub relation: String,
    /// [`Table::fingerprint`] at materialization time. Mutation refreshes
    /// the table's stamp, so entries for old contents can never match again.
    pub fingerprint: u64,
    /// Canonical rendering of the base (`WHERE`) predicate (empty when the
    /// query has none). Rendering the parsed AST normalizes whitespace and
    /// parenthesization, so textual variants of one predicate share a key.
    pub predicate: String,
}

impl ViewKey {
    /// The key for a query's base scan of `table`.
    pub fn of(table: &Table, where_clause: Option<&Expr>) -> ViewKey {
        ViewKey {
            relation: table.name().to_ascii_lowercase(),
            fingerprint: table.fingerprint(),
            predicate: where_clause.map(|p| p.to_string()).unwrap_or_default(),
        }
    }
}

/// Everything materialized so far for one `(relation, predicate)` key: the
/// query-independent building blocks of a [`CandidateView`], growing as
/// queries request new aggregate terms.
struct TermBank {
    candidates: Vec<TupleId>,
    term_keys: Vec<AggCall>,
    /// `Arc`ed so a hit-path snapshot is a refcount bump per column the bank
    /// has ever materialized. A view takes its own [`TermColumn`] of the
    /// columns it uses — the per-chunk metadata by copy, the resident
    /// payload (or spill pages) shared with the bank, never copied.
    columns: Vec<Arc<TermColumn>>,
    /// Partition memos per term *signature* (the bank column indices a view
    /// uses, in the view's order). Partitioning splits along a view's term
    /// columns, so only views over the same columns in the same order may
    /// share a memo — sharing more would silently change solver results
    /// between cold and warm runs.
    memos: HashMap<Vec<usize>, PartitionMemo>,
}

impl TermBank {
    /// In-memory column-payload bytes this bank holds.
    fn resident_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.resident_bytes()).sum()
    }

    /// Spill-file column-payload bytes this bank keeps alive (a banked paged
    /// column pins its spill store — and therefore its file — for exactly as
    /// long as the bank can serve it).
    fn spilled_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.spilled_bytes()).sum()
    }

    /// Approximate heap bytes of the bank's partition and tree memos.
    /// Counted against the cache byte budget alongside the columns: a large
    /// view's partitioning rivals a column in size, so leaving memos outside
    /// the accounting (as before progressive shading) would let the cache
    /// silently exceed its budget by whole partitionings.
    fn memo_bytes(&self) -> usize {
        // pb-lint: allow(no-hash-iteration) — a commutative sum over the
        // values; the iteration order cannot reach the total.
        self.memos.values().map(|m| m.approx_bytes()).sum()
    }
}

/// Counters describing a cache's activity (see [`ViewCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Entries currently resident.
    pub entries: usize,
    /// Lookups answered from a bank: candidate evaluation was skipped. The base table is still consulted when the query adds
    /// terms the bank lacks (that shows up in `columns_built`); a hit with
    /// `columns_built` unchanged touched the table not at all.
    pub hits: u64,
    /// Lookups that built a fresh bank.
    pub misses: u64,
    /// Term columns served from a bank.
    pub columns_reused: u64,
    /// Term columns materialized from the base table (on misses and on hits
    /// that extended the bank with new terms).
    pub columns_built: u64,
    /// In-memory column-payload bytes currently banked, across all entries.
    pub resident_bytes: usize,
    /// Spill-file column-payload bytes currently kept alive by banked paged
    /// columns, across all entries. Tracked separately from `resident_bytes`
    /// because the two compete for different resources (RAM vs disk), but
    /// both count against the cache's byte budget.
    pub spilled_bytes: usize,
    /// Approximate heap bytes of banked partition memos (flat partitionings
    /// and partition trees), across all entries. Also counted against the
    /// byte budget — a 10^7-candidate partitioning is column-sized, not free.
    pub memo_bytes: usize,
}

struct CacheInner {
    capacity: usize,
    /// Total column-payload bytes (resident + spilled) the cache may retain.
    byte_budget: usize,
    /// Most-recently-used first; evictions pop from the back.
    entries: Vec<(ViewKey, TermBank)>,
    hits: u64,
    misses: u64,
    columns_reused: u64,
    columns_built: u64,
}

impl CacheInner {
    fn total_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|(_, b)| b.resident_bytes() + b.spilled_bytes() + b.memo_bytes())
            .sum()
    }
}

/// An LRU cache of materialized view columns (and, via [`PartitionMemo`],
/// partitionings), shared by every clone of an engine — see the module docs
/// for the design and the staleness argument.
///
/// Clones share storage: cloning an engine (or passing a `ViewCache` to
/// [`crate::engine::PackageEngine::with_shared_cache`]) yields sessions that
/// warm each other's queries. All methods take `&self`; the cache is
/// internally synchronized and `Send + Sync`.
#[derive(Clone)]
pub struct ViewCache {
    inner: Arc<Mutex<CacheInner>>,
}

impl ViewCache {
    /// A cache retaining at most `capacity` `(relation, predicate)` banks
    /// under the default byte budget ([`DEFAULT_CACHE_BYTE_BUDGET`]).
    /// Capacity 0 disables storage: every lookup builds cold.
    pub fn new(capacity: usize) -> Self {
        Self::with_byte_budget(capacity, DEFAULT_CACHE_BYTE_BUDGET)
    }

    /// [`ViewCache::new`] with an explicit column-payload byte budget
    /// (resident + spilled combined). Enforced after every write-back by
    /// evicting least-recently-used banks; a single bank larger than the
    /// whole budget is reset to the newest query's columns (which are always
    /// retained, so a hot query stays warm however small the budget).
    pub fn with_byte_budget(capacity: usize, byte_budget: usize) -> Self {
        ViewCache {
            inner: Arc::new(Mutex::new(CacheInner {
                capacity,
                byte_budget,
                entries: Vec::new(),
                hits: 0,
                misses: 0,
                columns_reused: 0,
                columns_built: 0,
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Builds the columnar view for `query` over `table`, reusing every
    /// cached building block available under the query's [`ViewKey`] and
    /// extending the bank with whatever had to be materialized. The returned
    /// view is bit-identical to a cold [`CandidateView::build`] — see the
    /// module docs.
    ///
    /// Whatever has to be computed — the whole cold build on a miss, the
    /// missing term columns on a hit — runs on `ctx`'s executor and under
    /// its storage policy (`ctx.cache` is not consulted: this cache is the
    /// cache). Banked columns keep the mode they were built with; neither
    /// thread count nor storage mode changes a view, so hits primed under
    /// one context serve queries running under another.
    ///
    /// The cache lock is held only to snapshot and to write back — never
    /// across candidate evaluation or column materialization — so engines
    /// sharing a cache do not serialize their (potentially expensive) cold
    /// builds behind one another.
    pub fn view_for(
        &self,
        query: &PaqlQuery,
        table: &Table,
        ctx: &BuildCtx<'_>,
    ) -> PbResult<CandidateView> {
        let key = ViewKey::of(table, query.where_clause.as_ref());

        // Phase 1 — snapshot the bank (if any) under the lock: refcount
        // bumps, no column payload is copied.
        let snapshot = {
            let mut inner = self.lock();
            if inner.capacity == 0 {
                // Disabled: behave exactly like the uncached path.
                drop(inner);
                return cold_view(query, table, ctx);
            }
            match inner.entries.iter().position(|(k, _)| *k == key) {
                Some(pos) => {
                    inner.hits += 1;
                    // Move to front (most recently used).
                    let entry = inner.entries.remove(pos);
                    inner.entries.insert(0, entry);
                    let bank = &inner.entries[0].1;
                    Some((
                        bank.candidates.clone(),
                        bank.term_keys.clone(),
                        bank.columns.clone(),
                    ))
                }
                None => {
                    inner.misses += 1;
                    None
                }
            }
        };

        // Phase 2 — build the view outside the lock.
        let (mut view, reused) = match snapshot {
            Some((candidates, term_keys, columns)) => {
                let mut reused = 0u64;
                let view = CandidateView::assemble(
                    table,
                    candidates,
                    query,
                    |call: &AggCall| {
                        let col = term_keys
                            .iter()
                            .position(|k| k == call)
                            .map(|i| TermColumn::clone(&columns[i]));
                        reused += col.is_some() as u64;
                        col
                    },
                    ctx,
                )?;
                (view, reused)
            }
            None => (cold_view(query, table, ctx)?, 0),
        };

        // Phase 3 — write back under the lock: grow (or create) the bank
        // with the columns this query added, then hand the view the shared
        // partition memo for its term signature. A concurrent builder of the
        // same key may have banked meanwhile; adopting into whatever is
        // resident keeps both callers sharing one memo (contents are
        // deterministic, so whoever wrote first wrote the same columns).
        let mut inner = self.lock();
        inner.columns_reused += reused;
        inner.columns_built += view.terms().len() as u64 - reused;
        let bank = match inner.entries.iter().position(|(k, _)| *k == key) {
            Some(pos) => {
                let entry = inner.entries.remove(pos);
                inner.entries.insert(0, entry);
                &mut inner.entries[0].1
            }
            None => {
                // Miss path, or the entry was evicted while we built.
                let bank = TermBank {
                    candidates: view.candidates().to_vec(),
                    term_keys: Vec::new(),
                    columns: Vec::new(),
                    memos: HashMap::new(),
                };
                inner.entries.insert(0, (key, bank));
                let capacity = inner.capacity;
                inner.entries.truncate(capacity);
                &mut inner.entries[0].1
            }
        };
        if bank.memos.len() >= MAX_BANK_MEMOS {
            bank.memos.clear();
        }
        let mut sig = adopt_columns(bank, &view);
        // Byte-accurate budget enforcement (see [`DEFAULT_CACHE_BYTE_BUDGET`]
        // and [`ViewCache::with_byte_budget`]): evict least-recently-used
        // banks until the cache fits its byte budget; if the freshest bank
        // alone still overflows, reset it to exactly this query's columns
        // (and drop its memos — their signatures index the old column order).
        // The current query's own columns are always retained, so however
        // small the budget, a repeated query stays warm.
        while inner.total_bytes() > inner.byte_budget && inner.entries.len() > 1 {
            inner.entries.pop();
        }
        if inner.total_bytes() > inner.byte_budget {
            let bank = &mut inner.entries[0].1;
            bank.term_keys.clear();
            bank.columns.clear();
            bank.memos.clear();
            sig = adopt_columns(bank, &view);
        }
        view.set_partition_memo(inner.entries[0].1.memos.entry(sig).or_default().clone());
        Ok(view)
    }

    /// Drops every cached bank for `relation` (case-insensitive). Purely a
    /// memory-reclamation affordance — fingerprinted keys already guarantee
    /// mutated relations never hit (see the module docs).
    pub fn invalidate_relation(&self, relation: &str) {
        let relation = relation.to_ascii_lowercase();
        self.lock().entries.retain(|(k, _)| k.relation != relation);
    }

    /// Drops every cached bank.
    pub fn clear(&self) {
        self.lock().entries.clear();
    }

    /// Activity counters and current size.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            entries: inner.entries.len(),
            hits: inner.hits,
            misses: inner.misses,
            columns_reused: inner.columns_reused,
            columns_built: inner.columns_built,
            resident_bytes: inner.entries.iter().map(|(_, b)| b.resident_bytes()).sum(),
            spilled_bytes: inner.entries.iter().map(|(_, b)| b.spilled_bytes()).sum(),
            memo_bytes: inner.entries.iter().map(|(_, b)| b.memo_bytes()).sum(),
        }
    }

    /// Number of resident banks.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// True when no bank is resident.
    pub fn is_empty(&self) -> bool {
        self.lock().entries.is_empty()
    }
}

impl fmt::Debug for ViewCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        write!(
            f,
            "ViewCache({} entries, {} hits, {} misses)",
            stats.entries, stats.hits, stats.misses
        )
    }
}

/// Banks `view`'s columns that the bank does not have yet (sharing their
/// payload with the view) and returns the view's term signature (its columns as bank indices, in view
/// order) — the key under which views may share a [`PartitionMemo`].
fn adopt_columns(bank: &mut TermBank, view: &CandidateView) -> Vec<usize> {
    view.term_keys()
        .iter()
        .zip(view.terms())
        .map(
            |(call, column)| match bank.term_keys.iter().position(|k| k == call) {
                Some(i) => i,
                None => {
                    bank.term_keys.push(call.clone());
                    bank.columns.push(Arc::new(column.clone()));
                    bank.term_keys.len() - 1
                }
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column_store::ColumnPolicy;
    use crate::spec::base_candidates_par;
    use datagen::{recipes, Seed};
    use paql::parse;

    const MEAL: &str = "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' \
        SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 MAXIMIZE SUM(P.protein)";

    fn view_pair(cache: &ViewCache, table: &Table, q: &str) -> (CandidateView, CandidateView) {
        let query = parse(q).unwrap();
        (
            cache.view_for(&query, table, &BuildCtx::default()).unwrap(),
            cache.view_for(&query, table, &BuildCtx::default()).unwrap(),
        )
    }

    /// A build pinned to resident storage, so byte-budget arithmetic in the
    /// tests below is exact regardless of the `PB_COLUMN_BUDGET` environment.
    fn view_resident(cache: &ViewCache, query: &PaqlQuery, table: &Table) -> CandidateView {
        let ctx = BuildCtx {
            par: ParExec::sequential(),
            policy: ColumnPolicy::resident(),
            cache: None,
        };
        cache.view_for(query, table, &ctx).unwrap()
    }

    #[test]
    fn repeated_queries_hit_and_reuse_every_column() {
        let t = recipes(300, Seed(1));
        let cache = ViewCache::new(4);
        let (a, b) = view_pair(&cache, &t, MEAL);
        assert_eq!(a.candidates(), b.candidates());
        assert_eq!(a.terms().len(), b.terms().len());
        for (x, y) in a.terms().iter().zip(b.terms()) {
            assert_eq!(x.coeffs_vec(), y.coeffs_vec());
            assert_eq!(x.included_vec(), y.included_vec());
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.columns_built, 3, "COUNT, SUM(cal), SUM(protein)");
        assert_eq!(stats.columns_reused, 3);
        // Byte accounting sees the three banked columns.
        let banked: usize = a
            .terms()
            .iter()
            .map(|t| t.resident_bytes() + t.spilled_bytes())
            .sum();
        assert_eq!(stats.resident_bytes + stats.spilled_bytes, banked);
    }

    #[test]
    fn bank_growth_is_bounded_by_the_byte_budget() {
        // Every query introduces a novel FILTER term on the same
        // (relation, predicate) key; the bank must not grow past the byte
        // budget (here: room for about four 50-row columns).
        let t = recipes(50, Seed(42));
        let one_column = crate::column_store::column_bytes(50);
        let cache = ViewCache::with_byte_budget(4, 4 * one_column + one_column / 2);
        let query_with_threshold = |c: usize| {
            parse(&format!(
                "SELECT PACKAGE(R) AS P FROM recipes R \
                 SUCH THAT COUNT(*) FILTER (WHERE R.calories > {c}) >= 0"
            ))
            .unwrap()
        };
        for c in 0..64 {
            view_resident(&cache, &query_with_threshold(c), &t);
            let stats = cache.stats();
            assert!(
                stats.resident_bytes + stats.spilled_bytes <= 4 * one_column + one_column / 2,
                "bank exceeded its byte budget after query {c}"
            );
        }
        assert_eq!(cache.len(), 1, "one key throughout");
        // The most recent term survived the last reset and is served warm...
        let built = cache.stats().columns_built;
        view_resident(&cache, &query_with_threshold(63), &t);
        assert_eq!(cache.stats().columns_built, built, "recent term banked");
        // ...while the very first term was dropped by a reset and rebuilds.
        view_resident(&cache, &query_with_threshold(0), &t);
        assert_eq!(cache.stats().columns_built, built + 1, "old term evicted");
    }

    #[test]
    fn byte_budget_evicts_least_recently_used_banks_first() {
        // Distinct WHERE predicates are distinct banks; with room for about
        // two single-column banks, priming a third must evict the stalest
        // bank, not the freshest.
        let t = recipes(50, Seed(43));
        let one_column = crate::column_store::column_bytes(50);
        // Predicates every row passes, so all three banks weigh exactly one
        // full column and the budget arithmetic below is exact.
        let cache = ViewCache::with_byte_budget(8, 2 * one_column + one_column / 2);
        let queries: Vec<PaqlQuery> = ["R.calories > 0", "R.calories > -1", "R.calories > -2"]
            .iter()
            .map(|w| {
                parse(&format!(
                    "SELECT PACKAGE(R) AS P FROM recipes R WHERE {w} SUCH THAT COUNT(*) = 1"
                ))
                .unwrap()
            })
            .collect();
        view_resident(&cache, &queries[0], &t);
        view_resident(&cache, &queries[1], &t);
        assert_eq!(cache.len(), 2);
        view_resident(&cache, &queries[2], &t); // over budget: evicts [0]
        assert_eq!(cache.len(), 2, "byte budget evicted one bank");
        view_resident(&cache, &queries[1], &t);
        assert_eq!(cache.stats().hits, 1, "fresh bank survived");
        view_resident(&cache, &queries[0], &t);
        assert_eq!(cache.stats().misses, 4, "stale bank was the victim");
    }

    #[test]
    fn cached_views_match_cold_builds_exactly() {
        let t = recipes(200, Seed(2));
        let cache = ViewCache::new(4);
        let query = parse(MEAL).unwrap();
        let warm = {
            cache.view_for(&query, &t, &BuildCtx::default()).unwrap(); // prime
            cache.view_for(&query, &t, &BuildCtx::default()).unwrap()
        };
        let cold = cold_view(&query, &t, &BuildCtx::default()).unwrap();
        assert_eq!(warm.candidates(), cold.candidates());
        assert_eq!(warm.term_keys(), cold.term_keys());
        for (w, c) in warm.terms().iter().zip(cold.terms()) {
            assert_eq!(w.coeffs_vec(), c.coeffs_vec());
            assert_eq!(w.included_vec(), c.included_vec());
        }
    }

    #[test]
    fn adding_terms_extends_the_bank_instead_of_rebuilding() {
        let t = recipes(300, Seed(3));
        let cache = ViewCache::new(4);
        let narrow = parse(
            "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' \
             SUCH THAT COUNT(*) = 3 AND SUM(P.calories) <= 2500",
        )
        .unwrap();
        let wide = parse(MEAL).unwrap();
        cache.view_for(&narrow, &t, &BuildCtx::default()).unwrap();
        let v = cache.view_for(&wide, &t, &BuildCtx::default()).unwrap();
        assert_eq!(v.terms().len(), 3);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // COUNT and SUM(calories) came from the bank; only SUM(protein) was
        // materialized on the second query.
        assert_eq!(stats.columns_reused, 2);
        assert_eq!(stats.columns_built, 3);
        // The narrower query now reuses the grown bank wholesale.
        cache.view_for(&narrow, &t, &BuildCtx::default()).unwrap();
        assert_eq!(cache.stats().columns_reused, 4);
        assert_eq!(cache.stats().columns_built, 3);
    }

    #[test]
    fn partition_memo_is_shared_across_hits_with_the_same_terms() {
        let t = recipes(500, Seed(4));
        let cache = ViewCache::new(4);
        let (a, b) = view_pair(&cache, &t, MEAL);
        let pa = a
            .partitioning(64, 7, &Budget::unlimited(), ParExec::sequential())
            .unwrap();
        let pb = b
            .partitioning(64, 7, &Budget::unlimited(), ParExec::sequential())
            .unwrap();
        assert!(Arc::ptr_eq(&pa, &pb), "partitioning computed twice");
        // A different (size, seed) is a different memo slot, not a clash.
        let pc = b
            .partitioning(32, 7, &Budget::unlimited(), ParExec::sequential())
            .unwrap();
        assert!(!Arc::ptr_eq(&pa, &pc));
    }

    #[test]
    fn mutation_changes_the_key_so_stale_banks_cannot_hit() {
        let mut t = recipes(100, Seed(5));
        let cache = ViewCache::new(4);
        let query = parse(MEAL).unwrap();
        cache.view_for(&query, &t, &BuildCtx::default()).unwrap();
        // Mutate: the fingerprint moves, the old bank can never match.
        let extra = t.require(TupleId(0)).unwrap().to_tuple();
        t.insert(extra).unwrap();
        let v = cache.view_for(&query, &t, &BuildCtx::default()).unwrap();
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(v.candidates().len() as u64, {
            let fresh = base_candidates_par(&t, query.where_clause.as_ref(), ParExec::sequential())
                .unwrap();
            fresh.len() as u64
        });
    }

    #[test]
    fn lru_evicts_the_least_recently_used_bank() {
        let t = recipes(50, Seed(6));
        let cache = ViewCache::new(2);
        let queries: Vec<PaqlQuery> = ["R.calories > 100", "R.calories > 200", "R.calories > 300"]
            .iter()
            .map(|w| {
                parse(&format!(
                    "SELECT PACKAGE(R) AS P FROM recipes R WHERE {w} SUCH THAT COUNT(*) = 1"
                ))
                .unwrap()
            })
            .collect();
        cache
            .view_for(&queries[0], &t, &BuildCtx::default())
            .unwrap();
        cache
            .view_for(&queries[1], &t, &BuildCtx::default())
            .unwrap();
        cache
            .view_for(&queries[2], &t, &BuildCtx::default())
            .unwrap(); // evicts queries[0]
        assert_eq!(cache.len(), 2);
        cache
            .view_for(&queries[0], &t, &BuildCtx::default())
            .unwrap();
        assert_eq!(cache.stats().misses, 4, "evicted entry rebuilt");
    }

    #[test]
    fn invalidation_and_zero_capacity_behave() {
        let t = recipes(50, Seed(7));
        let cache = ViewCache::new(4);
        let query = parse(MEAL).unwrap();
        cache.view_for(&query, &t, &BuildCtx::default()).unwrap();
        assert_eq!(cache.len(), 1);
        cache.invalidate_relation("RECIPES");
        assert!(cache.is_empty());

        let disabled = ViewCache::new(0);
        disabled.view_for(&query, &t, &BuildCtx::default()).unwrap();
        disabled.view_for(&query, &t, &BuildCtx::default()).unwrap();
        assert!(disabled.is_empty());
        assert_eq!(disabled.stats().hits, 0);
    }
}
