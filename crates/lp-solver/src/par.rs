//! The one executor: every thread the workspace creates or wakes is here.
//!
//! Every hot loop in the engine — column materialization, the base-predicate
//! candidate scan, the k-d partitioner's spread scans, greedy repair and the
//! local search's neighbourhood scan — walks the candidate set in
//! **fixed-width chunks** of [`CHUNK_WIDTH`] elements. [`ParExec`] fans those
//! chunks out over a persistent pool of worker threads (no external
//! dependencies) and hands the per-chunk results back **in chunk order**,
//! which is the whole determinism story:
//!
//! * Chunk boundaries depend only on the element count, never on the thread
//!   count, so every chunk computes exactly the same value no matter which
//!   worker runs it or when.
//! * Reductions combine per-chunk results left to right (chunk 0 first), so
//!   floating-point rounding and tie-breaking ("first strictly better move
//!   wins") are identical at every `num_threads` — including 1, where the
//!   executor degrades to a plain sequential loop over the same chunks with
//!   no thread machinery at all.
//!
//! Together these make solver results **bit-identical regardless of thread
//! count**; `crates/core/tests/parallel_determinism.rs` asserts exactly that
//! across the datagen scenarios, and the harness's `shade` and
//! `gauntlet-smoke` experiments gate it in release mode.
//!
//! Coarser work rides the same executor as width-1 chunks: a
//! branch-and-bound batch is one job per node expansion
//! ([`crate::branch_bound`]), and the engine's portfolio race is one job per
//! racing solver. The module lives in `lp-solver` because that is the bottom
//! of the crate graph; the engine re-exports it as `packagebuilder::par`.
//!
//! The anytime contract survives fan-out because callers check their
//! cooperative budget (`packagebuilder::budget::Budget`) **per chunk, not per
//! element**: a chunk closure that observes expiry returns an "expired"
//! marker instead of scanning, the chunk-order reduction stops at the first
//! marker, and the solver returns its best-so-far result exactly as the
//! sequential code would.
//!
//! Thread budgets are a shared resource: [`ParExec::split`] divides one
//! executor's threads among concurrent consumers, which is how the portfolio
//! race gives each racing worker `num_threads / workers` threads for its own
//! intra-solver fan-out instead of oversubscribing the host.
//!
//! # The persistent pool
//!
//! Fan-outs execute on a process-wide pool of long-lived worker threads
//! (spawned lazily on the first parallel scan, one per host core), not on
//! per-scan `std::thread::scope` spawns: a package query runs hundreds of
//! chunked scans, and ~50 µs of spawn/join per scan was pure overhead. The
//! pool is **help-first**: the caller posts a job asking for up to
//! `threads − 1` helpers, then immediately starts claiming chunks itself
//! from the same shared counter. Helpers that arrive late (or never,
//! because the pool is busy with another scan) only *speed the scan up* —
//! the caller alone is always sufficient, so nested fan-outs and a
//! saturated pool degrade to inline execution instead of deadlocking.
//! Chunk *results* still land in their chunk-index slot, so which thread
//! ran what remains invisible to the caller. Chunks are claimed in index
//! order, so a fan-out that gets no helper runs them first to last.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ops::Range;

/// Width of one column chunk, in elements. 4096 `f64`s = 32 KiB — two or
/// eight L1 data caches' worth depending on the core, and a multiple of
/// every SIMD vector width in sight, so per-chunk inner loops vectorize and
/// stay cache-resident. The width is a fixed constant (never derived from
/// the thread count): chunk boundaries are part of the determinism contract.
pub const CHUNK_WIDTH: usize = 4096;

/// Number of fixed-width chunks covering `n` elements (0 for an empty range).
pub fn chunk_count(n: usize) -> usize {
    n.div_ceil(CHUNK_WIDTH)
}

/// The half-open element range of chunk `c` over `n` elements.
pub fn chunk_range(c: usize, n: usize) -> Range<usize> {
    let start = c * CHUNK_WIDTH;
    start..(start + CHUNK_WIDTH).min(n)
}

/// A chunk fan-out executor with a fixed thread budget.
///
/// Cheap to copy and to pass down through the engine's `SolveOptions`;
/// carries nothing but the thread count. With `threads() == 1` (or a single
/// chunk of work) every operation runs inline on the caller's thread —
/// sequential evaluation is the degenerate case of the same chunked code
/// path, not a separate implementation, which is what keeps the two
/// bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParExec {
    threads: usize,
}

impl ParExec {
    /// An executor that never spawns: all chunks run inline, in order.
    pub fn sequential() -> Self {
        ParExec { threads: 1 }
    }

    /// An executor with a thread budget of `threads` (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        ParExec {
            threads: threads.max(1),
        }
    }

    /// The thread budget.
    pub fn threads(self) -> usize {
        self.threads
    }

    /// Divides this executor's thread budget among `ways` concurrent
    /// consumers (at least 1 each). The portfolio race uses this so `W`
    /// racing workers and their intra-solver fan-out share one core budget:
    /// each worker's executor gets `threads / W`.
    pub fn split(self, ways: usize) -> ParExec {
        ParExec::new(self.threads / ways.max(1))
    }

    /// Maps every [`CHUNK_WIDTH`]-wide chunk of `0..n` through `f`,
    /// returning the results **in chunk order**.
    ///
    /// `f` is called with `(chunk_index, element_range)` exactly once per
    /// chunk. Workers pull chunks from a shared counter, so the *assignment*
    /// of chunks to threads is timing-dependent — but the result vector is
    /// not: slot `c` always holds `f(c, chunk_range(c, n))`, and `f` must be
    /// a pure function of its arguments (plus captured shared state) for the
    /// executor's determinism guarantee to mean anything.
    pub fn run_chunks<R, F>(self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Range<usize>) -> R + Sync,
    {
        self.run_chunks_width(n, CHUNK_WIDTH, f)
    }

    /// [`ParExec::run_chunks`] with an explicit chunk width, for work whose
    /// natural unit is larger than one element (e.g. one partition of the
    /// sketch solver). The width must never be derived from the thread
    /// count — fixed boundaries are what keep results thread-independent.
    pub fn run_chunks_width<R, F>(self, n: usize, width: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Range<usize>) -> R + Sync,
    {
        let width = width.max(1);
        let chunks = n.div_ceil(width);
        let range = |c: usize| (c * width)..((c + 1) * width).min(n);
        let workers = self.threads.min(chunks);
        if workers <= 1 {
            // Sequential degradation: same chunks, same order, no threads.
            return (0..chunks).map(|c| f(c, range(c))).collect();
        }

        // Parallel path: result slots indexed by chunk, filled exactly once
        // by whichever thread claims the chunk, read only after the job's
        // completion barrier.
        let slots: Vec<Slot<R>> = (0..chunks)
            .map(|_| Slot(UnsafeCell::new(MaybeUninit::uninit())))
            .collect();

        /// Monomorphized chunk runner handed to the type-erased pool job.
        ///
        /// # Safety
        /// `ctx` must point at a live `Ctx<R, F>` whose `slots` array has
        /// `>= chunks` entries, and each `c` must be claimed at most once.
        unsafe fn run_one<R, F>(ctx: *const (), c: usize)
        where
            R: Send,
            F: Fn(usize, Range<usize>) -> R + Sync,
        {
            // SAFETY: the caller contract above guarantees `ctx` points at a
            // live `Ctx<R, F>` for the whole fan-out.
            let ctx = unsafe { &*(ctx as *const Ctx<R, F>) };
            let start = c * ctx.width;
            // SAFETY: `ctx.f` was taken from a live `&F` in
            // `run_chunks_width`, which blocks until the fan-out completes.
            let r = unsafe { (*ctx.f)(c, start..(start + ctx.width).min(ctx.n)) };
            // SAFETY: chunk `c` is claimed exactly once (atomic counter in
            // the pool job), so this thread has exclusive access to slot
            // `c`; the caller reads it only after the completion barrier.
            unsafe { (*(*ctx.slots.add(c)).0.get()).write(r) };
        }

        let ctx = Ctx {
            n,
            width,
            slots: slots.as_ptr(),
            f: &f as *const F,
        };
        let panicked = pool::run_erased(
            chunks,
            workers - 1,
            &ctx as *const Ctx<R, F> as *const (),
            run_one::<R, F>,
        );
        if panicked {
            // Initialized results leak rather than risking a double read;
            // mirrors the old scoped executor, where a worker panic
            // propagated out of the scope before any slot was consumed.
            std::mem::forget(slots);
            // pb-lint: allow(no-panic-in-solver-paths) — deliberate re-raise:
            // a worker panicked, and propagating on the caller's thread
            // preserves the pre-pool scoped-executor contract instead of
            // inventing an error value for a programming bug.
            panic!("parallel chunk worker panicked");
        }
        slots
            .into_iter()
            // SAFETY: the completion barrier in `run_erased` (Acquire on the
            // done counter) ordered every slot write before this point, and
            // every chunk ran exactly once, so each slot is initialized.
            .map(|s| unsafe { s.0.into_inner().assume_init() })
            .collect()
    }

    /// Maps chunks through `f` and folds the results **in chunk order**
    /// (`None` for an empty range). The left-to-right fold is what makes
    /// floating-point reductions and first-wins tie-breaking independent of
    /// the thread count.
    pub fn fold_chunks<R, F, G>(self, n: usize, f: F, fold: G) -> Option<R>
    where
        R: Send,
        F: Fn(usize, Range<usize>) -> R + Sync,
        G: FnMut(R, R) -> R,
    {
        self.run_chunks(n, f).into_iter().reduce(fold)
    }
}

impl Default for ParExec {
    fn default() -> Self {
        ParExec::sequential()
    }
}

/// One result slot, written once by the claiming thread and read once by the
/// caller after the completion barrier.
struct Slot<R>(UnsafeCell<MaybeUninit<R>>);

// SAFETY: the pool protocol guarantees exclusive access per slot — each
// chunk index is claimed by exactly one thread (atomic counter), and the
// caller reads only after observing `done == chunks` with Acquire ordering.
unsafe impl<R: Send> Sync for Slot<R> {}

/// Raw-pointer context for a type-erased fan-out; lives on the caller's
/// stack for the duration of `pool::run_erased`, which must not return while
/// any thread can still dereference it (see the pool's safety argument).
struct Ctx<R, F> {
    n: usize,
    width: usize,
    slots: *const Slot<R>,
    f: *const F,
}

/// The process-wide persistent worker pool.
///
/// # Protocol
///
/// [`run_erased`](pool::run_erased) publishes a [`Job`](pool::Job) — a claim
/// counter over `chunks` indices plus a type-erased chunk runner — enqueues
/// up to `helpers` references to it for the pool's long-lived workers, and
/// then **helps**: the calling thread claims chunks from the same counter
/// until none remain, and finally blocks on the job's completion latch
/// (`done == chunks`). Helpers do the same claim loop when they pick the job
/// up; a helper that arrives after the counter is exhausted returns without
/// ever touching the job's context pointer.
///
/// # Safety argument
///
/// The job holds a raw pointer into the caller's stack frame. That pointer
/// is dereferenced only inside `run_chunk(ctx, c)` for a successfully
/// claimed `c < chunks`, and every such call must finish (incrementing
/// `done` with Release) before the caller's wait on `done == chunks`
/// (Acquire) can succeed — so no dereference can happen after `run_erased`
/// returns. Stale job references left in the queue by a fast scan are
/// harmless: their claim counter is exhausted, so late workers drop them
/// without a dereference.
///
/// # Why helping matters
///
/// The caller never *depends* on the pool: if every worker is busy with
/// another scan (or the pool failed to spawn), the caller simply runs all
/// chunks itself. That makes nested fan-outs trivially deadlock-free — an
/// inner scan posted from a pool worker is just another job that its caller
/// can fully drain alone.
mod pool {
    use std::collections::VecDeque;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, OnceLock};

    /// Upper bound on pool threads, above any sane core count for this
    /// workload.
    const MAX_POOL_THREADS: usize = 64;

    /// A posted fan-out: helpers and the caller claim chunk indices from
    /// `next` and run `run_chunk` on each; `done` is the completion latch.
    pub(super) struct Job {
        next: AtomicUsize,
        chunks: usize,
        done: AtomicUsize,
        panicked: AtomicBool,
        ctx: *const (),
        // SAFETY: contract on `run_erased` — only ever called with this
        // job's `ctx` and a claimed chunk index `c < chunks`.
        run_chunk: unsafe fn(*const (), usize),
        lock: Mutex<()>,
        cv: Condvar,
    }

    // SAFETY: `ctx` crosses threads by design; the dereference discipline is
    // documented on the module. Everything else in the struct is Sync.
    unsafe impl Send for Job {}
    // SAFETY: shared access is `&self`-only — atomic claim/latch counters
    // plus the Mutex/Condvar pair; `ctx` is only ever read, and `run_chunk`
    // guards its own per-chunk exclusivity via the claim counter.
    unsafe impl Sync for Job {}

    impl Job {
        /// Claims and runs chunks until the counter is exhausted. Run by the
        /// caller and by any helper that picks the job up.
        fn help(&self) {
            loop {
                let c = self.next.fetch_add(1, Ordering::Relaxed);
                if c >= self.chunks {
                    return;
                }
                // A panicking chunk still counts as done (otherwise the
                // caller's latch would hang); the caller re-raises.
                // SAFETY: `c` came from the claim counter, so it is claimed
                // exactly once and `< chunks`; `ctx` stays live until the
                // caller's `wait_done` returns (contract on `run_erased`).
                let r = catch_unwind(AssertUnwindSafe(|| unsafe {
                    (self.run_chunk)(self.ctx, c)
                }));
                if r.is_err() {
                    self.panicked.store(true, Ordering::Relaxed);
                }
                if self.done.fetch_add(1, Ordering::Release) + 1 == self.chunks {
                    let _g = self.lock.lock().unwrap();
                    self.cv.notify_all();
                }
            }
        }

        /// Blocks until every chunk has run. The Acquire load pairs with the
        /// Release increments in [`Job::help`], ordering all slot writes
        /// before the caller's reads.
        fn wait_done(&self) {
            let mut g = self.lock.lock().unwrap();
            while self.done.load(Ordering::Acquire) < self.chunks {
                g = self.cv.wait(g).unwrap();
            }
        }
    }

    struct Shared {
        queue: Mutex<VecDeque<Arc<Job>>>,
        work: Condvar,
    }

    struct Pool {
        shared: Arc<Shared>,
        /// Worker threads actually spawned (0 if the host refused).
        workers: usize,
    }

    static POOL: OnceLock<Pool> = OnceLock::new();

    fn pool() -> &'static Pool {
        POOL.get_or_init(|| {
            let shared = Arc::new(Shared {
                queue: Mutex::new(VecDeque::new()),
                work: Condvar::new(),
            });
            let want = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(MAX_POOL_THREADS);
            let mut workers = 0;
            for _ in 0..want {
                let sh = Arc::clone(&shared);
                // This is the contained thread home clippy.toml points at.
                #[allow(clippy::disallowed_methods)]
                let spawned = std::thread::Builder::new()
                    .name("pb-par-worker".into())
                    .spawn(move || worker_main(&sh));
                if spawned.is_ok() {
                    workers += 1;
                }
            }
            Pool { shared, workers }
        })
    }

    fn worker_main(sh: &Shared) {
        loop {
            let job = {
                let mut q = sh.queue.lock().unwrap();
                loop {
                    if let Some(j) = q.pop_front() {
                        break j;
                    }
                    q = sh.work.wait(q).unwrap();
                }
            };
            job.help();
        }
    }

    /// Runs `chunks` chunk invocations of `run_chunk` with up to `helpers`
    /// pool workers assisting the calling thread. Returns whether any chunk
    /// panicked (the caller re-raises; results must then not be read).
    ///
    /// # Safety (for callers)
    ///
    /// `ctx` must stay valid until this function returns, and
    /// `run_chunk(ctx, c)` must be safe for every `c < chunks` claimed at
    /// most once. Both hold for the single call site in
    /// [`ParExec::run_chunks_width`](super::ParExec::run_chunks_width).
    pub(super) fn run_erased(
        chunks: usize,
        helpers: usize,
        ctx: *const (),
        // SAFETY: see the `# Safety (for callers)` contract above.
        run_chunk: unsafe fn(*const (), usize),
    ) -> bool {
        let job = Arc::new(Job {
            next: AtomicUsize::new(0),
            chunks,
            done: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            ctx,
            run_chunk,
            lock: Mutex::new(()),
            cv: Condvar::new(),
        });
        let p = pool();
        let helpers = helpers.min(p.workers);
        if helpers > 0 {
            let mut q = p.shared.queue.lock().unwrap();
            for _ in 0..helpers {
                q.push_back(Arc::clone(&job));
            }
            drop(q);
            p.shared.work.notify_all();
        }
        job.help();
        job.wait_done();
        job.panicked.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn chunk_math_covers_the_range_exactly_once() {
        for n in [
            0usize,
            1,
            CHUNK_WIDTH - 1,
            CHUNK_WIDTH,
            CHUNK_WIDTH + 1,
            3 * CHUNK_WIDTH + 17,
        ] {
            let chunks = chunk_count(n);
            let mut covered = 0usize;
            for c in 0..chunks {
                let r = chunk_range(c, n);
                assert_eq!(r.start, covered, "gap before chunk {c} at n={n}");
                assert!(r.len() <= CHUNK_WIDTH);
                assert!(!r.is_empty());
                covered = r.end;
            }
            assert_eq!(covered, n, "chunks must cover 0..{n}");
        }
    }

    #[test]
    fn results_arrive_in_chunk_order_at_every_thread_count() {
        let n = 5 * CHUNK_WIDTH + 123;
        let expected: Vec<(usize, usize)> = ParExec::sequential()
            .run_chunks(n, |c, r| (c, r.len()))
            .into_iter()
            .collect();
        for threads in [1usize, 2, 3, 8, 64] {
            let got = ParExec::new(threads).run_chunks(n, |c, r| (c, r.len()));
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn fold_is_left_to_right_in_chunk_order() {
        let n = 4 * CHUNK_WIDTH;
        // A non-commutative fold detects any deviation from chunk order.
        let seq = ParExec::sequential()
            .fold_chunks(
                n,
                |c, _| vec![c],
                |mut a, b| {
                    a.extend(b);
                    a
                },
            )
            .unwrap();
        assert_eq!(seq, vec![0, 1, 2, 3]);
        let par = ParExec::new(4)
            .fold_chunks(
                n,
                |c, _| vec![c],
                |mut a, b| {
                    a.extend(b);
                    a
                },
            )
            .unwrap();
        assert_eq!(par, seq);
        assert_eq!(ParExec::new(4).fold_chunks(0, |c, _| c, |a, _| a), None);
    }

    #[test]
    fn every_chunk_runs_exactly_once_in_parallel() {
        let n = 16 * CHUNK_WIDTH;
        let calls = AtomicU64::new(0);
        let out = ParExec::new(8).run_chunks(n, |c, _| {
            calls.fetch_add(1, Ordering::Relaxed);
            c
        });
        assert_eq!(calls.load(Ordering::Relaxed), 16);
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn split_divides_the_thread_budget() {
        assert_eq!(ParExec::new(8).split(4).threads(), 2);
        assert_eq!(ParExec::new(8).split(3).threads(), 2);
        assert_eq!(ParExec::new(2).split(4).threads(), 1);
        assert_eq!(ParExec::new(1).split(0).threads(), 1);
        assert_eq!(ParExec::new(0).threads(), 1, "budget clamps to 1");
    }

    #[test]
    fn explicit_widths_respect_boundaries() {
        let got = ParExec::new(3).run_chunks_width(10, 4, |c, r| (c, r.start, r.end));
        assert_eq!(got, vec![(0, 0, 4), (1, 4, 8), (2, 8, 10)]);
    }

    #[test]
    fn pool_survives_many_back_to_back_scans() {
        // The persistent pool must hand back correct, ordered results across
        // repeated fan-outs (the per-query pattern: hundreds of scans reuse
        // the same long-lived workers).
        let n = 7 * CHUNK_WIDTH + 11;
        let expected: Vec<usize> = ParExec::sequential().run_chunks(n, |_, r| r.len());
        for _ in 0..50 {
            assert_eq!(ParExec::new(4).run_chunks(n, |_, r| r.len()), expected);
        }
    }

    #[test]
    fn nested_fan_out_does_not_deadlock() {
        // An outer scan whose chunk closures themselves fan out, three deep
        // (a portfolio race inside a caller's fan-out, a branch-and-bound
        // batch inside the race): inner jobs may find every pool worker busy,
        // in which case their callers drain the chunks alone. Results stay
        // ordered at every level.
        let outer = 4 * CHUNK_WIDTH;
        let got = ParExec::new(4).run_chunks(outer, |c, _| {
            let inner: usize = ParExec::new(4)
                .run_chunks_width(3, 1, |ic, _| {
                    let innermost = ParExec::new(8).run_chunks_width(5, 1, |iic, _| iic);
                    assert_eq!(innermost, vec![0, 1, 2, 3, 4]);
                    ic
                })
                .into_iter()
                .sum();
            (c, inner)
        });
        let want: Vec<(usize, usize)> = (0..4).map(|c| (c, 3)).collect();
        assert_eq!(got, want);
    }
}
