//! Branch and bound for mixed-integer problems.
//!
//! The MILP layer drives the LP relaxation solver of [`crate::simplex`]:
//! each node tightens the bounds of one integer variable (floor/ceil of its
//! fractional relaxation value). One [`LpMatrix`] is built per MILP solve and
//! shared by every job; a job checks an [`LpWorkspace`] over it out of the
//! solve's idle list for as long as it runs. A
//! node's bounds are its ancestors' patch chain laid over the workspace's
//! root bounds, its LP is **warm-started** from its parent's optimal basis,
//! and what comes back is compact — status, objective, the branching
//! variable picked from the (at most `m`) basic values, and the nonzero
//! values only when the relaxation is an incumbent candidate. A node costs a
//! few dual-simplex pivots and nothing proportional to the variable count
//! beyond them.
//!
//! # A job is the expansion of a node
//!
//! The two children of a node are not two LPs that happen to be alike. The
//! branching variable is fractional in the parent's optimum, hence basic in
//! the basis both children warm-start from, and a basic column's bounds enter
//! nothing a solve computes before its first pivot except the direction that
//! variable is pushed in: not the right-hand side, not the basis inverse, the
//! basic values, the duals, the pivot row or a single reduced cost. Siblings
//! **share everything a basic column's bound cannot change**, so the unit of
//! work is the expansion of one popped node
//! ([`LpWorkspace::solve_children`]): the job lays the node's chain,
//! installs and refactorizes its basis and evaluates the first dual ratio
//! test for both directions once, solves the down child, restores the
//! checkpointed inverse and solves the up child. Each child's result is,
//! bit for bit, what a solve of its own would return.
//!
//! # Deterministic parallel exploration
//!
//! Nodes are explored best-bound-first in **fixed-size batches** of
//! `NODE_BATCH` child LPs: the search pops frontier nodes in heap order,
//! makes each an expansion job, runs the jobs as one width-1 fan-out on the
//! [`ParExec`] executor (on up to [`SolverConfig::num_threads`] threads — the
//! same persistent pool as the engine's data-parallel scans, nothing is
//! spawned per solve — once the LP's matrix holds at least one
//! [`CHUNK_WIDTH`] of coefficients, enough to pay for a hand-off), and
//! merges the results — children pushed, incumbents
//! updated, bounds pruned — **in job order**, down before up. Batch
//! composition and merge order never depend on the thread count (the
//! executor's chunk-order discipline), so the same problem + config yields
//! bit-identical solutions, node counts and iteration counts at every
//! `num_threads`, including 1, where the executor runs the batch inline. A
//! node budget that runs out between the two children of a node leaves a
//! one-child expansion.
//!
//! Each node stores its **own** LP relaxation bound (solved eagerly when the
//! node is created), so best-bound ordering and incumbent pruning use the
//! tight child bound rather than the parent's. When a limit stops the search,
//! [`Solution::gap`] is measured against the best bound of *every* open
//! subtree: the heap's top and the parents of jobs the limit left unsolved
//! or unmerged.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};

use crate::par::{ParExec, CHUNK_WIDTH};
use crate::problem::{Problem, Sense, VarType};
use crate::simplex::{densify, Basis, LpMatrix, LpWorkspace, NodeLp, TOLERANCE};
use crate::solution::{Solution, Status};
use crate::{LpError, LpResult, SolverConfig};

/// Integrality tolerance: a value within this distance of an integer is
/// considered integral.
const INT_TOLERANCE: f64 = 1e-6;

/// Absolute slack within which a rounded integral point must satisfy every
/// row and bound to become (or seed) the incumbent. A row that must exclude
/// its own bound, as a strict comparison's does, has to sit further off it
/// than this.
pub const INCUMBENT_TOLERANCE: f64 = TOLERANCE * 100.0;

/// Number of child LPs gathered into one frontier batch (half as many
/// expansions). A fixed constant —
/// never derived from the thread count — because batch boundaries are part
/// of the determinism contract: they decide which nodes are solved before
/// the incumbent can prune, and therefore the node count.
const NODE_BATCH: usize = 16;

/// The threads a batch of jobs fans out on: the caller's budget (at most
/// `NODE_BATCH`, the widest a batch can use) when one pricing pass over the
/// LP's matrix — `rows × columns` coefficients — touches at least one
/// [`CHUNK_WIDTH`] of them, else one. Below that a node LP solves in
/// microseconds and handing it to a pool worker costs more than it saves.
/// The LP's size, never the thread count, decides, and batches merge in
/// job order either way, so the gate cannot change a result.
fn batch_threads(rows: usize, cols: usize, num_threads: usize) -> usize {
    if rows.saturating_mul(cols) >= CHUNK_WIDTH {
        num_threads.clamp(1, NODE_BATCH)
    } else {
        1
    }
}

/// One branching decision: variable `var` was clamped to `[lb, ub]`.
///
/// A node's bounds are the root bounds patched by its ancestor chain
/// (nearest patch wins); the chain is handed to [`LpWorkspace::solve`] as an
/// overlay and never expanded into a bound vector. Storing deltas keeps a
/// frontier node to a few dozen bytes, which is what lets the heap hold
/// thousands of nodes on 20 000-variable package ILPs.
struct BoundPatch {
    var: usize,
    lb: f64,
    ub: f64,
    parent: Option<Arc<BoundPatch>>,
}

/// The effective bounds of `var` under a patch chain.
fn effective_bounds(
    root: &[(f64, f64)],
    chain: &Option<Arc<BoundPatch>>,
    var: usize,
) -> (f64, f64) {
    let mut cur = chain.as_deref();
    while let Some(p) = cur {
        if p.var == var {
            return (p.lb, p.ub);
        }
        cur = p.parent.as_deref();
    }
    root[var]
}

/// The chain as [`LpWorkspace::solve`] wants it: nearest patch first.
fn overlay(chain: &Option<Arc<BoundPatch>>) -> impl Iterator<Item = (usize, f64, f64)> + '_ {
    std::iter::successors(chain.as_deref(), |p| p.parent.as_deref()).map(|p| (p.var, p.lb, p.ub))
}

/// A frontier node whose LP relaxation has already been solved (eager
/// bounds: the heap orders by each node's *own* relaxation bound).
struct Node {
    chain: Option<Arc<BoundPatch>>,
    /// This node's own LP relaxation bound as a normalized "larger is
    /// better" key.
    bound: f64,
    depth: u32,
    /// Creation order; the final tie-break that makes the heap order total
    /// and therefore reproducible.
    seq: u64,
    /// Most fractional integer variable of this node's relaxation.
    branch_var: usize,
    /// Its relaxation value (branching splits at floor/ceil of this).
    branch_val: f64,
    /// Parent basis for warm-starting the children, shared by both.
    basis: Option<Arc<Basis>>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
/// Max-heap: best bound first, then deeper (finds incumbents faster), then
/// earlier creation. `total_cmp` keeps the order total even if a bound is
/// NaN (it then sorts consistently instead of corrupting the heap).
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound
            .total_cmp(&other.bound)
            .then_with(|| self.depth.cmp(&other.depth))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The expansion of one popped node: the child LPs still to solve, which
/// share the node's patch chain and its basis to warm-start from and differ
/// in the bounds of the branching variable alone — see
/// [`LpWorkspace::solve_children`] for what a job makes of that.
struct Job {
    /// The popped node's own chain.
    chain: Option<Arc<BoundPatch>>,
    warm: Option<Arc<Basis>>,
    /// Depth of the LPs this job solves.
    depth: u32,
    /// The popped node's bound key: what is known about its subtrees until
    /// their own LPs have been solved *and merged*.
    parent_bound: f64,
    /// `None` is the root job: one LP, the chain as it stands.
    branch: Option<Branch>,
}

/// The branching variable of an expansion and its `(lb, ub)` in each of the
/// first `len` child LPs, down before up.
#[derive(Clone, Copy)]
struct Branch {
    var: usize,
    bounds: [(f64, f64); 2],
    len: usize,
}

impl Branch {
    fn push(&mut self, bounds: (f64, f64)) {
        self.bounds[self.len] = bounds;
        self.len += 1;
    }
}

impl Job {
    /// LPs this job solves.
    fn lps(&self) -> usize {
        self.branch.map_or(1, |b| b.len)
    }

    /// The patch chain of the job's `k`-th LP.
    fn chain_of(&self, k: usize) -> Option<Arc<BoundPatch>> {
        let Some(branch) = self.branch else {
            return self.chain.clone();
        };
        let (lb, ub) = branch.bounds[k];
        Some(Arc::new(BoundPatch {
            var: branch.var,
            lb,
            ub,
            parent: self.chain.clone(),
        }))
    }
}

/// What a job reports about one solved node LP.
struct NodeOutcome {
    status: Status,
    objective: f64,
    iterations: usize,
    /// Most fractional integer variable and its relaxation value; `None`
    /// when the relaxation is integral (or not optimal).
    branch: Option<(usize, f64)>,
    /// The relaxation solution's [`LpWorkspace::nonzero_values`], present
    /// exactly when the merge may need it: an integral optimum (incumbent
    /// candidate) or an unbounded ray. The merging thread lays it out
    /// densely.
    values: Option<Vec<(usize, f64)>>,
    basis: Option<Basis>,
    /// The LP ended in the cold two-phase path.
    cold: bool,
}

/// One result per LP of a job, in the job's order.
type JobResult = Vec<LpResult<NodeOutcome>>;

/// What every job of one MILP solve shares.
struct Shared<'a> {
    problem: &'a Problem,
    config: &'a SolverConfig,
    matrix: &'a LpMatrix,
    root_bounds: &'a [(f64, f64)],
    /// On [`batch_threads`] of the LP's size and the caller's budget.
    par: ParExec,
    /// Workspaces no job is using. They belong to this solve alone (a
    /// workspace borrows this solve's matrix). The calling thread builds
    /// them, one per job a batch can run at once ([`solve_batch`]), so a
    /// pool worker allocates nothing proportional to `n`: what a worker
    /// allocates lands in its own allocator arena, which holds on to it
    /// after the solve. A solve that ends at its root builds one.
    idle: Mutex<Vec<LpWorkspace<'a>>>,
}

/// The most fractional integer variable among the basic values of a
/// relaxation (values nearest `.5` first, ties to the lowest index). Only a
/// basic variable can be fractional: a nonbasic integer variable rests on a
/// bound, and integer bounds are integral (rounded inwards at the root,
/// floor/ceil at every branch).
pub(crate) fn branch_variable(problem: &Problem, basics: &[(usize, f64)]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64, f64)> = None; // (variable, value, score)
    for &(i, v) in basics {
        if problem.variables()[i].ty != VarType::Integer {
            continue;
        }
        let frac = (v - v.round()).abs();
        if frac > INT_TOLERANCE {
            let dist_to_half = (v - v.floor() - 0.5).abs();
            let score = 0.5 - dist_to_half;
            if best.map(|(_, _, s)| score > s).unwrap_or(true) {
                best = Some((i, v, score));
            }
        }
    }
    best.map(|(i, v, _)| (i, v))
}

/// Solves the LP relaxations of one job. Pure function of (shared, job) —
/// the determinism guarantee leans on this: every solve of an
/// [`LpWorkspace`] first undoes whatever the previous one touched, so *which*
/// workspace solves a job never affects the result.
fn solve_job(shared: &Shared<'_>, job: &Job, ws: &mut LpWorkspace<'_>) -> JobResult {
    let outcome = |ws: &LpWorkspace<'_>, lp: NodeLp| {
        let branch = branch_variable(shared.problem, &lp.basics);
        let values = match lp.status {
            Status::Unbounded => Some(ws.nonzero_values()),
            Status::Optimal if branch.is_none() => Some(ws.nonzero_values()),
            _ => None,
        };
        NodeOutcome {
            status: lp.status,
            objective: lp.objective,
            iterations: lp.iterations,
            branch,
            values,
            basis: lp.basis,
            cold: lp.cold,
        }
    };
    let (chain, warm) = (overlay(&job.chain), job.warm.as_deref());
    match &job.branch {
        None => {
            let lp = ws.solve(chain, warm, shared.config);
            vec![lp.map(|lp| outcome(ws, lp))]
        }
        Some(b) => ws.solve_children(
            chain,
            warm,
            b.var,
            &b.bounds[..b.len],
            shared.config,
            outcome,
        ),
    }
}

/// [`solve_job`] with a panic guard: a panic becomes a numerical error
/// instead of unwinding through the executor. `AssertUnwindSafe` is sound for
/// the workspace because every solve starts by restoring every column a
/// previous (even panicked) call touched — the dirty list names a column
/// before the column changes.
fn run_job(shared: &Shared<'_>, job: &Job, ws: &mut LpWorkspace<'_>) -> JobResult {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| solve_job(shared, job, ws)))
        .unwrap_or_else(|_| {
            let panicked = || Err(LpError::Numerical("panic while solving node LP".into()));
            (0..job.lps()).map(|_| panicked()).collect()
        })
}

/// Runs one batch: one executor job per expansion, results in job order no
/// matter which thread solved what. The calling thread first tops the idle
/// list up to as many workspaces as the batch can run at once; a job
/// borrows one (building one should none be free) and hands it back, so
/// workspaces survive across batches.
fn solve_batch(shared: &Shared<'_>, jobs: &[Job]) -> Vec<JobResult> {
    {
        let mut idle = shared.idle.lock().unwrap();
        let live = shared.par.threads().min(jobs.len());
        while idle.len() < live {
            idle.push(LpWorkspace::new(shared.matrix, shared.root_bounds));
        }
    }
    shared.par.run_chunks_width(jobs.len(), 1, |i, _| {
        let idle = shared.idle.lock().unwrap().pop();
        let mut ws = idle.unwrap_or_else(|| LpWorkspace::new(shared.matrix, shared.root_bounds));
        let result = run_job(shared, &jobs[i], &mut ws);
        shared.idle.lock().unwrap().push(ws);
        result
    })
}

/// Normalizes "better objective" to the problem's sense.
fn obj_better(problem: &Problem, a: f64, b: f64) -> bool {
    match problem.sense() {
        Sense::Maximize => a > b + 1e-12,
        Sense::Minimize => a < b - 1e-12,
    }
}

/// Normalizes an objective to a "larger is better" bound key.
fn key_of(problem: &Problem, obj: f64) -> f64 {
    match problem.sense() {
        Sense::Maximize => obj,
        Sense::Minimize => -obj,
    }
}

fn better_key(a: f64, b: f64) -> bool {
    a > b + 1e-12
}

/// True when every variable with a nonzero objective coefficient is integer
/// with an integral coefficient: the MILP objective can then only take
/// integral values, so an LP relaxation bound can be **rounded towards the
/// incumbent** (floored, in "larger is better" key space) before pruning.
/// On objectives with many ties — the norm for package queries over
/// rounded attribute data — this is what lets the search stop as soon as an
/// incumbent matches the rounded bound instead of exhausting thousands of
/// fractional nodes that could never beat it by a whole unit.
fn objective_is_integral(problem: &Problem) -> bool {
    problem
        .variables()
        .iter()
        .zip(problem.objective())
        .all(|(v, &c)| c == 0.0 || (v.ty == VarType::Integer && c.round() == c))
}

/// Rounds a "larger is better" bound key towards the incumbent when the
/// objective is integral (no-op otherwise).
fn round_key(key: f64, integral: bool) -> f64 {
    if integral {
        (key + 1e-6).floor()
    } else {
        key
    }
}

/// Mutable search state threaded through the merge step.
struct SearchState {
    heap: BinaryHeap<Node>,
    incumbent: Option<Solution>,
    total_iterations: usize,
    nodes: usize,
    cold_solves: usize,
    next_seq: u64,
    /// The objective can only take integral values (see
    /// [`objective_is_integral`]); bounds are rounded before pruning.
    integral_obj: bool,
    /// Best bound key among subtrees a limit removed from the heap without
    /// exploring them: jobs dropped from a truncated batch and jobs whose
    /// results an interrupt left unmerged. Their parents were popped, so the
    /// heap no longer vouches for them.
    lost_bound: Option<f64>,
}

impl SearchState {
    /// Records that a subtree of `job` stays unexplored.
    fn lose(&mut self, job: &Job) {
        let best = self.lost_bound.unwrap_or(f64::NEG_INFINITY);
        self.lost_bound = Some(best.max(job.parent_bound));
    }
}

/// What merging one solved LP decided.
enum Merged {
    /// Keep going (child pushed, incumbent updated, or node pruned/infeasible).
    Continue,
    /// The relaxation was unbounded: the MILP itself is unbounded.
    Unbounded(Solution),
}

/// Merges one solved relaxation — the `k`-th LP of `job` — into the search
/// state, in job order and within a job down before up. This is the *only*
/// place children are pushed and incumbents updated, which is what pins the
/// exploration sequence regardless of which thread solved the LP.
fn merge_one(
    problem: &Problem,
    int_vars: &[usize],
    st: &mut SearchState,
    (job, k): (&Job, usize),
    relax: NodeOutcome,
) -> Merged {
    st.nodes += 1;
    st.total_iterations += relax.iterations;
    st.cold_solves += usize::from(relax.cold);
    match relax.status {
        Status::Infeasible => return Merged::Continue,
        Status::Unbounded => {
            // An unbounded relaxation means the MILP itself is unbounded (if
            // any integer assignment is feasible) — report unbounded,
            // matching common solver behaviour.
            return Merged::Unbounded(Solution {
                status: Status::Unbounded,
                objective: relax.objective,
                values: densify(problem.num_vars(), &relax.values.unwrap_or_default()),
                iterations: st.total_iterations,
                nodes: st.nodes,
                cold_solves: st.cold_solves,
                gap: None,
            });
        }
        _ => {}
    }

    // Prune by bound: an incumbent merged earlier in this very batch prunes
    // later results (their LP was already solved and counted, exactly as at
    // one thread). The relaxation bound is rounded first when the objective
    // is integral — a fractional lead under one whole unit cannot yield a
    // better integer solution.
    let bound_key = round_key(key_of(problem, relax.objective), st.integral_obj);
    if let Some(inc) = &st.incumbent {
        if !better_key(bound_key, key_of(problem, inc.objective)) {
            return Merged::Continue;
        }
    }

    match (relax.branch, relax.values) {
        (Some((branch_var, branch_val)), _) => {
            st.heap.push(Node {
                chain: job.chain_of(k),
                bound: bound_key,
                depth: job.depth,
                seq: st.next_seq,
                branch_var,
                branch_val,
                basis: relax.basis.map(Arc::new),
            });
            st.next_seq += 1;
        }
        (None, Some(nonzero)) => {
            // Integral solution: candidate incumbent.
            let mut values = densify(problem.num_vars(), &nonzero);
            for &i in int_vars {
                values[i] = values[i].round();
            }
            let obj = problem.objective_value(&values);
            if problem.is_feasible(&values, INCUMBENT_TOLERANCE)
                && st
                    .incumbent
                    .as_ref()
                    .map(|inc| obj_better(problem, obj, inc.objective))
                    .unwrap_or(true)
            {
                st.incumbent = Some(Solution {
                    status: Status::Optimal,
                    objective: obj,
                    values,
                    iterations: 0,
                    nodes: 0,
                    cold_solves: 0,
                    gap: None,
                });
            }
        }
        // `solve_job` attaches the values to every integral optimum.
        (None, None) => {}
    }
    Merged::Continue
}

/// Assembles the final solution (status, counters, gap) from the search
/// state.
fn finish(
    problem: &Problem,
    mut st: SearchState,
    limit_hit: bool,
    interrupted: bool,
) -> LpResult<Solution> {
    match st.incumbent.take() {
        Some(mut sol) => {
            sol.iterations = st.total_iterations;
            sol.nodes = st.nodes;
            sol.cold_solves = st.cold_solves;
            if limit_hit {
                sol.status = Status::LimitReached;
                // The heap is ordered by bound, so its top is the best bound
                // still *in* the heap; subtrees the limit cut loose answer
                // through `lost_bound`. The incumbent is within `gap` of
                // optimal.
                let inc_key = key_of(problem, sol.objective);
                let best_open = match (st.heap.peek(), st.lost_bound) {
                    (Some(top), Some(lost)) => top.bound.max(lost),
                    (Some(top), None) => top.bound,
                    (None, Some(lost)) => lost,
                    (None, None) => inc_key,
                };
                sol.gap = Some((best_open - inc_key).max(0.0) / (1.0 + inc_key.abs()));
            } else {
                sol.status = Status::Optimal;
                sol.gap = Some(0.0);
            }
            Ok(sol)
        }
        None => {
            if interrupted {
                Err(LpError::Interrupted)
            } else if limit_hit {
                Err(LpError::NodeLimit)
            } else {
                Ok(Solution {
                    status: Status::Infeasible,
                    objective: f64::NAN,
                    values: Vec::new(),
                    iterations: st.total_iterations,
                    nodes: st.nodes,
                    cold_solves: st.cold_solves,
                    gap: None,
                })
            }
        }
    }
}

/// Solves a mixed-integer linear program by LP-relaxation branch and bound.
pub fn solve_milp(problem: &Problem, config: &SolverConfig) -> LpResult<Solution> {
    solve_milp_hinted(problem, config, None)
}

/// [`solve_milp`] with an optional feasibility *hint*: a candidate integer
/// assignment (for example a cached partition solution from a previous
/// query) that, when feasible, seeds the incumbent so bound pruning bites
/// from the very first batch. A malformed or infeasible hint is silently
/// ignored. The hint never changes the optimal objective value — it is a
/// lower bound on solution quality, not a constraint — but it can change
/// which of several tie-optimal assignments is returned, so callers that
/// need reproducibility must supply the hint deterministically.
pub fn solve_milp_hinted(
    problem: &Problem,
    config: &SolverConfig,
    hint: Option<&[f64]>,
) -> LpResult<Solution> {
    let matrix = LpMatrix::new(problem)?;

    let int_vars: Vec<usize> = problem
        .variables()
        .iter()
        .enumerate()
        .filter(|(_, v)| v.ty == VarType::Integer)
        .map(|(i, _)| i)
        .collect();

    let root_bounds: Vec<(f64, f64)> = problem
        .variables()
        .iter()
        .map(|v| {
            // Integer variables can have their bounds rounded inwards right away.
            if v.ty == VarType::Integer {
                (v.lb.ceil(), v.ub.floor())
            } else {
                (v.lb, v.ub)
            }
        })
        .collect();
    let shared = Shared {
        problem,
        config,
        matrix: &matrix,
        root_bounds: &root_bounds,
        par: ParExec::new(batch_threads(
            matrix.rows(),
            matrix.cols(),
            config.num_threads,
        )),
        idle: Mutex::new(Vec::new()),
    };
    search(&shared, hint, &int_vars)
}

/// The batched best-bound search loop: everything that decides *what* is
/// solved and *how results merge*.
fn search(shared: &Shared<'_>, hint: Option<&[f64]>, int_vars: &[usize]) -> LpResult<Solution> {
    let (problem, config, root_bounds) = (shared.problem, shared.config, shared.root_bounds);
    let mut st = SearchState {
        heap: BinaryHeap::new(),
        incumbent: None,
        total_iterations: 0,
        nodes: 0,
        cold_solves: 0,
        next_seq: 0,
        integral_obj: objective_is_integral(problem),
        lost_bound: None,
    };
    let mut limit_hit = false;
    // Distinguishes a cooperative stop (deadline/cancellation) from an
    // exhausted node budget when no incumbent exists to return.
    let mut interrupted = false;

    // Seed the incumbent from the hint, if it checks out.
    if let Some(h) = hint {
        if h.len() == problem.num_vars() {
            let mut values = h.to_vec();
            for &i in int_vars {
                values[i] = values[i].round();
            }
            if problem.is_feasible(&values, INCUMBENT_TOLERANCE) {
                let objective = problem.objective_value(&values);
                st.incumbent = Some(Solution {
                    status: Status::Optimal,
                    objective,
                    values,
                    iterations: 0,
                    nodes: 0,
                    cold_solves: 0,
                    gap: None,
                });
            }
        }
    }

    // ---- Root node ----
    let root_job = Job {
        chain: None,
        warm: None,
        depth: 0,
        // Nothing bounds the root until its own relaxation is merged.
        parent_bound: f64::INFINITY,
        branch: None,
    };
    let root_res = solve_batch(shared, std::slice::from_ref(&root_job))
        .pop()
        .and_then(|mut lps| lps.pop())
        .ok_or_else(|| LpError::Numerical("batch solver returned no result for the root".into()))?;
    match root_res {
        Err(LpError::Interrupted) => {
            st.lose(&root_job);
            return finish(problem, st, true, true);
        }
        Err(e) => return Err(e),
        Ok(relax) => {
            if let Merged::Unbounded(sol) =
                merge_one(problem, int_vars, &mut st, (&root_job, 0), relax)
            {
                return Ok(sol);
            }
        }
    }

    // ---- Batched frontier loop ----
    'outer: while !st.heap.is_empty() {
        if st.nodes >= config.max_nodes {
            limit_hit = true;
            break;
        }
        if config.interrupted() {
            limit_hit = true;
            interrupted = true;
            break;
        }
        // Best-bound termination: the heap is bound-ordered, so if the top
        // cannot beat the incumbent, no open node can.
        if let Some(inc) = &st.incumbent {
            if let Some(top) = st.heap.peek() {
                if !better_key(top.bound, key_of(problem, inc.objective)) {
                    st.heap.clear();
                    break;
                }
            }
        }

        // Gather one batch of expansions in deterministic heap order.
        let mut jobs: Vec<Job> = Vec::with_capacity(NODE_BATCH / 2);
        let mut lps = 0;
        while lps + 2 <= NODE_BATCH {
            let Some(node) = st.heap.pop() else { break };
            // Prune at pop: the incumbent may have improved since the push.
            if let Some(inc) = &st.incumbent {
                if !better_key(node.bound, key_of(problem, inc.objective)) {
                    continue;
                }
            }
            let (lb, ub) = effective_bounds(root_bounds, &node.chain, node.branch_var);
            let v = node.branch_val;
            let down = v.floor();
            let up = v.ceil();
            let mut branch = Branch {
                var: node.branch_var,
                bounds: [(0.0, 0.0); 2],
                len: 0,
            };
            if down >= lb - 1e-9 {
                branch.push((lb, down));
            }
            if up <= ub + 1e-9 {
                branch.push((up, ub));
            }
            if branch.len == 0 {
                continue;
            }
            lps += branch.len;
            jobs.push(Job {
                chain: node.chain,
                warm: node.basis,
                depth: node.depth + 1,
                parent_bound: node.bound,
                branch: Some(branch),
            });
        }
        if jobs.is_empty() {
            continue;
        }
        // Never start more LPs than the node budget allows, so the node
        // count at which the limit trips is thread-independent. A cut between
        // the two children of a node leaves a one-child expansion.
        let mut room = config.max_nodes.saturating_sub(st.nodes);
        for job in &mut jobs {
            if job.lps() > room {
                st.lose(job);
                limit_hit = true;
                if let Some(branch) = &mut job.branch {
                    branch.len = room;
                }
            }
            room -= job.lps();
        }
        jobs.retain(|job| job.lps() > 0);

        let results = solve_batch(shared, &jobs);
        for (idx, (job, lps)) in jobs.iter().zip(results).enumerate() {
            for (k, res) in lps.into_iter().enumerate() {
                match res {
                    Err(LpError::Interrupted) => {
                        // An interrupted relaxation is a limit, not a
                        // failure: keep the incumbent found so far. This LP
                        // and every later one of the batch stay unexplored.
                        for unmerged in &jobs[idx..] {
                            st.lose(unmerged);
                        }
                        limit_hit = true;
                        interrupted = true;
                        break 'outer;
                    }
                    Err(e) => return Err(e),
                    Ok(relax) => {
                        if let Merged::Unbounded(sol) =
                            merge_one(problem, int_vars, &mut st, (job, k), relax)
                        {
                            return Ok(sol);
                        }
                    }
                }
            }
        }
    }

    finish(problem, st, limit_hit, interrupted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ConstraintOp, Problem, Sense, VarType};

    fn cfg() -> SolverConfig {
        SolverConfig::default()
    }

    #[test]
    fn knapsack_small() {
        // maximize 10a + 6b + 4c s.t. a+b+c <= 2, 5a+4b+3c <= 7, binary
        let mut p = Problem::new(Sense::Maximize);
        let a = p.add_binary("a");
        let b = p.add_binary("b");
        let c = p.add_binary("c");
        p.set_objective_coeff(a, 10.0);
        p.set_objective_coeff(b, 6.0);
        p.set_objective_coeff(c, 4.0);
        p.add_constraint_terms(
            "count",
            &[(a, 1.0), (b, 1.0), (c, 1.0)],
            ConstraintOp::Le,
            2.0,
        );
        p.add_constraint_terms(
            "weight",
            &[(a, 5.0), (b, 4.0), (c, 3.0)],
            ConstraintOp::Le,
            7.0,
        );
        let s = solve_milp(&p, &cfg()).unwrap();
        assert!(s.status.is_optimal());
        // Integer optimum is 10, attained either by {a} (weight 5) or {b, c}
        // (weight 7); {a, b} and {a, c} both violate the weight limit.
        assert_eq!(s.objective.round() as i64, 10);
        assert!(p.is_feasible(&s.values, 1e-6));
        assert_eq!(s.gap, Some(0.0));
        let _ = (a, b, c);
    }

    #[test]
    fn integer_rounding_matters_vs_relaxation() {
        // maximize x s.t. 2x <= 7, x integer → 3 (relaxation 3.5)
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", VarType::Integer, 0.0, 100.0);
        p.set_objective_coeff(x, 1.0);
        p.add_constraint_terms("c", &[(x, 2.0)], ConstraintOp::Le, 7.0);
        let s = solve_milp(&p, &cfg()).unwrap();
        assert_eq!(s.objective.round() as i64, 3);
    }

    #[test]
    fn infeasible_integer_problem() {
        // 0.4 <= x <= 0.6, x integer → infeasible
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", VarType::Integer, 0.0, 1.0);
        p.set_objective_coeff(x, 1.0);
        p.add_constraint_terms("lo", &[(x, 1.0)], ConstraintOp::Ge, 0.4);
        p.add_constraint_terms("hi", &[(x, 1.0)], ConstraintOp::Le, 0.6);
        let s = solve_milp(&p, &cfg()).unwrap();
        assert_eq!(s.status, Status::Infeasible);
    }

    #[test]
    fn equality_cardinality_like_package_queries() {
        // Exactly 3 items, total calories in [2000, 2500], maximize protein.
        let cal = [800.0, 700.0, 650.0, 400.0, 950.0, 300.0];
        let pro = [40.0, 30.0, 25.0, 20.0, 45.0, 10.0];
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..6).map(|i| p.add_binary(format!("t{i}"))).collect();
        for (i, &v) in vars.iter().enumerate() {
            p.set_objective_coeff(v, pro[i]);
        }
        let ones: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        let cals: Vec<_> = vars.iter().enumerate().map(|(i, &v)| (v, cal[i])).collect();
        p.add_constraint_terms("count", &ones, ConstraintOp::Eq, 3.0);
        p.add_constraint_terms("cal_lo", &cals, ConstraintOp::Ge, 2000.0);
        p.add_constraint_terms("cal_hi", &cals, ConstraintOp::Le, 2500.0);
        let s = solve_milp(&p, &cfg()).unwrap();
        assert!(s.status.is_optimal());
        let picked: Vec<usize> = s.nonzero_rounded().iter().map(|(i, _)| *i).collect();
        assert_eq!(picked.len(), 3);
        let total_cal: f64 = picked.iter().map(|&i| cal[i]).sum();
        assert!((2000.0..=2500.0).contains(&total_cal));
        // Best combination: {0, 1, 4} = 2450 cal, 115 protein.
        assert_eq!(s.objective.round() as i64, 115);
    }

    #[test]
    fn repeat_bounds_allow_multiplicities() {
        // One item repeated up to 3 times: maximize 5x s.t. 700x <= 2300.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", VarType::Integer, 0.0, 3.0);
        p.set_objective_coeff(x, 5.0);
        p.add_constraint_terms("cal", &[(x, 700.0)], ConstraintOp::Le, 2300.0);
        let s = solve_milp(&p, &cfg()).unwrap();
        assert_eq!(s.value_rounded(x), 3);
    }

    #[test]
    fn minimization_sense() {
        // minimize 3a + 2b s.t. a + b >= 2, binary → a+b>=2 forces both.
        let mut p = Problem::new(Sense::Minimize);
        let a = p.add_binary("a");
        let b = p.add_binary("b");
        p.set_objective_coeff(a, 3.0);
        p.set_objective_coeff(b, 2.0);
        p.add_constraint_terms("cover", &[(a, 1.0), (b, 1.0)], ConstraintOp::Ge, 2.0);
        let s = solve_milp(&p, &cfg()).unwrap();
        assert_eq!(s.objective.round() as i64, 5);
    }

    #[test]
    fn node_limit_without_incumbent_errors() {
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..12).map(|i| p.add_binary(format!("x{i}"))).collect();
        for &v in &vars {
            p.set_objective_coeff(v, 1.0);
        }
        // A constraint that forces heavy branching: sum of 0.5-ish weights equal
        // to a value reachable only by specific subsets.
        let terms: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, 1.0 + 0.01 * i as f64))
            .collect();
        p.add_constraint_terms("tight", &terms, ConstraintOp::Eq, 3.03);
        let mut c = cfg();
        c.max_nodes = 1;
        let r = solve_milp(&p, &c);
        // With a single node we cannot even evaluate a leaf; depending on the
        // relaxation we either error with NodeLimit or find nothing feasible.
        match r {
            Err(crate::LpError::NodeLimit) => {}
            Ok(s) => assert!(!s.status.is_optimal() || s.nodes <= 1),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn larger_binary_packing_is_consistent_with_exhaustive_check() {
        // 15 items; verify the B&B optimum equals brute force.
        let values = [
            7.0, 2.0, 9.0, 4.0, 6.0, 1.0, 8.0, 3.0, 5.0, 2.5, 7.5, 4.5, 6.5, 3.5, 1.5,
        ];
        let weights = [
            3.0, 1.0, 4.0, 2.0, 3.0, 1.0, 4.0, 2.0, 3.0, 1.5, 3.5, 2.5, 3.0, 2.0, 1.0,
        ];
        let cap = 10.0;
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..15).map(|i| p.add_binary(format!("x{i}"))).collect();
        for (i, &v) in vars.iter().enumerate() {
            p.set_objective_coeff(v, values[i]);
        }
        let terms: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, weights[i]))
            .collect();
        p.add_constraint_terms("cap", &terms, ConstraintOp::Le, cap);
        let s = solve_milp(&p, &cfg()).unwrap();

        // Brute force.
        let mut best = 0.0f64;
        for mask in 0u32..(1 << 15) {
            let mut w = 0.0;
            let mut v = 0.0;
            for i in 0..15 {
                if mask & (1 << i) != 0 {
                    w += weights[i];
                    v += values[i];
                }
            }
            if w <= cap && v > best {
                best = v;
            }
        }
        assert!(
            (s.objective - best).abs() < 1e-6,
            "solver found {}, brute force found {}",
            s.objective,
            best
        );
    }

    /// Builds a branching-heavy 24-variable knapsack (coprime-ish weights and
    /// a tight capacity keep the LP relaxation fractional: ~240 nodes).
    fn branching_heavy() -> Problem {
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..24).map(|i| p.add_binary(format!("x{i}"))).collect();
        for (i, &v) in vars.iter().enumerate() {
            p.set_objective_coeff(v, ((i * 13) % 17) as f64 + 0.5 * ((i % 3) as f64));
        }
        let w: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, 3.0 + ((i * 11) % 13) as f64))
            .collect();
        p.add_constraint_terms("cap", &w, ConstraintOp::Le, 47.0);
        p
    }

    fn assert_bit_identical(s: &Solution, reference: &Solution, context: &str) {
        assert_eq!(s.status, reference.status, "{context}");
        assert_eq!(
            s.objective.to_bits(),
            reference.objective.to_bits(),
            "{context}"
        );
        assert_eq!(s.values, reference.values, "{context}");
        assert_eq!(s.nodes, reference.nodes, "{context}");
        assert_eq!(s.iterations, reference.iterations, "{context}");
        assert_eq!(s.cold_solves, reference.cold_solves, "{context}");
    }

    /// An 11-item knapsack with a fractional capacity.
    fn small_knapsack() -> Problem {
        let values = [2.0, 5.0, 14.0, 18.0, 7.0, 20.0, 2.0, 16.0, 11.0, 5.0, 18.0];
        let weights = [2.0, 6.0, 6.0, 3.0, 5.0, 1.0, 9.0, 4.0, 3.0, 2.0, 4.0];
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..11).map(|i| p.add_binary(format!("x{i}"))).collect();
        for (i, &v) in vars.iter().enumerate() {
            p.set_objective_coeff(v, values[i]);
        }
        let terms: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, weights[i]))
            .collect();
        p.add_constraint_terms("cap", &terms, ConstraintOp::Le, 16.5);
        p
    }

    /// `cols` binaries under `rows` constraints of distinct linear forms.
    fn rows_by_cols(rows: usize, cols: usize) -> Problem {
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..cols).map(|i| p.add_binary(format!("x{i}"))).collect();
        for r in 0..rows {
            let terms: Vec<_> = vars.iter().map(|&v| (v, 1.0 + r as f64)).collect();
            p.add_constraint_terms(format!("r{r}"), &terms, ConstraintOp::Le, 2.0);
        }
        p
    }

    #[test]
    fn batches_fan_out_from_one_chunk_of_coefficients() {
        for (rows, cols, threads) in [
            (1, 4_095, 1),
            (1, 4_096, 8),
            (3, 1_365, 1),
            (4, 1_024, 8),
            (0, 10_000, 1),
        ] {
            let matrix = LpMatrix::new(&rows_by_cols(rows, cols)).unwrap();
            assert_eq!((matrix.rows(), matrix.cols()), (rows, cols));
            assert_eq!(
                batch_threads(matrix.rows(), matrix.cols(), 8),
                threads,
                "{rows} × {cols}"
            );
        }
        // The budget is capped at `NODE_BATCH` and is at least one thread.
        assert_eq!(batch_threads(1, 4_096, 64), NODE_BATCH);
        assert_eq!(batch_threads(1, 4_096, 0), 1);
    }

    /// `p` with fixed, unconstrained columns appended until its matrix
    /// fans out: the same search on a matrix past the gate.
    fn wide(mut p: Problem) -> Problem {
        let pad = CHUNK_WIDTH.div_ceil(p.num_constraints()) - p.num_vars();
        for i in 0..pad {
            p.add_var(format!("pad{i}"), VarType::Continuous, 0.0, 0.0);
        }
        p
    }

    #[test]
    fn thread_counts_are_bit_identical() {
        let p = wide(branching_heavy());
        let reference = solve_milp(&p, &cfg()).unwrap();
        assert!(reference.status.is_optimal());
        // The root has no basis to start from; its descendants here all
        // repair their parent's.
        assert_eq!(reference.cold_solves, 1);
        // A second problem of another shape (11 items against 24).
        let q = wide(small_knapsack());
        let q_reference = solve_milp(&q, &cfg()).unwrap();
        for threads in [2usize, 8] {
            let mut c = cfg();
            c.num_threads = threads;
            let s = solve_milp(&p, &c).unwrap();
            assert_bit_identical(&s, &reference, &format!("threads={threads}"));

            // Two solves at once, each from a caller thread of its own, their
            // batches interleaving on the one pool: a workspace is laid out
            // for its own solve's matrix, so one checked out by a job of the
            // first solve must never reach a job of the second.
            // Test-only threads: the callers must be two real threads, not
            // two jobs the pool may run one after the other.
            let start = std::sync::Barrier::new(2);
            #[allow(clippy::disallowed_methods)]
            std::thread::scope(|scope| {
                let first = scope.spawn(|| {
                    start.wait();
                    for round in 0..4 {
                        let s = solve_milp(&p, &c).unwrap();
                        assert_bit_identical(&s, &reference, &format!("{threads}/{round}"));
                    }
                });
                start.wait();
                for round in 0..40 {
                    let s = solve_milp(&q, &c).unwrap();
                    assert_bit_identical(&s, &q_reference, &format!("{threads}/{round}"));
                }
                first.join().unwrap();
            });
        }
    }

    #[test]
    fn hint_seeds_incumbent_without_changing_the_optimum() {
        let p = branching_heavy();
        let cold = solve_milp(&p, &cfg()).unwrap();
        // Feasible hint: the optimum itself.
        let hinted = solve_milp_hinted(&p, &cfg(), Some(&cold.values)).unwrap();
        assert!(hinted.status.is_optimal());
        assert_eq!(hinted.objective.to_bits(), cold.objective.to_bits());
        assert!(
            hinted.nodes <= cold.nodes,
            "hinted explored {} nodes, cold {}",
            hinted.nodes,
            cold.nodes
        );
        // Garbage hints are ignored.
        let bad_len = solve_milp_hinted(&p, &cfg(), Some(&[1.0])).unwrap();
        assert_eq!(bad_len.objective.to_bits(), cold.objective.to_bits());
        let infeasible_hint = vec![1.0; p.num_vars()];
        let bad = solve_milp_hinted(&p, &cfg(), Some(&infeasible_hint)).unwrap();
        assert_eq!(bad.objective.to_bits(), cold.objective.to_bits());
    }

    #[test]
    fn gap_is_zero_when_proven_and_positive_when_cut_short() {
        let p = branching_heavy();
        let full = solve_milp(&p, &cfg()).unwrap();
        assert_eq!(full.gap, Some(0.0));
        // Tiny node budget with a feasible hint: the search stops early and
        // must report how far the best open bound still is.
        let greedy_hint = {
            // all-zeros is feasible for a pure packing problem
            vec![0.0; p.num_vars()]
        };
        let mut c = cfg();
        c.max_nodes = 2;
        let s = solve_milp_hinted(&p, &c, Some(&greedy_hint)).unwrap();
        assert_eq!(s.status, Status::LimitReached);
        let gap = s.gap.expect("limit-reached solves report a gap");
        assert!(gap > 0.0, "gap was {gap}");
    }

    /// Regression: a limit stop used to read the gap off the heap top alone.
    /// Jobs dropped by the node budget, and batch results an interrupt left
    /// unmerged, had already popped their parents, so their subtrees — which
    /// can hold the optimum — vanished from the best-open bound and the
    /// reported gap fell below the true one.
    #[test]
    fn gap_at_a_node_limit_never_understates_the_true_gap() {
        // On this knapsack the old gap came out 80 against a true 83 at
        // `max_nodes = 8`.
        let p = small_knapsack();
        let optimum = solve_milp(&p, &cfg()).unwrap().objective;
        // All-zeros is feasible for a pure packing problem, so every capped
        // solve has an incumbent to measure from.
        let hint = vec![0.0; p.num_vars()];
        let mut capped = 0;
        for max_nodes in 1..=64 {
            let mut c = cfg();
            c.max_nodes = max_nodes;
            let s = solve_milp_hinted(&p, &c, Some(&hint)).unwrap();
            let gap = s.gap.expect("MILP solves report a gap");
            let true_gap = (optimum - s.objective) / (1.0 + s.objective.abs());
            assert!(
                gap >= true_gap - 1e-12,
                "max_nodes={max_nodes}: reported gap {gap} < true gap {true_gap} \
                 (incumbent {}, optimum {optimum})",
                s.objective
            );
            capped += usize::from(s.status == Status::LimitReached);
        }
        assert!(capped >= 8, "only {capped} caps stopped the search early");
    }
}
