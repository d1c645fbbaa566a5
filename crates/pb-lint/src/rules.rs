//! The rule registry: every workspace invariant `pb-lint` enforces.
//!
//! Each rule encodes one determinism or soundness contract that the
//! architecture section of `ROADMAP.md` states in prose. The registry
//! ([`registry`]) is the single source of truth — the CLI's `--list-rules`,
//! the fixture suite and the suppression machinery all iterate it.
//!
//! | id | invariant | scope |
//! |----|-----------|-------|
//! | [`no-hash-iteration`](NoHashIteration) | `HashMap`/`HashSet` iteration order is nondeterministic; iterating one in production code can leak that order into solver results. Keyed `get`/`insert`/`entry` access is fine. | production code |
//! | [`no-nan-unsafe-ordering`](NoNanUnsafeOrdering) | `partial_cmp` and the NaN-ignoring `f64::max`/`f64::min` fn refs silently reorder under NaN; comparisons must be `total_cmp`-based. | production code |
//! | [`thread-containment`](ThreadContainment) | All threading lives in `lp-solver/src/par.rs` — the one executor, whose chunk-order merge makes results thread-count-independent; the portfolio race and the B&B batches are jobs on it. | everywhere except tests |
//! | [`time-containment`](TimeContainment) | `Instant::now()` belongs to `budget.rs` (the cooperative deadline substrate); any other production site is reporting-only and must say so. | production code |
//! | [`unsafe-audit`](UnsafeAudit) | Every `unsafe` site carries a `SAFETY:` comment (or a `# Safety` doc section for `unsafe fn`). | everywhere |
//! | [`no-panic-in-solver-paths`](NoPanicInSolverPaths) | Solver-reachable code returns `PbError::Internal` instead of panicking; `Mutex`-poison `unwrap`s are exempt (poisoning only follows another panic). | solver paths, `crates/minidb/src`, `crates/paql/src` |
//! | [`no-fused-multiply-add`](NoFusedMultiplyAdd) | `mul_add`, the `_mm*_fmadd*`/`_mm*_fmsub*` intrinsics, a `target_feature` enabling `fma` and a `target-cpu=` flag all round `a * b + c` once where the gated kernels round twice, or host-dependently; either way the bits the identity gates compare move. | `crates/core`, `crates/lp-solver`, `crates/minidb` |
//!
//! A site that genuinely needs an exception carries an allow annotation
//! **with a written justification** on the flagged line or the comment
//! block directly above it:
//!
//! ```text
//! // pb-lint: allow(no-hash-iteration) — eviction takes min_by_key over
//! // unique stamps, so the result is iteration-order-independent.
//! ```
//!
//! Unjustified, unknown-rule and unused annotations are themselves findings
//! (warnings; errors under `--deny-warnings`), so the audit trail cannot
//! rot.

use crate::classify::FileClass;
use crate::lexer::{Line, Tok};

/// Severity of a finding. Rule violations are errors; annotation-hygiene
/// problems are warnings, promoted by `--deny-warnings` (the CI mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Warning,
    Error,
}

/// One rule violation (or annotation-hygiene warning) at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id, e.g. `no-hash-iteration`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    pub severity: Severity,
    /// What fired, with enough context to locate the construct.
    pub message: String,
    /// How to fix it (or how to annotate it away, justified).
    pub hint: &'static str,
}

/// Everything a rule sees about one file. Built once per file by the
/// engine; `norm` caches the per-line whitespace-stripped code channel that
/// the pattern helpers match on.
pub struct FileCtx<'a> {
    pub rel: &'a str,
    pub class: FileClass,
    pub lines: &'a [Line],
    /// Whitespace-stripped code per line (same indexing as `lines`).
    pub norm: &'a [String],
    /// Flat token stream (for rules that follow call chains across lines).
    pub toks: &'a [Tok],
    /// Per-line `#[cfg(test)]`-region mask.
    pub in_test: &'a [bool],
}

impl FileCtx<'_> {
    /// True when 1-based `line` is live production code (not a test region).
    pub fn live(&self, line: usize) -> bool {
        !self
            .in_test
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(false)
    }
}

/// One workspace invariant. See the [module docs](self) for the rule table.
pub trait Rule {
    /// Stable id used in findings and `pb-lint: allow(...)` annotations.
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules` and the README rule table.
    fn summary(&self) -> &'static str;
    /// Fix guidance attached to every finding.
    fn hint(&self) -> &'static str;
    /// Whether the rule runs on this file at all.
    fn applies(&self, ctx: &FileCtx) -> bool;
    /// Emits findings for this file.
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Finding>);
}

/// Builds the full rule set, in reporting order. This is the only place a
/// new rule needs registering.
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoHashIteration),
        Box::new(NoNanUnsafeOrdering),
        Box::new(ThreadContainment),
        Box::new(TimeContainment),
        Box::new(UnsafeAudit),
        Box::new(NoPanicInSolverPaths),
        Box::new(NoFusedMultiplyAdd),
    ]
}

/// Returns true when `haystack` contains `pat` starting/ending on an
/// identifier boundary (so `f64::max` does not match `my_f64::maximum`).
fn find_bounded(haystack: &str, pat: &str) -> Option<usize> {
    let pat_starts_ident = pat
        .chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_');
    let mut from = 0;
    while let Some(off) = haystack[from..].find(pat) {
        let at = from + off;
        let pre_ok = !pat_starts_ident
            || at == 0
            || !haystack[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let end = at + pat.len();
        let post_ok = !pat
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
            || !haystack[end..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if pre_ok && post_ok {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

fn mk(rule: &dyn Rule, ctx: &FileCtx, line: usize, message: String) -> Finding {
    Finding {
        rule: rule.id(),
        file: ctx.rel.to_string(),
        line,
        severity: Severity::Error,
        message,
        hint: rule.hint(),
    }
}

// ---------------------------------------------------------------------------
// Rule 1: no-hash-iteration
// ---------------------------------------------------------------------------

/// Bans iterating `HashMap`/`HashSet` in production code.
///
/// Hash iteration order is seed-dependent, so any value derived from it —
/// a sum, a "first match", a work list — breaks the bit-identical
/// `SolveOutcome` contract. The rule does a small flow-free analysis per
/// file: it collects identifiers *declared* with a hash-table type (let
/// bindings, struct fields, fn params, and local `type` aliases of the
/// two), then flags `.iter()`/`.keys()`/`.values()`/`.drain()`/`.retain()`
/// /`for … in` over those identifiers — across rustfmt line breaks, since
/// it matches the token stream, not raw lines. Keyed access (`get`,
/// `insert`, `entry`, `remove`, `contains_key`) never fires.
pub struct NoHashIteration;

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

impl Rule for NoHashIteration {
    fn id(&self) -> &'static str {
        "no-hash-iteration"
    }
    fn summary(&self) -> &'static str {
        "HashMap/HashSet iteration is order-nondeterministic; use BTreeMap or keyed access"
    }
    fn hint(&self) -> &'static str {
        "iterate a BTreeMap/Vec instead, or restructure to keyed access; if the \
         consumer is provably order-independent, annotate with a justification"
    }
    fn applies(&self, ctx: &FileCtx) -> bool {
        ctx.class.is_production()
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Finding>) {
        let toks = ctx.toks;
        // Local `type` aliases that name a hash table.
        let mut hash_type_names: Vec<&str> = HASH_TYPES.to_vec();
        for (i, t) in toks.iter().enumerate() {
            if t.text == "type" {
                if let (Some(name), Some(eq)) = (toks.get(i + 1), toks.get(i + 2)) {
                    if eq.text == "=" {
                        let rhs_is_hash = toks[i + 3..]
                            .iter()
                            .take_while(|t| t.text != ";")
                            .any(|t| HASH_TYPES.contains(&t.text.as_str()));
                        if rhs_is_hash {
                            hash_type_names.push(name.text.as_str());
                        }
                    }
                }
            }
        }
        // Identifiers declared with a hash-table type.
        let mut hash_idents: Vec<&str> = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if !hash_type_names.contains(&t.text.as_str()) {
                continue;
            }
            // `name: HashMap<..>` (field / let / param), possibly through
            // `&`, `&mut`, `std::collections::` qualification.
            let mut j = i;
            let mut saw_colon = false;
            while j > 0 {
                j -= 1;
                match toks[j].text.as_str() {
                    ":" => saw_colon = true,
                    "&" | "mut" | "std" | "collections" | "<" | ">" => {}
                    _ => break,
                }
            }
            if saw_colon && is_ident(&toks[j].text) {
                hash_idents.push(toks[j].text.as_str());
                continue;
            }
            // `name = HashMap::new()` (untyped let / reassignment).
            if i >= 2 && toks[i - 1].text == "=" && is_ident(&toks[i - 2].text) {
                hash_idents.push(toks[i - 2].text.as_str());
            }
        }
        hash_idents.sort_unstable();
        hash_idents.dedup();
        if hash_idents.is_empty() {
            return;
        }
        // Iteration over a hash-typed identifier.
        for (i, t) in toks.iter().enumerate() {
            if !hash_idents.contains(&t.text.as_str()) {
                continue;
            }
            // `recv.iter()` — the method token carries the reported line,
            // so the allow annotation sits next to the actual call even
            // when rustfmt splits the chain.
            if let (Some(dot), Some(m), Some(paren)) =
                (toks.get(i + 1), toks.get(i + 2), toks.get(i + 3))
            {
                if dot.text == "." && paren.text == "(" && ITER_METHODS.contains(&m.text.as_str()) {
                    if ctx.live(m.line) {
                        out.push(mk(
                            self,
                            ctx,
                            m.line,
                            format!("`{}.{}()` iterates a hash table", t.text, m.text),
                        ));
                    }
                    continue;
                }
            }
            // `for pat in [&[mut]] recv {`.
            let mut j = i;
            while j > 0 && matches!(toks[j - 1].text.as_str(), "&" | "mut") {
                j -= 1;
            }
            if j > 0
                && toks[j - 1].text == "in"
                && toks.get(i + 1).map(|n| n.text.as_str()) == Some("{")
                && ctx.live(t.line)
            {
                out.push(mk(
                    self,
                    ctx,
                    t.line,
                    format!("`for … in {}` iterates a hash table", t.text),
                ));
            }
        }
    }
}

fn is_ident(s: &str) -> bool {
    let mut cs = s.chars();
    cs.next().is_some_and(|c| c.is_alphabetic() || c == '_')
}

// ---------------------------------------------------------------------------
// Rule 2: no-nan-unsafe-ordering
// ---------------------------------------------------------------------------

/// Bans NaN-unsafe float ordering in production code.
///
/// `partial_cmp` returns `None` on NaN (callers then invent an order), and
/// the `f64::max`/`f64::min` *function references* silently drop NaN —
/// both turn a stray NaN into nondeterministic or corrupted ordering (a
/// broken heap, an unstable top-k). Comparisons must go through
/// `f64::total_cmp` (the PR 3 enumerate fix). Defining `fn partial_cmp`
/// (the canonical `Some(self.cmp(other))` delegation) is fine; *calling*
/// it is not. `.max(x)`/`.min(x)` method calls on floats are left to the
/// oracle tests — they are usually clamp idioms, not orderings.
pub struct NoNanUnsafeOrdering;

impl Rule for NoNanUnsafeOrdering {
    fn id(&self) -> &'static str {
        "no-nan-unsafe-ordering"
    }
    fn summary(&self) -> &'static str {
        "partial_cmp / f64::max / f64::min mis-order NaN; use f64::total_cmp"
    }
    fn hint(&self) -> &'static str {
        "compare with f64::total_cmp (or handle NaN explicitly); if NaN is \
         structurally impossible here, annotate with a justification"
    }
    fn applies(&self, ctx: &FileCtx) -> bool {
        ctx.class.is_production()
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Finding>) {
        for (idx, n) in ctx.norm.iter().enumerate() {
            let line = idx + 1;
            if !ctx.live(line) {
                continue;
            }
            if find_bounded(n, ".partial_cmp(").is_some() && !n.contains("fnpartial_cmp(") {
                out.push(mk(
                    self,
                    ctx,
                    line,
                    "`.partial_cmp(..)` call is NaN-unsafe".to_string(),
                ));
            }
            for pat in ["f64::max", "f64::min"] {
                if let Some(at) = find_bounded(n, pat) {
                    // `f64::max(a, b)` calls and bare fn refs both count;
                    // `f64::MAX` style consts do not reach here (case).
                    if !n[at + pat.len()..].starts_with("imum") {
                        out.push(mk(self, ctx, line, format!("`{pat}` ignores NaN operands")));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 3: thread-containment
// ---------------------------------------------------------------------------

/// Restricts thread creation to the one audited concurrency seam.
///
/// Determinism at every thread count holds because *all* fan-out goes
/// through code whose merge order is fixed: the `ParExec` executor
/// (`lp-solver/src/par.rs`), on which the engine's chunk scans, the
/// portfolio race and the B&B batches all run as jobs. A `thread::spawn`
/// anywhere else is an unreviewed ordering hazard.
pub struct ThreadContainment;

/// The file allowed to create threads.
const THREAD_HOME: &str = "crates/lp-solver/src/par.rs";

impl Rule for ThreadContainment {
    fn id(&self) -> &'static str {
        "thread-containment"
    }
    fn summary(&self) -> &'static str {
        "threads spawn only in lp-solver's par.rs"
    }
    fn hint(&self) -> &'static str {
        "route the fan-out through ParExec, whose chunk-order merge keeps \
         results thread-count-independent"
    }
    fn applies(&self, ctx: &FileCtx) -> bool {
        ctx.class != FileClass::Test && ctx.rel != THREAD_HOME
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Finding>) {
        for (idx, n) in ctx.norm.iter().enumerate() {
            let line = idx + 1;
            if !ctx.live(line) {
                continue;
            }
            for pat in ["thread::spawn", "thread::scope", "thread::Builder"] {
                if find_bounded(n, pat).is_some() {
                    out.push(mk(
                        self,
                        ctx,
                        line,
                        format!("`{pat}` outside the audited concurrency seam"),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: time-containment
// ---------------------------------------------------------------------------

/// Keeps wall-clock reads out of solver logic.
///
/// Deadlines flow through `core/src/budget.rs` (`Budget` owns the one
/// authoritative `Instant`); a solver that reads the clock directly can
/// make time-dependent *decisions*, which breaks replayability. Production
/// sites outside `budget.rs` must be reporting-only (stamping
/// `solve_time_ms`) and say so in an annotation.
pub struct TimeContainment;

/// The one file that may own deadline arithmetic unannotated.
const TIME_HOME: &str = "crates/core/src/budget.rs";

impl Rule for TimeContainment {
    fn id(&self) -> &'static str {
        "time-containment"
    }
    fn summary(&self) -> &'static str {
        "Instant::now() lives in budget.rs; other production sites are reporting-only"
    }
    fn hint(&self) -> &'static str {
        "check the cooperative Budget instead; a stats-stamping site gets an \
         annotation stating it never influences control flow"
    }
    fn applies(&self, ctx: &FileCtx) -> bool {
        ctx.class.is_production() && ctx.rel != TIME_HOME
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Finding>) {
        for (idx, n) in ctx.norm.iter().enumerate() {
            let line = idx + 1;
            if !ctx.live(line) {
                continue;
            }
            for pat in ["Instant::now(", "SystemTime::now("] {
                if find_bounded(n, pat).is_some() {
                    out.push(mk(self, ctx, line, format!("`{pat}..)` outside budget.rs")));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 5: unsafe-audit
// ---------------------------------------------------------------------------

/// Requires a written safety argument at every `unsafe` site.
///
/// Accepted forms, checked in order: a `SAFETY:` marker in the trailing
/// comment of the `unsafe` line itself, a `SAFETY:` marker in the
/// contiguous comment/attribute block directly above it, or (for
/// `unsafe fn` declarations) a `# Safety` rustdoc section. The walk stops
/// at the first non-comment, non-attribute, non-blank line, so a comment
/// cannot accidentally cover two sites. The full inventory — covered or
/// not — is emitted by `pb-lint --unsafe-report`.
pub struct UnsafeAudit;

/// One `unsafe` occurrence for the `--unsafe-report` inventory.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    pub file: String,
    pub line: usize,
    /// `impl`, `fn` or `block`.
    pub kind: &'static str,
    pub has_safety: bool,
    /// First line of the safety argument, if present.
    pub note: String,
}

/// Scans a file for `unsafe` sites (shared by the rule and the inventory).
/// Works on the token stream — whitespace between `unsafe` and the `fn` /
/// `impl` / `{` that follows carries no meaning. One site per line (an
/// `unsafe { … }` chain on a single line is one reviewable unit).
pub fn unsafe_sites(ctx: &FileCtx) -> Vec<UnsafeSite> {
    let mut out: Vec<UnsafeSite> = Vec::new();
    for (i, t) in ctx.toks.iter().enumerate() {
        if t.text != "unsafe" {
            continue;
        }
        if out.last().is_some_and(|s| s.line == t.line) {
            continue;
        }
        let kind = match ctx.toks.get(i + 1).map(|n| n.text.as_str()) {
            Some("impl") => "impl",
            Some("fn") => "fn",
            _ => "block",
        };
        let (has_safety, note) = safety_comment_for(ctx, t.line - 1);
        out.push(UnsafeSite {
            file: ctx.rel.to_string(),
            line: t.line,
            kind,
            has_safety,
            note,
        });
    }
    out
}

/// Looks for a safety argument covering the unsafe site at 0-based `idx`.
fn safety_comment_for(ctx: &FileCtx, idx: usize) -> (bool, String) {
    let is_marker = |c: &str| c.contains("SAFETY") || c.contains("# Safety");
    let trailing = &ctx.lines[idx].comment;
    if is_marker(trailing) {
        return (true, trailing.trim().to_string());
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let l = &ctx.lines[j];
        let code = l.code.trim();
        let pure_comment = code.is_empty() && !l.comment.is_empty();
        if pure_comment || code.starts_with("#[") {
            if is_marker(&l.comment) {
                return (true, l.comment.trim().to_string());
            }
            continue;
        }
        break; // real code or a blank separator-with-no-comment
    }
    (false, String::new())
}

impl Rule for UnsafeAudit {
    fn id(&self) -> &'static str {
        "unsafe-audit"
    }
    fn summary(&self) -> &'static str {
        "every unsafe block/impl/fn carries a SAFETY: comment"
    }
    fn hint(&self) -> &'static str {
        "state the invariant that makes the site sound in a `// SAFETY:` \
         comment directly above it (or a `# Safety` doc section on an unsafe fn)"
    }
    fn applies(&self, _ctx: &FileCtx) -> bool {
        true
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Finding>) {
        for site in unsafe_sites(ctx) {
            if !site.has_safety {
                out.push(mk(
                    self,
                    ctx,
                    site.line,
                    format!("`unsafe` {} without a SAFETY: comment", site.kind),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 6: no-panic-in-solver-paths
// ---------------------------------------------------------------------------

/// Bans panicking constructs in solver-reachable code.
///
/// A panic inside `Solver::solve` tears down the caller's thread (or a
/// portfolio worker) instead of returning `PbError::Internal`; the engine
/// validates results anyway, so a recoverable error is strictly better.
/// Flags `.unwrap()`, `.expect(..)`, `panic!`, `unreachable!`, `todo!` and
/// `unimplemented!`. Two built-in exemptions: `Mutex::lock().unwrap()` and
/// `Condvar::wait(..).unwrap()` — lock poisoning only occurs after another
/// thread already panicked, and re-raising is the correct containment.
/// `assert!`/`debug_assert!` stay allowed: they are deliberate invariant
/// checks, not accidental panics.
///
/// The relational substrate and the query language are in scope too, though
/// the rest of their rule sets stays infra-grade: every cold build runs
/// `minidb`'s column kernels and row evaluator on the caller's thread, and
/// every query is lexed, parsed and analyzed by `paql` on it, so a panic
/// there is a panic in the middle of a query.
pub struct NoPanicInSolverPaths;

/// Source trees outside the solver-path class that the panic rule covers.
const PANIC_FREE_SUBSTRATE: &[&str] = &["crates/minidb/src/", "crates/paql/src/"];

impl Rule for NoPanicInSolverPaths {
    fn id(&self) -> &'static str {
        "no-panic-in-solver-paths"
    }
    fn summary(&self) -> &'static str {
        "solver-reachable code returns PbError::Internal instead of panicking"
    }
    fn hint(&self) -> &'static str {
        "convert to `PbError::Internal` (or `LpError`) and propagate; a \
         provably-unreachable site keeps the panic but gains an annotation \
         stating the invariant"
    }
    fn applies(&self, ctx: &FileCtx) -> bool {
        ctx.class.is_solver()
            || PANIC_FREE_SUBSTRATE
                .iter()
                .any(|tree| ctx.rel.starts_with(tree))
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Finding>) {
        for (idx, n) in ctx.norm.iter().enumerate() {
            let line = idx + 1;
            if !ctx.live(line) {
                continue;
            }
            // `.unwrap()` with the poison-idiom exemption.
            let mut from = 0;
            while let Some(off) = n[from..].find(".unwrap()") {
                let at = from + off;
                let pre = &n[..at];
                let poison_idiom = pre.ends_with("lock()") || pre.contains(".wait(");
                if !poison_idiom {
                    out.push(mk(
                        self,
                        ctx,
                        line,
                        "`.unwrap()` in solver path".to_string(),
                    ));
                    break; // one finding per line is enough
                }
                from = at + 1;
            }
            if n.contains(".expect(") {
                out.push(mk(
                    self,
                    ctx,
                    line,
                    "`.expect(..)` in solver path".to_string(),
                ));
            }
            for pat in ["panic!(", "unreachable!(", "todo!(", "unimplemented!("] {
                if find_bounded(n, pat).is_some() {
                    out.push(mk(self, ctx, line, format!("`{}..)` in solver path", pat)));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 7: no-fused-multiply-add
// ---------------------------------------------------------------------------

/// Bans `mul_add` in the engine, the LP solver and the relational substrate
/// (whose column kernels compute the coefficients the engine gates).
///
/// `a.mul_add(b, c)` computes `a·b + c` with **one** rounding; `a * b + c`
/// rounds twice. The two differ in the last bit often enough that a single
/// fused accumulation moves a simplex pivot, and with it a node count, an
/// incumbent and every bit-identity gate downstream (thread counts, storage
/// modes, the recorded pivot sequences of `ilp_golden.rs`). It is also
/// host-dependent — a hardware FMA where the target has one, a software
/// routine elsewhere — so two machines would stop agreeing with each other.
/// rustc never contracts `a * b + c` on its own; this rule keeps the
/// explicit forms out: `mul_add`, the x86 fused intrinsics (`_mm*_fmadd*`,
/// `_mm*_fmsub*`, `_mm*_fnmadd*`, `_mm*_fnmsub*`), a `#[target_feature]`
/// that enables `fma` (the wide twins of the simplex sweeps enable `avx2`
/// alone) and a `target-cpu=` flag in a literal (a build script's, say),
/// which enables every feature of that CPU, `fma` included.
pub struct NoFusedMultiplyAdd;

/// Crates whose floating-point results are gated bit for bit.
const BIT_EXACT_CRATES: &[&str] = &["crates/core/", "crates/lp-solver/", "crates/minidb/"];

impl Rule for NoFusedMultiplyAdd {
    fn id(&self) -> &'static str {
        "no-fused-multiply-add"
    }
    fn summary(&self) -> &'static str {
        "mul_add, fused intrinsics, an `fma` target feature and `target-cpu=` round differently \
         from a * b + c and differ by host; write the two-step form"
    }
    fn hint(&self) -> &'static str {
        "write `a * b + c` and enable no `fma` or target CPU: the bit-identity gates rely on \
         two roundings, on every host"
    }
    fn applies(&self, ctx: &FileCtx) -> bool {
        ctx.class != FileClass::Test && BIT_EXACT_CRATES.iter().any(|c| ctx.rel.starts_with(c))
    }
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Finding>) {
        // Inside a `target_feature(..)` attribute, which may span lines.
        let mut in_target_feature = false;
        for (idx, n) in ctx.norm.iter().enumerate() {
            let line = idx + 1;
            let literal = &ctx.lines[idx].literal;
            in_target_feature |= n.contains("target_feature(");
            let enables_fma = in_target_feature
                && literal
                    .split(|c: char| c == ',' || c.is_whitespace())
                    .any(|feature| feature.trim_start_matches('+') == "fma");
            if n.contains(']') {
                in_target_feature = false;
            }
            if !ctx.live(line) {
                continue;
            }
            if find_bounded(n, "mul_add(").is_some() {
                out.push(mk(
                    self,
                    ctx,
                    line,
                    "`mul_add(..)` fuses the multiply and the add".to_string(),
                ));
            }
            if enables_fma {
                out.push(mk(
                    self,
                    ctx,
                    line,
                    "a `target_feature` enabling `fma` lets the compiler fuse".to_string(),
                ));
            }
            if literal.contains("target-cpu=") {
                out.push(mk(
                    self,
                    ctx,
                    line,
                    "`target-cpu=` compiles for one CPU, its FMA unit included".to_string(),
                ));
            }
        }
        for tok in ctx.toks {
            if ctx.live(tok.line) && is_fused_intrinsic(&tok.text) {
                out.push(mk(
                    self,
                    ctx,
                    tok.line,
                    format!("`{}` is a fused multiply-add intrinsic", tok.text),
                ));
            }
        }
    }
}

/// An x86 fused multiply-add intrinsic: `_mm_fmadd_pd`, `_mm256_fnmsub_ps`,
/// `_mm512_fmaddsub_pd`, …
fn is_fused_intrinsic(ident: &str) -> bool {
    ident.starts_with("_mm")
        && ["_fmadd", "_fmsub", "_fnmadd", "_fnmsub"]
            .iter()
            .any(|op| ident.contains(op))
}
