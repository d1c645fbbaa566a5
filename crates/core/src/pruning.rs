//! Cardinality-based pruning (paper Section 4.1).
//!
//! "Given a global constraint C, our pruning strategy identifies a lower
//! cardinality bound l and an upper cardinality bound u for any package that
//! can satisfy C." The bounds come from the constraint's own constants and
//! the MIN/MAX of the aggregate's contributions over the candidate tuples:
//!
//! * `a ≤ COUNT(*) ≤ b`  →  `l = a`, `u = b`;
//! * `L ≤ SUM(col) ≤ U`  →  `l = ⌈L / MAX(col)⌉`, `u = ⌊U / MIN(col)⌋`
//!   (the upper bound requires `MIN(col) > 0`, the lower bound `MAX(col) > 0`).
//!
//! Bounds derived from different constraints intersect. With `n` candidate
//! tuples and no repetition, pruning shrinks the search space from `2^n` to
//! `Σ_{k=l}^{u} C(n,k)` "without losing any valid solution".
//!
//! The MIN/MAX of an aggregated expression comes from the term column's
//! per-chunk metadata ([`crate::view::TermColumn::chunk_meta`], combined in
//! chunk order — `O(#chunks)`, no rescans): the range covers exactly the
//! entries that can contribute to the aggregate, so `FILTER`ed SUM
//! constraints get a sound *tighter* lower bound from the filtered value
//! range, and SUM over arbitrary argument expressions (not just plain
//! columns) yields bounds at all. No other column of the table is read.

use paql::{AggCall, AggFunc, CmpOp, GlobalConstraint, GlobalExpr, GlobalFormula};

use crate::view::CandidateView;

/// Inclusive cardinality bounds for any valid package.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CardinalityBounds {
    /// Minimum total cardinality (counting multiplicities).
    pub lower: u64,
    /// Maximum total cardinality, when one could be derived.
    pub upper: Option<u64>,
}

impl CardinalityBounds {
    /// The trivial bounds `[0, ∞)`.
    pub fn unbounded() -> Self {
        CardinalityBounds {
            lower: 0,
            upper: None,
        }
    }

    /// Intersects two bounds (tightest of each side).
    pub fn intersect(&self, other: &CardinalityBounds) -> CardinalityBounds {
        CardinalityBounds {
            lower: self.lower.max(other.lower),
            upper: match (self.upper, other.upper) {
                (None, u) | (u, None) => u,
                (Some(a), Some(b)) => Some(a.min(b)),
            },
        }
    }

    /// True when no cardinality can satisfy the bounds.
    pub fn is_empty(&self) -> bool {
        matches!(self.upper, Some(u) if u < self.lower)
    }

    /// Clamps the upper bound by the maximum reachable cardinality
    /// (`n · max_multiplicity`).
    pub fn clamp_to(&self, max_cardinality: u64) -> CardinalityBounds {
        CardinalityBounds {
            lower: self.lower,
            upper: Some(self.upper.unwrap_or(max_cardinality).min(max_cardinality)),
        }
    }
}

/// Derives cardinality bounds for a candidate view. Bounds are only
/// extracted from constraints that participate in every conjunct of the
/// formula (pruning must never exclude a valid solution, so disjunctive
/// branches contribute nothing).
pub fn derive_bounds(view: &CandidateView) -> CardinalityBounds {
    let mut bounds = CardinalityBounds::unbounded();
    if let Some(formula) = view.formula() {
        for atom in conjunctive_atoms(formula) {
            bounds = bounds.intersect(&bounds_from_constraint(view, atom));
        }
    }
    bounds
}

/// Collects atoms that are conjunctively required (i.e. not under OR or NOT).
fn conjunctive_atoms(formula: &GlobalFormula) -> Vec<&GlobalConstraint> {
    let mut out = Vec::new();
    fn walk<'a>(f: &'a GlobalFormula, out: &mut Vec<&'a GlobalConstraint>) {
        match f {
            GlobalFormula::Atom(c) => out.push(c),
            GlobalFormula::And(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            // Atoms under OR/NOT are not individually binding.
            GlobalFormula::Or(..) | GlobalFormula::Not(_) => {}
        }
    }
    walk(formula, &mut out);
    out
}

/// Bounds implied by a single constraint, following the paper's two rules.
fn bounds_from_constraint(view: &CandidateView, c: &GlobalConstraint) -> CardinalityBounds {
    // Normalize to "aggregate cmp constant".
    let (agg, op, constant) = match (&c.lhs, extract_constant(&c.rhs)) {
        (GlobalExpr::Agg(a), Some(k)) => (a, c.op, k),
        _ => match (extract_constant(&c.lhs), &c.rhs) {
            (Some(k), GlobalExpr::Agg(a)) => (a, c.op.mirrored(), k),
            _ => return CardinalityBounds::unbounded(),
        },
    };
    // Filtered aggregates only constrain the filtered sub-multiset, so they
    // yield a *lower* bound (the package contains at least those members) but
    // no upper bound on total cardinality.
    let filtered = agg.filter.is_some();

    match agg.func {
        AggFunc::Count => {
            let k = constant;
            let (mut lower, mut upper) = (None, None);
            match op {
                CmpOp::Eq => {
                    lower = Some(k.ceil() as u64);
                    upper = Some(k.floor() as u64);
                }
                CmpOp::LtEq => upper = Some(k.floor() as u64),
                CmpOp::Lt => upper = Some((k.ceil() - 1.0).max(0.0) as u64),
                CmpOp::GtEq => lower = Some(k.ceil() as u64),
                CmpOp::Gt => lower = Some(k.floor() as u64 + 1),
                CmpOp::NotEq => {}
            }
            if filtered {
                upper = None;
            }
            CardinalityBounds {
                lower: lower.unwrap_or(0),
                upper,
            }
        }
        AggFunc::Sum => {
            let range = match contribution_range(view, agg) {
                Some(range) => range,
                None => return CardinalityBounds::unbounded(),
            };
            let mut bounds = CardinalityBounds::unbounded();
            // Lower bound: SUM(col) >= L with L > 0 needs at least ⌈L / MAX⌉ tuples.
            let lower_target = match op {
                CmpOp::GtEq | CmpOp::Gt | CmpOp::Eq => Some(constant),
                _ => None,
            };
            if let Some(target) = lower_target {
                if target > 0.0 && range.max > 0.0 {
                    bounds.lower = (target / range.max).ceil() as u64;
                }
                // Infeasibility probe from the chunked partial sums: with no
                // negative contribution, even the full candidate set at
                // maximum multiplicity reaches only r·Σ — a lower target
                // beyond that is unsatisfiable by any package. (Sound for
                // filtered aggregates too: only included entries can ever
                // contribute to the sum.)
                if range.min >= 0.0 && target > range.sum * view.max_multiplicity() as f64 {
                    return CardinalityBounds {
                        lower: 1,
                        upper: Some(0),
                    };
                }
            }
            // Upper bound: SUM(col) <= U with every value ≥ MIN > 0 allows at
            // most ⌊U / MIN⌋ tuples. The cap assumes *every* package member
            // contributes at least MIN, so it is only sound when the
            // aggregate skips nobody: no FILTER (members outside the filter
            // raise cardinality without raising the sum — see above) and no
            // excluded candidates (a NULL argument does the same).
            let upper_target = match op {
                CmpOp::LtEq | CmpOp::Lt | CmpOp::Eq => Some(constant),
                _ => None,
            };
            if let Some(target) = upper_target {
                if range.min > 0.0 && !filtered && range.covers_all {
                    bounds.upper = Some((target / range.min).floor().max(0.0) as u64);
                }
            }
            bounds
        }
        // AVG/MIN/MAX do not constrain cardinality.
        _ => CardinalityBounds::unbounded(),
    }
}

/// What an aggregate's contributing candidates look like: the MIN/MAX/Σ of
/// their per-tuple contributions, and whether *every* candidate contributes
/// (no `FILTER` rejections, no NULL arguments) — the condition the
/// ⌊U / MIN⌋ upper bound needs to be sound.
struct ContributionRange {
    min: f64,
    max: f64,
    sum: f64,
    covers_all: bool,
}

/// The [`ContributionRange`] of an aggregate over the candidates that can
/// actually contribute to it, from its term column's chunked metadata
/// ([`crate::view::TermColumn::chunk_meta`], per-chunk partials combined in
/// chunk order): every formula atom has a term column, the range respects
/// the aggregate's own `FILTER`/NULL inclusion mask, and it works for
/// arbitrary argument expressions.
///
/// `None` when no candidate is included. The SUM is then NULL in every
/// package, so every comparison atom on it is unsatisfiable: an unbounded
/// answer is still a sound relaxation, and the exact check rejects every
/// package anyway.
fn contribution_range(view: &CandidateView, agg: &AggCall) -> Option<ContributionRange> {
    let idx = view.term_keys().iter().position(|k| k == agg)?;
    let term = &view.terms()[idx];
    Some(ContributionRange {
        min: term.included_min()?,
        max: term.included_max()?,
        sum: term.included_sum(),
        covers_all: term.included_count() == term.len() as u64,
    })
}

fn extract_constant(e: &GlobalExpr) -> Option<f64> {
    match e {
        GlobalExpr::Literal(x) => Some(*x),
        GlobalExpr::Binary { op, lhs, rhs } => {
            let a = extract_constant(lhs)?;
            let b = extract_constant(rhs)?;
            Some(match op {
                paql::ast::GlobalArithOp::Add => a + b,
                paql::ast::GlobalArithOp::Sub => a - b,
                paql::ast::GlobalArithOp::Mul => a * b,
                paql::ast::GlobalArithOp::Div => {
                    if b == 0.0 {
                        return None;
                    }
                    a / b
                }
            })
        }
        GlobalExpr::Agg(_) => None,
    }
}

/// Search-space accounting for the E1 experiment: how many candidate packages
/// exist before and after cardinality pruning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchSpace {
    /// log2 of the unpruned candidate count `(r+1)^n`.
    pub unpruned_log2: f64,
    /// log2 of the pruned candidate count `Σ_{k=l}^{u} C(n,k)` (only
    /// available for `REPEAT 1`, i.e. set semantics).
    pub pruned_log2: Option<f64>,
}

impl SearchSpace {
    /// The pruned candidate count (may be `inf` for large `n`).
    pub fn pruned(&self) -> Option<f64> {
        self.pruned_log2.map(f64::exp2)
    }

    /// Reduction factor `unpruned / pruned` in log2.
    pub fn reduction_log2(&self) -> Option<f64> {
        self.pruned_log2.map(|p| self.unpruned_log2 - p)
    }
}

/// Computes the search-space sizes for a view and bounds.
pub fn search_space(view: &CandidateView, bounds: &CardinalityBounds) -> SearchSpace {
    let n = view.candidate_count() as u64;
    let r = view.max_multiplicity() as f64;
    let unpruned_log2 = n as f64 * (r + 1.0).log2();
    let pruned_log2 = if view.max_multiplicity() == 1 {
        let clamped = bounds.clamp_to(n);
        let lo = clamped.lower.min(n);
        let hi = clamped.upper.unwrap_or(n).min(n);
        if hi < lo {
            Some(f64::NEG_INFINITY)
        } else {
            Some(log2_sum_binomials(n, lo, hi))
        }
    } else {
        None
    };
    SearchSpace {
        unpruned_log2,
        pruned_log2,
    }
}

/// log2 of `Σ_{k=lo}^{hi} C(n,k)` computed in log space to avoid overflow.
pub fn log2_sum_binomials(n: u64, lo: u64, hi: u64) -> f64 {
    let mut total_log2 = f64::NEG_INFINITY;
    for k in lo..=hi {
        let l = log2_binomial(n, k);
        total_log2 = log2_add(total_log2, l);
    }
    total_log2
}

/// log2 of the binomial coefficient `C(n, k)`.
pub fn log2_binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    let k = k.min(n - k);
    let mut acc = 0.0f64;
    for i in 0..k {
        acc += ((n - i) as f64).log2() - ((i + 1) as f64).log2();
    }
    acc
}

fn log2_add(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a > b { (a, b) } else { (b, a) };
    hi + (1.0 + (lo - hi).exp2()).log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::tests::spec_for;
    use datagen::{uniform_table, Seed};
    use minidb::Table;

    #[test]
    fn count_constraints_bound_cardinality_directly() {
        let t = uniform_table("t", 30, 10.0, 20.0, Seed(1));
        let spec = spec_for(&t, "SELECT PACKAGE(T) AS P FROM t T SUCH THAT COUNT(*) = 3");
        let b = derive_bounds(spec.view());
        assert_eq!(
            b,
            CardinalityBounds {
                lower: 3,
                upper: Some(3)
            }
        );

        let spec = spec_for(
            &t,
            "SELECT PACKAGE(T) AS P FROM t T SUCH THAT COUNT(*) >= 2 AND COUNT(*) < 7",
        );
        let b = derive_bounds(spec.view());
        assert_eq!(
            b,
            CardinalityBounds {
                lower: 2,
                upper: Some(6)
            }
        );
    }

    #[test]
    fn sum_constraints_use_min_max_statistics() {
        // w ∈ [10, 20]: SUM(w) BETWEEN 100 AND 120 → l = ceil(100/20) = 5,
        // u = floor(120/10) = 12.
        let t = uniform_table("t", 50, 10.0, 20.0, Seed(2));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(T) AS P FROM t T SUCH THAT SUM(P.w) BETWEEN 100 AND 120",
        );
        let b = derive_bounds(spec.view());
        assert!(b.lower >= 5, "lower bound {} should be at least 5", b.lower);
        assert!(b.lower <= 6);
        let u = b.upper.unwrap();
        assert!(u <= 12, "upper bound {u} should be at most 12");
        assert!(u >= 10);
    }

    #[test]
    fn null_skipping_members_void_the_upper_bound() {
        // ⌊U / MIN⌋ assumes every member contributes at least MIN; a NULL
        // argument contributes nothing while still raising COUNT(*), so the
        // cap must not be derived. Regression for the chunk-metadata range:
        // {the 60-contributor + two NULL rows} is a valid package that a
        // ⌊100/60⌋ = 1 upper bound would wrongly prune.
        use minidb::{Column, ColumnType, Schema, Tuple, Value};
        let schema = Schema::new(vec![Column::new("a", ColumnType::Float)]).unwrap();
        let mut t = Table::new("t", schema);
        t.insert(Tuple::new(vec![Value::Float(60.0)])).unwrap();
        for _ in 0..3 {
            t.insert(Tuple::new(vec![Value::Null])).unwrap();
        }
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(T) AS P FROM t T SUCH THAT COUNT(*) >= 3 AND SUM(P.a) <= 100",
        );
        let b = derive_bounds(spec.view());
        assert_eq!(b.upper, None, "NULL-skipping members must void the cap");
        assert!(!b.is_empty());
        let pkg = crate::package::Package::from_ids([
            minidb::TupleId(0),
            minidb::TupleId(1),
            minidb::TupleId(2),
        ]);
        assert!(
            spec.is_valid(&pkg).unwrap(),
            "the pruned-away package is valid"
        );
    }

    #[test]
    fn expression_arguments_yield_bounds_from_chunk_metadata() {
        // Pre-chunking, only plain-column SUMs had statistics; the term
        // column covers arbitrary argument expressions. w ∈ [10, 20] so
        // w + w ∈ [20, 40]: SUM(w + w) >= 200 needs ≥ ⌈200/40⌉ = 5 members,
        // and <= 400 allows ≤ ⌊400/20⌋ = 20.
        let t = uniform_table("t", 50, 10.0, 20.0, Seed(11));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(T) AS P FROM t T SUCH THAT SUM(P.w + P.w) BETWEEN 200 AND 400",
        );
        let b = derive_bounds(spec.view());
        assert!(b.lower >= 5, "lower {} should be at least 5", b.lower);
        let u = b.upper.expect("full coverage permits an upper bound");
        assert!(u <= 20, "upper {u} should be at most 20");
    }

    #[test]
    fn unreachable_sum_targets_prove_infeasibility() {
        // 5 tuples with w ≤ 20: no package reaches SUM(w) >= 1000, which the
        // chunked partial sums prove without running any solver.
        let t = uniform_table("t", 5, 10.0, 20.0, Seed(12));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(T) AS P FROM t T SUCH THAT SUM(P.w) >= 1000",
        );
        assert!(derive_bounds(spec.view()).is_empty());
        // A reachable target stays feasible.
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(T) AS P FROM t T SUCH THAT SUM(P.w) >= 30",
        );
        assert!(!derive_bounds(spec.view()).is_empty());
        // REPEAT raises the reachable total: the same 1000 target may need
        // many copies but is no longer provably impossible at REPEAT 50.
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(T) AS P FROM t T REPEAT 50 SUCH THAT SUM(P.w) >= 1000",
        );
        assert!(!derive_bounds(spec.view()).is_empty());
    }

    #[test]
    fn disjunctive_atoms_do_not_tighten_bounds() {
        let t = uniform_table("t", 20, 1.0, 2.0, Seed(3));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(T) AS P FROM t T SUCH THAT COUNT(*) = 3 OR COUNT(*) = 10",
        );
        assert_eq!(derive_bounds(spec.view()), CardinalityBounds::unbounded());
    }

    #[test]
    fn contradictory_bounds_are_detected() {
        let t = uniform_table("t", 20, 1.0, 2.0, Seed(4));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(T) AS P FROM t T SUCH THAT COUNT(*) >= 5 AND COUNT(*) <= 2",
        );
        assert!(derive_bounds(spec.view()).is_empty());
    }

    #[test]
    fn pruning_never_excludes_a_valid_package() {
        // Soundness check on a small instance: enumerate all subsets and
        // verify every feasible one has cardinality within the bounds.
        let t = uniform_table("t", 12, 5.0, 15.0, Seed(5));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(T) AS P FROM t T SUCH THAT SUM(P.w) BETWEEN 30 AND 45 AND COUNT(*) <= 6",
        );
        let bounds = derive_bounds(spec.view()).clamp_to(spec.candidate_count() as u64);
        let n = spec.candidate_count();
        for mask in 0u32..(1 << n) {
            let ids: Vec<_> = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| spec.candidates[i])
                .collect();
            let pkg = crate::package::Package::from_ids(ids);
            if spec.is_valid(&pkg).unwrap() {
                let c = pkg.cardinality();
                assert!(
                    c >= bounds.lower,
                    "valid package of cardinality {c} below lower bound {}",
                    bounds.lower
                );
                assert!(
                    c <= bounds.upper.unwrap(),
                    "valid package of cardinality {c} above upper bound"
                );
            }
        }
    }

    #[test]
    fn search_space_matches_closed_forms() {
        let t = uniform_table("t", 20, 1.0, 2.0, Seed(6));
        let spec = spec_for(&t, "SELECT PACKAGE(T) AS P FROM t T SUCH THAT COUNT(*) = 3");
        let bounds = derive_bounds(spec.view());
        let space = search_space(spec.view(), &bounds);
        assert!((space.unpruned_log2 - 20.0).abs() < 1e-9);
        // C(20,3) = 1140.
        assert!((space.pruned().unwrap() - 1140.0).abs() < 1e-6);
        assert!(space.reduction_log2().unwrap() > 9.0);
    }

    #[test]
    fn log2_binomial_matches_exact_values() {
        assert!((log2_binomial(10, 5).exp2() - 252.0).abs() < 1e-9);
        assert!((log2_binomial(20, 0).exp2() - 1.0).abs() < 1e-12);
        assert_eq!(log2_binomial(5, 9), f64::NEG_INFINITY);
        // Large values stay finite in log space.
        assert!(log2_binomial(5000, 2500).is_finite());
    }

    #[test]
    fn repeat_queries_have_no_pruned_closed_form() {
        let t = uniform_table("t", 10, 1.0, 2.0, Seed(7));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(T) AS P FROM t T REPEAT 3 SUCH THAT COUNT(*) = 3",
        );
        let space = search_space(spec.view(), &derive_bounds(spec.view()));
        assert!(space.pruned_log2.is_none());
        assert!((space.unpruned_log2 - 10.0 * 4.0f64.log2()).abs() < 1e-9);
    }
}
