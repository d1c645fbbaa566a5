//! Packages: multisets of tuples, and their aggregate semantics.
//!
//! The aggregate-evaluation methods here ([`Package::eval_aggregate`],
//! [`Package::formula_violation`], [`Package::satisfies`],
//! [`Package::objective_value`]) are the *interpreted* path: they re-evaluate
//! each aggregate's filter and argument (bound once per aggregate, see
//! [`minidb::eval::BoundExpr`]) per member tuple against the base table and
//! walk the global formula's AST per package. Production
//! evaluation routes through the columnar [`crate::view::CandidateView`]
//! instead; the interpreted path survives as the correctness oracle (see
//! `tests/columnar_oracle.rs`) and for ad-hoc evaluation outside a candidate
//! set (e.g. the 2-D summary's coordinates).

use std::collections::BTreeMap;
use std::fmt;

use minidb::eval::BoundExpr;
use minidb::{Table, TupleId};
use paql::{
    AggCall, AggFunc, GlobalConstraint, GlobalExpr, GlobalFormula, Objective, ObjectiveDirection,
};

use crate::view::{comparison_violation, UNEVALUABLE_PENALTY};
use crate::PbResult;

/// A package: a multiset of tuples from one base relation.
///
/// "Semantically, PACKAGE constructs multisets from subsets of tuples from
/// the base relations listed in the FROM clause" (Section 2). Tuples are
/// referenced by [`TupleId`] with an explicit multiplicity, so packages stay
/// small and cheap to clone no matter how wide the tuples are.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Package {
    members: BTreeMap<TupleId, u32>,
}

impl Package {
    /// The empty package.
    pub fn new() -> Self {
        Package::default()
    }

    /// A package from `(tuple, multiplicity)` pairs.
    pub fn from_members<I: IntoIterator<Item = (TupleId, u32)>>(members: I) -> Self {
        let mut p = Package::new();
        for (t, m) in members {
            p.add(t, m);
        }
        p
    }

    /// A package containing each listed tuple once.
    pub fn from_ids<I: IntoIterator<Item = TupleId>>(ids: I) -> Self {
        Package::from_members(ids.into_iter().map(|t| (t, 1)))
    }

    /// Adds `multiplicity` copies of a tuple.
    pub fn add(&mut self, tuple: TupleId, multiplicity: u32) {
        if multiplicity == 0 {
            return;
        }
        *self.members.entry(tuple).or_insert(0) += multiplicity;
    }

    /// Removes up to `multiplicity` copies of a tuple, returning how many
    /// copies were actually removed.
    pub fn remove(&mut self, tuple: TupleId, multiplicity: u32) -> u32 {
        match self.members.get_mut(&tuple) {
            None => 0,
            Some(m) => {
                let removed = (*m).min(multiplicity);
                *m -= removed;
                if *m == 0 {
                    self.members.remove(&tuple);
                }
                removed
            }
        }
    }

    /// Multiplicity of a tuple (0 when absent).
    pub fn multiplicity(&self, tuple: TupleId) -> u32 {
        self.members.get(&tuple).copied().unwrap_or(0)
    }

    /// Total number of tuples counting multiplicities (`COUNT(*)`).
    pub fn cardinality(&self) -> u64 {
        self.members.values().map(|&m| m as u64).sum()
    }

    /// Number of *distinct* tuples.
    pub fn distinct_count(&self) -> usize {
        self.members.len()
    }

    /// True when the package has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Iterator over `(tuple, multiplicity)` pairs in tuple order.
    pub fn members(&self) -> impl Iterator<Item = (TupleId, u32)> + '_ {
        self.members.iter().map(|(t, m)| (*t, *m))
    }

    /// The distinct tuple ids in the package.
    pub fn tuple_ids(&self) -> Vec<TupleId> {
        self.members.keys().copied().collect()
    }

    /// The largest multiplicity of any member (0 for an empty package).
    pub fn max_multiplicity(&self) -> u32 {
        self.members.values().copied().max().unwrap_or(0)
    }

    /// Evaluates one aggregate over the package.
    ///
    /// Multiplicities weight `COUNT`, `SUM` and `AVG`; `MIN`/`MAX` range over
    /// the distinct member tuples. Members whose `FILTER` predicate is false
    /// (or NULL) do not contribute. Aggregates over an empty contribution set
    /// return `None` (SQL NULL), except `COUNT`, which returns 0.
    pub fn eval_aggregate(&self, table: &Table, call: &AggCall) -> PbResult<Option<f64>> {
        let schema = table.schema();
        let bind = |e: &minidb::Expr| BoundExpr::bind(e, schema);
        let filter = call.filter.as_ref().map(bind).transpose()?;
        let arg = call.arg.as_ref().map(bind).transpose()?;
        let mut count: u64 = 0;
        let mut sum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut any = false;
        for (tid, mult) in self.members() {
            let tuple = table.require(tid)?;
            if let Some(filter) = &filter {
                if !filter.eval_predicate(&tuple)? {
                    continue;
                }
            }
            let value = match &arg {
                None => None,
                Some(arg) => {
                    let v = arg.eval(&tuple)?;
                    if v.is_null() {
                        // NULL contributions are skipped for SUM/AVG/MIN/MAX
                        // and for COUNT(expr), matching SQL.
                        if call.func != AggFunc::Count {
                            continue;
                        }
                        None
                    } else {
                        Some(v.expect_f64(format_args!("argument of {}", call.func.name()))?)
                    }
                }
            };
            match call.func {
                AggFunc::Count => {
                    // COUNT(expr) skips NULL expr values; COUNT(*) counts all.
                    if call.arg.is_none() || value.is_some() {
                        count += mult as u64;
                        any = true;
                    }
                }
                AggFunc::Sum | AggFunc::Avg => {
                    if let Some(v) = value {
                        sum += v * mult as f64;
                        count += mult as u64;
                        any = true;
                    }
                }
                AggFunc::Min | AggFunc::Max => {
                    if let Some(v) = value {
                        min = min.min(v);
                        max = max.max(v);
                        any = true;
                    }
                }
            }
        }
        Ok(match call.func {
            AggFunc::Count => Some(count as f64),
            AggFunc::Sum => {
                if any {
                    Some(sum)
                } else {
                    None
                }
            }
            AggFunc::Avg => {
                if count > 0 {
                    Some(sum / count as f64)
                } else {
                    None
                }
            }
            AggFunc::Min => any.then_some(min),
            AggFunc::Max => any.then_some(max),
        })
    }

    /// Evaluates a global expression over the package. Returns `None` when a
    /// sub-aggregate is NULL (e.g. SUM over an empty package) or a division
    /// by zero occurs.
    pub fn eval_global_expr(&self, table: &Table, expr: &GlobalExpr) -> PbResult<Option<f64>> {
        Ok(match expr {
            GlobalExpr::Literal(x) => Some(*x),
            GlobalExpr::Agg(call) => self.eval_aggregate(table, call)?,
            GlobalExpr::Binary { op, lhs, rhs } => {
                let l = self.eval_global_expr(table, lhs)?;
                let r = self.eval_global_expr(table, rhs)?;
                match (l, r) {
                    (Some(a), Some(b)) => match op {
                        paql::ast::GlobalArithOp::Add => Some(a + b),
                        paql::ast::GlobalArithOp::Sub => Some(a - b),
                        paql::ast::GlobalArithOp::Mul => Some(a * b),
                        paql::ast::GlobalArithOp::Div => {
                            if b == 0.0 {
                                None
                            } else {
                                Some(a / b)
                            }
                        }
                    },
                    _ => None,
                }
            }
        })
    }

    /// Evaluates one global constraint. A constraint whose sides cannot be
    /// evaluated (NULL aggregate) is *not* satisfied, mirroring SQL `WHERE`
    /// semantics for unknown.
    pub fn satisfies_constraint(&self, table: &Table, c: &GlobalConstraint) -> PbResult<bool> {
        let lhs = self.eval_global_expr(table, &c.lhs)?;
        let rhs = self.eval_global_expr(table, &c.rhs)?;
        Ok(match (lhs, rhs) {
            (Some(a), Some(b)) => c.op.compare(a, b),
            _ => false,
        })
    }

    /// Evaluates the whole `SUCH THAT` formula.
    pub fn satisfies(&self, table: &Table, formula: &GlobalFormula) -> PbResult<bool> {
        Ok(match formula {
            GlobalFormula::Atom(c) => self.satisfies_constraint(table, c)?,
            GlobalFormula::And(a, b) => self.satisfies(table, a)? && self.satisfies(table, b)?,
            GlobalFormula::Or(a, b) => self.satisfies(table, a)? || self.satisfies(table, b)?,
            GlobalFormula::Not(a) => !self.satisfies(table, a)?,
        })
    }

    /// Evaluates the objective; `None` when it cannot be evaluated (e.g. the
    /// package is empty and the objective is a SUM).
    pub fn objective_value(&self, table: &Table, objective: &Objective) -> PbResult<Option<f64>> {
        self.eval_global_expr(table, &objective.expr)
    }

    /// A quantitative violation measure for one constraint: 0 when satisfied,
    /// otherwise the absolute amount by which the comparison fails (used by
    /// the local search to hill-climb towards feasibility).
    pub fn constraint_violation(&self, table: &Table, c: &GlobalConstraint) -> PbResult<f64> {
        let lhs = self.eval_global_expr(table, &c.lhs)?;
        let rhs = self.eval_global_expr(table, &c.rhs)?;
        Ok(match (lhs, rhs) {
            (Some(a), Some(b)) => comparison_violation(c.op, a, b),
            // Un-evaluable constraints get a large fixed penalty so the search
            // moves towards packages where they become evaluable.
            _ => UNEVALUABLE_PENALTY,
        })
    }

    /// Total violation across every atom of a formula. For disjunctions the
    /// branch with the smallest violation counts, so a package that satisfies
    /// either side of an OR is not penalized.
    pub fn formula_violation(&self, table: &Table, formula: &GlobalFormula) -> PbResult<f64> {
        Ok(match formula {
            GlobalFormula::Atom(c) => self.constraint_violation(table, c)?,
            GlobalFormula::And(a, b) => {
                self.formula_violation(table, a)? + self.formula_violation(table, b)?
            }
            GlobalFormula::Or(a, b) => self
                .formula_violation(table, a)?
                .min(self.formula_violation(table, b)?),
            GlobalFormula::Not(a) => {
                // NOT has no smooth violation measure; use 0/1.
                if self.satisfies(table, a)? {
                    1.0
                } else {
                    0.0
                }
            }
        })
    }

    /// Renders the package contents (rows and multiplicities) as text.
    pub fn render(&self, table: &Table) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "package with {} tuples ({} distinct):\n",
            self.cardinality(),
            self.distinct_count()
        ));
        for (tid, mult) in self.members() {
            if let Some(t) = table.get(tid) {
                out.push_str(&format!("  {tid} x{mult}: {t}\n"));
            }
        }
        out
    }

    /// Signed comparison of two objective values under a direction, treating
    /// `None` as the worst possible value.
    pub fn better_objective(direction: ObjectiveDirection, a: Option<f64>, b: Option<f64>) -> bool {
        match (a, b) {
            (None, _) => false,
            (Some(_), None) => true,
            (Some(x), Some(y)) => match direction {
                ObjectiveDirection::Maximize => x > y + 1e-9,
                ObjectiveDirection::Minimize => x < y - 1e-9,
            },
        }
    }
}

impl fmt::Display for Package {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .members()
            .map(|(t, m)| {
                if m == 1 {
                    t.to_string()
                } else {
                    format!("{t}x{m}")
                }
            })
            .collect();
        write!(f, "{{{}}}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::{tuple, ColumnType, Schema, Table};
    use paql::ast::GlobalArithOp;
    use paql::{AggCall, CmpOp, GlobalConstraint};

    fn table() -> Table {
        let schema = Schema::build(&[
            ("name", ColumnType::Text),
            ("calories", ColumnType::Float),
            ("protein", ColumnType::Float),
            ("gluten", ColumnType::Text),
        ]);
        let mut t = Table::new("recipes", schema);
        t.insert(tuple!("oatmeal", 320.0, 12.0, "free")).unwrap();
        t.insert(tuple!("pasta", 640.0, 20.0, "full")).unwrap();
        t.insert(tuple!("salad", 210.0, 6.0, "free")).unwrap();
        t.insert(tuple!("steak", 520.0, 45.0, "free")).unwrap();
        t
    }

    fn pkg(ids: &[u32]) -> Package {
        Package::from_ids(ids.iter().map(|&i| TupleId(i)))
    }

    #[test]
    fn multiset_bookkeeping() {
        let mut p = Package::new();
        p.add(TupleId(0), 2);
        p.add(TupleId(1), 1);
        p.add(TupleId(0), 1);
        assert_eq!(p.cardinality(), 4);
        assert_eq!(p.distinct_count(), 2);
        assert_eq!(p.multiplicity(TupleId(0)), 3);
        assert_eq!(p.max_multiplicity(), 3);
        assert_eq!(p.remove(TupleId(0), 5), 3);
        assert_eq!(p.multiplicity(TupleId(0)), 0);
        assert_eq!(p.to_string(), "{t1}");
    }

    #[test]
    fn aggregates_respect_multiplicities() {
        let t = table();
        let mut p = Package::new();
        p.add(TupleId(0), 2); // 2x oatmeal
        p.add(TupleId(2), 1); // salad
        let count = p
            .eval_aggregate(
                &t,
                &AggCall {
                    func: AggFunc::Count,
                    arg: None,
                    filter: None,
                },
            )
            .unwrap();
        assert_eq!(count, Some(3.0));
        let sum = p
            .eval_aggregate(
                &t,
                &AggCall {
                    func: AggFunc::Sum,
                    arg: Some(minidb::Expr::col("calories")),
                    filter: None,
                },
            )
            .unwrap();
        assert_eq!(sum, Some(2.0 * 320.0 + 210.0));
        let avg = p
            .eval_aggregate(
                &t,
                &AggCall {
                    func: AggFunc::Avg,
                    arg: Some(minidb::Expr::col("calories")),
                    filter: None,
                },
            )
            .unwrap();
        assert_eq!(avg, Some((2.0 * 320.0 + 210.0) / 3.0));
        let max = p
            .eval_aggregate(
                &t,
                &AggCall {
                    func: AggFunc::Max,
                    arg: Some(minidb::Expr::col("calories")),
                    filter: None,
                },
            )
            .unwrap();
        assert_eq!(max, Some(320.0));
    }

    #[test]
    fn filtered_aggregates_skip_non_matching_members() {
        let t = table();
        let p = pkg(&[0, 1, 2]);
        let gluten_free_count = p
            .eval_aggregate(
                &t,
                &AggCall {
                    func: AggFunc::Count,
                    arg: None,
                    filter: Some(minidb::Expr::col("gluten").eq(minidb::Expr::lit("free"))),
                },
            )
            .unwrap();
        assert_eq!(gluten_free_count, Some(2.0));
    }

    #[test]
    fn empty_package_aggregates() {
        let t = table();
        let p = Package::new();
        assert_eq!(
            p.eval_aggregate(
                &t,
                &AggCall {
                    func: AggFunc::Count,
                    arg: None,
                    filter: None
                }
            )
            .unwrap(),
            Some(0.0)
        );
        assert_eq!(
            p.eval_aggregate(
                &t,
                &AggCall {
                    func: AggFunc::Sum,
                    arg: Some(minidb::Expr::col("calories")),
                    filter: None
                }
            )
            .unwrap(),
            None
        );
    }

    #[test]
    fn paper_meal_plan_constraints() {
        let t = table();
        // COUNT(*) = 3 AND SUM(calories) BETWEEN 2000 AND 2500 is infeasible on
        // this tiny table (max total = 320+640+520 = 1480), so check a relaxed
        // variant and the violation measure.
        let formula = paql::parser::parse_global_formula(
            "COUNT(*) = 3 AND SUM(calories) BETWEEN 1000 AND 1500",
        )
        .unwrap();
        let good = pkg(&[0, 1, 3]); // 320+640+520 = 1480
        assert!(good.satisfies(&t, &formula).unwrap());
        let bad = pkg(&[0, 2]); // two tuples, 530 calories
        assert!(!bad.satisfies(&t, &formula).unwrap());
        assert!(bad.formula_violation(&t, &formula).unwrap() > 0.0);
        assert_eq!(good.formula_violation(&t, &formula).unwrap(), 0.0);
    }

    #[test]
    fn ratio_constraint_via_global_expr() {
        let t = table();
        let p = pkg(&[0, 1, 3]);
        // protein of gluten-free members >= 50% of total protein
        let constraint = GlobalConstraint {
            lhs: GlobalExpr::Agg(AggCall {
                func: AggFunc::Sum,
                arg: Some(minidb::Expr::col("protein")),
                filter: Some(minidb::Expr::col("gluten").eq(minidb::Expr::lit("free"))),
            }),
            op: CmpOp::GtEq,
            rhs: GlobalExpr::Binary {
                op: GlobalArithOp::Mul,
                lhs: Box::new(GlobalExpr::Literal(0.5)),
                rhs: Box::new(GlobalExpr::agg(AggFunc::Sum, "protein")),
            },
        };
        // gluten-free protein = 12 + 45 = 57, total = 77 → 57 >= 38.5 ✓
        assert!(p.satisfies_constraint(&t, &constraint).unwrap());
    }

    #[test]
    fn or_and_not_formula_semantics() {
        let t = table();
        let p = pkg(&[2]); // 210 calories, 1 tuple
        let f = paql::parser::parse_global_formula("COUNT(*) = 5 OR SUM(calories) <= 300").unwrap();
        assert!(p.satisfies(&t, &f).unwrap());
        assert_eq!(p.formula_violation(&t, &f).unwrap(), 0.0);
        let g = paql::parser::parse_global_formula("NOT (COUNT(*) = 1)").unwrap();
        assert!(!p.satisfies(&t, &g).unwrap());
        assert_eq!(p.formula_violation(&t, &g).unwrap(), 1.0);
    }

    #[test]
    fn objective_comparison_handles_none() {
        use ObjectiveDirection::*;
        assert!(Package::better_objective(Maximize, Some(2.0), Some(1.0)));
        assert!(!Package::better_objective(Maximize, Some(1.0), Some(2.0)));
        assert!(Package::better_objective(Minimize, Some(1.0), Some(2.0)));
        assert!(Package::better_objective(Maximize, Some(1.0), None));
        assert!(!Package::better_objective(Maximize, None, Some(1.0)));
    }

    #[test]
    fn render_lists_members() {
        let t = table();
        let p = pkg(&[0, 3]);
        let text = p.render(&t);
        assert!(text.contains("oatmeal"));
        assert!(text.contains("steak"));
        assert!(text.contains("2 tuples"));
    }
}
