//! The PaQL abstract syntax tree.

use std::fmt;

use minidb::Expr;

/// Aggregate functions usable in `SUCH THAT` and objective clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` — the package cardinality (counting multiplicities).
    Count,
    /// `SUM(expr)` over package members.
    Sum,
    /// `AVG(expr)` over package members.
    Avg,
    /// `MIN(expr)` over package members.
    Min,
    /// `MAX(expr)` over package members.
    Max,
}

impl AggFunc {
    /// SQL spelling.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }

    /// True for the aggregates that are linear functions of tuple
    /// multiplicities (COUNT and SUM); only these translate directly into
    /// ILP constraints. AVG is additionally *linearizable* when compared
    /// against a constant (the engine multiplies through by COUNT); AVG vs
    /// non-constants, AVG objectives and MIN/MAX require the search-based
    /// strategies.
    pub fn is_linear(&self) -> bool {
        matches!(self, AggFunc::Count | AggFunc::Sum)
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One aggregate call, e.g. `SUM(P.calories)` or
/// `COUNT(*) FILTER (WHERE P.kind = 'flight')`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    /// The aggregate function.
    pub func: AggFunc,
    /// The argument expression; `None` means `*` (only valid for COUNT).
    pub arg: Option<Expr>,
    /// Optional `FILTER (WHERE ...)` predicate restricting which package
    /// members contribute to the aggregate.
    pub filter: Option<Expr>,
}

impl fmt::Display for AggCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.arg {
            None => write!(f, "{}(*)", self.func)?,
            Some(e) => write!(f, "{}({})", self.func, e)?,
        }
        if let Some(p) = &self.filter {
            write!(f, " FILTER (WHERE {p})")?;
        }
        Ok(())
    }
}

/// Arithmetic operators inside global expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlobalArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl GlobalArithOp {
    /// Symbolic form.
    pub fn symbol(&self) -> &'static str {
        match self {
            GlobalArithOp::Add => "+",
            GlobalArithOp::Sub => "-",
            GlobalArithOp::Mul => "*",
            GlobalArithOp::Div => "/",
        }
    }
}

/// An arithmetic expression over aggregates and literals, evaluated per
/// *package* (not per tuple).
#[derive(Debug, Clone, PartialEq)]
pub enum GlobalExpr {
    /// An aggregate over the package.
    Agg(AggCall),
    /// A numeric literal.
    Literal(f64),
    /// Arithmetic combination.
    Binary {
        /// Operator.
        op: GlobalArithOp,
        /// Left operand.
        lhs: Box<GlobalExpr>,
        /// Right operand.
        rhs: Box<GlobalExpr>,
    },
}

impl GlobalExpr {
    /// Convenience constructor for `func(column)`.
    pub fn agg(func: AggFunc, column: &str) -> GlobalExpr {
        GlobalExpr::Agg(AggCall {
            func,
            arg: Some(Expr::col(column)),
            filter: None,
        })
    }

    /// Convenience constructor for `COUNT(*)`.
    pub fn count_star() -> GlobalExpr {
        GlobalExpr::Agg(AggCall {
            func: AggFunc::Count,
            arg: None,
            filter: None,
        })
    }

    /// All aggregate calls appearing in the expression.
    pub fn aggregates(&self) -> Vec<&AggCall> {
        let mut out = Vec::new();
        self.collect_aggs(&mut out);
        out
    }

    fn collect_aggs<'a>(&'a self, out: &mut Vec<&'a AggCall>) {
        match self {
            GlobalExpr::Agg(a) => out.push(a),
            GlobalExpr::Literal(_) => {}
            GlobalExpr::Binary { lhs, rhs, .. } => {
                lhs.collect_aggs(out);
                rhs.collect_aggs(out);
            }
        }
    }
}

impl fmt::Display for GlobalExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GlobalExpr::Agg(a) => write!(f, "{a}"),
            GlobalExpr::Literal(x) => write!(f, "{x}"),
            GlobalExpr::Binary { op, lhs, rhs } => write!(f, "({lhs} {} {rhs})", op.symbol()),
        }
    }
}

/// Comparison operators between global expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
}

impl CmpOp {
    /// Symbolic form.
    pub fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::NotEq => "<>",
            CmpOp::Lt => "<",
            CmpOp::LtEq => "<=",
            CmpOp::Gt => ">",
            CmpOp::GtEq => ">=",
        }
    }

    /// The comparison with its operands swapped: `a op b` ⟺ `b op' a`.
    pub fn mirrored(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::LtEq => CmpOp::GtEq,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::GtEq => CmpOp::LtEq,
            CmpOp::Eq | CmpOp::NotEq => self,
        }
    }

    /// Applies the comparison to two floats (used by the package evaluator).
    pub fn compare(&self, lhs: f64, rhs: f64) -> bool {
        match self {
            CmpOp::Eq => (lhs - rhs).abs() <= 1e-9 * (1.0 + lhs.abs().max(rhs.abs())),
            CmpOp::NotEq => !CmpOp::Eq.compare(lhs, rhs),
            CmpOp::Lt => lhs < rhs,
            CmpOp::LtEq => lhs <= rhs + 1e-9,
            CmpOp::Gt => lhs > rhs,
            CmpOp::GtEq => lhs >= rhs - 1e-9,
        }
    }
}

/// One global constraint: `lhs op rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalConstraint {
    /// Left-hand global expression.
    pub lhs: GlobalExpr,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand global expression.
    pub rhs: GlobalExpr,
}

impl fmt::Display for GlobalConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op.symbol(), self.rhs)
    }
}

/// The `SUCH THAT` clause: an arbitrary Boolean formula over global
/// constraints (the paper highlights this as an extension over Tiresias,
/// which "only supports conjunctive how-to queries").
#[derive(Debug, Clone, PartialEq)]
pub enum GlobalFormula {
    /// A single constraint.
    Atom(GlobalConstraint),
    /// Conjunction.
    And(Box<GlobalFormula>, Box<GlobalFormula>),
    /// Disjunction.
    Or(Box<GlobalFormula>, Box<GlobalFormula>),
    /// Negation.
    Not(Box<GlobalFormula>),
}

impl GlobalFormula {
    /// Conjunction helper.
    pub fn and(self, other: GlobalFormula) -> GlobalFormula {
        GlobalFormula::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: GlobalFormula) -> GlobalFormula {
        GlobalFormula::Or(Box::new(self), Box::new(other))
    }

    /// All atomic constraints in the formula, left to right.
    pub fn atoms(&self) -> Vec<&GlobalConstraint> {
        let mut out = Vec::new();
        self.collect_atoms(&mut out);
        out
    }

    fn collect_atoms<'a>(&'a self, out: &mut Vec<&'a GlobalConstraint>) {
        match self {
            GlobalFormula::Atom(c) => out.push(c),
            GlobalFormula::And(a, b) | GlobalFormula::Or(a, b) => {
                a.collect_atoms(out);
                b.collect_atoms(out);
            }
            GlobalFormula::Not(a) => a.collect_atoms(out),
        }
    }

    /// True when the formula is a pure conjunction of atoms (no OR/NOT) —
    /// the fragment that translates directly into an ILP.
    pub fn is_conjunctive(&self) -> bool {
        match self {
            GlobalFormula::Atom(_) => true,
            GlobalFormula::And(a, b) => a.is_conjunctive() && b.is_conjunctive(),
            GlobalFormula::Or(..) | GlobalFormula::Not(_) => false,
        }
    }
}

impl fmt::Display for GlobalFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GlobalFormula::Atom(c) => write!(f, "{c}"),
            GlobalFormula::And(a, b) => write!(f, "({a} AND {b})"),
            GlobalFormula::Or(a, b) => write!(f, "({a} OR {b})"),
            GlobalFormula::Not(a) => write!(f, "(NOT {a})"),
        }
    }
}

/// Objective direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectiveDirection {
    /// `MAXIMIZE`
    Maximize,
    /// `MINIMIZE`
    Minimize,
}

/// The optional objective clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// Maximize or minimize.
    pub direction: ObjectiveDirection,
    /// The global expression to optimize.
    pub expr: GlobalExpr,
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kw = match self.direction {
            ObjectiveDirection::Maximize => "MAXIMIZE",
            ObjectiveDirection::Minimize => "MINIMIZE",
        };
        write!(f, "{kw} {}", self.expr)
    }
}

/// A parsed PaQL package query.
#[derive(Debug, Clone, PartialEq)]
pub struct PaqlQuery {
    /// The package alias (`P` in `SELECT PACKAGE(R) AS P`).
    pub package_alias: String,
    /// The base relation name (`Recipes`).
    pub relation: String,
    /// The relation alias (`R`), if given.
    pub relation_alias: Option<String>,
    /// Maximum multiplicity of a tuple in the package. `None` means the
    /// default of 1 (each tuple appears at most once); `REPEAT k` allows a
    /// tuple to appear up to `k` times.
    pub repeat: Option<u32>,
    /// Base constraints (`WHERE`), evaluated per tuple.
    pub where_clause: Option<Expr>,
    /// Global constraints (`SUCH THAT`), evaluated per package.
    pub such_that: Option<GlobalFormula>,
    /// Optional objective.
    pub objective: Option<Objective>,
}

impl PaqlQuery {
    /// The effective maximum multiplicity of a tuple in the package.
    pub fn max_multiplicity(&self) -> u32 {
        self.repeat.unwrap_or(1).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_linearity_classification() {
        assert!(AggFunc::Sum.is_linear());
        assert!(AggFunc::Count.is_linear());
        assert!(!AggFunc::Avg.is_linear());
        assert!(!AggFunc::Min.is_linear());
    }

    #[test]
    fn formula_atoms_and_conjunctivity() {
        let a = GlobalFormula::Atom(GlobalConstraint {
            lhs: GlobalExpr::count_star(),
            op: CmpOp::Eq,
            rhs: GlobalExpr::Literal(3.0),
        });
        let b = GlobalFormula::Atom(GlobalConstraint {
            lhs: GlobalExpr::agg(AggFunc::Sum, "calories"),
            op: CmpOp::LtEq,
            rhs: GlobalExpr::Literal(2500.0),
        });
        let conj = a.clone().and(b.clone());
        assert!(conj.is_conjunctive());
        assert_eq!(conj.atoms().len(), 2);
        let disj = a.or(b);
        assert!(!disj.is_conjunctive());
    }

    #[test]
    fn cmp_compare_semantics() {
        assert!(CmpOp::Eq.compare(3.0, 3.0));
        assert!(CmpOp::LtEq.compare(2.0, 2.0));
        assert!(CmpOp::Lt.compare(1.0, 2.0));
        assert!(!CmpOp::Gt.compare(1.0, 2.0));
        assert!(CmpOp::NotEq.compare(1.0, 2.0));
    }

    #[test]
    fn display_round_trip_fragments() {
        let c = GlobalConstraint {
            lhs: GlobalExpr::agg(AggFunc::Sum, "P.calories"),
            op: CmpOp::GtEq,
            rhs: GlobalExpr::Literal(2000.0),
        };
        assert_eq!(c.to_string(), "SUM(P.calories) >= 2000");
        let obj = Objective {
            direction: ObjectiveDirection::Maximize,
            expr: GlobalExpr::agg(AggFunc::Sum, "P.protein"),
        };
        assert_eq!(obj.to_string(), "MAXIMIZE SUM(P.protein)");
    }

    #[test]
    fn max_multiplicity_defaults_to_one() {
        let q = PaqlQuery {
            package_alias: "P".into(),
            relation: "Recipes".into(),
            relation_alias: None,
            repeat: None,
            where_clause: None,
            such_that: None,
            objective: None,
        };
        assert_eq!(q.max_multiplicity(), 1);
        let q2 = PaqlQuery {
            repeat: Some(3),
            ..q
        };
        assert_eq!(q2.max_multiplicity(), 3);
    }
}
