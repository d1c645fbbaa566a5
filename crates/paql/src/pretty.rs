//! Pretty-printing and natural-language rendering.
//!
//! The PackageBuilder interface shows "natural language descriptions" of
//! constraints next to the package template (Figure 1). This module provides
//! both a PaQL round-trip printer (so interface edits can be re-parsed) and
//! the English rendering of base constraints, global constraints and
//! objectives.

use minidb::Expr;

use crate::ast::{
    AggCall, AggFunc, CmpOp, GlobalConstraint, GlobalExpr, GlobalFormula, Objective,
    ObjectiveDirection, PaqlQuery,
};

/// Renders a query back to PaQL text. The output parses back to an
/// equivalent query (`parse(to_paql(q)) == q` modulo BETWEEN desugaring).
pub fn to_paql(query: &PaqlQuery) -> String {
    let target = query
        .relation_alias
        .clone()
        .unwrap_or_else(|| query.relation.clone());
    let mut s = format!(
        "SELECT PACKAGE({target}) AS {} FROM {}",
        query.package_alias, query.relation
    );
    if let Some(a) = &query.relation_alias {
        s.push_str(&format!(" {a}"));
    }
    if let Some(k) = query.repeat {
        s.push_str(&format!(" REPEAT {k}"));
    }
    if let Some(w) = &query.where_clause {
        s.push_str(&format!(" WHERE {w}"));
    }
    if let Some(st) = &query.such_that {
        s.push_str(&format!(" SUCH THAT {st}"));
    }
    if let Some(o) = &query.objective {
        s.push_str(&format!(" {o}"));
    }
    s
}

/// English description of a whole query, one sentence per clause.
pub fn describe_query(query: &PaqlQuery) -> String {
    let mut lines = Vec::new();
    lines.push(format!(
        "Build a package of tuples from '{}'{}.",
        query.relation,
        match query.repeat {
            None => String::new(),
            Some(1) => String::new(),
            Some(k) => format!(", where each tuple may appear up to {k} times"),
        }
    ));
    if let Some(w) = &query.where_clause {
        lines.push(format!(
            "Every tuple in the package must satisfy: {}.",
            describe_expr(w)
        ));
    }
    if let Some(st) = &query.such_that {
        lines.push(format!(
            "Together, the package must satisfy: {}.",
            describe_formula(st)
        ));
    }
    if let Some(o) = &query.objective {
        lines.push(format!("{}.", describe_objective(o)));
    }
    lines.join("\n")
}

/// English rendering of a base (per-tuple) constraint.
pub fn describe_expr(expr: &Expr) -> String {
    // Base constraints read naturally in their SQL form once qualifiers are
    // stripped; keep the SQL text but drop the outermost parentheses.
    let s = expr.to_string();
    s.trim_start_matches('(').trim_end_matches(')').to_string()
}

/// English rendering of an aggregate call.
pub fn describe_agg(call: &AggCall) -> String {
    let quantity = match (&call.func, &call.arg) {
        (AggFunc::Count, _) => "the number of tuples".to_string(),
        (AggFunc::Sum, Some(e)) => format!("the total {}", describe_arg(e)),
        (AggFunc::Avg, Some(e)) => format!("the average {}", describe_arg(e)),
        (AggFunc::Min, Some(e)) => format!("the smallest {}", describe_arg(e)),
        (AggFunc::Max, Some(e)) => format!("the largest {}", describe_arg(e)),
        (f, None) => format!("{}(*)", f.name()),
    };
    match &call.filter {
        None => quantity,
        Some(p) => format!("{quantity} among tuples where {}", describe_expr(p)),
    }
}

fn describe_arg(expr: &Expr) -> String {
    match expr {
        Expr::Column(c) => c.clone(),
        other => other.to_string(),
    }
}

/// English rendering of a global expression.
pub fn describe_global_expr(expr: &GlobalExpr) -> String {
    match expr {
        GlobalExpr::Agg(a) => describe_agg(a),
        GlobalExpr::Literal(x) => format_number(*x),
        GlobalExpr::Binary { op, lhs, rhs } => format!(
            "{} {} {}",
            describe_global_expr(lhs),
            op.symbol(),
            describe_global_expr(rhs)
        ),
    }
}

/// English rendering of one global constraint.
pub fn describe_constraint(c: &GlobalConstraint) -> String {
    let lhs = describe_global_expr(&c.lhs);
    let rhs = describe_global_expr(&c.rhs);
    let verb = match c.op {
        CmpOp::Eq => "must be exactly",
        CmpOp::NotEq => "must differ from",
        CmpOp::Lt => "must be less than",
        CmpOp::LtEq => "must be at most",
        CmpOp::Gt => "must be more than",
        CmpOp::GtEq => "must be at least",
    };
    format!("{lhs} {verb} {rhs}")
}

/// English rendering of a global formula.
pub fn describe_formula(formula: &GlobalFormula) -> String {
    match formula {
        GlobalFormula::Atom(c) => describe_constraint(c),
        GlobalFormula::And(a, b) => format!("{}, and {}", describe_formula(a), describe_formula(b)),
        GlobalFormula::Or(a, b) => {
            format!("either {} or {}", describe_formula(a), describe_formula(b))
        }
        GlobalFormula::Not(a) => format!("it is not the case that {}", describe_formula(a)),
    }
}

/// English rendering of the objective.
pub fn describe_objective(obj: &Objective) -> String {
    // "the largest the total protein" reads badly; drop a leading article
    // from the quantity description.
    let quantity = describe_global_expr(&obj.expr);
    let quantity = quantity.strip_prefix("the ").unwrap_or(&quantity);
    match obj.direction {
        ObjectiveDirection::Maximize => {
            format!("Among valid packages, prefer those with the largest {quantity}")
        }
        ObjectiveDirection::Minimize => {
            format!("Among valid packages, prefer those with the smallest {quantity}")
        }
    }
}

fn format_number(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const MEAL_QUERY: &str = "SELECT PACKAGE(R) AS P FROM Recipes R WHERE R.gluten = 'free' \
        SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
        MAXIMIZE SUM(P.protein)";

    #[test]
    fn paql_round_trips_through_the_printer() {
        let q = parse(MEAL_QUERY).unwrap();
        let printed = to_paql(&q);
        let q2 = parse(&printed).unwrap();
        assert_eq!(q, q2, "printed query was: {printed}");
    }

    #[test]
    fn describes_the_meal_query_in_english() {
        let q = parse(MEAL_QUERY).unwrap();
        let text = describe_query(&q);
        assert!(text.contains("Build a package of tuples from 'Recipes'"));
        assert!(text.contains("the number of tuples must be exactly 3"));
        assert!(text.contains("the total P.calories must be at least 2000"));
        assert!(text.contains("prefer those with the largest total P.protein"));
    }

    #[test]
    fn describes_filters_and_disjunctions() {
        let q = parse(
            "SELECT PACKAGE(S) AS P FROM stocks S \
             SUCH THAT SUM(P.price) FILTER (WHERE S.sector = 'tech') >= 15000 \
                OR COUNT(*) = 0",
        )
        .unwrap();
        let text = describe_formula(q.such_that.as_ref().unwrap());
        assert!(text.contains("among tuples where"));
        assert!(text.starts_with("either "));
    }

    #[test]
    fn describes_repeat_and_minimize() {
        let q =
            parse("SELECT PACKAGE(R) AS P FROM meals R REPEAT 2 MINIMIZE SUM(P.price)").unwrap();
        let text = describe_query(&q);
        assert!(text.contains("up to 2 times"));
        assert!(text.contains("smallest total P.price"));
    }

    #[test]
    fn number_formatting_drops_trailing_zero() {
        assert_eq!(format_number(2000.0), "2000");
        assert_eq!(format_number(0.3), "0.3");
    }
}
