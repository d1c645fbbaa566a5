//! Property-based tests for the relational substrate.

use minidb::csv::{read_table_str, write_table_string};
use minidb::eval::{eval, eval_predicate, like_match, BoundExpr};
use minidb::ops::{aggregate, cross_join, filter, scan, AggFunc, Aggregate};
use minidb::{BinaryOp, ColumnType, Expr, Schema, Table, Tuple, UnaryOp, Value};
use proptest::prelude::*;

#[path = "common/reference_eval.rs"]
mod reference_eval;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1_000_000i64..1_000_000).prop_map(Value::Int),
        (-1.0e6f64..1.0e6).prop_map(Value::Float),
        "[a-zA-Z0-9 _-]{0,12}".prop_map(Value::Text),
    ]
}

fn numeric_table(rows: Vec<(f64, f64)>) -> Table {
    let schema = Schema::build(&[("w", ColumnType::Float), ("v", ColumnType::Float)]);
    let mut t = Table::new("t", schema);
    for (w, v) in rows {
        t.insert(Tuple::new(vec![Value::Float(w), Value::Float(v)]))
            .unwrap();
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// The total order on values is antisymmetric and transitive (sorting any
    /// triple produces a consistent order).
    #[test]
    fn value_total_order_is_consistent(a in value_strategy(), b in value_strategy(), c in value_strategy()) {
        use std::cmp::Ordering;
        // Antisymmetry.
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        // Transitivity via sort.
        let mut v = [a.clone(), b.clone(), c.clone()];
        v.sort();
        for w in v.windows(2) {
            prop_assert_ne!(w[0].total_cmp(&w[1]), Ordering::Greater);
        }
    }

    /// CSV write → read round-trips every numeric/text table (modulo type
    /// inference widening ints that look like floats).
    #[test]
    fn csv_round_trips_numeric_tables(rows in prop::collection::vec((-1.0e3f64..1.0e3, -1.0e3f64..1.0e3), 1..30)) {
        let t = numeric_table(rows);
        let csv = write_table_string(&t).unwrap();
        let back = read_table_str("t", &csv).unwrap();
        prop_assert_eq!(t.len(), back.len());
        for (a, b) in t.rows().iter().zip(back.rows()) {
            for (x, y) in a.values().iter().zip(b.values()) {
                let xa = x.as_f64().unwrap();
                let ya = y.as_f64().unwrap();
                prop_assert!((xa - ya).abs() < 1e-9 * (1.0 + xa.abs()));
            }
        }
    }

    /// Filtering never invents rows, and every surviving row satisfies the
    /// predicate.
    #[test]
    fn filter_is_sound(rows in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 0..50), threshold in 0.0f64..100.0) {
        let t = numeric_table(rows);
        let rel = scan(&t);
        let pred = Expr::col("w").lt_eq(Expr::lit(threshold));
        let out = filter(&rel, &pred).unwrap();
        prop_assert!(out.len() <= rel.len());
        for row in &out.rows {
            prop_assert!(row.get_f64(&out.schema, "w").unwrap() <= threshold);
        }
        let kept_manually = t
            .rows()
            .iter()
            .filter(|r| r.get_f64(t.schema(), "w").unwrap() <= threshold)
            .count();
        prop_assert_eq!(out.len(), kept_manually);
    }

    /// SUM/AVG/MIN/MAX computed by the aggregate operator match a direct fold.
    #[test]
    fn aggregates_match_reference(rows in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..40)) {
        let expected_sum: f64 = rows.iter().map(|(w, _)| *w).sum();
        let expected_min = rows.iter().map(|(w, _)| *w).fold(f64::INFINITY, f64::min);
        let expected_max = rows.iter().map(|(w, _)| *w).fold(f64::NEG_INFINITY, f64::max);
        let n = rows.len();
        let t = numeric_table(rows);
        let rel = scan(&t);
        let out = aggregate(
            &rel,
            &[],
            &[
                Aggregate { name: "s".into(), func: AggFunc::Sum, expr: Some(Expr::col("w")) },
                Aggregate { name: "a".into(), func: AggFunc::Avg, expr: Some(Expr::col("w")) },
                Aggregate { name: "lo".into(), func: AggFunc::Min, expr: Some(Expr::col("w")) },
                Aggregate { name: "hi".into(), func: AggFunc::Max, expr: Some(Expr::col("w")) },
                Aggregate { name: "n".into(), func: AggFunc::Count, expr: None },
            ],
        )
        .unwrap();
        let row = &out.rows[0];
        prop_assert!((row.get_f64(&out.schema, "s").unwrap() - expected_sum).abs() < 1e-6);
        prop_assert!((row.get_f64(&out.schema, "a").unwrap() - expected_sum / n as f64).abs() < 1e-6);
        prop_assert!((row.get_f64(&out.schema, "lo").unwrap() - expected_min).abs() < 1e-9);
        prop_assert!((row.get_f64(&out.schema, "hi").unwrap() - expected_max).abs() < 1e-9);
        prop_assert_eq!(row.get_f64(&out.schema, "n").unwrap() as usize, n);
    }

    /// The cross join has exactly |L|·|R| rows and concatenated arity.
    #[test]
    fn cross_join_shape(l in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 0..12),
                        r in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 0..12)) {
        let lt = numeric_table(l);
        let rt = numeric_table(r);
        let joined = cross_join(&scan(&lt), &scan(&rt), "r");
        prop_assert_eq!(joined.len(), lt.len() * rt.len());
        prop_assert_eq!(joined.schema.arity(), 4);
    }

    /// LIKE with a pattern built from a literal string matches that string.
    #[test]
    fn like_matches_own_literal(s in "[a-z]{0,10}") {
        prop_assert!(like_match(&s, &s));
        prop_assert!(like_match(&s, "%"));
        let text = format!("{s}suffix");
        let prefix_pattern = format!("{s}%");
        prop_assert!(like_match(&text, &prefix_pattern));
    }

    /// Expression evaluation never panics on arbitrary numeric inputs.
    #[test]
    fn arithmetic_eval_never_panics(w in -1.0e3f64..1.0e3, v in -1.0e3f64..1.0e3, k in -100.0f64..100.0) {
        let schema = Schema::build(&[("w", ColumnType::Float), ("v", ColumnType::Float)]);
        let tuple = Tuple::new(vec![Value::Float(w), Value::Float(v)]);
        let expr = Expr::binary(
            minidb::BinaryOp::Div,
            Expr::binary(minidb::BinaryOp::Mul, Expr::col("w"), Expr::lit(k)),
            Expr::binary(minidb::BinaryOp::Sub, Expr::col("v"), Expr::col("v")),
        );
        // Division by zero yields NULL rather than panicking.
        let out = eval(&expr, &schema, &tuple).unwrap();
        prop_assert!(out.is_null());
    }
}

/// A deterministic draw stream (splitmix64) for the recursive expression
/// generator — the offline proptest shim has no recursive strategies, so a
/// property draws one seed and the generator expands it.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())].clone()
    }
}

const TEXTS: [&str; 7] = ["", "a", "ab", "abc", "a%c", "xaybzaab", "日本語"];
const PATTERNS: [&str; 10] = [
    "", "%", "_", "a%", "%c", "a_c", "%a%b%", "abc", "__%", "%本_",
];
const FLOATS: [f64; 8] = [0.0, -0.0, 1.0, 2.5, -7.25, 1e300, f64::NAN, f64::INFINITY];

fn oracle_schema() -> Schema {
    Schema::build(&[
        ("i", ColumnType::Int),
        ("f", ColumnType::Float),
        ("t", ColumnType::Text),
        ("b", ColumnType::Bool),
        ("j", ColumnType::Int),
    ])
}

/// One row of [`oracle_schema`]; every cell is NULL one time in five.
fn random_tuple(d: &mut Draws) -> Tuple {
    let cells = [
        Value::Int(d.below(7) as i64 - 3),
        Value::Float(d.pick(&FLOATS)),
        Value::Text(d.pick(&TEXTS).to_string()),
        Value::Bool(d.below(2) == 0),
        Value::Int(d.below(7) as i64 - 3),
    ];
    Tuple::new(
        cells
            .into_iter()
            .map(|v| if d.below(5) == 0 { Value::Null } else { v })
            .collect(),
    )
}

fn random_literal(d: &mut Draws) -> Value {
    match d.below(6) {
        0 => Value::Null,
        1 => Value::Bool(d.below(2) == 0),
        2 | 3 => Value::Int(d.below(7) as i64 - 3),
        4 => Value::Float(d.pick(&FLOATS)),
        _ => Value::Text(d.pick(&TEXTS).to_string()),
    }
}

/// A random expression over every [`Expr`] variant, ill-typed ones
/// included (they must fail the same way in both evaluators).
fn random_expr(d: &mut Draws, depth: usize) -> Expr {
    if depth == 0 || d.below(4) == 0 {
        return if d.below(2) == 0 {
            // Bare, qualified and differently-cased references all resolve.
            Expr::col(d.pick(&["i", "f", "t", "b", "j", "R.i", "P.f", "R.t", "F", "r.B"]))
        } else {
            Expr::Literal(random_literal(d))
        };
    }
    let sub = |d: &mut Draws| Box::new(random_expr(d, depth - 1));
    match d.below(10) {
        0..=3 => {
            use BinaryOp::*;
            let op = d.pick(&[Add, Sub, Mul, Div, Eq, NotEq, Lt, LtEq, Gt, GtEq, And, Or]);
            Expr::Binary {
                op,
                lhs: sub(d),
                rhs: sub(d),
            }
        }
        4 => Expr::Unary {
            op: d.pick(&[UnaryOp::Not, UnaryOp::Neg]),
            expr: sub(d),
        },
        5 => Expr::Between {
            expr: sub(d),
            low: sub(d),
            high: sub(d),
            negated: d.below(2) == 0,
        },
        6 | 7 => Expr::InList {
            expr: sub(d),
            list: (0..d.below(4)).map(|_| *sub(d)).collect(),
            negated: d.below(2) == 0,
        },
        8 => Expr::IsNull {
            expr: sub(d),
            negated: d.below(2) == 0,
        },
        _ => Expr::Like {
            expr: sub(d),
            pattern: d.pick(&PATTERNS).to_string(),
            negated: d.below(2) == 0,
        },
    }
}

/// Same variant, same payload — floats by bit pattern, so `-0.0`, NaN and
/// `Int(2)` vs `Float(2.0)` (equal under `Value`'s own `PartialEq`) all
/// count as differences.
fn identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Text(x), Value::Text(y)) => x == y,
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

    /// The bound evaluator agrees with the reference tree walker on random
    /// expressions × random tuples: identical values (variant and bits) and
    /// identical errors, through `BoundExpr` and through the one-row
    /// conveniences.
    #[test]
    fn bound_evaluation_matches_the_reference_walker(seed in 0u64..u64::MAX) {
        let mut d = Draws(seed);
        let schema = oracle_schema();
        let expr = random_expr(&mut d, 4);
        let bound = BoundExpr::bind(&expr, &schema).expect("every generated column exists");
        for _ in 0..8 {
            let tuple = random_tuple(&mut d);
            let want = reference_eval::eval(&expr, &schema, &tuple);
            let got = bound.eval(&tuple).map(|v| v.into_owned());
            match (&want, &got) {
                (Ok(w), Ok(g)) => prop_assert!(identical(w, g), "{expr}: {w:?} vs {g:?} on {tuple}"),
                (Err(w), Err(g)) => prop_assert_eq!(w, g),
                _ => prop_assert!(false, "{expr}: {want:?} vs {got:?} on {tuple}"),
            }
            prop_assert_eq!(
                reference_eval::eval_predicate(&expr, &schema, &tuple),
                bound.eval_predicate(&tuple)
            );
            prop_assert_eq!(
                bound.eval_predicate(&tuple),
                eval_predicate(&expr, &schema, &tuple)
            );
            match (eval(&expr, &schema, &tuple), &got) {
                (Ok(v), Ok(g)) => prop_assert!(identical(&v, g)),
                (Err(e), Err(g)) => prop_assert_eq!(&e, g),
                (free, _) => prop_assert!(false, "{expr}: {free:?} vs {got:?}"),
            }
        }
    }

    /// The iterative `LIKE` matcher agrees with the reference's recursive
    /// backtracking on random subjects and patterns over a small alphabet
    /// (so wildcards and literals actually collide).
    #[test]
    fn like_matches_the_recursive_reference(seed in 0u64..u64::MAX) {
        let mut d = Draws(seed);
        let word = |d: &mut Draws, alphabet: &[char], max: usize| -> String {
            (0..d.below(max + 1)).map(|_| d.pick(alphabet)).collect()
        };
        let subject = word(&mut d, &['a', 'b', 'é'], 10);
        let pattern = word(&mut d, &['a', 'b', 'é', '%', '%', '_'], 7);
        prop_assert_eq!(
            like_match(&subject, &pattern),
            reference_eval::like_match(&subject, &pattern),
            "'{}' LIKE '{}'", subject, pattern
        );
    }
}
