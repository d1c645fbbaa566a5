//! Property-based tests for the relational substrate.

use minidb::csv::{read_table_str, write_table_string};
use minidb::eval::{eval, eval_predicate, like_match, BoundExpr};
use minidb::{
    BinaryOp, Column, ColumnType, DbResult, Expr, Schema, Table, Tuple, TupleId, UnaryOp, Value,
};
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
        for (a, b) in t.rows().zip(back.rows()) {
            for (x, y) in a.values().iter().zip(b.values()) {
                let xa = x.as_f64().unwrap();
                let ya = y.as_f64().unwrap();
                prop_assert!((xa - ya).abs() < 1e-9 * (1.0 + xa.abs()));
            }
        }
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

/// Bare, qualified and differently-cased references to [`oracle_schema`]'s
/// columns: all resolve.
const ORACLE_COLUMNS: [&str; 10] = ["i", "f", "t", "b", "j", "R.i", "P.f", "R.t", "F", "r.B"];

/// A random expression over every [`Expr`] variant and the given column
/// references, ill-typed ones included (they must fail the same way in
/// every evaluator).
fn random_expr(d: &mut Draws, columns: &[&str], depth: usize) -> Expr {
    if depth == 0 || d.below(4) == 0 {
        return if d.below(2) == 0 {
            Expr::col(d.pick(columns))
        } else {
            Expr::Literal(random_literal(d))
        };
    }
    let sub = |d: &mut Draws| Box::new(random_expr(d, columns, depth - 1));
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

const TYPES: [ColumnType; 4] = [
    ColumnType::Int,
    ColumnType::Float,
    ColumnType::Text,
    ColumnType::Bool,
];
const INTS: [i64; 8] = [0, 1, -1, 2, -3, i64::MIN, i64::MAX, (1 << 53) + 1];

/// One to six columns `c0, c1, …` over all four types.
fn random_schema(d: &mut Draws) -> Schema {
    let columns = (0..1 + d.below(6))
        .map(|i| Column::new(format!("c{i}"), d.pick(&TYPES)))
        .collect();
    Schema::new(columns).expect("distinct names")
}

/// A cell a column of type `ty` admits: NULL one time in five, an `Int` in
/// a `Float` column one time in four, and the awkward floats (±0, ±inf,
/// NaN) and integers (the extremes, one past 2^53) throughout.
fn random_cell(d: &mut Draws, ty: ColumnType) -> Value {
    if d.below(5) == 0 {
        return Value::Null;
    }
    match ty {
        ColumnType::Int => Value::Int(d.pick(&INTS)),
        ColumnType::Float if d.below(4) == 0 => Value::Int(d.pick(&INTS)),
        ColumnType::Float if d.below(8) == 0 => Value::Float(f64::NEG_INFINITY),
        ColumnType::Float => Value::Float(d.pick(&FLOATS)),
        ColumnType::Text => Value::Text(d.pick(&TEXTS).to_string()),
        ColumnType::Bool => Value::Bool(d.below(2) == 0),
    }
}

fn random_rows(d: &mut Draws, schema: &Schema, max: usize) -> Vec<Tuple> {
    (0..d.below(max + 1))
        .map(|_| {
            let cells = schema.columns().iter().map(|c| random_cell(d, c.ty));
            Tuple::new(cells.collect())
        })
        .collect()
}

/// A table of up to 40 random rows, loaded partly one by one and partly as
/// a batch.
fn random_table(d: &mut Draws) -> (Table, Vec<Tuple>) {
    let mut table = Table::new("t", random_schema(d));
    let rows = random_rows(d, &table.schema().clone(), 40);
    let single = d.below(rows.len() + 1);
    for row in &rows[..single] {
        table.insert(row.clone()).unwrap();
    }
    table.insert_all(rows[single..].to_vec()).unwrap();
    (table, rows)
}

/// What a cell reads back as: itself, except that a `Float` column stores
/// an `Int` as the `f64` of the same number (the documented widening).
fn stored(value: &Value, ty: ColumnType) -> Value {
    match (value, ty) {
        (Value::Int(i), ColumnType::Float) => Value::Float(*i as f64),
        (other, _) => other.clone(),
    }
}

/// A list of existing row ids: a run, an ascending subset, or anything at
/// all (unordered, with repeats) — possibly empty.
fn random_ids(d: &mut Draws, rows: usize) -> Vec<TupleId> {
    if rows == 0 {
        return Vec::new();
    }
    let id = |i: usize| TupleId(i as u32);
    match d.below(3) {
        0 => {
            let start = d.below(rows);
            (start..start + d.below(rows - start + 1)).map(id).collect()
        }
        1 => (0..rows).filter(|_| d.below(2) == 0).map(id).collect(),
        _ => (0..d.below(2 * rows)).map(|_| id(d.below(rows))).collect(),
    }
}

/// References to the columns of `schema` with one of the given types — or,
/// one time in eight, to any column at all (an ill-typed operand).
fn column_of(d: &mut Draws, schema: &Schema, types: &[ColumnType]) -> Option<Expr> {
    let any = d.below(8) == 0;
    let fitting: Vec<&Column> = schema
        .columns()
        .iter()
        .filter(|c| any || types.contains(&c.ty))
        .collect();
    if fitting.is_empty() {
        return None;
    }
    let name = &d.pick(&fitting).name;
    // Bare, qualified and differently-cased references all resolve.
    Some(Expr::col(match d.below(3) {
        0 => name.clone(),
        1 => format!("R.{name}"),
        _ => name.to_uppercase(),
    }))
}

/// A mostly well-typed numeric expression — what the column kernels cover —
/// with the occasional text or boolean operand, NULL literal and division
/// by a zero.
fn numeric_expr(d: &mut Draws, schema: &Schema, depth: usize) -> Expr {
    use BinaryOp::*;
    let number = |d: &mut Draws| match d.below(8) {
        0 => Value::Null,
        1..=3 => Value::Int(d.pick(&INTS)),
        _ => Value::Float(d.pick(&FLOATS)),
    };
    if depth == 0 || d.below(3) == 0 {
        let column = column_of(d, schema, &[ColumnType::Int, ColumnType::Float]);
        return match column {
            Some(column) if d.below(3) > 0 => column,
            _ => Expr::Literal(number(d)),
        };
    }
    match d.below(8) {
        0 => Expr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(numeric_expr(d, schema, depth - 1)),
        },
        // A truth value where a number is due: coerced by arithmetic,
        // refused by negation.
        1 => truth_expr(d, schema, depth - 1),
        _ => Expr::binary(
            d.pick(&[Add, Sub, Mul, Div]),
            numeric_expr(d, schema, depth - 1),
            numeric_expr(d, schema, depth - 1),
        ),
    }
}

/// A mostly well-typed truth-valued expression: numeric comparisons, text
/// `=`/`<>`/`IN` against literals, three-valued `AND`/`OR`/`NOT`, `BETWEEN`,
/// `IS NULL`, `LIKE` — and now and then a comparison across types, a list
/// of non-literals or a bare number or text read as a truth value.
fn truth_expr(d: &mut Draws, schema: &Schema, depth: usize) -> Expr {
    use BinaryOp::*;
    let text = |d: &mut Draws| Expr::lit(d.pick(&TEXTS));
    let negated = d.below(2) == 0;
    if depth == 0 {
        return column_of(d, schema, &[ColumnType::Bool]).unwrap_or(Expr::lit(negated));
    }
    let num = |d: &mut Draws| Box::new(numeric_expr(d, schema, depth - 1));
    match d.below(12) {
        0..=2 => Expr::Binary {
            op: d.pick(&[Eq, NotEq, Lt, LtEq, Gt, GtEq]),
            lhs: num(d),
            rhs: num(d),
        },
        3 | 4 => {
            let column = column_of(d, schema, &[ColumnType::Text]).unwrap_or_else(|| text(d));
            let (lhs, rhs) = if negated {
                (column, text(d))
            } else {
                (text(d), column)
            };
            Expr::binary(d.pick(&[Eq, NotEq, Eq, NotEq, Lt, GtEq]), lhs, rhs)
        }
        5 => Expr::InList {
            expr: Box::new(column_of(d, schema, &TYPES).unwrap_or_else(|| text(d))),
            list: (0..d.below(5))
                .map(|_| match d.below(6) {
                    0 => Expr::Literal(Value::Null),
                    1 => *num(d),
                    _ => text(d),
                })
                .collect(),
            negated,
        },
        6 => Expr::Between {
            expr: num(d),
            low: num(d),
            high: num(d),
            negated,
        },
        7 => Expr::IsNull {
            expr: Box::new(match d.below(3) {
                0 => column_of(d, schema, &TYPES).unwrap_or_else(|| text(d)),
                1 => *num(d),
                _ => truth_expr(d, schema, depth - 1),
            }),
            negated,
        },
        8 => Expr::Like {
            expr: Box::new(column_of(d, schema, &[ColumnType::Text]).unwrap_or_else(|| text(d))),
            pattern: d.pick(&PATTERNS).to_string(),
            negated,
        },
        9 => Expr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(truth_expr(d, schema, depth - 1)),
        },
        // A short-circuit's right branch may be one that fails.
        10 => Expr::binary(
            d.pick(&[And, Or]),
            truth_expr(d, schema, depth - 1),
            truth_expr(d, schema, depth - 1),
        ),
        _ => match d.below(3) {
            0 => *num(d),
            1 => text(d),
            _ => column_of(d, schema, &[ColumnType::Bool]).unwrap_or(Expr::lit(negated)),
        },
    }
}

/// The bits two forms must agree on. A NaN only has to be a NaN: IEEE 754
/// leaves the sign and payload of a computed NaN to the implementation, on
/// x86 they follow the operand order of the instruction, and the compiler
/// may commute the operands of `+` and `*` differently in the row form's
/// scalar code and a column kernel's loop. Every other value — signed
/// zeros and infinities included — must match bit for bit.
fn lane_bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// Each cell the same variant with the same payload.
fn identical_rows(a: &Tuple, b: &Tuple) -> bool {
    a.arity() == b.arity()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| identical(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

    /// The chunk form agrees with the row form — which agrees with the
    /// reference tree walker — on random tables (all four column types,
    /// NULLs everywhere, `Int`s widened into `Float` columns, ±0, ±inf and
    /// NaN cells), random expressions (every variant, well- and ill-typed
    /// operands, short-circuited branches that would fail) and random id
    /// lists (runs, subsets, unordered lists with repeats): the same bits
    /// in every lane (see [`lane_bits`]), or the same error — the first
    /// failing lane's.
    #[test]
    fn chunk_form_matches_the_row_form_lane_for_lane(seed in 0u64..u64::MAX) {
        let mut d = Draws(seed);
        let (table, _) = random_table(&mut d);
        let schema = table.schema();
        let names: Vec<String> = schema
            .columns()
            .iter()
            .flat_map(|c| [c.name.clone(), format!("P.{}", c.name), c.name.to_uppercase()])
            .collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let expr = match d.below(5) {
            0 => random_expr(&mut d, &names, 4),
            1 | 2 => numeric_expr(&mut d, schema, 3),
            _ => truth_expr(&mut d, schema, 3),
        };
        let bound = BoundExpr::bind(&expr, schema).expect("every generated column exists");
        const CTX: &str = "argument of SUM";
        for _ in 0..4 {
            let ids = random_ids(&mut d, table.len());
            let sel = table.select(&ids).unwrap();
            prop_assert_eq!(sel.len(), ids.len());
            let mut by_row: Vec<DbResult<Value>> = Vec::new();
            for (lane, id) in ids.iter().enumerate() {
                let row = table.require(*id).unwrap();
                prop_assert_eq!(sel.row(lane).id(), *id);
                let got = bound.eval(&row).map(|v| v.into_owned());
                match (reference_eval::eval(&expr, schema, &row.to_tuple()), &got) {
                    (Ok(w), Ok(g)) => prop_assert!(identical(&w, g), "{expr}: {w:?} vs {g:?} on {row}"),
                    (Err(w), Err(g)) => prop_assert_eq!(&w, g),
                    (want, _) => prop_assert!(false, "{expr}: {want:?} vs {got:?} on {row}"),
                }
                by_row.push(got);
            }

            // As a predicate: NULL and text are false, the first failing
            // lane's error is the chunk's.
            let want: DbResult<Vec<bool>> = by_row
                .iter()
                .map(|v| Ok(v.clone()?.as_bool().unwrap_or(false)))
                .collect();
            prop_assert_eq!(bound.eval_predicate_chunk(&sel), want, "{} over {:?}", expr, ids);

            // As an aggregate argument: NULL lanes are invalid, every other
            // lane carries the bits of the row form's number.
            let want: DbResult<Vec<Option<u64>>> = by_row
                .iter()
                .map(|v| match v.clone()? {
                    Value::Null => Ok(None),
                    v => Ok(Some(lane_bits(v.expect_f64(CTX)?))),
                })
                .collect();
            let mut vals = vec![0.0; ids.len()];
            let mut valid = vec![false; ids.len()];
            let got = bound.eval_f64_chunk(&sel, CTX, &mut vals, &mut valid).map(|()| {
                let lanes = vals.iter().zip(&valid);
                lanes.map(|(x, ok)| ok.then(|| lane_bits(*x))).collect::<Vec<_>>()
            });
            prop_assert_eq!(got, want, "{} over {:?}", expr, ids);
        }
    }

    /// What goes into a table comes back out of its row views — same
    /// variant, same bits, the `Int`-in-`Float` widening the one exception —
    /// and a clone shares nothing observable with its original: appending
    /// to either (a never-seen dictionary string included) leaves the
    /// other, and any selection taken from it, exactly as it was.
    #[test]
    fn tables_round_trip_and_clones_are_independent(seed in 0u64..u64::MAX) {
        let mut d = Draws(seed);
        let (mut table, rows) = random_table(&mut d);
        let schema = table.schema().clone();
        let types: Vec<ColumnType> = schema.columns().iter().map(|c| c.ty).collect();
        let expected = |rows: &[Tuple]| -> Vec<Tuple> {
            rows.iter()
                .map(|r| Tuple::new(r.values().iter().zip(&types).map(|(v, ty)| stored(v, *ty)).collect()))
                .collect()
        };
        let read = |t: &Table| -> Vec<Tuple> { t.rows().map(|r| r.to_tuple()).collect() };
        prop_assert_eq!(table.len(), rows.len());
        for ((id, row), want) in table.iter().zip(expected(&rows)) {
            prop_assert_eq!(row.id(), id);
            prop_assert!(identical_rows(&row.to_tuple(), &want), "{row} vs {want}");
            for (idx, cell) in want.values().iter().enumerate() {
                prop_assert!(identical(&row.get(idx).unwrap(), cell));
            }
        }

        // A probe over the original: a selection, and a text predicate that
        // is true only of the string the clone is about to learn.
        let ids = random_ids(&mut d, table.len());
        let fresh = format!("fresh-{seed}");
        let text_column = schema.columns().iter().find(|c| c.ty == ColumnType::Text);
        let probe = match text_column {
            Some(c) => Expr::col(c.name.as_str()).eq(Expr::lit(fresh.as_str())),
            None => numeric_expr(&mut d, &schema, 2),
        };
        let probe = BoundExpr::bind(&probe, &schema).unwrap();
        let (len, stamp, bytes) = (table.len(), table.fingerprint(), table.approx_bytes());
        let before = read(&table);

        let mut clone = table.clone();
        prop_assert_eq!(clone.fingerprint(), stamp);
        let sel = table.select(&ids).unwrap();
        let verdicts = probe.eval_predicate_chunk(&sel);
        let mut extra = random_rows(&mut d, &schema, 6);
        extra.push(Tuple::new(
            types
                .iter()
                .map(|ty| match ty {
                    ColumnType::Text => Value::Text(fresh.clone()),
                    _ => Value::Null,
                })
                .collect(),
        ));
        clone.insert_all(extra.clone()).unwrap();

        // The original — and the selection taken from it — did not move.
        prop_assert_eq!((table.len(), table.fingerprint(), table.approx_bytes()), (len, stamp, bytes));
        prop_assert_eq!(probe.eval_predicate_chunk(&sel), verdicts.clone());
        if text_column.is_some() {
            prop_assert_eq!(verdicts, Ok(vec![false; ids.len()]));
            let learned = probe.eval_predicate_chunk(&clone.select_all()).unwrap();
            prop_assert_eq!(learned.iter().filter(|&&v| v).count(), 1);
        }
        for (got, want) in read(&table).iter().zip(&before) {
            prop_assert!(identical_rows(got, want));
        }
        // The clone is the original plus the batch.
        prop_assert_ne!(clone.fingerprint(), stamp);
        prop_assert_eq!(clone.len(), len + extra.len());
        let all: Vec<Tuple> = before.iter().cloned().chain(expected(&extra)).collect();
        for (got, want) in read(&clone).iter().zip(&all) {
            prop_assert!(identical_rows(got, want), "{got} vs {want}");
        }
        // And the other way round.
        let clone_stamp = clone.fingerprint();
        table.insert_all(random_rows(&mut d, &schema, 3)).unwrap();
        prop_assert_eq!((clone.len(), clone.fingerprint()), (len + extra.len(), clone_stamp));
        for (got, want) in read(&clone).iter().zip(&all) {
            prop_assert!(identical_rows(got, want));
        }
    }

    /// The bound evaluator agrees with the reference tree walker on random
    /// expressions × random tuples: identical values (variant and bits) and
    /// identical errors, through `BoundExpr` and through the one-row
    /// conveniences.
    #[test]
    fn bound_evaluation_matches_the_reference_walker(seed in 0u64..u64::MAX) {
        let mut d = Draws(seed);
        let schema = oracle_schema();
        let expr = random_expr(&mut d, &ORACLE_COLUMNS, 4);
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
