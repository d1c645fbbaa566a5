//! Property tests: the columnar [`CandidateView`] path agrees with the
//! interpreted oracle on every scenario.
//!
//! The refactor routed `objective_value`, `violation` and `is_valid` through
//! precomputed columns. The interpreted expression-tree path
//! ([`Package::formula_violation`], [`Package::satisfies`],
//! [`Package::objective_value`]) is kept as the oracle; these properties
//! assert bit-for-bit-close agreement across random queries and random
//! packages over **every family in the scenario registry**
//! (`datagen::scenarios()` — recipes through TPC-H-lite lineitem),
//! including FILTER terms, non-linear aggregates, REPEAT multiplicities and
//! empty packages. A family added to the registry is covered here with no
//! test change.
//!
//! The chunk-at-a-time scan kernel (`ViewState::move_scan`) is held to a
//! stricter standard against the point path it replaced in the full scans:
//! **bit-for-bit** equality with `ViewState::score_with`, over every family,
//! every formula shape the compiled form can take, resident and paged.
//!
//! The cold build itself — bound base scan, one fused materialization pass —
//! is held to the same standard against a per-term, per-row rebuild through
//! the reference tree-walking evaluator
//! (`minidb/tests/common/reference_eval.rs`): candidates, term columns,
//! inclusion masks and chunk metadata, bit for bit, at every thread count
//! and in both storage modes.

use minidb::{Table, Tuple, TupleId, Value};
use packagebuilder::package::Package;
use packagebuilder::par::{chunk_count, ParExec, CHUNK_WIDTH};
use packagebuilder::spec::{BuildCtx, PackageSpec};
use packagebuilder::view::ViewState;
use packagebuilder::ColumnPolicy;
use proptest::prelude::*;

use datagen::{scenarios, QueryParams, Scenario, Seed};

#[path = "../../minidb/tests/common/reference_eval.rs"]
mod reference_eval;

/// Draws a random package over the spec's candidates (possibly empty,
/// possibly with repeated members up to the REPEAT bound).
fn random_package(spec: &PackageSpec<'_>, picks: &[usize], mults: &[u32]) -> Package {
    let mut p = Package::new();
    for (pick, mult) in picks.iter().zip(mults) {
        if spec.candidate_count() == 0 {
            break;
        }
        let tid = spec.candidates[pick % spec.candidate_count()];
        let m = (*mult).clamp(1, spec.max_multiplicity);
        if p.multiplicity(tid) + m <= spec.max_multiplicity {
            p.add(tid, m);
        }
    }
    p
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

/// A copy of `table` with every third value of `column` replaced by NULL,
/// so aggregates over it see NULL arguments on some rows.
fn with_nulls(table: &Table, column: &str) -> Table {
    let col = table.schema().require(column).unwrap();
    let mut out = Table::new(table.name(), table.schema().clone());
    for (i, row) in table.rows().enumerate() {
        let mut values = row.values();
        if i % 3 == 1 {
            values[col] = Value::Null;
        }
        out.insert(Tuple::new(values)).unwrap();
    }
    out
}

/// One query per shape the compiled formula can take, over the scenario's
/// own columns: windows with FILTER, AVG against AVG, MIN/MAX terms, OR and
/// NOT, `<>`, and arithmetic with a division that hits zero on the empty
/// package.
fn scan_query(
    s: &Scenario,
    shape: usize,
    (a, b): (&str, &str),
    (lo, hi): (f64, f64),
    count: u64,
    repeat: Option<u32>,
) -> String {
    let filter = s
        .filter
        .map(|f| format!(" FILTER (WHERE {f})"))
        .unwrap_or_default();
    let (such_that, objective) = match shape % 5 {
        0 => (
            format!("COUNT(*) <= {count} AND SUM(P.{a}){filter} BETWEEN {lo:.2} AND {hi:.2}"),
            format!("MAXIMIZE SUM(P.{b})"),
        ),
        1 => (
            format!("COUNT(*) >= {count} AND AVG(P.{a}) >= AVG(P.{b}){filter}"),
            format!("MINIMIZE AVG(P.{b})"),
        ),
        2 => (
            format!("MIN(P.{a}) >= {lo:.2} AND MAX(P.{b}){filter} <= {hi:.2}"),
            format!("MAXIMIZE MIN(P.{b}) + MAX(P.{a})"),
        ),
        3 => (
            format!(
                "COUNT(*) = {count} AND (SUM(P.{a}) <= {hi:.2} \
                 OR NOT (AVG(P.{b}) >= {lo:.2} AND COUNT(*){filter} >= 1))"
            ),
            format!("MAXIMIZE SUM(P.{a})"),
        ),
        _ => (
            format!(
                "SUM(P.{a}) / COUNT(P.{b}){filter} <= {hi:.2} AND COUNT(P.{a}) <> {count} \
                 AND NOT MAX(P.{a}) - MIN(P.{a}) > {hi:.2}"
            ),
            format!("MINIMIZE SUM(P.{a}) - 2 * SUM(P.{b}){filter}"),
        ),
    };
    let repeat = repeat.map(|k| format!(" REPEAT {k}")).unwrap_or_default();
    format!(
        "SELECT PACKAGE(R) AS P FROM {} R{repeat} SUCH THAT {such_that} {objective}",
        s.relation
    )
}

fn score_bits((v, o): (f64, Option<f64>)) -> (u64, Option<u64>) {
    (v.to_bits(), o.map(f64::to_bits))
}

/// Asserts that the scan kernel scores every "+1 at `i`" move of `state`
/// exactly as `score_with` does — after no prefix and after the removal of
/// each of `removed` — with and without the objective.
fn assert_kernel_matches_point_path(state: &ViewState<'_>, removed: &[usize], context: &str) {
    let n = state.view().candidate_count();
    let mut prefixes: Vec<Vec<(usize, i64)>> = vec![Vec::new()];
    prefixes.extend(removed.iter().map(|&m| vec![(m, -1)]));
    for want_objective in [true, false] {
        let scan = state.move_scan(prefixes.clone(), want_objective);
        for c in 0..chunk_count(n) {
            let mut chunk = scan.chunk(c);
            let range = chunk.range();
            for (p, prefix) in prefixes.iter().enumerate() {
                let scores = chunk.score(p);
                assert_eq!(scores.violations().len(), range.len());
                for idx in range.clone() {
                    if state.multiplicity(idx) >= state.view().max_multiplicity() {
                        continue; // no legal "+1": the slot is unspecified
                    }
                    let mut changes = prefix.clone();
                    changes.push((idx, 1));
                    let (v, o) = state.score_with(&changes);
                    let expected = (v, o.filter(|_| want_objective));
                    assert_eq!(
                        score_bits(scores.get(idx - range.start)),
                        score_bits(expected),
                        "{context}: +1 at {idx} after {prefix:?} (objective: {want_objective})"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Columnar objective, violation and validity agree with the interpreted
    /// oracle on random queries and random packages across every registered
    /// scenario family.
    #[test]
    fn columnar_matches_interpreted_oracle(
        scenario_pick in 0usize..64,
        seed in 0u64..5_000,
        count in 1u64..5,
        col_a in 0usize..4,
        col_b in 0usize..4,
        agg_pick in 0usize..4,
        lo in 10.0f64..500.0,
        width in 10.0f64..2000.0,
        use_filter in prop::bool::ANY,
        repeat in prop::option::of(2u32..4),
        minimize in prop::bool::ANY,
        picks in prop::collection::vec(0usize..64, 0..6),
        mults in prop::collection::vec(1u32..4, 6),
    ) {
        let registry = scenarios();
        let scenario = &registry[scenario_pick % registry.len()];
        let table = (scenario.build)(scenario.property_n, Seed(seed));
        let text = scenario.random_query(&QueryParams {
            count, col_a, col_b, agg_pick, lo, width, use_filter, repeat, minimize,
        });
        let analyzed = paql::compile(&text, table.schema()).expect("generated query compiles");
        let spec = PackageSpec::build(&analyzed, &table, &BuildCtx::default()).unwrap();
        let package = random_package(&spec, &picks, &mults);

        // Interpreted oracle.
        let formula = spec.formula.as_ref().expect("query has a formula");
        let objective = spec.objective.as_ref().expect("query has an objective");
        let oracle_violation = package.formula_violation(&table, formula).unwrap();
        let oracle_satisfied = package.satisfies(&table, formula).unwrap();
        let oracle_objective = package.objective_value(&table, objective).unwrap();
        let oracle_valid = oracle_satisfied
            && package.max_multiplicity() <= spec.max_multiplicity
            && package
                .members()
                .all(|(tid, _)| spec.candidates.binary_search(&tid).is_ok());

        // Columnar path.
        let view_violation = spec.violation(&package).unwrap();
        let view_objective = spec.objective_value(&package).unwrap();
        let view_valid = spec.is_valid(&package).unwrap();

        prop_assert!(
            close(view_violation, oracle_violation),
            "violation mismatch on {}: columnar {} vs interpreted {} (query: {})",
            scenario.name, view_violation, oracle_violation, text
        );
        match (view_objective, oracle_objective) {
            (Some(a), Some(b)) => prop_assert!(
                close(a, b),
                "objective mismatch on {}: {} vs {} (query: {})", scenario.name, a, b, text
            ),
            (a, b) => prop_assert_eq!(a, b, "objective NULL-ness mismatch (query: {})", text),
        }
        prop_assert_eq!(view_valid, oracle_valid, "validity mismatch (query: {})", text);
        // Feasibility and zero-violation must coincide for member-only packages.
        prop_assert_eq!(oracle_satisfied, oracle_violation == 0.0);
    }

    /// Delta evaluation (`ViewState::score_with`) agrees with a from-scratch
    /// projection after any single swap, across every registered scenario.
    #[test]
    fn delta_evaluation_matches_fresh_projection(
        scenario_pick in 0usize..64,
        seed in 0u64..5_000,
        count in 2u64..5,
        col_a in 0usize..4,
        col_b in 0usize..4,
        agg_pick in 0usize..4,
        lo in 10.0f64..500.0,
        width in 10.0f64..2000.0,
        out_pick in 0usize..8,
        in_pick in 0usize..64,
    ) {
        let registry = scenarios();
        let scenario = &registry[scenario_pick % registry.len()];
        let table = (scenario.build)(scenario.property_n, Seed(seed));
        let text = scenario.random_query(&QueryParams {
            count, col_a, col_b, agg_pick, lo, width,
            use_filter: false, repeat: None, minimize: false,
        });
        let analyzed = paql::compile(&text, table.schema()).unwrap();
        let spec = PackageSpec::build(&analyzed, &table, &BuildCtx::default()).unwrap();
        let view = spec.view();
        prop_assert!(view.candidate_count() >= 4);

        let start: Vec<TupleId> = view.candidates().iter().copied().take(3).collect();
        let state = view.project(&Package::from_ids(start)).unwrap();
        let out = out_pick % 3;
        let inn = in_pick % view.candidate_count();
        let changes = [(out, -1i64), (inn, 1i64)];

        let (delta_violation, delta_objective) = state.score_with(&changes);
        let mut moved = state.clone();
        moved.apply(out, -1);
        moved.apply(inn, 1);
        let fresh = view.project(&moved.to_package()).unwrap();

        prop_assert!(close(delta_violation, fresh.violation()),
            "delta violation {} vs fresh {} (query: {})", delta_violation, fresh.violation(), text);
        match (delta_objective, fresh.objective_value()) {
            (Some(a), Some(b)) => prop_assert!(close(a, b)),
            (a, b) => prop_assert_eq!(a, b),
        }
    }

    /// The chunk kernel equals the point path **bit for bit**: for every
    /// registered family, every formula shape (FILTER, NULL arguments,
    /// AVG-vs-AVG, MIN/MAX, OR/NOT, division), `REPEAT` > 1, single tail
    /// chunks and multi-chunk views, random base states (empty included)
    /// and each member removed in turn — on resident columns and on columns
    /// forced through a 2-frame buffer pool.
    #[test]
    fn scan_kernel_matches_score_with_bit_for_bit(
        scenario_pick in 0usize..64,
        seed in 0u64..5_000,
        shape in 0usize..5,
        size_pick in 0usize..4,
        nulls in prop::bool::ANY,
        count in 1u64..5,
        col_a in 0usize..4,
        col_b in 0usize..4,
        lo in 10.0f64..500.0,
        width in 10.0f64..2000.0,
        repeat in prop::option::of(2u32..4),
        picks in prop::collection::vec(0usize..6000, 0..6),
        mults in prop::collection::vec(1u32..4, 6),
    ) {
        let registry = scenarios();
        let scenario = &registry[scenario_pick % registry.len()];
        let n = if size_pick == 0 { CHUNK_WIDTH + 300 } else { scenario.property_n };
        let cols = scenario.columns;
        let (a, b) = (cols[col_a % cols.len()], cols[col_b % cols.len()]);
        let mut table = (scenario.build)(n, Seed(seed));
        if nulls {
            table = with_nulls(&table, a);
        }
        let text = scan_query(scenario, shape, (a, b), (lo, lo + width), count, repeat);
        let analyzed = paql::compile(&text, table.schema()).expect("generated query compiles");
        for policy in [ColumnPolicy::resident(), ColumnPolicy::paged(2)] {
            let ctx = BuildCtx { par: ParExec::sequential(), policy, cache: None };
            let spec = PackageSpec::build(&analyzed, &table, &ctx).unwrap();
            prop_assert_eq!(spec.view().is_paged(), policy.memory_budget == 0);
            let package = random_package(&spec, &picks, &mults);
            let state = spec.view().project(&package).unwrap();
            let removed: Vec<usize> = state.member_indices().collect();
            let context = format!("{} n={n} paged={} ({text})", scenario.name, spec.view().is_paged());
            assert_kernel_matches_point_path(&state, &removed, &context);
        }
    }
}

/// The build the fused pass replaced, through the reference evaluator: one
/// term at a time, one row at a time, name resolution and all. Returns the
/// term's coefficient and inclusion columns.
fn reference_term_column(
    table: &Table,
    candidates: &[TupleId],
    call: &paql::AggCall,
) -> (Vec<f64>, Vec<bool>) {
    let schema = table.schema();
    let mut coeffs = vec![0.0; candidates.len()];
    let mut included = vec![false; candidates.len()];
    for (i, id) in candidates.iter().enumerate() {
        let tuple = &table.require(*id).unwrap().to_tuple();
        if let Some(filter) = &call.filter {
            if !reference_eval::eval_predicate(filter, schema, tuple).unwrap() {
                continue;
            }
        }
        let value = match &call.arg {
            None => 1.0,
            Some(arg) => match reference_eval::eval(arg, schema, tuple).unwrap() {
                Value::Null => continue,
                v => v.expect_f64("aggregate argument").unwrap(),
            },
        };
        // COUNT's coefficient is 1 whatever its (non-NULL) argument.
        coeffs[i] = if call.func == paql::AggFunc::Count {
            1.0
        } else {
            value
        };
        included[i] = true;
    }
    (coeffs, included)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, .. ProptestConfig::default() })]

    /// The cold build — bound base scan, fused multi-term materialization —
    /// equals a per-term, per-row rebuild through the reference evaluator
    /// **bit for bit**: candidate list and every term's coefficients,
    /// inclusion mask and `ChunkMeta`, for every registered family and
    /// formula shape (shared and distinct FILTERs, NULL arguments,
    /// COUNT(expr)), with and without a base predicate, at 1, 2 and 8
    /// threads, resident and through a 2-frame pool.
    #[test]
    fn fused_cold_build_matches_a_per_term_per_row_rebuild(
        scenario_pick in 0usize..64,
        seed in 0u64..5_000,
        shape in 0usize..7,
        multi_chunk in prop::bool::ANY,
        nulls in prop::bool::ANY,
        base_predicate in prop::bool::ANY,
        count in 1u64..5,
        col_a in 0usize..4,
        col_b in 0usize..4,
        lo in 10.0f64..500.0,
        width in 10.0f64..2000.0,
    ) {
        let registry = scenarios();
        let scenario = &registry[scenario_pick % registry.len()];
        let n = if multi_chunk { 2 * CHUNK_WIDTH + 300 } else { scenario.property_n };
        let cols = scenario.columns;
        let (a, b) = (cols[col_a % cols.len()], cols[col_b % cols.len()]);
        let mut table = (scenario.build)(n, Seed(seed));
        if nulls {
            table = with_nulls(&table, a);
        }
        // Shapes past the generated five are the family's own gauntlet
        // queries (the wide family's carries 122 terms over 4 FILTERs).
        let mut text = match shape.checked_sub(5) {
            None => scan_query(scenario, shape, (a, b), (lo, lo + width), count, None),
            Some(own) => scenario.queries[own % scenario.queries.len()].text.clone(),
        };
        if base_predicate {
            // NULLs in `a` make this predicate NULL on a third of the rows.
            let family = scenario.filter.map(|f| format!(" OR {f}")).unwrap_or_default();
            text = text.replacen(
                " SUCH THAT",
                &format!(" WHERE R.{a} >= {lo:.2}{family} SUCH THAT"),
                1,
            );
        }
        let analyzed = paql::compile(&text, table.schema()).expect("generated query compiles");
        let schema = table.schema();

        // The reference build: scan and columns, row by row.
        let candidates: Vec<TupleId> = table
            .iter()
            .filter(|(_, row)| match &analyzed.query.where_clause {
                None => true,
                Some(pred) => reference_eval::eval_predicate(pred, schema, &row.to_tuple()).unwrap(),
            })
            .map(|(id, _)| id)
            .collect();

        for policy in [ColumnPolicy::resident(), ColumnPolicy::paged(2)] {
            for threads in [1usize, 2, 8] {
                let context = format!("{} n={n} {threads} threads {policy:?} ({text})", scenario.name);
                let ctx = BuildCtx { par: ParExec::new(threads), policy, cache: None };
                let spec = PackageSpec::build(&analyzed, &table, &ctx).unwrap();
                prop_assert_eq!(&spec.candidates, &candidates, "{}", context);
                let view = spec.view();
                prop_assert_eq!(view.candidates(), candidates.as_slice());

                for (call, term) in view.term_keys().iter().zip(view.terms()) {
                    let (coeffs, included) = reference_term_column(&table, &candidates, call);
                    prop_assert_eq!(bits(&term.coeffs_vec()), bits(&coeffs), "{}: {:?}", context, call);
                    prop_assert_eq!(term.included_vec(), included.clone(), "{}: {:?}", context, call);
                    prop_assert_eq!(term.chunk_meta().len(), chunk_count(candidates.len()));
                    for (c, meta) in term.chunk_meta().iter().enumerate() {
                        let range = c * CHUNK_WIDTH..((c + 1) * CHUNK_WIDTH).min(candidates.len());
                        let (mut sum, mut min, mut max, mut inc) =
                            (0.0f64, f64::INFINITY, f64::NEG_INFINITY, 0u32);
                        for i in range {
                            if included[i] {
                                sum += coeffs[i];
                                min = min.min(coeffs[i]);
                                max = max.max(coeffs[i]);
                                inc += 1;
                            }
                        }
                        prop_assert_eq!(
                            (meta.sum.to_bits(), meta.min.to_bits(), meta.max.to_bits(), meta.included),
                            (sum.to_bits(), min.to_bits(), max.to_bits(), inc),
                            "{}: chunk {} of {:?}", context, c, call
                        );
                    }
                }
            }
        }
    }
}

/// A view with no candidates has no chunks: the scan is built and scores
/// nothing.
#[test]
fn scan_kernel_over_an_empty_view_has_no_chunks() {
    let table = datagen::recipes(40, Seed(1));
    let analyzed = paql::compile(
        "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.calories < 0 \
         SUCH THAT COUNT(*) = 2 MAXIMIZE SUM(P.protein)",
        table.schema(),
    )
    .unwrap();
    let spec = PackageSpec::build(&analyzed, &table, &BuildCtx::default()).unwrap();
    let state = spec.view().project(&Package::new()).unwrap();
    assert_eq!(chunk_count(spec.view().candidate_count()), 0);
    assert_kernel_matches_point_path(&state, &[], "empty view");
}
