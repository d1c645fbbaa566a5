//! Soundness of the move engine's chunk bound.
//!
//! The neighbourhood pass that greedy repair and the local search share does
//! not score a (chunk, prefix) — pins none of its pages and scores none of
//! its non-member moves — when `MoveScan::rules_out` proves that no such
//! move beats the pass's bar: the chunk's `MoveScan::violation_floor`,
//! paired with the best objective a lane could have, does not. The skip is
//! only sound if the floor never exceeds a violation the scan kernel would
//! have produced, so these tests compare the two lane by lane: for every
//! lane the kernel scores column-at-a-time (not a member, not touched by the
//! prefix) the kernel's violation must be `>=` the floor, as IEEE values.
//! On an objective-ranked scan they also check the skip itself: no lane of a
//! ruled-out (chunk, prefix) beats the bar, for bars at the state's own
//! score and at the floor with every kind of objective.
//!
//! * Every family of `datagen::scenarios()`, its gauntlet queries and six
//!   generated formula shapes (FILTER windows, AVG against AVG, MIN/MAX,
//!   `OR`/`NOT`, `<>`, division, multiplication under `=`), resident and
//!   through a 2-page pool, over random states: the empty base, members
//!   inside a chunk, `REPEAT 2`, and swap prefixes.
//! * A hostile matrix: term columns replaced by NaN, `±∞`, `±0`, `±1e308`,
//!   subnormals and chunks whose every lane a FILTER excludes, over an empty
//!   base and over members that carry those values into the accumulators,
//!   with divisors whose interval holds 0.

use datagen::{scenarios, uniform_table, Scenario, Seed};
use minidb::Table;
use packagebuilder::column_store::SpillStore;
use packagebuilder::package::Package;
use packagebuilder::par::{chunk_count, ParExec, CHUNK_WIDTH};
use packagebuilder::spec::{BuildCtx, PackageSpec};
use packagebuilder::view::{CandidateView, ColumnSink};
use packagebuilder::{ColumnPolicy, ViewState};
use paql::ObjectiveDirection;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// What one sweep of [`assert_floor_bounds_kernel`] saw.
#[derive(Debug, Default, Clone, Copy)]
struct Seen {
    /// (chunk, prefix) pairs with a bound.
    bounded: usize,
    /// ... of which the bound is positive.
    positive: usize,
    /// Lanes whose violation equals their chunk's bound exactly.
    tight: usize,
    /// (chunk, prefix, bar) triples an objective-ranked scan rules out.
    ruled_out: usize,
    /// ... and bounded ones it scores.
    scored: usize,
}

impl std::ops::AddAssign for Seen {
    fn add_assign(&mut self, o: Seen) {
        self.bounded += o.bounded;
        self.positive += o.positive;
        self.tight += o.tight;
        self.ruled_out += o.ruled_out;
        self.scored += o.scored;
    }
}

/// The rank the move searches use, written out from its definition: a lower
/// violation by more than `1e-9`, else a better objective.
fn beats(a: (f64, Option<f64>), b: (f64, Option<f64>), direction: ObjectiveDirection) -> bool {
    a.0 + 1e-9 < b.0 || (a.0 <= b.0 + 1e-9 && Package::better_objective(direction, a.1, b.1))
}

/// Asserts that, after each of `prefixes`, every lane of every chunk the
/// kernel scores column-at-a-time has a violation at least the chunk's
/// floor, and that no such lane of a (chunk, prefix) that an
/// objective-ranked scan rules out beats the bar it was ruled out against.
fn assert_floor_bounds_kernel(
    state: &ViewState<'_>,
    prefixes: &[Vec<(usize, i64)>],
    context: &str,
) -> Seen {
    let view = state.view();
    let direction = view.direction();
    let worst = match direction {
        ObjectiveDirection::Maximize => f64::NEG_INFINITY,
        ObjectiveDirection::Minimize => f64::INFINITY,
    };
    let scan = state.move_scan(prefixes.to_vec(), false);
    let ranked = state.move_scan(prefixes.to_vec(), true);
    let mut seen = Seen::default();
    for c in 0..chunk_count(view.candidate_count()) {
        let mut chunk = scan.chunk(c);
        let mut ranked_chunk = ranked.chunk(c);
        let range = chunk.range();
        for (p, prefix) in prefixes.iter().enumerate() {
            let Some(floor) = scan.violation_floor(p, c) else {
                continue;
            };
            assert!(floor >= 0.0, "{context}: floor {floor} in chunk {c}");
            seen.bounded += 1;
            seen.positive += usize::from(floor > 0.0);
            let scores = chunk.score(p);
            let column_lanes = range.clone().filter(|&idx| {
                state.multiplicity(idx) == 0 && prefix.iter().all(|&(i, _)| i != idx)
            });
            for idx in column_lanes.clone() {
                let v = scores.violations()[idx - range.start];
                assert!(
                    v >= floor,
                    "{context}: +1 at {idx} after {prefix:?} scores {v:e} below \
                     chunk {c}'s floor {floor:e}"
                );
                seen.tight += usize::from(v == floor);
            }
            let bars = [
                state.score(),
                (floor, None),
                (floor, Some(worst)),
                (floor, Some(-worst)),
                (floor, Some(f64::NAN)),
                (floor - 4e-9, Some(worst)),
                (floor + 4e-9, Some(-worst)),
            ];
            let scores = ranked_chunk.score(p);
            for bar in bars {
                if !ranked.rules_out(p, c, bar) {
                    seen.scored += 1;
                    continue;
                }
                seen.ruled_out += 1;
                for idx in column_lanes.clone() {
                    let s = scores.get(idx - range.start);
                    assert!(
                        !beats(s, bar, direction),
                        "{context}: chunk {c} after {prefix:?} is ruled out against \
                         {bar:?}, yet +1 at {idx} scores {s:?}"
                    );
                }
            }
        }
    }
    seen
}

/// The empty prefix, each member removed, and each member swapped for the
/// first non-member.
fn swap_prefixes(state: &ViewState<'_>) -> Vec<Vec<(usize, i64)>> {
    let members: Vec<usize> = state.member_indices().collect();
    let outsider = (0..state.view().candidate_count()).find(|&i| state.multiplicity(i) == 0);
    let mut prefixes = vec![Vec::new()];
    for &m in &members {
        prefixes.push(vec![(m, -1)]);
        if let Some(j) = outsider {
            prefixes.push(vec![(m, -1), (j, 1)]);
        }
    }
    prefixes
}

/// The package of `picks` (candidate positions, wrapped) at `mults`, held
/// to the view's `REPEAT` bound.
fn package_of(view: &CandidateView, picks: &[usize], mults: &[u32]) -> Package {
    let mut p = Package::new();
    let n = view.candidate_count();
    for (pick, mult) in picks.iter().zip(mults) {
        if n == 0 {
            break;
        }
        let tid = view.candidates()[pick % n];
        let m = (*mult).clamp(1, view.max_multiplicity());
        if p.multiplicity(tid) + m <= view.max_multiplicity() {
            p.add(tid, m);
        }
    }
    p
}

/// One query per formula shape over the family's own columns; shapes past
/// the generated six are the family's gauntlet queries.
fn shape_query(
    s: &Scenario,
    shape: usize,
    (a, b): (&str, &str),
    (lo, hi): (f64, f64),
    count: u64,
    repeat: bool,
) -> String {
    if let Some(k) = shape.checked_sub(6) {
        return s.queries[k % s.queries.len()].text.clone();
    }
    let filter = s
        .filter
        .map(|f| format!(" FILTER (WHERE {f})"))
        .unwrap_or_default();
    let such_that = match shape {
        0 => format!("COUNT(*) <= {count} AND SUM(P.{a}){filter} BETWEEN {lo:.2} AND {hi:.2}"),
        1 => format!("COUNT(*) >= {count} AND AVG(P.{a}) >= AVG(P.{b}){filter}"),
        2 => format!("MIN(P.{a}) >= {lo:.2} AND MAX(P.{b}){filter} <= {hi:.2}"),
        3 => format!(
            "COUNT(*) = {count} AND (SUM(P.{a}) <= {hi:.2} \
             OR NOT (AVG(P.{b}) >= {lo:.2} AND COUNT(*){filter} >= 1))"
        ),
        4 => format!(
            "SUM(P.{a}) / COUNT(P.{b}){filter} <= {hi:.2} AND COUNT(P.{a}) <> {count} \
             AND NOT MAX(P.{a}) - MIN(P.{a}) > {hi:.2}"
        ),
        _ => format!("SUM(P.{a}) * 2 - SUM(P.{b}){filter} = {lo:.2} AND COUNT(*) <= {count}"),
    };
    let repeat = if repeat { " REPEAT 2" } else { "" };
    format!(
        "SELECT PACKAGE(R) AS P FROM {} R{repeat} SUCH THAT {such_that} MAXIMIZE SUM(P.{b})",
        s.relation
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// The floor bounds the kernel on every registered family, resident and
    /// through a 2-frame pool, from the empty base and from random members
    /// (repeated under `REPEAT 2`), after every swap prefix.
    #[test]
    fn the_chunk_floor_never_exceeds_a_kernel_violation(
        seed in 0u64..5_000,
        shape in 0usize..9,
        multi_chunk in prop::bool::ANY,
        count in 1u64..5,
        col_a in 0usize..4,
        col_b in 0usize..4,
        lo in 10.0f64..500.0,
        width in 10.0f64..2000.0,
        repeat in prop::bool::ANY,
        picks in prop::collection::vec(0usize..6000, 1..6),
        mults in prop::collection::vec(1u32..3, 6),
    ) {
        let mut seen = Seen::default();
        for scenario in scenarios() {
            let n = if multi_chunk { CHUNK_WIDTH + 300 } else { scenario.property_n };
            let cols = scenario.columns;
            let (a, b) = (cols[col_a % cols.len()], cols[col_b % cols.len()]);
            let table = (scenario.build)(n, Seed(seed));
            let text = shape_query(&scenario, shape, (a, b), (lo, lo + width), count, repeat);
            let analyzed = paql::compile(&text, table.schema()).expect("query compiles");
            for policy in [ColumnPolicy::resident(), ColumnPolicy::paged(2)] {
                let ctx = BuildCtx { par: ParExec::sequential(), policy, cache: None };
                let spec = PackageSpec::build(&analyzed, &table, &ctx).unwrap();
                let view = spec.view();
                let context = format!("{} n={n} paged={} ({text})", scenario.name, view.is_paged());
                let empty = ViewState::empty(view);
                seen += assert_floor_bounds_kernel(&empty, &[Vec::new()], &context);
                let state = view.project(&package_of(view, &picks, &mults)).unwrap();
                seen += assert_floor_bounds_kernel(&state, &swap_prefixes(&state), &context);
            }
        }
        prop_assert!(seen.bounded > 0, "no chunk was bounded ({text_shape})", text_shape = shape);
    }
}

/// Coefficient classes a hostile chunk draws its lanes from.
const NON_FINITE: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
const EXTREME: [f64; 8] = [0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324, 1.5, -2.25];
const ORDINARY: [f64; 6] = [0.0, -0.0, 3.0, 12.5, 40.0, 150.0];
/// Large positives with NaN lanes: the chunk's `min`/`max` skip NaN lanes,
/// so they would bound a NaN lane's sum, which no distance measures, by the
/// large values alone.
const NAN_AMONG_LARGE: [f64; 4] = [f64::NAN, 500.0, 600.0, 1e4];

/// One lane of a hostile column: `(coefficient, included)`, by chunk class.
fn hostile_lane(rng: &mut StdRng, chunk: usize) -> (f64, bool) {
    let pick = |rng: &mut StdRng, xs: &[f64]| xs[rng.random_range(0..xs.len())];
    match chunk % 5 {
        // Every kind of value, a quarter of the lanes excluded.
        0 => {
            let all: Vec<f64> = [&NON_FINITE[..], &EXTREME, &ORDINARY].concat();
            (pick(rng, &all), rng.random_range(0..4) > 0)
        }
        1 => (pick(rng, &EXTREME), rng.random_range(0..8) > 0),
        2 => (pick(rng, &ORDINARY), rng.random_range(0..2) > 0),
        3 => (pick(rng, &NAN_AMONG_LARGE), true),
        // A FILTER that lets no lane in.
        _ => (0.0, false),
    }
}

/// `spec`'s view with every non-COUNT term's column replaced by a hostile
/// one (COUNT terms keep a coefficient of 1 on included lanes, as every
/// COUNT column has), resident or spilled to `store`.
fn hostile_view(
    spec: &PackageSpec<'_>,
    seed: u64,
    store: Option<&Arc<SpillStore>>,
) -> CandidateView {
    let view = spec.view();
    let n = view.candidate_count();
    CandidateView::assemble(
        spec.table,
        view.candidates().to_vec(),
        &spec.query,
        |call| {
            let t = view.term_keys().iter().position(|k| k == call).unwrap();
            let mut rng = StdRng::seed_from_u64(seed * 131 + t as u64);
            let (mut coeffs, mut included) = (vec![0.0; n], vec![false; n]);
            for i in 0..n {
                let (c, inc) = hostile_lane(&mut rng, i / CHUNK_WIDTH);
                let count = call.func == paql::AggFunc::Count;
                included[i] = inc;
                coeffs[i] = match (inc, count) {
                    (false, _) => 0.0,
                    (true, true) => 1.0,
                    (true, false) => c,
                };
            }
            let sink = match store {
                Some(store) => ColumnSink::paged(call.func, Arc::clone(store), n),
                None => ColumnSink::resident(call.func, n),
            };
            Some(sink.fill_from(&coeffs, &included).unwrap())
        },
        &BuildCtx::default(),
    )
    .unwrap()
}

/// The hostile matrix: every formula shape the floor distinguishes, over
/// columns of NaN, `±∞`, `±0`, `±1e308`, subnormals and fully excluded
/// chunks, from the empty base (where excluded lanes are NULL) and from
/// members in every chunk (which carry those values into the accumulators),
/// with and without `REPEAT 2`, resident and paged, under an objective
/// whose column is as hostile.
#[test]
fn the_chunk_floor_holds_on_hostile_columns() {
    let n = 4 * CHUNK_WIDTH + 100;
    let table: Table = uniform_table("t", n, 2.0, 30.0, Seed(5));
    let formulas = [
        "SUM(P.w) <= 100",
        "SUM(P.w) >= 50",
        "SUM(P.w) = 40",
        "SUM(P.w) <> 7",
        "AVG(P.w) BETWEEN 10 AND 20",
        "MIN(P.w) >= 5 AND MAX(P.v) <= 50",
        "MIN(P.w) <= 5 OR MAX(P.v) >= 500",
        "COUNT(*) = 3 AND (SUM(P.w) <= 10 OR NOT AVG(P.v) >= 5)",
        "COUNT(P.w) >= 2 AND NOT SUM(P.v) < 1",
        "SUM(P.w) / SUM(P.v) <= 2",
        "SUM(P.w) / COUNT(P.v) >= 200",
        "SUM(P.w) / (MAX(P.v) - 3) <= 1",
        "SUM(P.w) * SUM(P.v) - MAX(P.u) >= 3",
        "COUNT(*) <= 1 AND SUM(P.w) <= 100",
    ];
    let mut seen = Seen::default();
    for formula in formulas {
        // Both directions, so the skip is checked against either infinity.
        for (repeat, objective) in [("", "MAXIMIZE"), (" REPEAT 2", "MINIMIZE")] {
            let text = format!(
                "SELECT PACKAGE(T) AS P FROM t T{repeat} SUCH THAT {formula} {objective} SUM(P.v)"
            );
            let analyzed = paql::compile(&text, table.schema()).expect("query compiles");
            let spec = PackageSpec::build(&analyzed, &table, &BuildCtx::default()).unwrap();
            for (seed, paged) in [(1, false), (2, true), (3, false)] {
                let store = paged.then(|| SpillStore::create(2).unwrap());
                let view = hostile_view(&spec, seed, store.as_ref());
                let context = format!("{text} (seed {seed}, paged {paged})");
                let empty = ViewState::empty(&view);
                seen += assert_floor_bounds_kernel(&empty, &[Vec::new()], &context);
                // Members in every chunk, doubled under REPEAT 2.
                let picks: Vec<usize> = (0..5)
                    .map(|c| c * CHUNK_WIDTH + 7 * seed as usize)
                    .collect();
                let state = view.project(&package_of(&view, &picks, &[2; 5])).unwrap();
                seen += assert_floor_bounds_kernel(&state, &swap_prefixes(&state), &context);
            }
        }
    }
    // The sweep must exercise the bound, not only its refusals: positive
    // floors, lanes that score exactly their chunk's floor (so a floor one
    // ulp higher fails), and bars the skip both rules out and lets through.
    assert!(
        seen.positive > 50 && seen.tight > 50 && seen.ruled_out > 50 && seen.scored > 50,
        "{seen:?}"
    );
}
