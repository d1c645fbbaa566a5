//! The validated, executable form of a package query, and the one way to
//! build it: [`PackageSpec::build`] under a [`BuildCtx`].

use minidb::eval::BoundExpr;
use minidb::{Expr, Table, TupleId};
use paql::{AnalyzedQuery, GlobalFormula, Objective, PaqlQuery};

use crate::cache::ViewCache;
use crate::column_store::ColumnPolicy;
use crate::package::Package;
use crate::par::ParExec;
use crate::view::CandidateView;
use crate::PbResult;

/// The three choices every view build makes, in the one value they travel
/// in: the chunk executor the scan and the column materialization fan out
/// over, where freshly built columns live, and the cache to build through.
/// None of them changes a result — every thread count, storage mode and
/// cache hit is bit-identical to the sequential resident cold build — only
/// where the time and the bytes go.
///
/// [`crate::engine::PackageEngine`] fills one from its configuration for
/// every build it starts; anything else writes the fields down, or takes
/// [`BuildCtx::default`].
#[derive(Debug, Clone, Copy)]
pub struct BuildCtx<'c> {
    /// The chunk executor (see [`crate::par`]).
    pub par: ParExec,
    /// Resident or paged term columns, for the columns this build
    /// materializes; columns adopted from a cache keep the mode they were
    /// built with, so a view may mix the two.
    pub policy: ColumnPolicy,
    /// The cache [`PackageSpec::build`] builds through; `None` builds cold.
    pub cache: Option<&'c ViewCache>,
}

impl Default for BuildCtx<'_> {
    /// Sequential executor, no cache, and the storage policy of
    /// [`crate::config::env_defaults`] — so specs built outside an engine
    /// (most tests) follow the `PB_COLUMN_BUDGET` / `PB_POOL_PAGES` CI legs.
    fn default() -> Self {
        BuildCtx {
            par: ParExec::sequential(),
            policy: crate::config::env_defaults().1,
            cache: None,
        }
    }
}

/// Evaluates a query's base (`WHERE`) predicate over a table: the candidate
/// tuple ids, in id order — the paper's "use SQL to evaluate the base
/// constraints" step (`SELECT * FROM R WHERE <base>`). `None` keeps every
/// tuple.
///
/// The scan fans out over `par` in fixed-width row chunks, each evaluated in
/// the predicate's chunk form straight over the table's column vectors.
/// Per-chunk match lists concatenate in chunk order (and tuple ids are
/// insertion indices), so the candidate list — and any evaluation error:
/// first failing chunk, first failing row — is identical at every thread
/// count.
pub fn base_candidates_par(
    table: &Table,
    where_clause: Option<&Expr>,
    par: ParExec,
) -> PbResult<Vec<TupleId>> {
    let pred = match where_clause {
        None => return Ok(table.iter().map(|(id, _)| id).collect()),
        Some(pred) => BoundExpr::bind(pred, table.schema())?,
    };
    let chunks = par.run_chunks(table.len(), |_, range| -> PbResult<Vec<TupleId>> {
        let verdicts = pred.eval_predicate_chunk(&table.select_run(range.clone())?)?;
        Ok(range
            .zip(verdicts)
            .filter(|(_, qualifies)| *qualifies)
            .map(|(row, _)| TupleId(row as u32))
            .collect())
    });
    let mut candidates = Vec::new();
    for chunk in chunks {
        candidates.extend(chunk?);
    }
    Ok(candidates)
}

/// The cold build: scan the base predicate, then [`CandidateView::build`]
/// (every term column from the base table). The one place the
/// sequence is written — the uncached [`PackageSpec::build`], a
/// [`ViewCache`] miss and a zero-capacity cache all land here.
pub(crate) fn cold_view(
    query: &PaqlQuery,
    table: &Table,
    ctx: &BuildCtx<'_>,
) -> PbResult<CandidateView> {
    let candidates = base_candidates_par(table, query.where_clause.as_ref(), ctx.par)?;
    CandidateView::build(table, candidates, query, ctx)
}

/// A package query bound to a concrete table: the candidate tuples that
/// survive the base constraints, the global formula, the objective and the
/// multiplicity bound.
///
/// Building a spec corresponds to the "use SQL to evaluate the base
/// constraints" step of the paper — the candidate set is exactly the result
/// of `SELECT * FROM R WHERE <base>`. The spec then lowers the query onto a
/// columnar [`CandidateView`], which every evaluation strategy consumes;
/// `is_valid`, `violation` and `objective_value` all route through the view's
/// columns rather than re-interpreting expression trees per tuple.
#[derive(Debug, Clone)]
pub struct PackageSpec<'a> {
    /// The base relation.
    pub table: &'a Table,
    /// Tuples satisfying the base constraints, in id order.
    pub candidates: Vec<TupleId>,
    /// Maximum multiplicity of a tuple in the package (from `REPEAT`).
    pub max_multiplicity: u32,
    /// The `SUCH THAT` formula, if any.
    pub formula: Option<GlobalFormula>,
    /// The objective, if any.
    pub objective: Option<Objective>,
    /// The original query (for diagnostics and pretty-printing).
    pub query: PaqlQuery,
    /// The columnar evaluation core.
    view: CandidateView,
}

impl<'a> PackageSpec<'a> {
    /// Builds a spec from an analyzed query and its base table: the base
    /// predicate and the view's term columns are computed from the table's
    /// column vectors, a chunk at a time, on `ctx`'s executor and under its
    /// storage policy. No column the query does not name is read.
    ///
    /// With a cache in `ctx` the view comes through
    /// [`ViewCache::view_for`]: candidate list and term columns are reused
    /// when the relation contents and base predicate match a cached bank
    /// (only missing term columns are materialized), and banked for future
    /// queries otherwise. The resulting spec is indistinguishable from a
    /// cold build — see the cache module docs for the determinism argument.
    pub fn build(analyzed: &AnalyzedQuery, table: &'a Table, ctx: &BuildCtx<'_>) -> PbResult<Self> {
        let query = analyzed.query.clone();
        let view = match ctx.cache {
            Some(cache) => cache.view_for(&query, table, ctx)?,
            None => cold_view(&query, table, ctx)?,
        };
        Ok(Self::over(table, query, view))
    }

    /// The spec of `query` over `table` whose evaluation core is `view`.
    pub(crate) fn over(table: &'a Table, query: PaqlQuery, view: CandidateView) -> Self {
        PackageSpec {
            table,
            candidates: view.candidates().to_vec(),
            max_multiplicity: query.max_multiplicity(),
            formula: query.such_that.clone(),
            objective: query.objective.clone(),
            view,
            query,
        }
    }

    /// The columnar view every solver consumes.
    pub fn view(&self) -> &CandidateView {
        &self.view
    }

    /// Number of candidate tuples (the `n` of the paper's complexity
    /// discussion).
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// True when `package` is a valid answer: every member is a candidate
    /// (base constraints), multiplicities respect `REPEAT`, and the global
    /// formula holds. Evaluated columnar-ly; the `Result` is kept for API
    /// stability (view evaluation cannot fail after `build`).
    pub fn is_valid(&self, package: &Package) -> PbResult<bool> {
        Ok(self.view.is_valid(package))
    }

    /// Validates a package through the *interpreted* oracle — AST evaluation
    /// against the base table, sharing no code with the columnar view. The
    /// planner uses this for its defensive re-check of solver output, so a
    /// bug in view compilation cannot certify its own results.
    pub fn is_valid_interpreted(&self, package: &Package) -> PbResult<bool> {
        if package.max_multiplicity() > self.max_multiplicity {
            return Ok(false);
        }
        for (tid, _) in package.members() {
            if self.candidates.binary_search(&tid).is_err() {
                return Ok(false);
            }
        }
        match &self.formula {
            None => Ok(true),
            Some(f) => package.satisfies(self.table, f),
        }
    }

    /// Objective value of a package under this spec (`None` when the query
    /// has no objective or the objective is not evaluable).
    pub fn objective_value(&self, package: &Package) -> PbResult<Option<f64>> {
        Ok(self.view.objective_value(package))
    }

    /// Total constraint violation of a package (0 when feasible).
    pub fn violation(&self, package: &Package) -> PbResult<f64> {
        Ok(self.view.violation(package))
    }

    /// Restricts the spec to a subset of its candidates (used by adaptive
    /// exploration to narrow the search space after user feedback). The view
    /// is rebuilt over the surviving candidates — columns gathered from the
    /// table's column vectors — on `ctx`'s executor and
    /// under its storage policy, like every other build: the engine passes
    /// its own context, so a narrowed view is paged exactly when a fresh
    /// build of the same size would be. A narrowed candidate list has no
    /// cache key, so `ctx.cache` is not consulted.
    pub fn restrict_candidates(
        &self,
        keep: impl Fn(TupleId) -> bool,
        ctx: &BuildCtx<'_>,
    ) -> PbResult<PackageSpec<'a>> {
        let candidates = self
            .candidates
            .iter()
            .copied()
            .filter(|&t| keep(t))
            .collect();
        let view = CandidateView::build(self.table, candidates, &self.query, ctx)?;
        Ok(Self::over(self.table, self.query.clone(), view))
    }
}

/// Unit tests, and the spec builder the other modules' tests share.
#[cfg(test)]
pub mod tests {
    use super::*;
    use crate::column_store::SpillStore;
    use crate::view::ColumnSink;
    use datagen::{recipes, Seed};
    use minidb::TupleId;
    use paql::compile;
    use std::sync::Arc;

    /// The spec of PaQL text `q` over `table`, built cold on
    /// [`BuildCtx::default`] — how unit tests build the specs they solve.
    pub(crate) fn spec_for<'a>(table: &'a Table, q: &str) -> PackageSpec<'a> {
        let analyzed = compile(q, table.schema()).unwrap();
        PackageSpec::build(&analyzed, table, &BuildCtx::default()).unwrap()
    }

    /// `spec`'s view with term `t`'s column spilled to `stores[t]` (terms
    /// with `None` stay as they are), so a test can watch a term's page
    /// requests on a store nothing else touches.
    pub(crate) fn respill(
        spec: &PackageSpec<'_>,
        stores: &[Option<Arc<SpillStore>>],
    ) -> CandidateView {
        let view = spec.view();
        CandidateView::assemble(
            spec.table,
            view.candidates().to_vec(),
            &spec.query,
            |call| {
                let t = view.term_keys().iter().position(|k| k == call).unwrap();
                let column = &view.terms()[t];
                let Some(store) = &stores[t] else {
                    return Some(column.clone());
                };
                let sink = ColumnSink::paged(column.func, Arc::clone(store), column.len());
                Some(
                    sink.fill_from(&column.coeffs_vec(), &column.included_vec())
                        .unwrap(),
                )
            },
            &BuildCtx::default(),
        )
        .unwrap()
    }

    #[test]
    fn base_constraints_filter_candidates() {
        let t = recipes(200, Seed(1));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' SUCH THAT COUNT(*) = 3",
        );
        assert!(spec.candidate_count() > 0);
        assert!(spec.candidate_count() < 200);
        for id in &spec.candidates {
            let v = t.require(*id).unwrap().get_named("gluten").unwrap();
            assert_eq!(v.to_string(), "free");
        }
        assert_eq!(spec.view().candidates(), spec.candidates.as_slice());
    }

    #[test]
    fn no_where_clause_keeps_everything() {
        let t = recipes(50, Seed(2));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 2",
        );
        assert_eq!(spec.candidate_count(), 50);
    }

    #[test]
    fn validity_checks_membership_multiplicity_and_formula() {
        let t = recipes(100, Seed(3));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' SUCH THAT COUNT(*) = 2",
        );
        let a = spec.candidates[0];
        let b = spec.candidates[1];
        assert!(spec.is_valid(&Package::from_ids([a, b])).unwrap());
        // Wrong cardinality.
        assert!(!spec.is_valid(&Package::from_ids([a])).unwrap());
        // Multiplicity above REPEAT (default 1).
        assert!(!spec.is_valid(&Package::from_members([(a, 2)])).unwrap());
        // Tuple outside the base constraint (find a non-candidate id).
        let outsider = (0..100u32)
            .map(TupleId)
            .find(|id| spec.candidates.binary_search(id).is_err())
            .expect("some recipe has gluten");
        assert!(!spec.is_valid(&Package::from_ids([a, outsider])).unwrap());
    }

    #[test]
    fn restrict_candidates_narrows_the_space() {
        let t = recipes(100, Seed(4));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R \
             SUCH THAT COUNT(*) = 2 AND SUM(P.calories) <= 900 MAXIMIZE SUM(P.protein)",
        );
        // Candidates are in id order, so a prefix is a sorted set.
        let keep: Vec<TupleId> = spec.candidates.iter().copied().take(10).collect();
        let narrow = |policy: ColumnPolicy| {
            let ctx = BuildCtx {
                policy,
                ..BuildCtx::default()
            };
            spec.restrict_candidates(|t| keep.binary_search(&t).is_ok(), &ctx)
                .unwrap()
        };
        let narrowed = narrow(ColumnPolicy::resident());
        assert_eq!(narrowed.candidate_count(), 10);
        assert_eq!(narrowed.max_multiplicity, spec.max_multiplicity);
        // The narrowed columns are a cold build over the kept ids, and the
        // prefix of the full view's columns.
        let cold =
            CandidateView::build(&t, keep.clone(), &spec.query, &BuildCtx::default()).unwrap();
        let paged = narrow(ColumnPolicy::paged(2));
        for view in [narrowed.view(), paged.view()] {
            assert_eq!(view.candidates(), keep.as_slice());
            assert_eq!(view.term_keys(), cold.term_keys());
            for (t, got) in view.terms().iter().enumerate() {
                let (want, full) = (&cold.terms()[t], &spec.view().terms()[t]);
                assert_eq!(got.coeffs_vec(), want.coeffs_vec());
                assert_eq!(got.coeffs_vec(), full.coeffs_vec()[..10]);
                assert_eq!(got.included_vec(), want.included_vec());
                assert_eq!(got.chunk_meta(), want.chunk_meta());
            }
        }
        // Storage follows the policy handed in, not the environment.
        assert!(!narrowed.view().is_paged());
        assert!(paged.view().is_paged());
    }

    #[test]
    fn objective_and_violation_delegate_to_the_view() {
        let t = recipes(100, Seed(5));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 2 AND SUM(P.calories) <= 100 \
             MAXIMIZE SUM(P.protein)",
        );
        let p = Package::from_ids(spec.candidates.iter().copied().take(2));
        assert!(spec.objective_value(&p).unwrap().unwrap() > 0.0);
        // Two recipes always exceed 100 calories in this generator.
        assert!(spec.violation(&p).unwrap() > 0.0);
        assert!(!spec.is_valid(&p).unwrap());
        // The interpreted oracle agrees with the columnar path.
        let oracle = p
            .formula_violation(&t, spec.formula.as_ref().unwrap())
            .unwrap();
        assert!((spec.violation(&p).unwrap() - oracle).abs() < 1e-9);
    }
}
