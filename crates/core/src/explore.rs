//! Adaptive exploration (paper Section 3.3).
//!
//! "PackageBuilder initially presents a sample package that satisfies a few
//! basic constraints. Users can then select good tuples within the sample,
//! and request a new sample that replaces the unselected tuples. Users can
//! repeat this process until they reach the ideal package. PackageBuilder
//! uses these selections to narrow the search space as well as to identify
//! additional package constraints."
//!
//! [`ExplorationSession`] keeps the interactive state: the current sample
//! package, the set of locked (user-approved) tuples, the tuples the user has
//! rejected (which are removed from the candidate pool), and the constraints
//! inferred from the locked tuples.

use std::collections::BTreeSet;

use minidb::TupleId;
use paql::PaqlQuery;

use crate::engine::PackageEngine;
use crate::error::PbError;
use crate::package::Package;
use crate::result::PackageResult;
use crate::spec::PackageSpec;
use crate::suggest::Suggestion;
use crate::PbResult;

/// An interactive refinement session over one package query.
#[derive(Debug, Clone)]
pub struct ExplorationSession {
    query: PaqlQuery,
    locked: BTreeSet<TupleId>,
    rejected: BTreeSet<TupleId>,
    current: Option<Package>,
    rounds: usize,
}

impl ExplorationSession {
    /// Starts a session for a query (no sample drawn yet).
    pub fn new(query: PaqlQuery) -> Self {
        ExplorationSession {
            query,
            locked: BTreeSet::new(),
            rejected: BTreeSet::new(),
            current: None,
            rounds: 0,
        }
    }

    /// The query driving the session.
    pub fn query(&self) -> &PaqlQuery {
        &self.query
    }

    /// The current sample package, if one has been drawn.
    pub fn current(&self) -> Option<&Package> {
        self.current.as_ref()
    }

    /// Tuples the user has locked (marked as good).
    pub fn locked(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.locked.iter().copied()
    }

    /// Number of refinement rounds performed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Locks a tuple of the current sample so refinements keep it.
    pub fn lock(&mut self, tuple: TupleId) -> PbResult<()> {
        match &self.current {
            Some(p) if p.multiplicity(tuple) > 0 => {
                self.locked.insert(tuple);
                self.rejected.remove(&tuple);
                Ok(())
            }
            _ => Err(PbError::Internal(format!(
                "cannot lock {tuple}: it is not part of the current sample"
            ))),
        }
    }

    /// Unlocks a previously locked tuple.
    pub fn unlock(&mut self, tuple: TupleId) {
        self.locked.remove(&tuple);
    }

    /// Marks a tuple as rejected: it will never appear in future samples.
    pub fn reject(&mut self, tuple: TupleId) {
        self.locked.remove(&tuple);
        self.rejected.insert(tuple);
    }

    /// Draws the initial sample (or re-draws it from scratch).
    pub fn sample(&mut self, engine: &PackageEngine) -> PbResult<PackageResult> {
        self.refine(engine)
    }

    /// The query's spec with the rejected tuples removed from the candidate
    /// pool (locked tuples stay candidates; [`ExplorationSession::refine`]
    /// forces them into the package). The narrowed view is rebuilt in the
    /// engine's build context.
    fn narrowed_spec<'e>(&self, engine: &'e PackageEngine) -> PbResult<PackageSpec<'e>> {
        let spec = engine.build_spec(&self.query)?;
        // Probed once per candidate: flatten the set to a sorted vector.
        let rejected: Vec<TupleId> = self.rejected.iter().copied().collect();
        spec.restrict_candidates(
            |t| rejected.binary_search(&t).is_err(),
            &engine.build_context(),
        )
    }

    /// Produces a new sample that keeps every locked tuple, avoids rejected
    /// tuples, and replaces the rest — the "request a new sample that
    /// replaces the unselected tuples" interaction.
    pub fn refine(&mut self, engine: &PackageEngine) -> PbResult<PackageResult> {
        let narrowed = self.narrowed_spec(engine)?;

        // Verify locked tuples are still available.
        for &t in &self.locked {
            if narrowed.candidates.binary_search(&t).is_err() {
                return Err(PbError::Internal(format!(
                    "locked tuple {t} no longer satisfies the base constraints"
                )));
            }
        }

        let mut result = engine.execute_spec(&narrowed)?;
        // Filter to packages that honour the locked tuples; if none do, force
        // them in by a second pass seeded from the locked set (local search
        // keeps whatever is feasible).
        if !self.locked.is_empty() {
            let keep: Vec<usize> = result
                .packages
                .iter()
                .enumerate()
                .filter(|(_, p)| self.locked.iter().all(|t| p.multiplicity(*t) > 0))
                .map(|(i, _)| i)
                .collect();
            if !keep.is_empty() {
                result.packages = keep.iter().map(|&i| result.packages[i].clone()).collect();
                result.objectives = keep.iter().map(|&i| result.objectives[i]).collect();
            } else if let Some(best) = result.packages.first().cloned() {
                // Merge: start from the locked tuples and fill with the best
                // package's remaining members.
                let mut merged = Package::from_ids(self.locked.iter().copied());
                for (tid, m) in best.members() {
                    if merged.cardinality() >= best.cardinality() {
                        break;
                    }
                    if merged.multiplicity(tid) == 0 {
                        merged.add(tid, m);
                    }
                }
                let obj = narrowed.objective_value(&merged)?;
                result.packages = vec![merged];
                result.objectives = vec![obj];
                result.optimal = false;
            }
        }
        self.current = result.best().cloned();
        self.rounds += 1;
        Ok(result)
    }

    /// Constraints inferred from the locked tuples, following the paper's
    /// "identify additional package constraints": numeric attributes of the
    /// locked tuples induce per-tuple range constraints, text attributes that
    /// all locked tuples share induce equality constraints.
    pub fn inferred_constraints(&self, engine: &PackageEngine) -> PbResult<Vec<Suggestion>> {
        let table = engine.relation(&self.query)?;
        let mut out = Vec::new();
        if self.locked.is_empty() {
            return Ok(out);
        }
        let schema = table.schema();
        for col in schema.columns() {
            let mut numeric: Vec<f64> = Vec::new();
            let mut texts: BTreeSet<String> = BTreeSet::new();
            for &t in &self.locked {
                let v = table.require(t)?.get_named(&col.name)?;
                if v.is_null() {
                    continue;
                }
                match v.as_f64() {
                    Some(x) if col.ty.is_numeric() => numeric.push(x),
                    _ => {
                        texts.insert(v.to_string());
                    }
                }
            }
            if col.ty.is_numeric() && !numeric.is_empty() {
                // pb-lint: allow(no-nan-unsafe-ordering) — suggestion text
                // only: the range feeds a human-readable hint, not an order.
                let min = numeric.iter().copied().fold(f64::INFINITY, f64::min);
                // pb-lint: allow(no-nan-unsafe-ordering) — suggestion text
                // only: the range feeds a human-readable hint, not an order.
                let max = numeric.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                out.push(Suggestion {
                    kind: crate::suggest::SuggestionKind::BaseConstraint,
                    paql: format!("{} BETWEEN {} AND {}", col.name, min, max),
                    description: format!(
                        "keep tuples whose {} lies in the range of the tuples you locked ({min}–{max})",
                        col.name
                    ),
                });
            } else if texts.len() == 1 {
                // len() == 1 guarantees an element; if that invariant ever
                // breaks, report it (PR-2 convention) rather than panicking
                // a user-facing suggestion pass.
                let v = texts.iter().next().ok_or_else(|| {
                    PbError::Internal("singleton text set yielded no element".into())
                })?;
                out.push(Suggestion {
                    kind: crate::suggest::SuggestionKind::BaseConstraint,
                    paql: format!("{} = '{}'", col.name, v),
                    description: format!("all locked tuples share {} = '{}'", col.name, v),
                });
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheStats;
    use crate::config::EngineConfig;
    use datagen::{recipes, Seed};
    use minidb::Catalog;

    const MEAL_QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' \
        SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 MAXIMIZE SUM(P.protein)";

    fn engine(n: usize, seed: u64) -> PackageEngine {
        let mut catalog = Catalog::new();
        catalog.register(recipes(n, Seed(seed)));
        PackageEngine::new(catalog)
    }

    #[test]
    fn the_narrowed_view_is_stored_as_the_engine_is_configured() {
        // Whatever PB_COLUMN_BUDGET says in the environment, the engine's
        // own budget decides where freshly built columns live — on every
        // route into the one build function.
        let mut catalog = Catalog::new();
        catalog.register(recipes(300, Seed(6)));
        for (budget, paged) in [(0usize, true), (usize::MAX, false)] {
            let config = EngineConfig::default().with_column_memory_budget(budget);
            let engine = PackageEngine::with_config(catalog.clone(), config.clone());
            let query = paql::parse(MEAL_QUERY).unwrap();

            // A cache miss builds every column.
            let missed = engine.build_spec(&query).unwrap();
            assert_eq!(missed.view().is_paged(), paged, "miss");
            // A hit on the same base predicate materializes only its new
            // term, SUM(fat).
            let wider = MEAL_QUERY.replace("MAXIMIZE", "AND SUM(P.fat) <= 90 MAXIMIZE");
            let hit = engine.build_spec(&paql::parse(&wider).unwrap()).unwrap();
            let stats = engine.view_cache().stats();
            assert_eq!((stats.misses, stats.hits), (1, 1));
            assert_eq!((stats.columns_reused, stats.columns_built), (3, 4));
            let mut columns = hit.view().terms().iter();
            assert!(columns.all(|t| t.is_paged() == paged), "hit + one new term");
            // A zero-capacity cache builds cold.
            let uncached =
                PackageEngine::with_config(catalog.clone(), config.with_view_cache_capacity(0));
            let cold = uncached.build_spec(&query).unwrap();
            assert_eq!(cold.view().is_paged(), paged, "capacity 0");
            assert_eq!(uncached.view_cache().stats(), CacheStats::default());

            // And the narrowed view of an exploration session.
            let mut session = ExplorationSession::new(query);
            let first = session.sample(&engine).unwrap();
            session.reject(first.best().unwrap().tuple_ids()[0]);
            let narrowed = session.narrowed_spec(&engine).unwrap();
            assert_eq!(narrowed.view().is_paged(), paged, "restrict_candidates");
            assert_eq!(narrowed.candidate_count() + 1, missed.candidate_count());
        }
    }

    #[test]
    fn sample_then_lock_then_refine_keeps_locked_tuples() {
        let engine = engine(300, 1);
        let query = paql::parse(MEAL_QUERY).unwrap();
        let mut session = ExplorationSession::new(query);
        let first = session.sample(&engine).unwrap();
        assert!(!first.is_empty());
        let keep = session.current().unwrap().tuple_ids()[0];
        session.lock(keep).unwrap();
        let refined = session.refine(&engine).unwrap();
        assert!(!refined.is_empty());
        assert!(
            refined.best().unwrap().multiplicity(keep) > 0,
            "locked tuple must survive refinement"
        );
        assert_eq!(session.rounds(), 2);
    }

    #[test]
    fn rejected_tuples_never_reappear() {
        let engine = engine(300, 2);
        let query = paql::parse(MEAL_QUERY).unwrap();
        let mut session = ExplorationSession::new(query);
        session.sample(&engine).unwrap();
        let bad = session.current().unwrap().tuple_ids()[0];
        session.reject(bad);
        for _ in 0..3 {
            let r = session.refine(&engine).unwrap();
            if let Some(p) = r.best() {
                assert_eq!(p.multiplicity(bad), 0, "rejected tuple reappeared");
            }
        }
    }

    #[test]
    fn locking_a_tuple_outside_the_sample_errors() {
        let engine = engine(100, 3);
        let query = paql::parse(MEAL_QUERY).unwrap();
        let mut session = ExplorationSession::new(query);
        assert!(session.lock(TupleId(0)).is_err());
        session.sample(&engine).unwrap();
        let absent = (0..100u32)
            .map(TupleId)
            .find(|t| session.current().unwrap().multiplicity(*t) == 0)
            .unwrap();
        assert!(session.lock(absent).is_err());
    }

    #[test]
    fn inferred_constraints_reflect_locked_tuples() {
        let engine = engine(300, 4);
        let query = paql::parse(MEAL_QUERY).unwrap();
        let mut session = ExplorationSession::new(query);
        session.sample(&engine).unwrap();
        assert!(session.inferred_constraints(&engine).unwrap().is_empty());
        for t in session.current().unwrap().tuple_ids() {
            session.lock(t).unwrap();
        }
        let inferred = session.inferred_constraints(&engine).unwrap();
        assert!(!inferred.is_empty());
        // All locked recipes are gluten-free, so the shared-text rule fires.
        assert!(
            inferred.iter().any(|s| s.paql.contains("gluten = 'free'")),
            "expected a gluten = 'free' inference, got {inferred:?}"
        );
        // Numeric ranges parse as PaQL base constraints.
        for s in &inferred {
            paql::parser::parse_base_expr(&s.paql).unwrap();
        }
    }

    #[test]
    fn unlock_removes_the_lock() {
        let engine = engine(200, 5);
        let query = paql::parse(MEAL_QUERY).unwrap();
        let mut session = ExplorationSession::new(query);
        session.sample(&engine).unwrap();
        let t = session.current().unwrap().tuple_ids()[0];
        session.lock(t).unwrap();
        session.unlock(t);
        assert_eq!(session.locked().count(), 0);
    }
}
