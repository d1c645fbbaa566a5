//! Module-path classification: which invariants a file must uphold.
//!
//! Every rule declares the [`FileClass`]es it applies to; classification is
//! purely path-based so the mapping is auditable at a glance (and cheap).
//! The split mirrors the architecture section of `ROADMAP.md`:
//!
//! * **SolverPath** — code a `Solver::solve` call can reach: everything a
//!   determinism or soundness bug in which silently corrupts query answers.
//! * **Infra** — storage, caching, configuration and error plumbing. Still
//!   production code (thread/time containment and the unsafe audit apply),
//!   but keyed `HashMap` access and `panic!` on I/O corruption are
//!   legitimate here.
//! * **Bench** — the bench harness and data generators; they time things
//!   and print, by design.
//! * **Test** — integration test trees (`tests/` directories). In-file
//!   `#[cfg(test)]` modules are masked line-wise by
//!   [`crate::lexer::test_regions`] instead.
//! * **Example** — runnable walkthroughs under `examples/`.
//! * **Shim** — the offline stand-ins for registry crates under
//!   `crates/shims/`; API fidelity beats house style there.
//! * **Tool** — `pb-lint` itself and any future dev-tooling.

/// The enforcement class of one source file. See the module docs for what
/// each class means; rules pick their scope via [`FileClass::is_solver`]
/// and friends or by matching explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Solver-reachable engine code (`crates/core`, `crates/lp-solver`).
    SolverPath,
    /// Production infrastructure: storage, cache, config, parsing.
    Infra,
    /// Benchmarks and data generation.
    Bench,
    /// Integration tests (`tests/` trees).
    Test,
    /// Examples.
    Example,
    /// Offline shims for registry crates.
    Shim,
    /// Developer tooling (including this crate).
    Tool,
}

impl FileClass {
    /// Solver-reachable code — the strictest rule set.
    pub fn is_solver(self) -> bool {
        matches!(self, FileClass::SolverPath)
    }

    /// Code that ships in the library product (solver paths + infra).
    pub fn is_production(self) -> bool {
        matches!(self, FileClass::SolverPath | FileClass::Infra)
    }
}

/// Files in `crates/core/src` that are *not* solver-reachable hot paths:
/// the cross-query cache, the out-of-core page store, configuration, error
/// types and the crate façade. Everything else in `core` is solver code.
const CORE_INFRA: &[&str] = &[
    "cache.rs",
    "column_store.rs",
    "config.rs",
    "error.rs",
    "lib.rs",
];

/// Classifies a workspace-relative path (`/`-separated).
pub fn classify(rel: &str) -> FileClass {
    let rel = rel.replace('\\', "/");
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.contains(&"tests") {
        return FileClass::Test;
    }
    if parts.contains(&"examples") {
        return FileClass::Example;
    }
    if rel.starts_with("crates/shims/") {
        return FileClass::Shim;
    }
    if rel.starts_with("crates/pb-lint/") {
        return FileClass::Tool;
    }
    if rel.starts_with("crates/bench/") || rel.starts_with("crates/datagen/") {
        return FileClass::Bench;
    }
    if rel.starts_with("crates/core/src/") {
        let file = parts.last().copied().unwrap_or("");
        if CORE_INFRA.contains(&file) {
            return FileClass::Infra;
        }
        return FileClass::SolverPath;
    }
    if rel.starts_with("crates/lp-solver/src/") {
        return FileClass::SolverPath;
    }
    if rel.starts_with("crates/minidb/") || rel.starts_with("crates/paql/") {
        return FileClass::Infra;
    }
    // The umbrella crate's `src/lib.rs`, benches, build scripts, …
    FileClass::Infra
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_the_architecture_split() {
        assert_eq!(classify("crates/core/src/ilp.rs"), FileClass::SolverPath);
        assert_eq!(
            classify("crates/lp-solver/src/par.rs"),
            FileClass::SolverPath
        );
        assert_eq!(classify("crates/core/src/cache.rs"), FileClass::Infra);
        assert_eq!(
            classify("crates/core/src/column_store.rs"),
            FileClass::Infra
        );
        assert_eq!(
            classify("crates/lp-solver/src/simplex.rs"),
            FileClass::SolverPath
        );
        assert_eq!(classify("crates/minidb/src/value.rs"), FileClass::Infra);
        assert_eq!(classify("crates/paql/src/parser.rs"), FileClass::Infra);
        assert_eq!(classify("crates/core/tests/view_cache.rs"), FileClass::Test);
        assert_eq!(classify("examples/quickstart.rs"), FileClass::Example);
        assert_eq!(classify("crates/shims/rand/src/lib.rs"), FileClass::Shim);
        assert_eq!(
            classify("crates/bench/src/bin/harness.rs"),
            FileClass::Bench
        );
        assert_eq!(classify("crates/datagen/src/travel.rs"), FileClass::Bench);
        assert_eq!(classify("crates/pb-lint/src/main.rs"), FileClass::Tool);
        assert_eq!(classify("src/lib.rs"), FileClass::Infra);
    }
}
