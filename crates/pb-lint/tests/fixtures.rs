//! Fixture-driven rule tests.
//!
//! Every rule has a known-bad snippet that must fire (with pinned lines, so
//! a matcher regression shows up as a moved finding, not just a changed
//! count) and a known-good snippet — keyed access, exemptions, annotations,
//! and rule-pattern mentions inside strings and comments — that must stay
//! completely silent. Fixtures live under `tests/fixtures/`; the workspace
//! walker skips that directory, and the snippets are analyzed as text, never
//! compiled.

use pb_lint::{analyze_source, FileClass};

/// Fixtures are analyzed as if they sat on a solver path — the strictest
/// class, which every rule applies to.
const REL: &str = "crates/core/src/fixture_under_test.rs";

/// Lines on which `rule` fired, plus a guard that nothing *else* fired
/// (`allow-hygiene` included) so fixtures stay single-purpose.
fn hits(src: &str, rule: &str) -> Vec<usize> {
    let findings = analyze_source(REL, FileClass::SolverPath, src);
    let stray: Vec<_> = findings.iter().filter(|f| f.rule != rule).collect();
    assert!(stray.is_empty(), "unexpected extra findings: {stray:?}");
    findings
        .into_iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

fn assert_silent(src: &str, rel: &str) {
    let findings = analyze_source(rel, FileClass::SolverPath, src);
    assert!(findings.is_empty(), "expected silence, got {findings:?}");
}

#[test]
fn no_hash_iteration_fires_on_every_form() {
    let lines = hits(
        include_str!("fixtures/no_hash_iteration_bad.rs"),
        "no-hash-iteration",
    );
    // `for … in`, a rustfmt-split `.keys()` chain, and `.drain()`.
    assert_eq!(lines, vec![6, 15, 22]);
}

#[test]
fn no_hash_iteration_spares_keyed_and_ordered_access() {
    assert_silent(include_str!("fixtures/no_hash_iteration_good.rs"), REL);
}

#[test]
fn no_nan_unsafe_ordering_fires_on_folds_and_partial_cmp() {
    let lines = hits(
        include_str!("fixtures/no_nan_unsafe_ordering_bad.rs"),
        "no-nan-unsafe-ordering",
    );
    assert_eq!(lines, vec![3, 7, 11]);
}

#[test]
fn no_nan_unsafe_ordering_spares_total_cmp_and_definitions() {
    assert_silent(include_str!("fixtures/no_nan_unsafe_ordering_good.rs"), REL);
}

#[test]
fn thread_containment_fires_outside_the_seams() {
    let lines = hits(
        include_str!("fixtures/thread_containment_bad.rs"),
        "thread-containment",
    );
    assert_eq!(lines, vec![3, 4, 7]);
}

#[test]
fn thread_containment_spares_parexec_users_and_the_homes() {
    assert_silent(include_str!("fixtures/thread_containment_good.rs"), REL);
    // The same bad snippet inside the audited seam is allowed wholesale.
    assert_silent(
        include_str!("fixtures/thread_containment_bad.rs"),
        "crates/lp-solver/src/par.rs",
    );
    // Its users are not homes: the race and the B&B batches post jobs.
    for rel in [
        "crates/core/src/portfolio.rs",
        "crates/lp-solver/src/branch_bound.rs",
    ] {
        let bad = include_str!("fixtures/thread_containment_bad.rs");
        let findings = analyze_source(rel, FileClass::SolverPath, bad);
        assert_eq!(findings.len(), 3, "{rel}: {findings:?}");
    }
}

#[test]
fn time_containment_fires_on_unannotated_clock_reads() {
    let lines = hits(
        include_str!("fixtures/time_containment_bad.rs"),
        "time-containment",
    );
    assert_eq!(lines, vec![3, 8]);
}

#[test]
fn time_containment_spares_budget_rs_and_annotated_stats() {
    assert_silent(include_str!("fixtures/time_containment_good.rs"), REL);
    // budget.rs owns the authoritative clock; the rule skips it entirely.
    assert_silent(
        include_str!("fixtures/time_containment_bad.rs"),
        "crates/core/src/budget.rs",
    );
}

#[test]
fn unsafe_audit_fires_on_every_uncovered_site_kind() {
    let lines = hits(include_str!("fixtures/unsafe_audit_bad.rs"), "unsafe-audit");
    // block, fn, impl.
    assert_eq!(lines, vec![3, 6, 12]);
}

#[test]
fn unsafe_audit_accepts_every_safety_argument_form() {
    assert_silent(include_str!("fixtures/unsafe_audit_good.rs"), REL);
}

#[test]
fn no_panic_fires_on_unwrap_expect_and_macros() {
    let lines = hits(
        include_str!("fixtures/no_panic_in_solver_paths_bad.rs"),
        "no-panic-in-solver-paths",
    );
    assert_eq!(lines, vec![3, 4, 6, 9]);
}

#[test]
fn no_panic_spares_poison_idiom_annotations_and_asserts() {
    assert_silent(
        include_str!("fixtures/no_panic_in_solver_paths_good.rs"),
        REL,
    );
}

#[test]
fn no_panic_covers_the_relational_substrate_but_not_its_tests() {
    // minidb's column kernels run inside every cold build and paql parses
    // every query: their sources are held to the solver paths' panic rule
    // although both crates are infra.
    for rel in ["crates/minidb/src/eval.rs", "crates/paql/src/parser.rs"] {
        let lines: Vec<usize> = analyze_source(
            rel,
            FileClass::Infra,
            include_str!("fixtures/no_panic_in_solver_paths_bad.rs"),
        )
        .into_iter()
        .filter(|f| f.rule == "no-panic-in-solver-paths")
        .map(|f| f.line)
        .collect();
        assert_eq!(lines, vec![3, 4, 6, 9], "{rel}");
    }
    // Annotated invariants, the poison idiom and asserts stay legal there.
    let findings = analyze_source(
        "crates/minidb/src/column.rs",
        FileClass::Infra,
        include_str!("fixtures/no_panic_in_solver_paths_good.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
    let findings = analyze_source(
        "crates/minidb/tests/proptests.rs",
        FileClass::Test,
        include_str!("fixtures/no_panic_in_solver_paths_bad.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn no_fused_multiply_add_fires_on_method_and_path_calls() {
    let lines = hits(
        include_str!("fixtures/no_fused_multiply_add_bad.rs"),
        "no-fused-multiply-add",
    );
    assert_eq!(lines, vec![3, 7]);
}

#[test]
fn no_fused_multiply_add_spares_the_two_step_form_and_other_crates() {
    assert_silent(include_str!("fixtures/no_fused_multiply_add_good.rs"), REL);
    // The column kernels that compute gated coefficients live in minidb.
    let lines: Vec<usize> = analyze_source(
        "crates/minidb/src/eval.rs",
        FileClass::Infra,
        include_str!("fixtures/no_fused_multiply_add_bad.rs"),
    )
    .into_iter()
    .filter(|f| f.rule == "no-fused-multiply-add")
    .map(|f| f.line)
    .collect();
    assert_eq!(lines, vec![3, 7]);
    // Only the bit-exact crates are in scope: the bench harness may fuse.
    let findings = analyze_source(
        "crates/bench/src/bin/harness.rs",
        FileClass::Bench,
        include_str!("fixtures/no_fused_multiply_add_bad.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn no_fused_multiply_add_fires_on_fma_features_intrinsics_and_target_cpu() {
    let bad = include_str!("fixtures/no_fused_multiply_add_simd_bad.rs");
    // `enable = "avx2,fma"`, a split attribute's `"fma"`, two intrinsics and
    // a build script's `target-cpu=`.
    assert_eq!(hits(bad, "no-fused-multiply-add"), vec![2, 10, 13, 14, 18]);
    // A build script of a bit-exact crate is in scope too.
    let findings = analyze_source("crates/lp-solver/build.rs", FileClass::Infra, bad);
    assert_eq!(findings.len(), 5, "{findings:?}");
}

#[test]
fn no_fused_multiply_add_spares_avx2_alone_and_feature_reads() {
    assert_silent(
        include_str!("fixtures/no_fused_multiply_add_simd_good.rs"),
        REL,
    );
}

#[test]
fn solver_only_rules_skip_infra_files() {
    // The panic fixture fires on a solver path but not in infra code, where
    // panicking on corruption is legitimate.
    let findings = analyze_source(
        "crates/core/src/column_store.rs",
        FileClass::Infra,
        include_str!("fixtures/no_panic_in_solver_paths_bad.rs"),
    );
    assert!(
        findings
            .iter()
            .all(|f| f.rule != "no-panic-in-solver-paths"),
        "{findings:?}"
    );
}
