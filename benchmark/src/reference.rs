//! Checked-in reference answers: `expected/<workload>.<data seed>.json`.
//!
//! `--record` writes the verification pass's answers; a normal run compares
//! its own verification pass with them. The answers depend on the data seed
//! alone (the verification pass appends nothing and runs in canonical
//! order), so one file serves every `--seed`.
//!
//! What counts as wrong, per operation kind: feasibility or the number of
//! packages differs, or the objective is worse than the reference by more
//! than a relative 1e-9, or it is better than a reference that was proven
//! optimal. Only an answer *better* than a heuristic or node-capped
//! reference passes without re-recording (a change that claims a gain may
//! not edit the benchmark, and finding a better incumbent is such a gain);
//! it raises `quality_mean` above 1. Node and iteration counts and the
//! strategy label are work done, not answers: they are the per-layer
//! metrics a solver change is meant to move, so a difference is printed as a
//! note. A script kind without a reference entry, or an entry without a
//! kind, stops the run: the file is stale and must be re-recorded.

use std::path::PathBuf;

use crate::json::Json;
use crate::runner::Answer;
use crate::workloads::Op;

/// Objectives equal within this relative tolerance are the same objective.
const OBJECTIVE_TOLERANCE: f64 = 1e-9;

pub fn path(workload: &str, data_seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{workload}.{data_seed}.json"))
}

fn entry(answer: &Answer) -> Json {
    Json::obj([
        ("feasible", Json::Bool(answer.feasible)),
        ("packages", Json::Num(answer.packages as f64)),
        ("objective", answer.objective.map_or(Json::Null, Json::Num)),
        ("cardinality", Json::Num(answer.cardinality as f64)),
        ("strategy", Json::str(&answer.strategy)),
        ("optimal", Json::Bool(answer.optimal)),
        ("nodes", Json::Num(answer.nodes as f64)),
        ("iterations", Json::Num(answer.iterations as f64)),
    ])
}

/// Writes the reference file for a verification pass.
pub fn record(
    workload: &str,
    data_seed: u64,
    script: &[Op],
    answers: &[Option<Answer>],
) -> Result<PathBuf, String> {
    let kinds: Vec<(String, Json)> = script
        .iter()
        .zip(answers)
        .filter_map(|(op, a)| a.as_ref().map(|a| (op.kind.to_string(), entry(a))))
        .collect();
    let file = Json::obj([
        ("workload", Json::str(workload)),
        ("data_seed", Json::Num(data_seed as f64)),
        ("kinds", Json::Obj(kinds)),
    ]);
    let path = path(workload, data_seed);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, file.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// The outcome of comparing a verification pass with its reference file.
pub struct Comparison {
    /// One line per operation that is wrong.
    pub wrong: Vec<String>,
    /// Differences in work done (nodes, iterations, strategy, a better
    /// incumbent under a cap), which are not failures.
    pub notes: Vec<String>,
    /// Mean over feasible kinds with an objective of `objective / reference`
    /// (inverted for MINIMIZE).
    pub quality_mean: f64,
}

pub fn compare(
    workload: &str,
    data_seed: u64,
    script: &[Op],
    answers: &[Option<Answer>],
) -> Result<Comparison, String> {
    let path = path(workload, data_seed);
    let rerecord = format!("`--workload {workload} --data-seed {data_seed} --record`");
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "no reference answers for data seed {data_seed} ({}: {e}); \
             record them with {rerecord}",
            path.display()
        )
    })?;
    let file = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Obj(kinds)) = file.get("kinds") else {
        return Err(format!("{}: no \"kinds\"", path.display()));
    };
    judge(kinds, script, answers)
        .map_err(|e| format!("{}: {e}; re-record with {rerecord}", path.display()))
}

/// Compares answers with a reference file's entries by kind. `Err` when the
/// entries and the script's kinds do not match one to one.
fn judge(
    kinds: &[(String, Json)],
    script: &[Op],
    answers: &[Option<Answer>],
) -> Result<Comparison, String> {
    if let Some((stray, _)) = kinds
        .iter()
        .find(|(kind, _)| !script.iter().any(|op| op.kind == kind))
    {
        return Err(format!("'{stray}' is not a kind of the script"));
    }

    let mut out = Comparison {
        wrong: Vec::new(),
        notes: Vec::new(),
        quality_mean: 0.0,
    };
    let mut ratios = Vec::new();
    for (op, answer) in script.iter().zip(answers) {
        // No answer: the verification pass does not append, and an operation
        // that failed outright is already counted by the runner.
        let Some(answer) = answer else { continue };
        let want = kinds
            .iter()
            .find_map(|(kind, want)| (kind == op.kind).then_some(want))
            .ok_or_else(|| format!("no reference for kind '{}'", op.kind))?;
        let flag = |key: &str| want.get(key).and_then(Json::as_bool).unwrap_or(false);
        let number = |key: &str| want.get(key).and_then(Json::as_f64);
        if answer.feasible != flag("feasible") || number("packages") != Some(answer.packages as f64)
        {
            out.wrong.push(format!(
                "{}: feasible={} with {} package(s), but the reference says {} with {}",
                op.kind,
                answer.feasible,
                answer.packages,
                flag("feasible"),
                number("packages").unwrap_or(0.0)
            ));
            continue;
        }
        match (answer.objective, number("objective")) {
            (Some(got), Some(reference)) => {
                let tolerance = OBJECTIVE_TOLERANCE * reference.abs().max(1.0);
                let gain = if answer.minimize {
                    reference - got
                } else {
                    got - reference
                };
                if gain < -tolerance {
                    out.wrong.push(format!(
                        "{}: objective {got} is worse than the reference {reference}",
                        op.kind
                    ));
                } else if gain > tolerance && flag("optimal") {
                    out.wrong.push(format!(
                        "{}: objective {got} beats the proven optimum {reference}",
                        op.kind
                    ));
                } else if gain > tolerance {
                    out.notes.push(format!(
                        "{}: objective {got} improves on the reference {reference}",
                        op.kind
                    ));
                }
                if reference != 0.0 && got != 0.0 {
                    ratios.push(if answer.minimize {
                        reference / got
                    } else {
                        got / reference
                    });
                }
            }
            (None, None) => {}
            (got, reference) => out.wrong.push(format!(
                "{}: objective {got:?}, reference {reference:?}",
                op.kind
            )),
        }
        for (key, got) in [
            ("cardinality", answer.cardinality),
            ("nodes", answer.nodes),
            ("iterations", answer.iterations),
        ] {
            if number(key) != Some(got as f64) {
                out.notes.push(format!(
                    "{}: {key} {got}, reference {}",
                    op.kind,
                    number(key).unwrap_or(0.0)
                ));
            }
        }
        if want.get("strategy").and_then(Json::as_str) != Some(&answer.strategy) {
            out.notes.push(format!(
                "{}: strategy {}, reference {:?}",
                op.kind,
                answer.strategy,
                want.get("strategy").and_then(Json::as_str)
            ));
        }
    }
    out.quality_mean = if ratios.is_empty() {
        0.0
    } else {
        ratios.iter().sum::<f64>() / ratios.len() as f64
    };
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Action;

    fn op(kind: &'static str) -> Op {
        Op {
            kind,
            action: Action::Append { invalidate: "t" },
        }
    }

    fn answer(objective: f64, minimize: bool) -> Answer {
        Answer {
            feasible: true,
            packages: 1,
            objective: Some(objective),
            cardinality: 3,
            strategy: "ilp".to_string(),
            optimal: false,
            nodes: 10,
            iterations: 100,
            candidates: 50,
            minimize,
        }
    }

    /// The reference entry of `answer`, proven optimal or not.
    fn recorded(kind: &str, answer: &Answer, optimal: bool) -> (String, Json) {
        let reference = Answer {
            optimal,
            ..answer.clone()
        };
        (kind.to_string(), entry(&reference))
    }

    #[test]
    fn a_worse_objective_fails_and_a_better_one_passes_only_against_an_unproven_reference() {
        let script = [op("max"), op("min")];
        let reference = [answer(100.0, false), answer(100.0, true)];
        let judged = |max: f64, min: f64, optimal: bool| {
            let kinds = [
                recorded("max", &reference[0], optimal),
                recorded("min", &reference[1], optimal),
            ];
            let answers = [Some(answer(max, false)), Some(answer(min, true))];
            judge(&kinds, &script, &answers).unwrap()
        };
        let same = judged(100.0, 100.0, true);
        assert!(same.wrong.is_empty() && same.notes.is_empty());
        assert_eq!(same.quality_mean, 1.0);
        // Within the relative 1e-9 is the same objective.
        assert!(judged(100.0 - 5e-8, 100.0 + 5e-8, true).wrong.is_empty());

        let worse = judged(99.0, 101.0, false);
        assert_eq!(worse.wrong.len(), 2, "{:?}", worse.wrong);
        assert!(worse.quality_mean < 1.0);

        let better = judged(101.0, 99.0, false);
        assert!(better.wrong.is_empty(), "{:?}", better.wrong);
        assert_eq!(better.notes.len(), 2);
        assert!(better.quality_mean > 1.0);
        assert_eq!(judged(101.0, 99.0, true).wrong.len(), 2);
    }

    #[test]
    fn feasibility_and_package_counts_must_match_and_work_counters_are_notes() {
        let script = [op("k")];
        let reference = answer(100.0, false);
        let kinds = [recorded("k", &reference, false)];
        let infeasible = Answer {
            feasible: false,
            packages: 0,
            objective: None,
            ..reference.clone()
        };
        let judged = judge(&kinds, &script, &[Some(infeasible)]).unwrap();
        assert_eq!(judged.wrong.len(), 1);
        let rerouted = Answer {
            strategy: "greedy".to_string(),
            nodes: 0,
            iterations: 0,
            ..reference.clone()
        };
        let judged = judge(&kinds, &script, &[Some(rerouted)]).unwrap();
        assert!(judged.wrong.is_empty());
        assert_eq!(judged.notes.len(), 3);
    }

    #[test]
    fn kinds_and_entries_must_match_one_to_one() {
        let reference = answer(100.0, false);
        let kinds = [recorded("k", &reference, false)];
        let answers = [Some(reference.clone()), Some(reference.clone())];
        assert!(judge(&kinds, &[op("k"), op("new")], &answers).is_err());
        assert!(judge(&kinds, &[op("other")], &answers[..1]).is_err());
        // An operation without an answer (the append) needs no entry.
        assert!(judge(
            &kinds,
            &[op("k"), op("append")],
            &[answers[0].clone(), None]
        )
        .is_ok());
    }
}
