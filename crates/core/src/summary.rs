//! Visual summary of the package space (paper Section 3.2).
//!
//! "The system analyzes the current query specification and selects two
//! dimensions to visually layout the valid packages along. Users can use the
//! visual summary to navigate through the available packages by selecting
//! glyphs that represent them."
//!
//! [`summarize`] picks the two dimensions (the objective column first, then
//! the numeric columns referenced by global constraints, then any remaining
//! numeric column) and lays every package out as a glyph with both raw and
//! normalized coordinates. The interface draws the glyphs; the engine side is
//! the part reproduced and benchmarked here (experiment E5).

use paql::{GlobalExpr, GlobalFormula};

use crate::package::Package;
use crate::spec::PackageSpec;
use crate::PbResult;

/// One glyph in the 2-D summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Glyph {
    /// Index of the package in the input list.
    pub package_index: usize,
    /// Raw coordinate along the first dimension (e.g. total calories).
    pub x: f64,
    /// Raw coordinate along the second dimension.
    pub y: f64,
    /// `x` rescaled into `[0, 1]` over all glyphs.
    pub x_norm: f64,
    /// `y` rescaled into `[0, 1]` over all glyphs.
    pub y_norm: f64,
    /// Whether this glyph is the currently selected package (the interface
    /// highlights "the current package's position in the result space").
    pub selected: bool,
}

/// The 2-D package-space summary.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceSummary {
    /// Label of the first dimension (e.g. `SUM(calories)`).
    pub x_label: String,
    /// Label of the second dimension.
    pub y_label: String,
    /// One glyph per package.
    pub glyphs: Vec<Glyph>,
    /// Raw value ranges, `(min, max)` per dimension.
    pub x_range: (f64, f64),
    /// Raw value ranges, `(min, max)` per dimension.
    pub y_range: (f64, f64),
}

/// Chooses the two summary dimensions for a spec: the objective column first,
/// then columns referenced by SUM constraints, then any numeric column of the
/// relation. Returns `(x_column, y_column)`.
pub fn choose_dimensions(spec: &PackageSpec<'_>) -> (String, String) {
    let mut dims: Vec<String> = Vec::new();
    let push = |col: String, dims: &mut Vec<String>| {
        if !dims.iter().any(|d| d.eq_ignore_ascii_case(&col)) {
            dims.push(col);
        }
    };
    if let Some(obj) = &spec.objective {
        for agg in obj.expr.aggregates() {
            if let Some(minidb::Expr::Column(c)) = &agg.arg {
                push(c.clone(), &mut dims);
            }
        }
    }
    if let Some(formula) = &spec.formula {
        collect_formula_columns(formula, &mut |c| push(c, &mut dims));
    }
    for col in spec.table.schema().numeric_columns() {
        push(col.to_string(), &mut dims);
        if dims.len() >= 2 {
            break;
        }
    }
    let x = dims.first().cloned().unwrap_or_else(|| "count".to_string());
    let y = dims.get(1).cloned().unwrap_or_else(|| "count".to_string());
    (x, y)
}

fn collect_formula_columns(formula: &GlobalFormula, push: &mut impl FnMut(String)) {
    for atom in formula.atoms() {
        for expr in [&atom.lhs, &atom.rhs] {
            collect_expr_columns(expr, push);
        }
    }
}

fn collect_expr_columns(expr: &GlobalExpr, push: &mut impl FnMut(String)) {
    match expr {
        GlobalExpr::Agg(a) => {
            if let Some(minidb::Expr::Column(c)) = &a.arg {
                push(c.clone());
            }
        }
        GlobalExpr::Literal(_) => {}
        GlobalExpr::Binary { lhs, rhs, .. } => {
            collect_expr_columns(lhs, push);
            collect_expr_columns(rhs, push);
        }
    }
}

/// Computes the coordinate of a package along one dimension: the sum of the
/// column over the package (or the cardinality for the pseudo-dimension
/// `count`).
fn coordinate(spec: &PackageSpec<'_>, package: &Package, column: &str) -> PbResult<f64> {
    if column.eq_ignore_ascii_case("count") {
        return Ok(package.cardinality() as f64);
    }
    let call = paql::AggCall {
        func: paql::AggFunc::Sum,
        arg: Some(minidb::Expr::col(column)),
        filter: None,
    };
    Ok(package.eval_aggregate(spec.table, &call)?.unwrap_or(0.0))
}

/// Lays out `packages` in the 2-D space chosen by [`choose_dimensions`].
/// `selected` marks the glyph of the package the user is currently viewing.
pub fn summarize(
    spec: &PackageSpec<'_>,
    packages: &[Package],
    selected: Option<usize>,
) -> PbResult<SpaceSummary> {
    let (x_col, y_col) = choose_dimensions(spec);
    let mut glyphs = Vec::with_capacity(packages.len());
    for (i, p) in packages.iter().enumerate() {
        let x = coordinate(spec, p, &x_col)?;
        let y = coordinate(spec, p, &y_col)?;
        glyphs.push(Glyph {
            package_index: i,
            x,
            y,
            x_norm: 0.0,
            y_norm: 0.0,
            selected: selected == Some(i),
        });
    }
    let (x_min, x_max) = min_max(glyphs.iter().map(|g| g.x));
    let (y_min, y_max) = min_max(glyphs.iter().map(|g| g.y));
    for g in glyphs.iter_mut() {
        g.x_norm = normalize(g.x, x_min, x_max);
        g.y_norm = normalize(g.y, y_min, y_max);
    }
    Ok(SpaceSummary {
        x_label: format!("SUM({x_col})"),
        y_label: format!("SUM({y_col})"),
        glyphs,
        x_range: (x_min, x_max),
        y_range: (y_min, y_max),
    })
}

fn min_max(values: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for v in values {
        min = min.min(v);
        max = max.max(v);
    }
    if min > max {
        (0.0, 0.0)
    } else {
        (min, max)
    }
}

fn normalize(v: f64, min: f64, max: f64) -> f64 {
    if max > min {
        (v - min) / (max - min)
    } else {
        0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::tests::spec_for;
    use datagen::{recipes, Seed};

    const MEAL_QUERY: &str = "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' \
        SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 MAXIMIZE SUM(P.protein)";

    #[test]
    fn dimensions_prefer_objective_then_constraint_columns() {
        let t = recipes(60, Seed(1));
        let spec = spec_for(&t, MEAL_QUERY);
        let (x, y) = choose_dimensions(&spec);
        assert_eq!(x, "protein");
        assert_eq!(y, "calories");
    }

    #[test]
    fn dimensions_fall_back_to_numeric_columns() {
        let t = recipes(60, Seed(2));
        let spec = spec_for(
            &t,
            "SELECT PACKAGE(R) AS P FROM recipes R SUCH THAT COUNT(*) = 2",
        );
        let (x, y) = choose_dimensions(&spec);
        assert_ne!(x, y);
        assert!(t.schema().index_of(&x).is_some());
        assert!(t.schema().index_of(&y).is_some());
    }

    #[test]
    fn glyph_layout_normalizes_coordinates() {
        let t = recipes(100, Seed(3));
        let spec = spec_for(&t, MEAL_QUERY);
        let packages: Vec<Package> = (0..10)
            .map(|i| Package::from_ids(spec.candidates.iter().copied().skip(i).take(3)))
            .collect();
        let summary = summarize(&spec, &packages, Some(2)).unwrap();
        assert_eq!(summary.glyphs.len(), 10);
        assert!(summary
            .glyphs
            .iter()
            .all(|g| (0.0..=1.0).contains(&g.x_norm)));
        assert!(summary
            .glyphs
            .iter()
            .all(|g| (0.0..=1.0).contains(&g.y_norm)));
        assert_eq!(summary.glyphs.iter().filter(|g| g.selected).count(), 1);
        assert!(summary.x_label.contains("protein"));
        // Raw coordinates must equal the package sums.
        let p0_protein: f64 = packages[0]
            .members()
            .map(|(id, m)| t.value_f64(id, "protein").unwrap() * m as f64)
            .sum();
        assert!((summary.glyphs[0].x - p0_protein).abs() < 1e-9);
    }

    #[test]
    fn empty_package_list_yields_empty_summary() {
        let t = recipes(20, Seed(4));
        let spec = spec_for(&t, MEAL_QUERY);
        let summary = summarize(&spec, &[], None).unwrap();
        assert!(summary.glyphs.is_empty());
        assert_eq!(summary.x_range, (0.0, 0.0));
    }

    #[test]
    fn single_package_is_centered() {
        let t = recipes(20, Seed(5));
        let spec = spec_for(&t, MEAL_QUERY);
        let p = Package::from_ids(spec.candidates.iter().copied().take(3));
        let summary = summarize(&spec, &[p], Some(0)).unwrap();
        assert_eq!(summary.glyphs[0].x_norm, 0.5);
        assert!(summary.glyphs[0].selected);
    }
}
