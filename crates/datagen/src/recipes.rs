//! Synthetic recipe/meal dataset (the demo's meal-planner workload).

use minidb::{ColumnType, Schema, Table, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Seed;

const COURSES: &[&str] = &["breakfast", "lunch", "dinner", "snack", "dessert"];
const CUISINES: &[&str] = &[
    "italian", "mexican", "indian", "japanese", "greek", "american", "thai",
];
const BASES: &[&str] = &[
    "oatmeal",
    "omelette",
    "pancakes",
    "granola",
    "smoothie",
    "salad",
    "soup",
    "sandwich",
    "burrito",
    "pasta",
    "risotto",
    "curry",
    "stir fry",
    "tacos",
    "pizza",
    "burger",
    "steak",
    "salmon",
    "tofu bowl",
    "chili",
    "lasagna",
    "paella",
    "ramen",
    "poke bowl",
    "quiche",
    "stew",
    "kebab",
    "falafel wrap",
    "sushi roll",
    "noodle soup",
    "fried rice",
    "grilled chicken",
    "casserole",
    "frittata",
    "gnocchi",
];
const STYLES: &[&str] = &[
    "classic",
    "spicy",
    "creamy",
    "light",
    "hearty",
    "smoky",
    "herbed",
    "roasted",
    "grilled",
    "baked",
    "slow-cooked",
    "zesty",
    "garlic",
    "honey",
    "lemon",
    "peppered",
];

/// The recipe schema used throughout the examples and benchmarks.
///
/// Columns mirror the nutrition attributes visible in the paper's Figure 1
/// screenshot (calories, protein, fats, carbs, ...) plus the gluten flag used
/// by the running example.
pub fn recipe_schema() -> Schema {
    Schema::build(&[
        ("recipe_id", ColumnType::Int),
        ("name", ColumnType::Text),
        ("course", ColumnType::Text),
        ("cuisine", ColumnType::Text),
        ("calories", ColumnType::Float),
        ("protein", ColumnType::Float),
        ("fat", ColumnType::Float),
        ("carbs", ColumnType::Float),
        ("sugar", ColumnType::Float),
        ("sodium", ColumnType::Float),
        ("fiber", ColumnType::Float),
        ("gluten", ColumnType::Text),
        ("vegetarian", ColumnType::Bool),
        ("prep_minutes", ColumnType::Int),
        ("price", ColumnType::Float),
        ("rating", ColumnType::Float),
    ])
}

/// Generates `n` synthetic recipes.
///
/// Calorie counts are drawn so that three-meal day plans in the
/// 2 000–2 500 kcal window (the paper's example) are feasible but not
/// trivial: most meals fall between 150 and 1 100 kcal with a mean around
/// 550. Macros (protein/fat/carbs) are correlated with calories so that
/// "maximize protein subject to a calorie budget" has meaningful structure.
pub fn recipes(n: usize, seed: Seed) -> Table {
    let mut table = Table::new("recipes", recipe_schema());
    for row in recipe_rows(n, seed) {
        table
            .insert(row)
            .expect("generated tuple matches the recipe schema");
    }
    table
}

/// [`recipes`] as a lazy row stream: yields the same `n` tuples one at a
/// time, so a consumer can fill a table (or feed a columnar build)
/// chunk-at-a-time without a second whole-relation buffer in flight.
/// Generation is prefix-stable — the first `k` rows are identical for every
/// `n >= k` under the same seed.
pub fn recipe_rows(n: usize, seed: Seed) -> impl Iterator<Item = Tuple> {
    let mut rng = StdRng::seed_from_u64(seed.0);
    (0..n).map(move |i| {
        let base = BASES[rng.random_range(0..BASES.len())];
        let style = STYLES[rng.random_range(0..STYLES.len())];
        let course = COURSES[rng.random_range(0..COURSES.len())];
        let cuisine = CUISINES[rng.random_range(0..CUISINES.len())];
        let name = format!("{style} {base} #{i}");

        // Calories: log-normal-ish mixture by course.
        let base_cal: f64 = match course {
            "breakfast" => 420.0,
            "lunch" => 620.0,
            "dinner" => 760.0,
            "snack" => 220.0,
            _ => 330.0,
        };
        let spread: f64 = rng.random_range(-0.55..0.75);
        let calories = (base_cal * (1.0 + spread)).clamp(90.0, 1400.0);

        // Protein fraction between 8% and 40% of calories (4 kcal per gram).
        let protein_frac = rng.random_range(0.08..0.40);
        let protein = (calories * protein_frac / 4.0).round();
        // Fat fraction between 15% and 45% (9 kcal per gram).
        let fat_frac = rng.random_range(0.15..0.45);
        let fat = (calories * fat_frac / 9.0).round();
        // Remaining calories to carbs (4 kcal per gram).
        let carbs = ((calories * (1.0 - protein_frac - fat_frac)).max(0.0) / 4.0).round();
        let sugar = (carbs * rng.random_range(0.05..0.55)).round();
        let sodium = rng.random_range(40.0..1400.0_f64).round();
        let fiber = rng.random_range(0.0..14.0_f64).round();
        let gluten = if rng.random_range(0.0..1.0) < 0.42 {
            "free"
        } else {
            "full"
        };
        let vegetarian = rng.random_range(0.0..1.0) < 0.35;
        let prep_minutes = rng.random_range(5..90_i64);
        let price = (rng.random_range(1.5..18.0_f64) * 100.0).round() / 100.0;
        let rating = (rng.random_range(1.0..5.0_f64) * 10.0).round() / 10.0;

        Tuple::new(vec![
            Value::Int(i as i64),
            Value::Text(name),
            Value::Text(course.to_string()),
            Value::Text(cuisine.to_string()),
            Value::Float(calories.round()),
            Value::Float(protein),
            Value::Float(fat),
            Value::Float(carbs),
            Value::Float(sugar),
            Value::Float(sodium),
            Value::Float(fiber),
            Value::Text(gluten.to_string()),
            Value::Bool(vegetarian),
            Value::Int(prep_minutes),
            Value::Float(price),
            Value::Float(rating),
        ])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::stats::TableStats;

    #[test]
    fn generates_requested_row_count_with_full_schema() {
        let t = recipes(250, Seed(1));
        assert_eq!(t.len(), 250);
        assert_eq!(t.schema().arity(), recipe_schema().arity());
    }

    #[test]
    fn calorie_range_supports_the_paper_example() {
        // The running example needs 3 gluten-free meals totalling 2000-2500
        // kcal; verify the marginals make that feasible.
        let t = recipes(1000, Seed(2));
        let stats = TableStats::of_table(&t);
        let cal = stats.column("calories").unwrap();
        assert!(cal.min >= 90.0);
        assert!(cal.max <= 1400.0);
        assert!(
            cal.mean > 350.0 && cal.mean < 750.0,
            "mean was {}",
            cal.mean
        );
        let gluten_free = t
            .rows()
            .filter(|r| r.values()[11] == Value::Text("free".into()))
            .count();
        assert!(
            gluten_free > 250,
            "only {gluten_free} gluten-free recipes in 1000"
        );
    }

    #[test]
    fn macros_are_consistent_with_calories() {
        let t = recipes(200, Seed(3));
        for row in t.rows() {
            let cal = row.get_f64("calories").unwrap();
            let protein = row.get_f64("protein").unwrap();
            let fat = row.get_f64("fat").unwrap();
            let carbs = row.get_f64("carbs").unwrap();
            let reconstructed = protein * 4.0 + fat * 9.0 + carbs * 4.0;
            assert!(
                (reconstructed - cal).abs() < 0.2 * cal + 20.0,
                "macros ({reconstructed}) inconsistent with calories ({cal})"
            );
        }
    }
}
