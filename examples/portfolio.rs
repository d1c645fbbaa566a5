//! The investment-portfolio scenario from the paper's introduction: a $50K
//! budget, at least 30% of the assets in technology, and a balance of
//! short-term and long-term options.
//!
//! ```text
//! cargo run --release --example portfolio
//! ```

use packagebuilder_repro::datagen::{stocks, Seed};
use packagebuilder_repro::minidb::Catalog;
use packagebuilder_repro::packagebuilder::config::EngineConfig;
use packagebuilder_repro::packagebuilder::PackageEngine;

fn main() {
    let mut catalog = Catalog::new();
    catalog.register(stocks(1_500, Seed(23)));
    // Ask for the 3 best portfolios so the broker has alternatives to show.
    let engine = PackageEngine::with_config(catalog, EngineConfig::default().packages(3));
    let table = engine.catalog().table("stocks").unwrap();

    let query = "SELECT PACKAGE(S) AS P FROM stocks S \
        WHERE S.risk <= 0.5 \
        SUCH THAT SUM(P.price) <= 50000 AND \
                  SUM(P.price) FILTER (WHERE S.sector = 'technology') >= 0.3 * SUM(P.price) AND \
                  COUNT(*) FILTER (WHERE S.horizon = 'short') >= 3 AND \
                  COUNT(*) FILTER (WHERE S.horizon = 'long') >= 3 \
        MAXIMIZE SUM(P.expected_return)";

    println!("=== Investment portfolio: $50K budget, >=30% technology, balanced horizons ===\n");
    let result = engine
        .execute_paql(query)
        .expect("portfolio query evaluates");
    println!("{}", result.describe(table));

    // Show the composition of every returned portfolio.
    for (rank, pkg) in result.packages.iter().enumerate() {
        let total: f64 = pkg
            .members()
            .map(|(id, m)| table.value_f64(id, "price").unwrap() * m as f64)
            .sum();
        let tech: f64 = pkg
            .members()
            .filter(|(id, _)| {
                table
                    .require(*id)
                    .unwrap()
                    .get_named("sector")
                    .unwrap()
                    .to_string()
                    == "technology"
            })
            .map(|(id, m)| table.value_f64(id, "price").unwrap() * m as f64)
            .sum();
        let ret = result.objectives[rank].unwrap_or(f64::NAN);
        println!(
            "portfolio #{}: {} lots, cost ${:.0}, technology share {:.1}%, expected return ${:.0}",
            rank + 1,
            pkg.cardinality(),
            total,
            100.0 * tech / total,
            ret
        );
    }
}
