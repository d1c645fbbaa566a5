//! A tiny PaQL REPL over the bundled synthetic datasets.
//!
//! ```text
//! cargo run --release --example paql_repl
//! ```
//!
//! Commands:
//!   \tables            list relations with their row counts and sizes
//!   \schema <table>    show a relation's schema
//!   \sample <table>    show the first rows of a relation
//!   \quit              exit
//!   EXPLAIN <query>    print the query's plan (route, the rule that picked
//!                      it, a race's workers and node cap) without solving
//! Anything else is parsed and executed as a PaQL query.

use std::io::{self, BufRead, Write};

use packagebuilder_repro::datagen::{standard_catalog, Seed};
use packagebuilder_repro::packagebuilder::PackageEngine;
use packagebuilder_repro::paql;

fn main() {
    let engine = PackageEngine::new(standard_catalog(Seed(42)));
    println!(
        "PackageBuilder PaQL REPL — relations: {}",
        engine.catalog().table_names().join(", ")
    );
    println!("Example:");
    println!("  SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free'");
    println!("  SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 MAXIMIZE SUM(P.protein)");
    println!("Type \\quit to exit.\n");

    let stdin = io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("paql> ");
        } else {
            print!("  ... ");
        }
        io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('\\') {
            if handle_command(&engine, trimmed) {
                break;
            }
            continue;
        }
        if trimmed.is_empty() && !buffer.is_empty() {
            // A blank line terminates a multi-line query.
            execute(&engine, &buffer);
            buffer.clear();
            continue;
        }
        buffer.push_str(&line);
        // Single-line queries that look complete run immediately.
        if buffer.to_ascii_uppercase().contains("SELECT") && trimmed.ends_with(';') {
            let q = buffer.trim_end().trim_end_matches(';').to_string();
            execute(&engine, &q);
            buffer.clear();
        }
    }
}

/// Returns true when the REPL should exit.
fn handle_command(engine: &PackageEngine, command: &str) -> bool {
    let mut parts = command.split_whitespace();
    match parts.next() {
        Some("\\quit") | Some("\\q") => return true,
        Some("\\tables") => {
            for name in engine.catalog().table_names() {
                if let Some(t) = engine.catalog().table(name) {
                    // Typed column vectors, NULL bitmaps and dictionaries.
                    let bytes = t.approx_bytes();
                    println!(
                        "{name:<16} {:>8} rows  {:>9.1} KiB  ({:.1} B/row)",
                        t.len(),
                        bytes as f64 / 1024.0,
                        bytes as f64 / t.len().max(1) as f64
                    );
                }
            }
        }
        Some("\\schema") => match parts.next().and_then(|t| engine.catalog().table(t)) {
            Some(t) => println!("{} {}", t.name(), t.schema()),
            None => println!("usage: \\schema <table>"),
        },
        Some("\\sample") => match parts.next().and_then(|t| engine.catalog().table(t)) {
            Some(t) => println!("{}", t.render(5)),
            None => println!("usage: \\sample <table>"),
        },
        _ => println!("unknown command; available: \\tables, \\schema, \\sample, \\quit"),
    }
    false
}

fn execute(engine: &PackageEngine, text: &str) {
    let text = text.trim();
    if text.is_empty() {
        return;
    }
    let explain = text
        .split_once(char::is_whitespace)
        .filter(|(head, _)| head.eq_ignore_ascii_case("EXPLAIN"));
    let text = explain.map_or(text, |(_, query)| query.trim());
    match paql::parse(text) {
        Err(e) => println!("{}", e.render(text)),
        Ok(query) if explain.is_some() => {
            match engine
                .build_spec(&query)
                .and_then(|spec| engine.plan(&spec))
            {
                Err(e) => println!("error: {e}"),
                Ok(plan) => println!("{plan}"),
            }
        }
        Ok(query) => {
            println!("{}\n", paql::pretty::describe_query(&query));
            match engine.execute(&query) {
                Err(e) => println!("error: {e}"),
                Ok(result) => match engine.relation(&query) {
                    Ok(table) => println!("{}", result.describe(table)),
                    Err(e) => println!("error: {e}"),
                },
            }
        }
    }
}
