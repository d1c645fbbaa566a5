//! Synthetic travel datasets (the vacation-planner scenario).

use minidb::{ColumnType, Schema, Table, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Seed;

const DESTINATIONS: &[&str] = &[
    "Cancun",
    "Honolulu",
    "Phuket",
    "Bali",
    "Malé",
    "Fiji",
    "Barbados",
    "Aruba",
    "Mauritius",
    "Tahiti",
];
const AIRLINES: &[&str] = &[
    "AeroSol",
    "PacificJet",
    "TradeWinds",
    "IslandAir",
    "BlueLagoon",
];
const HOTEL_BRANDS: &[&str] = &[
    "Palm", "Coral", "Lagoon", "Breeze", "Sunset", "Tide", "Reef",
];
const CAR_CLASSES: &[&str] = &["compact", "sedan", "suv", "convertible"];

/// Flight schema.
pub fn flight_schema() -> Schema {
    Schema::build(&[
        ("flight_id", ColumnType::Int),
        ("airline", ColumnType::Text),
        ("destination", ColumnType::Text),
        ("price", ColumnType::Float),
        ("duration_hours", ColumnType::Float),
        ("stops", ColumnType::Int),
    ])
}

/// Hotel schema.
pub fn hotel_schema() -> Schema {
    Schema::build(&[
        ("hotel_id", ColumnType::Int),
        ("name", ColumnType::Text),
        ("destination", ColumnType::Text),
        ("price_per_night", ColumnType::Float),
        ("beach_distance_km", ColumnType::Float),
        ("stars", ColumnType::Int),
    ])
}

/// Rental-car schema.
pub fn car_schema() -> Schema {
    Schema::build(&[
        ("car_id", ColumnType::Int),
        ("class", ColumnType::Text),
        ("destination", ColumnType::Text),
        ("price_per_day", ColumnType::Float),
    ])
}

/// Unified travel-options schema used by the vacation-planner PaQL queries.
///
/// The demo paper's PaQL operates on a single base relation per package
/// query, so the vacation scenario materializes flights, hotel stays and car
/// rentals into one relation tagged by `kind`; per-kind cardinality
/// constraints are expressed with `FILTER` aggregates.
pub fn travel_option_schema() -> Schema {
    Schema::build(&[
        ("option_id", ColumnType::Int),
        ("kind", ColumnType::Text),
        ("name", ColumnType::Text),
        ("destination", ColumnType::Text),
        ("price", ColumnType::Float),
        ("beach_distance_km", ColumnType::Float),
        ("comfort", ColumnType::Float),
    ])
}

/// Generates `n` flights.
pub fn flights(n: usize, seed: Seed) -> Table {
    let mut t = Table::new("flights", flight_schema());
    for row in flight_rows(n, seed) {
        t.insert(row).expect("flight tuple matches schema");
    }
    t
}

/// [`flights`] as a lazy row stream (one row buffered at a time,
/// prefix-stable — see [`crate::recipes::recipe_rows`]).
pub fn flight_rows(n: usize, seed: Seed) -> impl Iterator<Item = Tuple> {
    let mut rng = StdRng::seed_from_u64(seed.0);
    (0..n).map(move |i| {
        let airline = AIRLINES[rng.random_range(0..AIRLINES.len())];
        let dest = DESTINATIONS[rng.random_range(0..DESTINATIONS.len())];
        let stops = rng.random_range(0..3_i64);
        let duration = rng.random_range(3.0..18.0_f64) + stops as f64 * 1.5;
        let price =
            (250.0 + duration * rng.random_range(25.0..60.0) - stops as f64 * 80.0).max(120.0);
        Tuple::new(vec![
            Value::Int(i as i64),
            Value::Text(format!("{airline} {:03}", rng.random_range(100..999))),
            Value::Text(dest.to_string()),
            Value::Float(price.round()),
            Value::Float((duration * 10.0).round() / 10.0),
            Value::Int(stops),
        ])
    })
}

/// Generates `n` hotels (price is for a whole 7-night stay).
pub fn hotels(n: usize, seed: Seed) -> Table {
    let mut t = Table::new("hotels", hotel_schema());
    for row in hotel_rows(n, seed) {
        t.insert(row).expect("hotel tuple matches schema");
    }
    t
}

/// [`hotels`] as a lazy row stream (one row buffered at a time,
/// prefix-stable — see [`crate::recipes::recipe_rows`]).
pub fn hotel_rows(n: usize, seed: Seed) -> impl Iterator<Item = Tuple> {
    let mut rng = StdRng::seed_from_u64(seed.0);
    (0..n).map(move |i| {
        let brand = HOTEL_BRANDS[rng.random_range(0..HOTEL_BRANDS.len())];
        let dest = DESTINATIONS[rng.random_range(0..DESTINATIONS.len())];
        let stars = rng.random_range(2..6_i64);
        let beach = (rng.random_range(0.0..12.0_f64) * 10.0).round() / 10.0;
        // Closer to the beach and more stars → pricier.
        let night = 45.0 + stars as f64 * 40.0 + (12.0 - beach) * 8.0 + rng.random_range(0.0..60.0);
        Tuple::new(vec![
            Value::Int(i as i64),
            Value::Text(format!("{brand} {dest} Resort #{i}")),
            Value::Text(dest.to_string()),
            Value::Float(night.round()),
            Value::Float(beach),
            Value::Int(stars),
        ])
    })
}

/// Generates `n` rental cars (price per day).
pub fn cars(n: usize, seed: Seed) -> Table {
    let mut t = Table::new("cars", car_schema());
    for row in car_rows(n, seed) {
        t.insert(row).expect("car tuple matches schema");
    }
    t
}

/// [`cars`] as a lazy row stream (one row buffered at a time,
/// prefix-stable — see [`crate::recipes::recipe_rows`]).
pub fn car_rows(n: usize, seed: Seed) -> impl Iterator<Item = Tuple> {
    let mut rng = StdRng::seed_from_u64(seed.0);
    (0..n).map(move |i| {
        let class = CAR_CLASSES[rng.random_range(0..CAR_CLASSES.len())];
        let dest = DESTINATIONS[rng.random_range(0..DESTINATIONS.len())];
        let base = match class {
            "compact" => 28.0,
            "sedan" => 42.0,
            "suv" => 65.0,
            _ => 90.0,
        };
        let price = base + rng.random_range(0.0..30.0_f64);
        Tuple::new(vec![
            Value::Int(i as i64),
            Value::Text(class.to_string()),
            Value::Text(dest.to_string()),
            Value::Float(price.round()),
        ])
    })
}

/// Generates the unified `travel_options` relation (see
/// [`travel_option_schema`]): one row per flight (round trip price), one per
/// hotel (7-night stay), one per car (7-day rental).
pub fn travel_options(n_flights: usize, n_hotels: usize, n_cars: usize, seed: Seed) -> Table {
    let mut t = Table::new("travel_options", travel_option_schema());
    for row in travel_option_rows(n_flights, n_hotels, n_cars, seed) {
        t.insert(row).expect("travel option tuple matches schema");
    }
    t
}

fn as_f64(v: &Value) -> f64 {
    match v {
        Value::Float(x) => *x,
        Value::Int(x) => *x as f64,
        _ => panic!("numeric column expected"),
    }
}

/// [`travel_options`] as a lazy row stream: flights, then hotels, then cars,
/// each derived on the fly from the corresponding base row stream, so no
/// intermediate table is materialized — at most one source row is in flight.
/// Output is identical to collecting the three base tables first.
pub fn travel_option_rows(
    n_flights: usize,
    n_hotels: usize,
    n_cars: usize,
    seed: Seed,
) -> impl Iterator<Item = Tuple> {
    let mut f = flight_rows(n_flights, seed.derive(10));
    let mut h = hotel_rows(n_hotels, seed.derive(11));
    let mut c = car_rows(n_cars, seed.derive(12));
    let mut rng = StdRng::seed_from_u64(seed.derive(13).0);
    let mut next_id = 0i64;
    std::iter::from_fn(move || {
        let row = if let Some(row) = f.next() {
            // Flight columns: [id, airline, destination, price, duration, stops].
            let stops = as_f64(&row.values()[5]);
            let comfort = (5.0 - stops) + rng.random_range(0.0..2.0);
            Tuple::new(vec![
                Value::Int(next_id),
                Value::Text("flight".into()),
                row.values()[1].clone(),
                row.values()[2].clone(),
                Value::Float(2.0 * as_f64(&row.values()[3])),
                Value::Float(0.0),
                Value::Float((comfort * 10.0).round() / 10.0),
            ])
        } else if let Some(row) = h.next() {
            // Hotel columns: [id, name, destination, price_per_night, beach, stars].
            let stars = as_f64(&row.values()[5]);
            Tuple::new(vec![
                Value::Int(next_id),
                Value::Text("hotel".into()),
                row.values()[1].clone(),
                row.values()[2].clone(),
                Value::Float(7.0 * as_f64(&row.values()[3])),
                row.values()[4].clone(),
                Value::Float(stars * 2.0),
            ])
        } else if let Some(row) = c.next() {
            // Car columns: [id, class, destination, price_per_day].
            Tuple::new(vec![
                Value::Int(next_id),
                Value::Text("car".into()),
                row.values()[1].clone(),
                row.values()[2].clone(),
                Value::Float(7.0 * as_f64(&row.values()[3])),
                Value::Float(0.0),
                Value::Float(rng.random_range(3.0..9.0_f64).round()),
            ])
        } else {
            return None;
        };
        next_id += 1;
        Some(row)
    })
}

/// A single-parameter, **prefix-stable** travel relation for the scenario
/// registry: kinds follow the fixed cycle flight, flight, hotel, hotel,
/// car, so the first `k` rows are identical for every `n ≥ k` — unlike
/// [`travel_options`], whose three segments shift when any count changes.
pub fn travel_mix(n: usize, seed: Seed) -> Table {
    let mut t = Table::new("travel_options", travel_option_schema());
    for row in travel_mix_rows(n, seed) {
        t.insert(row).expect("travel option tuple matches schema");
    }
    t
}

/// [`travel_mix`] as a lazy row stream.
pub fn travel_mix_rows(n: usize, seed: Seed) -> impl Iterator<Item = Tuple> {
    let mut f = flight_rows(n, seed.derive(10));
    let mut h = hotel_rows(n, seed.derive(11));
    let mut c = car_rows(n, seed.derive(12));
    let mut rng = StdRng::seed_from_u64(seed.derive(13).0);
    (0..n).map(move |i| match i % 5 {
        0 | 1 => {
            let row = f.next().expect("flight stream sized to n");
            let stops = as_f64(&row.values()[5]);
            let comfort = (5.0 - stops) + rng.random_range(0.0..2.0);
            Tuple::new(vec![
                Value::Int(i as i64),
                Value::Text("flight".into()),
                row.values()[1].clone(),
                row.values()[2].clone(),
                Value::Float(2.0 * as_f64(&row.values()[3])),
                Value::Float(0.0),
                Value::Float((comfort * 10.0).round() / 10.0),
            ])
        }
        2 | 3 => {
            let row = h.next().expect("hotel stream sized to n");
            let stars = as_f64(&row.values()[5]);
            Tuple::new(vec![
                Value::Int(i as i64),
                Value::Text("hotel".into()),
                row.values()[1].clone(),
                row.values()[2].clone(),
                Value::Float(7.0 * as_f64(&row.values()[3])),
                row.values()[4].clone(),
                Value::Float(stars * 2.0),
            ])
        }
        _ => {
            let row = c.next().expect("car stream sized to n");
            Tuple::new(vec![
                Value::Int(i as i64),
                Value::Text("car".into()),
                row.values()[1].clone(),
                row.values()[2].clone(),
                Value::Float(7.0 * as_f64(&row.values()[3])),
                Value::Float(0.0),
                Value::Float(rng.random_range(3.0..9.0_f64).round()),
            ])
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_schemas() {
        assert_eq!(flights(10, Seed(1)).len(), 10);
        assert_eq!(hotels(10, Seed(1)).len(), 10);
        assert_eq!(cars(10, Seed(1)).len(), 10);
        let t = travel_options(5, 6, 7, Seed(1));
        assert_eq!(t.len(), 18);
        assert_eq!(t.schema().arity(), travel_option_schema().arity());
    }

    #[test]
    fn travel_options_tag_every_kind() {
        let t = travel_options(5, 6, 7, Seed(2));
        let s = t.schema();
        let kinds: Vec<String> = t
            .rows()
            .map(|r| r.values()[s.index_of("kind").unwrap()].to_string())
            .collect();
        assert_eq!(kinds.iter().filter(|k| *k == "flight").count(), 5);
        assert_eq!(kinds.iter().filter(|k| *k == "hotel").count(), 6);
        assert_eq!(kinds.iter().filter(|k| *k == "car").count(), 7);
    }

    #[test]
    fn budget_vacations_are_feasible() {
        // The intro scenario: flights + hotels under $2,000 combined must exist.
        let t = travel_options(200, 200, 50, Seed(3));
        let cheapest_flight = t
            .rows()
            .filter(|r| r.values()[1] == Value::Text("flight".into()))
            .map(|r| r.get_f64("price").unwrap())
            .fold(f64::INFINITY, f64::min);
        let cheapest_hotel = t
            .rows()
            .filter(|r| r.values()[1] == Value::Text("hotel".into()))
            .map(|r| r.get_f64("price").unwrap())
            .fold(f64::INFINITY, f64::min);
        assert!(
            cheapest_flight + cheapest_hotel < 2000.0,
            "cheapest combo {} should fit the $2000 budget",
            cheapest_flight + cheapest_hotel
        );
    }
}
