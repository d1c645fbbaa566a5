//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach a crates registry, so this shim
//! re-implements the subset of proptest the workspace's property tests use:
//! the [`proptest!`] macro, [`Strategy`] with `prop_map`, range / tuple /
//! `Just` / `prop_oneof!` / collection / option / simple-regex strategies,
//! and the `prop_assert*` macros. Cases are generated from a fixed seed (or
//! `PROPTEST_SEED`) so failures reproduce; there is **no shrinking** — a
//! failing case reports its inputs via the assertion message instead.

use rand::rngs::StdRng;
use rand::SeedableRng;

pub mod strategy;

pub use strategy::{any, Just, Strategy};

/// Runner configuration (field-compatible with the real
/// `ProptestConfig { cases, .. }` usage pattern).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
    /// Unused compatibility field (the real crate limits shrink iterations).
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 0,
        }
    }
}

/// A failed property case (carried through `prop_assert*`).
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Drives the random cases of one property.
pub struct TestRunner {
    cases: u32,
    rng: StdRng,
}

impl TestRunner {
    /// Builds a runner from a config, seeding from `PROPTEST_SEED` when set.
    // A test-harness seed, not engine configuration: the one environment
    // read clippy.toml tolerates in a shim (the real crate reads it too).
    #[allow(clippy::disallowed_methods)]
    pub fn new(config: &ProptestConfig) -> Self {
        let seed = std::env::var("PROPTEST_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0x5EED_CA5E_5EED_CA5E);
        TestRunner {
            cases: config.cases,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// How many cases to run.
    pub fn cases(&self) -> u32 {
        self.cases
    }

    /// The case generator.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

/// Namespaced strategies, mirroring `proptest::prelude::prop`.
pub mod prop {
    /// Boolean strategies.
    pub mod bool {
        /// Uniformly random booleans (mirrors `proptest::bool::ANY`).
        pub const ANY: crate::strategy::AnyBool = crate::strategy::AnyBool;
    }

    /// Collection strategies.
    pub mod collection {
        pub use crate::strategy::collection_vec as vec;
    }

    /// Option strategies.
    pub mod option {
        pub use crate::strategy::option_of as of;
    }
}

/// The prelude the tests import.
pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, ProptestConfig,
        TestCaseError,
    };
}

/// Runs a block of property tests: an optional
/// `#![proptest_config(..)]` header followed by `fn name(pat in strategy, ..)`
/// items, each expanded to a `#[test]` that runs `cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat_param in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut runner = $crate::TestRunner::new(&config);
            for case in 0..runner.cases() {
                $(let $arg = $crate::Strategy::generate(&($strat), runner.rng());)*
                let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!("property '{}' failed on case {}: {}", stringify!($name), case, e);
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Asserts a condition inside a property, failing the case (not the whole
/// process) with a formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError(format!($($fmt)+)));
        }
    };
}

/// Asserts two values are equal inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} != {:?}: {}", l, r, format!($($fmt)+));
    }};
}

/// Asserts two values differ inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} == {:?}: {}", l, r, format!($($fmt)+));
    }};
}

/// Picks uniformly among several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![$($crate::strategy::boxed($strat)),+])
    };
}
