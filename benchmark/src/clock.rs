//! The benchmark's only clock. Every wall-time reading in the package goes
//! through [`Clock`], so the workspace lint's `time-containment` rule has one
//! audited site to look at.

use std::time::Instant;

/// A monotonic clock that reports nanoseconds since it was started.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    pub fn start() -> Self {
        Clock {
            // pb-lint: allow(time-containment) — the benchmark measures the
            // engine from outside: this reading only stamps spans and pass
            // times in the report and never reaches an engine decision.
            origin: Instant::now(),
        }
    }

    /// Nanoseconds since [`Clock::start`].
    pub fn ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
