//! Spans recorded from outside the engine, around the public calls a query
//! passes through.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! operation it belongs to; spans of one operation share `op`. Spans are kept
//! in memory and written out when the run ends. A layer's *self* time is its
//! span's duration minus the part its child spans cover, so the self times of
//! one pass add up to the pass.
//!
//! *Probe* spans time calls the engine does not make separately (the base
//! scan, partitioning, the greedy floor, ILP translation, the MILP and root
//! LP solves). They repeat work, run outside the operation's own span, and
//! are left out of the pass total.

use std::collections::BTreeMap;

use crate::clock::Clock;
use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Ordinal of the operation over the whole traced phase.
    pub op: usize,
    pub pass: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub probe: bool,
}

#[derive(Debug)]
pub struct Tracer {
    clock: Clock,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: usize,
    op: usize,
}

/// Self time per span name for one pass, in ns. Probe spans are in the
/// map under their `probe.*` names but not in `root_ns`.
#[derive(Debug, Default, Clone)]
pub struct PassSelfTimes {
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Sum of the root (operation) spans: the traced pass time.
    pub root_ns: u64,
}

impl Tracer {
    pub fn new(clock: Clock) -> Self {
        Tracer {
            clock,
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
            op: 0,
        }
    }

    pub fn begin_pass(&mut self, pass: usize) {
        self.pass = pass;
    }

    /// Starts the next operation; spans opened until the next call share
    /// its identifier.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn open(&mut self, name: &'static str) -> usize {
        self.push(name, false)
    }

    pub fn open_probe(&mut self, name: &'static str) -> usize {
        self.push(name, true)
    }

    fn push(&mut self, name: &'static str, probe: bool) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op: self.op,
            pass: self.pass,
            start_ns: self.clock.ns(),
            end_ns: 0,
            probe,
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        let end = self.clock.ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Renames a closed span whose kind is only known once it has run (a
    /// cache build is a hit or a miss).
    pub fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    /// Self times of one pass, by span name.
    pub fn self_times(&self, pass: usize) -> PassSelfTimes {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in self.spans.iter().filter(|s| s.pass == pass) {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = PassSelfTimes::default();
        for (id, span) in self.spans.iter().enumerate() {
            if span.pass != pass {
                continue;
            }
            let duration = span.end_ns - span.start_ns;
            let own = duration.saturating_sub(child_ns[id]);
            *out.self_ns.entry(span.name).or_default() += own;
            if span.parent.is_none() && !span.probe {
                out.root_ns += duration;
            }
        }
        out
    }

    /// Every span, for `out/trace.<workload>.json`.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("name", Json::str(s.name)),
                    ("op", Json::Num(s.op as f64)),
                    ("pass", Json::Num(s.pass as f64)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("probe", Json::Bool(s.probe)),
                ])
            })
            .collect();
        Json::Arr(spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root_and_probes_stay_apart() {
        let mut t = Tracer::new(Clock::start());
        t.begin_pass(3);
        t.next_op();
        let root = t.open("query");
        let a = t.open("parse");
        t.close(a);
        let b = t.open("build");
        t.close(b);
        t.rename(b, "miss_build");
        t.close(root);
        let p = t.open_probe("probe.scan");
        t.close(p);

        let times = t.self_times(3);
        let probe_ns = times.self_ns["probe.scan"];
        let layer_sum: u64 = times.self_ns.values().sum::<u64>() - probe_ns;
        assert_eq!(layer_sum, times.root_ns);
        assert!(times.self_ns.contains_key("miss_build"));
        assert!(!times.self_ns.contains_key("build"));
        assert_eq!(t.self_times(4).root_ns, 0);
    }
}
