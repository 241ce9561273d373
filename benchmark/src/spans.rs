//! Benchmark-side spans. Recorded with the program's own in-memory
//! recorder, wrapped around the harness's calls into each layer; every span
//! carries an id, the id of the span that caused it and a request id, so one
//! request's spans select together and self time can be computed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::adapter::{EventKind, Span, Trace, TraceEvent};

/// Id of "no span": the parent of root spans.
pub const ROOT: u64 = 0;

/// Span recorder. [`Tracer::off`] records nothing and costs one branch per
/// call, which is what the timed runs use.
pub struct Tracer {
    trace: Trace,
    next_id: AtomicU64,
}

/// An open span; closes (and records itself) on drop.
pub struct Open {
    span: Span,
    id: u64,
}

impl Open {
    /// The id child spans name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attaches a number to the span.
    pub fn record(&mut self, key: &str, value: f64) {
        self.span.record(key, value);
    }
}

impl Tracer {
    /// A recorder that records.
    pub fn on() -> Tracer {
        Tracer {
            trace: Trace::new(),
            next_id: AtomicU64::new(1),
        }
    }

    /// A recorder that does not.
    pub fn off() -> Tracer {
        Tracer {
            trace: Trace::disabled(),
            next_id: AtomicU64::new(1),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.trace.is_enabled()
    }

    /// Opens a span named `name` (its layer is the part before the first
    /// dot) under `parent`, on behalf of request `req`.
    pub fn span(&self, name: &'static str, parent: u64, req: u64) -> Open {
        if !self.is_on() {
            return Open {
                span: self.trace.span("bench", name),
                id: ROOT,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut span = self.trace.span("bench", name);
        span.record("id", id);
        span.record("parent", parent);
        span.record("req", req);
        Open { span, id }
    }

    /// Every span recorded so far.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.trace
            .events()
            .iter()
            .filter_map(SpanRecord::from_event)
            .collect()
    }

    /// The whole recording as a Chrome trace-event document.
    pub fn chrome_trace(&self) -> String {
        self.trace.chrome_trace()
    }
}

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Span name, `layer.what`.
    pub name: String,
    /// Unique id within the recording.
    pub id: u64,
    /// Id of the causing span, [`ROOT`] for a request's root.
    pub parent: u64,
    /// Request the span belongs to.
    pub req: u64,
    /// Start, nanoseconds since the recording began.
    pub start_ns: u64,
    /// End, nanoseconds since the recording began.
    pub end_ns: u64,
}

impl SpanRecord {
    fn from_event(event: &TraceEvent) -> Option<SpanRecord> {
        if event.kind != EventKind::Span {
            return None;
        }
        let int = |key| event.metric(key).and_then(|v| v.as_f64()).map(|v| v as u64);
        Some(SpanRecord {
            name: event.name.clone(),
            id: int("id")?,
            parent: int("parent")?,
            req: int("req")?,
            start_ns: event.t_ns,
            end_ns: event.t_ns + event.dur_ns,
        })
    }

    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of every span, by id: its duration minus the part of its
/// interval that its direct children cover. Children may overlap each other
/// (engine workers run in parallel) and are clipped to the parent, so the
/// covered part is the length of the union of the clipped child intervals.
pub fn self_times(records: &[SpanRecord]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for r in records {
        children
            .entry(r.parent)
            .or_default()
            .push((r.start_ns, r.end_ns));
    }
    records
        .iter()
        .map(|r| {
            let mut inside: Vec<(u64, u64)> = children
                .get(&r.id)
                .map(|c| {
                    c.iter()
                        .map(|&(s, e)| (s.max(r.start_ns), e.min(r.end_ns)))
                        .filter(|(s, e)| s < e)
                        .collect()
                })
                .unwrap_or_default();
            inside.sort_unstable();
            let mut covered = 0u64;
            let mut reach = r.start_ns;
            for (s, e) in inside {
                if e > reach {
                    covered += e - s.max(reach);
                    reach = e;
                }
            }
            (r.id, r.dur_ns() - covered)
        })
        .collect()
}

/// Totals of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotal {
    /// Spans of that name.
    pub count: u64,
    /// Summed durations, seconds.
    pub total_s: f64,
    /// Summed self times, seconds.
    pub self_s: f64,
}

/// Duration and self-time totals per span name.
pub fn totals_by_name(records: &[SpanRecord]) -> BTreeMap<String, NameTotal> {
    let selfs = self_times(records);
    let mut out: BTreeMap<String, NameTotal> = BTreeMap::new();
    for r in records {
        let t = out.entry(r.name.clone()).or_default();
        t.count += 1;
        t.total_s += r.dur_ns() as f64 / 1e9;
        t.self_s += selfs[&r.id] as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            name: name.to_string(),
            id,
            parent,
            req: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let records = vec![
            rec("req", 1, ROOT, 0, 100),
            // Sequential children: 10..30 and 30..90.
            rec("core.compile", 2, 1, 10, 30),
            rec("core.autotune", 3, 1, 30, 90),
            // Two workers overlapping inside autotune, one running past it.
            rec("sim.run", 4, 3, 40, 70),
            rec("sim.run", 5, 3, 60, 80),
            rec("sim.run", 6, 3, 85, 120),
        ];
        let selfs = self_times(&records);
        assert_eq!(selfs[&1], 100 - 20 - 60, "req minus compile and autotune");
        assert_eq!(selfs[&2], 20, "a leaf keeps its whole duration");
        // Union of 40..70, 60..80 and 85..90 (clipped) is 40 + 5 = 45.
        assert_eq!(selfs[&3], 60 - 45);
        assert_eq!(selfs[&6], 35);
        let totals = totals_by_name(&records);
        assert_eq!(totals["sim.run"].count, 3);
        assert!((totals["sim.run"].total_s - 85e-9).abs() < 1e-15);
        assert!((totals["core.autotune"].self_s - 15e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_links_children_to_parents_and_requests() {
        let tracer = Tracer::on();
        {
            let root = tracer.span("req", ROOT, 7);
            let mut child = tracer.span("core.compile", root.id(), 7);
            child.record("ops", 12.0);
        }
        let records = tracer.records();
        assert_eq!(records.len(), 2);
        let root = records.iter().find(|r| r.name == "req").expect("root");
        let child = records
            .iter()
            .find(|r| r.name == "core.compile")
            .expect("child");
        assert_eq!(root.parent, ROOT);
        assert_eq!(child.parent, root.id);
        assert_eq!((root.req, child.req), (7, 7));
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        let chrome = tracer.chrome_trace();
        assert!(chrome.contains("\"core.compile\"") && chrome.contains("\"ops\":12"));
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let tracer = Tracer::off();
        drop(tracer.span("req", ROOT, 1));
        assert!(tracer.records().is_empty());
    }
}
