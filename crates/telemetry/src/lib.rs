//! Pipeline telemetry for the wbist toolkit.
//!
//! The paper's flow is a long multi-phase loop — derive subsequences,
//! fault-simulate candidate weight assignments, prune `Ω`, trade
//! assignments against observation points — and knowing *where the
//! simulated cycles go* is what justifies every performance change. This
//! crate provides the recording layer: a [`Telemetry`] handle that is a
//! pure no-op when disabled and, when enabled, collects
//!
//! * **counters** — monotonically increasing totals (cycles simulated,
//!   faults dropped, assignments kept). Counters are *deterministic*:
//!   their final values must not depend on thread scheduling, so they are
//!   safe to export in the trace;
//! * **effort counters** — totals that legitimately vary with thread
//!   scheduling (cycles spent before an early-exit cancellation). They
//!   are reported in the human summary but excluded from the trace;
//! * **curves** — ordered numeric series, such as the fault-drop curve
//!   over synthesis sessions;
//! * **events** — discrete records with small integer payloads, in
//!   record order;
//! * **spans** — named phases. Each span records its wall-clock time and
//!   the delta of every deterministic counter between its start and end,
//!   giving per-phase effort attribution.
//!
//! # Determinism contract
//!
//! [`Telemetry::trace_json`] exports only scheduling-independent data:
//! counters, curves, events and the per-span counter deltas. Wall-clock
//! durations are deliberately excluded, so the rendered trace is
//! **byte-identical across runs and across worker-thread counts** —
//! per-phase "timing" in the trace is measured in simulated cycles and
//! other deterministic effort units. Wall-clock times are available
//! through [`Telemetry::summary`] (the `--progress` output).
//!
//! Instrumented code must uphold the contract: record counters, curves
//! and events either from single-threaded orchestration code or after a
//! deterministic merge of worker results; use [`Telemetry::add_effort`]
//! for anything scheduling-dependent.
//!
//! # Example
//!
//! ```
//! use wbist_telemetry::Telemetry;
//!
//! let t = Telemetry::enabled();
//! {
//!     let _phase = t.span("synthesis");
//!     t.add("sim.cycles", 1280);
//!     t.point("fault_drop", 32);
//!     t.point("fault_drop", 7);
//! }
//! assert_eq!(t.counter("sim.cycles"), 1280);
//! let trace = t.trace_json().render();
//! assert!(trace.contains("\"fault_drop\":[32,7]"));
//!
//! // A disabled handle records nothing and allocates nothing.
//! let off = Telemetry::disabled();
//! off.add("sim.cycles", 999);
//! assert_eq!(off.counter("sim.cycles"), 0);
//! ```

pub mod failpoint;
pub mod json;

pub use json::Json;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The trace schema identifier, bumped on any breaking layout change.
pub const TRACE_SCHEMA: &str = "wbist-trace/v1";

/// A shared telemetry recorder handle.
///
/// Cloning is cheap (an [`Arc`] bump) and every clone records into the
/// same underlying state, so one handle can be threaded through the
/// whole pipeline. A handle created with [`Telemetry::disabled`] (also
/// the [`Default`]) carries no recorder at all: every method returns
/// immediately without locking or allocating.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Recorder>>,
}

#[derive(Debug)]
struct Recorder {
    epoch: Instant,
    state: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    counters: BTreeMap<&'static str, u64>,
    effort: BTreeMap<&'static str, u64>,
    curves: BTreeMap<&'static str, Vec<u64>>,
    events: Vec<Event>,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

#[derive(Debug, Clone)]
struct Event {
    name: &'static str,
    fields: Vec<(&'static str, u64)>,
}

#[derive(Debug, Clone)]
struct SpanRecord {
    name: &'static str,
    depth: usize,
    counters_at_start: BTreeMap<&'static str, u64>,
    /// Deterministic counter deltas over the span, filled when it ends.
    deltas: Vec<(&'static str, u64)>,
    start_ns: u64,
    wall_ns: u64,
    closed: bool,
}

impl Telemetry {
    /// A handle that records.
    pub fn enabled() -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Recorder {
                epoch: Instant::now(),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// A handle that drops everything (the default). All methods on a
    /// disabled handle are no-ops that never lock or allocate.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `n` to the deterministic counter `name`.
    ///
    /// Only call with values whose *total* is independent of thread
    /// scheduling; scheduling-dependent totals belong in
    /// [`Telemetry::add_effort`].
    #[inline]
    pub fn add(&self, name: &'static str, n: u64) {
        if let Some(rec) = &self.inner {
            *rec.state.lock().unwrap().counters.entry(name).or_insert(0) += n;
        }
    }

    /// Adds `n` to the effort counter `name` (scheduling-dependent;
    /// excluded from the deterministic trace).
    #[inline]
    pub fn add_effort(&self, name: &'static str, n: u64) {
        if let Some(rec) = &self.inner {
            *rec.state.lock().unwrap().effort.entry(name).or_insert(0) += n;
        }
    }

    /// Appends `y` to the curve `name` (e.g. the fault-drop curve).
    #[inline]
    pub fn point(&self, name: &'static str, y: u64) {
        if let Some(rec) = &self.inner {
            rec.state
                .lock()
                .unwrap()
                .curves
                .entry(name)
                .or_default()
                .push(y);
        }
    }

    /// Records a discrete event with small integer fields.
    #[inline]
    pub fn event(&self, name: &'static str, fields: &[(&'static str, u64)]) {
        if let Some(rec) = &self.inner {
            rec.state.lock().unwrap().events.push(Event {
                name,
                fields: fields.to_vec(),
            });
        }
    }

    /// Opens a named phase span; it ends when the returned guard drops.
    ///
    /// Spans nest: a span opened while another is active records at one
    /// greater depth. Each span captures the delta of every deterministic
    /// counter between its start and end.
    #[must_use = "the span ends when the guard is dropped"]
    pub fn span(&self, name: &'static str) -> Span {
        let Some(rec) = &self.inner else {
            return Span {
                telemetry: Telemetry::disabled(),
                index: 0,
            };
        };
        let mut st = rec.state.lock().unwrap();
        let depth = st.open.len();
        let record = SpanRecord {
            name,
            depth,
            counters_at_start: st.counters.clone(),
            deltas: Vec::new(),
            start_ns: rec.epoch.elapsed().as_nanos() as u64,
            wall_ns: 0,
            closed: false,
        };
        st.spans.push(record);
        let index = st.spans.len() - 1;
        st.open.push(index);
        Span {
            telemetry: self.clone(),
            index,
        }
    }

    fn end_span(&self, index: usize) {
        let Some(rec) = &self.inner else { return };
        let now_ns = rec.epoch.elapsed().as_nanos() as u64;
        let mut st = rec.state.lock().unwrap();
        let counters = st.counters.clone();
        if let Some(pos) = st.open.iter().rposition(|&i| i == index) {
            st.open.remove(pos);
        }
        let span = &mut st.spans[index];
        if span.closed {
            return;
        }
        span.closed = true;
        span.wall_ns = now_ns.saturating_sub(span.start_ns);
        span.deltas = counters
            .iter()
            .filter_map(|(&k, &v)| {
                let delta = v - span.counters_at_start.get(k).copied().unwrap_or(0);
                (delta > 0).then_some((k, delta))
            })
            .collect();
        span.counters_at_start.clear();
    }

    /// The current value of an effort counter (0 if never added, or if
    /// the handle is disabled). Effort totals are scheduling-dependent;
    /// see [`Telemetry::add_effort`].
    pub fn effort(&self, name: &str) -> u64 {
        match &self.inner {
            Some(rec) => rec
                .state
                .lock()
                .unwrap()
                .effort
                .get(name)
                .copied()
                .unwrap_or(0),
            None => 0,
        }
    }

    /// The current value of a deterministic counter (0 if never added,
    /// or if the handle is disabled).
    pub fn counter(&self, name: &str) -> u64 {
        match &self.inner {
            Some(rec) => rec
                .state
                .lock()
                .unwrap()
                .counters
                .get(name)
                .copied()
                .unwrap_or(0),
            None => 0,
        }
    }

    /// All deterministic counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        match &self.inner {
            Some(rec) => rec
                .state
                .lock()
                .unwrap()
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            None => Vec::new(),
        }
    }

    /// The points of a curve (empty if never recorded).
    pub fn curve(&self, name: &str) -> Vec<u64> {
        match &self.inner {
            Some(rec) => rec
                .state
                .lock()
                .unwrap()
                .curves
                .get(name)
                .cloned()
                .unwrap_or_default(),
            None => Vec::new(),
        }
    }

    /// Exports the deterministic trace (see the [module docs](self) for
    /// the determinism contract). Disabled handles export a trace with
    /// empty sections, so the schema is stable either way.
    pub fn trace_json(&self) -> Json {
        let (phases, counters, curves, events) = match &self.inner {
            None => (Vec::new(), Vec::new(), Vec::new(), Vec::new()),
            Some(rec) => {
                let st = rec.state.lock().unwrap();
                let phases = st
                    .spans
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("name", s.name.into()),
                            ("depth", s.depth.into()),
                            (
                                "counters",
                                Json::Object(
                                    s.deltas
                                        .iter()
                                        .map(|&(k, v)| (k.to_string(), Json::UInt(v)))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect();
                let counters = st
                    .counters
                    .iter()
                    .map(|(&k, &v)| (k.to_string(), Json::UInt(v)))
                    .collect();
                let curves = st
                    .curves
                    .iter()
                    .map(|(&k, vs)| {
                        (
                            k.to_string(),
                            Json::Array(vs.iter().map(|&v| Json::UInt(v)).collect()),
                        )
                    })
                    .collect();
                let events = st
                    .events
                    .iter()
                    .map(|e| {
                        Json::obj(vec![
                            ("name", e.name.into()),
                            (
                                "fields",
                                Json::Object(
                                    e.fields
                                        .iter()
                                        .map(|&(k, v)| (k.to_string(), Json::UInt(v)))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect();
                (phases, counters, curves, events)
            }
        };
        Json::obj(vec![
            ("schema", TRACE_SCHEMA.into()),
            ("phases", Json::Array(phases)),
            ("counters", Json::Object(counters)),
            ("curves", Json::Object(curves)),
            ("events", Json::Array(events)),
        ])
    }

    /// The trace as pretty-printed JSON text with a trailing newline —
    /// what `wbist --trace <path>` writes.
    pub fn render_trace(&self) -> String {
        let mut s = self.trace_json().render_pretty();
        s.push('\n');
        s
    }

    /// A human-readable per-phase summary *including wall-clock times*
    /// (the `--progress` output). Unlike the trace this is not stable
    /// across runs.
    pub fn summary(&self) -> String {
        let Some(rec) = &self.inner else {
            return "telemetry disabled\n".to_string();
        };
        let st = rec.state.lock().unwrap();
        let mut out = String::new();
        out.push_str("phase timings:\n");
        for s in &st.spans {
            let indent = "  ".repeat(s.depth + 1);
            let counters = s
                .deltas
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "{indent}{:<12} {:>10.3} ms  {}\n",
                s.name,
                s.wall_ns as f64 / 1e6,
                counters
            ));
        }
        if !st.counters.is_empty() {
            out.push_str("totals:\n");
            for (k, v) in &st.counters {
                out.push_str(&format!("  {k} = {v}\n"));
            }
        }
        if !st.effort.is_empty() {
            out.push_str("effort (scheduling-dependent):\n");
            for (k, v) in &st.effort {
                out.push_str(&format!("  {k} = {v}\n"));
            }
        }
        out
    }
}

/// Guard for an open phase span; the span ends when this drops.
///
/// Returned by [`Telemetry::span`]. A guard from a disabled handle is
/// inert.
#[derive(Debug)]
pub struct Span {
    telemetry: Telemetry,
    index: usize,
}

impl Drop for Span {
    fn drop(&mut self) {
        self.telemetry.end_span(self.index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.add("c", 5);
        t.add_effort("e", 5);
        t.point("curve", 1);
        t.event("ev", &[("a", 1)]);
        let _s = t.span("phase");
        assert_eq!(t.counter("c"), 0);
        assert!(t.counters().is_empty());
        assert!(t.curve("curve").is_empty());
    }

    #[test]
    fn counters_accumulate_and_sort() {
        let t = Telemetry::enabled();
        t.add("b.second", 2);
        t.add("a.first", 1);
        t.add("b.second", 3);
        assert_eq!(t.counter("b.second"), 5);
        assert_eq!(
            t.counters(),
            vec![("a.first".to_string(), 1), ("b.second".to_string(), 5)]
        );
    }

    #[test]
    fn spans_record_counter_deltas_and_nesting() {
        let t = Telemetry::enabled();
        t.add("outside", 10);
        {
            let _outer = t.span("outer");
            t.add("work", 3);
            {
                let _inner = t.span("inner");
                t.add("work", 4);
            }
            t.add("other", 1);
        }
        let trace = t.trace_json().render();
        // Outer sees the sum of both work increments plus `other`; inner
        // only its own. `outside` predates both spans.
        assert!(trace.contains(r#"{"name":"outer","depth":0,"counters":{"other":1,"work":7}}"#));
        assert!(trace.contains(r#"{"name":"inner","depth":1,"counters":{"work":4}}"#));
    }

    #[test]
    fn trace_is_deterministic_data_only() {
        // Two recorders fed the same data render identical traces even
        // though their wall-clock behaviour differs.
        let feed = |t: &Telemetry, sleep: bool| {
            let _s = t.span("phase");
            if sleep {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            t.add("sim.cycles", 100);
            t.add_effort("screen.cycles", if sleep { 7 } else { 3 });
            t.point("fault_drop", 32);
            t.event("kept", &[("u", 9)]);
        };
        let a = Telemetry::enabled();
        let b = Telemetry::enabled();
        feed(&a, false);
        feed(&b, true);
        assert_eq!(a.render_trace(), b.render_trace());
        assert!(a.render_trace().contains(TRACE_SCHEMA));
    }

    #[test]
    fn effort_counters_stay_out_of_the_trace() {
        let t = Telemetry::enabled();
        t.add_effort("screen.cycles", 42);
        assert!(!t.trace_json().render().contains("screen.cycles"));
        assert!(t.summary().contains("screen.cycles = 42"));
    }

    #[test]
    fn disabled_trace_is_schema_stable() {
        let t = Telemetry::disabled();
        let trace = t.trace_json().render();
        assert!(trace.contains(TRACE_SCHEMA));
        assert!(trace.contains("\"phases\":[]"));
        assert!(trace.contains("\"counters\":{}"));
    }

    #[test]
    fn clones_share_state_across_threads() {
        let t = Telemetry::enabled();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let h = t.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        h.add("hits", 1);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(t.counter("hits"), 400);
    }

    #[test]
    fn summary_mentions_wall_times() {
        let t = Telemetry::enabled();
        {
            let _s = t.span("synthesis");
            t.add("sim.cycles", 5);
        }
        let sum = t.summary();
        assert!(sum.contains("synthesis"));
        assert!(sum.contains("ms"));
        assert!(sum.contains("sim.cycles=5"));
    }
}
