//! The traced run's spans.
//!
//! The adapters time calls into each layer and hand each span to
//! `ones_obs::record_event`, which keeps it in memory whatever the obs
//! level; at the default level (`counters`) the program records no spans
//! of its own, so the buffer holds only the benchmark's. When the run ends
//! `ones_obs::write_chrome_trace` writes them out for ui.perfetto.dev.
//! A span's layer is its `cat`; a request id travels as the `req` arg.
//!
//! Self time is a span's duration minus the time its children cover. A
//! child is a span on the same track that lies inside its parent.

use ones_obs::{ArgValue, Clock, SpanEvent};
use std::collections::BTreeMap;
use std::time::Instant;

/// Track of the simulator loop and of the service's core thread.
pub const CORE_TID: u64 = 1;

/// Records spans when enabled; a disabled recorder costs one branch per
/// call.
#[derive(Debug, Clone, Copy)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
}

impl Recorder {
    /// A recorder that records nothing.
    #[must_use]
    pub fn disabled() -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled: false,
        }
    }

    /// A recorder that keeps every span, starting from an empty buffer.
    #[must_use]
    pub fn enabled() -> Recorder {
        ones_obs::clear_spans();
        Recorder {
            origin: Instant::now(),
            enabled: true,
        }
    }

    /// Whether spans are being kept.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Microseconds since the recorder's origin.
    #[must_use]
    pub fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_nanos() as f64 / 1e3
    }

    /// Records the span `start..end` on track `tid` under layer `cat`.
    pub fn record(
        &self,
        tid: u64,
        cat: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.enabled {
            return;
        }
        ones_obs::record_event(SpanEvent {
            name,
            cat,
            clock: Clock::Wall,
            tid,
            ts_us: self.us(start),
            dur_us: Some(self.us(end) - self.us(start)),
            args,
        });
    }

    /// Runs `f`, recording it as a span that ends when `f` returns.
    pub fn time<T>(
        &self,
        tid: u64,
        cat: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(tid, cat, name, start, Instant::now(), Vec::new());
        out
    }
}

/// The benchmark's spans, in recording order.
#[must_use]
pub fn spans() -> Vec<SpanEvent> {
    ones_obs::spans_snapshot()
        .into_iter()
        .filter(|s| s.clock == Clock::Wall && s.dur_us.is_some())
        .collect()
}

fn end_us(s: &SpanEvent) -> f64 {
    s.ts_us + s.dur_us.unwrap_or(0.0)
}

/// Time a span's children cover, microseconds, one entry per span. The
/// parent of a span is the innermost span on its track that contains it.
#[must_use]
pub fn child_us(spans: &[SpanEvent]) -> Vec<f64> {
    // Spans are recorded when they close, so a parent follows its
    // children: order by start, outer spans first.
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by(|&a, &b| {
        let (x, y) = (&spans[a], &spans[b]);
        x.tid
            .cmp(&y.tid)
            .then(x.ts_us.total_cmp(&y.ts_us))
            .then(end_us(y).total_cmp(&end_us(x)))
    });
    let mut child = vec![0.0; spans.len()];
    let mut open: Vec<usize> = Vec::new();
    for i in order {
        let s = &spans[i];
        // Nanosecond timestamps become float microseconds; allow for the
        // rounding.
        while let Some(&p) = open.last() {
            if spans[p].tid == s.tid && end_us(s) <= end_us(&spans[p]) + 1e-3 {
                break;
            }
            open.pop();
        }
        if let Some(&p) = open.last() {
            child[p] += s.dur_us.unwrap_or(0.0);
        }
        open.push(i);
    }
    child
}

/// Self time per layer, seconds.
#[must_use]
pub fn self_time_by_layer(spans: &[SpanEvent]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(child_us(spans)) {
        *out.entry(s.cat).or_insert(0.0) += (s.dur_us.unwrap_or(0.0) - kids).max(0.0) / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(tid: u64, cat: &'static str, ts_us: f64, dur_us: f64) -> SpanEvent {
        SpanEvent {
            name: cat,
            cat,
            clock: Clock::Wall,
            tid,
            ts_us,
            dur_us: Some(dur_us),
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_on_the_same_track() {
        // Recorded as they close: the child before its parent.
        let spans = vec![
            span(1, "ones", 10.0, 50.0),
            span(1, "schedcore", 70.0, 5.0),
            span(1, "simulator", 0.0, 100.0),
            // Another track overlapping in time is nobody's child.
            span(2, "client", 20.0, 30.0),
        ];
        assert_eq!(child_us(&spans), vec![0.0, 0.0, 55.0, 0.0]);
        let by = self_time_by_layer(&spans);
        assert!((by["simulator"] - 45e-6).abs() < 1e-12);
        assert!((by["ones"] - 50e-6).abs() < 1e-12);
        assert!((by["client"] - 30e-6).abs() < 1e-12);
    }

    #[test]
    fn recorded_spans_nest_and_export() {
        let rec = Recorder::enabled();
        rec.time(41, "simulator", "step", || {
            rec.time(41, "ones", "on_event", || {
                std::thread::sleep(Duration::from_millis(5));
            });
        });
        let now = Instant::now();
        rec.record(
            42,
            "client",
            "POST /v1/jobs",
            now,
            now,
            vec![("req", ArgValue::U64(7))],
        );
        let mine: Vec<SpanEvent> = spans()
            .into_iter()
            .filter(|s| s.tid == 41 || s.tid == 42)
            .collect();
        assert_eq!(mine.len(), 3);
        let by = self_time_by_layer(&mine);
        assert!(by["ones"] >= 0.005);
        assert!(by["simulator"] < by["ones"]);
        let json = ones_obs::chrome_trace_json();
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert!(v.get("traceEvents").is_some());
        assert!(json.contains("\"req\":7"));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let rec = Recorder::disabled();
        rec.time(43, "simulator", "step", || ());
        assert!(spans().iter().all(|s| s.tid != 43));
        assert!(!rec.is_enabled());
    }
}
