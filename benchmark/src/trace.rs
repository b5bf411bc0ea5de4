//! The driver's span recorder. Spans are taken from outside the runtime, around the
//! public calls into each layer; they live in memory and are written as a Chrome trace
//! (`chrome://tracing`, Perfetto) when the run ends. The driver is one thread, so the
//! parent of a span is simply the span open when it began.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub session: usize,
    pub wave: Option<usize>,
}

/// Per-name totals of a finished trace.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpanTotals {
    pub count: usize,
    pub total_us: f64,
    /// Duration minus the part covered by child spans.
    pub self_us: f64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Spans are recorded only while this is set (traced sessions of a traced run).
    pub recording: bool,
    /// Per-handle spans, kept to the first traced session so the file stays loadable.
    pub detail: bool,
    pub session: usize,
    pub wave: Option<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            recording: false,
            detail: false,
            session: 0,
            wave: None,
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.recording {
            return None;
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            session: self.session,
            wave: self.wave,
        });
        self.open.push(id);
        Some(id)
    }

    fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_us = self.now_us();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        }
    }

    /// Run `f`, always returning how long it took (the untraced run needs the
    /// timings too) and recording a span around it while recording is on.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let id = self.begin(name);
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        self.end(id);
        (out, took)
    }

    /// Like [`Tracer::timed`] for a region that itself opens child spans.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// A per-handle span: recorded only in the detailed session.
    pub fn detail<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if self.recording && self.detail {
            self.timed(name, f).0
        } else {
            f()
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            let dur = s.end_us - s.start_us;
            t.count += 1;
            t.total_us += dur;
            t.self_us += (dur - child_us[i]).max(0.0);
        }
        out
    }

    /// The trace in Chrome's JSON array-of-complete-events form.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 160 + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"parent\":{},\"session\":{},\"wave\":{}}}}}",
                s.name,
                workload,
                s.start_us,
                s.end_us - s.start_us,
                i,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.session,
                s.wave.map_or("null".to_string(), |w| w.to_string()),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        t.recording = true;
        t.session = 3;
        t.scope("outer", |t| {
            t.wave = Some(1);
            t.timed("inner", || std::thread::sleep(Duration::from_millis(2)));
            t.detail("handle", || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2, "detail spans are off unless asked for");
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].session, 3);
        assert_eq!(spans[1].wave, Some(1));
        let totals = t.totals();
        assert!(totals["inner"].total_us >= 2000.0);
        assert!(totals["outer"].self_us <= totals["outer"].total_us - 2000.0 + 1.0);
        let json = t.chrome_json("w");
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"parent\":0"));
    }

    #[test]
    fn nothing_is_recorded_while_recording_is_off_but_time_is_still_returned() {
        let mut t = Tracer::new();
        let (v, took) = t.timed("x", || {
            std::thread::sleep(Duration::from_millis(1));
            7
        });
        assert_eq!(v, 7);
        assert!(took >= Duration::from_millis(1));
        assert!(t.spans().is_empty());
    }
}
