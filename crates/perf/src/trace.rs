//! In-memory spans around calls into the library, written out as a Chrome
//! trace-event file when the run ends.
//!
//! Every span is recorded by the benchmark, from outside the call it times:
//! name, start, end, the span that caused it (`parent`) and, inside the
//! training loop, the optimizer-step index. Nothing in the library is
//! instrumented.

use crate::json::Json;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Optimizer-step (or query) index the call belongs to.
    pub step: Option<u32>,
    /// Recording thread: 0 is the main thread, clients count from 1.
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one thread. Spans nest through [`Tracer::open`] /
/// [`Tracer::close`]; [`Tracer::span`] times one leaf call.
pub struct Tracer {
    origin: Instant,
    tid: u32,
    next_id: u32,
    /// Parent of spans opened while no span of this recorder is open.
    root: Option<u32>,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Tracing is off: `open`, `close` and `span` record nothing.
    off: bool,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            tid: 0,
            next_id: 0,
            root: None,
            spans: Vec::new(),
            open: Vec::new(),
            off: false,
        }
    }

    /// Switches recording off or back on. While it is off `span` only calls
    /// its closure and `close` returns 0; no span may be open at the switch.
    pub fn set_off(&mut self, off: bool) {
        assert!(self.open.is_empty(), "switching a tracer with open spans");
        self.off = off;
    }

    /// A recorder for thread `tid` (1, 2, …) doing work this recorder's
    /// innermost open span caused: same time origin, that span as the parent
    /// of its top-level spans, and an id range of its own so the recorders
    /// can be merged with [`Tracer::absorb`].
    pub fn fork(&self, tid: u32) -> Self {
        Self {
            origin: self.origin,
            tid,
            next_id: self.next_id + tid * 1_000_000,
            root: self.open.last().map(|&i| self.spans[i].id),
            spans: Vec::new(),
            open: Vec::new(),
            off: self.off,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span whose parent is the innermost open span.
    pub fn open(&mut self, name: &'static str, step: Option<u32>) {
        if self.off {
            return;
        }
        let parent = self.open.last().map(|&i| self.spans[i].id).or(self.root);
        let start_ns = self.now();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            id: self.next_id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            step,
            tid: self.tid,
        });
        self.next_id += 1;
    }

    /// Ends the innermost open span and returns its duration in seconds.
    pub fn close(&mut self) -> f64 {
        if self.off {
            return 0.0;
        }
        let end = self.now();
        let i = self.open.pop().expect("close without a matching open");
        self.spans[i].end_ns = end;
        self.spans[i].dur_ns() as f64 * 1e-9
    }

    /// Times one call as a leaf span.
    pub fn span<R>(&mut self, name: &'static str, step: Option<u32>, f: impl FnOnce() -> R) -> R {
        self.open(name, step);
        let r = f();
        self.close();
        r
    }

    /// [`Tracer::span`] that also hands back the call's duration in seconds.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        step: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        self.open(name, step);
        let r = f();
        (r, self.close())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another recorder's finished spans.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbing a tracer with open spans");
        self.next_id = self.next_id.max(other.next_id);
        self.spans.extend(other.spans);
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    }

    /// A span's self time: its duration minus the part of it its direct
    /// children cover. Children of one parent are recorded on one thread and
    /// never overlap, so the covered part is the plain sum.
    pub fn self_ns(&self, id: u32) -> u64 {
        let me = self
            .spans
            .iter()
            .find(|s| s.id == id)
            .expect("unknown span id");
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        me.dur_ns().saturating_sub(covered)
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// (`"ph":"X"`) event per span, microsecond timestamps, with the span id,
    /// its parent and the step index under `args`.
    pub fn to_chrome(&self, process_name: &str) -> Json {
        let mut events = vec![Json::obj([
            ("name", Json::Str("process_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Num(1.0)),
            (
                "args",
                Json::obj([("name", Json::Str(process_name.into()))]),
            ),
        ])];
        for s in &self.spans {
            let mut args = vec![("id".to_string(), Json::Num(s.id as f64))];
            if let Some(p) = s.parent {
                args.push(("parent".into(), Json::Num(p as f64)));
            }
            if let Some(st) = s.step {
                args.push(("step".into(), Json::Num(st as f64)));
            }
            events.push(Json::obj([
                ("name", Json::Str(s.name.into())),
                ("ph", Json::Str("X".into())),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(s.tid as f64)),
                ("args", Json::Obj(args)),
            ]));
        }
        Json::obj([
            ("displayTimeUnit", Json::Str("ms".into())),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// The `p`-th percentile (0–100) by nearest rank on a sorted copy; 0 for an
/// empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Calls `f` until `min_secs` have passed and at least `min_reps` calls were
/// made, and returns each call's duration in seconds.
pub fn sample(min_secs: f64, min_reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    let mut out = Vec::new();
    let start = Instant::now();
    while out.len() < min_reps || start.elapsed().as_secs_f64() < min_secs {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        t.open("outer", None);
        t.span("leaf", Some(0), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("leaf", Some(1), || ());
        t.close();
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(s[0].id));
        assert_eq!(s[2].parent, Some(s[0].id));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let covered = s[1].dur_ns() + s[2].dur_ns();
        assert_eq!(t.self_ns(s[0].id), s[0].dur_ns() - covered);
        assert_eq!(t.durations("leaf").len(), 2);
    }

    #[test]
    fn a_tracer_switched_off_records_nothing() {
        let mut t = Tracer::new();
        t.set_off(true);
        t.open("outer", None);
        assert_eq!(t.span("leaf", None, || 7), 7);
        assert_eq!(t.close(), 0.0);
        assert!(t.spans().is_empty());
        t.set_off(false);
        t.span("leaf", None, || ());
        assert_eq!(t.spans().len(), 1);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
