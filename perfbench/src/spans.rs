//! Spans around every layer call, kept in memory and written at exit as
//! a Chrome trace-event file (the shape `repro --flight` writes, so it
//! opens in Perfetto or `chrome://tracing`).
//!
//! A span's layer is its name up to the first `.`: `workloads`, `sched`,
//! `trace`, `core` or `bench`. The root of each pass is named `pass`;
//! its self time is the part of the pass no layer span covers.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span, for its children to name as parent.
pub type SpanId = u64;

/// One completed span. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run.
    pub id: SpanId,
    /// The span this call was made from, if any.
    pub parent: Option<SpanId>,
    /// The pass the span belongs to.
    pub pass: u32,
    /// `layer.call`, e.g. `core.Processor::run_packed`.
    pub name: &'static str,
    /// What the call worked on, e.g. `ora/local/dual`.
    pub label: String,
    /// Start, in seconds since the epoch.
    pub start: f64,
    /// End, in seconds since the epoch.
    pub end: f64,
    /// Dense id of the thread that made the call.
    pub tid: u64,
    /// Whether the duration is the program's own report rather than a
    /// measurement taken around the call.
    pub reported: bool,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }

    /// The layer: the name up to the first `.`.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans while enabled; a disabled tracer reads no clock.
pub struct Tracer {
    enabled: AtomicBool,
    pass: AtomicU32,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    /// A tracer, initially disabled.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            pass: AtomicU32::new(0),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off and sets the pass new spans belong to.
    pub fn start_pass(&self, pass: u32, enabled: bool) {
        self.pass.store(pass, Ordering::Relaxed);
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Opens a span; it is recorded when the guard drops or finishes.
    pub fn span(
        &self,
        name: &'static str,
        label: impl FnOnce() -> String,
        parent: Option<SpanId>,
    ) -> Guard<'_> {
        let open = self.enabled.load(Ordering::Relaxed).then(|| Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            label: label(),
            start: Instant::now(),
        });
        Guard {
            tracer: self,
            name,
            parent,
            open,
        }
    }

    /// Records a span the program timed itself: `seconds` long, ending
    /// at `end` (seconds since the epoch).
    pub fn reported(
        &self,
        name: &'static str,
        label: String,
        parent: SpanId,
        end: f64,
        seconds: f64,
    ) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent: Some(parent),
            pass: self.pass.load(Ordering::Relaxed),
            name,
            label,
            start: end - seconds,
            end,
            tid: TID.with(|t| *t),
            reported: true,
        });
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("a span recorder panicked")
            .push(span);
    }

    /// Every span recorded so far, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

struct Open {
    id: SpanId,
    label: String,
    start: Instant,
}

/// An open span.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    parent: Option<SpanId>,
    open: Option<Open>,
}

impl Guard<'_> {
    /// The span's id, to pass to calls made inside it (`None` while the
    /// tracer is off).
    #[must_use]
    pub fn id(&self) -> Option<SpanId> {
        self.open.as_ref().map(|o| o.id)
    }

    /// Records the span now; returns its id and end time.
    pub fn finish(mut self) -> Option<(SpanId, f64)> {
        self.close()
    }

    fn close(&mut self) -> Option<(SpanId, f64)> {
        let open = self.open.take()?;
        let t = self.tracer;
        let end = t.epoch.elapsed().as_secs_f64();
        t.push(Span {
            id: open.id,
            parent: self.parent,
            pass: t.pass.load(Ordering::Relaxed),
            name: self.name,
            label: open.label,
            start: (open.start - t.epoch).as_secs_f64(),
            end,
            tid: TID.with(|t| *t),
            reported: false,
        });
        Some((open.id, end))
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

/// Self time of each layer within one pass, in seconds, keyed by layer;
/// `uncovered` is the pass time no layer span covers. The values add
/// up to the duration of the pass span `root`.
///
/// A span's self time is its duration minus the part its children
/// cover. Where children overlap — the sweep's workers — each instant
/// is shared equally among the children running in it, so the total
/// stays the pass's wall time.
#[must_use]
pub fn self_times(spans: &[Span], root: SpanId) -> BTreeMap<&'static str, f64> {
    let mut children: HashMap<SpanId, Vec<&Span>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut out = BTreeMap::new();
    if let Some(root) = spans.iter().find(|s| s.id == root) {
        attribute(root, root.dur(), &children, &mut out);
    }
    out
}

/// Charges `eff` seconds of wall time to `span` and its descendants.
fn attribute(
    span: &Span,
    eff: f64,
    children: &HashMap<SpanId, Vec<&Span>>,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let kids: Vec<(f64, f64, &Span)> = children
        .get(&span.id)
        .into_iter()
        .flatten()
        .map(|k| (k.start.max(span.start), k.end.min(span.end), *k))
        .filter(|(s, e, _)| e > s)
        .collect();
    let mut cuts: Vec<f64> = kids.iter().flat_map(|&(s, e, _)| [s, e]).collect();
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();
    let mut share = vec![0.0; kids.len()];
    let mut covered = 0.0;
    for w in cuts.windows(2) {
        let active: Vec<usize> = (0..kids.len())
            .filter(|&i| kids[i].0 <= w[0] && kids[i].1 >= w[1])
            .collect();
        if !active.is_empty() {
            let len = w[1] - w[0];
            covered += len;
            for &i in &active {
                share[i] += len / active.len() as f64;
            }
        }
    }
    let dur = span.dur();
    let scale = if dur > 0.0 { eff / dur } else { 0.0 };
    let layer = if span.name == "pass" {
        "uncovered"
    } else {
        span.layer()
    };
    *out.entry(layer).or_insert(0.0) += scale * (dur - covered);
    for (&(_, _, kid), sh) in kids.iter().zip(share) {
        attribute(kid, scale * sh, children, out);
    }
}

/// The spans as a Chrome trace-event document.
#[must_use]
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\
             \"tid\":{},\"args\":{{\"id\":{},\"parent\":{parent},\"pass\":{},\"label\":\"{}\",\
             \"source\":\"{}\"}}}}{sep}",
            s.name,
            s.layer(),
            s.start * 1e6,
            s.dur() * 1e6,
            s.tid,
            s.id,
            s.pass,
            escape(&s.label),
            if s.reported { "program" } else { "benchmark" },
        );
    }
    out.push_str("]}\n");
    out
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            pass: 0,
            name,
            label: String::new(),
            start,
            end,
            tid: 1,
            reported: false,
        }
    }

    #[test]
    fn self_times_add_up_to_the_pass() {
        let spans = vec![
            span(1, None, "pass", 0.0, 10.0),
            span(2, Some(1), "bench.run_cells", 1.0, 9.0),
            // Two workers overlap between 3 and 5.
            span(3, Some(2), "bench.cell", 1.0, 5.0),
            span(4, Some(2), "bench.cell", 3.0, 8.0),
            span(5, Some(3), "core.sim", 1.0, 3.0),
        ];
        let t = self_times(&spans, 1);
        let total: f64 = t.values().sum();
        assert!((total - 10.0).abs() < 1e-9, "{t:?}");
        assert!((t["uncovered"] - 2.0).abs() < 1e-9, "{t:?}");
        // run_cells: 8 s, of which 7 are covered by cells (1..8).
        // cell 3 gets 2 + 1 = 3 s, of which core takes 2/4 of its span.
        assert!((t["core"] - 1.5).abs() < 1e-9, "{t:?}");
        assert!((t["bench"] - 6.5).abs() < 1e-9, "{t:?}");
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new();
        drop(tracer.span("core.x", || unreachable!("label is lazy"), None));
        tracer.start_pass(3, true);
        let outer = tracer.span("pass", String::new, None);
        let inner = tracer.span("core.x", || "k".to_owned(), outer.id());
        let (inner_id, end) = inner.finish().expect("enabled");
        tracer.reported("core.y", "k".to_owned(), inner_id, end, 0.0);
        drop(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.pass == 3));
        let doc = chrome_trace(&spans);
        assert!(doc.contains("\"source\":\"program\""), "{doc}");
    }
}
