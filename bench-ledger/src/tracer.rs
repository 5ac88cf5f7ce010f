//! In-memory spans recorded around the calls the benchmark makes into
//! each layer, exported as Chrome trace-event JSON (one complete `"X"`
//! event per span) so a traced run opens in Perfetto.
//!
//! Spans come in four kinds. *Layer* spans wrap one call into a layer's
//! public API and are what the per-layer metrics sum. *Probe* spans are
//! extra calls made only to attribute time inside another layer's span
//! (for example re-decoding the windows that `run_lockstep` decodes
//! internally); they are left out of coverage. *Item* spans wrap one
//! unit of parallel work and *Phase* spans wrap a parallel fan-out on
//! the calling thread, which waits while its workers run.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use crate::json::quote;

/// What a span stands for; see the module docs.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Kind {
    /// One call into a layer.
    Layer,
    /// An attribution-only extra call.
    Probe,
    /// One unit of parallel work (its self time is benchmark glue).
    Item,
    /// A fan-out the recording thread waits on.
    Phase,
}

impl Kind {
    fn category(self) -> &'static str {
        match self {
            Kind::Layer => "layer",
            Kind::Probe => "probe",
            Kind::Item => "item",
            Kind::Phase => "phase",
        }
    }
}

/// The `args` every span carries.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct Args {
    /// Benchmark the call worked on (empty when it spans several).
    pub bench: &'static str,
    /// Lockstep lanes (configurations) the call advanced.
    pub lanes: u64,
    /// Instruction window the call covered.
    pub instrs: u64,
}

/// One finished span.
#[derive(Clone, PartialEq, Debug)]
pub struct Span {
    /// Layer-prefixed name, e.g. `core.lockstep`.
    pub name: String,
    /// What the span stands for.
    pub kind: Kind,
    /// Dense id of the recording thread.
    pub tid: u64,
    /// Start, in microseconds since the tracer was created.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Call arguments.
    pub args: Args,
    /// Whether a layer span was open on the same thread when this one
    /// started (such spans are a layer's children, not extra coverage).
    pub in_layer: bool,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.dur_us / 1e6
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static OPEN: RefCell<Vec<Kind>> = const { RefCell::new(Vec::new()) };
}

fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// Collects spans from any number of threads.
pub struct Tracer {
    origin: Instant,
    main_tid: u64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now, owned by the calling thread.
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), main_tid: current_tid(), spans: Mutex::new(Vec::new()) }
    }

    /// Microseconds since the tracer was created.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<R>(&self, kind: Kind, name: &str, args: Args, f: impl FnOnce() -> R) -> R {
        let in_layer = OPEN.with(|o| {
            let mut open = o.borrow_mut();
            let nested = open.contains(&Kind::Layer);
            open.push(kind);
            nested
        });
        let start_us = self.now_us();
        let out = f();
        let dur_us = self.now_us() - start_us;
        OPEN.with(|o| o.borrow_mut().pop());
        self.push(Span {
            name: name.to_owned(),
            kind,
            tid: current_tid(),
            start_us,
            dur_us,
            args,
            in_layer,
        });
        out
    }

    /// Records a span measured by the caller (for intervals that end on
    /// another thread or inside a byte stream).
    pub fn record(&self, kind: Kind, name: &str, args: Args, start_us: f64, end_us: f64) {
        let in_layer = OPEN.with(|o| o.borrow().contains(&Kind::Layer));
        self.push(Span {
            name: name.to_owned(),
            kind,
            tid: current_tid(),
            start_us,
            dur_us: (end_us - start_us).max(0.0),
            args,
            in_layer,
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner).push(span);
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// The thread that created the tracer.
    pub fn main_tid(&self) -> u64 {
        self.main_tid
    }

    /// Sum of the durations of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans().iter().filter(|s| s.name == name).map(Span::secs).sum()
    }

    /// Durations of every span named `name`, in seconds.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans().iter().filter(|s| s.name == name).map(Span::secs).collect()
    }
}

/// Share of busy thread time that layer spans account for.
///
/// Busy time is the recording thread's wall time outside phases (while a
/// phase runs it only waits) plus the time every thread spent inside
/// item spans. Layer time sums the outermost layer spans on all
/// threads. Whatever busy time no layer span covers is the benchmark's
/// own glue, so a value near 1 says the per-layer numbers account for
/// the replay. Probe spans never count.
pub fn coverage(spans: &[Span], main_tid: u64, wall_us: f64) -> f64 {
    let sum = |pred: &dyn Fn(&Span) -> bool| -> f64 {
        spans.iter().filter(|s| pred(s)).map(|s| s.dur_us).sum()
    };
    let phases = sum(&|s| s.kind == Kind::Phase && s.tid == main_tid);
    let items = sum(&|s| s.kind == Kind::Item);
    let layers = sum(&|s| s.kind == Kind::Layer && !s.in_layer);
    let busy = (wall_us - phases).max(0.0) + items;
    if busy <= 0.0 {
        0.0
    } else {
        layers / busy
    }
}

/// Chrome trace-event JSON for `spans`: one complete (`"ph":"X"`) event
/// per span with its thread id and `args` {bench, lanes, instrs}, plus
/// the span kind as the event category. Perfetto and `chrome://tracing`
/// open it directly.
pub fn chrome_trace(spans: &[Span], workload: &str) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":{}}}}}",
        quote(&format!("bench-ledger {workload}"))
    );
    for s in spans {
        let _ = write!(
            out,
            ",\n{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\
             \"tid\":{},\"args\":{{\"bench\":{},\"lanes\":{},\"instrs\":{}}}}}",
            quote(&s.name),
            s.kind.category(),
            s.start_us,
            s.dur_us,
            s.tid,
            quote(s.args.bench),
            s.args.lanes,
            s.args.instrs
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, kind: Kind, tid: u64, start: f64, dur: f64, in_layer: bool) -> Span {
        Span {
            name: name.to_owned(),
            kind,
            tid,
            start_us: start,
            dur_us: dur,
            args: Args::default(),
            in_layer,
        }
    }

    #[test]
    fn nested_spans_know_their_layer_parent() {
        let t = Tracer::new();
        t.span(Kind::Layer, "outer", Args::default(), || {
            t.span(Kind::Layer, "inner", Args::default(), || ());
        });
        t.span(Kind::Probe, "probe", Args::default(), || ());
        let spans = t.spans();
        let inner = spans.iter().find(|s| s.name == "inner").map(|s| s.in_layer);
        let outer = spans.iter().find(|s| s.name == "outer").map(|s| s.in_layer);
        assert_eq!((inner, outer), (Some(true), Some(false)));
        assert!(spans.iter().all(|s| s.tid == t.main_tid()));
    }

    #[test]
    fn coverage_counts_glue_against_the_ledger() {
        let main = 0;
        let spans = vec![
            // 10us of layer work on the main thread, then a 50us phase.
            span("render", Kind::Layer, main, 0.0, 10.0, false),
            span("phase", Kind::Phase, main, 10.0, 50.0, false),
            // Two workers: items of 50us and 40us, 85us of layer work.
            span("item", Kind::Item, 1, 10.0, 50.0, false),
            span("core.lockstep", Kind::Layer, 1, 10.0, 48.0, false),
            span("nested", Kind::Layer, 1, 12.0, 5.0, true),
            span("item", Kind::Item, 2, 10.0, 40.0, false),
            span("core.lockstep", Kind::Layer, 2, 10.0, 37.0, false),
            span("probe", Kind::Probe, main, 60.0, 100.0, false),
        ];
        // busy = (64 - 50) + 90 = 104; layers = 10 + 48 + 37 = 95.
        let c = coverage(&spans, main, 64.0);
        assert!((c - 95.0 / 104.0).abs() < 1e-12, "{c}");
    }

    #[test]
    fn chrome_trace_is_one_complete_event_per_span() {
        let spans = vec![Span {
            args: Args { bench: "gcc", lanes: 4, instrs: 1000 },
            ..span("core.lockstep", Kind::Layer, 3, 1.5, 2.25, false)
        }];
        let json = chrome_trace(&spans, "paper-cold");
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), "{json}");
        assert!(json.contains(
            "{\"name\":\"core.lockstep\",\"cat\":\"layer\",\"ph\":\"X\",\"ts\":1.500,\
             \"dur\":2.250,\"pid\":1,\"tid\":3,\"args\":{\"bench\":\"gcc\",\"lanes\":4,\
             \"instrs\":1000}}"
        ));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 1);
        assert!(crate::json::parse(&json).is_ok(), "export must be valid JSON");
    }
}
