//! In-memory span recorder for the traced run.
//!
//! Every span is opened by the benchmark around one call into a layer's
//! public API; nothing is recorded inside the program. A span's name is
//! the layer prefix of the metrics it feeds (`cpu`, `exec.journal`, ...).
//! Spans nest per thread (the innermost open span is the parent), serve
//! spans carry the request id, and the whole set is kept in memory and
//! written out as JSON lines once the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// One closed span. Times are microseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub request: Option<u64>,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn store() -> &'static Mutex<Vec<SpanRec>> {
    static STORE: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());
    &STORE
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn micros(t: Instant) -> f64 {
    t.saturating_duration_since(epoch()).as_secs_f64() * 1e6
}

/// An open span; closes (and is recorded) on drop.
pub struct Guard {
    live: Option<(u64, u64, &'static str, Instant)>,
}

/// Opens a span named after a layer, parented on the innermost open span
/// of this thread. A no-op when tracing is off.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard { live: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Guard { live: Some((id, parent, name, Instant::now())) }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, name, start)) = self.live.take() {
            let end = Instant::now();
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
            push(SpanRec {
                id,
                parent,
                name,
                start_us: micros(start),
                end_us: micros(end),
                request: None,
            });
        }
    }
}

/// Records a finished span whose endpoints were taken elsewhere (a serve
/// request is opened by the sender thread at its due time and closed by
/// the receiver thread).
pub fn record(name: &'static str, start: Instant, end: Instant, request: u64) {
    if !enabled() {
        return;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    push(SpanRec {
        id,
        parent: 0,
        name,
        start_us: micros(start),
        end_us: micros(end),
        request: Some(request),
    });
}

fn push(rec: SpanRec) {
    store().lock().expect("span store poisoned by a panicking thread").push(rec);
}

pub fn take() -> Vec<SpanRec> {
    std::mem::take(&mut *store().lock().expect("span store poisoned by a panicking thread"))
}

/// Per-layer self time in seconds: each span's duration minus the part
/// covered by its direct children. Children of one parent come from the
/// same thread and do not overlap, so their durations simply add.
pub fn self_seconds(spans: &[SpanRec]) -> BTreeMap<&'static str, f64> {
    let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_us.entry(s.parent).or_default() += s.end_us - s.start_us;
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = (s.end_us - s.start_us) - child_us.get(&s.id).copied().unwrap_or(0.0);
        *out.entry(s.name).or_default() += own.max(0.0) / 1e6;
    }
    out
}

/// Renders the spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[SpanRec]) -> String {
    let mut out = String::new();
    for s in spans {
        let request = s.request.map_or_else(|| "null".to_owned(), |r| r.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"request\":{}}}\n",
            s.id, s.parent, s.name, s.start_us, s.end_us, request
        ));
    }
    out
}
