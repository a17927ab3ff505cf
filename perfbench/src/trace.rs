//! Host-time spans recorded by the harness around its own calls into the
//! workspace crates.
//!
//! Tracing is off for end-to-end runs: [`span`] then costs one relaxed
//! atomic load. A traced run turns it on, and every span lands in one
//! in-memory sink that [`take`] drains when the run ends. A span's parent is
//! whatever span was open on the same thread when it began; worker threads
//! adopt their spawner's position with [`context`] and [`with_context`].
//!
//! Span names are `<layer>.<call>` with the layer being a workspace crate
//! (`netsim`, `scenarios`, `core`, `cloudstore`, `relay`, `transfer`,
//! `routeplane`, `simcheck`, `obs`), except the harness's own containers:
//! `op` wraps one operation and `op.worker` one worker thread's share of it.
//! Time inside a container but outside any layer span is the harness's own
//! (unattributed) time.

use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span, in nanoseconds since the process's trace epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Enclosing span's id; 0 for a root.
    pub parent: u64,
    /// Operation the span belongs to.
    pub op: u64,
    /// `<layer>.<call>`, or `op` / `op.worker` for harness containers.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Position in the span tree: (open span id, op id).
pub type SpanCtx = (u64, u64);

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static CTX: Cell<SpanCtx> = const { Cell::new((0, 0)) };
    static IDS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Turn span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is span recording on?
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the trace epoch.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Span ids a thread takes from the global counter at a time, so callers
/// on several threads do not contend on it per span.
const ID_BLOCK: u64 = 1024;

/// A fresh span id, for spans recorded by hand with [`record`].
pub fn next_id() -> u64 {
    IDS.with(|ids| {
        let (next, end) = ids.get();
        let (next, end) = if next == end {
            let base = NEXT_ID.fetch_add(ID_BLOCK, Ordering::Relaxed);
            (base, base + ID_BLOCK)
        } else {
            (next, end)
        };
        ids.set((next + 1, end));
        next
    })
}

/// Append a span built by hand.
pub fn record(span: Span) {
    SINK.lock().expect("span sink poisoned").push(span);
}

/// This thread's current position in the span tree.
pub fn context() -> SpanCtx {
    CTX.with(|c| c.get())
}

/// Run `f` with this thread positioned at `ctx` (used by worker threads to
/// hang their spans under the span that spawned them).
pub fn with_context<R>(ctx: SpanCtx, f: impl FnOnce() -> R) -> R {
    let saved = CTX.with(|c| c.replace(ctx));
    let r = f();
    CTX.with(|c| c.set(saved));
    r
}

/// Time `f` as span `name` under the currently open span.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = next_id();
    let (parent, op) = context();
    let start_ns = now_ns();
    let r = with_context((id, op), f);
    record(Span {
        id,
        parent,
        op,
        name,
        start_ns,
        end_ns: now_ns(),
    });
    r
}

/// Time `f` as the root `op` container of operation `op`.
pub fn op<R>(op: u64, f: impl FnOnce() -> R) -> R {
    with_context((0, op), || span("op", f))
}

/// Drain every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SINK.lock().expect("span sink poisoned"))
}

fn is_container(name: &str) -> bool {
    name == "op" || name == "op.worker"
}

/// Count and summed duration (ns) of the spans named `name`.
pub fn total(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(n, t), s| (n + 1, t + s.dur_ns()))
}

/// Mean duration of the spans named `name`, in `unit_ns` units (0 when none).
pub fn mean(spans: &[Span], name: &str, unit_ns: f64) -> f64 {
    let (n, t) = total(spans, name);
    if n == 0 {
        0.0
    } else {
        t as f64 / n as f64 / unit_ns
    }
}

/// Share of container time not covered by a layer span directly inside it.
/// Only leaf containers count (a root `op` whose time is split across
/// `op.worker` children is represented by the workers).
pub fn unattributed_share(spans: &[Span]) -> f64 {
    use std::collections::HashMap;
    let mut has_container_child: HashMap<u64, bool> = HashMap::new();
    for s in spans {
        if is_container(s.name) {
            has_container_child.entry(s.id).or_insert(false);
            if s.parent != 0 {
                has_container_child.insert(s.parent, true);
            }
        }
    }
    let leaf = |id: u64| has_container_child.get(&id) == Some(&false);
    let container_ns: u64 = spans
        .iter()
        .filter(|s| is_container(s.name) && leaf(s.id))
        .map(Span::dur_ns)
        .sum();
    let layer_ns: u64 = spans
        .iter()
        .filter(|s| !is_container(s.name) && leaf(s.parent))
        .map(Span::dur_ns)
        .sum();
    if container_ns == 0 {
        0.0
    } else {
        container_ns.saturating_sub(layer_ns) as f64 / container_ns as f64
    }
}

/// Write spans as JSON lines: id, parent, op, name, start_ns, end_ns.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
