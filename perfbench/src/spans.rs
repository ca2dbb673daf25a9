//! The traced run's span store and its digest.
//!
//! A span covers one call from the benchmark into a layer: its name, start
//! and end (`pnstm::trace::now_ns`), the span that caused it and the id of
//! the request it belongs to. Spans stay in memory (one buffer per thread,
//! pool workers included) until [`take_all`], and are written out once, at
//! exit. A layer's self time is its span's duration minus the union of its
//! child spans.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use pnstm::trace::now_ns;

/// One recorded span. `parent` is [`NO_PARENT`] for a root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub const NO_PARENT: u64 = 0;

/// Spans kept at most; later ones are counted in [`dropped`] instead, so a
/// traced run's memory stays bounded whatever the throughput.
pub const MAX_SPANS: usize = 1 << 20;

type Buffer = Arc<Mutex<Vec<Span>>>;

static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());
static RECORDED: AtomicUsize = AtomicUsize::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

struct Local {
    buf: Buffer,
    /// Ids are `thread << 40 | sequence`: unique without a shared counter.
    thread: u64,
    seq: Cell<u64>,
}

thread_local! {
    static LOCAL: Local = {
        let buf: Buffer = Arc::default();
        BUFFERS.lock().expect("span registry poisoned").push(Arc::clone(&buf));
        Local { buf, thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed), seq: Cell::new(0) }
    };
}

/// A span that has begun; its id is known before it ends, so children can
/// name it as their parent.
#[must_use]
pub struct Open {
    name: &'static str,
    id: u64,
    parent: u64,
    req: u64,
    start_ns: u64,
}

/// A fresh span id, for [`begin`] or for a span stored with [`record`].
pub fn next_id() -> u64 {
    LOCAL.with(|l| {
        let seq = l.seq.get() + 1;
        l.seq.set(seq);
        l.thread << 40 | seq
    })
}

/// Begin a span named `name` under `parent` for request `req`.
pub fn begin(name: &'static str, parent: u64, req: u64) -> Open {
    Open { name, id: next_id(), parent, req, start_ns: now_ns() }
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn end(self) {
        let end_ns = now_ns();
        record(Span {
            name: self.name,
            id: self.id,
            parent: self.parent,
            req: self.req,
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

/// Store a finished span (also used for spans whose bounds were measured
/// elsewhere, such as an ingress request's intended arrival).
pub fn record(span: Span) {
    if RECORDED.fetch_add(1, Ordering::Relaxed) >= MAX_SPANS {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    LOCAL.with(|l| l.buf.lock().expect("span buffer poisoned").push(span));
}

/// Spans refused because the store was full.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Drain every thread's buffer, ordered by start time.
pub fn take_all() -> Vec<Span> {
    let buffers = BUFFERS.lock().expect("span registry poisoned");
    let mut all = Vec::new();
    for buf in buffers.iter() {
        all.append(&mut buf.lock().expect("span buffer poisoned"));
    }
    RECORDED.store(0, Ordering::Relaxed);
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// Write spans as tab-separated lines: name, id, parent, req, start, end.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tid\tparent\treq\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.name, s.id, s.parent, s.req, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Per-name totals of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the union of the child spans' intervals.
    pub self_ns: u64,
    /// Duration minus the longest child span (for fork/join spans, whose
    /// children overlap: the part the slowest child does not explain).
    pub beyond_longest_child_ns: u64,
}

impl NameStats {
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }

    pub fn mean_self_ns(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64
    }

    pub fn mean_beyond_longest_child_ns(&self) -> f64 {
        self.beyond_longest_child_ns as f64 / self.count.max(1) as f64
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Totals per span name, with self times computed against each span's
/// direct children.
pub fn digest(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for s in spans {
        let dur = s.dur_ns();
        let (cover, longest) = match children.get_mut(&s.id) {
            Some(kids) => (
                covered(kids, s.start_ns, s.end_ns),
                kids.iter().map(|&(a, b)| b.saturating_sub(a)).max().unwrap_or(0),
            ),
            None => (0, 0),
        };
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur - cover;
        e.beyond_longest_child_ns += dur.saturating_sub(longest);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { name, id, parent, req: 1, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // A parallel call [0, 100) with two children that overlap in
        // [30, 50): the union covers [10, 70), 60 ns, not 40 + 40.
        let spans = [
            span("parallel", 1, NO_PARENT, 0, 100),
            span("child", 2, 1, 10, 50),
            span("child", 3, 1, 30, 70),
        ];
        let d = digest(&spans);
        assert_eq!(d["parallel"].self_ns, 40);
        assert_eq!(d["parallel"].beyond_longest_child_ns, 60);
        assert_eq!(d["child"].count, 2);
        assert_eq!(d["child"].self_ns, 80);
    }

    #[test]
    fn retried_attempts_are_all_subtracted_from_the_call() {
        // An atomic call [0, 200) whose body ran three times: two aborted
        // attempts and the committed one; the gaps between them (abort
        // handling, snapshot pin, commit) are the call's self time.
        let spans = [
            span("atomic", 10, NO_PARENT, 0, 200),
            span("body", 11, 10, 5, 55),
            span("body", 12, 10, 60, 110),
            span("body", 13, 10, 120, 170),
            span("read", 14, 13, 125, 135),
        ];
        let d = digest(&spans);
        assert_eq!(d["atomic"].self_ns, 200 - 150);
        assert_eq!(d["body"].count, 3);
        assert_eq!(d["body"].self_ns, 150 - 10);
        assert_eq!(d["read"].self_ns, 10);
    }

    #[test]
    fn child_spans_outside_the_parent_are_clipped() {
        // Clock skew between threads can put a child's end past its
        // parent's; only the covered part counts.
        let spans = [
            span("parallel", 1, NO_PARENT, 100, 200),
            span("child", 2, 1, 90, 150),
            span("child", 3, 1, 140, 230),
        ];
        let d = digest(&spans);
        assert_eq!(d["parallel"].self_ns, 0);
        assert_eq!(d["parallel"].beyond_longest_child_ns, 10);
    }

    #[test]
    fn nested_levels_take_only_direct_children() {
        let spans = [
            span("atomic", 1, NO_PARENT, 0, 100),
            span("body", 2, 1, 10, 90),
            span("parallel", 3, 2, 20, 80),
            span("child", 4, 3, 25, 75),
        ];
        let d = digest(&spans);
        assert_eq!(d["atomic"].self_ns, 20);
        assert_eq!(d["body"].self_ns, 20);
        assert_eq!(d["parallel"].self_ns, 10);
        assert_eq!(d["child"].self_ns, 50);
    }

    #[test]
    fn recorded_spans_carry_ids_parents_and_requests() {
        let outer = begin("outer", NO_PARENT, 7);
        let inner = begin("inner", outer.id(), 7);
        assert_ne!(outer.id(), inner.id());
        let (outer_id, inner_id) = (outer.id(), inner.id());
        inner.end();
        outer.end();
        let mine: Vec<Span> =
            take_all().into_iter().filter(|s| s.id == outer_id || s.id == inner_id).collect();
        assert_eq!(mine.len(), 2);
        let inner = mine.iter().find(|s| s.name == "inner").expect("inner span kept");
        assert_eq!(inner.parent, outer_id);
        assert_eq!(inner.req, 7);
        assert!(inner.start_ns <= inner.end_ns);
    }
}
