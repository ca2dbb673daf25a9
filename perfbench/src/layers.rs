//! Per-layer metrics shared by the live workloads: `pnstm` counters from a
//! `StatsSnapshot` delta, and layer times from the span digest.

use std::collections::BTreeMap;

use pnstm::{StatsSnapshot, Stm};

use crate::report::Report;
use crate::spans::NameStats;

/// Span names: the benchmark's calls into `pnstm`.
pub const READ_ONLY: &str = "pnstm.runtime.read_only";
pub const ATOMIC: &str = "pnstm.runtime.atomic";
pub const BODY: &str = "body";
pub const PARALLEL: &str = "pnstm.txn.parallel";
pub const CHILD_BODY: &str = "pnstm.txn.child_body";
pub const READ: &str = "pnstm.txn.read";
pub const WRITE: &str = "pnstm.txn.write";

/// The counters `stm` accumulated since `before`, with the retained
/// version and byte gauges at their current value.
pub fn stats_since(stm: &Stm, before: &StatsSnapshot) -> StatsSnapshot {
    let now = stm.stats().snapshot();
    StatsSnapshot {
        retained_versions: now.retained_versions,
        retained_bytes: now.retained_bytes,
        ..now.delta_since(before)
    }
}

/// Check that no read found its snapshot's version already collected.
pub fn check_read_floor(r: &mut Report, stm: &Stm) {
    let below_floor = stm.stats().snapshot().read_below_floor;
    r.check(format!("read_below_floor == 0 ({below_floor})"), below_floor == 0);
}

fn ratio(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// The `pnstm` counter metrics of one measured phase.
pub fn stm_counters(r: &mut Report, s: &StatsSnapshot) {
    r.set("pnstm.throttle.wait_ns_mean", s.mean_sem_wait_ns());
    r.set("pnstm.throttle.parks", s.park_count as f64);
    r.set("pnstm.txn.read_slow_path", s.read_slow_path as f64);
    r.set("pnstm.txn.read_filter_hits", s.read_filter_hits as f64);
    r.set("pnstm.txn.read_filter_misses", s.read_filter_misses as f64);
    r.set("pnstm.txn.abort_ratio", s.top_abort_rate());
    r.set("pnstm.txn.nested_abort_ratio", s.nested_abort_rate());
    r.set("pnstm.stripes.locks_per_commit", ratio(s.stripe_lock_acquisitions, s.top_commits));
    r.set(
        "pnstm.stripes.contended_ratio",
        ratio(s.stripe_lock_contended, s.stripe_lock_acquisitions),
    );
    r.set("pnstm.stripes.false_conflicts", s.stripe_false_conflicts as f64);
    r.set("pnstm.cm.waits", s.cm_wait_count() as f64);
    r.set("pnstm.cm.wait_ns_total", s.cm_wait_total_ns as f64);
    r.set("pnstm.sched.steals", s.steal_count as f64);
    r.set("pnstm.sched.deque_overflow", s.deque_overflow as f64);
    r.set("pnstm.mem.gc_cycles", s.gc_cycles as f64);
    r.set("pnstm.mem.pruned_versions", s.gc_pruned_versions as f64);
    r.set("pnstm.mem.retained_versions", s.retained_versions as f64);
    r.set("pnstm.mem.retained_bytes", s.retained_bytes as f64);
}

/// The `pnstm` layer times of a span digest.
pub fn stm_spans(r: &mut Report, d: &BTreeMap<&'static str, NameStats>) {
    let get = |name: &str| d.get(name).copied().unwrap_or_default();
    r.set("pnstm.runtime.read_only_self_ns", get(READ_ONLY).mean_self_ns());
    r.set("pnstm.runtime.atomic_self_ns", get(ATOMIC).mean_self_ns());
    r.set("pnstm.txn.read_ns", get(READ).mean_ns());
    r.set("pnstm.txn.write_ns", get(WRITE).mean_ns());
    r.set("pnstm.txn.parallel_self_ns", get(PARALLEL).mean_beyond_longest_child_ns());
    r.set("pnstm.txn.child_body_ns", get(CHILD_BODY).mean_ns());
}

/// Report `trace_overhead_pct`: the share by which the traced phase's
/// `traced` figure fell behind the untraced phase's `plain` one, in percent
/// (`higher_is_better` says which way is behind).
pub fn trace_overhead(r: &mut Report, plain: f64, traced: f64, higher_is_better: bool) {
    let lost = if higher_is_better { plain - traced } else { traced - plain };
    r.note(format!("trace overhead: untraced {plain}, traced {traced}"));
    r.set("trace_overhead_pct", 100.0 * lost / plain.max(f64::MIN_POSITIVE));
}

/// Drain the span store, write it to `perfbench/out/spans-<workload>.tsv`
/// and digest it.
pub fn collect_spans(r: &mut Report, workload: &str) -> BTreeMap<&'static str, NameStats> {
    let all = crate::spans::take_all();
    let path = std::path::Path::new("perfbench/out").join(format!("spans-{workload}.tsv"));
    match crate::spans::write_tsv(&path, &all) {
        Ok(()) => r.note(format!(
            "spans: {} kept, {} dropped, written to {}",
            all.len(),
            crate::spans::dropped(),
            path.display()
        )),
        Err(e) => r.check(format!("spans written to {} ({e})", path.display()), false),
    }
    crate::spans::digest(&all)
}
