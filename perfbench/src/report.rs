//! Metric tables, latency samples and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::rng::SplitMix;

/// End-to-end metrics: every workload reports each of them in an untraced
/// run. `BENCHMARK.json` lists the same names and units.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("throughput_tps", "1/s"), ("p50_us", "us"), ("peak_rss_mb", "MB")];

/// The phases `AutoPn::phase_name` reports.
pub const PHASES: [&str; 4] = ["initial-sampling", "smbo", "hill-climb", "done"];

/// Per-layer metrics: every workload reports each of them in a traced run,
/// 0 where the workload does not exercise the layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pnstm.runtime.read_only_self_ns", "ns"),
    ("pnstm.runtime.atomic_self_ns", "ns"),
    ("pnstm.runtime.ro_p50_us", "us"),
    ("pnstm.runtime.ro_p99_us", "us"),
    ("pnstm.runtime.rw_p50_us", "us"),
    ("pnstm.throttle.wait_ns_mean", "ns"),
    ("pnstm.throttle.parks", "count"),
    ("pnstm.txn.read_ns", "ns"),
    ("pnstm.txn.write_ns", "ns"),
    ("pnstm.txn.parallel_self_ns", "ns"),
    ("pnstm.txn.child_body_ns", "ns"),
    ("pnstm.txn.read_slow_path", "count"),
    ("pnstm.txn.read_filter_hits", "count"),
    ("pnstm.txn.read_filter_misses", "count"),
    ("pnstm.txn.abort_ratio", "ratio"),
    ("pnstm.txn.nested_abort_ratio", "ratio"),
    ("pnstm.txn.rw_p99_us", "us"),
    ("pnstm.txn.nested_p99_us", "us"),
    ("pnstm.stripes.locks_per_commit", "count"),
    ("pnstm.stripes.contended_ratio", "ratio"),
    ("pnstm.stripes.false_conflicts", "count"),
    ("pnstm.cm.waits", "count"),
    ("pnstm.cm.wait_ns_total", "ns"),
    ("pnstm.sched.steals", "count"),
    ("pnstm.sched.deque_overflow", "count"),
    ("pnstm.mem.gc_cycles", "count"),
    ("pnstm.mem.pruned_versions", "count"),
    ("pnstm.mem.retained_versions", "count"),
    ("pnstm.mem.retained_bytes", "bytes"),
    ("ingress.arrival.gen_lag_p50_us", "us"),
    ("ingress.arrival.gen_lag_p99_us", "us"),
    ("ingress.server.queue_wait_p50_us", "us"),
    ("ingress.server.service_p50_us", "us"),
    ("ingress.server.reject_ratio", "ratio"),
    ("ingress.server.p99_us", "us"),
    ("ingress.server.hist_p99_ns", "ns"),
    ("ingress.server.goodput_rps", "1/s"),
    ("autopn.propose_us.initial-sampling", "us"),
    ("autopn.propose_us.smbo", "us"),
    ("autopn.propose_us.hill-climb", "us"),
    ("autopn.propose_us.done", "us"),
    ("autopn.observe_us.initial-sampling", "us"),
    ("autopn.observe_us.smbo", "us"),
    ("autopn.observe_us.hill-climb", "us"),
    ("autopn.explored.initial-sampling", "count"),
    ("autopn.explored.smbo", "count"),
    ("autopn.explored.hill-climb", "count"),
    ("autopn.replay.dfo_pct", "pct"),
    ("autopn.replay.explorations", "count"),
    ("autopn.replay.tune_ms", "ms"),
    ("simtm.surface_build_s", "s"),
    ("failed_ratio", "ratio"),
    ("trace_overhead_pct", "pct"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// Nearest-rank percentile `p` of nanosecond samples, in microseconds.
pub fn percentile_us(samples_ns: &[u32], p: f64) -> f64 {
    let us: Vec<f64> = samples_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    bench::percentile(&us, p)
}

/// Median of a few values (upper median; 0 for none).
pub fn median(xs: &[f64]) -> f64 {
    bench::percentile(xs, 50.0)
}

/// A fixed-size uniform sample of a latency stream (reservoir sampling), so
/// the benchmark's own memory does not grow with the program's speed.
pub struct Reservoir {
    buf: Vec<u32>,
    seen: u64,
    rng: SplitMix,
}

impl Reservoir {
    pub fn new(cap: usize, seed: u64) -> Self {
        Self { buf: vec![0; cap], seen: 0, rng: SplitMix::new(seed) }
    }

    pub fn push(&mut self, ns: u64) {
        let v = ns.min(u32::MAX as u64) as u32;
        let cap = self.buf.len() as u64;
        if self.seen < cap {
            self.buf[self.seen as usize] = v;
        } else {
            let j = self.rng.below(self.seen + 1);
            if j < cap {
                self.buf[j as usize] = v;
            }
        }
        self.seen += 1;
    }

    pub fn seen(&self) -> u64 {
        self.seen
    }

    pub fn samples(&self) -> &[u32] {
        &self.buf[..(self.seen.min(self.buf.len() as u64) as usize)]
    }
}

/// Merge samples of several streams, each given as its samples and the
/// count of events they were drawn from, into one sample in which every
/// stream keeps its share. Returns the sample and the total event count.
pub fn merge(parts: &[(&[u32], u64)]) -> (Vec<u32>, u64) {
    let seen: u64 = parts.iter().map(|&(_, n)| n).sum();
    // Events one kept sample stands for, at most: streams that kept a
    // larger share are cut down to it.
    let per_sample = parts
        .iter()
        .filter(|(s, _)| !s.is_empty())
        .map(|&(s, n)| n as f64 / s.len() as f64)
        .fold(1.0, f64::max);
    let mut out = Vec::new();
    for &(s, n) in parts {
        let keep = ((n as f64 / per_sample).round() as usize).min(s.len());
        out.extend_from_slice(&s[..keep]);
    }
    (out, seen)
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Run `setup` `reps` times and keep the last result, with the median
/// wall time of one set-up. Earlier results drop outside the timing.
pub fn timed_setups<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let built = setup();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    (last.expect("at least one set-up ran"), median(&times))
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
    failed_checks: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is in no metric table");
        self.metrics.insert(name, value);
    }

    /// A timing with the number of samples it was computed from.
    pub fn set_sampled(&mut self, name: &'static str, value: f64, samples: usize) {
        self.set(name, value);
        self.note(format!("{name}: n={samples}"));
    }

    /// A human-readable line printed before the result.
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Record an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        let what = what.into();
        self.lines.push(format!("check {}: {what}", if ok { "ok" } else { "FAILED" }));
        if !ok {
            self.failed_checks.push(what);
        }
    }

    /// Print the notes, one `metric` line per reported metric, and the
    /// result object as the last line. `traced` selects the per-layer
    /// table; every metric of the selected table is reported (per-layer
    /// ones the workload does not exercise as 0). Returns whether the run
    /// was correct.
    pub fn finish(mut self, traced: bool) -> bool {
        let table = if traced { PER_LAYER } else { END_TO_END };
        for (name, _) in table {
            if traced {
                self.metrics.entry(name).or_insert(0.0);
            } else if !self.metrics.contains_key(name) {
                self.check(format!("end-to-end metric {name} was measured"), false);
            }
        }
        let not_finite: Vec<&str> =
            self.metrics.iter().filter(|(_, v)| !v.is_finite()).map(|(n, _)| *n).collect();
        if !not_finite.is_empty() {
            self.check(format!("metrics are finite (not: {not_finite:?})"), false);
        }
        let correct = self.failed_checks.is_empty() && self.failed == 0;
        for line in &self.lines {
            println!("{line}");
        }
        let mut json = String::new();
        for (name, unit) in table {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            println!("metric {name} = {value} {unit}");
            if !json.is_empty() {
                json.push_str(", ");
            }
            let value = if value.is_finite() { value } else { 0.0 };
            json.push_str(&format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted.max(1),
            self.failed
        );
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_keeps_everything_until_full_then_a_fixed_sample() {
        let mut r = Reservoir::new(100, 1);
        for i in 0..50 {
            r.push(i);
        }
        assert_eq!(r.samples().len(), 50);
        for i in 50..10_000 {
            r.push(i);
        }
        assert_eq!(r.samples().len(), 100);
        assert_eq!(r.seen(), 10_000);
        // A uniform sample of 0..10000 has its median near 5000.
        let med = percentile_us(r.samples(), 50.0) * 1e3;
        assert!((2_500.0..7_500.0).contains(&med), "median {med}");
    }

    #[test]
    fn merge_weights_overflowed_reservoirs_by_what_they_saw() {
        let mut a = Reservoir::new(10, 1);
        let mut b = Reservoir::new(10, 2);
        for _ in 0..1_000 {
            a.push(1);
        }
        for _ in 0..100 {
            b.push(2);
        }
        let (merged, seen) = merge(&[(a.samples(), a.seen()), (b.samples(), b.seen())]);
        assert_eq!(seen, 1_100);
        assert_eq!(merged.iter().filter(|&&v| v == 1).count(), 10);
        assert_eq!(merged.iter().filter(|&&v| v == 2).count(), 1);
    }

    #[test]
    fn every_metric_has_one_unit_and_a_valid_name() {
        let mut names = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(names.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
    }
}
