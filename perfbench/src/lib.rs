//! The repository benchmark: four workloads over the public APIs of
//! `pnstm`, `ingress`, `autopn` and `simtm`, each printing its end-to-end
//! metrics (untraced run) or its per-layer metrics (traced run). See
//! `perfbench/README.md`.

pub mod closed;
pub mod ingress_open;
pub mod layers;
pub mod nested_scan;
pub mod report;
pub mod rng;
pub mod spans;
pub mod tune_replay;
pub mod txn_mix;

use closed::Phase;

/// The workloads, by the names `--workload` takes.
pub const WORKLOADS: [&str; 4] = ["txn-mix", "nested-scan", "ingress-open", "tune-replay"];

/// Options of one run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Opts {
    /// Unmeasured time before the first phase: lazy set-up finishes and
    /// caches fill.
    pub fn warmup_secs(&self) -> f64 {
        (self.seconds * 0.1).clamp(0.2, 2.0)
    }

    /// The measured phases: the whole run untraced, or an untraced half
    /// (for the latency figures and the overhead baseline) then a traced
    /// half.
    pub fn phases(&self) -> Vec<Phase> {
        if self.trace {
            let half = self.seconds / 2.0;
            vec![Phase { secs: half, traced: false }, Phase { secs: half, traced: true }]
        } else {
            vec![Phase { secs: self.seconds, traced: false }]
        }
    }
}

/// Run `workload`; `None` for an unknown name.
pub fn run(workload: &str, o: &Opts) -> Option<report::Report> {
    Some(match workload {
        "txn-mix" => txn_mix::run(o),
        "nested-scan" => nested_scan::run(o),
        "ingress-open" => ingress_open::run(o),
        "tune-replay" => tune_replay::run(o),
        _ => return None,
    })
}
