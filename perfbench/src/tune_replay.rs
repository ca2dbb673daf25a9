//! `tune-replay`: AutoPN sessions replayed over simulated surfaces.
//!
//! The Fig. 5 method: exhaustive `(t, c)` throughput surfaces of the
//! paper's workloads on a simulated 48-core machine are built in-process
//! (`simtm`), and `workloads::replay` feeds AutoPN one stored sample per
//! exploration. No live STM runs, so this workload isolates `autopn`: many
//! tuner seeds per surface, each session timed.

use std::time::{Duration, Instant};

use autopn::{AutoPn, AutoPnConfig, Config, SearchSpace, Tuner};
use simtm::{Surface, SurfaceBuilder};
use workloads::descriptors;

use crate::layers;
use crate::report::{median, peak_rss_mb, timed_setups, Report, PHASES};
use crate::rng::derive;
use crate::spans::{self, NO_PARENT};
use crate::Opts;

/// Repetitions stored per configuration, and the simulated time each
/// sample covers: sized so one set-up takes about a second.
const REPS: usize = 3;
const MEASURE: Duration = Duration::from_millis(40);
/// Tuner seeds per surface in one pass over the sessions.
pub const SEEDS_PER_SURFACE: usize = 128;
const SETUP_REPS: usize = 3;

/// Surfaces built per set-up: one Array, one TPC-C and one Vacation
/// workload at high contention, and Array at low contention, whose optima
/// lie far apart in the space.
fn build_surfaces() -> (Vec<Surface>, f64) {
    let machine = descriptors::paper_machine();
    let t0 = Instant::now();
    let surfaces = [
        descriptors::array_low(),
        descriptors::array_high(),
        descriptors::tpcc_high(),
        descriptors::vacation_high(),
    ]
    .into_iter()
    .map(|wl| {
        SurfaceBuilder::new(wl, machine).reps(REPS).warmup(MEASURE / 10).measure(MEASURE).build()
    })
    .collect();
    (surfaces, t0.elapsed().as_secs_f64())
}

/// One session's inputs: the surface, the tuner seed and the replay's
/// offset into the stored repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Session {
    pub surface: usize,
    pub tuner_seed: u64,
    pub rep_offset: usize,
}

/// The sessions of one pass, derived from the workload seed.
pub fn sessions(seed: u64, surfaces: usize) -> Vec<Session> {
    (0..surfaces * SEEDS_PER_SURFACE)
        .map(|i| Session {
            surface: i % surfaces,
            tuner_seed: derive(seed, 0x1000 + i as u64),
            rep_offset: (derive(seed, 0x2000 + i as u64) % 1_000) as usize,
        })
        .collect()
}

/// Span and metric names per phase, in the order of [`PHASES`]. AutoPN
/// takes no observation once done.
const PROPOSE_SPANS: [&str; 4] = [
    "autopn.propose.initial-sampling",
    "autopn.propose.smbo",
    "autopn.propose.hill-climb",
    "autopn.propose.done",
];
const OBSERVE_SPANS: [&str; 3] =
    ["autopn.observe.initial-sampling", "autopn.observe.smbo", "autopn.observe.hill-climb"];
const PROPOSE_METRICS: [&str; 4] = [
    "autopn.propose_us.initial-sampling",
    "autopn.propose_us.smbo",
    "autopn.propose_us.hill-climb",
    "autopn.propose_us.done",
];
const OBSERVE_METRICS: [&str; 3] = [
    "autopn.observe_us.initial-sampling",
    "autopn.observe_us.smbo",
    "autopn.observe_us.hill-climb",
];
const EXPLORED_METRICS: [&str; 3] =
    ["autopn.explored.initial-sampling", "autopn.explored.smbo", "autopn.explored.hill-climb"];

fn phase_index(tuner: &AutoPn) -> usize {
    let phase = tuner.phase_name();
    PHASES.iter().position(|p| *p == phase).expect("AutoPN reports a known phase")
}

/// A timing `Tuner` decorator: every `propose`/`observe` of the wrapped
/// AutoPN becomes a span named after the phase that answered it.
struct PhaseTimed {
    inner: AutoPn,
    session: u64,
    req: u64,
    explored: [u64; PHASES.len()],
}

impl Tuner for PhaseTimed {
    fn propose(&mut self) -> Option<Config> {
        let start_ns = pnstm::trace::now_ns();
        let out = self.inner.propose();
        let end_ns = pnstm::trace::now_ns();
        // The call can finish a phase and answer from the next one; it is
        // the answering phase's cost.
        let phase = phase_index(&self.inner);
        spans::record(spans::Span {
            name: PROPOSE_SPANS[phase],
            id: spans::next_id(),
            parent: self.session,
            req: self.req,
            start_ns,
            end_ns,
        });
        if out.is_some() {
            self.explored[phase] += 1;
        }
        out
    }

    fn observe(&mut self, cfg: Config, kpi: f64) {
        let name = OBSERVE_SPANS[phase_index(&self.inner).min(OBSERVE_SPANS.len() - 1)];
        let span = spans::begin(name, self.session, self.req);
        self.inner.observe(cfg, kpi);
        span.end();
    }

    fn best(&self) -> Option<(Config, f64)> {
        self.inner.best()
    }

    fn explored(&self) -> usize {
        self.inner.explored()
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// What one session produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    pub final_config: Config,
    pub final_dfo: f64,
    pub explorations: usize,
}

fn tuner(space: &SearchSpace, s: &Session) -> AutoPn {
    AutoPn::new(space.clone(), AutoPnConfig { seed: s.tuner_seed, ..AutoPnConfig::default() })
}

/// Replay one session, untraced.
pub fn replay(space: &SearchSpace, surfaces: &[Surface], s: &Session) -> Outcome {
    let trace = workloads::replay(&mut tuner(space, s), &surfaces[s.surface], s.rep_offset);
    Outcome {
        final_config: trace.final_config,
        final_dfo: trace.final_dfo,
        explorations: trace.explorations(),
    }
}

/// Replay one session inside a session span, through the timing decorator.
fn replay_traced(
    space: &SearchSpace,
    surfaces: &[Surface],
    s: &Session,
    req: u64,
    explored: &mut [u64; PHASES.len()],
) -> Outcome {
    let span = spans::begin("autopn.session", NO_PARENT, req);
    let mut timed =
        PhaseTimed { inner: tuner(space, s), session: span.id(), req, explored: [0; 4] };
    let trace = workloads::replay(&mut timed, &surfaces[s.surface], s.rep_offset);
    span.end();
    for (sum, n) in explored.iter_mut().zip(timed.explored) {
        *sum += n;
    }
    Outcome {
        final_config: trace.final_config,
        final_dfo: trace.final_dfo,
        explorations: trace.explorations(),
    }
}

/// Repeated passes over the sessions for at least `secs`.
struct Passes {
    /// The outcomes of the first pass.
    first: Vec<Outcome>,
    passes: usize,
    /// Passes that ended some session differently from the first.
    differing: usize,
    /// Each session's best wall time over the passes, in ms. The inputs
    /// repeat exactly, and time taken by other tenants of the machine only
    /// ever adds to a session, so the best pass is the steadiest figure.
    best_ms: Vec<f64>,
    explored: [u64; PHASES.len()],
}

impl Passes {
    /// Sessions per second at each session's best time.
    fn rate(&self) -> f64 {
        self.best_ms.len() as f64 * 1e3 / self.best_ms.iter().sum::<f64>()
    }
}

fn run_passes(
    space: &SearchSpace,
    surfaces: &[Surface],
    sessions: &[Session],
    secs: f64,
    traced: bool,
) -> Passes {
    let mut p = Passes {
        first: Vec::new(),
        passes: 0,
        differing: 0,
        best_ms: vec![f64::INFINITY; sessions.len()],
        explored: [0; PHASES.len()],
    };
    let start = Instant::now();
    while p.passes == 0 || start.elapsed().as_secs_f64() < secs {
        let mut outcomes = Vec::with_capacity(sessions.len());
        for (i, s) in sessions.iter().enumerate() {
            let t0 = Instant::now();
            outcomes.push(if traced {
                let req = (p.passes * sessions.len() + i) as u64;
                replay_traced(space, surfaces, s, req, &mut p.explored)
            } else {
                replay(space, surfaces, s)
            });
            p.best_ms[i] = p.best_ms[i].min(t0.elapsed().as_secs_f64() * 1e3);
        }
        if p.passes == 0 {
            p.first = outcomes;
        } else if outcomes != p.first {
            p.differing += 1;
        }
        p.passes += 1;
    }
    p
}

pub fn run(o: &Opts) -> Report {
    let mut r = Report::default();
    let ((surfaces, build_s), setup_s) = timed_setups(SETUP_REPS, build_surfaces);
    let space = SearchSpace::new(descriptors::paper_machine().n_cores);
    let sessions = sessions(o.seed, surfaces.len());

    // A short unmeasured pass over a few sessions warms caches and the
    // allocator.
    for s in sessions.iter().take(surfaces.len()) {
        replay(&space, &surfaces, s);
    }
    let plain = run_passes(
        &space,
        &surfaces,
        &sessions,
        if o.trace { o.seconds / 2.0 } else { o.seconds },
        false,
    );
    let traced = o.trace.then(|| run_passes(&space, &surfaces, &sessions, o.seconds / 2.0, true));
    let rss_mb = peak_rss_mb();

    let first = &plain.first;
    let passes = plain.passes + traced.as_ref().map_or(0, |t| t.passes);
    let alike = plain.differing == 0
        && traced.as_ref().is_none_or(|t| t.differing == 0 && t.first == *first);
    r.check(
        format!("every pass, traced or not, ends every session alike ({passes} passes)"),
        alike,
    );
    let outside = first.iter().filter(|x| !space.contains(x.final_config)).count();
    r.check(format!("every final config lies in the space ({outside} outside)"), outside == 0);
    let bad_dfo = first.iter().filter(|x| !(0.0..=100.0).contains(&x.final_dfo)).count();
    r.check(
        format!("every final distance from optimum is in [0, 100] ({bad_dfo} not)"),
        bad_dfo == 0,
    );
    r.attempted = (passes * sessions.len()) as u64;

    let n = sessions.len() as f64;
    let dfo = first.iter().map(|x| x.final_dfo).sum::<f64>() / n;
    let explorations = first.iter().map(|x| x.explorations as f64).sum::<f64>() / n;
    r.note(format!(
        "{} sessions per pass over {} surfaces; {} passes untraced",
        sessions.len(),
        surfaces.len(),
        plain.passes
    ));
    r.note(format!(
        "mean final distance from optimum {dfo:.3}%, mean explorations {explorations:.2}"
    ));
    if !o.trace {
        r.set("setup_s", setup_s);
        r.set("throughput_tps", plain.rate());
        r.set_sampled("p50_us", median(&plain.best_ms) * 1e3, plain.best_ms.len());
        r.set("peak_rss_mb", rss_mb);
        return r;
    }
    let traced = traced.expect("traced passes ran");
    r.set("simtm.surface_build_s", build_s);
    r.set("autopn.replay.dfo_pct", dfo);
    r.set("autopn.replay.explorations", explorations);
    r.set_sampled("autopn.replay.tune_ms", 1e3 / plain.rate(), plain.best_ms.len());
    let digest = layers::collect_spans(&mut r, "tune-replay");
    let sessions_traced = digest.get("autopn.session").map_or(0, |s| s.count).max(1) as f64;
    let us = |name: &str| digest.get(name).copied().unwrap_or_default().mean_ns() / 1e3;
    for (metric, span) in PROPOSE_METRICS.iter().zip(PROPOSE_SPANS) {
        r.set(metric, us(span));
    }
    for (i, (metric, span)) in OBSERVE_METRICS.iter().zip(OBSERVE_SPANS).enumerate() {
        r.set(metric, us(span));
        r.set(EXPLORED_METRICS[i], traced.explored[i] as f64 / sessions_traced);
    }
    layers::trace_overhead(&mut r, plain.rate(), traced.rate(), true);
    r
}
