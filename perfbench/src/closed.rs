//! The closed loop shared by `txn-mix` and `nested-scan`: client
//! threads each issue their next operation as soon as the previous one
//! returns, through a warm-up and then one or more measured phases.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use pnstm::{StatsSnapshot, Stm, StmError};

use crate::report::{median, merge, percentile_us, Reservoir};
use crate::rng::{derive, SplitMix};

/// Latency kinds an operation can report (`txn-mix`: read-only, update).
pub const KINDS: usize = 2;

/// Latency samples kept per client, window and kind.
const RESERVOIR: usize = 1 << 13;

/// Each phase is measured in this many equal windows.
const WINDOWS: usize = 40;

/// One operation of a closed-loop workload.
pub trait ClosedOp: Sync {
    /// Run request `req` of a client whose input stream is `rng`, recording
    /// spans when `traced`. Returns the latency kind (`< KINDS`).
    fn op(&self, rng: &mut SplitMix, req: u64, traced: bool) -> Result<usize, StmError>;
}

/// A measured phase: its length, and whether sampled requests record
/// spans (one in `trace_every`).
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub secs: f64,
    pub traced: bool,
}

/// What one phase measured.
pub struct PhaseResult {
    /// Operations completed per second in each window.
    pub rates: Vec<f64>,
    pub ops: u64,
    pub errors: u64,
    /// Per window, the latency samples (ns) of each kind and how many
    /// operations they cover.
    pub windows: Vec<[(Vec<u32>, u64); KINDS]>,
    pub stats: StatsSnapshot,
}

impl PhaseResult {
    /// The quarter of the windows with the highest throughput. The machine
    /// is shared: time other tenants take stalls a client or the helper
    /// thread, which lowers a window's throughput and changes how the
    /// program's threads overlap. The quiet windows show the program as
    /// configured, so the phase's figures come from them.
    fn quiet(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.rates.len()).collect();
        order.sort_by(|&a, &b| self.rates[b].total_cmp(&self.rates[a]));
        order.truncate(self.rates.len().div_ceil(4));
        order
    }

    /// Operations per second: the median rate of the quiet windows.
    pub fn throughput(&self) -> f64 {
        median(&self.quiet().iter().map(|&w| self.rates[w]).collect::<Vec<_>>())
    }

    fn merged(&self, windows: &[usize], kinds: &[usize]) -> (Vec<u32>, u64) {
        let parts: Vec<(&[u32], u64)> = windows
            .iter()
            .flat_map(|&w| {
                kinds.iter().map(move |&k| (&self.windows[w][k].0[..], self.windows[w][k].1))
            })
            .collect();
        merge(&parts)
    }

    /// The latency samples of the kinds in `kinds` over the whole phase,
    /// each kind and window weighted by the operations it covers.
    pub fn samples(&self, kinds: &[usize]) -> (Vec<u32>, u64) {
        self.merged(&(0..self.windows.len()).collect::<Vec<_>>(), kinds)
    }

    /// The median latency of the kinds in `kinds` over the quiet windows,
    /// in microseconds, with the number of samples it rests on.
    pub fn quiet_p50_us(&self, kinds: &[usize]) -> (f64, usize) {
        let (samples, _) = self.merged(&self.quiet(), kinds);
        (percentile_us(&samples, 50.0), samples.len())
    }
}

#[repr(align(64))]
#[derive(Default)]
struct ClientCounters {
    ops: AtomicU64,
    errors: AtomicU64,
}

/// The input stream of client `client` under the workload seed `seed`.
pub fn client_rng(seed: u64, client: usize) -> SplitMix {
    SplitMix::new(derive(seed, 0x100 + client as u64))
}

const WARMUP: u8 = 0;
const STOP: u8 = u8::MAX;

/// Run `clients` client threads: `warmup_secs` unmeasured, then each of
/// `phases` in turn. Traced phases record spans for one request in
/// `trace_every`. The client input streams derive from `seed`.
pub fn run(
    stm: &Stm,
    workload: &impl ClosedOp,
    clients: usize,
    seed: u64,
    warmup_secs: f64,
    phases: &[Phase],
    trace_every: u64,
) -> Vec<PhaseResult> {
    // Phase codes: WARMUP, then 1..=phases.len(), then STOP.
    let phase = AtomicU8::new(WARMUP);
    let window = AtomicUsize::new(0);
    let counters: Vec<Vec<ClientCounters>> = (0..clients)
        .map(|_| (0..=phases.len()).map(|_| ClientCounters::default()).collect())
        .collect();
    let mut results = Vec::with_capacity(phases.len());
    let reservoirs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let (phase, window, counters) = (&phase, &window, &counters[client]);
                s.spawn(move || {
                    let mut rng = client_rng(seed, client);
                    // Reservoirs per phase and window. Traced phases record
                    // latency too, so that spans are their only extra cost.
                    let mut lat: Vec<Vec<[Reservoir; KINDS]>> = (0..phases.len())
                        .map(|p| {
                            (0..WINDOWS)
                                .map(|w| {
                                    std::array::from_fn(|k| {
                                        let stream = ((client * 8 + p) * WINDOWS + w) * KINDS + k;
                                        Reservoir::new(
                                            RESERVOIR,
                                            derive(seed, 0x10_000 + stream as u64),
                                        )
                                    })
                                })
                                .collect()
                        })
                        .collect();
                    let mut req = 0u64;
                    loop {
                        let current = phase.load(Ordering::Relaxed);
                        if current == STOP {
                            return lat;
                        }
                        let p = current as usize;
                        let traced =
                            p > 0 && phases[p - 1].traced && req.is_multiple_of(trace_every);
                        let id = (client as u64) << 48 | req;
                        let t0 = Instant::now();
                        let outcome = workload.op(&mut rng, id, traced);
                        let ns = t0.elapsed().as_nanos() as u64;
                        req += 1;
                        let c = &counters[p];
                        match outcome {
                            Ok(kind) => {
                                c.ops.fetch_add(1, Ordering::Relaxed);
                                if p > 0 {
                                    let w = window.load(Ordering::Relaxed);
                                    lat[p - 1][w][kind].push(ns);
                                }
                            }
                            Err(_) => {
                                c.errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                })
            })
            .collect();

        let ops_in =
            |p: usize| -> u64 { counters.iter().map(|c| c[p].ops.load(Ordering::Relaxed)).sum() };
        std::thread::sleep(Duration::from_secs_f64(warmup_secs));
        for (i, ph) in phases.iter().enumerate() {
            let p = i + 1;
            let before = stm.stats().snapshot();
            window.store(0, Ordering::Relaxed);
            phase.store(p as u8, Ordering::Relaxed);
            let width = Duration::from_secs_f64(ph.secs / WINDOWS as f64);
            let start = Instant::now();
            let mut rates = Vec::with_capacity(WINDOWS);
            let (mut last_ops, mut last_t) = (ops_in(p), start);
            for w in 1..=WINDOWS {
                let target = start + width * w as u32;
                std::thread::sleep(target.saturating_duration_since(Instant::now()));
                let (now_ops, now) = (ops_in(p), Instant::now());
                rates.push((now_ops - last_ops) as f64 / (now - last_t).as_secs_f64());
                (last_ops, last_t) = (now_ops, now);
                window.store(w.min(WINDOWS - 1), Ordering::Relaxed);
            }
            results.push((rates, crate::layers::stats_since(stm, &before)));
        }
        phase.store(STOP, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect::<Vec<_>>()
    });

    results
        .into_iter()
        .enumerate()
        .map(|(i, (rates, stats))| {
            let p = i + 1;
            let windows = (0..reservoirs[0][i].len())
                .map(|w| {
                    std::array::from_fn(|k| {
                        let parts: Vec<(&[u32], u64)> = reservoirs
                            .iter()
                            .map(|r| (r[i][w][k].samples(), r[i][w][k].seen()))
                            .collect();
                        merge(&parts)
                    })
                })
                .collect();
            PhaseResult {
                rates,
                ops: counters.iter().map(|c| c[p].ops.load(Ordering::Relaxed)).sum(),
                errors: counters.iter().map(|c| c[p].errors.load(Ordering::Relaxed)).sum(),
                windows,
                stats,
            }
        })
        .collect()
}
