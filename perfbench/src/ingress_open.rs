//! `ingress-open`: the serving path, open loop.
//!
//! The `Ingress` front door's Poisson generator (default `IngressConfig`:
//! 2 workers, batch 8, queue 1024) offers hot-key-skewed `TransferService`
//! requests over 1k accounts, 4 parallel child transfers per request, at two
//! fixed rates: a moderate rung (about a third of capacity) and an overload
//! rung (about twice capacity). Latency is completion minus *intended*
//! arrival, so a stall is charged to every request it delays.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ingress::{ArrivalProcess, Ingress, IngressConfig, IngressService, TransferService};
use pnstm::throttle::Permit;
use pnstm::trace::now_ns;
use pnstm::{StatsSnapshot, Stm, StmConfig, StmError};

use crate::layers;
use crate::report::{peak_rss_mb, percentile_us, timed_setups, Report};
use crate::rng::derive;
use crate::spans::{self, Span, NO_PARENT};
use crate::Opts;

pub const ACCOUNTS: usize = 1_000;
const INITIAL_BALANCE: u64 = 1_000_000;
/// Distinct pre-generated requests; request `i` runs number `i mod 4096`.
const UNIQUE_REQUESTS: usize = 4_096;
pub const TRANSFERS_PER_REQUEST: usize = 4;
const MAX_AMOUNT: u64 = 100;
/// The rungs' offered rates, frozen as absolute numbers so that a faster
/// or slower program is measured at the same load.
pub const MODERATE_RPS: f64 = 20_000.0;
pub const OVERLOAD_RPS: f64 = 120_000.0;
const SETUP_REPS: usize = 9;
/// Windows of a rung's measured period, by intended arrival.
const WINDOWS: usize = 40;
/// One request in this many is recorded as spans in a traced rung.
const TRACE_EVERY: u64 = 16;

/// The seed of the transfer request stream.
pub fn transfer_seed(seed: u64) -> u64 {
    derive(seed, 1)
}

/// The arrival-schedule seed of rung `rung` (0 moderate, 1 overload) in
/// pass `pass` (0 untraced, 1 traced).
pub fn schedule_seed(seed: u64, pass: usize, rung: usize) -> u64 {
    derive(seed, 2 + (pass * 2 + rung) as u64)
}

/// The transfer service, with a timestamp taken on entry to and return
/// from every request's `Stm::atomic_admitted` call, by request index.
struct Timed {
    inner: Arc<TransferService>,
    entry_ns: Vec<AtomicU64>,
    done_ns: Vec<AtomicU64>,
    completed: AtomicU64,
    errors: AtomicU64,
}

impl IngressService for Timed {
    fn run(&self, stm: &Stm, permit: Permit, request: u64) -> Result<(), StmError> {
        let entry = now_ns();
        let out = self.inner.run(stm, permit, request);
        let done = now_ns();
        match &out {
            Ok(()) => {
                self.completed.fetch_add(1, Ordering::Relaxed);
                if let Some(slot) = self.entry_ns.get(request as usize) {
                    slot.store(entry, Ordering::Relaxed);
                    self.done_ns[request as usize].store(done, Ordering::Relaxed);
                }
            }
            Err(StmError::Shutdown) => {}
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        out
    }
}

/// What one rung measured, over the requests whose intended arrival fell
/// in the measured window.
struct Rung {
    /// Completion − intended arrival, entry − intended arrival, and
    /// completion − entry, per completed request (ns).
    latency: Vec<u32>,
    /// The latency samples again, by window of intended arrival.
    latency_windows: Vec<Vec<u32>>,
    queue_wait: Vec<u32>,
    service: Vec<u32>,
    /// Generator lag samples: how late the next offer was, when sampled.
    gen_lag: Vec<u32>,
    goodput: f64,
    offered: u64,
    rejected: u64,
    errors: u64,
    hist_p99_ns: u64,
    stats: StatsSnapshot,
}

impl Rung {
    /// The median latency over the quarter of windows with the lowest
    /// median, with the samples it rests on. Time that other tenants of the
    /// machine take delays the workers' wake-ups and queues requests behind
    /// them; the quietest windows show the front door itself.
    fn quiet_p50_us(&self) -> (f64, usize) {
        let mut by_p50: Vec<(f64, &Vec<u32>)> = self
            .latency_windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| (percentile_us(w, 50.0), w))
            .collect();
        by_p50.sort_by(|a, b| a.0.total_cmp(&b.0));
        by_p50.truncate(by_p50.len().div_ceil(4));
        let pooled: Vec<u32> = by_p50.into_iter().flat_map(|(_, w)| w.iter().copied()).collect();
        (percentile_us(&pooled, 50.0), pooled.len())
    }
}

fn clamp_u32(ns: u64) -> u32 {
    ns.min(u32::MAX as u64) as u32
}

fn rung(
    s: &Setup,
    r: &mut Report,
    rate_hz: f64,
    seed: u64,
    warm_s: f64,
    measure_s: f64,
    traced: bool,
) -> Rung {
    let process = ArrivalProcess::Poisson { rate_hz };
    let (warm_ns, end_ns) = ((warm_s * 1e9) as u64, ((warm_s + measure_s) * 1e9) as u64);
    let offsets: Vec<u64> = process.schedule(seed).take_while(|&o| o < end_ns).collect();
    let timed = Arc::new(Timed {
        inner: Arc::clone(&s.service),
        entry_ns: (0..offsets.len()).map(|_| AtomicU64::new(0)).collect(),
        done_ns: (0..offsets.len()).map(|_| AtomicU64::new(0)).collect(),
        completed: AtomicU64::new(0),
        errors: AtomicU64::new(0),
    });
    let stm = &s.stm;
    let before = stm.stats().snapshot();
    let config = IngressConfig { process, seed, ..IngressConfig::default() };
    let mut ing =
        Ingress::start(stm.clone(), timed.clone(), config).expect("ingress threads start");
    let start = Instant::now();
    let mut offered_at = Vec::new();
    while start.elapsed().as_secs_f64() < warm_s + measure_s {
        std::thread::sleep(Duration::from_millis(1));
        offered_at.push((now_ns(), ing.stats().offered.load(Ordering::Relaxed)));
    }
    let queued = ing.queue_len();
    ing.shutdown();
    let snap = ing.snapshot();
    let stats = layers::stats_since(stm, &before);

    let completed = timed.completed.load(Ordering::Relaxed);
    let errors = timed.errors.load(Ordering::Relaxed);
    let accounted = snap.completed + snap.rejected + snap.failed;
    r.check(
        format!(
            "{rate_hz} rps: offered {} = completed {} + rejected {} + failed {} (incl. {queued} \
             queued at shutdown) + at most the one offer that met the closed queue",
            snap.offered, snap.completed, snap.rejected, snap.failed
        ),
        snap.offered == accounted || snap.offered == accounted + 1,
    );
    r.check(
        format!("{rate_hz} rps: service saw every completion ({completed} == {})", snap.completed),
        completed == snap.completed,
    );

    // The generator's epoch, pinned from outside: no request enters service
    // before its intended arrival, so the earliest entry minus its schedule
    // offset bounds the epoch from above, and meets it when any request was
    // served on arrival.
    let epoch = (0..offsets.len())
        .filter(|&i| timed.done_ns[i].load(Ordering::Relaxed) > 0)
        .map(|i| timed.entry_ns[i].load(Ordering::Relaxed) - offsets[i])
        .min()
        .unwrap_or(0);
    let (mut latency, mut queue_wait, mut service_ns) = (Vec::new(), Vec::new(), Vec::new());
    let width = ((end_ns - warm_ns) / WINDOWS as u64).max(1);
    let mut latency_windows = vec![Vec::new(); WINDOWS];
    let mut done_in_window = 0u64;
    for (i, &offset) in offsets.iter().enumerate() {
        let done = timed.done_ns[i].load(Ordering::Relaxed);
        if done == 0 {
            continue;
        }
        let (intended, entry) = (epoch + offset, timed.entry_ns[i].load(Ordering::Relaxed));
        if (epoch + warm_ns..epoch + end_ns).contains(&done) {
            done_in_window += 1;
        }
        // Only the moderate rung's latency is reported: samples of the
        // overload rung would tie the benchmark's memory to the goodput.
        if offset < warm_ns || rate_hz != MODERATE_RPS {
            continue;
        }
        latency.push(clamp_u32(done - intended));
        latency_windows[(((offset - warm_ns) / width) as usize).min(WINDOWS - 1)]
            .push(clamp_u32(done - intended));
        queue_wait.push(clamp_u32(entry - intended));
        service_ns.push(clamp_u32(done - entry));
        if traced && (i as u64).is_multiple_of(TRACE_EVERY) {
            let req = i as u64;
            let root = spans::next_id();
            let span = |name, id, parent, start_ns, end_ns| Span {
                name,
                id,
                parent,
                req,
                start_ns,
                end_ns,
            };
            spans::record(span("ingress.request", root, NO_PARENT, intended, done));
            spans::record(span("ingress.queue_wait", spans::next_id(), root, intended, entry));
            spans::record(span(
                "pnstm.runtime.atomic_admitted",
                spans::next_id(),
                root,
                entry,
                done,
            ));
        }
    }
    let gen_lag = offered_at
        .iter()
        .filter(|&&(t, n)| (n as usize) < offsets.len() && t >= epoch + warm_ns)
        .map(|&(t, n)| clamp_u32(t.saturating_sub(epoch + offsets[n as usize])))
        .collect();
    Rung {
        latency,
        latency_windows,
        queue_wait,
        service: service_ns,
        gen_lag,
        goodput: done_in_window as f64 / measure_s,
        offered: snap.offered,
        rejected: snap.rejected,
        errors,
        hist_p99_ns: snap.intended.quantile(99.0),
        stats,
    }
}

struct Setup {
    stm: Stm,
    service: Arc<TransferService>,
}

pub fn run(o: &Opts) -> Report {
    let mut r = Report::default();
    let transfer_seed = transfer_seed(o.seed);
    let (s, setup_s) = timed_setups(SETUP_REPS, || {
        let stm = Stm::new(StmConfig::default());
        let service = Arc::new(TransferService::new(
            &stm,
            ACCOUNTS,
            INITIAL_BALANCE,
            transfer_seed,
            UNIQUE_REQUESTS,
            TRANSFERS_PER_REQUEST,
            MAX_AMOUNT,
        ));
        Setup { stm, service }
    });
    let expected = ACCOUNTS as u128 * INITIAL_BALANCE as u128;

    // Untraced: the moderate rung gets a third of the run, the overload
    // rung, whose goodput swings more between runs, two thirds. Traced: an
    // untraced and a traced pass over both rungs, at half those lengths.
    let passes: &[bool] = if o.trace { &[false, true] } else { &[false] };
    let share = o.seconds / (3 * passes.len()) as f64;
    let mut results = Vec::new();
    for (p, &traced) in passes.iter().enumerate() {
        for (k, (rate, secs)) in
            [(MODERATE_RPS, share), (OVERLOAD_RPS, 2.0 * share)].into_iter().enumerate()
        {
            let seed = schedule_seed(o.seed, p, k);
            results.push(rung(&s, &mut r, rate, seed, o.warmup_secs(), secs, traced));
        }
    }

    let rss_mb = peak_rss_mb();
    let total = s.service.workload().total_balance(&s.stm);
    r.check(format!("total balance conserved ({total} == {expected})"), total == expected);
    layers::check_read_floor(&mut r, &s.stm);
    let offered: u64 = results.iter().map(|x| x.offered).sum();
    let rejected: u64 = results.iter().map(|x| x.rejected).sum();
    let errors: u64 = results.iter().map(|x| x.errors).sum();
    r.attempted = offered;
    r.failed = errors;
    let (moderate, overload) = (&results[0], &results[1]);
    r.note(format!(
        "moderate {MODERATE_RPS} rps: {} measured; overload {OVERLOAD_RPS} rps: goodput {}, \
         {} rejected of {} offered",
        moderate.latency.len(),
        overload.goodput,
        overload.rejected,
        overload.offered
    ));
    if !o.trace {
        r.set("setup_s", setup_s);
        r.set("throughput_tps", overload.goodput);
        let (p50, n) = moderate.quiet_p50_us();
        r.set_sampled("p50_us", p50, n);
        r.set("peak_rss_mb", rss_mb);
        return r;
    }
    let n = moderate.latency.len();
    r.set_sampled(
        "ingress.arrival.gen_lag_p50_us",
        percentile_us(&moderate.gen_lag, 50.0),
        moderate.gen_lag.len(),
    );
    r.set_sampled(
        "ingress.arrival.gen_lag_p99_us",
        percentile_us(&moderate.gen_lag, 99.0),
        moderate.gen_lag.len(),
    );
    r.set_sampled("ingress.server.queue_wait_p50_us", percentile_us(&moderate.queue_wait, 50.0), n);
    r.set_sampled("ingress.server.service_p50_us", percentile_us(&moderate.service, 50.0), n);
    r.set_sampled("ingress.server.p99_us", percentile_us(&moderate.latency, 99.0), n);
    r.set("ingress.server.hist_p99_ns", moderate.hist_p99_ns as f64);
    r.set("ingress.server.reject_ratio", overload.rejected as f64 / overload.offered.max(1) as f64);
    r.set("ingress.server.goodput_rps", overload.goodput);
    let traced_overload = &results[3];
    layers::stm_counters(&mut r, &traced_overload.stats);
    layers::collect_spans(&mut r, "ingress-open");
    r.set("failed_ratio", (errors + rejected) as f64 / offered.max(1) as f64);
    // The request spans are built after each rung from timestamps the
    // untraced rungs take too, so this shows the run-to-run noise only.
    let traced_moderate = &results[2];
    layers::trace_overhead(
        &mut r,
        moderate.quiet_p50_us().0,
        traced_moderate.quiet_p50_us().0,
        false,
    );
    r
}
