//! `txn-mix`: flat, short transactions on the default `Stm`.
//!
//! Two closed-loop clients over 64Ki `i64` boxes with uniform keys (a
//! working set of several MB, larger than L2). 90% of operations are
//! `read_only` reads of 4 boxes, 10% are `atomic` 2-read/2-write transfers
//! that conserve the box sum. The fixed per-transaction cost (snapshot
//! registry, admission, clock, stripe commit, stats, GC nudges) dominates;
//! nesting is unused.

use pnstm::{Stm, StmConfig, StmError, VBox};

use crate::closed::{self, ClosedOp};
use crate::layers::{self, ATOMIC, BODY, READ_ONLY};
use crate::report::{peak_rss_mb, percentile_us, timed_setups, Report};
use crate::rng::SplitMix;
use crate::spans::{self, NO_PARENT};
use crate::Opts;

pub const BOXES: usize = 1 << 16;
const INITIAL: i64 = 1_000;
const CLIENTS: usize = 2;
const READS: usize = 4;
const SETUP_REPS: usize = 9;
/// One request in this many records spans in a traced phase.
const TRACE_EVERY: u64 = 64;

const RO: usize = 0;
const RW: usize = 1;

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Read([usize; READS]),
    Transfer { from: usize, to: usize, amount: i64 },
}

/// Draw the next operation of a client's input stream.
pub fn draw(rng: &mut SplitMix) -> Op {
    let key = |rng: &mut SplitMix| rng.below(BOXES as u64) as usize;
    if rng.below(10) == 0 {
        let from = key(rng);
        let to = (from + 1 + rng.below(BOXES as u64 - 1) as usize) % BOXES;
        Op::Transfer { from, to, amount: 1 + rng.below(100) as i64 }
    } else {
        Op::Read(std::array::from_fn(|_| key(rng)))
    }
}

struct TxnMix {
    stm: Stm,
    boxes: Vec<VBox<i64>>,
}

impl TxnMix {
    fn new() -> Self {
        let stm = Stm::new(StmConfig::default());
        let boxes = (0..BOXES).map(|_| stm.new_vbox(INITIAL)).collect();
        Self { stm, boxes }
    }

    fn total(&self) -> i64 {
        self.stm.read_only(|tx| self.boxes.iter().map(|b| tx.read(b)).sum())
    }
}

impl ClosedOp for TxnMix {
    fn op(&self, rng: &mut SplitMix, req: u64, traced: bool) -> Result<usize, StmError> {
        match draw(rng) {
            Op::Read(keys) => {
                let read =
                    |tx: &mut pnstm::ReadTxn| keys.iter().map(|&k| tx.read(&self.boxes[k])).sum();
                let sum: i64 = if traced {
                    let call = spans::begin(READ_ONLY, NO_PARENT, req);
                    let id = call.id();
                    let sum = self.stm.read_only(|tx| {
                        let body = spans::begin(BODY, id, req);
                        let sum = read(tx);
                        body.end();
                        sum
                    });
                    call.end();
                    sum
                } else {
                    self.stm.read_only(read)
                };
                std::hint::black_box(sum);
                Ok(RO)
            }
            Op::Transfer { from, to, amount } => {
                let (a, b) = (&self.boxes[from], &self.boxes[to]);
                let transfer = |tx: &mut pnstm::Txn| {
                    let (va, vb) = (tx.read(a), tx.read(b));
                    tx.write(a, va - amount);
                    tx.write(b, vb + amount);
                    Ok(())
                };
                if traced {
                    let call = spans::begin(ATOMIC, NO_PARENT, req);
                    let id = call.id();
                    self.stm.atomic(|tx| {
                        let body = spans::begin(BODY, id, req);
                        let out = transfer(tx);
                        body.end();
                        out
                    })?;
                    call.end();
                } else {
                    self.stm.atomic(transfer)?;
                }
                Ok(RW)
            }
        }
    }
}

pub fn run(o: &Opts) -> Report {
    let mut r = Report::default();
    let (wl, setup_s) = timed_setups(SETUP_REPS, TxnMix::new);
    let expected = BOXES as i64 * INITIAL;
    let res = closed::run(&wl.stm, &wl, CLIENTS, o.seed, o.warmup_secs(), &o.phases(), TRACE_EVERY);
    // Before the samples are merged: peak memory is the program's, plus
    // the benchmark's fixed-size reservoirs.
    let rss_mb = peak_rss_mb();

    let total = wl.total();
    r.check(format!("box sum conserved ({total} == {expected})"), total == expected);
    layers::check_read_floor(&mut r, &wl.stm);
    let errors: u64 = res.iter().map(|p| p.errors).sum();
    r.attempted = res.iter().map(|p| p.ops + p.errors).sum();
    r.failed = errors;

    let plain = &res[0];
    let (ro, ro_n) = plain.samples(&[RO]);
    let (rw, rw_n) = plain.samples(&[RW]);
    r.note(format!("operations: {ro_n} read-only, {rw_n} update, {errors} errors"));
    if !o.trace {
        let (p50, n) = plain.quiet_p50_us(&[RO, RW]);
        r.set("setup_s", setup_s);
        r.set("throughput_tps", plain.throughput());
        r.set_sampled("p50_us", p50, n);
        r.set("peak_rss_mb", rss_mb);
        return r;
    }
    let traced = &res[1];
    r.set_sampled("pnstm.runtime.ro_p50_us", percentile_us(&ro, 50.0), ro.len());
    r.set_sampled("pnstm.runtime.ro_p99_us", percentile_us(&ro, 99.0), ro.len());
    r.set_sampled("pnstm.runtime.rw_p50_us", percentile_us(&rw, 50.0), rw.len());
    r.set_sampled("pnstm.txn.rw_p99_us", percentile_us(&rw, 99.0), rw.len());
    layers::stm_counters(&mut r, &traced.stats);
    let digest = layers::collect_spans(&mut r, "txn-mix");
    layers::stm_spans(&mut r, &digest);
    r.set("failed_ratio", errors as f64 / r.attempted.max(1) as f64);
    layers::trace_overhead(&mut r, plain.throughput(), traced.throughput(), true);
    r
}
