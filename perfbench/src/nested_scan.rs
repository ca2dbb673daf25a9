//! `nested-scan`: the paper's Array benchmark shape at degree `(1, 2)`.
//!
//! One closed-loop client over 4096 `i64` boxes (they fit in L2). Each
//! top-level transaction runs `Txn::parallel` over 2 children; each child
//! scans its 2048-box chunk and rewrites about 10% of the chunk's positions
//! as pairs of `-d`/`+d` writes, so the box sum is conserved. The fixed
//! per-transaction cost is amortised over ~4k reads; the time goes to child
//! spawn and join, ancestor-aware reads, sibling commit and a large
//! top-level write set.

use std::sync::Arc;

use pnstm::{child, ParallelismDegree, Stm, StmConfig, StmError, Txn, VBox};

use crate::closed::{self, ClosedOp};
use crate::layers::{self, ATOMIC, BODY, CHILD_BODY, PARALLEL, READ, WRITE};
use crate::report::{peak_rss_mb, percentile_us, timed_setups, Report};
use crate::rng::{derive, SplitMix};
use crate::spans::{self, NO_PARENT};
use crate::Opts;

pub const BOXES: usize = 4096;
pub const CHILDREN: usize = 2;
const CHUNK: usize = BOXES / CHILDREN;
/// Write pairs per child: 2 × 102 positions ≈ 10% of a chunk.
pub const PAIRS: usize = 102;
const INITIAL: i64 = 1_000;
const SETUP_REPS: usize = 9;
/// One transaction in this many records spans in a traced phase (a traced
/// transaction records ~4.5k read/write spans).
const TRACE_EVERY: u64 = 64;

/// The write pairs `(i, j, d)` of one child: chunk offsets and an amount
/// moved from `i` to `j`. Drawn from the child's own seed, so every retry
/// of the child repeats the same input.
pub fn pairs(child_seed: u64) -> Vec<(usize, usize, i64)> {
    let mut rng = SplitMix::new(child_seed);
    (0..PAIRS)
        .map(|_| {
            let i = rng.below(CHUNK as u64) as usize;
            let j = (i + 1 + rng.below(CHUNK as u64 - 1) as usize) % CHUNK;
            (i, j, 1 + rng.below(100) as i64)
        })
        .collect()
}

struct NestedScan {
    stm: Stm,
    boxes: Arc<Vec<VBox<i64>>>,
}

impl NestedScan {
    fn new() -> Self {
        let stm = Stm::new(StmConfig {
            degree: ParallelismDegree::new(1, CHILDREN),
            ..StmConfig::default()
        });
        let boxes = Arc::new((0..BOXES).map(|_| stm.new_vbox(INITIAL)).collect());
        Self { stm, boxes }
    }

    fn total(&self) -> i64 {
        self.stm.read_only(|tx| self.boxes.iter().map(|b| tx.read(b)).sum())
    }
}

/// One child's body: scan the chunk, then apply its write pairs. `trace`
/// holds the parent span and request id when the transaction is traced.
fn scan_chunk(
    tx: &mut Txn,
    chunk: &[VBox<i64>],
    pairs: &[(usize, usize, i64)],
    trace: Option<(u64, u64)>,
) -> i64 {
    let Some((parent, req)) = trace else {
        let sum = chunk.iter().map(|b| tx.read(b)).sum();
        for &(i, j, d) in pairs {
            let vi = tx.read(&chunk[i]);
            tx.write(&chunk[i], vi - d);
            let vj = tx.read(&chunk[j]);
            tx.write(&chunk[j], vj + d);
        }
        return sum;
    };
    let read = |tx: &mut Txn, b: &VBox<i64>| {
        let s = spans::begin(READ, parent, req);
        let v = tx.read(b);
        s.end();
        v
    };
    let write = |tx: &mut Txn, b: &VBox<i64>, v: i64| {
        let s = spans::begin(WRITE, parent, req);
        tx.write(b, v);
        s.end();
    };
    let sum = chunk.iter().map(|b| read(tx, b)).sum();
    for &(i, j, d) in pairs {
        let vi = read(tx, &chunk[i]);
        write(tx, &chunk[i], vi - d);
        let vj = read(tx, &chunk[j]);
        write(tx, &chunk[j], vj + d);
    }
    sum
}

impl ClosedOp for NestedScan {
    fn op(&self, rng: &mut SplitMix, req: u64, traced: bool) -> Result<usize, StmError> {
        let txn_seed = rng.next_u64();
        let call = traced.then(|| spans::begin(ATOMIC, NO_PARENT, req));
        let call_id = call.as_ref().map(spans::Open::id);
        self.stm.atomic(|tx| {
            let body = call_id.map(|id| spans::begin(BODY, id, req));
            let par = body.as_ref().map(|b| spans::begin(PARALLEL, b.id(), req));
            let par_id = par.as_ref().map(spans::Open::id);
            let tasks = (0..CHILDREN)
                .map(|c| {
                    let boxes = Arc::clone(&self.boxes);
                    let pairs = pairs(derive(txn_seed, c as u64));
                    child(move |ct| {
                        let chunk = &boxes[c * CHUNK..(c + 1) * CHUNK];
                        let span = par_id.map(|id| spans::begin(CHILD_BODY, id, req));
                        let sum =
                            scan_chunk(ct, chunk, &pairs, span.as_ref().map(|s| (s.id(), req)));
                        if let Some(s) = span {
                            s.end();
                        }
                        Ok(sum)
                    })
                })
                .collect();
            let out = tx.parallel::<i64>(tasks);
            par.into_iter().chain(body).for_each(spans::Open::end);
            std::hint::black_box(out?);
            Ok(())
        })?;
        if let Some(call) = call {
            call.end();
        }
        Ok(0)
    }
}

pub fn run(o: &Opts) -> Report {
    let mut r = Report::default();
    let (wl, setup_s) = timed_setups(SETUP_REPS, NestedScan::new);
    let expected = BOXES as i64 * INITIAL;
    let res = closed::run(&wl.stm, &wl, 1, o.seed, o.warmup_secs(), &o.phases(), TRACE_EVERY);
    let rss_mb = peak_rss_mb();

    let total = wl.total();
    r.check(format!("box sum conserved ({total} == {expected})"), total == expected);
    layers::check_read_floor(&mut r, &wl.stm);
    let errors: u64 = res.iter().map(|p| p.errors).sum();
    r.attempted = res.iter().map(|p| p.ops + p.errors).sum();
    r.failed = errors;

    let plain = &res[0];
    let (lat, n) = plain.samples(&[0]);
    r.note(format!("transactions: {n}, {errors} errors"));
    if !o.trace {
        let (p50, n) = plain.quiet_p50_us(&[0]);
        r.set("setup_s", setup_s);
        r.set("throughput_tps", plain.throughput());
        r.set_sampled("p50_us", p50, n);
        r.set("peak_rss_mb", rss_mb);
        return r;
    }
    let traced = &res[1];
    r.set_sampled("pnstm.txn.nested_p99_us", percentile_us(&lat, 99.0), lat.len());
    layers::stm_counters(&mut r, &traced.stats);
    let digest = layers::collect_spans(&mut r, "nested-scan");
    layers::stm_spans(&mut r, &digest);
    r.set("failed_ratio", errors as f64 / r.attempted.max(1) as f64);
    layers::trace_overhead(&mut r, plain.throughput(), traced.throughput(), true);
    r
}
