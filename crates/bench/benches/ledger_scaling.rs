//! Ledger-mode scaling: Block-STM-style parallel block execution vs. the
//! sequential replay oracle across a conflict ladder.
//!
//! Each rung draws one `skewed_block` over a different account count —
//! 3 / 10 / 100 / 1000 accounts with a head-heavy (Zipf-like) skew — so the
//! ladder sweeps from "everything conflicts" to "almost nothing does". Every
//! transaction carries `--work-us` of injected compute (a sleep, spent once
//! per incarnation), modelling the non-transactional work a real transaction
//! would do; as in `sched_scaling` / `contention_scaling`, sleeps make the
//! parallel speedup observable even on a loaded 2-core box. The expected
//! shape: near-or-below 1x on the 3-account rung (conflicts serialise the
//! block and re-executions burn extra work) climbing towards the worker
//! count as accounts grow.
//!
//! Runs are interleaved pairwise (sequential, then parallel) and the
//! per-rung speedup is the median pairwise ratio via `bench::paired_median`.
//! A separate raw comparison runs both rungs at one worker with zero
//! injected work: the multi-version scratch and block scheduler must not
//! tax the degenerate case the oracle handles with plain `Stm::atomic`.
//!
//! Usage (cargo bench -p bench --bench ledger_scaling -- [flags]):
//!   --threads N     parallel-rung workers (default 8)
//!   --txns N        transactions per block (default 256)
//!   --work-us N     injected per-execution work, µs (default 300)
//!   --pairs N       interleaved seq/par pairs per rung (default 5)
//!   --raw-txns N    txns for the raw one-worker no-work block (default 4000)
//!   --check         assert the acceptance bar: >=2x parallel vs sequential
//!                   at t=8 on the 100-account rung, >=0.95 raw ratio
//!   --smoke         small run that still exercises every rung and gate

use std::time::{Duration, Instant};

use ledger::{skewed_block, Amount, BlockExecutor, ExecMode, LedgerConfig, TransferTxn};
use pnstm::{ParallelismDegree, Stm, StmConfig};

/// The `conflicting_level` account ladder. The gate rung is 100 accounts:
/// conflicted enough that the scheduler actually re-executes, disjoint
/// enough that scaling must show through.
const LADDER: [usize; 4] = [3, 10, 100, 1000];
const GATE_ACCOUNTS: usize = 100;

struct Config {
    threads: usize,
    txns: usize,
    work_us: u64,
    pairs: usize,
    raw_txns: usize,
    check: bool,
    smoke: bool,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        threads: 8,
        txns: 256,
        work_us: 300,
        pairs: 5,
        raw_txns: 4_000,
        check: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match arg.as_str() {
            "--threads" => cfg.threads = value("--threads").parse().expect("--threads"),
            "--txns" => cfg.txns = value("--txns").parse().expect("--txns"),
            "--work-us" => cfg.work_us = value("--work-us").parse().expect("--work-us"),
            "--pairs" => cfg.pairs = value("--pairs").parse().expect("--pairs"),
            "--raw-txns" => cfg.raw_txns = value("--raw-txns").parse().expect("--raw-txns"),
            "--check" => cfg.check = true,
            "--smoke" => cfg.smoke = true,
            "--bench" | "--quick" => {} // cargo-bench passthrough flags
            other => panic!("unknown flag {other:?}"),
        }
    }
    if cfg.smoke {
        // Work is a sleep, so the speedup survives a 2-core box; keeping
        // t=8 makes `--smoke --check` a real assertion.
        cfg.threads = 8;
        cfg.txns = 128;
        cfg.work_us = 300;
        cfg.pairs = 3;
        cfg.raw_txns = 2_000;
    }
    cfg
}

fn make_stm() -> Stm {
    Stm::new(StmConfig {
        degree: ParallelismDegree::new(8, 8),
        worker_threads: 2,
        ..StmConfig::default()
    })
}

fn ledger_cfg(mode: ExecMode, workers: usize, work_us: u64) -> LedgerConfig {
    LedgerConfig {
        exec_mode: mode,
        workers,
        work: Duration::from_micros(work_us),
        ..LedgerConfig::default()
    }
}

/// Execute `block` once on a fresh executor, returning (txns/sec,
/// re-executions). A fresh executor per run keeps every rep's starting
/// balances — and therefore its conflict structure — identical.
fn run_once(stm: &Stm, initial: &[Amount], cfg: LedgerConfig, block: &[TransferTxn]) -> (f64, u64) {
    let ex = BlockExecutor::new(stm, initial, cfg);
    let start = Instant::now();
    let out = ex.execute_block(block).expect("admission stays open for the whole bench");
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    (block.len() as f64 / secs, out.reexecutions)
}

fn main() {
    let cfg = parse_args();
    let stm = make_stm();
    println!(
        "{{\"bench\":\"ledger_scaling\",\"threads\":{},\"txns\":{},\"work_us\":{},\
         \"pairs\":{},\"smoke\":{}}}",
        cfg.threads, cfg.txns, cfg.work_us, cfg.pairs, cfg.smoke
    );

    // One rung per account count; interleaved seq/par pairs, median ratio.
    let mut gate = None; // (seq_ops, par_ops, speedup) at GATE_ACCOUNTS
    for accounts in LADDER {
        let initial = vec![1_000_u64; accounts];
        let block = skewed_block(0xB10C + accounts as u64, cfg.txns, accounts, 100);
        let mut seq_best = f64::MIN;
        let mut par_best = f64::MIN;
        let mut reexec_worst = 0;
        let mut ratios = Vec::new();
        for _ in 0..cfg.pairs {
            let (s, _) =
                run_once(&stm, &initial, ledger_cfg(ExecMode::Sequential, 1, cfg.work_us), &block);
            let (p, re) = run_once(
                &stm,
                &initial,
                ledger_cfg(ExecMode::Parallel, cfg.threads, cfg.work_us),
                &block,
            );
            seq_best = seq_best.max(s);
            par_best = par_best.max(p);
            reexec_worst = reexec_worst.max(re);
            ratios.push(p / s);
        }
        let speedup = bench::paired_median(&ratios);
        println!(
            "{{\"mode\":\"ladder\",\"accounts\":{accounts},\"seq_tps\":{seq_best:.0},\
             \"par_tps\":{par_best:.0},\"speedup\":{speedup:.2},\
             \"reexecutions\":{reexec_worst}}}"
        );
        if accounts == GATE_ACCOUNTS {
            gate = Some((seq_best, par_best, speedup));
        }
    }
    let (gate_seq, gate_par, gate_speedup) = gate.expect("ladder contains the gate rung");

    // Raw one-worker, zero-work block: the scratch + scheduler machinery vs
    // one `Stm::atomic` per transaction. Interleaved pairs, median ratio.
    let raw_accounts = GATE_ACCOUNTS;
    let raw_initial = vec![1_000_u64; raw_accounts];
    let raw_block = skewed_block(0x5EED, cfg.raw_txns, raw_accounts, 100);
    let mut raw_seq = f64::MIN;
    let mut raw_par = f64::MIN;
    let mut raw_ratios = Vec::new();
    for _ in 0..cfg.pairs.max(3) {
        let (s, _) =
            run_once(&stm, &raw_initial, ledger_cfg(ExecMode::Sequential, 1, 0), &raw_block);
        let (p, _) = run_once(&stm, &raw_initial, ledger_cfg(ExecMode::Parallel, 1, 0), &raw_block);
        raw_seq = raw_seq.max(s);
        raw_par = raw_par.max(p);
        raw_ratios.push(p / s);
    }
    let raw_ratio = bench::paired_median(&raw_ratios);
    println!(
        "{{\"mode\":\"raw\",\"workers\":1,\"seq_tps\":{raw_seq:.0},\"par_tps\":{raw_par:.0},\
         \"ratio\":{raw_ratio:.3}}}"
    );

    if cfg.check {
        assert!(cfg.threads >= 8, "--check needs t >= 8 (got t = {})", cfg.threads);
        assert!(
            gate_speedup >= 2.0,
            "parallel block execution at t={} is only {gate_speedup:.2}x sequential replay on \
             the {GATE_ACCOUNTS}-account rung (seq {gate_seq:.0} tps, par {gate_par:.0} tps); \
             the ledger gate needs >=2x",
            cfg.threads
        );
        assert!(
            raw_ratio >= 0.95,
            "one-worker zero-work block execution is {raw_ratio:.3}x sequential replay; the \
             scratch/scheduler overhead gate needs >=0.95"
        );
        println!("CHECK PASSED: {GATE_ACCOUNTS}-account speedup {gate_speedup:.2}x >= 2.0, raw ratio {raw_ratio:.3} >= 0.95");
    }

    let config = format!(
        "ladder={LADDER:?} t={} txns={} work_us={} pairs={} smoke={}",
        cfg.threads, cfg.txns, cfg.work_us, cfg.pairs, cfg.smoke
    );
    match bench::write_bench_report("ledger_scaling", &config, gate_par, gate_speedup) {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => eprintln!("report write failed: {e}"),
    }
}
