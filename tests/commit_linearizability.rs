//! Serializability oracle for the striped commit path.
//!
//! N threads run transfer-style transactions over a shared pool of account
//! vboxes while checker threads watch the system from outside:
//!
//! * **Conserved sum** — money only moves, it is never created or destroyed.
//!   Every read-only snapshot taken *during* the run must already see the
//!   invariant (snapshots are consistent cuts), and the final state must too.
//! * **Monotone clock** — the global version clock never goes backwards and
//!   only ever advances contiguously (a sampler thread hammers `clock_now`).
//! * **No lost updates** — a shared op counter is incremented inside every
//!   transfer; its final value must equal the number of committed transfers.
//!
//! Both flat transfers and parallel-nested transfers (debit and credit in two
//! concurrent child transactions) are driven through the same oracle.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use pnstm::{child, CommitPath, ParallelismDegree, Stm, StmConfig, VBox};

const ACCOUNTS: usize = 32;
const INITIAL_BALANCE: i64 = 1_000;
const THREADS: usize = 8;
const TRANSFERS_PER_THREAD: usize = 200;

fn striped_stm() -> Stm {
    Stm::new(StmConfig {
        degree: ParallelismDegree::new(THREADS, 2),
        worker_threads: 2,
        commit_path: CommitPath::Striped,
        ..StmConfig::default()
    })
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Oracle {
    stm: Stm,
    accounts: Vec<VBox<i64>>,
    ops: VBox<u64>,
}

impl Oracle {
    fn new(stm: Stm) -> Self {
        let accounts = (0..ACCOUNTS).map(|_| stm.new_vbox(INITIAL_BALANCE)).collect();
        let ops = stm.new_vbox(0u64);
        Self { stm, accounts, ops }
    }

    /// One consistent read-only snapshot of the total balance.
    fn snapshot_sum(&self) -> i64 {
        self.stm.read_only(|tx| self.accounts.iter().map(|a| tx.read(a)).sum())
    }

    /// Drive `THREADS` transfer threads plus a conservation checker and a
    /// clock-monotonicity sampler; return the number of committed transfers.
    fn run(self: &Arc<Self>, nested: bool) -> u64 {
        let expected_sum = ACCOUNTS as i64 * INITIAL_BALANCE;
        let stop = Arc::new(AtomicBool::new(false));
        let committed = Arc::new(AtomicU64::new(0));
        // Start latch: the transfer threads begin only once the checker has
        // taken its first snapshot, so a fast run cannot finish before the
        // checker looked at all.
        let start = Arc::new(Barrier::new(THREADS + 1));

        let checker = {
            let oracle = Arc::clone(self);
            let stop = Arc::clone(&stop);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let check = || {
                    assert_eq!(
                        oracle.snapshot_sum(),
                        expected_sum,
                        "a concurrent snapshot saw money created or destroyed"
                    );
                };
                check();
                let mut snapshots = 1u64;
                start.wait();
                while !stop.load(Ordering::Relaxed) {
                    check();
                    snapshots += 1;
                }
                assert!(snapshots > 0);
            })
        };
        let sampler = {
            let stm = self.stm.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last = stm.clock_now();
                while !stop.load(Ordering::Relaxed) {
                    let now = stm.clock_now();
                    assert!(now >= last, "clock went backwards: {last} -> {now}");
                    last = now;
                }
            })
        };

        let workers: Vec<_> = (0..THREADS)
            .map(|i| {
                let oracle = Arc::clone(self);
                let committed = Arc::clone(&committed);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let mut rng = 0x5EED_0000 + i as u64;
                    for _ in 0..TRANSFERS_PER_THREAD {
                        let src = (splitmix(&mut rng) as usize) % ACCOUNTS;
                        let mut dst = (splitmix(&mut rng) as usize) % ACCOUNTS;
                        if dst == src {
                            dst = (dst + 1) % ACCOUNTS;
                        }
                        let amount = (splitmix(&mut rng) % 50) as i64 + 1;
                        oracle.transfer(src, dst, amount, nested);
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        checker.join().unwrap();
        sampler.join().unwrap();
        committed.load(Ordering::Relaxed)
    }

    fn transfer(&self, src: usize, dst: usize, amount: i64, nested: bool) {
        let src_box = self.accounts[src].clone();
        let dst_box = self.accounts[dst].clone();
        let ops = self.ops.clone();
        self.stm
            .atomic(move |tx| {
                if nested {
                    // Debit and credit run as two parallel children; their
                    // writes fold into this root at the join and reach main
                    // memory in the root's single striped commit.
                    let s = src_box.clone();
                    let d = dst_box.clone();
                    tx.parallel::<()>(vec![
                        child(move |ctx| {
                            let v = ctx.read(&s);
                            ctx.write(&s, v - amount);
                            Ok(())
                        }),
                        child(move |ctx| {
                            let v = ctx.read(&d);
                            ctx.write(&d, v + amount);
                            Ok(())
                        }),
                    ])?;
                } else {
                    tx.modify(&src_box, |v| v - amount);
                    tx.modify(&dst_box, |v| v + amount);
                }
                tx.modify(&ops, |v| v + 1);
                Ok(())
            })
            .expect("transfer must eventually commit");
    }

    fn check_final(&self, committed: u64) {
        assert_eq!(
            self.snapshot_sum(),
            ACCOUNTS as i64 * INITIAL_BALANCE,
            "final sum violates conservation"
        );
        assert_eq!(
            self.stm.read_atomic(&self.ops),
            committed,
            "ops counter disagrees with commits: an update was lost"
        );
        // Every committed transfer installed writes, so it consumed at least
        // one clock version; aborted attempts that reached revalidation may
        // have consumed extra (no-op) versions, never fewer.
        assert!(
            self.stm.clock_now() >= committed,
            "clock {} below commit count {committed}",
            self.stm.clock_now()
        );
    }
}

#[test]
fn flat_transfers_are_serializable_under_striped_commit() {
    let oracle = Arc::new(Oracle::new(striped_stm()));
    let committed = oracle.run(false);
    assert_eq!(committed, (THREADS * TRANSFERS_PER_THREAD) as u64);
    oracle.check_final(committed);
}

#[test]
fn nested_transfers_are_serializable_under_striped_commit() {
    let oracle = Arc::new(Oracle::new(striped_stm()));
    let committed = oracle.run(true);
    assert_eq!(committed, (THREADS * TRANSFERS_PER_THREAD) as u64);
    oracle.check_final(committed);
    // The nested run actually exercised child commits.
    assert!(oracle.stm.stats().snapshot().nested_commits > 0);
}

#[test]
fn global_lock_oracle_agrees_on_invariants() {
    // The retained global-lock path must uphold the same invariants — it is
    // the differential baseline the striped path is judged against.
    let stm = Stm::new(StmConfig {
        degree: ParallelismDegree::new(THREADS, 1),
        worker_threads: 2,
        commit_path: CommitPath::GlobalLock,
        ..StmConfig::default()
    });
    let oracle = Arc::new(Oracle::new(stm));
    let committed = oracle.run(false);
    assert_eq!(committed, (THREADS * TRANSFERS_PER_THREAD) as u64);
    oracle.check_final(committed);
    // Under the global lock every commit ticks exactly once.
    assert_eq!(oracle.stm.clock_now(), committed);
}
