//! The workload seed feeds every generator: the same seed gives identical
//! inputs (and identical tuning outcomes), another seed different ones.

use std::time::Duration;

use autopn::SearchSpace;
use ingress::ArrivalProcess;
use perfbench::rng::{derive, SplitMix};
use perfbench::{closed, ingress_open, nested_scan, tune_replay, txn_mix};
use pnstm::{Stm, StmConfig};
use simtm::{MachineParams, SimWorkload, SurfaceBuilder};
use workloads::TransferWorkload;

#[test]
fn txn_mix_key_streams_follow_the_seed() {
    let ops = |seed, client| {
        let mut rng = closed::client_rng(seed, client);
        (0..1_000).map(|_| txn_mix::draw(&mut rng)).collect::<Vec<_>>()
    };
    assert_eq!(ops(7, 0), ops(7, 0));
    assert_ne!(ops(7, 0), ops(8, 0));
    assert_ne!(ops(7, 0), ops(7, 1), "clients draw distinct streams");
    let updates = ops(7, 0).iter().filter(|op| matches!(op, txn_mix::Op::Transfer { .. })).count();
    assert!((60..140).contains(&updates), "about 10% updates, got {updates}");
    for op in ops(9, 1) {
        if let txn_mix::Op::Transfer { from, to, .. } = op {
            assert_ne!(from, to);
            assert!(from < txn_mix::BOXES && to < txn_mix::BOXES);
        }
    }
}

#[test]
fn nested_scan_child_writes_follow_the_seed() {
    let writes = |seed| {
        let mut rng = closed::client_rng(seed, 0);
        (0..20)
            .flat_map(|_| {
                let txn_seed = rng.next_u64();
                (0..nested_scan::CHILDREN as u64)
                    .map(move |c| nested_scan::pairs(derive(txn_seed, c)))
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(writes(3), writes(3));
    assert_ne!(writes(3), writes(4));
    for pairs in writes(5) {
        assert_eq!(pairs.len(), nested_scan::PAIRS);
        assert!(pairs.iter().all(|&(i, j, d)| i != j && d > 0));
    }
}

#[test]
fn ingress_schedule_and_requests_follow_the_seed() {
    let inputs = |seed| {
        let process = ArrivalProcess::Poisson { rate_hz: ingress_open::MODERATE_RPS };
        let schedule: Vec<u64> =
            process.schedule(ingress_open::schedule_seed(seed, 0, 0)).take(500).collect();
        let stm = Stm::new(StmConfig::default());
        let accounts = TransferWorkload::new(&stm, ingress_open::ACCOUNTS, 1);
        let requests = accounts.requests(
            ingress_open::transfer_seed(seed),
            100,
            ingress_open::TRANSFERS_PER_REQUEST,
            100,
        );
        (schedule, requests)
    };
    assert_eq!(inputs(11), inputs(11));
    let (a, b) = (inputs(11), inputs(12));
    assert_ne!(a.0, b.0);
    assert_ne!(a.1, b.1);
    assert_ne!(
        ingress_open::schedule_seed(11, 0, 0),
        ingress_open::schedule_seed(11, 0, 1),
        "rungs draw distinct schedules"
    );
}

#[test]
fn tune_replay_sessions_and_outcomes_follow_the_seed() {
    let wl = SimWorkload::builder("seed-test")
        .top_work_us(40.0)
        .child_count(4)
        .child_work_us(80.0)
        .top_footprint(8, 2)
        .data_items(5_000)
        .build();
    let surfaces = [SurfaceBuilder::new(wl, MachineParams::new(8))
        .reps(3)
        .warmup(Duration::from_millis(2))
        .measure(Duration::from_millis(20))
        .build()];
    let space = SearchSpace::new(8);
    let outcomes = |seed| {
        tune_replay::sessions(seed, surfaces.len())
            .iter()
            .map(|s| tune_replay::replay(&space, &surfaces, s))
            .collect::<Vec<_>>()
    };
    assert_eq!(tune_replay::sessions(21, 4), tune_replay::sessions(21, 4));
    assert_ne!(tune_replay::sessions(21, 4), tune_replay::sessions(22, 4));
    let (a, b) = (outcomes(21), outcomes(22));
    assert_eq!(a, outcomes(21), "same seed, same final configs, DFO and explorations");
    assert_ne!(a, b, "another seed tunes differently");
    assert!(a.iter().all(|o| space.contains(o.final_config)));
}

#[test]
fn derived_streams_do_not_collide() {
    let mut seen = std::collections::HashSet::new();
    for seed in 0..50 {
        for stream in 0..50 {
            assert!(seen.insert(derive(seed, stream)), "collision at {seed}/{stream}");
        }
    }
    let mut rng = SplitMix::new(1);
    assert!((0..1_000).all(|_| rng.below(10) < 10));
}
