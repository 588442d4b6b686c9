//! A session can be drained to another shard however long it has run.
//!
//! A drain moves a receiver's whole state between two shards of one
//! process. How much the session has already delivered must not matter:
//! a β session drained after some twenty thousand writes is handed off,
//! adopted by the target and finishes there with Y = X, exactly like a
//! session drained after its first few.

use rstp::core::TimingParams;
use rstp::serve::{run_swarm, FaultPlan, SwarmConfig};
use rstp::sim::ProtocolKind;
use std::time::Duration;

#[test]
fn a_long_beta_session_drains_mid_transfer() {
    // A step writes at most one message and c1 is one tick, so neither
    // session can finish before tick 24 000: the drain at pump tick
    // 20 000 always lands mid-transfer. Session 2 hashes to shard 0, so
    // exactly one session moves.
    let params = TimingParams::from_ticks(1, 1, 8).unwrap();
    let tick = Duration::from_micros(100);
    let mut config = SwarmConfig::new(ProtocolKind::Beta { k: 64 }, 24_000, 2, params, tick);
    let plan = FaultPlan::parse("drain=0->1@20000").unwrap();
    config.serve = config.serve.with_shards(2).with_faults(plan);

    let report = run_swarm(&config).unwrap();
    let summary = report.summary();
    assert!(report.all_good(), "{summary}");
    assert_eq!(report.serve.handed_off(), 1, "{summary}");
    assert_eq!(report.serve.adopted(), 1, "{summary}");
    assert_eq!(report.serve.handovers_failed(), 0, "{summary}");
}
