//! The cross-shard binding race replayed across a **real thread
//! boundary**: PR 2's stale-decision regression
//! (`binding_expiry_beats_fault_delayed_packet_in`) with the two switches
//! owned by different worker threads of a
//! [`ParallelShardedDfi`](dfi_repro::core::ParallelShardedDfi). The rig
//! and the fail-closed checks live in `race/mod.rs`.

mod race;

use dfi_repro::simnet::topo::shard_of;

#[test]
fn threaded_binding_expiry_beats_fault_delayed_packet_in() {
    // dpid 1 is the bystander; the raced switch lands on the other worker.
    let (report, line) = race::run_race(2, 1 - shard_of(1, 2));
    race::assert_fails_closed(&report, &line);
}
