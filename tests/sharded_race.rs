//! The cross-shard binding race at every placement: the raced switch on
//! each worker in turn of 2-, 4- and 8-worker fleets, with a bystander
//! switch on every other worker. The log-off batch, the flush fanout and
//! the epoch barrier must reach all bystanders and still beat the
//! fault-delayed punt wherever it sits, so no worker index or fleet width
//! is special. The rig and the fail-closed checks live in `race/mod.rs`.

mod race;

#[test]
fn cross_shard_binding_expiry_beats_fault_delayed_packet_in() {
    for shards in [2, 4, 8] {
        for raced_shard in 0..shards {
            let (report, line) = race::run_race(shards, raced_shard);
            race::assert_fails_closed(&report, &line);
            assert_eq!(
                report.served_epochs.len(),
                shards,
                "every worker reports its epoch: {line}"
            );
            assert_eq!(
                report.cookies.len(),
                shards,
                "every worker's switch is observed: {line}"
            );
        }
    }
}
