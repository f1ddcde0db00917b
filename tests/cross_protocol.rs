//! Cross-protocol validation: every ORAM in the workspace implements the
//! same logical contract, so the same trace must produce the same answers
//! from all of them.

use horam::core::shard::{ShardedConfig, ShardedOram};
use horam::crypto::keys::MasterKey;
use horam::prelude::*;
use horam::protocols::{build_tree_top_cache, Oram, PathOram, PathOramConfig};
use horam::storage::calibration::MachineConfig;
use horam::storage::clock::SimClock;
use horam::workload::{HotspotWorkload, WorkloadGenerator};

const CAPACITY: u64 = 128;
const PAYLOAD: usize = 8;

fn workload(seed: u64) -> Vec<Request> {
    let mut generator = HotspotWorkload::new(CAPACITY, 0.8, 0.25, 0.4, PAYLOAD, seed);
    generator.generate(300)
}

/// Collects each protocol's responses for the trace.
fn responses_of(oram: &mut dyn Oram, requests: &[Request]) -> Vec<Vec<u8>> {
    requests
        .iter()
        .map(|r| oram.access(r).expect("access succeeds"))
        .collect()
}

fn all_protocols(master: &MasterKey) -> Vec<(&'static str, Box<dyn Oram>)> {
    let machine = MachineConfig::dac2019();
    let mut protocols: Vec<(&'static str, Box<dyn Oram>)> = Vec::new();

    let device = machine.build_memory(SimClock::new(), None);
    protocols.push((
        "path-oram",
        Box::new(
            PathOram::new(
                PathOramConfig::new(CAPACITY, PAYLOAD),
                device,
                &master.derive("xp/path", 0),
            )
            .unwrap(),
        ),
    ));

    let clock = SimClock::new();
    let (ttc, _) = build_tree_top_cache(
        PathOramConfig::new(CAPACITY, PAYLOAD),
        32,
        machine.build_memory(clock.clone(), None),
        machine.build_storage(clock, None),
        &master.derive("xp/ttc", 0),
    )
    .unwrap();
    protocols.push(("tree-top-cache", Box::new(ttc)));

    let config = HOramConfig::new(CAPACITY, PAYLOAD, 32).with_seed(11);
    protocols.push((
        "h-oram",
        Box::new(HOram::new(config.clone(), MemoryHierarchy::dac2019(), master.clone()).unwrap()),
    ));

    // The engine `horam-serverd` runs: the same configuration over 4 shards.
    protocols.push((
        "sharded-h-oram",
        Box::new(
            ShardedOram::new(ShardedConfig::new(config, 4), master.clone(), |_| {
                MemoryHierarchy::dac2019()
            })
            .unwrap(),
        ),
    ));

    protocols
}

#[test]
fn all_protocols_agree_on_one_trace() {
    let master = MasterKey::from_bytes([13u8; 32]);
    let requests = workload(1);
    let mut all = all_protocols(&master);
    let (reference_name, reference_oram) = &mut all[0];
    let reference = responses_of(reference_oram.as_mut(), &requests);
    let reference_name = *reference_name;
    for (name, oram) in &mut all[1..] {
        let got = responses_of(oram.as_mut(), &requests);
        assert_eq!(
            got, reference,
            "{name} disagrees with {reference_name} on the shared trace"
        );
    }
}

#[test]
fn capacities_and_payloads_report_consistently() {
    let master = MasterKey::from_bytes([14u8; 32]);
    for (name, oram) in &mut all_protocols(&master) {
        assert_eq!(oram.capacity(), CAPACITY, "{name} capacity");
        assert_eq!(oram.payload_len(), PAYLOAD, "{name} payload length");
    }
}

#[test]
fn out_of_range_is_rejected_by_every_protocol() {
    let master = MasterKey::from_bytes([15u8; 32]);
    for (name, oram) in &mut all_protocols(&master) {
        let result = oram.read(BlockId(CAPACITY));
        assert!(
            matches!(result, Err(OramError::BlockOutOfRange { .. })),
            "{name} accepted an out-of-range id"
        );
    }
}

#[test]
fn wrong_payload_is_rejected_by_every_protocol() {
    let master = MasterKey::from_bytes([16u8; 32]);
    for (name, oram) in &mut all_protocols(&master) {
        let result = oram.write(BlockId(0), &[1u8; PAYLOAD + 1]);
        assert!(
            matches!(result, Err(OramError::PayloadSize { .. })),
            "{name} accepted a mis-sized payload"
        );
    }
}
