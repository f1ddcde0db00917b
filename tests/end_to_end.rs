//! End-to-end H-ORAM correctness: long mixed workloads across many
//! periods must agree with a plain reference map.

use horam::prelude::*;
use horam::workload::{BurstWorkload, UniformWorkload, WorkloadGenerator, ZipfWorkload};
use std::collections::HashMap;

/// Runs a request trace against H-ORAM and a HashMap reference, asserting
/// byte equality of every response.
fn check_against_reference(mut oram: HOram, requests: &[Request], payload_len: usize) -> HOram {
    let mut reference: HashMap<u64, Vec<u8>> = HashMap::new();
    let responses = oram.run_batch(requests).expect("batch runs");
    for (request, response) in requests.iter().zip(&responses) {
        match &request.op {
            RequestOp::Read => {
                let expected = reference
                    .get(&request.id.0)
                    .cloned()
                    .unwrap_or(vec![0u8; payload_len]);
                assert_eq!(response, &expected, "read of block {}", request.id);
            }
            RequestOp::Write(payload) => {
                let expected = reference
                    .insert(request.id.0, payload.clone())
                    .unwrap_or(vec![0u8; payload_len]);
                assert_eq!(
                    response, &expected,
                    "write-previous of block {}",
                    request.id
                );
            }
        }
    }
    oram
}

fn build(capacity: u64, memory_slots: u64, payload_len: usize, seed: u64) -> HOram {
    let config = HOramConfig::new(capacity, payload_len, memory_slots).with_seed(seed);
    HOram::new(
        config,
        MemoryHierarchy::dac2019(),
        MasterKey::from_bytes([21u8; 32]),
    )
    .expect("construction succeeds")
}

#[test]
fn hotspot_workload_with_writes_across_periods() {
    let mut generator = HotspotWorkload::new(512, 0.8, 0.2, 0.4, 16, 3);
    let requests = generator.generate(600);
    let oram = check_against_reference(build(512, 64, 16, 1), &requests, 16);
    assert!(oram.stats().shuffles >= 2, "must cross multiple periods");
}

#[test]
fn uniform_workload_is_correct_despite_poor_locality() {
    let mut generator = UniformWorkload::with_payload(256, 0.5, 8, 9);
    let requests = generator.generate(400);
    let oram = check_against_reference(build(256, 32, 8, 2), &requests, 8);
    // Uniform traffic has little reuse: most I/O is real misses.
    assert!(oram.stats().real_io_loads > 100);
}

#[test]
fn zipf_workload_exploits_the_cache() {
    let mut generator = ZipfWorkload::new(1024, 1.1, 0.0, 5);
    let requests = generator.generate(500);
    let oram = check_against_reference(build(1024, 256, 8, 3), &requests, 8);
    let stats = oram.stats();
    assert!(
        stats.requests_per_io() > 1.0,
        "zipf reuse should beat one request per load, got {}",
        stats.requests_per_io()
    );
}

#[test]
fn burst_workload_survives_working_set_shifts() {
    let mut generator = BurstWorkload::new(512, 64, 7);
    let requests = generator.generate(400);
    check_against_reference(build(512, 64, 8, 4), &requests, 8);
}

#[test]
fn interleaved_batches_preserve_state() {
    let mut oram = build(128, 32, 8, 5);
    for round in 0..5u8 {
        let writes: Vec<Request> = (0..16u64)
            .map(|i| Request::write(i, vec![round; 8]))
            .collect();
        oram.run_batch(&writes).expect("write batch");
        let reads: Vec<Request> = (0..16u64).map(Request::read).collect();
        let values = oram.run_batch(&reads).expect("read batch");
        for value in values {
            assert_eq!(value, vec![round; 8]);
        }
    }
}

#[test]
fn deterministic_replay_gives_identical_timing() {
    let mut generator = HotspotWorkload::paper_default(256, 17);
    let requests = generator.generate(200);
    let mut first = build(256, 64, 8, 7);
    first.run_batch(&requests).expect("first run");
    let mut second = build(256, 64, 8, 7);
    second.run_batch(&requests).expect("second run");
    assert_eq!(
        first.stats(),
        second.stats(),
        "whole runs must be replayable"
    );
    assert_eq!(first.clock().now(), second.clock().now());
}

#[test]
fn partial_shuffle_equals_full_shuffle_functionally() {
    let mut generator = HotspotWorkload::new(256, 0.8, 0.2, 0.3, 8, 23);
    let requests = generator.generate(300);

    let full = HOramConfig::new(256, 8, 32).with_seed(8);
    check_against_reference(
        HOram::new(
            full,
            MemoryHierarchy::dac2019(),
            MasterKey::from_bytes([1u8; 32]),
        )
        .unwrap(),
        &requests,
        8,
    );

    let partial = HOramConfig::new(256, 8, 32)
        .with_seed(8)
        .with_partial_shuffle(0.25);
    let oram = check_against_reference(
        HOram::new(
            partial,
            MemoryHierarchy::dac2019(),
            MasterKey::from_bytes([1u8; 32]),
        )
        .unwrap(),
        &requests,
        8,
    );
    assert!(oram.stats().shuffles >= 1);
}
