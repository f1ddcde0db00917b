//! Multi-tenant serving-layer integration: correctness of batching,
//! dedup, fairness and ticket ordering end-to-end through the scheduler.

use horam::core::shard::{ShardedConfig, ShardedOram};
use horam::core::{Permission, UserId};
use horam::prelude::*;
use horam::storage::trace::AccessTrace;
use horam::workload::{TenantSchedule, ZipfWorkload};
use horam_server::{
    FairSharePolicy, FifoPolicy, OramService, ServeError, ServiceConfig, ServiceTicket,
};
use std::collections::HashMap;

const CAPACITY: u64 = 1024;
const PAYLOAD: usize = 16;

/// One shard: every tenant shares a single H-ORAM instance.
fn engine() -> ShardedOram {
    let config = ShardedConfig::new(HOramConfig::new(CAPACITY, PAYLOAD, 256).with_seed(33), 1);
    ShardedOram::new(config, MasterKey::from_bytes([9u8; 32]), |_| {
        MemoryHierarchy::dac2019()
    })
    .expect("builds")
}

fn service(batch_size: usize, policy: &str) -> OramService {
    let policy: Box<dyn horam_server::AdmissionPolicy> = match policy {
        "fifo" => Box::new(FifoPolicy),
        "fair" => Box::new(FairSharePolicy::default()),
        other => panic!("unknown policy {other}"),
    };
    OramService::new(
        engine(),
        policy,
        ServiceConfig {
            batch_size,
            ..ServiceConfig::default()
        },
    )
}

fn payload(tag: u8) -> Vec<u8> {
    vec![tag; PAYLOAD]
}

/// N tenants with mixed reads/writes against a plain map reference:
/// every response must agree, across batch and shuffle boundaries.
#[test]
fn mixed_read_write_matches_reference() {
    for policy in ["fifo", "fair"] {
        let mut service = service(32, policy);
        let tenants = 4u32;
        for t in 0..tenants {
            service.register_tenant(UserId(t), 0..CAPACITY, Permission::ReadWrite);
        }

        // A deterministic mixed workload over a shared region: tenant t
        // round r touches block (r * 7 + t * 13) % 64; every third access
        // is a write tagged by (tenant, round).
        let mut reference: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut expected: HashMap<ServiceTicket, Vec<u8>> = HashMap::new();
        for round in 0..120u64 {
            for t in 0..tenants {
                let block = (round * 7 + t as u64 * 13) % 64;
                if (round + t as u64).is_multiple_of(3) {
                    let tag = (round as u8).wrapping_mul(31).wrapping_add(t as u8);
                    let ticket = service
                        .submit(UserId(t), Request::write(block, payload(tag)))
                        .unwrap();
                    let previous = reference
                        .insert(block, payload(tag))
                        .unwrap_or(vec![0; PAYLOAD]);
                    expected.insert(ticket, previous);
                } else {
                    let ticket = service.submit(UserId(t), Request::read(block)).unwrap();
                    expected.insert(
                        ticket,
                        reference.get(&block).cloned().unwrap_or(vec![0; PAYLOAD]),
                    );
                }
                // Pump mid-stream so admission interleaves with arrivals.
                if service.pending_total() >= 32 {
                    service.pump().unwrap();
                }
            }
        }
        service.pump_until_idle().unwrap();

        for (ticket, want) in expected {
            let got = service.take_response(ticket);
            assert_eq!(
                got.as_ref(),
                Some(&want),
                "policy {policy}, ticket {ticket:?}"
            );
        }
        assert!(
            service.oram().stats().shuffles >= 1,
            "workload must cross a period"
        );
    }
}

/// Per-tenant responses come back in submission order and tickets are
/// collectable in any order.
#[test]
fn ticket_response_ordering() {
    let mut service = service(16, "fifo");
    service.register_tenant(UserId(0), 0..CAPACITY, Permission::ReadWrite);

    // Writes 1..=20 to the same block: each response is the previous
    // write's payload — any reordering of same-block requests would break
    // the chain.
    let block = 5u64;
    let tickets: Vec<ServiceTicket> = (1..=20u8)
        .map(|tag| {
            service
                .submit(UserId(0), Request::write(block, payload(tag)))
                .unwrap()
        })
        .collect();
    service.pump_until_idle().unwrap();

    // Collect in reverse order: buffering must not care.
    for (i, ticket) in tickets.iter().enumerate().rev() {
        let want = if i == 0 {
            vec![0; PAYLOAD]
        } else {
            payload(i as u8)
        };
        assert_eq!(
            service.take_response(*ticket),
            Some(want),
            "write {}",
            i + 1
        );
    }
}

/// Duplicate same-block reads inside one batch collapse onto one ORAM
/// request and all get the same (correct) answer.
#[test]
fn dedup_of_same_block_requests() {
    let mut service = service(64, "fifo");
    service.register_tenant(UserId(0), 0..CAPACITY, Permission::ReadWrite);
    service.register_tenant(UserId(1), 0..CAPACITY, Permission::ReadOnly);

    let seed = service
        .submit(UserId(0), Request::write(9u64, payload(0xAB)))
        .unwrap();
    service.pump_until_idle().unwrap();
    assert_eq!(service.take_response(seed), Some(vec![0; PAYLOAD]));
    let oram_requests_before = service.stats().oram.requests;

    // 30 reads of the same block from two tenants, one batch.
    let tickets: Vec<ServiceTicket> = (0..30)
        .map(|i| service.submit(UserId(i % 2), Request::read(9u64)).unwrap())
        .collect();
    service.pump_until_idle().unwrap();

    for ticket in tickets {
        assert_eq!(service.take_response(ticket), Some(payload(0xAB)));
    }
    let issued = service.stats().oram.requests - oram_requests_before;
    assert_eq!(issued, 1, "29 of 30 reads piggyback on one carrier");
    assert_eq!(service.stats().deduped, 29);
    let piggybacked: u64 = (0..2)
        .map(|t| service.tenant_stats(UserId(t)).unwrap().piggybacked)
        .sum();
    assert_eq!(piggybacked, 29);
}

/// A write between two same-block reads in one batch fences dedup: the
/// second read must observe the new value through its own access.
#[test]
fn dedup_respects_intervening_writes() {
    let mut service = service(64, "fifo");
    service.register_tenant(UserId(0), 0..CAPACITY, Permission::ReadWrite);

    let r1 = service.submit(UserId(0), Request::read(3u64)).unwrap();
    let w = service
        .submit(UserId(0), Request::write(3u64, payload(0x77)))
        .unwrap();
    let r2 = service.submit(UserId(0), Request::read(3u64)).unwrap();
    service.pump_until_idle().unwrap();

    assert_eq!(
        service.take_response(r1),
        Some(vec![0; PAYLOAD]),
        "pre-write value"
    );
    assert_eq!(
        service.take_response(w),
        Some(vec![0; PAYLOAD]),
        "previous bytes"
    );
    assert_eq!(
        service.take_response(r2),
        Some(payload(0x77)),
        "post-write value"
    );
}

/// Under a hot tenant submitting 8x everyone else's traffic, fair-share
/// admission keeps the cold tenants' latency near the hot tenant's —
/// FIFO lets the hot tenant starve them. The whole schedule is queued
/// before the first pump, so every batch is a real choice between
/// tenants (fed one batch at a time, both policies admit nearly the
/// same requests and the latencies differ only by noise).
#[test]
fn fairness_under_a_hot_tenant() {
    let tenants = 4u32;
    let mut latency_ratio = HashMap::new();
    for policy in ["fifo", "fair"] {
        let mut service = service(16, policy);
        for t in 0..tenants {
            service.register_tenant(UserId(t), 0..CAPACITY, Permission::ReadWrite);
        }
        let mut generator = ZipfWorkload::new(CAPACITY, 1.1, 0.0, 5);
        let schedule = TenantSchedule::with_hot_tenant(&mut generator, tenants, 8, 1200);
        for arrival in &schedule.arrivals {
            service
                .submit(UserId(arrival.tenant), arrival.request.clone())
                .unwrap();
        }
        service.pump_until_idle().unwrap();

        let hot = service.tenant_stats(UserId(0)).unwrap().mean_latency();
        let cold_worst = (1..tenants)
            .map(|t| service.tenant_stats(UserId(t)).unwrap().mean_latency())
            .max()
            .unwrap();
        latency_ratio.insert(
            policy,
            cold_worst.as_nanos() as f64 / hot.as_nanos().max(1) as f64,
        );
    }

    let fifo = latency_ratio["fifo"];
    let fair = latency_ratio["fair"];
    assert!(
        fair < fifo,
        "fair-share must serve cold tenants sooner relative to the hot tenant \
         (cold/hot latency ratio: fifo {fifo:.2}, fair {fair:.2})"
    );
    assert!(
        fair <= 1.5,
        "cold tenants track the hot tenant under fair share, got {fair:.2}"
    );
}

/// `serve_all` must complete even when `batch_size` exceeds the total
/// backpressure capacity — it pumps to make room instead of surfacing
/// `QueueFull` mid-stream.
#[test]
fn serve_all_survives_tight_backpressure() {
    let mut service = OramService::new(
        engine(),
        Box::new(FairSharePolicy::default()),
        // batch_size far above what one tenant may ever queue.
        ServiceConfig {
            batch_size: 256,
            max_pending_per_tenant: 10,
            ..ServiceConfig::default()
        },
    );
    service.register_tenant(UserId(0), 0..CAPACITY, Permission::ReadWrite);

    let arrivals = (0..150u64).map(|i| (UserId(0), Request::read(i % 32)));
    let (tickets, report) = service
        .serve_all(arrivals)
        .expect("completes without QueueFull");
    assert_eq!(tickets.len(), 150);
    assert_eq!(report.completed, 150);
    for ticket in tickets {
        assert!(service.take_response(ticket).is_some());
    }
}

/// Unregistered tenants, ACL denials and backpressure all reject without
/// touching the ORAM.
#[test]
fn rejections_produce_no_accesses() {
    let mut service = OramService::new(
        engine(),
        Box::new(FifoPolicy),
        ServiceConfig {
            batch_size: 8,
            max_pending_per_tenant: 4,
            ..ServiceConfig::default()
        },
    );
    service.register_tenant(UserId(0), 0..16, Permission::ReadOnly);

    assert!(matches!(
        service.submit(UserId(9), Request::read(1u64)),
        Err(ServeError::UnknownTenant(UserId(9)))
    ));
    assert!(matches!(
        service.submit(UserId(0), Request::write(1u64, payload(1))),
        Err(ServeError::Denied(_))
    ));
    assert!(matches!(
        service.submit(UserId(0), Request::read(999u64)),
        Err(ServeError::Denied(_)), // outside the granted range
    ));
    for _ in 0..4 {
        service.submit(UserId(0), Request::read(1u64)).unwrap();
    }
    assert!(matches!(
        service.submit(UserId(0), Request::read(2u64)),
        Err(ServeError::QueueFull {
            tenant: UserId(0),
            limit: 4
        })
    ));

    let stats = service.tenant_stats(UserId(0)).unwrap();
    assert_eq!(stats.denied, 2);
    assert_eq!(stats.rejected_backpressure, 1);
    assert!(
        service.oram().shards()[0].trace().is_empty(),
        "rejections reach no bus"
    );
}

/// Graceful degradation through the serving layer: when one shard of the
/// engine dies mid-service, every ticket routed to it resolves to
/// `Err(ServeError::Degraded)` through `take_result`, while the other
/// shards' tenants keep receiving byte-exact answers — and later
/// submissions to the dead shard fail typed at the same surface instead
/// of stalling the pump.
#[test]
fn degraded_shard_fails_typed_while_others_keep_serving() {
    use horam::storage::fault::FaultConfig;

    const SHARDED_CAPACITY: u64 = 256;
    let config = ShardedConfig::new(
        HOramConfig::new(SHARDED_CAPACITY, PAYLOAD, 64).with_seed(33),
        4,
    );
    let mut oram = ShardedOram::new(config, MasterKey::from_bytes([9u8; 32]), |_| {
        MemoryHierarchy::dac2019()
    })
    .expect("sharded engine builds");

    // Ground truth written while healthy, then shard 0's storage dies
    // (every read faults; writes and the layout survive).
    let init: Vec<Request> = (0..SHARDED_CAPACITY)
        .map(|id| Request::write(id, vec![id as u8; PAYLOAD]))
        .collect();
    oram.run_batch(&init).expect("healthy init");
    let dead_shard = 0usize;
    oram.inject_storage_faults(
        dead_shard,
        FaultConfig {
            seed: 41,
            transient_read_permille: 1000,
            ..FaultConfig::default()
        },
    );
    let shard_of: Vec<usize> = (0..SHARDED_CAPACITY)
        .map(|id| oram.mapper().shard_of(BlockId(id)).unwrap() as usize)
        .collect();

    let mut service = OramService::new(
        oram,
        Box::new(FifoPolicy),
        ServiceConfig {
            batch_size: 16,
            ..ServiceConfig::default()
        },
    );
    service.register_tenant(UserId(0), 0..SHARDED_CAPACITY, Permission::ReadWrite);

    let tickets: Vec<(u64, ServiceTicket)> = (0..SHARDED_CAPACITY)
        .map(|id| (id, service.submit(UserId(0), Request::read(id)).unwrap()))
        .collect();
    service
        .pump_until_idle()
        .expect("the pump absorbs the failure");

    assert_eq!(service.oram().degraded_shards(), vec![dead_shard]);
    let mut failed = 0;
    let mut served = 0;
    for (id, ticket) in tickets {
        match service
            .take_result(ticket)
            .expect("every ticket resolves to a response or a typed failure")
        {
            Ok(bytes) => {
                served += 1;
                assert_eq!(bytes, vec![id as u8; PAYLOAD], "block {id} served wrong");
            }
            Err(ServeError::Degraded { shard, .. }) => {
                failed += 1;
                assert_eq!(shard, dead_shard);
                assert_eq!(shard_of[id as usize], dead_shard, "healthy ticket failed");
            }
            Err(other) => panic!("unexpected failure kind: {other}"),
        }
    }
    assert!(failed > 0, "the dead shard must lose tickets");
    assert!(served > 0, "healthy shards must keep serving");

    // Submissions after the quarantine: the dead shard's tickets fail
    // typed at admission into the engine; healthy ones still serve.
    let (dead_id, _) = shard_of
        .iter()
        .enumerate()
        .find(|(_, shard)| **shard == dead_shard)
        .expect("some block maps to the dead shard");
    let (live_id, _) = shard_of
        .iter()
        .enumerate()
        .find(|(_, shard)| **shard != dead_shard)
        .expect("some block maps to a healthy shard");
    let dead_ticket = service
        .submit(UserId(0), Request::read(dead_id as u64))
        .expect("submission is accepted; the failure is typed at serve time");
    let live_ticket = service
        .submit(UserId(0), Request::read(live_id as u64))
        .expect("healthy submission");
    service.pump_until_idle().expect("pump stays live");
    assert!(matches!(
        service.take_result(dead_ticket),
        Some(Err(ServeError::Degraded { shard, .. })) if shard == dead_shard
    ));
    assert_eq!(
        service.take_result(live_ticket).unwrap().unwrap(),
        vec![live_id as u8; PAYLOAD]
    );
}

/// `horam-serverd`'s default engine — 4 shards over
/// `MemoryHierarchy::dac2019()` — digests each shard's bus trace and
/// retains no events; recording the same run reports equal digests.
#[test]
fn daemon_default_traces_keep_a_digest_and_no_events() {
    let serve = |hierarchy: fn() -> MemoryHierarchy| {
        let config = ServiceConfig::default();
        let base = config.engine_config(HOramConfig::new(4096, 16, 1024));
        let key = MasterKey::from_bytes([7; 32]);
        let oram = ShardedOram::new(ShardedConfig::new(base, 4), key, |_| hierarchy());
        let policy = Box::new(FairSharePolicy::default());
        let mut service = OramService::new(oram.expect("builds"), policy, config);
        service.register_tenant(UserId(0), 0..4096, Permission::ReadWrite);
        let mut requests = ZipfWorkload::new(4096, 0.99, 0.2, 2019).with_payload_len(16);
        let arrivals = requests.generate(2_000).into_iter().map(|r| (UserId(0), r));
        service.serve_all(arrivals).expect("serves");
        let traces: Vec<_> = service
            .oram()
            .shards()
            .iter()
            .map(|s| s.trace().clone())
            .collect();
        traces
    };
    let recorded = serve(|| MemoryHierarchy::dac2019().recording());
    for (i, (digest, recording)) in serve(MemoryHierarchy::dac2019)
        .iter()
        .zip(&recorded)
        .enumerate()
    {
        assert!(!digest.is_empty() && !digest.is_recording(), "shard {i}");
        assert_eq!(recording.snapshot().len(), recording.len());
        let fingerprint = |t: &AccessTrace| (t.len(), t.digest());
        assert_eq!(fingerprint(digest), fingerprint(recording), "shard {i}");
    }
}
