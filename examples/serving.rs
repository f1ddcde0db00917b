//! The batched multi-tenant serving layer in action.
//!
//! Four tenants share one H-ORAM instance behind an [`OramService`]:
//! requests are access-checked, queued per tenant, admitted in fair-share
//! batches, deduplicated against the shared hot set, and answered through
//! tickets — no tenant ever blocks another.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use horam::core::shard::{ShardedConfig, ShardedOram};
use horam::core::Permission;
use horam::core::UserId;
use horam::prelude::*;
use horam::workload::{TenantSchedule, ZipfWorkload};
use horam_server::{FairSharePolicy, OramService, ServeError, ServiceConfig};

fn main() -> Result<(), ServeError> {
    // One shared instance (one shard): 2048 blocks of 32 B, 512-slot
    // memory tree.
    let config = ShardedConfig::new(HOramConfig::new(2048, 32, 512).with_seed(11), 1);
    let oram = ShardedOram::new(config, MasterKey::from_bytes([3u8; 32]), |_| {
        MemoryHierarchy::dac2019()
    })?;

    let mut service = OramService::new(
        oram,
        Box::new(FairSharePolicy::default()),
        ServiceConfig {
            batch_size: 64,
            ..ServiceConfig::default()
        },
    );

    // Tenants 0-2 own disjoint ranges; tenant 3 is a read-only auditor
    // over everything.
    service.register_tenant(UserId(0), 0..512, Permission::ReadWrite);
    service.register_tenant(UserId(1), 512..1024, Permission::ReadWrite);
    service.register_tenant(UserId(2), 1024..2048, Permission::ReadWrite);
    service.register_tenant(UserId(3), 0..2048, Permission::ReadOnly);

    // A write the auditor may read but never issue.
    let w = service.submit(UserId(0), Request::write(7u64, vec![0xEE; 32]))?;
    match service.submit(UserId(3), Request::write(7u64, vec![0; 32])) {
        Err(ServeError::Denied(denial)) => println!("auditor write rejected: {denial}"),
        other => panic!("expected denial, got {other:?}"),
    }
    let r = service.submit(UserId(3), Request::read(7u64))?;

    service.pump_until_idle()?;
    assert_eq!(service.take_response(w), Some(vec![0u8; 32])); // previous bytes
    assert_eq!(service.take_response(r), Some(vec![0xEE; 32]));
    println!("write + audited read round-tripped through the pump loop\n");

    // Now heavy shared traffic: a Zipf stream over tenant 0's range dealt
    // across the three writing tenants (a shared hot set, which dedup
    // exploits) — so tenants 1 and 2 first need grants on the shared
    // region.
    service.grant(UserId(1), 0..512, Permission::ReadWrite);
    service.grant(UserId(2), 0..512, Permission::ReadWrite);
    let mut generator = ZipfWorkload::new(512, 1.2, 0.0, 42);
    let schedule = TenantSchedule::shard(&mut generator, 3, 3_000);
    let arrivals = schedule
        .arrivals
        .iter()
        .map(|a| (UserId(a.tenant), a.request.clone()));
    let (_tickets, report) = service.serve_all(arrivals)?;

    println!(
        "served {} requests in {} batches, {} of simulated time",
        report.completed, report.batches, report.wall_time
    );
    println!(
        "dedup saved {} ORAM accesses ({:.2}x amplification)",
        service.stats().deduped,
        service.stats().amplification()
    );
    for tenant in [0, 1, 2, 3u32] {
        let stats = service.tenant_stats(UserId(tenant)).expect("registered");
        println!(
            "tenant {tenant}: {} completed ({} piggybacked), mean latency {}, denied {}",
            stats.completed,
            stats.piggybacked,
            stats.mean_latency(),
            stats.denied,
        );
    }
    Ok(())
}
