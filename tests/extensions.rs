//! Integration tests of the beyond-paper extension modules: the
//! page-cache device model and access-controlled tenants sharing one
//! instance through the serving layer.

use horam::core::shard::{ShardedConfig, ShardedOram};
use horam::core::{Permission, UserId};
use horam::prelude::*;
use horam::storage::device::{AccessKind, TimingModel};
use horam::storage::hdd::HddModel;
use horam::storage::page_cache::{PageCacheModel, PageCacheParams};
use horam_server::{FifoPolicy, OramService, ServeError, ServiceConfig};

#[test]
fn page_cached_device_speeds_up_hot_reads_without_changing_data() {
    // The cache is a pure timing layer: contents are unaffected.
    let mut raw = HddModel::paper_calibrated();
    let mut cached =
        PageCacheModel::new(HddModel::paper_calibrated(), PageCacheParams::linux_16gb());

    let mut raw_total = horam::storage::clock::SimDuration::ZERO;
    let mut cached_total = horam::storage::clock::SimDuration::ZERO;
    for round in 0..50u64 {
        let offset = (round % 5) * 4096; // 5 hot pages
        raw_total += raw.access_cost(AccessKind::Read, offset, 1024);
        cached_total += cached.access_cost(AccessKind::Read, offset, 1024);
    }
    assert!(cached_total.as_nanos() * 5 < raw_total.as_nanos());
    assert!(cached.hit_rate() > 0.8);
}

/// A service over one shard: the paper's single shared instance.
fn shared_instance(capacity: u64, memory_slots: u64, seed: u64, key: u8) -> OramService {
    let config = ShardedConfig::new(
        HOramConfig::new(capacity, 8, memory_slots).with_seed(seed),
        1,
    );
    let oram = ShardedOram::new(config, MasterKey::from_bytes([key; 32]), |_| {
        MemoryHierarchy::dac2019()
    })
    .expect("builds");
    OramService::new(oram, Box::new(FifoPolicy), ServiceConfig::default())
}

#[test]
fn admission_control_blocks_cross_tenant_traffic_end_to_end() {
    let mut service = shared_instance(256, 64, 15, 73);
    service.register_tenant(UserId(0), 0..128, Permission::ReadWrite);
    service.register_tenant(UserId(1), 128..256, Permission::ReadWrite);

    // Tenant 0 stores a secret; tenant 1 tries to read and overwrite it.
    service
        .submit(UserId(0), Request::write(5u64, vec![0x5E; 8]))
        .expect("owner write admitted");
    for trespass in [Request::read(5u64), Request::write(5u64, vec![0xFF; 8])] {
        assert!(
            matches!(
                service.submit(UserId(1), trespass),
                Err(ServeError::Denied(_))
            ),
            "cross-tenant request rejected"
        );
    }
    service
        .submit(UserId(1), Request::read(200u64))
        .expect("own range admitted");
    service.pump_until_idle().expect("serves");
    assert_eq!(service.stats().completed, 2);

    // The secret is intact and readable only through tenant 0's grant.
    let read = service
        .submit(UserId(0), Request::read(5u64))
        .expect("owner read");
    service.pump_until_idle().expect("serves");
    assert_eq!(service.take_response(read), Some(vec![0x5E; 8]));
}

#[test]
fn rejections_generate_no_bus_traffic() {
    let mut service = shared_instance(128, 32, 16, 74);
    service.register_tenant(UserId(9), 64..128, Permission::ReadOnly);
    for request in [Request::read(1u64), Request::write(70u64, vec![0; 8])] {
        assert!(matches!(
            service.submit(UserId(9), request),
            Err(ServeError::Denied(_))
        ));
    }
    service.pump_until_idle().expect("nothing to serve");
    // Nothing ran, nothing was observed.
    assert_eq!(service.tenant_stats(UserId(9)).unwrap().denied, 2);
    assert!(service.oram().shards()[0].trace().is_empty());
    assert_eq!(service.oram().stats().cycles, 0);
}
