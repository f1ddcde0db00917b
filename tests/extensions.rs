//! Integration tests of the beyond-paper extension modules: the
//! page-cache device model and admission-controlled multi-tenant runs
//! working together with the core system.

use horam::core::access_control::{AccessControl, Permission};
use horam::core::{run_multi_user, UserId};
use horam::prelude::*;
use horam::protocols::BlockId;
use horam::storage::device::{AccessKind, TimingModel};
use horam::storage::hdd::HddModel;
use horam::storage::page_cache::{PageCacheModel, PageCacheParams};

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

#[test]
fn admission_control_blocks_cross_tenant_traffic_end_to_end() {
    let config = HOramConfig::new(256, 8, 64).with_seed(15);
    let mut oram = HOram::new(
        config,
        MemoryHierarchy::dac2019(),
        MasterKey::from_bytes([73u8; 32]),
    )
    .expect("builds");

    let mut acl = AccessControl::new();
    acl.grant(UserId(0), 0..128, Permission::ReadWrite);
    acl.grant(UserId(1), 128..256, Permission::ReadWrite);

    // Tenant 0 stores a secret; tenant 1 tries to read and overwrite it.
    let (mine, rejected) = acl.admit(UserId(0), vec![Request::write(5u64, vec![0x5E; 8])]);
    assert!(rejected.is_empty());
    let (theirs, rejected) = acl.admit(
        UserId(1),
        vec![
            Request::read(5u64),
            Request::write(5u64, vec![0xFF; 8]),
            Request::read(200u64),
        ],
    );
    assert_eq!(rejected.len(), 2, "both cross-tenant requests rejected");
    assert_eq!(theirs.len(), 1);

    let report =
        run_multi_user(&mut oram, vec![(UserId(0), mine), (UserId(1), theirs)]).expect("runs");
    assert_eq!(report.requests, 2);

    // The secret is intact and readable only through tenant 0's grant.
    assert_eq!(oram.read(BlockId(5)).expect("owner read"), vec![0x5E; 8]);
}

#[test]
fn rejections_generate_no_bus_traffic() {
    let config = HOramConfig::new(128, 8, 32).with_seed(16);
    let mut oram = HOram::new(
        config,
        MemoryHierarchy::dac2019(),
        MasterKey::from_bytes([74u8; 32]),
    )
    .expect("builds");
    let acl = AccessControl::new(); // default deny
    oram.reset_accounting();
    let (admitted, rejected) = acl.admit(UserId(9), vec![Request::read(1u64)]);
    assert!(admitted.is_empty());
    assert_eq!(rejected.len(), 1);
    // Nothing ran, nothing was observed.
    assert!(oram.trace().is_empty());
    assert_eq!(oram.stats().cycles, 0);
}
