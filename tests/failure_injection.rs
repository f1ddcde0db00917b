//! Failure injection: corrupted storage must surface as typed errors,
//! never as silently wrong data.

use horam::crypto::keys::{KeyHierarchy, MasterKey};
use horam::crypto::seal::BlockSealer;
use horam::crypto::CryptoError;
use horam::prelude::*;
use horam::protocols::{Oram, OramError, PathOram, PathOramConfig};
use horam::storage::calibration::MachineConfig;
use horam::storage::clock::SimClock;
use horam::storage::device::Device;
use horam::storage::StorageError;

/// Flips one ciphertext bit of a stored block on the device.
fn corrupt_one_block(device: &mut Device, addr: u64) {
    let mut block = device
        .take_block(addr)
        .expect("device healthy")
        .expect("block present");
    block.corrupt_bit(3);
    // Re-inserting without timing charge: we are modelling an attacker
    // writing directly to the medium, not a protocol write.
    let stats_before = *device.stats();
    device.write_block(addr, block).expect("write back");
    // (The extra charged write is irrelevant to the assertion below.)
    let _ = stats_before;
}

#[test]
fn path_oram_detects_tree_corruption() {
    let device = MachineConfig::dac2019().build_memory(SimClock::new(), None);
    let keys = MasterKey::from_bytes([51u8; 32]).derive("fi/path", 0);
    let mut oram = PathOram::new(PathOramConfig::new(64, 8), device, &keys).unwrap();
    oram.write(BlockId(1), &[9u8; 8]).unwrap();

    // Corrupt the root bucket: every path passes through it, so the next
    // access must fail authentication.
    // (Root bucket occupies slots 0..Z.)
    corrupt_one_block(oram.device_mut(), 0);
    let result = oram.read(BlockId(1));
    assert!(
        matches!(
            result,
            Err(OramError::Crypto(CryptoError::TagMismatch { .. }))
        ),
        "corruption not detected: {result:?}"
    );
}

/// Fail-closed at the path level, through the public surface only: a
/// corrupt slot in the *middle* of a resident block's path surfaces as
/// the tag error of that slot's address, and the access leaves no trace
/// in the trusted state — stash occupancy, resident count and the block's
/// own leaf are what they were. (Opened slot by slot, the buckets above
/// the corrupt one were already in the stash when the error came back.)
#[test]
fn path_oram_fails_closed_on_a_corrupt_path_slot() {
    let device = MachineConfig::dac2019().build_memory(SimClock::new(), None);
    let keys = MasterKey::from_bytes([57u8; 32]).derive("fi/path-closed", 0);
    let mut oram = PathOram::new(PathOramConfig::new(64, 8), device, &keys).unwrap();
    for i in 0..32u64 {
        oram.write(BlockId(i), &[i as u8; 8]).unwrap();
    }

    let leaf = oram.leaf_hint(BlockId(7)).expect("block 7 is resident");
    let geometry = oram.geometry();
    let path = geometry.path_nodes(leaf);
    let addr = geometry.slot_addr(path[path.len() / 2], 1);
    corrupt_one_block(oram.device_mut(), addr);

    let before = (oram.stash_len(), oram.resident_blocks(), oram.stats());
    let result = oram.read(BlockId(7));
    assert!(
        matches!(
            result,
            Err(OramError::Crypto(CryptoError::TagMismatch { block_id })) if block_id == addr
        ),
        "expected the tag error of slot {addr}: {result:?}"
    );
    assert_eq!(
        (oram.stash_len(), oram.resident_blocks(), oram.stats()),
        before
    );
    assert_eq!(oram.leaf_hint(BlockId(7)), Some(leaf));
}

#[test]
fn sealer_contract_rejects_any_corruption() {
    // The property every protocol's integrity rests on, exercised at the
    // sealing layer: one flipped ciphertext bit fails authentication.
    let sealer = BlockSealer::new(&MasterKey::from_bytes([53u8; 32]).derive("fi/unit", 0));
    for bit in [0usize, 7, 11, 29] {
        let mut sealed = sealer.seal(7, 0, &[1, 2, 3, 4]);
        sealed.corrupt_bit(bit);
        assert!(
            sealer.open(&sealed).is_err(),
            "bit {bit} flip went undetected"
        );
    }
}

#[test]
fn horam_storage_corruption_is_detected_on_fetch() {
    use horam::core::StorageLayer;
    let config = HOramConfig::new(64, 8, 16).with_seed(5);
    let device = MachineConfig::dac2019().build_storage(SimClock::new(), None);
    let master = MasterKey::from_bytes([54u8; 32]);
    let keys = KeyHierarchy::new(master.clone(), "fi/horam");
    let posmap = horam::core::build_posmap(&config, &master, false).unwrap();
    let mut layer = StorageLayer::new(&config, device, keys, posmap).unwrap();

    // Corrupt the slot of block 9, then fetch it.
    let horam::core::Location::Storage { slot } = layer.posmap_mut().location(BlockId(9)).unwrap()
    else {
        panic!("block 9 must start on storage");
    };
    corrupt_one_block(layer.device_mut(), slot);
    let result = layer.fetch(BlockId(9));
    assert!(
        matches!(
            result,
            Err(OramError::Crypto(CryptoError::TagMismatch { .. }))
        ),
        "corruption not detected: {result:?}"
    );
}

#[test]
fn reads_of_missing_slots_are_storage_errors() {
    let mut device = MachineConfig::dac2019().build_storage(SimClock::new(), None);
    let result = device.read_block(12345);
    assert!(matches!(
        result,
        Err(StorageError::MissingBlock { addr: 12345, .. })
    ));
}

#[test]
fn capacity_violations_are_storage_errors() {
    let mut device = MachineConfig::dac2019().build_storage(SimClock::new(), None);
    device.set_capacity_slots(10);
    let sealer = BlockSealer::new(&MasterKey::from_bytes([55u8; 32]).derive("fi/cap", 0));
    let result = device.write_block(10, sealer.seal(10, 0, b"x"));
    assert!(matches!(
        result,
        Err(StorageError::OutOfCapacity { capacity: 10, .. })
    ));
}

#[test]
fn horam_remains_usable_for_other_blocks_after_detecting_corruption() {
    use horam::core::StorageLayer;
    let config = HOramConfig::new(64, 8, 16).with_seed(6);
    let device = MachineConfig::dac2019().build_storage(SimClock::new(), None);
    let master = MasterKey::from_bytes([56u8; 32]);
    let keys = KeyHierarchy::new(master.clone(), "fi/recover");
    let posmap = horam::core::build_posmap(&config, &master, false).unwrap();
    let mut layer = StorageLayer::new(&config, device, keys, posmap).unwrap();

    let horam::core::Location::Storage { slot } = layer.posmap_mut().location(BlockId(2)).unwrap()
    else {
        panic!("block 2 must start on storage");
    };
    corrupt_one_block(layer.device_mut(), slot);
    assert!(layer.fetch(BlockId(2)).is_err());

    // Undamaged blocks still fetch fine.
    let load = layer.fetch(BlockId(3)).expect("clean block fetches");
    assert_eq!(load.block.unwrap().0, BlockId(3));
}

/// Failed fsync is a *transient, recoverable* event for the durable
/// backend: when every sync is refused, the undo journal is never
/// truncated, so a crash after buffered writes leaves the journal
/// replayable — reopening rolls the data file back to the last
/// successful commit point, byte for byte, and the uncommitted epoch
/// simply never happened.
#[test]
fn failed_fsync_leaves_journal_replayable_on_reopen() {
    use horam::storage::fault::{FaultConfig, FaultyStore};
    use horam::storage::file::{scratch_dir, FileStore, FileStoreConfig};
    use horam::storage::store::DataStore;

    let dir = scratch_dir("fsync-fault");
    let path = dir.join("dev.horam");
    let journal = dir.join("dev.horam.undo");
    let config = FileStoreConfig::new(32, 64).with_write_back_slots(4);
    let sealer = BlockSealer::new(&MasterKey::from_bytes([57u8; 32]).derive("fi/fsync", 0));

    // Epoch 1: a committed state (sync succeeds, journal truncated).
    {
        let mut store = FileStore::open(&path, config.clone()).expect("open");
        store.put(3, sealer.seal(3, 0, b"committed")).expect("put");
        store.sync().expect("clean sync commits");

        // Epoch 2 behind an fsync-refusing injector: overwrite slot 3 and
        // add enough new slots to overflow the write-back buffer, forcing
        // a flush whose undo images land in the journal. Every sync
        // attempt fails typed-transient before reaching the file.
        let mut faulty = FaultyStore::new(
            Box::new(store),
            FaultConfig {
                seed: 11,
                fsync_fail_permille: 1000,
                ..FaultConfig::default()
            },
        );
        faulty
            .put(3, sealer.seal(3, 1, b"uncommitted"))
            .expect("buffered put");
        for slot in 7..12u64 {
            faulty
                .put(slot, sealer.seal(slot, 0, b"new"))
                .expect("buffered put");
        }
        let refused = faulty.sync();
        assert!(
            matches!(
                refused,
                Err(StorageError::TransientFault { op: "sync", .. })
            ),
            "injected fsync failure must surface typed: {refused:?}"
        );
        assert_eq!(faulty.stats().fsync_failures, 1);
        let journal_len = std::fs::metadata(&journal).expect("journal exists").len();
        assert!(
            journal_len > 0,
            "the flushed epoch's undo images must be journaled"
        );
        // Crash: the store drops without ever committing epoch 2.
    }

    // Reopen: journal replay rolls the file back to the last commit.
    let mut store = FileStore::open(&path, config).expect("reopen replays journal");
    assert_eq!(
        store.get(3).expect("get").expect("slot survives"),
        sealer.seal(3, 0, b"committed"),
        "rollback must restore the committed bytes"
    );
    for slot in 7..12u64 {
        assert!(
            store.get(slot).expect("get").is_none(),
            "uncommitted slot {slot} must vanish with the rollback"
        );
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
