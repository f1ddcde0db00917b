//! Durable snapshots of the trusted client state.
//!
//! H-ORAM's trust boundary puts everything *except* the storage device
//! inside the client: stash, position map, permutation list, key epochs,
//! scheduling counters, clocks, statistics. A **snapshot** serializes all
//! of it into one sealed envelope (`oram-crypto::persist`): ChaCha20
//! encryption plus a SipHash tag under keys derived from the instance's
//! master key, so a snapshot at rest leaks nothing beyond its size (and
//! whether two snapshots captured identical state — see
//! [`envelope_seq`]), and any truncation or tampering is rejected at
//! restore time.
//!
//! Together with a durable storage backend
//! (`oram-storage::file::FileStore`), snapshots give the reproduction its
//! recovery invariant:
//!
//! 1. [`HOram::snapshot`](crate::horam::HOram::snapshot) syncs the device
//!    file (its commit point) and seals the trusted state;
//! 2. the engine may then be killed at **any** later cycle boundary —
//!    including mid-period, with the write-back buffer half flushed;
//! 3. reopening the file rolls its undo journal back to the commit point,
//!    [`HOram::restore`](crate::horam::HOram::restore) rebuilds the
//!    client state, and replaying the post-snapshot requests produces
//!    byte-identical responses, traces, and statistics to a run that was
//!    never interrupted (`tests/persistence.rs` proves it by property).
//!
//! This module holds the shared plumbing: envelope kinds, the SIV-style
//! nonce derivation, and the [`HOramConfig`] codec (a snapshot embeds
//! its configuration so restore can validate geometry).

use crate::config::{HOramConfig, PosmapMode, RecursivePosmapConfig, StagePlan};
use oram_crypto::persist::{PersistError, StateReader, StateWriter};
use oram_storage::cache::CacheConfig;

/// Envelope kind of a single-instance snapshot.
pub const KIND_SINGLE: u32 = 1;
/// Envelope kind of a sharded snapshot (a manifest and N inline shard
/// bodies).
pub const KIND_SHARDED: u32 = 2;

/// Key-derivation domain for snapshot sealing.
pub const SNAPSHOT_DOMAIN: &str = "horam/snapshot";

/// The envelope sequence for a snapshot body: a keyed SipHash PRF of the
/// serialized plaintext (SIV-style deterministic nonce derivation). A
/// monotone counter would repeat with *different* plaintexts whenever
/// execution forks at a restore point — the original and a restored
/// replica would both seal their next snapshot under the same
/// `(key, nonce)` pair, and XORing those ciphertexts cancels the
/// keystream. Deriving the nonce from the content instead means two
/// snapshots collide only when their entire trusted state is identical,
/// in which case the ciphertexts are identical too: the only thing a
/// snapshot at rest can leak is its size and whether two snapshots
/// captured the same state.
pub fn envelope_seq(keys: &oram_crypto::keys::SubKeys, body: &[u8]) -> u64 {
    let mut mac = oram_crypto::siphash::SipHash24::new(keys.prf());
    mac.write_u64(body.len() as u64);
    mac.write(body);
    mac.finish()
}

/// Serializes an [`HOramConfig`] (embedded in every snapshot so restore
/// can rebuild derived structures and validate geometry) — every field
/// but [`worker_threads`](HOramConfig::worker_threads), which belongs to
/// the host that runs the engine.
///
/// The three `save_*` functions destructure their struct exhaustively
/// (no `..`), so a field added without a codec line fails to compile.
pub fn save_config(config: &HOramConfig, w: &mut StateWriter) {
    let HOramConfig {
        capacity,
        payload_len,
        memory_slots,
        stages,
        prefetch_distance,
        partial_shuffle_ratio,
        io_batch,
        // A host property: the restoring host picks its own.
        worker_threads: _,
        cache,
        posmap,
        seed,
    } = config;
    w.put_u64(*capacity);
    w.put_usize(*payload_len);
    w.put_u64(*memory_slots);
    w.put_usize(stages.len());
    for StagePlan { c, fraction } in stages {
        w.put_u32(*c);
        w.put_f64(*fraction);
    }
    w.put_usize(*prefetch_distance);
    match partial_shuffle_ratio {
        None => w.put_bool(false),
        Some(r) => {
            w.put_bool(true);
            w.put_f64(*r);
        }
    }
    w.put_u64(*io_batch);
    save_cache_config(cache.as_ref(), w);
    save_posmap_mode(posmap, w);
    w.put_u64(*seed);
}

fn save_posmap_mode(posmap: &PosmapMode, w: &mut StateWriter) {
    let PosmapMode::Recursive(rcfg) = posmap else {
        w.put_bool(false);
        return;
    };
    let RecursivePosmapConfig {
        cache_pages,
        backing_dir,
    } = rcfg;
    w.put_bool(true);
    w.put_usize(*cache_pages);
    match backing_dir {
        None => w.put_bool(false),
        Some(dir) => {
            w.put_bool(true);
            w.put_bytes(dir.as_bytes());
        }
    }
}

fn load_posmap_mode(r: &mut StateReader<'_>) -> Result<PosmapMode, PersistError> {
    if !r.get_bool()? {
        return Ok(PosmapMode::Flat);
    }
    let cache_pages = r.get_usize()?;
    let backing_dir = if r.get_bool()? {
        let dir = String::from_utf8(r.get_bytes()?.to_vec())
            .map_err(|_| PersistError::Malformed("posmap backing dir not UTF-8".into()))?;
        Some(dir)
    } else {
        None
    };
    Ok(PosmapMode::Recursive(RecursivePosmapConfig {
        cache_pages,
        backing_dir,
    }))
}

fn save_cache_config(cache: Option<&CacheConfig>, w: &mut StateWriter) {
    let Some(cache) = cache else {
        w.put_bool(false);
        return;
    };
    let CacheConfig {
        capacity_blocks,
        hit_nanos,
        writeback_sync_fraction,
    } = cache;
    w.put_bool(true);
    w.put_u64(*capacity_blocks);
    w.put_u64(*hit_nanos);
    w.put_f64(*writeback_sync_fraction);
}

fn load_cache_config(r: &mut StateReader<'_>) -> Result<Option<CacheConfig>, PersistError> {
    if !r.get_bool()? {
        return Ok(None);
    }
    Ok(Some(CacheConfig {
        capacity_blocks: r.get_u64()?,
        hit_nanos: r.get_u64()?,
        writeback_sync_fraction: r.get_f64()?,
    }))
}

/// Reads a configuration serialized by [`save_config`], with the host's
/// default [`worker_threads`](HOramConfig::worker_threads).
///
/// # Errors
///
/// [`PersistError`] on truncation or malformed fields.
pub fn load_config(r: &mut StateReader<'_>) -> Result<HOramConfig, PersistError> {
    let capacity = r.get_u64()?;
    let payload_len = r.get_usize()?;
    let memory_slots = r.get_u64()?;
    let stage_count = r.get_usize()?;
    if stage_count == 0 || stage_count > 64 {
        return Err(PersistError::Malformed(format!(
            "{stage_count} scheduler stages"
        )));
    }
    let mut stages = Vec::with_capacity(stage_count);
    for _ in 0..stage_count {
        stages.push(StagePlan {
            c: r.get_u32()?,
            fraction: r.get_f64()?,
        });
    }
    let prefetch_distance = r.get_usize()?;
    let partial_shuffle_ratio = if r.get_bool()? {
        Some(r.get_f64()?)
    } else {
        None
    };
    let io_batch = r.get_u64()?;
    let cache = load_cache_config(r)?;
    let posmap = load_posmap_mode(r)?;
    let seed = r.get_u64()?;
    Ok(HOramConfig {
        capacity,
        payload_len,
        memory_slots,
        stages,
        prefetch_distance,
        partial_shuffle_ratio,
        io_batch,
        worker_threads: crate::config::host_threads(),
        cache,
        posmap,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every persisted field — of the engine config, the cache config and
    /// the recursive posmap config — at a non-default value.
    #[test]
    fn config_roundtrips_exactly_with_every_field_non_default() {
        let mut cache = CacheConfig::lru(128);
        cache.hit_nanos = 750;
        cache.writeback_sync_fraction = 0.5;
        let config = HOramConfig::new(4096, 16, 1024)
            .with_fixed_c(2)
            .with_prefetch_distance(7)
            .with_partial_shuffle(0.25)
            .with_io_batch(8)
            .with_cache(cache)
            .with_posmap(PosmapMode::Recursive(RecursivePosmapConfig {
                cache_pages: 4,
                backing_dir: Some("/tmp/posmap".into()),
            }))
            .with_seed(99);
        let mut w = StateWriter::new();
        save_config(&config, &mut w);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        let back = load_config(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(config, back);
    }

    #[test]
    fn truncated_config_errors() {
        let config = HOramConfig::new(64, 8, 16);
        let mut w = StateWriter::new();
        save_config(&config, &mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = StateReader::new(&bytes[..cut]);
            assert!(
                load_config(&mut r).and_then(|_| r.finish()).is_err(),
                "cut at {cut} accepted"
            );
        }
    }
}
