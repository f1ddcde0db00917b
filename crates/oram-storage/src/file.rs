//! Durable file-backed storage: a slot-indexed layout over a real file,
//! with a write-back buffer and a crash-consistent undo journal.
//!
//! Every other [`crate::store::DataStore`] in this crate is volatile; this
//! one actually persists bytes, so the H-ORAM reproduction can express
//! restart and crash scenarios. The design mirrors classic single-file
//! storage engines:
//!
//! * **Slot-indexed layout.** The file is a fixed header page followed by
//!   `capacity` fixed-size records, one per slot: a record holds an
//!   occupancy flag, the sealed block's header fields (`block_id`,
//!   `epoch`, `tag`), the body length, and up to `body_capacity` body
//!   bytes. Slot `s` lives at a computable offset — no index structure,
//!   no compaction.
//! * **O_TRUNC-free open.** [`FileStore::open`] never truncates: an
//!   existing file is validated against its header (magic, version,
//!   geometry) and adopted; a new file is initialized with all-empty
//!   records. Opening is how recovery happens.
//! * **Write-back buffer.** Writes land in a small in-memory buffer and
//!   reach the file only when the buffer exceeds its bound, or at an
//!   explicit [`sync`](crate::store::DataStore::sync). Reads check the
//!   buffer first.
//! * **Undo journal.** Before a flushed record overwrites its on-file
//!   predecessor, the predecessor is appended to a sidecar journal
//!   (`<path>.undo`), each entry checksummed. `sync` is the commit
//!   point: flush, fsync the data file, then truncate the journal. If the
//!   process dies between syncs, the next [`open`](FileStore::open) rolls
//!   the file back by applying valid journal entries in reverse — the
//!   file is restored to its state at the last sync, byte for byte. A
//!   torn final journal entry is skipped safely: entries are written (and
//!   flushed) *before* their data write, so an invalid entry implies the
//!   corresponding data write never happened.
//!
//! Together with the sealed snapshots of the trusted client state
//! (`horam-core::persist`), this yields the recovery invariant the
//! persistence tests pin down: kill the engine anywhere, reopen the file,
//! restore the latest snapshot, and replay — byte-identical to a run that
//! was never interrupted.
//!
//! Only ciphertext ever reaches the file: the store holds
//! [`SealedBlock`]s, whose bodies the trusted layer encrypted and
//! authenticated before they got here.

use crate::store::DataStore;
use crate::StorageError;
use oram_crypto::seal::SealedBlock;
use oram_crypto::siphash::SipHash24;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening a device file.
const FILE_MAGIC: [u8; 8] = *b"HORAMDEV";
/// Device-file format version.
const FILE_VERSION: u32 = 1;
/// Header page size; record 0 starts here.
const HEADER_LEN: u64 = 64;
/// Fixed per-record prefix: occupancy flag + body length + block_id +
/// epoch + tag.
const RECORD_PREFIX: usize = 1 + 4 + 8 + 8 + 8;
/// Journal entry prefix: slot address; followed by one full record and a
/// trailing checksum.
const JOURNAL_PREFIX: usize = 8;
/// Fixed (non-secret) key for journal-entry checksums — integrity against
/// torn writes, not authenticity (the records are already sealed).
const JOURNAL_CHECKSUM_KEY: [u8; 16] = *b"horam-undo-jrnl!";

/// Geometry and policy of a [`FileStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStoreConfig {
    /// Number of slots the file is laid out for.
    pub capacity_slots: u64,
    /// Maximum sealed-body bytes a record can hold. Writes with longer
    /// bodies are rejected ([`StorageError::Backend`]).
    pub body_capacity: usize,
    /// Write-back buffer bound in dirty slots; exceeding it flushes the
    /// whole buffer (journaling first).
    pub write_back_slots: usize,
    /// Whether [`sync`](crate::store::DataStore::sync) calls `fsync`.
    /// `false` keeps tests and CI fast; crash consistency *within the
    /// process lifetime* (kill-the-engine scenarios) holds either way,
    /// because the journal ordering is in program order.
    pub fsync: bool,
}

impl FileStoreConfig {
    /// A configuration sized for `capacity_slots` records of up to
    /// `body_capacity` body bytes, with a 64-slot write-back buffer and
    /// no fsync.
    pub fn new(capacity_slots: u64, body_capacity: usize) -> Self {
        Self {
            capacity_slots,
            body_capacity,
            write_back_slots: 64,
            fsync: false,
        }
    }

    /// Replaces the write-back buffer bound.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn with_write_back_slots(mut self, slots: usize) -> Self {
        assert!(slots >= 1, "write-back buffer needs at least one slot");
        self.write_back_slots = slots;
        self
    }

    fn record_len(&self) -> u64 {
        (RECORD_PREFIX + self.body_capacity) as u64
    }
}

fn io_err(path: &Path, op: &str, e: std::io::Error) -> StorageError {
    StorageError::Backend {
        path: path.display().to_string(),
        reason: format!("{op}: {e}"),
    }
}

fn journal_checksum(slot: u64, record: &[u8]) -> u64 {
    let mut mac = SipHash24::new(&JOURNAL_CHECKSUM_KEY);
    mac.write_u64(slot);
    mac.write_u64(record.len() as u64);
    mac.write(record);
    mac.finish()
}

/// A durable, crash-consistent file-backed block store. See the
/// [module docs](self).
#[derive(Debug)]
pub struct FileStore {
    config: FileStoreConfig,
    path: PathBuf,
    journal_path: PathBuf,
    file: File,
    journal: File,
    /// Dirty slots not yet flushed, as the records the flush will write;
    /// an empty record is a pending erase. `BTreeMap` so flush order is
    /// deterministic.
    buffer: BTreeMap<u64, Vec<u8>>,
    /// One record's bytes, reused by every read from the file.
    scratch: Vec<u8>,
    /// Occupied-slot count over file ∪ buffer.
    occupied: usize,
    /// Per-slot occupancy of the *file* image (buffer overlays it).
    file_occupied: Vec<bool>,
    /// Slots journaled since the last sync (each slot is journaled at
    /// most once per sync interval — the first undo image is the one
    /// that matters).
    journaled: Vec<bool>,
    journal_dirty: bool,
}

impl FileStore {
    /// Opens (or creates) the store at `path` without ever truncating.
    ///
    /// A pre-existing file is validated against `config` (magic, version,
    /// slot count, record size) and **recovered**: any committed-but-
    /// unsynced writes recorded in the undo journal are rolled back, so
    /// the adopted contents are exactly the state at the last
    /// [`sync`](crate::store::DataStore::sync). A fresh file is laid out
    /// with every record empty.
    ///
    /// # Errors
    ///
    /// [`StorageError::Backend`] for I/O failures or a header that does
    /// not match `config`.
    pub fn open(path: impl Into<PathBuf>, config: FileStoreConfig) -> Result<Self, StorageError> {
        assert!(config.capacity_slots > 0, "capacity must be positive");
        assert!(
            config.write_back_slots > 0,
            "write-back bound must be positive"
        );
        let path = path.into();
        let journal_path = {
            let mut os = path.clone().into_os_string();
            os.push(".undo");
            PathBuf::from(os)
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| io_err(&path, "create dir", e))?;
            }
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err(&path, "open", e))?;
        let file_len = file.metadata().map_err(|e| io_err(&path, "stat", e))?.len();
        let journal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&journal_path)
            .map_err(|e| io_err(&journal_path, "open journal", e))?;

        let mut store = Self {
            file_occupied: vec![false; config.capacity_slots as usize],
            journaled: vec![false; config.capacity_slots as usize],
            scratch: vec![0u8; config.record_len() as usize],
            config,
            path,
            journal_path,
            file,
            journal,
            buffer: BTreeMap::new(),
            occupied: 0,
            journal_dirty: false,
        };
        if file_len == 0 {
            store.init_fresh()?;
        } else {
            store.validate_header()?;
            store.roll_back_journal()?;
            store.scan_occupancy()?;
        }
        // The journal is committed (empty) after either path.
        store.truncate_journal()?;
        Ok(store)
    }

    /// The data file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The store geometry and policy.
    pub fn config(&self) -> &FileStoreConfig {
        &self.config
    }

    /// Dirty slots currently held in the write-back buffer.
    pub fn buffered_writes(&self) -> usize {
        self.buffer.len()
    }

    fn record_offset(&self, slot: u64) -> u64 {
        HEADER_LEN + slot * self.config.record_len()
    }

    fn check_slot(&self, slot: u64) -> Result<(), StorageError> {
        if slot >= self.config.capacity_slots {
            return Err(StorageError::OutOfCapacity {
                device: self.path.display().to_string(),
                addr: slot,
                capacity: self.config.capacity_slots,
            });
        }
        Ok(())
    }

    fn init_fresh(&mut self) -> Result<(), StorageError> {
        let mut header = [0u8; HEADER_LEN as usize];
        header[..8].copy_from_slice(&FILE_MAGIC);
        header[8..12].copy_from_slice(&FILE_VERSION.to_le_bytes());
        header[12..20].copy_from_slice(&self.config.capacity_slots.to_le_bytes());
        header[20..28].copy_from_slice(&(self.config.body_capacity as u64).to_le_bytes());
        self.file
            .seek(SeekFrom::Start(0))
            .and_then(|_| self.file.write_all(&header))
            .map_err(|e| io_err(&self.path, "write header", e))?;
        // Lay the empty records out in one streaming pass so the file has
        // its final size and every record a valid (empty) image.
        let record = vec![0u8; self.config.record_len() as usize];
        for _ in 0..self.config.capacity_slots {
            self.file
                .write_all(&record)
                .map_err(|e| io_err(&self.path, "init record", e))?;
        }
        Ok(())
    }

    fn validate_header(&mut self) -> Result<(), StorageError> {
        let mut header = [0u8; HEADER_LEN as usize];
        self.file
            .seek(SeekFrom::Start(0))
            .and_then(|_| self.file.read_exact(&mut header))
            .map_err(|e| io_err(&self.path, "read header", e))?;
        let fail = |reason: String| StorageError::Backend {
            path: self.path.display().to_string(),
            reason,
        };
        if header[..8] != FILE_MAGIC {
            return Err(fail("not a device file (bad magic)".into()));
        }
        let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if version != FILE_VERSION {
            return Err(fail(format!(
                "device file version {version}, expected {FILE_VERSION}"
            )));
        }
        let slots = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
        let body = u64::from_le_bytes(header[20..28].try_into().expect("8 bytes"));
        if slots != self.config.capacity_slots || body != self.config.body_capacity as u64 {
            return Err(fail(format!(
                "geometry mismatch: file has {slots} slots × {body} body bytes, \
                 config wants {} × {}",
                self.config.capacity_slots, self.config.body_capacity
            )));
        }
        Ok(())
    }

    /// Applies valid journal entries in reverse, restoring the data file
    /// to its state at the last sync. Invalid or torn entries terminate
    /// the valid prefix (their data writes never happened — see the
    /// module docs on write ordering).
    fn roll_back_journal(&mut self) -> Result<(), StorageError> {
        let record_len = self.config.record_len() as usize;
        let entry_len = JOURNAL_PREFIX + record_len + 8;
        let mut bytes = Vec::new();
        self.journal
            .seek(SeekFrom::Start(0))
            .and_then(|_| self.journal.read_to_end(&mut bytes))
            .map_err(|e| io_err(&self.journal_path, "read journal", e))?;
        let mut entries: Vec<(u64, &[u8])> = Vec::new();
        for chunk in bytes.chunks(entry_len) {
            if chunk.len() < entry_len {
                break; // torn final entry: its data write never happened
            }
            let slot = u64::from_le_bytes(chunk[..8].try_into().expect("8 bytes"));
            let record = &chunk[JOURNAL_PREFIX..JOURNAL_PREFIX + record_len];
            let sum = u64::from_le_bytes(
                chunk[JOURNAL_PREFIX + record_len..]
                    .try_into()
                    .expect("8 bytes"),
            );
            if slot >= self.config.capacity_slots || journal_checksum(slot, record) != sum {
                break; // corrupt entry: stop the valid prefix here
            }
            entries.push((slot, record));
        }
        for (slot, record) in entries.into_iter().rev() {
            let offset = self.record_offset(slot);
            self.file
                .seek(SeekFrom::Start(offset))
                .and_then(|_| self.file.write_all(record))
                .map_err(|e| io_err(&self.path, "roll back record", e))?;
        }
        Ok(())
    }

    fn truncate_journal(&mut self) -> Result<(), StorageError> {
        self.journal
            .set_len(0)
            .and_then(|_| self.journal.seek(SeekFrom::Start(0)).map(|_| ()))
            .map_err(|e| io_err(&self.journal_path, "truncate journal", e))?;
        self.journaled.iter_mut().for_each(|j| *j = false);
        self.journal_dirty = false;
        Ok(())
    }

    fn scan_occupancy(&mut self) -> Result<(), StorageError> {
        let record_len = self.config.record_len() as usize;
        self.file
            .seek(SeekFrom::Start(HEADER_LEN))
            .map_err(|e| io_err(&self.path, "seek records", e))?;
        self.occupied = 0;
        let mut record = vec![0u8; record_len];
        for slot in 0..self.config.capacity_slots {
            self.file
                .read_exact(&mut record)
                .map_err(|e| io_err(&self.path, "scan record", e))?;
            let occupied = record[0] == 1;
            self.file_occupied[slot as usize] = occupied;
            if occupied {
                self.occupied += 1;
            }
        }
        Ok(())
    }

    /// Reads `slot`'s record from the file into `out`; `false` if empty.
    fn read_record(&mut self, slot: u64, out: &mut SealedBlock) -> Result<bool, StorageError> {
        let offset = self.record_offset(slot);
        self.file
            .seek(SeekFrom::Start(offset))
            .and_then(|_| self.file.read_exact(&mut self.scratch))
            .map_err(|e| io_err(&self.path, "read record", e))?;
        decode_record(&self.scratch, &self.path, out)
    }

    /// Reads `slot` into `out` from the write-back buffer or the file.
    fn read_slot(&mut self, slot: u64, out: &mut SealedBlock) -> Result<bool, StorageError> {
        match self.buffer.get(&slot) {
            Some(pending) => decode_record(pending, &self.path, out),
            None => self.read_record(slot, out),
        }
    }

    fn encode_record(&self, block: &SealedBlock) -> Result<Vec<u8>, StorageError> {
        let body = block.ciphertext();
        if body.len() > self.config.body_capacity {
            return Err(StorageError::Backend {
                path: self.path.display().to_string(),
                reason: format!(
                    "sealed body of {} bytes exceeds record capacity {}",
                    body.len(),
                    self.config.body_capacity
                ),
            });
        }
        let mut record = vec![0u8; self.config.record_len() as usize];
        record[0] = 1;
        record[1..5].copy_from_slice(&(body.len() as u32).to_le_bytes());
        record[5..13].copy_from_slice(&block.block_id().to_le_bytes());
        record[13..21].copy_from_slice(&block.epoch().to_le_bytes());
        record[21..29].copy_from_slice(&block.tag().to_le_bytes());
        record[RECORD_PREFIX..RECORD_PREFIX + body.len()].copy_from_slice(body);
        Ok(record)
    }

    /// Journals the current on-file record of `slot` (once per sync
    /// interval), then returns. Must be called before the record is
    /// overwritten.
    fn journal_undo(&mut self, slot: u64) -> Result<(), StorageError> {
        if self.journaled[slot as usize] {
            return Ok(());
        }
        let mut record = vec![0u8; self.config.record_len() as usize];
        let offset = self.record_offset(slot);
        self.file
            .seek(SeekFrom::Start(offset))
            .and_then(|_| self.file.read_exact(&mut record))
            .map_err(|e| io_err(&self.path, "read undo image", e))?;
        let mut entry = Vec::with_capacity(JOURNAL_PREFIX + record.len() + 8);
        entry.extend_from_slice(&slot.to_le_bytes());
        entry.extend_from_slice(&record);
        entry.extend_from_slice(&journal_checksum(slot, &record).to_le_bytes());
        self.journal
            .seek(SeekFrom::End(0))
            .and_then(|_| self.journal.write_all(&entry))
            .map_err(|e| io_err(&self.journal_path, "append undo", e))?;
        self.journaled[slot as usize] = true;
        self.journal_dirty = true;
        Ok(())
    }

    /// Flushes the write-back buffer to the file (journaling each target
    /// record first). Does **not** commit: the journal stays live until
    /// the next sync, so a crash after this flush still rolls back.
    fn flush_buffer(&mut self) -> Result<(), StorageError> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        // Journal every undo image first, flushing the journal file before
        // any data write: an entry on disk without its data write is safe
        // (rollback rewrites the same bytes), the converse is not.
        let dirty_slots: Vec<u64> = self.buffer.keys().copied().collect();
        for &slot in &dirty_slots {
            self.journal_undo(slot)?;
        }
        if self.journal_dirty {
            self.journal
                .flush()
                .map_err(|e| io_err(&self.journal_path, "flush journal", e))?;
            if self.config.fsync {
                self.journal
                    .sync_data()
                    .map_err(|e| io_err(&self.journal_path, "fsync journal", e))?;
            }
        }
        // Each entry leaves the buffer only once its record is on the
        // file: an I/O error mid-flush keeps the unwritten tail pending
        // (reads still see it, a retried flush or sync resumes it) instead
        // of silently discarding dirty slots — which a later sync would
        // otherwise commit as a half-applied batch.
        let empty = vec![0u8; self.config.record_len() as usize];
        while let Some((slot, record)) = self.buffer.pop_first() {
            let offset = self.record_offset(slot);
            let image = if record.is_empty() { &empty } else { &record };
            let written = self
                .file
                .seek(SeekFrom::Start(offset))
                .and_then(|_| self.file.write_all(image))
                .map_err(|e| io_err(&self.path, "flush record", e));
            match written {
                Ok(()) => self.file_occupied[slot as usize] = !record.is_empty(),
                Err(e) => {
                    self.buffer.insert(slot, record);
                    return Err(e);
                }
            }
        }
        Ok(())
    }
}

/// Decodes a record into `out`; `false` for an empty record (or the
/// empty vector that marks a pending erase).
fn decode_record(record: &[u8], path: &Path, out: &mut SealedBlock) -> Result<bool, StorageError> {
    match record.first() {
        None | Some(0) => return Ok(false),
        Some(1) => {}
        // Any other flag byte is on-disk corruption; erroring here keeps
        // decode and the occupancy scan (`flag == 1`) in agreement.
        Some(other) => {
            return Err(StorageError::Backend {
                path: path.display().to_string(),
                reason: format!("record flag byte {other} (corrupt record header)"),
            })
        }
    }
    let body_len = u32::from_le_bytes(record[1..5].try_into().expect("4 bytes")) as usize;
    if RECORD_PREFIX + body_len > record.len() {
        return Err(StorageError::Backend {
            path: path.display().to_string(),
            reason: format!("record body length {body_len} exceeds record size"),
        });
    }
    let word = |i: usize| u64::from_le_bytes(record[i..i + 8].try_into().expect("8 bytes"));
    out.assign(
        word(5),
        word(13),
        &record[RECORD_PREFIX..RECORD_PREFIX + body_len],
        word(21),
    );
    Ok(true)
}

impl DataStore for FileStore {
    fn get(&mut self, addr: u64, out: &mut SealedBlock) -> Result<bool, StorageError> {
        self.check_slot(addr)?;
        self.read_slot(addr, out)
    }

    fn put(&mut self, addr: u64, block: &SealedBlock) -> Result<(), StorageError> {
        self.check_slot(addr)?;
        let record = self.encode_record(block)?;
        let was_occupied = match self.buffer.get(&addr) {
            Some(pending) => !pending.is_empty(),
            None => self.file_occupied[addr as usize],
        };
        if !was_occupied {
            self.occupied += 1;
        }
        self.buffer.insert(addr, record);
        if self.buffer.len() > self.config.write_back_slots {
            self.flush_buffer()?;
        }
        Ok(())
    }

    fn remove(&mut self, addr: u64) -> Result<Option<SealedBlock>, StorageError> {
        self.check_slot(addr)?;
        let mut previous = SealedBlock::default();
        if !self.read_slot(addr, &mut previous)? {
            return Ok(None);
        }
        self.occupied -= 1;
        self.buffer.insert(addr, Vec::new());
        if self.buffer.len() > self.config.write_back_slots {
            self.flush_buffer()?;
        }
        Ok(Some(previous))
    }

    fn len(&self) -> usize {
        self.occupied
    }

    fn clear(&mut self) -> Result<(), StorageError> {
        for slot in 0..self.config.capacity_slots {
            let occupied = match self.buffer.get(&slot) {
                Some(pending) => !pending.is_empty(),
                None => self.file_occupied[slot as usize],
            };
            if occupied {
                self.buffer.insert(slot, Vec::new());
            }
        }
        self.occupied = 0;
        self.flush_buffer()
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.flush_buffer()?;
        self.file
            .flush()
            .map_err(|e| io_err(&self.path, "flush", e))?;
        if self.config.fsync {
            self.file
                .sync_all()
                .map_err(|e| io_err(&self.path, "fsync", e))?;
        }
        // Commit point: the data file is stable, the undo log is void.
        self.truncate_journal()
    }

    fn durable(&self) -> bool {
        true
    }

    fn snapshot_blocks(&mut self) -> Result<Vec<(u64, SealedBlock)>, StorageError> {
        // One streaming pass (the checkpoint fingerprint runs this over
        // the whole device): flush so the file is the complete logical
        // image, then read records sequentially into one reused buffer
        // instead of a seek per slot.
        self.flush_buffer()?;
        let record_len = self.config.record_len() as usize;
        self.file
            .seek(SeekFrom::Start(HEADER_LEN))
            .map_err(|e| io_err(&self.path, "seek records", e))?;
        let mut record = vec![0u8; record_len];
        let mut out = Vec::with_capacity(self.occupied);
        for slot in 0..self.config.capacity_slots {
            self.file
                .read_exact(&mut record)
                .map_err(|e| io_err(&self.path, "stream record", e))?;
            let mut block = SealedBlock::default();
            if decode_record(&record, &self.path, &mut block)? {
                out.push((slot, block));
            }
        }
        Ok(out)
    }
}

/// A scratch directory under the **workspace** `target/` tree, unique per
/// call. Tests and benches that exercise the file backend must confine
/// their files here so `cargo test` leaves the repository clean (CI
/// asserts it); the directory is the caller's to remove.
pub fn scratch_dir(label: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            // Walk up from this crate's manifest to the workspace root
            // (the directory holding Cargo.lock), then into its target/.
            let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            loop {
                if dir.join("Cargo.lock").exists() {
                    break dir.join("target");
                }
                if !dir.pop() {
                    break PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target");
                }
            }
        });
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = target
        .join("scratch")
        .join(format!("{label}-{}-{unique}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir under target/ is creatable");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_crypto::keys::MasterKey;
    use oram_crypto::seal::BlockSealer;

    fn sealer() -> BlockSealer {
        BlockSealer::new(&MasterKey::from_bytes([4u8; 32]).derive("file-test", 0))
    }

    fn get(store: &mut FileStore, slot: u64) -> Result<Option<SealedBlock>, StorageError> {
        let mut out = SealedBlock::default();
        Ok(store.get(slot, &mut out)?.then_some(out))
    }

    fn config() -> FileStoreConfig {
        FileStoreConfig::new(32, 64).with_write_back_slots(4)
    }

    struct Scratch(PathBuf);
    impl Scratch {
        fn new(label: &str) -> Self {
            Self(scratch_dir(label))
        }
        fn file(&self) -> PathBuf {
            self.0.join("dev.horam")
        }
    }
    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn put_get_remove_roundtrip_through_the_file() {
        let scratch = Scratch::new("file-roundtrip");
        let mut store = FileStore::open(scratch.file(), config()).unwrap();
        let s = sealer();
        assert!(get(&mut store, 3).unwrap().is_none());
        store.put(3, &s.seal(3, 0, b"bytes")).unwrap();
        assert_eq!(get(&mut store, 3).unwrap().unwrap(), s.seal(3, 0, b"bytes"));
        assert_eq!(DataStore::len(&store), 1);
        // Force through the buffer and read back from the file proper.
        store.sync().unwrap();
        assert_eq!(store.buffered_writes(), 0);
        assert_eq!(get(&mut store, 3).unwrap().unwrap(), s.seal(3, 0, b"bytes"));
        assert_eq!(store.remove(3).unwrap().unwrap(), s.seal(3, 0, b"bytes"));
        assert!(get(&mut store, 3).unwrap().is_none());
        assert_eq!(DataStore::len(&store), 0);
    }

    #[test]
    fn contents_survive_reopen_after_sync() {
        let scratch = Scratch::new("file-reopen");
        let s = sealer();
        {
            let mut store = FileStore::open(scratch.file(), config()).unwrap();
            for slot in 0..10u64 {
                store
                    .put(slot, &s.seal(slot, 2, &[slot as u8; 16]))
                    .unwrap();
            }
            store.sync().unwrap();
        }
        let mut reopened = FileStore::open(scratch.file(), config()).unwrap();
        assert_eq!(DataStore::len(&reopened), 10);
        for slot in 0..10u64 {
            assert_eq!(
                get(&mut reopened, slot).unwrap().unwrap(),
                s.seal(slot, 2, &[slot as u8; 16]),
                "slot {slot}"
            );
        }
    }

    #[test]
    fn unsynced_writes_roll_back_on_reopen() {
        let scratch = Scratch::new("file-rollback");
        let s = sealer();
        {
            let mut store = FileStore::open(scratch.file(), config()).unwrap();
            store.put(1, &s.seal(1, 0, b"committed")).unwrap();
            store.sync().unwrap();
            // Overwrite + fresh writes, forcing buffer flushes (bound 4)
            // so the dirty records really reach the file — then "crash"
            // by dropping without sync.
            store.put(1, &s.seal(1, 1, b"doomed")).unwrap();
            for slot in 10..20u64 {
                store.put(slot, &s.seal(slot, 1, b"doomed too")).unwrap();
            }
            assert!(store.buffered_writes() < 11, "flushes must have happened");
        }
        let mut recovered = FileStore::open(scratch.file(), config()).unwrap();
        assert_eq!(
            get(&mut recovered, 1).unwrap().unwrap(),
            s.seal(1, 0, b"committed"),
            "slot 1 must roll back to the synced image"
        );
        for slot in 10..20u64 {
            assert!(
                get(&mut recovered, slot).unwrap().is_none(),
                "slot {slot} leaked"
            );
        }
        assert_eq!(DataStore::len(&recovered), 1);
    }

    #[test]
    fn torn_journal_entry_is_skipped_safely() {
        let scratch = Scratch::new("file-torn-journal");
        let s = sealer();
        let journal_path = {
            let mut os = scratch.file().into_os_string();
            os.push(".undo");
            PathBuf::from(os)
        };
        {
            let mut store = FileStore::open(scratch.file(), config()).unwrap();
            store.put(0, &s.seal(0, 0, b"base")).unwrap();
            store.sync().unwrap();
            store.put(0, &s.seal(0, 1, b"post-sync")).unwrap();
            store.flush_buffer().unwrap();
        }
        // Tear the journal's last entry.
        let bytes = std::fs::read(&journal_path).unwrap();
        assert!(!bytes.is_empty(), "flush must have journaled");
        std::fs::write(&journal_path, &bytes[..bytes.len() - 3]).unwrap();
        let mut recovered = FileStore::open(scratch.file(), config()).unwrap();
        // The torn entry was the only one; rollback applies nothing and
        // the post-sync write survives — still a *consistent* record.
        let block = get(&mut recovered, 0).unwrap().unwrap();
        assert!(block == s.seal(0, 1, b"post-sync") || block == s.seal(0, 0, b"base"));
    }

    #[test]
    fn geometry_mismatch_is_rejected_not_truncated() {
        let scratch = Scratch::new("file-geometry");
        {
            let mut store = FileStore::open(scratch.file(), config()).unwrap();
            store.put(0, &sealer().seal(0, 0, b"data")).unwrap();
            store.sync().unwrap();
        }
        let wrong = FileStoreConfig::new(64, 64);
        assert!(matches!(
            FileStore::open(scratch.file(), wrong),
            Err(StorageError::Backend { .. })
        ));
        // The original contents are untouched by the failed open.
        let mut store = FileStore::open(scratch.file(), config()).unwrap();
        assert!(get(&mut store, 0).unwrap().is_some());
    }

    #[test]
    fn oversized_body_and_out_of_range_slot_error() {
        let scratch = Scratch::new("file-bounds");
        let mut store = FileStore::open(scratch.file(), config()).unwrap();
        assert!(matches!(
            store.put(0, &sealer().seal(0, 0, &[0u8; 100])),
            Err(StorageError::Backend { .. })
        ));
        assert!(matches!(
            store.put(99, &sealer().seal(99, 0, b"x")),
            Err(StorageError::OutOfCapacity { addr: 99, .. })
        ));
        assert!(matches!(
            get(&mut store, 99),
            Err(StorageError::OutOfCapacity { .. })
        ));
    }

    #[test]
    fn clear_empties_everything() {
        let scratch = Scratch::new("file-clear");
        let mut store = FileStore::open(scratch.file(), config()).unwrap();
        let s = sealer();
        for slot in 0..8u64 {
            store.put(slot, &s.seal(slot, 0, b"x")).unwrap();
        }
        store.clear().unwrap();
        assert_eq!(DataStore::len(&store), 0);
        for slot in 0..8u64 {
            assert!(get(&mut store, slot).unwrap().is_none());
        }
    }

    #[test]
    fn scratch_dirs_are_unique_and_under_target() {
        let a = scratch_dir("unique");
        let b = scratch_dir("unique");
        assert_ne!(a, b);
        assert!(a.components().any(|c| c.as_os_str() == "target"));
        let _ = std::fs::remove_dir_all(a);
        let _ = std::fs::remove_dir_all(b);
    }
}
