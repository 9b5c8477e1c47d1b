//! The injectable storage abstraction behind the durability subsystem.
//!
//! Everything the WAL and checkpointer persist goes through the
//! [`Storage`] trait, which models exactly the three durability
//! primitives a log-structured design needs:
//!
//! * **append** — sequential writes to the log file (may be *torn* by a
//!   crash: a prefix of the appended bytes survives);
//! * **atomic whole-file replacement** — checkpoint snapshots and the
//!   manifest (write-temp-then-rename on the real file system: either the
//!   old or the new content survives a crash, never a mix);
//! * **whole-file read / remove** — recovery and log truncation.
//!
//! Two backends ship: [`FsStorage`] over a real directory and
//! [`MemStorage`] over a shared in-memory map (whose bytes survive
//! dropping the handle — the crash-recovery fuzz harness "reboots" by
//! reopening a clone of the same map).  [`crate::fault::FaultyStorage`]
//! wraps either to inject crashes, torn writes and bit flips.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use crate::error::{DurableError, Result};

/// Read `name` until two consecutive reads agree, retrying a bounded
/// number of times.
///
/// Recovery must not trust a single read: a transient fault on the read
/// path (bad DMA, an in-flight bit flip — see
/// [`crate::fault::FaultPlan::flip_read`]) can make durable, acknowledged
/// bytes *look* torn, and a recovery that then truncates or re-persists
/// what it read would turn a transient fault into permanent data loss.
/// Double-reading heals one-shot corruption (the retry observes the clean
/// bytes twice); persistent at-rest corruption passes through unchanged,
/// where the CRC layers detect it.  After `retries` disagreeing pairs the
/// read path itself is declared broken with [`DurableError::Storage`].
pub fn read_stable<S: Storage>(storage: &S, name: &str, retries: usize) -> Result<Option<Vec<u8>>> {
    let mut prev = storage.read(name)?;
    for _ in 0..retries.max(1) {
        let next = storage.read(name)?;
        if next == prev {
            return Ok(next);
        }
        prev = next;
    }
    Err(DurableError::Storage(format!(
        "unstable reads of `{name}`: consecutive reads keep disagreeing"
    )))
}

/// Durability primitives the WAL and checkpointer are written against.
pub trait Storage {
    /// The whole content of `name`, or `None` if the file does not exist.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>>;

    /// Replace `name` atomically: after a crash either the old content or
    /// `data` is observed, never a prefix or a mix.
    fn write_atomic(&mut self, name: &str, data: &[u8]) -> Result<()>;

    /// Append `data` to `name` (creating it when absent), durably.
    fn append(&mut self, name: &str, data: &[u8]) -> Result<()>;

    /// Delete `name`; deleting a missing file is a no-op.
    fn remove(&mut self, name: &str) -> Result<()>;
}

// ----------------------------------------------------------------------
// Real file system
// ----------------------------------------------------------------------

/// [`Storage`] over a real directory: append-mode writes with
/// `sync_all`, and write-temp-then-rename for atomic replacement.
#[derive(Debug)]
pub struct FsStorage {
    root: PathBuf,
}

impl FsStorage {
    /// Open (creating if necessary) the directory `root`.
    pub fn new(root: impl AsRef<Path>) -> Result<Self> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)
            .map_err(|e| DurableError::Storage(format!("create {}: {e}", root.display())))?;
        Ok(FsStorage { root })
    }

    /// The directory this storage persists into.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn io_err(&self, what: &str, name: &str, e: std::io::Error) -> DurableError {
        DurableError::Storage(format!("{what} {}: {e}", self.path(name).display()))
    }
}

impl Storage for FsStorage {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        match std::fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(self.io_err("read", name, e)),
        }
    }

    /// Write-temp-then-rename.  Neither the temporary file nor the
    /// directory is fsynced, so "the old or the new content, never a
    /// prefix" holds only where the file system writes a renamed file's
    /// data before the rename itself (ext4's `auto_da_alloc` does); a
    /// crash elsewhere can leave `name` empty or short.  A short
    /// checkpoint then fails its frame checksums and recovery refuses to
    /// open, detected but not repaired.
    fn write_atomic(&mut self, name: &str, data: &[u8]) -> Result<()> {
        let tmp = self.path(&format!("{name}.tmp"));
        std::fs::write(&tmp, data)
            .map_err(|e| DurableError::Storage(format!("write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, self.path(name)).map_err(|e| self.io_err("rename", name, e))
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<()> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))
            .map_err(|e| self.io_err("open", name, e))?;
        file.write_all(data)
            .and_then(|()| file.sync_all())
            .map_err(|e| self.io_err("append", name, e))
    }

    fn remove(&mut self, name: &str) -> Result<()> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(self.io_err("remove", name, e)),
        }
    }
}

// ----------------------------------------------------------------------
// Shared in-memory backend
// ----------------------------------------------------------------------

/// In-memory [`Storage`] over a map shared between clones.  The bytes
/// outlive any one handle, which is how the fault-injection harness
/// simulates a machine reboot: drop the crashed database, then reopen a
/// clone of the same storage.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    files: Rc<RefCell<BTreeMap<String, Vec<u8>>>>,
}

impl MemStorage {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current size of `name` in bytes (tests/diagnostics).
    pub fn len(&self, name: &str) -> usize {
        self.files.borrow().get(name).map_or(0, Vec::len)
    }

    /// Whether nothing has been persisted yet.
    pub fn is_empty(&self) -> bool {
        self.files.borrow().is_empty()
    }

    /// Flip one bit of an already-persisted file — the "cosmic ray"
    /// failpoint, corrupting data at rest rather than in flight.
    pub fn flip_bit_at_rest(&self, name: &str, byte: usize, bit: u8) -> bool {
        let mut files = self.files.borrow_mut();
        match files.get_mut(name) {
            Some(data) if byte < data.len() => {
                data[byte] ^= 1 << (bit % 8);
                true
            }
            _ => false,
        }
    }
}

impl Storage for MemStorage {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        Ok(self.files.borrow().get(name).cloned())
    }

    fn write_atomic(&mut self, name: &str, data: &[u8]) -> Result<()> {
        self.files
            .borrow_mut()
            .insert(name.to_string(), data.to_vec());
        Ok(())
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<()> {
        self.files
            .borrow_mut()
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(data);
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<()> {
        self.files.borrow_mut().remove(name);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_round_trip_and_sharing() {
        let mut a = MemStorage::new();
        let b = a.clone();
        assert!(a.is_empty());
        a.append("log", b"one").unwrap();
        a.append("log", b"two").unwrap();
        assert_eq!(b.read("log").unwrap().unwrap(), b"onetwo");
        a.write_atomic("snap", b"state").unwrap();
        assert_eq!(b.len("snap"), 5);
        a.remove("log").unwrap();
        assert_eq!(b.read("log").unwrap(), None);
        a.remove("log").unwrap(); // idempotent
        assert!(b.flip_bit_at_rest("snap", 0, 0));
        assert_ne!(b.read("snap").unwrap().unwrap(), b"state");
        assert!(!b.flip_bit_at_rest("snap", 99, 0));
    }

    #[test]
    fn fs_storage_round_trip() {
        let dir = std::env::temp_dir().join("asr_durable_fs_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = FsStorage::new(&dir).unwrap();
        assert_eq!(s.read("wal").unwrap(), None);
        s.append("wal", b"aa").unwrap();
        s.append("wal", b"bb").unwrap();
        assert_eq!(s.read("wal").unwrap().unwrap(), b"aabb");
        s.write_atomic("snap", b"v1").unwrap();
        s.write_atomic("snap", b"v2").unwrap();
        assert_eq!(s.read("snap").unwrap().unwrap(), b"v2");
        assert!(!dir.join("snap.tmp").exists(), "temp file renamed away");
        s.remove("wal").unwrap();
        assert_eq!(s.read("wal").unwrap(), None);
        s.remove("wal").unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
