//! Object-store backend: the [`StoreBackend`] obligations discharged
//! over a minimal blob API — no renames, no hard links, no real
//! directories.
//!
//! The substrate is [`BlobService`], an in-process model of a
//! conditional-put object store (S3-shaped): every key maps to bytes
//! plus a monotonically increasing **ETag**, and the only primitives are
//! `get` / `head` / `put` / `put_if_absent` / `delete_if_match` /
//! `delete` / `touch` / `list_prefix`. [`ObjectStoreBackend`] maps the
//! trait onto those primitives:
//!
//! - **publish** — an unconditional put: the blob PUT is atomic at the
//!   service, so last-writer-wins atomicity is free (a crashed upload
//!   leaves the key untouched — there is no staging namespace to
//!   orphan);
//! - **claim** — `put_if_absent`: the service accepts exactly one
//!   creator per key, which *is* the exactly-one-winner obligation;
//! - **entomb** — an ETag-conditional swap instead of a rename: read
//!   the victim's bytes + ETag, copy them to the tomb key, then
//!   `delete_if_match` on the observed ETag. The conditional delete is
//!   the arbitration point — concurrent challengers observe the same
//!   ETag and exactly one delete can match it; losers clean up their
//!   tomb copy and fail as if the source were gone.
//!
//! Faults, latency and outages are injected by wrapping the backend in
//! [`crate::Faulty`], which also parks retry backoff on a virtual clock,
//! so the whole retry/timeout/degradation matrix of
//! [`crate::resilience`] runs timing-free against it.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, SystemTime};

use crate::backend::{FileMeta, StoreBackend};

#[derive(Debug, Clone)]
struct Blob {
    bytes: Vec<u8>,
    etag: u64,
    mtime: SystemTime,
}

/// An in-process conditional-put blob service: keys are opaque paths,
/// every write allocates a fresh service-unique ETag, and the
/// conditional primitives (`put_if_absent`, `delete_if_match`)
/// arbitrate concurrent writers the way a real object store's
/// preconditions do.
#[derive(Debug, Default)]
pub struct BlobService {
    blobs: Mutex<BTreeMap<PathBuf, Blob>>,
    etag_seq: AtomicU64,
}

impl BlobService {
    /// An empty blob service.
    pub fn new() -> Self {
        BlobService::default()
    }

    /// Set `key`'s mtime exactly; `false` when absent.
    pub fn set_mtime(&self, key: &Path, mtime: SystemTime) -> bool {
        match self.blobs.lock().unwrap().get_mut(key) {
            Some(b) => {
                b.mtime = mtime;
                true
            }
            None => false,
        }
    }

    /// Back-date `key`'s mtime by `by` — the no-sleep way to make a
    /// lease stale or an orphan old. `false` when absent.
    pub fn age(&self, key: &Path, by: Duration) -> bool {
        self.set_mtime(key, SystemTime::now() - by)
    }

    /// Store `bytes` at `key` under a fresh ETag (caller holds the lock).
    fn insert(&self, blobs: &mut BTreeMap<PathBuf, Blob>, key: &Path, bytes: &[u8]) -> u64 {
        let etag = self.etag_seq.fetch_add(1, Ordering::Relaxed) + 1;
        blobs.insert(
            key.to_path_buf(),
            Blob {
                bytes: bytes.to_vec(),
                etag,
                mtime: SystemTime::now(),
            },
        );
        etag
    }

    /// Bytes + ETag at `key`.
    pub fn get(&self, key: &Path) -> io::Result<(Vec<u8>, u64)> {
        self.blobs
            .lock()
            .unwrap()
            .get(key)
            .map(|b| (b.bytes.clone(), b.etag))
            .ok_or_else(|| no_such_object(key))
    }

    /// ETag, length and mtime at `key` without the bytes.
    pub fn head(&self, key: &Path) -> Option<(u64, u64, SystemTime)> {
        self.blobs
            .lock()
            .unwrap()
            .get(key)
            .map(|b| (b.etag, b.bytes.len() as u64, b.mtime))
    }

    /// Unconditional last-writer-wins put; returns the new ETag.
    pub fn put(&self, key: &Path, bytes: &[u8]) -> u64 {
        self.insert(&mut self.blobs.lock().unwrap(), key, bytes)
    }

    /// Create `key` iff absent; [`io::ErrorKind::AlreadyExists`]
    /// otherwise. Returns the new ETag.
    pub fn put_if_absent(&self, key: &Path, bytes: &[u8]) -> io::Result<u64> {
        let mut blobs = self.blobs.lock().unwrap();
        if blobs.contains_key(key) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("object exists: {}", key.display()),
            ));
        }
        Ok(self.insert(&mut blobs, key, bytes))
    }

    /// Delete `key` iff its current ETag is `expected` — the
    /// arbitration primitive behind entomb. The loser of a precondition
    /// race fails with [`io::ErrorKind::NotFound`] ("the object you
    /// conditioned on is gone"), matching the loser contract of
    /// `entomb`.
    pub fn delete_if_match(&self, key: &Path, expected: u64) -> io::Result<()> {
        let mut blobs = self.blobs.lock().unwrap();
        match blobs.get(key) {
            Some(b) if b.etag == expected => {
                blobs.remove(key);
                Ok(())
            }
            _ => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "etag precondition failed (expected {expected}): {}",
                    key.display()
                ),
            )),
        }
    }

    /// Unconditional delete; [`io::ErrorKind::NotFound`] when absent.
    pub fn delete(&self, key: &Path) -> io::Result<()> {
        match self.blobs.lock().unwrap().remove(key) {
            Some(_) => Ok(()),
            None => Err(no_such_object(key)),
        }
    }

    /// Metadata-only mtime refresh (a self-copy in a real store); the
    /// ETag is unchanged so a concurrent entomb of a *stale* lease is
    /// not spuriously defeated by its own heartbeat probe.
    pub fn touch(&self, key: &Path) -> io::Result<()> {
        if self.set_mtime(key, SystemTime::now()) {
            Ok(())
        } else {
            Err(no_such_object(key))
        }
    }

    /// The keys under `dir` — prefix listing, the only enumeration an
    /// object store has. `recursive` lists the whole prefix; otherwise
    /// only direct children.
    pub fn list_prefix(&self, dir: &Path, recursive: bool) -> Vec<FileMeta> {
        let blobs = self.blobs.lock().unwrap();
        blobs
            .iter()
            .filter(|(p, _)| {
                if recursive {
                    p.starts_with(dir) && p.as_path() != dir
                } else {
                    p.parent() == Some(dir)
                }
            })
            .map(|(p, b)| FileMeta {
                path: p.clone(),
                len: b.bytes.len() as u64,
                mtime: b.mtime,
            })
            .collect()
    }
}

fn no_such_object(key: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("no such object: {}", key.display()),
    )
}

/// [`StoreBackend`] over a [`BlobService`]. See the [module docs](self)
/// for how each obligation maps onto the blob API.
#[derive(Debug, Default)]
pub struct ObjectStoreBackend {
    service: Arc<BlobService>,
}

impl ObjectStoreBackend {
    /// A backend over a fresh, empty blob service.
    pub fn new() -> Self {
        ObjectStoreBackend::default()
    }

    /// A backend sharing an existing service (N worker handles over one
    /// bucket).
    pub fn with_service(service: Arc<BlobService>) -> Self {
        ObjectStoreBackend { service }
    }

    /// The underlying blob service — raw access and mtime doctoring.
    pub fn service(&self) -> &Arc<BlobService> {
        &self.service
    }
}

impl StoreBackend for ObjectStoreBackend {
    fn name(&self) -> &'static str {
        "object"
    }

    fn ensure_dir(&self, _dir: &Path) -> io::Result<()> {
        // Directories are not real: a prefix exists iff a key under it
        // does.
        Ok(())
    }

    fn publish(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.service.put(path, bytes);
        Ok(())
    }

    fn claim(&self, path: &Path, content: &[u8]) -> io::Result<()> {
        self.service.put_if_absent(path, content).map(|_| ())
    }

    fn entomb(&self, path: &Path, tomb: &Path) -> io::Result<()> {
        // ETag-conditional swap: observe, copy to the tomb key, then
        // conditionally delete the source. The delete_if_match is the
        // exactly-one-winner arbitration — every concurrent challenger
        // observed the same ETag and at most one delete can match it.
        let (bytes, etag) = self.service.get(path)?;
        self.service.put(tomb, &bytes);
        if let Err(e) = self.service.delete_if_match(path, etag) {
            // Lost the arbitration: withdraw our tomb copy so losers
            // leave no trace, and fail as if the source were gone.
            let _ = self.service.delete(tomb);
            return Err(e);
        }
        Ok(())
    }

    fn load(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.service.get(path).map(|(bytes, _)| bytes)
    }

    fn contains(&self, path: &Path) -> bool {
        self.service.head(path).is_some()
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.service.delete(path)
    }

    fn refresh(&self, path: &Path) -> io::Result<()> {
        self.service.touch(path)
    }

    fn mtime(&self, path: &Path) -> io::Result<SystemTime> {
        self.service
            .head(path)
            .map(|(_, _, mtime)| mtime)
            .ok_or_else(|| no_such_object(path))
    }

    fn list(&self, dir: &Path, recursive: bool) -> io::Result<Vec<FileMeta>> {
        Ok(self.service.list_prefix(dir, recursive))
    }
}

/// The process-global registry behind the `object` value of
/// [`crate::STORE_BACKEND_ENV`]: every store root maps onto one shared
/// [`BlobService`] (no faults scheduled), so the N shard handles a test
/// opens on one root cooperate through one bucket, exactly as N
/// [`crate::LocalDirBackend`] handles would on one real directory.
pub fn object_backend_for(root: &Path) -> Arc<ObjectStoreBackend> {
    static ROOTS: OnceLock<Mutex<BTreeMap<PathBuf, Arc<BlobService>>>> = OnceLock::new();
    let service = ROOTS
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap()
        .entry(root.to_path_buf())
        .or_default()
        .clone();
    Arc::new(ObjectStoreBackend::with_service(service))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conditional_puts_arbitrate_on_etags() {
        let svc = BlobService::new();
        let key = Path::new("/bucket/k");
        let e1 = svc.put_if_absent(key, b"one").unwrap();
        assert_eq!(
            svc.put_if_absent(key, b"two").unwrap_err().kind(),
            io::ErrorKind::AlreadyExists
        );
        let e2 = svc.put(key, b"two");
        assert!(e2 > e1, "every write allocates a fresh etag");
        // A deleter still holding the stale etag loses.
        assert!(svc.delete_if_match(key, e1).is_err());
        svc.delete_if_match(key, e2).unwrap();
        assert!(svc.head(key).is_none());
    }

    #[test]
    fn touch_refreshes_mtime_without_changing_the_etag() {
        let svc = BlobService::new();
        let key = Path::new("/bucket/k");
        let etag = svc.put_if_absent(key, b"x").unwrap();
        svc.age(key, Duration::from_secs(100));
        let (_, _, before) = svc.head(key).unwrap();
        svc.touch(key).unwrap();
        let (after_etag, _, after) = svc.head(key).unwrap();
        assert!(after > before);
        assert_eq!(after_etag, etag, "refresh must not defeat entomb etags");
    }

    #[test]
    fn entomb_swap_is_exactly_one_winner_with_no_loser_debris() {
        let backend = Arc::new(ObjectStoreBackend::new());
        let path = PathBuf::from("/bucket/objects/x.lease");
        backend.claim(&path, b"victim content\n").unwrap();
        let backend = &backend;
        let path = &path;
        let winners: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|i| {
                    let tomb = path.with_file_name(format!("x.lease.tomb-{i}"));
                    s.spawn(move || match backend.entomb(path, &tomb) {
                        Ok(()) => {
                            assert_eq!(backend.load(&tomb).unwrap(), b"victim content\n");
                            1usize
                        }
                        Err(_) => 0,
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(winners, 1, "exactly one conditional delete can match");
        assert!(!backend.contains(path));
        // Losers withdrew their tomb copies: exactly one tomb remains.
        let tombs = backend
            .list(Path::new("/bucket"), true)
            .unwrap()
            .into_iter()
            .filter(|m| m.path.to_string_lossy().contains(".tomb-"))
            .count();
        assert_eq!(tombs, 1, "losers must leave no tomb debris");
    }

    #[test]
    fn registry_shares_one_bucket_per_root() {
        let a = object_backend_for(Path::new("/reg/alpha"));
        let b = object_backend_for(Path::new("/reg/alpha"));
        let c = object_backend_for(Path::new("/reg/beta"));
        a.publish(Path::new("/reg/alpha/x.bin"), b"shared").unwrap();
        assert_eq!(b.load(Path::new("/reg/alpha/x.bin")).unwrap(), b"shared");
        assert!(!c.contains(Path::new("/reg/alpha/x.bin")));
    }
}
