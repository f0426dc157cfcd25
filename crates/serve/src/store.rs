//! The content-addressed on-disk result store.
//!
//! One directory, one JSON envelope file per run, addressed by a
//! 128-bit hash of the harness cache key (two independent FNV-64
//! variants, rendered as 32 hex digits). The full key is stored inside
//! the envelope and compared on load, so an address collision or a
//! foreign file is detected instead of trusted.
//!
//! Persistence is atomic: entries are written to a temporary file in
//! the same directory and `rename(2)`d into place, so a reader never
//! observes a half-written envelope and concurrent writers of the same
//! key are safe (the simulator is deterministic — last writer wins with
//! identical bytes). Loads are corruption-tolerant by contract: any
//! parse, version, stamp, or fingerprint problem is a cache miss, never
//! a panic.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use piranha_harness::ResultStore;
use piranha_system::RunResult;

use crate::envelope;

/// A persistent, content-addressed store of [`RunResult`]s, shared
/// freely across threads and processes.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    /// Distinguishes temp files of concurrent writers in this process;
    /// the pid distinguishes processes.
    tmp_seq: AtomicU64,
}

impl DiskStore {
    /// Open (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates the failure to create the directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DiskStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DiskStore {
            dir,
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The content address of a cache key: two independent FNV-64
    /// variants over the key, 32 hex digits total. The key itself can
    /// be arbitrarily long and contains characters hostile to
    /// filenames; the address is fixed-width and safe.
    pub fn address(key: &str) -> String {
        let a = piranha_types::fnv1a(key.as_bytes());
        // Second variant: different offset basis (FNV-0 style seed over
        // a tag) so the two halves are independent.
        let b = piranha_types::fnv1a(format!("piranha-store/{key}").as_bytes());
        format!("{a:016x}{b:016x}")
    }

    /// The on-disk path an entry for `key` lives at.
    pub fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{}.json", Self::address(key)))
    }

    /// Number of entries currently on disk (files matching the
    /// `<32 hex>.json` shape).
    pub fn len(&self) -> usize {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        entries
            .flatten()
            .filter(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                name.len() == 37
                    && name.ends_with(".json")
                    && name[..32].bytes().all(|b| b.is_ascii_hexdigit())
            })
            .count()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ResultStore for DiskStore {
    fn load(&self, key: &str) -> Option<RunResult> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        let env = envelope::decode(&text).ok()?;
        // Content-address collision (or a foreign file at our address):
        // the envelope names a different run — miss, don't serve it.
        (env.key == key).then_some(env.result)
    }

    fn save(&self, key: &str, result: &RunResult) {
        // Swallow I/O errors by contract: a full disk or a read-only
        // store must not fail the sweep — the entry simply won't hit.
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}-{}",
            Self::address(key),
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed),
        ));
        let body = envelope::encode(key, result);
        if std::fs::write(&tmp, body).is_ok()
            && std::fs::rename(&tmp, self.entry_path(key)).is_err()
        {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piranha_cpu::CoreStats;
    use piranha_types::time::Clock;
    use piranha_types::Duration;

    fn result(name: &str) -> RunResult {
        RunResult::new(
            name.into(),
            Duration::from_ns(500),
            Clock::from_mhz(500),
            vec![CoreStats {
                instrs: 1000,
                ..Default::default()
            }],
        )
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("piranha-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_round_trip_and_miss() {
        let dir = tmp_dir("roundtrip");
        let store = DiskStore::open(&dir).unwrap();
        assert!(store.is_empty());
        assert!(store.load("absent").is_none());

        let r = result("p8");
        store.save("key|a", &r);
        assert_eq!(store.len(), 1);
        let back = store.load("key|a").expect("present");
        assert_eq!(back.fingerprint(), r.fingerprint());
        assert!(store.load("key|b").is_none(), "different key misses");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_truncated_entries_miss_instead_of_panicking() {
        let dir = tmp_dir("corrupt");
        let store = DiskStore::open(&dir).unwrap();
        let r = result("p1");
        store.save("k", &r);
        let path = store.entry_path("k");

        let good = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &good[..good.len() / 3]).unwrap();
        assert!(store.load("k").is_none(), "truncated entry is a miss");

        std::fs::write(&path, "{\"v\":9999}").unwrap();
        assert!(store.load("k").is_none(), "wrong version is a miss");

        std::fs::write(&path, "complete garbage \u{0000}").unwrap();
        assert!(store.load("k").is_none(), "garbage is a miss");

        // And a fresh save repairs the entry.
        store.save("k", &r);
        assert!(store.load("k").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn address_collision_is_detected_via_stored_key() {
        let dir = tmp_dir("collision");
        let store = DiskStore::open(&dir).unwrap();
        let r = result("x");
        store.save("real-key", &r);
        // Simulate a collision: move the entry to the address of
        // another key. The envelope still names "real-key", so the load
        // of the other key must miss.
        let other = "other-key";
        std::fs::rename(store.entry_path("real-key"), store.entry_path(other)).unwrap();
        assert!(store.load(other).is_none(), "foreign envelope rejected");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn addresses_are_stable_and_filename_safe() {
        let key = "Cfg { a: 1 }|Oltp|RunScale { .. }";
        let a = DiskStore::address(key);
        assert_eq!(a, DiskStore::address(key), "deterministic");
        assert_eq!(a.len(), 32);
        assert!(a.bytes().all(|b| b.is_ascii_hexdigit()));
        assert_ne!(a, DiskStore::address("Cfg { a: 2 }|Oltp|RunScale { .. }"));
    }

    #[test]
    fn two_stores_share_one_directory() {
        let dir = tmp_dir("shared");
        let s1 = DiskStore::open(&dir).unwrap();
        let s2 = DiskStore::open(&dir).unwrap();
        let r = result("shared");
        s1.save("k", &r);
        assert_eq!(
            s2.load("k").map(|x| x.fingerprint()),
            Some(r.fingerprint()),
            "a second handle (as another process would hold) sees the entry"
        );
        // Concurrent same-key writers are safe: both rename complete
        // files over each other.
        s2.save("k", &r);
        s1.save("k", &r);
        assert_eq!(s1.len(), 1);
        assert!(s1.load("k").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
