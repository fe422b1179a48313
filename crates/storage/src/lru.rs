//! A byte-budgeted LRU set of files, used for the NFS server page cache
//! and other whole-file caches.

use std::collections::{BTreeMap, HashMap};
use wfdag::FileId;

/// Tracks which files are resident in a cache of fixed byte capacity,
/// evicting least-recently-used entries when space runs out. A hit, an
/// insert and each eviction cost O(log n) in the number of resident files.
#[derive(Debug, Clone)]
pub struct LruBytes {
    capacity: u64,
    used: u64,
    stamp: u64,
    entries: HashMap<FileId, (u64, u64)>, // file -> (bytes, last-use stamp)
    by_stamp: BTreeMap<u64, FileId>,      // last-use stamp -> file, oldest first
}

impl LruBytes {
    /// A cache holding at most `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        LruBytes {
            capacity,
            used: 0,
            stamp: 0,
            entries: HashMap::new(),
            by_stamp: BTreeMap::new(),
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently resident.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Number of resident files.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Is `file` resident? (Does not touch recency.)
    pub fn contains(&self, file: FileId) -> bool {
        self.entries.contains_key(&file)
    }

    /// Look up `file`, refreshing its recency on a hit.
    pub fn touch(&mut self, file: FileId) -> bool {
        self.stamp += 1;
        let hit = self.refresh(file);
        debug_assert_eq!(self.by_stamp.len(), self.entries.len());
        hit
    }

    /// Move a resident `file` to the current stamp; false if absent.
    fn refresh(&mut self, file: FileId) -> bool {
        let Some(e) = self.entries.get_mut(&file) else {
            return false;
        };
        self.by_stamp.remove(&e.1);
        e.1 = self.stamp;
        self.by_stamp.insert(self.stamp, file);
        true
    }

    /// Insert `file` of `bytes`, evicting LRU entries as needed. Files
    /// larger than the whole cache are not inserted. Returns the evicted
    /// file ids.
    pub fn insert(&mut self, file: FileId, bytes: u64) -> Vec<FileId> {
        self.stamp += 1;
        // A resident file is only refreshed: write-once workloads never
        // change a file's size.
        if self.refresh(file) || bytes > self.capacity {
            debug_assert_eq!(self.by_stamp.len(), self.entries.len());
            return Vec::new();
        }
        let mut evicted = Vec::new();
        while self.used + bytes > self.capacity {
            // Stamps are unique, so the oldest one is the (stamp, id) minimum: ids never tie-break.
            let (_, victim) = self
                .by_stamp
                .pop_first()
                .expect("over budget implies non-empty");
            let (vbytes, _) = self.entries.remove(&victim).expect("victim resident");
            self.used -= vbytes;
            evicted.push(victim);
        }
        self.entries.insert(file, (bytes, self.stamp));
        self.by_stamp.insert(self.stamp, file);
        self.used += bytes;
        debug_assert_eq!(self.by_stamp.len(), self.entries.len());
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FileId {
        FileId(i)
    }

    #[test]
    fn insert_and_contains() {
        let mut c = LruBytes::new(100);
        assert!(c.insert(f(1), 40).is_empty());
        assert!(c.contains(f(1)));
        assert!(!c.contains(f(2)));
        assert_eq!(c.used(), 40);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruBytes::new(100);
        c.insert(f(1), 40);
        c.insert(f(2), 40);
        assert!(c.touch(f(1))); // 2 is now LRU
        let evicted = c.insert(f(3), 40);
        assert_eq!(evicted, vec![f(2)]);
        assert!(c.contains(f(1)));
        assert!(c.contains(f(3)));
        assert_eq!(c.used(), 80);
    }

    #[test]
    fn oversized_file_not_cached() {
        let mut c = LruBytes::new(100);
        assert!(c.insert(f(1), 200).is_empty());
        assert!(!c.contains(f(1)));
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn reinsert_refreshes_without_double_count() {
        let mut c = LruBytes::new(100);
        c.insert(f(1), 60);
        c.insert(f(1), 60);
        assert_eq!(c.used(), 60);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_cascades_until_fit() {
        let mut c = LruBytes::new(100);
        c.insert(f(1), 30);
        c.insert(f(2), 30);
        c.insert(f(3), 30);
        let evicted = c.insert(f(4), 90);
        assert_eq!(evicted.len(), 3);
        assert_eq!(c.len(), 1);
        assert_eq!(c.used(), 90);
    }

    #[test]
    fn touch_miss_returns_false() {
        let mut c = LruBytes::new(100);
        assert!(!c.touch(f(9)));
    }
}
