//! A byte-budgeted LRU set of files, used for the NFS server page cache
//! and other whole-file caches.

use wfdag::FileId;

/// No entry: the index value of a file that is not resident, and the link
/// past either end of the recency list.
const NONE: u32 = u32::MAX;

/// A resident file, linked into the recency list.
#[derive(Debug, Clone, Copy)]
struct Entry {
    bytes: u64,
    file: FileId,
    /// Slab positions of the next older and next newer entries.
    older: u32,
    newer: u32,
}

/// Tracks which files are resident in a cache of fixed byte capacity,
/// evicting least-recently-used entries when space runs out. A hit, an
/// insert and each eviction cost O(1).
///
/// Resident files sit in a slab, doubly linked from the least to the most
/// recently used. File ids are dense indices into the workflow's files, so
/// a plain vector indexed by id holds each file's slab position (`NONE`
/// when it is not resident). An eviction swap-removes its entry and
/// repoints the links and the index entry of the one it moved. Debug
/// builds walk the whole list after each insert that evicts (see
/// [`Self::debug_check`]).
#[derive(Debug, Clone)]
pub struct LruBytes {
    capacity: u64,
    used: u64,
    /// Slab position of each resident file, by file id.
    index: Vec<u32>,
    entries: Vec<Entry>,
    /// The least and the most recently used entries.
    oldest: u32,
    newest: u32,
}

impl LruBytes {
    /// A cache holding at most `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        LruBytes {
            capacity,
            used: 0,
            index: Vec::new(),
            entries: Vec::new(),
            oldest: NONE,
            newest: NONE,
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
        self.position(file).is_some()
    }

    /// Look up `file`, making it the most recently used on a hit.
    pub fn touch(&mut self, file: FileId) -> bool {
        let Some(pos) = self.position(file) else {
            return false;
        };
        if pos != self.newest {
            self.unlink(pos);
            self.link_newest(pos);
        }
        true
    }

    /// Insert `file` of `bytes`, evicting LRU entries as needed. Files
    /// larger than the whole cache are not inserted. Returns the evicted
    /// file ids.
    pub fn insert(&mut self, file: FileId, bytes: u64) -> Vec<FileId> {
        // A resident file is only refreshed: write-once workloads never
        // change a file's size.
        if self.touch(file) || bytes > self.capacity {
            return Vec::new();
        }
        let mut evicted = Vec::new();
        while self.used + bytes > self.capacity {
            debug_assert_ne!(self.oldest, NONE, "over budget implies non-empty");
            let victim = self.evict_oldest();
            self.used -= victim.bytes;
            evicted.push(victim.file);
        }
        let ix = file.0 as usize;
        if ix >= self.index.len() {
            self.index.resize(ix + 1, NONE);
        }
        let pos = u32::try_from(self.entries.len()).expect("cache fits u32");
        self.index[ix] = pos;
        self.entries.push(Entry {
            bytes,
            file,
            older: NONE,
            newer: NONE,
        });
        self.link_newest(pos);
        self.used += bytes;
        if !evicted.is_empty() {
            self.debug_check();
        }
        evicted
    }

    /// The slab position of `file`, if it is resident.
    fn position(&self, file: FileId) -> Option<u32> {
        self.index
            .get(file.0 as usize)
            .copied()
            .filter(|&pos| pos != NONE)
    }

    /// Take the entry at `pos` out of the recency list.
    fn unlink(&mut self, pos: u32) {
        let Entry { older, newer, .. } = self.entries[pos as usize];
        match older {
            NONE => self.oldest = newer,
            o => self.entries[o as usize].newer = newer,
        }
        match newer {
            NONE => self.newest = older,
            n => self.entries[n as usize].older = older,
        }
    }

    /// Link the unlinked entry at `pos` in as the most recently used.
    fn link_newest(&mut self, pos: u32) {
        let e = &mut self.entries[pos as usize];
        e.older = self.newest;
        e.newer = NONE;
        match self.newest {
            NONE => self.oldest = pos,
            n => self.entries[n as usize].newer = pos,
        }
        self.newest = pos;
    }

    /// Remove the least recently used entry and return it. The last slab
    /// entry moves into its position, and its neighbours' links and its
    /// index entry follow it.
    fn evict_oldest(&mut self) -> Entry {
        let pos = self.oldest;
        self.unlink(pos);
        let victim = self.entries.swap_remove(pos as usize);
        self.index[victim.file.0 as usize] = NONE;
        if let Some(&moved) = self.entries.get(pos as usize) {
            self.index[moved.file.0 as usize] = pos;
            match moved.older {
                NONE => self.oldest = pos,
                o => self.entries[o as usize].newer = pos,
            }
            match moved.newer {
                NONE => self.newest = pos,
                n => self.entries[n as usize].older = pos,
            }
        }
        victim
    }

    /// Debug check of the list, run after each insert that evicts: walked
    /// from the oldest entry, every link must point back and every index
    /// entry at its slab position, and the walk must count `len()` entries.
    /// It costs O(len), so it does not run on every hit.
    fn debug_check(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let (mut pos, mut prev, mut walked) = (self.oldest, NONE, 0);
        while pos != NONE {
            let e = &self.entries[pos as usize];
            assert_eq!(e.older, prev, "recency list link broken");
            assert_eq!(self.index[e.file.0 as usize], pos, "stale index entry");
            (prev, pos) = (pos, e.newer);
            walked += 1;
        }
        assert_eq!(prev, self.newest, "recency list tail broken");
        assert_eq!(
            walked,
            self.entries.len(),
            "recency list length differs from len"
        );
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
