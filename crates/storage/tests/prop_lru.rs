//! Property tests for the byte-budgeted LRU cache.

use proptest::prelude::*;
use std::collections::HashMap;
use wfdag::FileId;
use wfstorage::LruBytes;

/// The original O(n) cache: each victim is the `(stamp, id)` minimum,
/// found by scanning every resident file. `LruBytes` must evict exactly
/// the same files in exactly the same order.
struct ScanLru {
    capacity: u64,
    used: u64,
    stamp: u64,
    entries: HashMap<FileId, (u64, u64)>, // file -> (bytes, last-use stamp)
}

impl ScanLru {
    fn new(capacity: u64) -> Self {
        ScanLru {
            capacity,
            used: 0,
            stamp: 0,
            entries: HashMap::new(),
        }
    }

    fn touch(&mut self, file: FileId) -> bool {
        self.stamp += 1;
        if let Some(e) = self.entries.get_mut(&file) {
            e.1 = self.stamp;
            true
        } else {
            false
        }
    }

    fn insert(&mut self, file: FileId, bytes: u64) -> Vec<FileId> {
        self.stamp += 1;
        if let Some(e) = self.entries.get_mut(&file) {
            e.1 = self.stamp;
            return Vec::new();
        }
        if bytes > self.capacity {
            return Vec::new();
        }
        let mut evicted = Vec::new();
        while self.used + bytes > self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(id, (_, st))| (*st, **id))
                .map(|(id, _)| *id)
                .expect("over budget implies non-empty");
            let (vbytes, _) = self.entries.remove(&victim).expect("victim resident");
            self.used -= vbytes;
            evicted.push(victim);
        }
        self.entries.insert(file, (bytes, self.stamp));
        self.used += bytes;
        evicted
    }
}

/// Apply `ops` to both caches, failing at the first step where they
/// disagree on a hit, an eviction vector, `used()` or `len()`.
fn assert_matches_scan(capacity: u64, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut cache = LruBytes::new(capacity);
    let mut model = ScanLru::new(capacity);
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert(f, b) => prop_assert_eq!(
                cache.insert(FileId(f), b),
                model.insert(FileId(f), b),
                "step {}: {:?}",
                step,
                op
            ),
            Op::Touch(f) => prop_assert_eq!(
                cache.touch(FileId(f)),
                model.touch(FileId(f)),
                "step {}: {:?}",
                step,
                op
            ),
        }
        prop_assert_eq!(cache.used(), model.used, "step {}: {:?}", step, op);
        prop_assert_eq!(cache.len(), model.entries.len(), "step {}: {:?}", step, op);
    }
    Ok(())
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, u64),
    Touch(u32),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u32..40, 1u64..5000).prop_map(|(f, b)| Op::Insert(f, b)),
            (0u32..40).prop_map(Op::Touch),
        ],
        1..200,
    )
}

/// An op stream for the model comparison. Inserts use ids 0..32 and
/// touches ids 0..48, so re-inserts of resident files are common and
/// ids 32..48 are always absent when touched. Small files let a cache
/// of 500..5000 bytes hold many entries that one big insert then evicts
/// together; sizes up to 6000 include files larger than the cache.
fn model_ops() -> impl Strategy<Value = Vec<Op>> {
    let bytes = || prop_oneof![1u64..300, 1u64..300, 1u64..6000];
    let insert = || (0u32..32, bytes()).prop_map(|(f, b)| Op::Insert(f, b));
    proptest::collection::vec(
        prop_oneof![insert(), insert(), (0u32..48).prop_map(Op::Touch)],
        1..300,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The cache never exceeds its byte budget, usage matches the
    /// resident set, and evicted entries are really gone.
    #[test]
    fn budget_and_accounting_hold(capacity in 1000u64..20_000, ops in ops()) {
        let mut cache = LruBytes::new(capacity);
        let mut model: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        for op in ops {
            match op {
                Op::Insert(f, b) => {
                    let evicted = cache.insert(FileId(f), b);
                    for e in evicted {
                        prop_assert!(model.remove(&e.0).is_some(), "evicted something not resident");
                    }
                    if b <= capacity {
                        model.entry(f).or_insert(b);
                    }
                }
                Op::Touch(f) => {
                    let hit = cache.touch(FileId(f));
                    prop_assert_eq!(hit, model.contains_key(&f));
                }
            }
            prop_assert!(cache.used() <= capacity, "{} > {capacity}", cache.used());
            let model_bytes: u64 = model.values().sum();
            prop_assert_eq!(cache.used(), model_bytes);
            prop_assert_eq!(cache.len(), model.len());
        }
    }

    /// Entries touched most recently survive a squeeze.
    #[test]
    fn recency_is_respected(n in 3usize..20) {
        let per = 100u64;
        let mut cache = LruBytes::new(per * n as u64);
        for i in 0..n {
            cache.insert(FileId(i as u32), per);
        }
        // Refresh the first entry, then overflow by one: the *second*
        // entry (now the LRU) must be the victim.
        cache.touch(FileId(0));
        let evicted = cache.insert(FileId(999), per);
        prop_assert_eq!(evicted, vec![FileId(1)]);
        prop_assert!(cache.contains(FileId(0)));
    }

    /// `LruBytes` evicts the same files in the same order as the O(n)
    /// `(stamp, id)` scan it replaced, and agrees with it on every hit.
    #[test]
    fn matches_the_scan_model(capacity in 500u64..5000, ops in model_ops()) {
        assert_matches_scan(capacity, &ops)?;
    }
}

/// A scripted stream that hits each case the random streams are meant to
/// cover: a re-insert of a resident file, touches of absent files, a file
/// larger than the cache, and one insert that evicts several files.
#[test]
fn scripted_stream_matches_the_scan_model() {
    let ops = [
        Op::Insert(1, 100),
        Op::Insert(2, 100),
        Op::Insert(3, 100),
        Op::Insert(4, 100),
        Op::Touch(9), // absent: advances the stamp only
        Op::Insert(1, 100),
        Op::Insert(5, 5000), // larger than the cache
        Op::Touch(3),
        Op::Touch(5),       // the oversized file was not cached
        Op::Insert(6, 950), // evicts 2, 4, 1 and 3, in that order
        Op::Insert(2, 50),
        Op::Touch(6),
        Op::Insert(7, 100),
    ];
    assert_matches_scan(1000, &ops).unwrap();
    let mut cache = LruBytes::new(1000);
    for op in &ops[..9] {
        match *op {
            Op::Insert(f, b) => {
                cache.insert(FileId(f), b);
            }
            Op::Touch(f) => {
                cache.touch(FileId(f));
            }
        }
    }
    assert_eq!(
        cache.insert(FileId(6), 950),
        vec![FileId(2), FileId(4), FileId(1), FileId(3)]
    );
}
