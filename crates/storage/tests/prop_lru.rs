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
/// disagree on a hit, an eviction vector, `used()`, `len()` or whether a
/// file the stream names is resident.
fn assert_matches_scan(capacity: u64, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut cache = LruBytes::new(capacity);
    let mut model = ScanLru::new(capacity);
    let mut named: Vec<FileId> = ops
        .iter()
        .map(|op| match *op {
            Op::Insert(f, _) | Op::Touch(f) => FileId(f),
        })
        .collect();
    named.sort_unstable();
    named.dedup();
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
        for &f in &named {
            prop_assert_eq!(
                cache.contains(f),
                model.entries.contains_key(&f),
                "step {}: {:?}, file {:?}",
                step,
                op,
                f
            );
        }
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

/// [`model_ops`] over sparse, large file ids: each case draws a pool of
/// up to 32 ids below 100,000 and maps the stream's ids into it, so the
/// cache's index by file id grows in jumps and most of it stays empty.
/// The pool may repeat an id, which then stands for several of the
/// stream's.
fn sparse_ops() -> impl Strategy<Value = Vec<Op>> {
    (proptest::collection::vec(0u32..100_000, 1..32), model_ops()).prop_map(|(pool, ops)| {
        let id = |f: u32| pool[f as usize % pool.len()];
        ops.into_iter()
            .map(|op| match op {
                Op::Insert(f, b) => Op::Insert(id(f), b),
                Op::Touch(f) => Op::Touch(id(f)),
            })
            .collect()
    })
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

    /// The same agreement over sparse, large file ids.
    #[test]
    fn matches_the_scan_model_on_sparse_ids(capacity in 500u64..5000, ops in sparse_ops()) {
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

/// Sparse ids by hand: the first insert is the largest id, so the index
/// grows to it at once; touches of an id inside the index that was never
/// inserted and of one past its end both miss; an evicted file is no
/// longer resident and a re-insert makes it resident again.
#[test]
fn scripted_sparse_ids_match_the_scan_model() {
    let ops = [
        Op::Insert(99_999, 400),
        Op::Insert(3, 300),
        Op::Touch(50_000),  // inside the index, never inserted
        Op::Touch(250_000), // past the end of the index
        Op::Insert(0, 200),
        Op::Touch(99_999),
        Op::Insert(70_001, 500), // evicts 3, then 0
        Op::Touch(3),
        Op::Insert(3, 100),
        Op::Insert(120_000, 1000), // evicts the other three, oldest first
    ];
    assert_matches_scan(1000, &ops).unwrap();
    let mut cache = LruBytes::new(1000);
    for op in &ops[..6] {
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
        cache.insert(FileId(70_001), 500),
        vec![FileId(3), FileId(0)]
    );
    assert!(!cache.contains(FileId(3)) && !cache.contains(FileId(250_000)));
    assert!(!cache.touch(FileId(3)));
    assert!(cache.insert(FileId(3), 100).is_empty());
    assert_eq!(
        cache.insert(FileId(120_000), 1000),
        vec![FileId(99_999), FileId(70_001), FileId(3)]
    );
    assert_eq!((cache.len(), cache.used()), (1, 1000));
}
