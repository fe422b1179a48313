//! Offline stand-in for `rayon`, backed by `std::thread::scope`.
//!
//! The workspace uses one shape, `items.par_iter().map(f).collect::<Vec<_>>()`,
//! over a flat list of independent jobs. There is no `join` and no nested
//! pool: callers build the whole job list first and map it once.
//!
//! Each `collect` spawns up to `available_parallelism()` scoped workers.
//! They take jobs from a shared atomic index, one at a time, so a worker
//! that drew a cheap job moves straight on to the next one, much as real
//! rayon's work-stealing does. Results come back in input order whatever
//! order the jobs finished in. A panicking job panics the caller with the
//! job's own payload.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Order-preserving parallel map over a slice.
fn par_map_slice<'a, T, O, F>(items: &'a [T], f: F) -> Vec<O>
where
    T: Sync,
    O: Send,
    F: Fn(&'a T) -> O + Sync,
{
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = hw.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    // The index hands out positions and publishes no data: the items are
    // shared read-only and each result comes back through `join`, so
    // `Relaxed` is enough.
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, O)> = std::thread::scope(|scope| {
        let worker = || {
            let mut mine = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    return mine;
                };
                mine.push((i, f(item)));
            }
        };
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, o)| o).collect()
}

/// Borrowing parallel iterator over a slice (`.par_iter()`).
pub struct ParIter<'a, T>(&'a [T]);

impl<'a, T: Sync> ParIter<'a, T> {
    /// Parallel map; evaluation happens in [`ParMap::collect`].
    pub fn map<O, F>(self, f: F) -> ParMap<'a, T, F>
    where
        O: Send,
        F: Fn(&'a T) -> O + Sync,
    {
        ParMap { items: self.0, f }
    }
}

/// A mapped parallel iterator awaiting `collect`.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T, F> ParMap<'a, T, F>
where
    T: Sync,
{
    /// Evaluate in parallel, preserving input order.
    pub fn collect<O, C>(self) -> C
    where
        O: Send,
        F: Fn(&'a T) -> O + Sync,
        C: From<Vec<O>>,
    {
        par_map_slice(self.items, self.f).into()
    }
}

pub mod prelude {
    //! One-stop imports, mirroring `rayon::prelude`.
    use super::ParIter;

    /// `par_iter()` entry point for slices; method-call autoderef
    /// extends it to `Vec`s and arrays.
    pub trait IntoParallelRefIterator<T> {
        /// A parallel iterator borrowing this collection's elements.
        fn par_iter(&self) -> ParIter<'_, T>;
    }

    impl<T: Sync> IntoParallelRefIterator<T> for [T] {
        fn par_iter(&self) -> ParIter<'_, T> {
            ParIter(self)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::hint::black_box;

    /// A job whose cost is CPU work, not a sleep, so it really holds a
    /// worker while the others run.
    fn spin(rounds: u64) -> u64 {
        (0..rounds).fold(0u64, |acc, i| {
            black_box(acc.wrapping_mul(31).wrapping_add(i))
        })
    }

    fn doubled(n: u64) -> Vec<u64> {
        let xs: Vec<u64> = (0..n).collect();
        xs.par_iter().map(|x| x * 2).collect()
    }

    #[test]
    fn par_map_preserves_order() {
        assert_eq!(doubled(1000), (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zero_and_one_item() {
        assert!(doubled(0).is_empty());
        assert_eq!(doubled(1), vec![0]);
    }

    #[test]
    fn fewer_items_than_workers() {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let n = hw.saturating_sub(1).max(1);
        assert_eq!(doubled(n), (0..n).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn order_holds_when_the_first_job_is_heavy() {
        let xs: Vec<u64> = (0..64).collect();
        let out: Vec<(u64, u64)> = xs
            .par_iter()
            .map(|&x| {
                let work = if x == 0 {
                    spin(20_000_000)
                } else {
                    spin(1_000)
                };
                (x, work)
            })
            .collect();
        let ids: Vec<u64> = out.iter().map(|&(x, _)| x).collect();
        assert_eq!(ids, xs);
        assert_eq!(out[0].1, spin(20_000_000));
    }

    #[test]
    #[should_panic(expected = "job 7 failed")]
    fn a_panicking_job_panics_the_caller() {
        let xs: Vec<u32> = (0..16).collect();
        let _: Vec<u32> = xs
            .par_iter()
            .map(|&x| {
                assert!(x != 7, "job {x} failed");
                x
            })
            .collect();
    }

    #[test]
    fn par_map_on_array() {
        let out: Vec<u32> = [1u32, 2, 3].par_iter().map(|x| x + 1).collect();
        assert_eq!(out, vec![2, 3, 4]);
    }
}
