//! A fan-in task must cost memory traffic linear in its inputs.
//!
//! Montage's fan-in steps (mConcatFit reads every mDiffFit table, mAdd
//! co-adds a whole tile) dominate the paper's runs. A driver that
//! rebuilds a task's whole input list for every read allocates O(n²)
//! bytes for one task with n inputs. This binary counts the bytes
//! allocated inside `run_workflow` with a counting global allocator and
//! runs one fan-in workflow at N and at 2N producers: linear cost grows
//! about 2×, a per-read rebuild about 4×.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use wfdag::{Workflow, WorkflowBuilder};
use wfengine::{run_workflow, RunConfig};
use wfstorage::StorageKind;

/// Passes every call to the system allocator and, while `COUNTING` is
/// set, adds the bytes requested to `BYTES`.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `n` producers each write one small file; one task reads them all.
fn fan_in(n: usize) -> Workflow {
    let mut b = WorkflowBuilder::new("fan-in");
    let inputs: Vec<_> = (0..n)
        .map(|i| {
            let f = b.file(format!("part{i}"), 1_000);
            b.task(format!("p{i}"), "produce", 0.0, 0, vec![], vec![f]);
            f
        })
        .collect();
    let out = b.file("sum", 1_000);
    b.task("concat", "concat", 0.0, 0, inputs, vec![out]);
    b.build().expect("a valid fan-in")
}

/// Bytes allocated by one NFS run of `wf`.
fn bytes_allocated(wf: Workflow) -> u64 {
    let cfg = RunConfig::cell(StorageKind::Nfs, 2);
    BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let run = run_workflow(wf, cfg);
    COUNTING.store(false, Ordering::Relaxed);
    run.expect("the fan-in runs");
    BYTES.load(Ordering::Relaxed)
}

#[test]
fn fan_in_allocation_grows_linearly() {
    const N: usize = 3_000;
    let small = bytes_allocated(fan_in(N));
    let large = bytes_allocated(fan_in(2 * N));
    let growth = large as f64 / small as f64;
    assert!(
        growth < 3.0,
        "doubling a fan-in from {N} to {} inputs grew the bytes allocated \
         {growth:.2}× ({small} → {large}): the driver's per-read cost is not O(1)",
        2 * N
    );
}
