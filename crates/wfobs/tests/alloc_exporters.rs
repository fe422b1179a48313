//! The Full-level exporters must not allocate per record.
//!
//! A paper-scale Montage run records hundreds of thousands of in-flight
//! samples. A renderer that builds a `String` per span, counter point or
//! CSV row makes as many allocations as there are records; one that
//! writes into a single pre-sized buffer makes a number that does not
//! depend on the record count. This binary counts the allocator calls
//! made by `chrome_trace`, `Metrics::to_csv` and `otlp_metrics` on a
//! synthetic Full report with N flows and with 2N flows, over the same
//! tasks and resources: the count must grow by less than 10 %.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use wfobs::{ChromeLabels, Event, ObsHandle, ObsLevel, ObsReport, OtlpLabels, Phase};

/// Passes every call to the system allocator and, while `COUNTING` is
/// set, counts allocations and reallocations in `CALLS`.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const RESOURCES: u32 = 8;
const TASKS: u32 = 4;

/// `flows` flows over a fixed cluster: four tasks run on two nodes,
/// each flow crosses two of eight resources, and the ready queue depth
/// moves with every flow. Times are irregular nanoseconds, so the time
/// writers print non-trivial fractions.
fn report(flows: u64) -> ObsReport {
    let h = ObsHandle::new(ObsLevel::Full, 42);
    for r in 0..RESOURCES {
        h.register_resource(&format!("nic.w{r}"));
    }
    for task in 0..TASKS {
        h.emit(Event::TaskStart {
            task,
            node: task % 2,
            attempt: 0,
        });
    }
    for id in 0..flows {
        let t = 1_000 + id * 7_919_003;
        h.set_now(t);
        if id == 1 {
            for task in 0..TASKS {
                h.emit(Event::TaskPhase {
                    task,
                    node: task % 2,
                    phase: Phase::Read,
                });
            }
        }
        h.emit(Event::ReadyDepth {
            depth: (id % 5) as u32,
        });
        h.emit(Event::FlowStart {
            id,
            bytes: 1 << 20,
            rate_bits: 1.0f64.to_bits(),
        });
        h.emit(Event::FlowRes {
            id,
            resource: (id % u64::from(RESOURCES)) as u32,
        });
        h.emit(Event::FlowRes {
            id,
            resource: ((id + 3) % u64::from(RESOURCES)) as u32,
        });
        h.set_now(t + 3_500_001);
        h.emit(Event::FlowEnd { id });
    }
    for task in 0..TASKS {
        h.emit(Event::TaskEnd {
            task,
            node: task % 2,
            attempt: 1,
        });
    }
    h.take_report().expect("Full level records a report")
}

/// A renderer of a whole report.
type Exporter<'a> = dyn Fn(&ObsReport) -> String + 'a;

/// Allocator calls made by `f`, and the length of what it returned.
fn calls(f: impl FnOnce() -> String) -> (u64, usize) {
    CALLS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (CALLS.load(Ordering::Relaxed), out.len())
}

#[test]
fn exporter_allocations_do_not_grow_with_the_record_count() {
    const N: u64 = 2_000;
    let small = report(N);
    let large = report(2 * N);
    let labels = ChromeLabels {
        task_names: (0..TASKS).map(|i| format!("task{i}")).collect(),
        node_names: vec!["w0".to_owned(), "w1".to_owned()],
    };
    let otlp = OtlpLabels::default();
    let exporters: [(&str, &Exporter); 3] = [
        ("chrome_trace", &|r| wfobs::chrome_trace(r, &labels)),
        ("Metrics::to_csv", &|r| r.metrics.to_csv()),
        ("otlp_metrics", &|r| wfobs::otlp_metrics(r, &otlp)),
    ];
    for (name, export) in exporters {
        let (a, len_a) = calls(|| export(&small));
        let (b, len_b) = calls(|| export(&large));
        assert!(
            len_b as f64 > 1.8 * len_a as f64,
            "{name}: the larger report must render about twice the bytes ({len_a} → {len_b})"
        );
        assert!(
            (b as f64) < 1.1 * a as f64,
            "{name}: doubling the flows from {N} to {} grew its allocator calls \
             from {a} to {b}: it allocates per record",
            2 * N
        );
    }
}
