//! A storage-system shootout on a custom workload: use the library the
//! way a downstream user evaluating cloud storage for their own workflow
//! would — build a synthetic DAG shaped like *your* application and sweep
//! the data-sharing options over it.
//!
//! The example models a "many small intermediate files" pipeline (the
//! regime where the paper found GlusterFS strong and S3/PVFS weak) and a
//! "few large reused inputs" pipeline (the regime where S3's client cache
//! wins), and prints both sweeps.
//!
//! ```text
//! cargo run --release --example storage_shootout
//! ```

use ec2_workflow_sim::prelude::*;
use ec2_workflow_sim::wfdag::Workflow;
use ec2_workflow_sim::wfengine::run_workflow;
use ec2_workflow_sim::wfgen::{synthetic, Shape, SyntheticConfig};

/// Fan-out/fan-in over many ~1 MB files (Montage's regime), built with
/// the library's parameterised synthetic generator.
fn small_file_pipeline(width: u32) -> Workflow {
    synthetic(SyntheticConfig {
        shape: Shape::FanOutFanIn,
        width,
        depth: 2,
        cpu_secs: 1.0,
        file_bytes: 1_200_000,
        peak_mem: 256 << 20,
        io_ops: 12,
        seed: 42,
    })
}

/// Deep pipelines re-reading large files (Broadband's regime).
fn big_reuse_pipeline(width: u32) -> Workflow {
    synthetic(SyntheticConfig {
        shape: Shape::Pipelines,
        width,
        depth: 4,
        cpu_secs: 25.0,
        file_bytes: 250_000_000,
        peak_mem: 2 << 30,
        io_ops: 1500,
        seed: 42,
    })
}

fn sweep(label: &str, make: impl Fn() -> Workflow) {
    println!("== {label} ==");
    println!("{:<24} {:>10}", "storage", "makespan");
    for storage in StorageKind::EVALUATED {
        let workers = if storage == StorageKind::Local { 1 } else { 4 };
        let stats = run_workflow(make(), RunConfig::cell(storage, workers)).expect("run");
        println!(
            "{:<24} {:>9.1}s   (n={workers})",
            storage.label(),
            stats.makespan_secs
        );
    }
    println!();
}

fn main() {
    sweep("many small intermediates (Montage-like)", || {
        small_file_pipeline(300)
    });
    sweep(
        "large reused files in deep pipelines (Broadband-like)",
        || big_reuse_pipeline(24),
    );
    println!(
        "Same crossovers as the paper: on the many-small-files workload S3 and\n\
         PVFS trail badly (request/metadata overhead per file) while the POSIX\n\
         systems lead; on the heavy-I/O pipelines the central NFS server\n\
         collapses and the distributed options (NUFA, S3, PVFS) pull ahead."
    );
}
