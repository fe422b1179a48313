//! The contract every storage backend keeps, checked on every kind: files
//! are write-once, reading a file that was never written is a bug, and a
//! node failure loses exactly the files the backend then reports missing.

use simcore::Sim;
use std::panic::{catch_unwind, AssertUnwindSafe};
use vcluster::{Cluster, NodeId};
use wfdag::FileId;
use wfstorage::{
    build_storage, cluster_spec_for, FailoverResponse, FileRef, StorageConfigs, StorageKind,
    StorageSystem,
};

/// A fresh `kind` on two workers, or on the one the local disk admits.
fn deploy(kind: StorageKind) -> (Sim<()>, Cluster, Box<dyn StorageSystem>) {
    let workers = if kind.admits(2) { 2 } else { 1 };
    let mut sim: Sim<()> = Sim::new();
    let cluster = Cluster::provision(&mut sim, &cluster_spec_for(kind, workers, None));
    let sys = build_storage(kind, &mut sim, &cluster, &StorageConfigs::default());
    (sim, cluster, sys)
}

/// A task's write of `file` on `node`, then its stage-out (S3's PUT).
fn write(sys: &mut dyn StorageSystem, c: &Cluster, node: NodeId, file: FileRef) {
    sys.plan_write(c, node, file);
    sys.plan_stage_out(c, node, &[file]);
}

/// A task's stage-in of `file` on `node` (S3's GET, a direct-transfer
/// pull), then its read.
fn read(sys: &mut dyn StorageSystem, c: &Cluster, node: NodeId, file: FileRef) {
    sys.plan_stage_in(c, node, &[file]);
    sys.plan_read(c, node, file);
}

/// The message `f` panics with, or `None` if it returns.
fn panic_message(f: impl FnOnce()) -> Option<String> {
    let payload = catch_unwind(AssertUnwindSafe(f)).err()?;
    let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
    text.or_else(|| payload.downcast_ref::<String>().cloned())
}

#[test]
fn a_second_write_of_a_file_panics_on_every_kind() {
    for kind in StorageKind::ALL {
        let (_sim, c, mut sys) = deploy(kind);
        let w = c.workers()[0];
        write(sys.as_mut(), &c, w, (FileId(3), 1000));
        let msg = panic_message(|| write(sys.as_mut(), &c, w, (FileId(3), 1000)));
        assert!(
            msg.as_deref()
                .is_some_and(|m| m.contains("write-once violated")),
            "{kind}: {msg:?}"
        );
    }
}

#[test]
fn reading_a_file_never_written_panics_on_every_kind() {
    for kind in StorageKind::ALL {
        let (_sim, c, mut sys) = deploy(kind);
        let w = c.workers()[0];
        write(sys.as_mut(), &c, w, (FileId(0), 1000));
        let msg = panic_message(|| read(sys.as_mut(), &c, w, (FileId(1), 1000)));
        assert!(
            msg.as_deref()
                .is_some_and(|m| m.contains("read of a file never written")),
            "{kind}: {msg:?}"
        );
    }
}

#[test]
fn a_node_failure_loses_exactly_the_missing_files() {
    let losing = [
        StorageKind::GlusterNufa,
        StorageKind::GlusterDistribute,
        StorageKind::Pvfs,
        StorageKind::DirectTransfer,
    ];
    for kind in StorageKind::ALL {
        let (_sim, c, mut sys) = deploy(kind);
        let workers = c.workers().to_vec();
        let files: Vec<FileRef> = (0..8).map(|i| (FileId(i), 1000)).collect();
        for (i, &f) in files.iter().enumerate() {
            write(sys.as_mut(), &c, workers[i % workers.len()], f);
        }
        let lost = match sys.on_node_failed(&c, workers[0]) {
            FailoverResponse::LostFiles(lost) => lost,
            _ => Vec::new(),
        };
        assert_eq!(sys.missing_files(&files), lost, "{kind}");
        assert_eq!(!lost.is_empty(), losing.contains(&kind), "{kind}: {lost:?}");
        // A lost file is re-created by re-running its producer.
        for &f in &lost {
            write(sys.as_mut(), &c, *workers.last().unwrap(), (f, 1000));
        }
        assert!(sys.missing_files(&files).is_empty(), "{kind}");
    }
}
