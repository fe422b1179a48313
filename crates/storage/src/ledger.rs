//! The bookkeeping every backend keeps: its foreground-operation ledger
//! and its file directory.
//!
//! A backend plans an operation and records it in the [`OpLedger`] in one
//! call: the ledger bumps the matching [`StorageOpStats`] counters and
//! emits the matching event on the observability bus, so the two never
//! disagree. The backends differ in where a file's data lives; the
//! [`FileDirectory`] records that answer and derives the rest from it:
//! existence, write-once, loss on a dead node, bytes local to a node.

use crate::traits::{FileRef, StorageOpStats};
use vcluster::NodeId;
use wfdag::FileId;
use wfobs::{Event, ObsHandle, OpKind};

/// A backend's operation counters and its bus handle (the null handle
/// until [`OpLedger::attach`]).
#[derive(Debug, Default)]
pub(crate) struct OpLedger {
    stats: StorageOpStats,
    obs: ObsHandle,
}

impl OpLedger {
    /// Report to `obs` from now on.
    pub(crate) fn attach(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// The counters so far.
    pub(crate) fn stats(&self) -> StorageOpStats {
        self.stats
    }

    /// One planned operation of `bytes` on `node`. Reads and writes also
    /// count towards the foreground totals.
    pub(crate) fn op(&mut self, op: OpKind, node: NodeId, bytes: u64) {
        match op {
            OpKind::Read => {
                self.stats.reads += 1;
                self.stats.bytes_read += bytes;
            }
            OpKind::Write => {
                self.stats.writes += 1;
                self.stats.bytes_written += bytes;
            }
            OpKind::StageIn | OpKind::StageOut | OpKind::OpStorm => {}
        }
        self.obs.emit(Event::StorageOp {
            op,
            node: node.0,
            bytes,
        });
    }

    /// A read served from a cache on `node`'s behalf.
    pub(crate) fn hit(&mut self, node: NodeId) {
        self.stats.cache_hits += 1;
        self.obs.emit(Event::CacheHit { node: node.0 });
    }

    /// A read that missed every cache.
    pub(crate) fn miss(&mut self, node: NodeId) {
        self.stats.cache_misses += 1;
        self.obs.emit(Event::CacheMiss { node: node.0 });
    }
}

/// The [`StorageSystem`](crate::traits::StorageSystem) methods every
/// backend answers from its `ledger` and its `files` directory.
macro_rules! bookkeeping {
    () => {
        fn attach_obs(&mut self, obs: wfobs::ObsHandle) {
            self.ledger.attach(obs);
        }

        fn op_stats(&self) -> crate::traits::StorageOpStats {
            self.ledger.stats()
        }

        fn missing_files(&self, files: &[crate::traits::FileRef]) -> Vec<wfdag::FileId> {
            self.files.missing(files)
        }

        fn local_bytes(
            &self,
            _: &vcluster::Cluster,
            node: vcluster::NodeId,
            files: &[crate::traits::FileRef],
        ) -> u64 {
            self.files.local_bytes(node, files)
        }
    };
}
pub(crate) use bookkeeping;

/// The home of a file that does not exist: never written, or lost.
const ABSENT: u32 = u32::MAX;
/// The home of a file that lives on no single node.
const NO_HOME: u32 = u32::MAX - 1;

/// Which files exist and where their data lives, by dense file id.
///
/// A file has at most one home node: the worker for the local disk, the
/// server for NFS, the owning brick for GlusterFS. PVFS stripes a file
/// over every worker and XtreemFS and S3 keep it off-cluster. Nodes may
/// also hold whole-file copies: S3's client cache, whose copies the
/// object outlives, and direct transfer's replicas, the only place its
/// home-less files live.
#[derive(Debug, Default)]
pub(crate) struct FileDirectory {
    /// Per file: its home node's id, `NO_HOME` or `ABSENT`.
    home: Vec<u32>,
    /// Per file: the nodes holding a copy.
    copies: Vec<Vec<NodeId>>,
}

impl FileDirectory {
    /// `file` was written or pre-staged, homed on `home` if it has one.
    /// Files are write-once; a lost file may be written again.
    pub(crate) fn create(&mut self, file: FileId, home: Option<NodeId>) {
        assert!(!self.exists(file), "write-once violated for {file:?}");
        if file.index() >= self.home.len() {
            self.home.resize(file.index() + 1, ABSENT);
        }
        self.home[file.index()] = home.map_or(NO_HOME, |n| n.0);
    }

    fn exists(&self, file: FileId) -> bool {
        self.home.get(file.index()).is_some_and(|&h| h != ABSENT)
    }

    /// A read of `file`: its home, if it has one. The engine reads a file
    /// only after its producer's write or its pre-staging was planned,
    /// and the rescue pass re-creates a lost input before its reader runs
    /// again, so reading a file that does not exist is a bug, never bad
    /// input.
    pub(crate) fn read(&self, file: FileId) -> Option<NodeId> {
        assert!(self.exists(file), "read of a file never written: {file:?}");
        let home = self.home[file.index()];
        (home != NO_HOME).then_some(NodeId(home))
    }

    pub(crate) fn add_copy(&mut self, node: NodeId, file: FileId) {
        if file.index() >= self.copies.len() {
            self.copies.resize_with(file.index() + 1, Vec::new);
        }
        if !self.has_copy(node, file) {
            self.copies[file.index()].push(node);
        }
    }

    fn copies(&self, file: FileId) -> &[NodeId] {
        self.copies.get(file.index()).map_or(&[], Vec::as_slice)
    }

    pub(crate) fn has_copy(&self, node: NodeId, file: FileId) -> bool {
        self.copies(file).contains(&node)
    }

    /// A node holding a copy of `file`: `near` if it does, else the
    /// lowest-id holder (a real system would balance the load;
    /// determinism matters more).
    pub(crate) fn holder(&self, file: FileId, near: NodeId) -> Option<NodeId> {
        let holders = self.copies(file);
        if holders.contains(&near) {
            return Some(near);
        }
        holders.iter().min().copied()
    }

    /// `node`'s disks came back empty: its copies are gone.
    pub(crate) fn drop_copies(&mut self, node: NodeId) {
        for holders in &mut self.copies {
            holders.retain(|&n| n != node);
        }
    }

    /// `node` died with its disks: its copies are gone, and so are the
    /// files homed there and the home-less files it held the last copy
    /// of. Returns the lost files in ascending id order.
    pub(crate) fn fail_node(&mut self, node: NodeId) -> Vec<FileId> {
        let ids = (0..self.home.len() as u32).map(FileId);
        let lost: Vec<FileId> = ids
            .filter(|&f| match self.home[f.index()] {
                NO_HOME => self.copies(f) == [node],
                home => home == node.0,
            })
            .collect();
        self.drop_copies(node);
        for f in &lost {
            self.home[f.index()] = ABSENT;
        }
        lost
    }

    /// Every file is lost. Returns them in ascending id order.
    pub(crate) fn lose_all(&mut self) -> Vec<FileId> {
        let ids = (0..self.home.len() as u32).map(FileId);
        let lost = ids.filter(|&f| self.exists(f)).collect();
        *self = FileDirectory::default();
        lost
    }

    /// Of `files`, the ones that do not exist.
    pub(crate) fn missing(&self, files: &[FileRef]) -> Vec<FileId> {
        let gone = files.iter().filter(|(f, _)| !self.exists(*f));
        gone.map(|(f, _)| *f).collect()
    }

    /// Bytes of `files` homed at `node` or copied there.
    pub(crate) fn local_bytes(&self, node: NodeId, files: &[FileRef]) -> u64 {
        let here = |f: FileId| self.home.get(f.index()) == Some(&node.0) || self.has_copy(node, f);
        files.iter().filter(|(f, _)| here(*f)).map(|(_, s)| s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfobs::ObsLevel;

    #[test]
    fn counters_and_bus_agree() {
        let obs = ObsHandle::new(ObsLevel::Full, 1);
        let mut ledger = OpLedger::default();
        ledger.attach(obs.clone());
        ledger.op(OpKind::Read, NodeId(0), 10);
        ledger.op(OpKind::Write, NodeId(1), 20);
        ledger.op(OpKind::StageIn, NodeId(0), 30);
        ledger.hit(NodeId(0));
        ledger.miss(NodeId(1));
        let st = ledger.stats();
        assert_eq!((st.reads, st.bytes_read), (1, 10));
        assert_eq!((st.writes, st.bytes_written), (1, 20));
        assert_eq!((st.cache_hits, st.cache_misses), (1, 1));
        let report = obs.take_report().expect("Full keeps a report");
        let events: Vec<Event> = report.events.into_iter().map(|(_, e)| e).collect();
        assert_eq!(
            events,
            vec![
                Event::StorageOp {
                    op: OpKind::Read,
                    node: 0,
                    bytes: 10
                },
                Event::StorageOp {
                    op: OpKind::Write,
                    node: 1,
                    bytes: 20
                },
                Event::StorageOp {
                    op: OpKind::StageIn,
                    node: 0,
                    bytes: 30
                },
                Event::CacheHit { node: 0 },
                Event::CacheMiss { node: 1 },
            ]
        );
        assert_eq!(report.metrics.counter("storage_stage_ins"), 1);
    }
}
