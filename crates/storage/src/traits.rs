//! The [`StorageSystem`] trait: what every data-sharing option implements.

use crate::op::{Note, OpPlan};
use serde::Serialize;
use vcluster::{Cluster, NodeId};
use wfdag::FileId;

/// A file reference with its size, the unit storage planners work in.
pub type FileRef = (FileId, u64);

/// Aggregate operation counters a storage system maintains (for reports
/// and, for S3, billing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StorageOpStats {
    /// Foreground read operations planned.
    pub reads: u64,
    /// Foreground write operations planned.
    pub writes: u64,
    /// Bytes read (foreground).
    pub bytes_read: u64,
    /// Bytes written (foreground).
    pub bytes_written: u64,
    /// Reads served from a cache (NFS server page cache, S3 client cache).
    pub cache_hits: u64,
    /// Reads that missed every cache.
    pub cache_misses: u64,
}

/// Billing-relevant usage (only S3 charges per request, §VI).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StorageBilling {
    /// S3 PUT requests issued.
    pub s3_puts: u64,
    /// S3 GET requests issued.
    pub s3_gets: u64,
    /// Peak bytes resident in S3 (for the $/GB-month charge).
    pub s3_peak_bytes: u64,
}

/// Deployment constraints a [`StorageSystem`] may report. Every backend
/// keeps the default: the worker-count rule is [`StorageKind::admits`],
/// and whether a dedicated server is provisioned is decided by
/// [`cluster_spec_with`](crate::factory::cluster_spec_with).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Constraints {
    /// Minimum worker count for a valid deployment.
    pub min_workers: u32,
    /// Maximum worker count (None = unbounded).
    pub max_workers: Option<u32>,
    /// Whether a dedicated storage-server node must be provisioned.
    pub needs_server: bool,
}

impl Default for Constraints {
    fn default() -> Self {
        Constraints {
            min_workers: 1,
            max_workers: None,
            needs_server: false,
        }
    }
}

/// How a storage system reacts when a cluster node dies (fault
/// injection). The engine calls [`StorageSystem::on_node_failed`] and
/// applies the returned semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailoverResponse {
    /// The system does not depend on the dead node (S3's data plane is
    /// off-cluster; the local disk survives a service restart).
    Unaffected,
    /// All traffic through the system stalls until the server recovers
    /// (an NFS server reboot aborts outstanding RPCs and blocks new ones).
    StallAll,
    /// Files whose only copy lived on the dead node are gone and must be
    /// re-created by re-running their producers (a GlusterFS brick or a
    /// PVFS I/O server restarting with an empty volume).
    LostFiles(Vec<FileId>),
}

/// A data-sharing option for workflows in the cloud (§IV).
///
/// Implementations are *planners*: each operation returns an [`OpPlan`]
/// that the workflow engine executes against the simulator. Metadata
/// effects (placement, caches) are committed at planning time, which is
/// sound for the paper's strictly write-once workloads.
pub trait StorageSystem {
    /// Short system name, e.g. `"glusterfs-nufa"`.
    fn name(&self) -> &'static str;

    /// Attach an observability bus. Backends keep the handle and report
    /// planned operations and cache hits/misses through it; the default
    /// (for test doubles) ignores it.
    fn attach_obs(&mut self, _obs: wfobs::ObsHandle) {}

    /// Deployment constraints. No backend overrides the default; see
    /// [`StorageKind::admits`] for the worker-count rule.
    fn constraints(&self) -> Constraints {
        Constraints::default()
    }

    /// Record the placement of pre-staged workflow input files (§III.C:
    /// input data is pre-staged to the virtual cluster before the run).
    fn prestage(&mut self, cluster: &Cluster, files: &[FileRef]);

    /// Plan the cost of a task's POSIX operation storm (opens, seeks,
    /// attribute lookups) on `node` — `io_ops` calls. Only systems with a
    /// central per-operation bottleneck (NFS) charge for this; client-side
    /// caching makes it free elsewhere.
    fn plan_task_ops(&mut self, _cluster: &Cluster, _node: NodeId, _io_ops: u32) -> OpPlan {
        OpPlan::empty()
    }

    /// Plan the per-job stage-in of `inputs` on `node`, for systems that
    /// copy files to the local file system before the job starts (S3,
    /// §IV.A). POSIX systems return an empty plan.
    fn plan_stage_in(&mut self, _cluster: &Cluster, _node: NodeId, _inputs: &[FileRef]) -> OpPlan {
        OpPlan::empty()
    }

    /// Plan a task's read of `file` on `node`.
    fn plan_read(&mut self, cluster: &Cluster, node: NodeId, file: FileRef) -> OpPlan;

    /// Plan a task's write of `file` on `node`. Files are write-once; a
    /// second write of the same id is a bug and implementations may panic.
    fn plan_write(&mut self, cluster: &Cluster, node: NodeId, file: FileRef) -> OpPlan;

    /// Plan the per-job stage-out of `outputs` from `node` (S3 PUTs).
    fn plan_stage_out(
        &mut self,
        _cluster: &Cluster,
        _node: NodeId,
        _outputs: &[FileRef],
    ) -> OpPlan {
        OpPlan::empty()
    }

    /// Callback when a background stage completes (e.g. an NFS flush).
    fn on_background_done(&mut self, _note: Note) {}

    /// Fault-injection hook: `node` just died. Implementations update
    /// their internal placement/caches and describe the consequence.
    /// Must be deterministic (no randomness); the default is
    /// [`FailoverResponse::Unaffected`].
    fn on_node_failed(&mut self, _cluster: &Cluster, _node: NodeId) -> FailoverResponse {
        FailoverResponse::Unaffected
    }

    /// Of `files`, the ones this system can no longer serve (lost to a
    /// node failure). The engine's rescue-DAG pass re-runs their
    /// producers. Systems that never lose data return an empty vector.
    fn missing_files(&self, _files: &[FileRef]) -> Vec<FileId> {
        Vec::new()
    }

    /// Bytes of `files` already resident at `node` (local placement or
    /// client cache) — consulted by the data-aware scheduler ablation A3.
    fn local_bytes(&self, _cluster: &Cluster, _node: NodeId, _files: &[FileRef]) -> u64 {
        0
    }

    /// Operation counters.
    fn op_stats(&self) -> StorageOpStats;

    /// Billing-relevant usage.
    fn billing(&self) -> StorageBilling {
        StorageBilling::default()
    }
}

/// The storage options evaluated in the paper (plus XtreemFS, which §IV
/// reports was >2× slower and not fully evaluated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum StorageKind {
    /// Single-node local RAID 0 ("Local" in Figs 2–7).
    Local,
    /// NFS on a dedicated server (§IV.B).
    Nfs,
    /// GlusterFS in NUFA mode (§IV.C).
    GlusterNufa,
    /// GlusterFS in distribute mode (§IV.C).
    GlusterDistribute,
    /// PVFS 2.6.3 striped across workers (§IV.D).
    Pvfs,
    /// Amazon S3 with the caching client (§IV.A).
    S3,
    /// XtreemFS (§IV, evaluated only anecdotally).
    XtreemFs,
    /// Direct node-to-node transfers — the paper's future work (§VIII).
    DirectTransfer,
}

impl StorageKind {
    /// Every kind, in the paper's presentation order (plus §VIII's
    /// future-work system).
    pub const ALL: [StorageKind; 8] = [
        StorageKind::S3,
        StorageKind::Nfs,
        StorageKind::GlusterNufa,
        StorageKind::GlusterDistribute,
        StorageKind::Pvfs,
        StorageKind::Local,
        StorageKind::XtreemFs,
        StorageKind::DirectTransfer,
    ];

    /// The five systems the paper evaluates in full, plus Local.
    pub const EVALUATED: [StorageKind; 6] = [
        StorageKind::S3,
        StorageKind::Nfs,
        StorageKind::GlusterNufa,
        StorageKind::GlusterDistribute,
        StorageKind::Pvfs,
        StorageKind::Local,
    ];

    /// Whether this kind can be deployed on `workers` worker nodes. §V:
    /// "the GlusterFS and PVFS configurations used require at least two
    /// nodes to construct a valid file system", and the local disk is one
    /// node's RAID array.
    pub fn admits(self, workers: u32) -> bool {
        match self {
            StorageKind::Local => workers == 1,
            StorageKind::GlusterNufa | StorageKind::GlusterDistribute | StorageKind::Pvfs => {
                workers >= 2
            }
            StorageKind::Nfs
            | StorageKind::S3
            | StorageKind::XtreemFs
            | StorageKind::DirectTransfer => workers >= 1,
        }
    }

    /// Label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            StorageKind::Local => "Local",
            StorageKind::Nfs => "NFS",
            StorageKind::GlusterNufa => "GlusterFS (NUFA)",
            StorageKind::GlusterDistribute => "GlusterFS (distribute)",
            StorageKind::Pvfs => "PVFS",
            StorageKind::S3 => "S3",
            StorageKind::XtreemFs => "XtreemFS",
            StorageKind::DirectTransfer => "Direct transfer",
        }
    }
}

impl std::fmt::Display for StorageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_rule_matches_section_v() {
        for kind in StorageKind::ALL {
            assert!(!kind.admits(0), "{kind} on no workers");
            assert!(
                kind.admits(2) != (kind == StorageKind::Local),
                "{kind} on 2"
            );
        }
        assert!(StorageKind::Local.admits(1));
        for kind in [
            StorageKind::GlusterNufa,
            StorageKind::GlusterDistribute,
            StorageKind::Pvfs,
        ] {
            assert!(!kind.admits(1) && kind.admits(8), "{kind}");
        }
        for kind in [
            StorageKind::Nfs,
            StorageKind::S3,
            StorageKind::XtreemFs,
            StorageKind::DirectTransfer,
        ] {
            assert!(kind.admits(1) && kind.admits(8), "{kind}");
        }
    }
}
