//! Construction of storage systems by [`StorageKind`].

use crate::gluster::{Gluster, GlusterConfig, GlusterMode};
use crate::local::{LocalConfig, LocalDisk};
use crate::nfs::{Nfs, NfsConfig, NfsPlacement};
use crate::p2p::{DirectTransfer, P2pConfig};
use crate::pvfs::{Pvfs, PvfsConfig};
use crate::s3::{S3Config, S3};
use crate::traits::{StorageKind, StorageSystem};
use crate::xtreemfs::{XtreemFs, XtreemFsConfig};
use simcore::{Model, Sim};
use vcluster::{Cluster, ClusterSpec, InstanceType};

/// Per-system configuration bundle with paper-calibrated defaults.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageConfigs {
    /// Local-disk tunables.
    pub local: Option<LocalConfig>,
    /// NFS tunables.
    pub nfs: Option<NfsConfig>,
    /// GlusterFS tunables (mode is still taken from the kind).
    pub gluster_latencies: Option<GlusterConfig>,
    /// PVFS tunables.
    pub pvfs: Option<PvfsConfig>,
    /// S3 tunables.
    pub s3: Option<S3Config>,
    /// XtreemFS tunables.
    pub xtreemfs: Option<XtreemFsConfig>,
    /// Direct-transfer tunables (§VIII future work).
    pub p2p: Option<P2pConfig>,
}

/// The cluster spec a storage kind needs for `workers` worker nodes under
/// `cfgs`. NFS gets a dedicated server node (an `m1.xlarge` by default,
/// §IV.B; pass `server_type` to try others, §V.C) unless its daemon runs
/// on the first worker ([`NfsPlacement::OnWorker`], §VI's cost-saving
/// alternative), which provisions nothing extra.
pub fn cluster_spec_with(
    kind: StorageKind,
    workers: u32,
    server_type: Option<InstanceType>,
    cfgs: &StorageConfigs,
) -> ClusterSpec {
    let placement = cfgs.nfs.unwrap_or_default().placement;
    if kind == StorageKind::Nfs && placement == NfsPlacement::DedicatedServer {
        ClusterSpec::with_server(workers, server_type.unwrap_or(InstanceType::M1Xlarge))
    } else {
        ClusterSpec::workers_only(workers)
    }
}

/// [`cluster_spec_with`] under the default configurations.
pub fn cluster_spec_for(
    kind: StorageKind,
    workers: u32,
    server_type: Option<InstanceType>,
) -> ClusterSpec {
    cluster_spec_with(kind, workers, server_type, &StorageConfigs::default())
}

/// Build a storage system over a provisioned cluster.
///
/// Panics if `kind` cannot run on the cluster's worker count
/// ([`StorageKind::admits`]); `run_workflow` checks that rule first and
/// returns an error instead.
pub fn build_storage<W: Model>(
    kind: StorageKind,
    sim: &mut Sim<W>,
    cluster: &Cluster,
    cfgs: &StorageConfigs,
) -> Box<dyn StorageSystem> {
    let workers = cluster.workers().len() as u32;
    assert!(
        kind.admits(workers),
        "{} cannot run on {workers} worker(s)",
        kind.label()
    );
    let mut sys: Box<dyn StorageSystem> = match kind {
        StorageKind::Local => Box::new(LocalDisk::new(cluster, cfgs.local.unwrap_or_default())),
        StorageKind::Nfs => Box::new(Nfs::new(sim, cluster, cfgs.nfs.unwrap_or_default())),
        StorageKind::GlusterNufa => Box::new(Gluster::new(GlusterConfig {
            mode: GlusterMode::Nufa,
            ..cfgs
                .gluster_latencies
                .unwrap_or_else(|| GlusterConfig::new(GlusterMode::Nufa))
        })),
        StorageKind::GlusterDistribute => Box::new(Gluster::new(GlusterConfig {
            mode: GlusterMode::Distribute,
            ..cfgs
                .gluster_latencies
                .unwrap_or_else(|| GlusterConfig::new(GlusterMode::Distribute))
        })),
        StorageKind::Pvfs => Box::new(Pvfs::new(cfgs.pvfs.unwrap_or_default())),
        StorageKind::S3 => Box::new(S3::new(sim, cluster, cfgs.s3.unwrap_or_default())),
        StorageKind::XtreemFs => Box::new(XtreemFs::new(sim, cfgs.xtreemfs.unwrap_or_default())),
        StorageKind::DirectTransfer => {
            Box::new(DirectTransfer::new(cluster, cfgs.p2p.unwrap_or_default()))
        }
    };
    sys.attach_obs(sim.obs().clone());
    sys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_every_kind() {
        for kind in StorageKind::ALL {
            let mut sim: Sim<()> = Sim::new();
            let workers = if kind == StorageKind::Local { 1 } else { 2 };
            let spec = cluster_spec_for(kind, workers, None);
            let cluster = Cluster::provision(&mut sim, &spec);
            let sys = build_storage(kind, &mut sim, &cluster, &StorageConfigs::default());
            assert!(!sys.name().is_empty());
        }
    }

    #[test]
    fn local_builds_on_one_worker() {
        let mut sim: Sim<()> = Sim::new();
        let cluster = Cluster::provision(&mut sim, &ClusterSpec::workers_only(1));
        let sys = build_storage(
            StorageKind::Local,
            &mut sim,
            &cluster,
            &StorageConfigs::default(),
        );
        assert_eq!(sys.name(), "local");
    }

    #[test]
    fn nfs_spec_includes_server() {
        let spec = cluster_spec_for(StorageKind::Nfs, 4, None);
        assert_eq!(spec.storage_server, Some(InstanceType::M1Xlarge));
        assert_eq!(spec.total_instances(), 5);
        let big = cluster_spec_for(StorageKind::Nfs, 4, Some(InstanceType::M24Xlarge));
        assert_eq!(big.storage_server, Some(InstanceType::M24Xlarge));
    }

    #[test]
    fn nfs_on_a_worker_provisions_no_server() {
        let cfgs = StorageConfigs {
            nfs: Some(NfsConfig {
                placement: NfsPlacement::OnWorker,
                ..NfsConfig::default()
            }),
            ..StorageConfigs::default()
        };
        let spec = cluster_spec_with(StorageKind::Nfs, 2, None, &cfgs);
        assert_eq!(spec.storage_server, None);
        assert_eq!(spec.total_instances(), 2);
        let mut sim: Sim<()> = Sim::new();
        let cluster = Cluster::provision(&mut sim, &spec);
        let sys = build_storage(StorageKind::Nfs, &mut sim, &cluster, &cfgs);
        assert_eq!(sys.name(), "nfs");
    }

    #[test]
    #[should_panic(expected = "cannot run on 1 worker(s)")]
    fn gluster_on_one_worker_panics() {
        let mut sim: Sim<()> = Sim::new();
        let cluster = Cluster::provision(&mut sim, &ClusterSpec::workers_only(1));
        let _ = build_storage(
            StorageKind::GlusterNufa,
            &mut sim,
            &cluster,
            &StorageConfigs::default(),
        );
    }

    #[test]
    #[should_panic(expected = "cannot run on 2 worker(s)")]
    fn local_on_two_workers_panics() {
        let mut sim: Sim<()> = Sim::new();
        let cluster = Cluster::provision(&mut sim, &ClusterSpec::workers_only(2));
        let _ = build_storage(
            StorageKind::Local,
            &mut sim,
            &cluster,
            &StorageConfigs::default(),
        );
    }
}
