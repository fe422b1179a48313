//! Virtual-cluster provisioning: turning an instance order into simulation
//! resources, mirroring the Nimbus-contextualised virtual cluster of §III.

use crate::disk::DiskProfile;
use crate::instance::InstanceType;
use serde::{Deserialize, Serialize};
use simcore::{DetRng, FlowSpec, Model, ResourceId, Sim, SimDuration};

/// Identifier of a node within one provisioned cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Raw index into the cluster's node table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Why a node exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeRole {
    /// Runs workflow tasks (a Condor worker).
    Worker,
    /// A dedicated storage server (the paper's NFS configuration).
    StorageServer,
}

/// A provisioned virtual machine and its simulation resources.
#[derive(Debug, Clone)]
pub struct Node {
    /// This node's id.
    pub id: NodeId,
    /// The EC2 instance type backing the VM.
    pub itype: InstanceType,
    /// Worker or dedicated storage server.
    pub role: NodeRole,
    /// Inbound NIC bandwidth resource.
    pub nic_in: ResourceId,
    /// Outbound NIC bandwidth resource.
    pub nic_out: ResourceId,
    /// Local RAID 0 array: aggregate half-duplex bandwidth shared by
    /// reads and writes together.
    pub disk_spindle: ResourceId,
    /// Local RAID 0 array: shared read bandwidth.
    pub disk_read: ResourceId,
    /// Local RAID 0 array: shared write bandwidth.
    pub disk_write: ResourceId,
    /// Device-wide first-write bandwidth (§III.C): every write of fresh
    /// data on an uninitialised array additionally crosses this resource,
    /// so concurrent fresh writes share the penalised bandwidth, exactly
    /// like the virtualisation bottleneck the paper measured.
    pub disk_fresh: Option<ResourceId>,
    /// Bandwidth profile of the local array.
    pub disk: DiskProfile,
}

impl Node {
    /// The resource path of a local read: the half-duplex spindle plus
    /// the read-direction limit.
    pub fn read_path(&self) -> Vec<ResourceId> {
        vec![self.disk_spindle, self.disk_read]
    }

    /// A flow spec for reading `bytes` from this node's local array.
    pub fn local_read(&self, bytes: u64) -> FlowSpec {
        FlowSpec::new(bytes, self.read_path())
    }

    /// The resource path of a write of fresh data: the half-duplex
    /// spindle, the write-direction limit, plus the first-write
    /// bottleneck when the array is uninitialised.
    pub fn write_path(&self) -> Vec<ResourceId> {
        let mut p = vec![self.disk_spindle, self.disk_write];
        if let Some(fresh) = self.disk_fresh {
            p.push(fresh);
        }
        p
    }

    /// A flow spec for writing `bytes` of fresh data to the local array,
    /// paying the first-write penalty when the disks are uninitialised.
    pub fn local_write(&self, bytes: u64) -> FlowSpec {
        FlowSpec::new(bytes, self.write_path())
    }

    /// Number of task slots (one per core).
    pub fn slots(&self) -> u32 {
        self.itype.cores()
    }

    /// Physical memory in bytes.
    pub fn memory_bytes(&self) -> u64 {
        self.itype.memory_bytes()
    }
}

/// The network path of a transfer from `src` to `dst` (source NIC out,
/// destination NIC in). Same-node transfers use no network resources.
pub fn net_path(src: &Node, dst: &Node) -> Vec<ResourceId> {
    if src.id == dst.id {
        Vec::new()
    } else {
        vec![src.nic_out, dst.nic_in]
    }
}

/// What to provision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of worker nodes (the paper sweeps 1, 2, 4, 8).
    pub workers: u32,
    /// Worker instance type (the paper always uses `c1.xlarge`).
    pub worker_type: InstanceType,
    /// Optional dedicated storage server (the paper's NFS setup uses an
    /// `m1.xlarge`, §V.C also tries `m2.4xlarge`).
    pub storage_server: Option<InstanceType>,
    /// Zero-fill ephemeral disks before use, removing the first-write
    /// penalty (ablation A1; the paper argues this is uneconomical).
    pub initialize_disks: bool,
}

impl ClusterSpec {
    /// The paper's standard worker-only cluster of `n` `c1.xlarge` nodes.
    pub fn workers_only(n: u32) -> Self {
        ClusterSpec {
            workers: n,
            worker_type: InstanceType::C1Xlarge,
            storage_server: None,
            initialize_disks: false,
        }
    }

    /// Workers plus a dedicated storage server.
    pub fn with_server(n: u32, server: InstanceType) -> Self {
        ClusterSpec {
            storage_server: Some(server),
            ..ClusterSpec::workers_only(n)
        }
    }

    /// Total VM count including any dedicated server.
    pub fn total_instances(&self) -> u32 {
        self.workers + u32::from(self.storage_server.is_some())
    }
}

/// A provisioned virtual cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    nodes: Vec<Node>,
    workers: Vec<NodeId>,
    server: Option<NodeId>,
    spec: ClusterSpec,
}

impl Cluster {
    /// Provision the cluster: register every node's NIC and disk resources
    /// with the simulation.
    pub fn provision<W: Model>(sim: &mut Sim<W>, spec: &ClusterSpec) -> Cluster {
        assert!(spec.workers >= 1, "a cluster needs at least one worker");
        let mut nodes = Vec::new();
        let mut workers = Vec::new();
        for w in 0..spec.workers {
            let id = NodeId(u32::try_from(nodes.len()).expect("node count fits u32"));
            nodes.push(Self::make_node(
                sim,
                id,
                spec.worker_type,
                NodeRole::Worker,
                spec,
                w,
            ));
            workers.push(id);
        }
        let server = spec.storage_server.map(|itype| {
            let id = NodeId(u32::try_from(nodes.len()).expect("node count fits u32"));
            nodes.push(Self::make_node(
                sim,
                id,
                itype,
                NodeRole::StorageServer,
                spec,
                0,
            ));
            id
        });
        Cluster {
            nodes,
            workers,
            server,
            spec: spec.clone(),
        }
    }

    fn make_node<W: Model>(
        sim: &mut Sim<W>,
        id: NodeId,
        itype: InstanceType,
        role: NodeRole,
        spec: &ClusterSpec,
        ordinal: u32,
    ) -> Node {
        let tag = match role {
            NodeRole::Worker => format!("w{ordinal}"),
            NodeRole::StorageServer => "srv".to_string(),
        };
        let mut disk = itype.raid0_profile();
        if spec.initialize_disks {
            disk = disk.initialized();
        }
        let disk_fresh = disk
            .first_write_cap()
            .map(|bps| sim.add_resource(format!("{tag}.disk.fw"), bps));
        Node {
            id,
            itype,
            role,
            nic_in: sim.add_resource(format!("{tag}.nic.in"), itype.nic_bps()),
            nic_out: sim.add_resource(format!("{tag}.nic.out"), itype.nic_bps()),
            disk_spindle: sim.add_resource(format!("{tag}.disk"), disk.spindle_bps),
            disk_read: sim.add_resource(format!("{tag}.disk.rd"), disk.read_bps),
            disk_write: sim.add_resource(format!("{tag}.disk.wr"), disk.rewrite_bps),
            disk_fresh,
            disk,
        }
    }

    /// All nodes, workers first, then the server (if any).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Worker node ids in provisioning order.
    pub fn workers(&self) -> &[NodeId] {
        &self.workers
    }

    /// The dedicated storage server, if one was provisioned.
    pub fn server(&self) -> Option<NodeId> {
        self.server
    }

    /// The spec this cluster was provisioned from.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// VM boot-and-contextualise delay (§V: 70–90 s, excluded from
    /// makespans but reported separately).
    pub fn boot_delay(rng: &mut DetRng) -> SimDuration {
        SimDuration::from_secs_f64(rng.uniform(70.0, 90.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provisions_workers_and_server() {
        let mut sim: Sim<()> = Sim::new();
        let spec = ClusterSpec::with_server(4, InstanceType::M1Xlarge);
        let c = Cluster::provision(&mut sim, &spec);
        assert_eq!(c.workers().len(), 4);
        assert!(c.server().is_some());
        assert_eq!(c.nodes().len(), 5);
        let srv = c.node(c.server().unwrap());
        assert_eq!(srv.role, NodeRole::StorageServer);
        assert_eq!(srv.itype, InstanceType::M1Xlarge);
        // 6 resources per node (uninitialised disks add the first-write
        // bottleneck).
        assert_eq!(sim.resource_count(), 30);
    }

    #[test]
    fn worker_only_cluster_has_no_server() {
        let mut sim: Sim<()> = Sim::new();
        let c = Cluster::provision(&mut sim, &ClusterSpec::workers_only(2));
        assert_eq!(c.server(), None);
        assert_eq!(c.spec().total_instances(), 2);
    }

    #[test]
    fn local_write_crosses_first_write_bottleneck() {
        let mut sim: Sim<()> = Sim::new();
        let c = Cluster::provision(&mut sim, &ClusterSpec::workers_only(1));
        let n = c.node(c.workers()[0]);
        let spec = n.local_write(1_000_000);
        assert_eq!(spec.path.len(), 3, "spindle + write + fresh bottleneck");
        assert_eq!(spec.path[2], n.disk_fresh.unwrap());
        assert_eq!(
            n.local_read(1_000_000).path,
            vec![n.disk_spindle, n.disk_read]
        );
    }

    #[test]
    fn initialized_disks_drop_the_bottleneck() {
        let mut sim: Sim<()> = Sim::new();
        let mut spec = ClusterSpec::workers_only(1);
        spec.initialize_disks = true;
        let c = Cluster::provision(&mut sim, &spec);
        let n = c.node(c.workers()[0]);
        assert!(n.disk_fresh.is_none());
        assert_eq!(n.local_write(1_000_000).path.len(), 2);
    }

    #[test]
    fn concurrent_fresh_writes_share_penalised_bandwidth() {
        // Two parallel fresh writes on one array: each gets half of the
        // ~90 MB/s first-write bandwidth, not half of the 375 MB/s rewrite
        // bandwidth.
        let mut sim: Sim<()> = Sim::new();
        let c = Cluster::provision(&mut sim, &ClusterSpec::workers_only(1));
        let n = c.node(c.workers()[0]).clone();
        let fw_bps = n.disk.first_write_bps;
        sim.schedule_at(simcore::SimTime::ZERO, move |s, _| {
            s.start_flow(n.local_write(1_000_000_000), |_, _| {});
            s.start_flow(n.local_write(1_000_000_000), |_, _| {});
        });
        let mut w = ();
        sim.run(&mut w);
        let elapsed = sim.now().as_secs_f64();
        let expected = 2.0 * 1e9 / fw_bps;
        assert!(
            (elapsed - expected).abs() / expected < 0.01,
            "elapsed {elapsed} vs expected {expected}"
        );
    }

    #[test]
    fn net_path_between_nodes() {
        let mut sim: Sim<()> = Sim::new();
        let c = Cluster::provision(&mut sim, &ClusterSpec::workers_only(2));
        let a = c.node(c.workers()[0]);
        let b = c.node(c.workers()[1]);
        assert_eq!(net_path(a, b), vec![a.nic_out, b.nic_in]);
        assert!(net_path(a, a).is_empty());
    }

    #[test]
    fn boot_delay_in_paper_range() {
        let mut rng = DetRng::stream(1, "boot");
        for _ in 0..100 {
            let d = Cluster::boot_delay(&mut rng).as_secs_f64();
            assert!((70.0..90.0).contains(&d), "{d}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let mut sim: Sim<()> = Sim::new();
        let _ = Cluster::provision(&mut sim, &ClusterSpec::workers_only(0));
    }
}
