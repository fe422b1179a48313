//! NFS on a dedicated server node (§IV.B).
//!
//! The paper's configuration: an `m1.xlarge` server (16 GB RAM — "which
//! facilitates good cache performance"), clients mounting with `async`
//! (calls return before data reaches disk) and `noatime`.
//!
//! Model:
//!
//! * every operation pays an RPC latency;
//! * **reads** hit the server page cache (LRU over the server's memory) —
//!   hits stream from RAM through the server NIC, misses add the server
//!   disk;
//! * **async writes** land in server RAM (client NIC → server NIC) and
//!   flush to disk in the background, paying the first-write penalty there;
//! * when outstanding dirty bytes exceed a fraction of server memory the
//!   server throttles — further writes go synchronously through the disk,
//!   which is what makes NFS fall off a cliff when many clients write at
//!   once (the 2→4 node Broadband regression of §V.C; a 64 GB `m2.4xlarge`
//!   raises the dirty limit, which is why it helps but doesn't fix it).
//!
//! The alternative configuration of §VI (overloading a compute node
//! instead of paying for a dedicated server) is ablation A4.

use crate::ledger::{bookkeeping, FileDirectory, OpLedger};
use crate::lru::LruBytes;
use crate::op::{FlowLeg, Note, OpPlan, Stage};
use crate::traits::{FailoverResponse, FileRef, StorageSystem};
use simcore::{Model, ResourceId, Sim, SimDuration};
use vcluster::{net_path, Cluster, NodeId};
use wfobs::OpKind;

/// Where the NFS daemon runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NfsPlacement {
    /// A dedicated storage-server node (the paper's main setup).
    DedicatedServer,
    /// Overload the first worker node (§VI's cost-saving alternative).
    OnWorker,
}

/// Tunables for the NFS model.
#[derive(Debug, Clone, Copy)]
pub struct NfsConfig {
    /// Per-operation RPC latency (open + attribute round trips).
    pub rpc_latency: SimDuration,
    /// Mount with `async` (the paper's setting). `false` forces every
    /// write through the server disk.
    pub async_writes: bool,
    /// Fraction of server memory usable as page cache.
    pub cache_fraction: f64,
    /// Fraction of each *client's* memory usable as NFS client page
    /// cache. The workloads are write-once, so client-cached data never
    /// goes stale; only attribute revalidation still hits the server.
    /// With one client this makes NFS behave almost like a RAM disk for
    /// re-read data — the effect behind NFS beating the local disk for
    /// single-node Montage (§V.A).
    pub client_cache_fraction: f64,
    /// Fraction of server memory dirty pages may occupy before writes are
    /// throttled to disk speed (Linux `dirty_ratio` behaviour).
    pub dirty_fraction: f64,
    /// Daemon placement.
    pub placement: NfsPlacement,
    /// Server request-processing capacity in operations/second *per
    /// server core*: with many concurrent clients the nfsd threads
    /// saturate and per-op queueing delay grows — one of the reasons a
    /// central server degrades as the cluster scales (§V). The beefier
    /// `m2.4xlarge` server of §V.C helps exactly because it has more
    /// cores.
    pub ops_per_sec_per_core: f64,
    /// Cross-client operation amplification: with close-to-open
    /// consistency every additional client node re-validates attributes
    /// and lookups for itself, so the server-side operation demand of a
    /// task grows as `1 + amplification × min(workers − 1,
    /// amp_clients_cap)` — the contention saturates once the hot
    /// directory entries are contended by a handful of clients.
    pub op_amplification: f64,
    /// Client count beyond which amplification saturates.
    pub amp_clients_cap: u32,
}

impl Default for NfsConfig {
    fn default() -> Self {
        NfsConfig {
            rpc_latency: SimDuration::from_nanos(1_200_000), // 1.2 ms
            async_writes: true,
            cache_fraction: 0.85,
            client_cache_fraction: 0.5,
            dirty_fraction: 0.35,
            placement: NfsPlacement::DedicatedServer,
            ops_per_sec_per_core: 320.0,
            op_amplification: 1.15,
            amp_clients_cap: 3,
        }
    }
}

/// The NFS storage system.
#[derive(Debug)]
pub struct Nfs {
    cfg: NfsConfig,
    server: NodeId,
    /// nfsd request-processing capacity: every operation pushes one unit
    /// through this resource before its data moves.
    ops: ResourceId,
    cache: LruBytes,
    /// Per-client page caches, indexed like `cluster.nodes()`.
    client_caches: Vec<LruBytes>,
    dirty: u64,
    dirty_limit: u64,
    /// Every file lives on the server, so its data is local only to an
    /// overloaded server-worker.
    files: FileDirectory,
    ledger: OpLedger,
    throttled_writes: u64,
}

impl Nfs {
    /// Build an NFS system over a provisioned cluster. With
    /// [`NfsPlacement::DedicatedServer`] the cluster must have been
    /// provisioned with a server node.
    pub fn new<W: Model>(sim: &mut Sim<W>, cluster: &Cluster, cfg: NfsConfig) -> Self {
        let server = match cfg.placement {
            NfsPlacement::DedicatedServer => cluster
                .server()
                .expect("NFS with DedicatedServer placement needs a server node"),
            NfsPlacement::OnWorker => cluster.workers()[0],
        };
        let mem = cluster.node(server).memory_bytes() as f64;
        let client_caches = cluster
            .nodes()
            .iter()
            .map(|n| LruBytes::new((n.memory_bytes() as f64 * cfg.client_cache_fraction) as u64))
            .collect();
        Nfs {
            cfg,
            server,
            ops: sim.add_resource(
                "nfs.ops",
                cfg.ops_per_sec_per_core * f64::from(cluster.node(server).itype.cores()),
            ),
            cache: LruBytes::new((mem * cfg.cache_fraction) as u64),
            client_caches,
            dirty: 0,
            dirty_limit: (mem * cfg.dirty_fraction) as u64,
            files: FileDirectory::default(),
            ledger: OpLedger::default(),
            throttled_writes: 0,
        }
    }

    /// The admission stage every operation passes: one request unit
    /// through the nfsd processing capacity.
    fn admission(&self) -> Stage {
        Stage::lat_leg(self.cfg.rpc_latency, FlowLeg::new(1, vec![self.ops]))
    }

    /// The node running the daemon.
    pub fn server(&self) -> NodeId {
        self.server
    }

    /// Writes that hit the dirty throttle and went through the disk.
    pub fn throttled_writes(&self) -> u64 {
        self.throttled_writes
    }

    /// Outstanding dirty bytes (not yet flushed).
    pub fn dirty_bytes(&self) -> u64 {
        self.dirty
    }
}

impl StorageSystem for Nfs {
    bookkeeping!();

    fn name(&self) -> &'static str {
        "nfs"
    }

    fn plan_task_ops(&mut self, cluster: &Cluster, node: NodeId, io_ops: u32) -> OpPlan {
        self.ledger.op(OpKind::OpStorm, node, 0);
        let extra = (cluster.workers().len() as u32 - 1).min(self.cfg.amp_clients_cap);
        let amplified =
            (f64::from(io_ops) * (1.0 + self.cfg.op_amplification * f64::from(extra))).round();
        OpPlan::one(Stage::lat_leg(
            self.cfg.rpc_latency,
            FlowLeg::new(amplified as u64, vec![self.ops]),
        ))
    }

    fn prestage(&mut self, _cluster: &Cluster, files: &[FileRef]) {
        // Input data is copied onto the server before the run; recent
        // writes leave it warm in the page cache (as on the real system).
        for (f, size) in files {
            self.files.create(*f, Some(self.server));
            self.cache.insert(*f, *size);
        }
    }

    fn plan_read(&mut self, cluster: &Cluster, node: NodeId, (file, size): FileRef) -> OpPlan {
        self.files.read(file);
        self.ledger.op(OpKind::Read, node, size);
        let srv = cluster.node(self.server);
        let client = cluster.node(node);
        // Client page cache: write-once data never goes stale, so a
        // resident copy is served locally after one attribute
        // revalidation round trip.
        if self.client_caches[node.index()].touch(file) {
            self.ledger.hit(node);
            return OpPlan::one(self.admission());
        }
        let hit = self.cache.touch(file);
        if hit {
            self.ledger.hit(node);
        } else {
            self.ledger.miss(node);
            self.cache.insert(file, size);
        }
        self.client_caches[node.index()].insert(file, size);
        let mut path = Vec::new();
        if !hit {
            path.extend(srv.read_path());
        }
        path.extend(net_path(srv, client));
        let plan = OpPlan::one(self.admission());
        if path.is_empty() {
            // Overloaded-server local read served from RAM.
            plan
        } else {
            plan.then(Stage::leg(FlowLeg::new(size, path)))
        }
    }

    fn plan_write(&mut self, cluster: &Cluster, node: NodeId, (file, size): FileRef) -> OpPlan {
        self.files.create(file, Some(self.server));
        self.ledger.op(OpKind::Write, node, size);
        let srv = cluster.node(self.server);
        let client = cluster.node(node);
        // Written data is hot in the server cache either way, and in the
        // writing client's page cache.
        self.cache.insert(file, size);
        self.client_caches[node.index()].insert(file, size);

        let throttled = !self.cfg.async_writes || self.dirty + size > self.dirty_limit;
        let plan = OpPlan::one(self.admission());
        if throttled {
            self.throttled_writes += 1;
            let mut path = net_path(client, srv);
            path.extend(srv.write_path());
            plan.then(Stage::leg(FlowLeg::new(size, path)))
        } else {
            self.dirty += size;
            let fg_path = net_path(client, srv);
            let plan = if fg_path.is_empty() {
                plan
            } else {
                plan.then(Stage::leg(FlowLeg::new(size, fg_path)))
            };
            let flush = Stage::leg(FlowLeg::new(size, srv.write_path()));
            plan.with_background(flush, Some(Note::NfsFlushed { bytes: size }))
        }
    }

    fn on_background_done(&mut self, note: Note) {
        match note {
            Note::NfsFlushed { bytes } => {
                self.dirty = self.dirty.saturating_sub(bytes);
            }
        }
    }

    fn on_node_failed(&mut self, _cluster: &Cluster, node: NodeId) -> FailoverResponse {
        if node == self.server {
            // Server reboot: the file data survives on disk, but the page
            // cache is cold, dirty pages were flushed or dropped by the
            // crash, and every client stalls until the mount recovers.
            self.cache = LruBytes::new(self.cache.capacity());
            self.dirty = 0;
            FailoverResponse::StallAll
        } else {
            // A client crash only loses that client's page cache; the
            // data plane is untouched.
            let cap = self.client_caches[node.index()].capacity();
            self.client_caches[node.index()] = LruBytes::new(cap);
            FailoverResponse::Unaffected
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Sim;
    use vcluster::{ClusterSpec, InstanceType};
    use wfdag::FileId;

    fn setup() -> (Sim<()>, Cluster, Nfs) {
        let mut sim: Sim<()> = Sim::new();
        let c = Cluster::provision(
            &mut sim,
            &ClusterSpec::with_server(2, InstanceType::M1Xlarge),
        );
        let nfs = Nfs::new(&mut sim, &c, NfsConfig::default());
        (sim, c, nfs)
    }

    #[test]
    fn server_is_dedicated_node() {
        let (_, c, nfs) = setup();
        assert_eq!(Some(nfs.server()), c.server());
    }

    #[test]
    fn prestaged_read_is_cache_hit_through_nics() {
        let (_, c, mut nfs) = setup();
        nfs.prestage(&c, &[(FileId(0), 1000)]);
        let plan = nfs.plan_read(&c, c.workers()[0], (FileId(0), 1000));
        assert_eq!(plan.stages.len(), 2, "admission + transfer");
        assert_eq!(plan.stages[0].legs[0].path, vec![nfs.ops]);
        let leg = &plan.stages[1].legs[0];
        let srv = c.node(c.server().unwrap());
        let w0 = c.node(c.workers()[0]);
        assert_eq!(leg.path, vec![srv.nic_out, w0.nic_in], "hit skips the disk");
        assert_eq!(nfs.op_stats().cache_hits, 1);
    }

    #[test]
    fn cold_read_includes_server_disk() {
        let (_, c, mut nfs) = setup();
        // Fill the cache far beyond capacity so file 0 is evicted.
        nfs.prestage(&c, &[(FileId(0), 1000)]);
        let cap = nfs.cache.capacity();
        nfs.prestage(&c, &[(FileId(1), cap)]); // evicts file 0
        let plan = nfs.plan_read(&c, c.workers()[0], (FileId(0), 1000));
        let leg = &plan.stages[1].legs[0];
        let srv = c.node(c.server().unwrap());
        assert_eq!(&leg.path[..2], srv.read_path().as_slice());
        assert_eq!(nfs.op_stats().cache_misses, 1);
    }

    #[test]
    fn async_write_is_nic_only_with_background_flush() {
        let (_, c, mut nfs) = setup();
        let plan = nfs.plan_write(&c, c.workers()[0], (FileId(3), 5000));
        let srv = c.node(c.server().unwrap());
        let w0 = c.node(c.workers()[0]);
        let fg = &plan.stages[1].legs[0];
        assert_eq!(fg.path, vec![w0.nic_out, srv.nic_in]);
        assert_eq!(plan.background.len(), 1);
        let (flush, note) = &plan.background[0];
        assert_eq!(flush.legs[0].path, srv.write_path());
        assert_eq!(*note, Some(Note::NfsFlushed { bytes: 5000 }));
        assert_eq!(nfs.dirty_bytes(), 5000);
    }

    #[test]
    fn flush_note_reduces_dirty() {
        let (_, c, mut nfs) = setup();
        nfs.plan_write(&c, c.workers()[0], (FileId(3), 5000));
        nfs.on_background_done(Note::NfsFlushed { bytes: 5000 });
        assert_eq!(nfs.dirty_bytes(), 0);
    }

    #[test]
    fn dirty_overflow_throttles_to_disk() {
        let (_, c, mut nfs) = setup();
        let limit = nfs.dirty_limit;
        nfs.plan_write(&c, c.workers()[0], (FileId(1), limit)); // fills the budget
        let plan = nfs.plan_write(&c, c.workers()[0], (FileId(2), 1000));
        assert!(plan.background.is_empty(), "throttled write is synchronous");
        let leg = &plan.stages[1].legs[0];
        let srv = c.node(c.server().unwrap());
        assert!(leg.path.contains(&srv.disk_write));
        assert_eq!(nfs.throttled_writes(), 1);
    }

    #[test]
    fn sync_mount_always_goes_to_disk() {
        let mut sim: Sim<()> = Sim::new();
        let c = Cluster::provision(
            &mut sim,
            &ClusterSpec::with_server(1, InstanceType::M1Xlarge),
        );
        let mut nfs = Nfs::new(
            &mut sim,
            &c,
            NfsConfig {
                async_writes: false,
                ..NfsConfig::default()
            },
        );
        let plan = nfs.plan_write(&c, c.workers()[0], (FileId(1), 10));
        assert!(plan.background.is_empty());
        assert_eq!(nfs.throttled_writes(), 1);
    }

    #[test]
    fn overloaded_worker_placement_serves_from_the_first_worker() {
        let mut sim: Sim<()> = Sim::new();
        let c = Cluster::provision(&mut sim, &ClusterSpec::workers_only(2));
        let nfs = Nfs::new(
            &mut sim,
            &c,
            NfsConfig {
                placement: NfsPlacement::OnWorker,
                ..NfsConfig::default()
            },
        );
        assert_eq!(nfs.server(), c.workers()[0]);
    }

    #[test]
    fn overloaded_local_read_hit_is_latency_only() {
        let mut sim: Sim<()> = Sim::new();
        let c = Cluster::provision(&mut sim, &ClusterSpec::workers_only(2));
        let mut nfs = Nfs::new(
            &mut sim,
            &c,
            NfsConfig {
                placement: NfsPlacement::OnWorker,
                ..NfsConfig::default()
            },
        );
        nfs.prestage(&c, &[(FileId(0), 100)]);
        let plan = nfs.plan_read(&c, c.workers()[0], (FileId(0), 100));
        // Only the admission stage: the data never leaves server RAM.
        assert_eq!(plan.stages.len(), 1);
        assert!(!plan.stages[0].latency.is_zero());
    }

    #[test]
    fn m2_4xlarge_server_has_higher_dirty_limit() {
        let mut sim: Sim<()> = Sim::new();
        let c1 = Cluster::provision(
            &mut sim,
            &ClusterSpec::with_server(1, InstanceType::M1Xlarge),
        );
        let c2 = Cluster::provision(
            &mut sim,
            &ClusterSpec::with_server(1, InstanceType::M24Xlarge),
        );
        let a = Nfs::new(&mut sim, &c1, NfsConfig::default());
        let b = Nfs::new(&mut sim, &c2, NfsConfig::default());
        assert!(b.dirty_limit > 3 * a.dirty_limit);
        assert!(b.cache.capacity() > 3 * a.cache.capacity());
    }

    #[test]
    fn server_failure_stalls_and_chills_the_cache() {
        let (_, c, mut nfs) = setup();
        nfs.prestage(&c, &[(FileId(0), 1000)]);
        nfs.plan_write(&c, c.workers()[0], (FileId(1), 5000));
        assert!(nfs.dirty_bytes() > 0);
        let resp = nfs.on_node_failed(&c, nfs.server());
        assert_eq!(resp, FailoverResponse::StallAll);
        assert_eq!(nfs.dirty_bytes(), 0, "dirty pages gone with the reboot");
        // The next read of the prestaged file misses the (now cold)
        // server cache and goes to disk.
        let plan = nfs.plan_read(&c, c.workers()[1], (FileId(0), 1000));
        assert_eq!(nfs.op_stats().cache_misses, 1);
        assert_eq!(plan.stages.len(), 2);
    }

    #[test]
    fn client_failure_is_harmless_but_cools_its_cache() {
        let (_, c, mut nfs) = setup();
        let w0 = c.workers()[0];
        nfs.plan_write(&c, w0, (FileId(0), 1000));
        let resp = nfs.on_node_failed(&c, w0);
        assert_eq!(resp, FailoverResponse::Unaffected);
        // The re-read can no longer be served from the client cache, but
        // the server still has the file (hot, even).
        let plan = nfs.plan_read(&c, w0, (FileId(0), 1000));
        assert_eq!(plan.stages.len(), 2, "admission + server transfer");
    }

    #[test]
    fn nothing_goes_missing_on_nfs() {
        let (_, c, mut nfs) = setup();
        nfs.prestage(&c, &[(FileId(0), 1000)]);
        nfs.on_node_failed(&c, nfs.server());
        assert!(nfs.missing_files(&[(FileId(0), 1000)]).is_empty());
    }

    #[test]
    fn local_bytes_only_on_server() {
        let (_, c, mut nfs) = setup();
        nfs.prestage(&c, &[(FileId(0), 700)]);
        assert_eq!(nfs.local_bytes(&c, c.workers()[0], &[(FileId(0), 700)]), 0);
        assert_eq!(nfs.local_bytes(&c, nfs.server(), &[(FileId(0), 700)]), 700);
    }
}
