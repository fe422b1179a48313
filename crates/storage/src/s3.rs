//! Amazon S3 with the caching workflow client of §IV.A.
//!
//! S3 has no POSIX interface, so the workflow management system wraps every
//! job with GET operations (copy inputs from S3 to the local disk) and PUT
//! operations (copy outputs back). Consequently every file is written twice
//! (program → disk, disk → S3) and read twice (S3 → disk, disk → program) —
//! unless the per-node whole-file cache added by the authors suppresses the
//! transfer: each file travels from S3 to a given node at most once, and
//! outputs produced on a node are kept for future jobs there. Caching is
//! sound because the workloads are strictly write-once.
//!
//! The model charges a per-request overhead and a per-stream throughput
//! cap (2010-era S3), but gives the backend a large aggregate capacity —
//! S3 scales far beyond a single NFS server, which is exactly why it wins
//! on Broadband's heavily reused inputs (§V.C) while losing on Montage's
//! ~29,000 small files (§V.A).

use crate::ledger::{bookkeeping, FileDirectory, OpLedger};
use crate::lru::LruBytes;
use crate::op::{FlowLeg, OpPlan, Stage};
use crate::traits::{FailoverResponse, FileRef, StorageBilling, StorageSystem};
use simcore::{Model, ResourceId, Sim, SimDuration};
use vcluster::{Cluster, NodeId};
use wfdag::FileId;
use wfobs::OpKind;

/// Tunables for the S3 model.
#[derive(Debug, Clone, Copy)]
pub struct S3Config {
    /// Request overhead of a GET (connection + first byte).
    pub get_latency: SimDuration,
    /// Request overhead of a PUT.
    pub put_latency: SimDuration,
    /// Per-stream throughput, bytes/s (a single 2010 S3 connection).
    pub stream_bps: f64,
    /// Aggregate backend capacity per direction, bytes/s. Large: S3
    /// scales horizontally.
    pub backend_bps: f64,
    /// Enable the whole-file client cache (ablation A2 turns it off).
    pub client_cache: bool,
    /// Local open latency for disk reads/writes by tasks.
    pub open_latency: SimDuration,
    /// Fraction of node memory acting as OS page cache for the local
    /// copies (staged files a task reads right away are still in RAM).
    pub page_cache_fraction: f64,
}

impl Default for S3Config {
    fn default() -> Self {
        S3Config {
            get_latency: SimDuration::from_nanos(55_000_000), // 55 ms
            put_latency: SimDuration::from_nanos(70_000_000), // 70 ms
            stream_bps: 76.0e6,
            backend_bps: 5.0e9,
            client_cache: true,
            open_latency: SimDuration::from_nanos(200_000),
            page_cache_fraction: 0.5,
        }
    }
}

/// The S3 storage system (object store + caching client).
#[derive(Debug)]
pub struct S3 {
    cfg: S3Config,
    /// Backend ingress (PUTs traverse this).
    backend_in: ResourceId,
    /// Backend egress (GETs traverse this).
    backend_out: ResourceId,
    /// Objects currently in S3, and each node's whole-file cache (its
    /// copies on the local disk).
    files: FileDirectory,
    /// Per-node OS page caches over the local copies.
    page_caches: Vec<LruBytes>,
    ledger: OpLedger,
    puts: u64,
    /// Bytes of every object ever stored: objects are never deleted, so
    /// this is also the peak.
    stored_bytes: u64,
}

impl S3 {
    /// Build the S3 service, registering its backend resources.
    pub fn new<W: Model>(sim: &mut Sim<W>, cluster: &Cluster, cfg: S3Config) -> Self {
        let page_caches = cluster
            .nodes()
            .iter()
            .map(|n| LruBytes::new((n.memory_bytes() as f64 * cfg.page_cache_fraction) as u64))
            .collect();
        S3 {
            cfg,
            backend_in: sim.add_resource("s3.in", cfg.backend_bps),
            backend_out: sim.add_resource("s3.out", cfg.backend_bps),
            files: FileDirectory::default(),
            page_caches,
            ledger: OpLedger::default(),
            puts: 0,
            stored_bytes: 0,
        }
    }

    fn cache_insert(&mut self, node: NodeId, file: FileId) {
        if self.cfg.client_cache {
            self.files.add_copy(node, file);
        }
    }
}

impl StorageSystem for S3 {
    bookkeeping!();

    fn name(&self) -> &'static str {
        "s3"
    }

    fn prestage(&mut self, _cluster: &Cluster, files: &[FileRef]) {
        for (f, size) in files {
            self.files.create(*f, None);
            self.stored_bytes += size;
        }
    }

    fn plan_stage_in(&mut self, cluster: &Cluster, node: NodeId, inputs: &[FileRef]) -> OpPlan {
        let n = cluster.node(node);
        let mut plan = OpPlan::empty();
        for &(file, size) in inputs {
            if self.files.has_copy(node, file) {
                self.ledger.hit(node);
                continue;
            }
            self.files.read(file);
            self.ledger.miss(node);
            self.ledger.op(OpKind::StageIn, node, size);
            // Fetch over the network, then write to the local disk: the
            // "each file must be written twice" cost of §IV.A.
            plan = plan
                .then(Stage::lat_leg(
                    self.cfg.get_latency,
                    FlowLeg::new(size, vec![self.backend_out, n.nic_in])
                        .with_cap(self.cfg.stream_bps),
                ))
                .then(Stage::leg(FlowLeg::new(size, n.write_path())));
            self.cache_insert(node, file);
            self.page_caches[node.index()].insert(file, size);
        }
        plan
    }

    fn plan_read(&mut self, cluster: &Cluster, node: NodeId, (file, size): FileRef) -> OpPlan {
        // Tasks read staged copies from the local disk.
        debug_assert!(
            self.files.has_copy(node, file) || !self.cfg.client_cache,
            "task read of a file that was never staged to {node:?}: {file:?}"
        );
        self.ledger.op(OpKind::Read, node, size);
        if self.page_caches[node.index()].touch(file) {
            return OpPlan::one(Stage::latency(self.cfg.open_latency));
        }
        self.page_caches[node.index()].insert(file, size);
        let n = cluster.node(node);
        OpPlan::one(Stage::lat_leg(
            self.cfg.open_latency,
            FlowLeg::new(size, n.read_path()),
        ))
    }

    fn plan_write(&mut self, cluster: &Cluster, node: NodeId, (file, size): FileRef) -> OpPlan {
        self.ledger.op(OpKind::Write, node, size);
        let n = cluster.node(node);
        // Program writes land on the local disk; the PUT happens at
        // stage-out. The local copy doubles as a cache entry and is hot
        // in the page cache.
        self.cache_insert(node, file);
        self.page_caches[node.index()].insert(file, size);
        OpPlan::one(Stage::lat_leg(
            self.cfg.open_latency,
            FlowLeg::new(size, n.write_path()),
        ))
    }

    fn plan_stage_out(&mut self, cluster: &Cluster, node: NodeId, outputs: &[FileRef]) -> OpPlan {
        let n = cluster.node(node);
        let mut plan = OpPlan::empty();
        for &(file, size) in outputs {
            self.files.create(file, None);
            self.stored_bytes += size;
            self.ledger.op(OpKind::StageOut, node, size);
            self.puts += 1;
            // Just-written outputs are usually still in the page cache;
            // cold ones must be read back from disk first.
            if !self.page_caches[node.index()].touch(file) {
                plan = plan.then(Stage::leg(FlowLeg::new(size, n.read_path())));
            }
            plan = plan.then(Stage::lat_leg(
                self.cfg.put_latency,
                FlowLeg::new(size, vec![n.nic_out, self.backend_in]).with_cap(self.cfg.stream_bps),
            ));
        }
        plan
    }

    fn on_node_failed(&mut self, _cluster: &Cluster, node: NodeId) -> FailoverResponse {
        // Objects live off-cluster; a node failure only loses that node's
        // local whole-file cache and page cache. Its replacement starts
        // cold and re-GETs what it needs.
        self.files.drop_copies(node);
        let cap = self.page_caches[node.index()].capacity();
        self.page_caches[node.index()] = LruBytes::new(cap);
        FailoverResponse::Unaffected
    }

    fn billing(&self) -> StorageBilling {
        StorageBilling {
            s3_puts: self.puts,
            // Every client-cache miss in `plan_stage_in` is one GET.
            s3_gets: self.ledger.stats().cache_misses,
            s3_peak_bytes: self.stored_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcluster::ClusterSpec;

    fn setup(n: u32) -> (Sim<()>, Cluster, S3) {
        let mut sim: Sim<()> = Sim::new();
        let c = Cluster::provision(&mut sim, &ClusterSpec::workers_only(n));
        let s3 = S3::new(&mut sim, &c, S3Config::default());
        (sim, c, s3)
    }

    /// The (GET, PUT) request counts `s3` bills.
    fn requests(s3: &S3) -> (u64, u64) {
        let b = s3.billing();
        (b.s3_gets, b.s3_puts)
    }

    #[test]
    fn stage_in_fetches_then_writes_disk() {
        let (_, c, mut s3) = setup(1);
        let w = c.workers()[0];
        s3.prestage(&c, &[(FileId(0), 1000)]);
        let plan = s3.plan_stage_in(&c, w, &[(FileId(0), 1000)]);
        assert_eq!(plan.stages.len(), 2);
        let fetch = &plan.stages[0].legs[0];
        assert_eq!(fetch.path, vec![s3.backend_out, c.node(w).nic_in]);
        assert_eq!(fetch.rate_cap, Some(S3Config::default().stream_bps));
        let spill = &plan.stages[1].legs[0];
        assert_eq!(spill.path, c.node(w).write_path());
        assert_eq!(requests(&s3), (1, 0));
    }

    #[test]
    fn node_failure_only_cools_the_cache() {
        let (_, c, mut s3) = setup(2);
        let w = c.workers()[0];
        s3.prestage(&c, &[(FileId(0), 1000)]);
        s3.plan_stage_in(&c, w, &[(FileId(0), 1000)]);
        assert_eq!(requests(&s3), (1, 0));
        assert_eq!(s3.on_node_failed(&c, w), FailoverResponse::Unaffected);
        assert!(s3.missing_files(&[(FileId(0), 1000)]).is_empty());
        // The replacement node has to GET the file again.
        s3.plan_stage_in(&c, w, &[(FileId(0), 1000)]);
        assert_eq!(requests(&s3), (2, 0));
    }

    #[test]
    fn cached_file_is_not_refetched() {
        let (_, c, mut s3) = setup(1);
        let w = c.workers()[0];
        s3.prestage(&c, &[(FileId(0), 1000)]);
        s3.plan_stage_in(&c, w, &[(FileId(0), 1000)]);
        let plan = s3.plan_stage_in(&c, w, &[(FileId(0), 1000)]);
        assert!(plan.is_empty(), "second stage-in must hit the cache");
        assert_eq!(requests(&s3), (1, 0));
        assert_eq!(s3.op_stats().cache_hits, 1);
    }

    #[test]
    fn each_node_fetches_once() {
        let (_, c, mut s3) = setup(2);
        s3.prestage(&c, &[(FileId(0), 1000)]);
        s3.plan_stage_in(&c, c.workers()[0], &[(FileId(0), 1000)]);
        s3.plan_stage_in(&c, c.workers()[1], &[(FileId(0), 1000)]);
        assert_eq!(requests(&s3), (2, 0), "one GET per node");
    }

    #[test]
    fn outputs_are_cached_for_reuse_and_put_once() {
        let (_, c, mut s3) = setup(1);
        let w = c.workers()[0];
        s3.plan_write(&c, w, (FileId(5), 2000));
        let out_plan = s3.plan_stage_out(&c, w, &[(FileId(5), 2000)]);
        assert_eq!(out_plan.stages.len(), 1, "warm output skips the disk read");
        assert_eq!(requests(&s3), (0, 1));
        // A later job on this node reuses the local copy: no GET.
        let plan = s3.plan_stage_in(&c, w, &[(FileId(5), 2000)]);
        assert!(plan.is_empty());
    }

    #[test]
    fn cache_disabled_refetches_every_time() {
        let mut sim: Sim<()> = Sim::new();
        let c = Cluster::provision(&mut sim, &ClusterSpec::workers_only(1));
        let mut s3 = S3::new(
            &mut sim,
            &c,
            S3Config {
                client_cache: false,
                ..S3Config::default()
            },
        );
        let w = c.workers()[0];
        s3.prestage(&c, &[(FileId(0), 1000)]);
        s3.plan_stage_in(&c, w, &[(FileId(0), 1000)]);
        s3.plan_stage_in(&c, w, &[(FileId(0), 1000)]);
        assert_eq!(requests(&s3), (2, 0));
    }

    #[test]
    fn billing_tracks_requests_and_peak_bytes() {
        let (_, c, mut s3) = setup(1);
        let w = c.workers()[0];
        s3.prestage(&c, &[(FileId(0), 1000)]);
        s3.plan_stage_in(&c, w, &[(FileId(0), 1000)]);
        s3.plan_write(&c, w, (FileId(1), 500));
        s3.plan_stage_out(&c, w, &[(FileId(1), 500)]);
        let b = s3.billing();
        assert_eq!(b.s3_gets, 1);
        assert_eq!(b.s3_puts, 1);
        assert_eq!(b.s3_peak_bytes, 1500);
    }

    #[test]
    fn task_reads_use_local_disk_or_page_cache_only() {
        let (_, c, mut s3) = setup(1);
        let w = c.workers()[0];
        s3.prestage(&c, &[(FileId(0), 1000)]);
        s3.plan_stage_in(&c, w, &[(FileId(0), 1000)]);
        // Just staged -> still in the page cache: latency-only read.
        let warm = s3.plan_read(&c, w, (FileId(0), 1000));
        assert!(warm.stages[0].legs.is_empty());
        // Evict it by pushing huge files through the page cache.
        s3.page_caches[w.index()].insert(FileId(98), 2 << 30);
        s3.page_caches[w.index()].insert(FileId(99), 2 << 30);
        let cold = s3.plan_read(&c, w, (FileId(0), 1000));
        assert_eq!(cold.stages[0].legs[0].path, c.node(w).read_path());
    }

    #[test]
    fn local_bytes_counts_cached_files() {
        let (_, c, mut s3) = setup(2);
        let w0 = c.workers()[0];
        s3.prestage(&c, &[(FileId(0), 1000)]);
        s3.plan_stage_in(&c, w0, &[(FileId(0), 1000)]);
        assert_eq!(s3.local_bytes(&c, w0, &[(FileId(0), 1000)]), 1000);
        assert_eq!(s3.local_bytes(&c, c.workers()[1], &[(FileId(0), 1000)]), 0);
    }
}
