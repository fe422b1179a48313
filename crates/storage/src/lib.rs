//! # wfstorage — data-sharing options for workflows in the cloud
//!
//! Implements §IV of the paper: the five storage systems evaluated on EC2
//! plus XtreemFS, behind one [`StorageSystem`] trait.
//!
//! | Module | System | Paper section |
//! |---|---|---|
//! | [`local`] | single-node RAID 0 | §V "local disk" |
//! | [`nfs`] | NFS, dedicated `m1.xlarge`, async | §IV.B |
//! | [`gluster`] | GlusterFS NUFA / distribute | §IV.C |
//! | [`pvfs`] | PVFS 2.6.3, striped, no small-file opts | §IV.D |
//! | [`s3`] | Amazon S3 + caching client | §IV.A |
//! | [`xtreemfs`] | XtreemFS (>2× slower, not fully run) | §IV |
//! | [`p2p`] | direct node-to-node transfers | §VIII (future work) |
//!
//! A storage system is a *planner*: each read/write/stage operation
//! returns an [`OpPlan`] (latencies + fluid-flow legs) that the workflow
//! engine executes against the simulator. See [`op`] for the plan
//! vocabulary and [`factory::build_storage`] for construction by
//! [`StorageKind`]. Every backend counts and reports its operations
//! through one private op ledger, records which files exist and where
//! their data lives in one private file directory (which also enforces
//! write-once), and [`StorageKind::admits`] is the one worker-count rule.

#![warn(missing_docs)]

pub mod factory;
pub mod gluster;
mod ledger;
pub mod local;
pub mod lru;
pub mod nfs;
pub mod op;
pub mod p2p;
pub mod pvfs;
pub mod s3;
pub mod traits;
pub mod xtreemfs;

pub use factory::{build_storage, cluster_spec_for, cluster_spec_with, StorageConfigs};
pub use gluster::{Gluster, GlusterConfig, GlusterMode};
pub use local::{LocalConfig, LocalDisk};
pub use lru::LruBytes;
pub use nfs::{Nfs, NfsConfig, NfsPlacement};
pub use op::{FlowLeg, Note, OpPlan, Stage};
pub use p2p::{DirectTransfer, P2pConfig};
pub use pvfs::{Pvfs, PvfsConfig};
pub use s3::{S3Config, S3};
pub use traits::{
    Constraints, FailoverResponse, FileRef, StorageBilling, StorageKind, StorageOpStats,
    StorageSystem,
};
pub use xtreemfs::{XtreemFs, XtreemFsConfig};
