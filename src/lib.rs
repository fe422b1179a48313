//! # ec2-workflow-sim
//!
//! A from-scratch Rust reproduction of *Data Sharing Options for Scientific
//! Workflows on Amazon EC2* (Juve, Deelman, Vahi, Mehta, Berriman, Berman,
//! Maechling — SC 2010).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`simcore`] — deterministic discrete-event kernel with max–min fair
//!   fluid-flow I/O resources.
//! * [`vcluster`] — EC2-like virtual cluster: instance types, ephemeral
//!   disks with the first-write penalty, RAID 0, NICs.
//! * [`wfdag`] — scientific workflow DAG model (tasks, files, dependencies).
//! * [`wfstorage`] — the five storage options of the paper plus XtreemFS:
//!   local disk, NFS, GlusterFS (NUFA / distribute), PVFS, Amazon S3.
//! * [`wfengine`] — Pegasus/DAGMan/Condor-like workflow management system.
//! * [`wfgen`] — synthetic Montage / Broadband / Epigenome generators and a
//!   wfprof-style profiler.
//! * [`wfcost`] — 2010 Amazon billing model (per-hour vs per-second).
//! * [`expt`] — the experiment harness that regenerates every table and
//!   figure of the paper.
//!
//! See `examples/quickstart.rs` for a five-minute tour, and DESIGN.md /
//! EXPERIMENTS.md for the reproduction methodology.

#![warn(missing_docs)]

pub use expt;
pub use simcore;
pub use vcluster;
pub use wfcost;
pub use wfdag;
pub use wfengine;
pub use wfgen;
pub use wfstorage;

/// Convenience prelude importing the types most programs need.
pub mod prelude {
    pub use expt::{Cell, CellResult};
    pub use simcore::{Sim, SimDuration, SimTime};
    pub use vcluster::{Cluster, ClusterSpec, InstanceType};
    pub use wfcost::BillingGranularity;
    pub use wfdag::Workflow;
    pub use wfengine::{RunConfig, RunStats, SchedulerPolicy};
    pub use wfgen::{broadband, epigenome, montage};
    pub use wfstorage::StorageKind;
}
