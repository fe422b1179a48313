//! A wfprof-style workflow profiler (§II, footnote 1).
//!
//! The paper characterises each application's resource usage with a
//! ptrace-based profiler and reports Table I:
//!
//! | Application | I/O    | Memory | CPU    |
//! |-------------|--------|--------|--------|
//! | Montage     | High   | Low    | Low    |
//! | Broadband   | Medium | High   | Medium |
//! | Epigenome   | Low    | Medium | High   |
//!
//! This module reproduces that classification from the workflow
//! declarations: per-task bytes moved, compute seconds, and peak RSS.

use serde::Serialize;
use wfdag::Workflow;

/// A Low/Medium/High grade, as in Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Grade {
    /// Lowest of the three usage classes.
    Low,
    /// Middle usage class.
    Medium,
    /// Highest usage class.
    High,
}

impl std::fmt::Display for Grade {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Grade::Low => "Low",
            Grade::Medium => "Medium",
            Grade::High => "High",
        })
    }
}

/// The profiler's raw measurements for one workflow.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Profile {
    /// Workflow name.
    pub workflow: String,
    /// Total bytes read + written by tasks (reuse counted per access).
    pub io_bytes: u64,
    /// Total compute demand, reference-core seconds.
    pub cpu_secs: f64,
    /// I/O intensity: bytes moved per compute second.
    pub io_bytes_per_cpu_sec: f64,
    /// Fraction of compute time in tasks with peak RSS above 1 GiB.
    pub cpu_frac_over_1gib: f64,
    /// Fraction of compute time in tasks with peak RSS of 512 MiB+.
    pub cpu_frac_over_512mib: f64,
    /// Estimated fraction of task wall time spent in the CPU, assuming
    /// the reference contended-disk throughput of
    /// [`REFERENCE_DISK_BPS`].
    pub cpu_time_fraction: f64,
}

/// The contended per-task disk throughput wfprof's targets saw (a single
/// task's share of a busy 8-core node's array).
pub const REFERENCE_DISK_BPS: f64 = 10.0e6;

/// Thresholds used to grade [`Profile`]s; documented so Table I is
/// reproducible rather than hand-waved.
pub mod thresholds {
    /// I/O: below this many bytes per compute second is Low.
    pub const IO_LOW_BPCS: f64 = 1.3e6;
    /// I/O: above this many bytes per compute second is High.
    pub const IO_HIGH_BPCS: f64 = 8.0e6;
    /// Memory: more than this fraction of compute time above 1 GiB is
    /// High.
    pub const MEM_HIGH_FRAC: f64 = 0.5;
    /// Memory: more than this fraction of compute time at 512 MiB+ is
    /// Medium.
    pub const MEM_MED_FRAC: f64 = 0.5;
    /// CPU: below this CPU-time fraction is Low.
    pub const CPU_LOW_FRAC: f64 = 0.5;
    /// CPU: above this CPU-time fraction is High.
    pub const CPU_HIGH_FRAC: f64 = 0.88;
}

/// Table-I style classification of one workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ResourceUsage {
    /// I/O grade.
    pub io: Grade,
    /// Memory grade.
    pub memory: Grade,
    /// CPU grade.
    pub cpu: Grade,
}

/// Profile a workflow.
pub fn profile(wf: &Workflow) -> Profile {
    let files = wf.files();
    let mut io_bytes = 0u64;
    let mut cpu_secs = 0.0f64;
    let mut cpu_over_1g = 0.0f64;
    let mut cpu_over_512m = 0.0f64;
    for t in wf.tasks() {
        io_bytes += t.input_bytes(files) + t.output_bytes(files);
        cpu_secs += t.cpu_secs;
        if t.peak_mem > 1 << 30 {
            cpu_over_1g += t.cpu_secs;
        }
        if t.peak_mem >= 512 << 20 {
            cpu_over_512m += t.cpu_secs;
        }
    }
    let io_time = io_bytes as f64 / REFERENCE_DISK_BPS;
    Profile {
        workflow: wf.name.clone(),
        io_bytes,
        cpu_secs,
        io_bytes_per_cpu_sec: if cpu_secs > 0.0 {
            io_bytes as f64 / cpu_secs
        } else {
            0.0
        },
        cpu_frac_over_1gib: if cpu_secs > 0.0 {
            cpu_over_1g / cpu_secs
        } else {
            0.0
        },
        cpu_frac_over_512mib: if cpu_secs > 0.0 {
            cpu_over_512m / cpu_secs
        } else {
            0.0
        },
        cpu_time_fraction: if cpu_secs + io_time > 0.0 {
            cpu_secs / (cpu_secs + io_time)
        } else {
            0.0
        },
    }
}

/// Grade a profile into Table-I classes.
pub fn classify(p: &Profile) -> ResourceUsage {
    use thresholds::*;
    let io = if p.io_bytes_per_cpu_sec > IO_HIGH_BPCS {
        Grade::High
    } else if p.io_bytes_per_cpu_sec > IO_LOW_BPCS {
        Grade::Medium
    } else {
        Grade::Low
    };
    let memory = if p.cpu_frac_over_1gib > MEM_HIGH_FRAC {
        Grade::High
    } else if p.cpu_frac_over_512mib > MEM_MED_FRAC {
        Grade::Medium
    } else {
        Grade::Low
    };
    let cpu = if p.cpu_time_fraction > CPU_HIGH_FRAC {
        Grade::High
    } else if p.cpu_time_fraction > CPU_LOW_FRAC {
        Grade::Medium
    } else {
        Grade::Low
    };
    ResourceUsage { io, memory, cpu }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broadband::{broadband, BroadbandConfig};
    use crate::epigenome::{epigenome, EpigenomeConfig};
    use crate::montage::{montage, MontageConfig};

    #[test]
    fn table_i_montage() {
        let u = classify(&profile(&montage(MontageConfig::paper())));
        assert_eq!(u.io, Grade::High, "{u:?}");
        assert_eq!(u.memory, Grade::Low, "{u:?}");
        assert_eq!(u.cpu, Grade::Low, "{u:?}");
    }

    #[test]
    fn table_i_broadband() {
        let u = classify(&profile(&broadband(BroadbandConfig::paper())));
        assert_eq!(u.io, Grade::Medium, "{u:?}");
        assert_eq!(u.memory, Grade::High, "{u:?}");
        assert_eq!(u.cpu, Grade::Medium, "{u:?}");
    }

    #[test]
    fn table_i_epigenome() {
        let u = classify(&profile(&epigenome(EpigenomeConfig::paper())));
        assert_eq!(u.io, Grade::Low, "{u:?}");
        assert_eq!(u.memory, Grade::Medium, "{u:?}");
        assert_eq!(u.cpu, Grade::High, "{u:?}");
    }

    #[test]
    fn grades_order_by_io_intensity() {
        let m = profile(&montage(MontageConfig::paper()));
        let b = profile(&broadband(BroadbandConfig::paper()));
        let e = profile(&epigenome(EpigenomeConfig::paper()));
        assert!(m.io_bytes_per_cpu_sec > b.io_bytes_per_cpu_sec);
        assert!(b.io_bytes_per_cpu_sec > e.io_bytes_per_cpu_sec);
        // And CPU fractions the other way round.
        assert!(e.cpu_time_fraction > b.cpu_time_fraction);
        assert!(b.cpu_time_fraction > m.cpu_time_fraction);
    }

    #[test]
    fn profile_totals_are_positive() {
        let p = profile(&montage(MontageConfig::tiny()));
        assert!(p.io_bytes > 0);
        assert!(p.cpu_secs > 0.0);
        assert!((0.0..=1.0).contains(&p.cpu_time_fraction));
        assert!((0.0..=1.0).contains(&p.cpu_frac_over_1gib));
    }
}
