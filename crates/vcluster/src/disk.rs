//! Ephemeral-disk model, including the EC2 first-write penalty.
//!
//! Section III.C of the paper measures EC2 ephemeral disks at ~20 MB/s for
//! the *first* write to a region (an artifact of Amazon's disk
//! virtualisation), ~100 MB/s for subsequent writes, and ~110 MB/s reads.
//! A 4-disk software RAID 0 array reaches 80–100 MB/s first writes,
//! 350–400 MB/s rewrites, and ~310 MB/s reads.
//!
//! The simulator models a disk (or array) as two shared resources — one for
//! reads, one for writes — whose capacities are the *device* limits, plus a
//! per-flow rate cap equal to the first-write bandwidth applied to every
//! write of fresh data on an uninitialised device. Workflow workloads are
//! write-once (§V), so in practice every data write pays the penalty unless
//! the disk was pre-initialised (the mitigation Amazon suggests and the
//! paper rejects as uneconomical — our ablation A1 quantifies it).

use serde::Serialize;

/// One megabyte per second, in bytes/second.
pub const MBPS: f64 = 1e6;

/// Bandwidth profile of a block device (a single ephemeral disk or a RAID 0
/// array of them).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DiskProfile {
    /// Peak sequential read bandwidth, bytes/s.
    pub read_bps: f64,
    /// Sustained write bandwidth to previously written regions, bytes/s.
    pub rewrite_bps: f64,
    /// Write bandwidth to fresh regions (the first-write penalty), bytes/s.
    pub first_write_bps: f64,
    /// Aggregate device bandwidth shared by reads *and* writes (disks are
    /// half-duplex: a mixed workload cannot sum the pure-read and
    /// pure-write rates). Always ≥ max(read, rewrite) so single-direction
    /// microbenchmarks still see the advertised numbers.
    pub spindle_bps: f64,
    /// True when the device was zero-filled before use, removing the
    /// first-write penalty.
    pub initialized: bool,
}

impl DiskProfile {
    /// A single EC2 ephemeral disk as measured in §III.C.
    pub const fn ec2_ephemeral() -> Self {
        DiskProfile {
            read_bps: 110.0 * MBPS,
            rewrite_bps: 100.0 * MBPS,
            first_write_bps: 20.0 * MBPS,
            spindle_bps: (110.0 + 100.0) * 0.55 * MBPS,
            initialized: false,
        }
    }

    /// An idealised local disk with no virtualisation penalty (used to
    /// model non-EC2 platforms in ablations).
    pub const fn ideal(read_bps: f64, write_bps: f64) -> Self {
        DiskProfile {
            read_bps,
            rewrite_bps: write_bps,
            first_write_bps: write_bps,
            // 55 % of the directional sum: a pure read or pure write
            // stream still reaches the advertised directional rate, but a
            // mixed read+write workload seeks away a large part of the
            // sequential bandwidth, as 2010 spinning disks did.
            spindle_bps: (read_bps + write_bps) * 0.55,
            initialized: true,
        }
    }

    /// The profile after zero-filling the device (ablation A1): first
    /// writes run at the rewrite bandwidth.
    pub fn initialized(mut self) -> Self {
        self.initialized = true;
        self
    }

    /// Per-flow cap to apply to a write of fresh data, if any.
    ///
    /// `None` means the write is only constrained by the shared write
    /// resource (i.e. the device is initialised or being rewritten).
    pub fn first_write_cap(&self) -> Option<f64> {
        if self.initialized {
            None
        } else {
            Some(self.first_write_bps)
        }
    }

    /// Combine `n` identical disks into a software RAID 0 array.
    ///
    /// Striping efficiency is below 1.0 in practice; the defaults are
    /// chosen so a 4-disk array of EC2 ephemeral disks lands inside the
    /// ranges the paper reports (§III.C): reads ≈ 310 MB/s, rewrites
    /// ≈ 375 MB/s, first writes ≈ 90 MB/s.
    pub fn raid0(self, n: u32, eff: RaidEfficiency) -> Self {
        assert!(n >= 1, "RAID 0 needs at least one disk");
        let n = f64::from(n);
        let read_bps = self.read_bps * n * eff.read;
        let rewrite_bps = self.rewrite_bps * n * eff.write;
        DiskProfile {
            read_bps,
            rewrite_bps,
            first_write_bps: self.first_write_bps * n * eff.first_write,
            spindle_bps: (read_bps + rewrite_bps) * 0.55,
            initialized: self.initialized,
        }
    }
}

/// Striping efficiency factors for RAID 0 aggregation (fraction of the
/// ideal `n ×` scaling actually achieved per operation class).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RaidEfficiency {
    /// Read scaling efficiency.
    pub read: f64,
    /// Rewrite scaling efficiency.
    pub write: f64,
    /// First-write scaling efficiency.
    pub first_write: f64,
}

impl Default for RaidEfficiency {
    /// Calibrated against §III.C: 4 × 110 × 0.70 ≈ 308 MB/s reads,
    /// 4 × 100 × 0.94 ≈ 376 MB/s rewrites, 4 × 20 × 1.00 = 80 MB/s first
    /// writes — the paper reports 80-100 MB/s for the 4-disk array.
    fn default() -> Self {
        RaidEfficiency {
            read: 0.70,
            write: 0.94,
            first_write: 1.00,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_ephemeral_matches_paper() {
        let d = DiskProfile::ec2_ephemeral();
        assert_eq!(d.read_bps, 110.0 * MBPS);
        assert_eq!(d.rewrite_bps, 100.0 * MBPS);
        assert_eq!(d.first_write_bps, 20.0 * MBPS);
        assert_eq!(d.first_write_cap(), Some(20.0 * MBPS));
    }

    #[test]
    fn raid0_x4_lands_in_paper_ranges() {
        // The stock worker-node storage: 4 ephemeral disks in RAID 0 on
        // a `c1.xlarge`.
        let r = crate::InstanceType::C1Xlarge.raid0_profile();
        // §III.C: reads ~310, rewrites 350-400, first writes 80-100 MB/s.
        assert!(
            (300.0 * MBPS..=320.0 * MBPS).contains(&r.read_bps),
            "{}",
            r.read_bps
        );
        assert!(
            (350.0 * MBPS..=400.0 * MBPS).contains(&r.rewrite_bps),
            "{}",
            r.rewrite_bps
        );
        assert!(
            (80.0 * MBPS..=100.0 * MBPS).contains(&r.first_write_bps),
            "{}",
            r.first_write_bps
        );
    }

    #[test]
    fn initialization_removes_first_write_cap() {
        let d = DiskProfile::ec2_ephemeral().initialized();
        assert_eq!(d.first_write_cap(), None);
        assert!(d.initialized);
    }

    #[test]
    fn raid_preserves_initialization_flag() {
        let d = DiskProfile::ec2_ephemeral()
            .initialized()
            .raid0(4, RaidEfficiency::default());
        assert!(d.initialized);
        assert_eq!(d.first_write_cap(), None);
    }

    #[test]
    fn ideal_disk_has_no_penalty() {
        let d = DiskProfile::ideal(200.0 * MBPS, 150.0 * MBPS);
        assert_eq!(d.first_write_cap(), None);
        assert_eq!(d.rewrite_bps, d.first_write_bps);
    }

    #[test]
    fn raid0_of_one_disk_scales_by_efficiency_only() {
        let eff = RaidEfficiency {
            read: 1.0,
            write: 1.0,
            first_write: 1.0,
        };
        let d = DiskProfile::ec2_ephemeral().raid0(1, eff);
        assert_eq!(d, DiskProfile::ec2_ephemeral());
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn raid0_of_zero_disks_panics() {
        let _ = DiskProfile::ec2_ephemeral().raid0(0, RaidEfficiency::default());
    }
}
