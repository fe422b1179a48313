//! Transfers between the submit host and the cloud (experiment E9).
//!
//! §III.C: "Since the focus of this paper is on the storage systems we
//! did not perform or measure data transfers to/from the cloud", deferring
//! to the authors' earlier study. This module supplies that missing edge
//! so end-to-end cost/time can be reported: a WAN link model between the
//! submit host and EC2, plus Amazon's 2010 transfer prices ($0.10/GB in,
//! $0.17/GB out; transfers within EC2 are free).

use serde::Serialize;

/// Sustained WAN throughput between the submit host and EC2, bytes/s (a
/// well-connected 2010 campus saw 10–40 MB/s to us-east-1).
pub const WAN_BYTES_PER_SEC: f64 = 20.0e6;
/// Per-file WAN overhead, seconds (connection setup, GridFTP handshake).
pub const WAN_SECS_PER_FILE: f64 = 0.5;
/// Amazon's 2010 price for transfers into EC2/S3, cents per GB.
pub const IN_CENTS_PER_GB: f64 = 10.0;
/// Amazon's 2010 price for transfers out of EC2/S3, cents per GB.
pub const OUT_CENTS_PER_GB: f64 = 17.0;

/// One staging movement (in or out).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StagingEstimate {
    /// Wall time, seconds.
    pub secs: f64,
    /// Transfer charge, cents.
    pub cents: f64,
}

/// Estimate moving `bytes` across `files` into the cloud.
pub fn stage_in(bytes: u64, files: u64) -> StagingEstimate {
    estimate(bytes, files, IN_CENTS_PER_GB)
}

/// Estimate moving `bytes` across `files` out of the cloud.
pub fn stage_out(bytes: u64, files: u64) -> StagingEstimate {
    estimate(bytes, files, OUT_CENTS_PER_GB)
}

fn estimate(bytes: u64, files: u64, cents_per_gb: f64) -> StagingEstimate {
    StagingEstimate {
        secs: bytes as f64 / WAN_BYTES_PER_SEC + files as f64 * WAN_SECS_PER_FILE,
        cents: bytes as f64 / 1e9 * cents_per_gb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn montage_scale_staging_matches_hand_arithmetic() {
        // 4.2 GB in over 2102 files at 20 MB/s + 0.5 s/file.
        let e = stage_in(4_200_000_000, 2102);
        assert!((e.secs - (210.0 + 1051.0)).abs() < 1.0, "{}", e.secs);
        assert!((e.cents - 42.0).abs() < 0.1, "{}", e.cents);
    }

    #[test]
    fn outbound_is_pricier_per_gb() {
        let i = stage_in(1_000_000_000, 1);
        let o = stage_out(1_000_000_000, 1);
        assert!(o.cents > i.cents);
        assert!((o.secs - i.secs).abs() < 1e-9, "same link both ways");
    }

    #[test]
    fn per_file_overhead_dominates_many_small_files() {
        let few_big = stage_in(1_000_000_000, 10);
        let many_small = stage_in(1_000_000_000, 10_000);
        assert!(many_small.secs > few_big.secs * 10.0);
        assert!(
            (many_small.cents - few_big.cents).abs() < 1e-9,
            "cost is per byte"
        );
    }

    #[test]
    fn zero_bytes_costs_nothing_but_still_pays_handshakes() {
        let e = stage_in(0, 4);
        assert_eq!(e.cents, 0.0);
        assert!((e.secs - 2.0).abs() < 1e-12);
    }
}
