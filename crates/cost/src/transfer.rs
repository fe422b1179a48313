//! Transfers between the submit host and the cloud (experiment E9).
//!
//! §III.C: "Since the focus of this paper is on the storage systems we
//! did not perform or measure data transfers to/from the cloud", deferring
//! to the authors' earlier study. This module supplies that missing edge
//! so end-to-end cost/time can be reported: a WAN link model between the
//! submit host and EC2, plus Amazon's 2010 transfer prices ($0.10/GB in,
//! $0.17/GB out; transfers within EC2 are free).

use serde::Serialize;

/// Amazon's 2010 internet-transfer price schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TransferPricing {
    /// Cents per GB into EC2/S3.
    pub in_cents_per_gb: f64,
    /// Cents per GB out of EC2/S3.
    pub out_cents_per_gb: f64,
}

impl Default for TransferPricing {
    fn default() -> Self {
        TransferPricing {
            in_cents_per_gb: 10.0,
            out_cents_per_gb: 17.0,
        }
    }
}

/// The WAN link between the submit host and the cloud.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WanLink {
    /// Sustained throughput, bytes/s (a well-connected 2010 campus saw
    /// 10–40 MB/s to us-east-1).
    pub bandwidth_bps: f64,
    /// Per-file overhead, seconds (connection setup, GridFTP handshake).
    pub per_file_secs: f64,
}

impl Default for WanLink {
    fn default() -> Self {
        WanLink {
            bandwidth_bps: 20.0e6,
            per_file_secs: 0.5,
        }
    }
}

/// One staging movement (in or out).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StagingEstimate {
    /// Bytes moved.
    pub bytes: u64,
    /// Files moved.
    pub files: u64,
    /// Wall time, seconds.
    pub secs: f64,
    /// Transfer charge, cents.
    pub cents: f64,
}

/// Estimate moving `bytes` across `files` into the cloud.
pub fn stage_in(
    bytes: u64,
    files: u64,
    link: &WanLink,
    pricing: &TransferPricing,
) -> StagingEstimate {
    estimate(bytes, files, link, pricing.in_cents_per_gb)
}

/// Estimate moving `bytes` across `files` out of the cloud.
pub fn stage_out(
    bytes: u64,
    files: u64,
    link: &WanLink,
    pricing: &TransferPricing,
) -> StagingEstimate {
    estimate(bytes, files, link, pricing.out_cents_per_gb)
}

fn estimate(bytes: u64, files: u64, link: &WanLink, cents_per_gb: f64) -> StagingEstimate {
    StagingEstimate {
        bytes,
        files,
        secs: bytes as f64 / link.bandwidth_bps + files as f64 * link.per_file_secs,
        cents: bytes as f64 / 1e9 * cents_per_gb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn montage_scale_staging_matches_hand_arithmetic() {
        // 4.2 GB in over 2102 files at 20 MB/s + 0.5 s/file.
        let link = WanLink::default();
        let p = TransferPricing::default();
        let e = stage_in(4_200_000_000, 2102, &link, &p);
        assert!((e.secs - (210.0 + 1051.0)).abs() < 1.0, "{}", e.secs);
        assert!((e.cents - 42.0).abs() < 0.1, "{}", e.cents);
    }

    #[test]
    fn outbound_is_pricier_per_gb() {
        let link = WanLink::default();
        let p = TransferPricing::default();
        let i = stage_in(1_000_000_000, 1, &link, &p);
        let o = stage_out(1_000_000_000, 1, &link, &p);
        assert!(o.cents > i.cents);
        assert!((o.secs - i.secs).abs() < 1e-9, "same link both ways");
    }

    #[test]
    fn per_file_overhead_dominates_many_small_files() {
        let link = WanLink::default();
        let p = TransferPricing::default();
        let few_big = stage_in(1_000_000_000, 10, &link, &p);
        let many_small = stage_in(1_000_000_000, 10_000, &link, &p);
        assert!(many_small.secs > few_big.secs * 10.0);
        assert!(
            (many_small.cents - few_big.cents).abs() < 1e-9,
            "cost is per byte"
        );
    }

    #[test]
    fn zero_bytes_costs_nothing_but_still_pays_handshakes() {
        let link = WanLink::default();
        let p = TransferPricing::default();
        let e = stage_in(0, 4, &link, &p);
        assert_eq!(e.cents, 0.0);
        assert!((e.secs - 2.0).abs() < 1e-12);
    }
}
