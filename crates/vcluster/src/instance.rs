//! Amazon EC2 instance-type catalog, with the 2010-era attributes and
//! prices the paper used.

use crate::disk::{DiskProfile, RaidEfficiency, MBPS};
use serde::Serialize;

/// One gibibyte in bytes.
pub const GIB: u64 = 1 << 30;

/// EC2 instance types that appear in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum InstanceType {
    /// Worker node of every experiment: 8 cores (2 × quad 2.33–2.66 GHz
    /// Xeon), 7 GB RAM, 4 ephemeral disks, $0.68/h.
    C1Xlarge,
    /// The dedicated NFS server: best NFS performance of the catalog
    /// thanks to 16 GB of RAM for the page cache (§IV.B). $0.68/h.
    M1Xlarge,
    /// The beefier NFS server tried in §V.C: 64 GB RAM, 8 cores, $2.40/h.
    M24Xlarge,
    /// Small instance, included for completeness of the catalog.
    M1Small,
}

impl InstanceType {
    /// All catalog entries.
    pub const ALL: [InstanceType; 4] = [
        InstanceType::C1Xlarge,
        InstanceType::M1Xlarge,
        InstanceType::M24Xlarge,
        InstanceType::M1Small,
    ];

    /// The API name Amazon uses.
    pub fn api_name(self) -> &'static str {
        match self {
            InstanceType::C1Xlarge => "c1.xlarge",
            InstanceType::M1Xlarge => "m1.xlarge",
            InstanceType::M24Xlarge => "m2.4xlarge",
            InstanceType::M1Small => "m1.small",
        }
    }

    /// Parse an Amazon API name back into a catalog entry (the inverse of
    /// [`api_name`](Self::api_name)); `None` for names outside the catalog.
    pub fn from_api_name(name: &str) -> Option<InstanceType> {
        InstanceType::ALL.into_iter().find(|t| t.api_name() == name)
    }

    /// Number of physical cores (Condor slots) exposed.
    pub fn cores(self) -> u32 {
        match self {
            InstanceType::C1Xlarge => 8,
            InstanceType::M1Xlarge => 4,
            InstanceType::M24Xlarge => 8,
            InstanceType::M1Small => 1,
        }
    }

    /// Physical memory in bytes.
    pub fn memory_bytes(self) -> u64 {
        match self {
            InstanceType::C1Xlarge => 7 * GIB,
            InstanceType::M1Xlarge => 16 * GIB,
            InstanceType::M24Xlarge => 64 * GIB,
            InstanceType::M1Small => (17 * GIB) / 10, // 1.7 GB
        }
    }

    /// Relative per-core speed (c1.xlarge ≡ 1.0). The m1 family had slower
    /// cores; this only matters if compute jobs run on a server node.
    pub fn core_speed(self) -> f64 {
        match self {
            InstanceType::C1Xlarge => 1.0,
            InstanceType::M1Xlarge => 0.8,
            InstanceType::M24Xlarge => 1.1,
            InstanceType::M1Small => 0.4,
        }
    }

    /// NIC bandwidth per direction, bytes/s (EC2 2010: ~1 Gbps for large
    /// types, less for m1.small).
    pub fn nic_bps(self) -> f64 {
        match self {
            InstanceType::M1Small => 31.25 * MBPS, // 250 Mbps
            _ => 125.0 * MBPS,                     // 1 Gbps
        }
    }

    /// Number of ephemeral disks.
    pub fn ephemeral_disks(self) -> u32 {
        match self {
            InstanceType::C1Xlarge | InstanceType::M1Xlarge => 4,
            InstanceType::M24Xlarge => 2,
            InstanceType::M1Small => 1,
        }
    }

    /// Hourly on-demand price in US cents (us-east-1, 2010).
    pub fn price_cents_per_hour(self) -> u32 {
        match self {
            InstanceType::C1Xlarge => 68,
            InstanceType::M1Xlarge => 68,
            InstanceType::M24Xlarge => 240,
            InstanceType::M1Small => 9,
        }
    }

    /// Typical hourly *spot* price in US cents (us-east-1, 2010). Spot
    /// capacity traded at roughly 35–40 % of on-demand back then; the
    /// discount is what makes riding out terminations attractive.
    pub fn spot_price_cents_per_hour(self) -> u32 {
        match self {
            InstanceType::C1Xlarge | InstanceType::M1Xlarge => 26,
            InstanceType::M24Xlarge => 92,
            InstanceType::M1Small => 4,
        }
    }

    /// The node's storage device: all ephemeral disks in software RAID 0
    /// (§III.C), uninitialised by default.
    pub fn raid0_profile(self) -> DiskProfile {
        DiskProfile::ec2_ephemeral().raid0(self.ephemeral_disks(), RaidEfficiency::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c1_xlarge_matches_paper() {
        let t = InstanceType::C1Xlarge;
        assert_eq!(t.cores(), 8);
        assert_eq!(t.memory_bytes(), 7 * GIB);
        assert_eq!(t.ephemeral_disks(), 4);
        assert_eq!(t.price_cents_per_hour(), 68);
        assert_eq!(t.api_name(), "c1.xlarge");
    }

    #[test]
    fn m1_xlarge_has_16_gb_for_nfs_cache() {
        // §IV.B: "m1.xlarge has a comparatively large amount of memory
        // (16GB), which facilitates good cache performance".
        assert_eq!(InstanceType::M1Xlarge.memory_bytes(), 16 * GIB);
        assert_eq!(InstanceType::M1Xlarge.price_cents_per_hour(), 68);
    }

    #[test]
    fn m2_4xlarge_matches_section_v_c() {
        // §V.C: "a different NFS server (m2.4xlarge, 64 GB memory, 8 cores)".
        let t = InstanceType::M24Xlarge;
        assert_eq!(t.memory_bytes(), 64 * GIB);
        assert_eq!(t.cores(), 8);
        assert_eq!(t.price_cents_per_hour(), 240);
    }

    #[test]
    fn worker_raid_is_four_disks() {
        let p = InstanceType::C1Xlarge.raid0_profile();
        assert!(p.first_write_cap().is_some());
        assert!(p.read_bps > 300.0 * MBPS);
    }

    #[test]
    fn spot_prices_discount_on_demand() {
        for t in InstanceType::ALL {
            let spot = t.spot_price_cents_per_hour();
            let demand = t.price_cents_per_hour();
            assert!(spot < demand, "{t:?}: spot {spot} >= on-demand {demand}");
            let ratio = f64::from(spot) / f64::from(demand);
            assert!((0.3..0.5).contains(&ratio), "{t:?}: ratio {ratio}");
        }
    }

    #[test]
    fn api_names_round_trip() {
        for t in InstanceType::ALL {
            assert_eq!(InstanceType::from_api_name(t.api_name()), Some(t));
        }
        assert_eq!(InstanceType::from_api_name("t2.micro"), None);
    }

    #[test]
    fn catalog_is_distinct() {
        let names: Vec<_> = InstanceType::ALL.iter().map(|t| t.api_name()).collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names, dedup);
    }
}
