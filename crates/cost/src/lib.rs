//! # wfcost — the paper's Amazon billing model (§VI)
//!
//! Three cost categories: resource cost (VM instance hours), storage cost
//! (S3 $/GB-month; VM images and input archives are out of scope here as
//! in the paper), and S3 request fees. Two billing granularities:
//!
//! * **per-hour** — what Amazon actually charged in 2010: partial hours
//!   round *up*;
//! * **per-second** — the hourly rate divided by 3600, the hypothetical
//!   the paper uses to show how much of the hour-rounding is waste.
//!
//! 2010 request fees: $0.01 per 1,000 PUTs, $0.01 per 10,000 GETs, $0.15
//! per GB-month of storage; transfers within EC2 are free.
//!
//! ```
//! use wfcost::{BillingGranularity, CostModel};
//! use vcluster::InstanceType;
//!
//! let m = CostModel::default();
//! // A 10-minute run still pays the full hour under 2010 billing.
//! let hour = m.instance_cents(InstanceType::C1Xlarge, 600.0, BillingGranularity::PerHour);
//! let second = m.instance_cents(InstanceType::C1Xlarge, 600.0, BillingGranularity::PerSecond);
//! assert_eq!(hour, 68.0);
//! assert!((second - 68.0 / 6.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod transfer;

use serde::Serialize;
use vcluster::InstanceType;

/// How VM time is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum BillingGranularity {
    /// Amazon's 2010 billing: every started hour costs a full hour.
    PerHour,
    /// Hypothetical exact billing at `hourly / 3600` per second.
    PerSecond,
}

impl BillingGranularity {
    /// Both granularities, in the order of Figs 5–7.
    pub const BOTH: [BillingGranularity; 2] =
        [BillingGranularity::PerHour, BillingGranularity::PerSecond];
}

/// The S3 fee schedule (2010).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct S3Fees {
    /// Cents per 1,000 PUT requests.
    pub put_cents_per_1k: f64,
    /// Cents per 10,000 GET requests.
    pub get_cents_per_10k: f64,
    /// Cents per GB-month of stored data.
    pub storage_cents_per_gb_month: f64,
}

impl Default for S3Fees {
    fn default() -> Self {
        S3Fees {
            put_cents_per_1k: 1.0,
            get_cents_per_10k: 1.0,
            storage_cents_per_gb_month: 15.0,
        }
    }
}

/// The complete cost model.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct CostModel {
    /// S3 fee schedule.
    pub s3: S3Fees,
}

/// What a run consumed, for billing purposes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct UsageReport {
    /// Wall-clock seconds every instance was held (the makespan; boot and
    /// data-transfer time are excluded in the paper's accounting, §V).
    pub wall_secs: f64,
    /// Instances held for the run: (type, count).
    pub instances: Vec<(InstanceType, u32)>,
    /// S3 PUT requests (0 unless the S3 storage option is in use).
    pub s3_puts: u64,
    /// S3 GET requests.
    pub s3_gets: u64,
    /// Peak bytes stored in S3.
    pub s3_peak_bytes: u64,
}

/// One continuous interval an instance was held. Fault injection splits a
/// node's lifetime into several segments (crash → replacement); a clean
/// run has exactly one per node spanning the makespan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BilledSegment {
    /// Cluster node id the incarnation belonged to. Not priced — carried
    /// so exporters can attach billing records to the right node span.
    pub node: u32,
    /// The instance type held.
    pub itype: InstanceType,
    /// Seconds from acquisition to release (or termination).
    pub secs: f64,
    /// Whether this incarnation ran on the spot market (billed at the
    /// spot rate; its termination wastes the started hour all the same).
    pub spot: bool,
}

/// A cost breakdown in cents.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CostBreakdown {
    /// VM instance charges.
    pub resource_cents: f64,
    /// S3 request charges.
    pub request_cents: f64,
    /// S3 storage charges (pro-rated by wall time; negligible for the
    /// paper's workloads, and reported as such).
    pub storage_cents: f64,
}

impl CostBreakdown {
    /// Total cents.
    pub fn total_cents(self) -> f64 {
        self.resource_cents + self.request_cents + self.storage_cents
    }

    /// Total dollars.
    pub fn total_dollars(self) -> f64 {
        self.total_cents() / 100.0
    }
}

/// Seconds per billing month used for GB-month pro-rating.
const SECS_PER_MONTH: f64 = 30.0 * 24.0 * 3600.0;

impl CostModel {
    /// Cost of holding one `itype` instance for `wall_secs` under the
    /// given granularity, in cents.
    pub fn instance_cents(
        self,
        itype: InstanceType,
        wall_secs: f64,
        granularity: BillingGranularity,
    ) -> f64 {
        let hourly = f64::from(itype.price_cents_per_hour());
        match granularity {
            BillingGranularity::PerHour => (wall_secs / 3600.0).ceil().max(1.0) * hourly,
            BillingGranularity::PerSecond => wall_secs * hourly / 3600.0,
        }
    }

    /// Instance charges for per-incarnation billing, in cents. Under
    /// per-hour granularity every segment rounds up on its own clock: a
    /// node crash or spot termination forfeits the started hour, and the
    /// replacement instance opens a fresh one — the "wasted partial
    /// hours" cost of faults (§VI's billing model under churn).
    pub fn segments_cents(
        self,
        segments: &[BilledSegment],
        granularity: BillingGranularity,
    ) -> f64 {
        segments
            .iter()
            .map(|s| {
                let hourly = f64::from(if s.spot {
                    s.itype.spot_price_cents_per_hour()
                } else {
                    s.itype.price_cents_per_hour()
                });
                match granularity {
                    BillingGranularity::PerHour => (s.secs / 3600.0).ceil().max(1.0) * hourly,
                    BillingGranularity::PerSecond => s.secs * hourly / 3600.0,
                }
            })
            .sum()
    }

    /// S3 request charges in cents.
    pub fn request_cents(self, puts: u64, gets: u64) -> f64 {
        puts as f64 / 1000.0 * self.s3.put_cents_per_1k
            + gets as f64 / 10_000.0 * self.s3.get_cents_per_10k
    }

    /// S3 storage charges in cents, pro-rated over the run's wall time.
    pub fn storage_cents(self, peak_bytes: u64, wall_secs: f64) -> f64 {
        let gb = peak_bytes as f64 / 1e9;
        gb * self.s3.storage_cents_per_gb_month * (wall_secs / SECS_PER_MONTH)
    }

    /// The full breakdown for a run.
    pub fn workflow_cost(
        self,
        usage: &UsageReport,
        granularity: BillingGranularity,
    ) -> CostBreakdown {
        let resource_cents = usage
            .instances
            .iter()
            .map(|(t, n)| f64::from(*n) * self.instance_cents(*t, usage.wall_secs, granularity))
            .sum();
        CostBreakdown {
            resource_cents,
            request_cents: self.request_cents(usage.s3_puts, usage.s3_gets),
            storage_cents: self.storage_cents(usage.s3_peak_bytes, usage.wall_secs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage(secs: f64, workers: u32, server: bool) -> UsageReport {
        let mut instances = vec![(InstanceType::C1Xlarge, workers)];
        if server {
            instances.push((InstanceType::M1Xlarge, 1));
        }
        UsageReport {
            wall_secs: secs,
            instances,
            s3_puts: 0,
            s3_gets: 0,
            s3_peak_bytes: 0,
        }
    }

    #[test]
    fn partial_hours_round_up() {
        let m = CostModel::default();
        let c = m.instance_cents(InstanceType::C1Xlarge, 3601.0, BillingGranularity::PerHour);
        assert_eq!(c, 2.0 * 68.0);
        let c1 = m.instance_cents(InstanceType::C1Xlarge, 10.0, BillingGranularity::PerHour);
        assert_eq!(c1, 68.0, "even a 10 s run pays a full hour");
    }

    #[test]
    fn per_second_is_exact() {
        let m = CostModel::default();
        let c = m.instance_cents(
            InstanceType::C1Xlarge,
            1800.0,
            BillingGranularity::PerSecond,
        );
        assert!((c - 34.0).abs() < 1e-9);
    }

    #[test]
    fn per_second_never_exceeds_per_hour() {
        let m = CostModel::default();
        for secs in [1.0, 600.0, 3600.0, 3601.0, 7199.0, 86_400.0] {
            let ps = m.instance_cents(InstanceType::C1Xlarge, secs, BillingGranularity::PerSecond);
            let ph = m.instance_cents(InstanceType::C1Xlarge, secs, BillingGranularity::PerHour);
            assert!(ps <= ph + 1e-9, "{secs}: {ps} > {ph}");
        }
    }

    #[test]
    fn nfs_extra_node_costs_068_per_hour_block() {
        // §VI: "This results in an extra cost of $0.68 per workflow" for
        // runs under an hour.
        let m = CostModel::default();
        let with = m.workflow_cost(&usage(3000.0, 2, true), BillingGranularity::PerHour);
        let without = m.workflow_cost(&usage(3000.0, 2, false), BillingGranularity::PerHour);
        assert!((with.total_cents() - without.total_cents() - 68.0).abs() < 1e-9);
    }

    #[test]
    fn montage_s3_request_surcharge_matches_paper() {
        // §VI: Montage's S3 request fees come to ~$0.28. Montage writes
        // ~14.6k files (PUTs) and GETs a multiple of that.
        let m = CostModel::default();
        let cents = m.request_cents(14_600, 135_000);
        assert!((25.0..32.0).contains(&cents), "{cents} cents");
    }

    #[test]
    fn s3_storage_cost_is_negligible_for_paper_workloads() {
        // §VI: "the storage cost is insignificant (<< $0.01)".
        let m = CostModel::default();
        let cents = m.storage_cents(12_000_000_000, 3600.0);
        assert!(cents < 1.0, "{cents}");
    }

    #[test]
    fn adding_nodes_only_helps_with_superlinear_speedup() {
        // §VI: with uniform per-node cost, cost(2n, t/2) == cost(n, t)
        // under per-second billing — so only superlinear speedup reduces
        // cost.
        let m = CostModel::default();
        let a = m.workflow_cost(&usage(1000.0, 2, false), BillingGranularity::PerSecond);
        let b = m.workflow_cost(&usage(500.0, 4, false), BillingGranularity::PerSecond);
        assert!((a.total_cents() - b.total_cents()).abs() < 1e-9);
    }

    #[test]
    fn terminated_segments_waste_the_started_hour() {
        let m = CostModel::default();
        // A node that ran 30 min, was replaced, and the replacement ran
        // another 30 min: two started hours against one for an unbroken
        // node with the same useful time.
        let churned = [
            BilledSegment {
                node: 0,
                itype: InstanceType::C1Xlarge,
                secs: 1800.0,
                spot: false,
            },
            BilledSegment {
                node: 0,
                itype: InstanceType::C1Xlarge,
                secs: 1800.0,
                spot: false,
            },
        ];
        let unbroken = [BilledSegment {
            node: 0,
            itype: InstanceType::C1Xlarge,
            secs: 3600.0,
            spot: false,
        }];
        let ph = BillingGranularity::PerHour;
        assert_eq!(m.segments_cents(&churned, ph), 2.0 * 68.0);
        assert_eq!(m.segments_cents(&unbroken, ph), 68.0);
        // Per-second billing sees no waste.
        let ps = BillingGranularity::PerSecond;
        assert!((m.segments_cents(&churned, ps) - m.segments_cents(&unbroken, ps)).abs() < 1e-9);
    }

    #[test]
    fn spot_segments_bill_at_the_spot_rate() {
        let m = CostModel::default();
        let seg = |spot| BilledSegment {
            node: 0,
            itype: InstanceType::C1Xlarge,
            secs: 600.0,
            spot,
        };
        let on_demand = m.segments_cents(&[seg(false)], BillingGranularity::PerHour);
        let spot = m.segments_cents(&[seg(true)], BillingGranularity::PerHour);
        assert_eq!(on_demand, 68.0);
        assert_eq!(spot, 26.0);
    }

    #[test]
    fn clean_segments_match_usage_report_billing() {
        // One full-makespan segment per instance must price identically to
        // the aggregate UsageReport path, so fault-free cost figures are
        // unchanged by the segment accounting.
        let m = CostModel::default();
        let secs = 2750.0;
        let segs: Vec<BilledSegment> = (0..4)
            .map(|node| BilledSegment {
                node,
                itype: InstanceType::C1Xlarge,
                secs,
                spot: false,
            })
            .collect();
        for g in BillingGranularity::BOTH {
            let via_segments = m.segments_cents(&segs, g);
            let via_usage = m.workflow_cost(&usage(secs, 4, false), g).resource_cents;
            assert!((via_segments - via_usage).abs() < 1e-9, "{g:?}");
        }
    }

    #[test]
    fn breakdown_totals() {
        let b = CostBreakdown {
            resource_cents: 100.0,
            request_cents: 28.0,
            storage_cents: 0.5,
        };
        assert!((b.total_cents() - 128.5).abs() < 1e-12);
        assert!((b.total_dollars() - 1.285).abs() < 1e-12);
    }
}
