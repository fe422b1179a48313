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
//! A run is billed one way, by [`bill`]: its instance leases (one
//! [`BilledSegment`] per incarnation) plus its S3 requests and storage.
//!
//! ```
//! use wfcost::{bill, BilledSegment, BillingGranularity};
//! use vcluster::InstanceType;
//!
//! let lease = BilledSegment { node: 0, itype: InstanceType::C1Xlarge, secs: 600.0, spot: false };
//! // A 10-minute run still pays the full hour under 2010 billing.
//! let hour = bill(&[lease], 0, 0, 0, 600.0, BillingGranularity::PerHour);
//! let second = bill(&[lease], 0, 0, 0, 600.0, BillingGranularity::PerSecond);
//! assert_eq!(hour.total_cents(), 68.0);
//! assert!((second.total_cents() - 68.0 / 6.0).abs() < 1e-9);
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
/// S3 cents per 1,000 PUT requests (2010).
const PUT_CENTS_PER_1K: f64 = 1.0;
/// S3 cents per 10,000 GET requests (2010).
const GET_CENTS_PER_10K: f64 = 1.0;
/// S3 cents per GB-month stored (2010).
const STORAGE_CENTS_PER_GB_MONTH: f64 = 15.0;

/// The bill for one run, in cents: its instance leases under
/// `granularity` ([`segments_cents`]), its S3 requests
/// ([`request_cents`]) and its peak S3 bytes held for `wall_secs`.
pub fn bill(
    segments: &[BilledSegment],
    s3_puts: u64,
    s3_gets: u64,
    s3_peak_bytes: u64,
    wall_secs: f64,
    granularity: BillingGranularity,
) -> CostBreakdown {
    let gb = s3_peak_bytes as f64 / 1e9;
    CostBreakdown {
        resource_cents: segments_cents(segments, granularity),
        request_cents: request_cents(s3_puts, s3_gets),
        storage_cents: gb * STORAGE_CENTS_PER_GB_MONTH * (wall_secs / SECS_PER_MONTH),
    }
}

/// Instance charges for per-incarnation billing, in cents. Under
/// per-hour granularity every segment rounds up on its own clock: a
/// node crash or spot termination forfeits the started hour, and the
/// replacement instance opens a fresh one — the "wasted partial
/// hours" cost of faults (§VI's billing model under churn).
pub fn segments_cents(segments: &[BilledSegment], granularity: BillingGranularity) -> f64 {
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
pub fn request_cents(puts: u64, gets: u64) -> f64 {
    puts as f64 / 1000.0 * PUT_CENTS_PER_1K + gets as f64 / 10_000.0 * GET_CENTS_PER_10K
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` instances of `itype`, each held for `secs` on demand.
    fn fleet(itype: InstanceType, n: u32, secs: f64) -> Vec<BilledSegment> {
        (0..n)
            .map(|node| BilledSegment {
                node,
                itype,
                secs,
                spot: false,
            })
            .collect()
    }

    fn c1(secs: f64) -> Vec<BilledSegment> {
        fleet(InstanceType::C1Xlarge, 1, secs)
    }

    #[test]
    fn partial_hours_round_up() {
        let ph = BillingGranularity::PerHour;
        assert_eq!(segments_cents(&c1(3601.0), ph), 2.0 * 68.0);
        assert_eq!(
            segments_cents(&c1(10.0), ph),
            68.0,
            "even a 10 s run pays a full hour"
        );
    }

    #[test]
    fn per_second_is_exact() {
        let c = segments_cents(&c1(1800.0), BillingGranularity::PerSecond);
        assert!((c - 34.0).abs() < 1e-9);
    }

    #[test]
    fn per_second_never_exceeds_per_hour() {
        for secs in [1.0, 600.0, 3600.0, 3601.0, 7199.0, 86_400.0] {
            let ps = segments_cents(&c1(secs), BillingGranularity::PerSecond);
            let ph = segments_cents(&c1(secs), BillingGranularity::PerHour);
            assert!(ps <= ph + 1e-9, "{secs}: {ps} > {ph}");
        }
    }

    #[test]
    fn nfs_extra_node_costs_068_per_hour_block() {
        // §VI: "This results in an extra cost of $0.68 per workflow" for
        // runs under an hour.
        let ph = BillingGranularity::PerHour;
        let without = fleet(InstanceType::C1Xlarge, 2, 3000.0);
        let mut with = without.clone();
        with.extend(fleet(InstanceType::M1Xlarge, 1, 3000.0));
        let with = bill(&with, 0, 0, 0, 3000.0, ph);
        let without = bill(&without, 0, 0, 0, 3000.0, ph);
        assert!((with.total_cents() - without.total_cents() - 68.0).abs() < 1e-9);
    }

    #[test]
    fn montage_s3_request_surcharge_matches_paper() {
        // §VI: Montage's S3 request fees come to ~$0.28. Montage writes
        // ~14.6k files (PUTs) and GETs a multiple of that.
        let cents = request_cents(14_600, 135_000);
        assert!((25.0..32.0).contains(&cents), "{cents} cents");
    }

    #[test]
    fn s3_storage_cost_is_negligible_for_paper_workloads() {
        // §VI: "the storage cost is insignificant (<< $0.01)".
        let ph = BillingGranularity::PerHour;
        let b = bill(&[], 0, 0, 12_000_000_000, 3600.0, ph);
        assert!(b.storage_cents > 0.0);
        assert!(b.storage_cents < 1.0, "{}", b.storage_cents);
    }

    #[test]
    fn bill_sums_instances_requests_and_storage() {
        let segs = fleet(InstanceType::C1Xlarge, 4, 2750.0);
        for g in BillingGranularity::BOTH {
            let b = bill(&segs, 18_702, 15_412, 5_000_000_000, 2750.0, g);
            assert_eq!(b.resource_cents, segments_cents(&segs, g));
            assert_eq!(b.request_cents, request_cents(18_702, 15_412));
            let clean = bill(&segs, 0, 0, 0, 2750.0, g);
            assert_eq!(clean.request_cents + clean.storage_cents, 0.0);
        }
    }

    #[test]
    fn adding_nodes_only_helps_with_superlinear_speedup() {
        // §VI: with uniform per-node cost, cost(2n, t/2) == cost(n, t)
        // under per-second billing — so only superlinear speedup reduces
        // cost.
        let ps = BillingGranularity::PerSecond;
        let c1 = InstanceType::C1Xlarge;
        let a = bill(&fleet(c1, 2, 1000.0), 0, 0, 0, 1000.0, ps);
        let b = bill(&fleet(c1, 4, 500.0), 0, 0, 0, 500.0, ps);
        assert!((a.total_cents() - b.total_cents()).abs() < 1e-9);
    }

    #[test]
    fn terminated_segments_waste_the_started_hour() {
        // A node that ran 30 min, was replaced, and the replacement ran
        // another 30 min: two started hours against one for an unbroken
        // node with the same useful time.
        let churned = [c1(1800.0)[0], c1(1800.0)[0]];
        let unbroken = c1(3600.0);
        let ph = BillingGranularity::PerHour;
        assert_eq!(segments_cents(&churned, ph), 2.0 * 68.0);
        assert_eq!(segments_cents(&unbroken, ph), 68.0);
        // Per-second billing sees no waste.
        let ps = BillingGranularity::PerSecond;
        assert!((segments_cents(&churned, ps) - segments_cents(&unbroken, ps)).abs() < 1e-9);
    }

    #[test]
    fn spot_segments_bill_at_the_spot_rate() {
        let seg = |spot| BilledSegment {
            spot,
            ..c1(600.0)[0]
        };
        let on_demand = segments_cents(&[seg(false)], BillingGranularity::PerHour);
        let spot = segments_cents(&[seg(true)], BillingGranularity::PerHour);
        assert_eq!(on_demand, 68.0);
        assert_eq!(spot, 26.0);
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
