//! Property tests for the billing model.

use proptest::prelude::*;
use vcluster::InstanceType;
use wfcost::{bill, request_cents, segments_cents, BilledSegment, BillingGranularity};

fn any_instance() -> impl Strategy<Value = InstanceType> {
    prop_oneof![
        Just(InstanceType::C1Xlarge),
        Just(InstanceType::M1Xlarge),
        Just(InstanceType::M24Xlarge),
        Just(InstanceType::M1Small),
    ]
}

/// One on-demand lease of `itype` for `secs`.
fn lease(itype: InstanceType, secs: f64) -> BilledSegment {
    BilledSegment {
        node: 0,
        itype,
        secs,
        spot: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Per-second billing never exceeds per-hour billing, and per-hour is
    /// within one hourly rate of per-second (the rounding bound).
    #[test]
    fn hour_rounding_bounds(itype in any_instance(), secs in 1.0f64..200_000.0) {
        let seg = [lease(itype, secs)];
        let ps = segments_cents(&seg, BillingGranularity::PerSecond);
        let ph = segments_cents(&seg, BillingGranularity::PerHour);
        let hourly = f64::from(itype.price_cents_per_hour());
        prop_assert!(ps <= ph + 1e-9);
        prop_assert!(ph <= ps + hourly + 1e-9, "rounding up costs at most one hour");
    }

    /// Billing is monotone in wall time under both granularities.
    #[test]
    fn monotone_in_time(itype in any_instance(), a in 1.0f64..100_000.0, b in 1.0f64..100_000.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        for g in BillingGranularity::BOTH {
            prop_assert!(
                segments_cents(&[lease(itype, lo)], g) <= segments_cents(&[lease(itype, hi)], g) + 1e-9
            );
        }
    }

    /// A run's bill is additive over its segments: `w` leases cost `w`
    /// times one, and splitting a fleet's segments in two splits its
    /// resource bill the same way.
    #[test]
    fn additive_over_segments(secs in 1.0f64..50_000.0, w in 1usize..16, cut in 0usize..16) {
        let segs: Vec<BilledSegment> = (0..w)
            .map(|node| BilledSegment { node: node as u32, ..lease(InstanceType::C1Xlarge, secs) })
            .collect();
        let cut = cut.min(w);
        for g in BillingGranularity::BOTH {
            let one = bill(&segs[..1], 0, 0, 0, secs, g).total_cents();
            let lots = bill(&segs, 0, 0, 0, secs, g).total_cents();
            prop_assert!((lots - one * w as f64).abs() < 1e-6);
            let halves = segments_cents(&segs[..cut], g) + segments_cents(&segs[cut..], g);
            prop_assert!((lots - halves).abs() < 1e-6);
        }
    }

    /// Request fees are linear and non-negative.
    #[test]
    fn request_fees_linear(puts in 0u64..10_000_000, gets in 0u64..10_000_000) {
        let c = request_cents(puts, gets);
        prop_assert!(c >= 0.0);
        let doubled = request_cents(puts * 2, gets * 2);
        prop_assert!((doubled - 2.0 * c).abs() < 1e-6);
    }

    /// WAN staging time decomposes into bandwidth and handshake terms.
    #[test]
    fn staging_decomposes(bytes in 0u64..100_000_000_000u64, files in 0u64..100_000) {
        use wfcost::transfer::{stage_in, WAN_BYTES_PER_SEC, WAN_SECS_PER_FILE};
        let e = stage_in(bytes, files);
        let expect = bytes as f64 / WAN_BYTES_PER_SEC + files as f64 * WAN_SECS_PER_FILE;
        prop_assert!((e.secs - expect).abs() < 1e-9);
        prop_assert!((e.cents - bytes as f64 / 1e9 * 10.0).abs() < 1e-9);
    }
}
