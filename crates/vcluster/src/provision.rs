//! Virtual-cluster provisioning and contextualization, after the Nimbus
//! Context Broker workflow of §III.A.
//!
//! The paper provisions a virtual cluster by (1) requesting instances,
//! (2) waiting for them to boot (70–90 s on 2009/2010 EC2, per the
//! CloudStatus numbers the paper cites), and (3) *contextualizing* them —
//! the Context Broker gathers every node's identity, generates
//! configuration for the chosen storage system, and starts services.
//! Makespans in §V exclude this; this module makes the excluded time
//! measurable, so the trade-off between "provision per workflow" and
//! "provision once, run many" (§VI's amortization advice) can be
//! quantified.

use crate::cluster::ClusterSpec;
use serde::Serialize;
use simcore::{DetRng, SimDuration};

/// Tunables for the provisioning model.
#[derive(Debug, Clone, Copy)]
pub struct ProvisionConfig {
    /// Minimum instance boot time (request to SSH-able), seconds.
    pub boot_min_secs: f64,
    /// Maximum instance boot time, seconds.
    pub boot_max_secs: f64,
    /// Context Broker round: collecting identities and writing configs,
    /// per node, seconds.
    pub contextualize_per_node_secs: f64,
    /// Fixed service-start time once configs exist (mount file systems,
    /// start Condor daemons), seconds.
    pub service_start_secs: f64,
}

impl Default for ProvisionConfig {
    fn default() -> Self {
        ProvisionConfig {
            boot_min_secs: 70.0,
            boot_max_secs: 90.0,
            contextualize_per_node_secs: 2.5,
            service_start_secs: 15.0,
        }
    }
}

/// The timeline of one provisioning round.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProvisionReport {
    /// Per-instance boot times, seconds (all requested concurrently).
    pub boot_secs: Vec<f64>,
    /// When the last instance finished booting.
    pub slowest_boot_secs: f64,
    /// Contextualization round duration.
    pub contextualize_secs: f64,
    /// Service start duration.
    pub service_start_secs: f64,
}

impl ProvisionReport {
    /// Total wall time from request to a usable virtual cluster.
    pub fn total_secs(&self) -> f64 {
        self.slowest_boot_secs + self.contextualize_secs + self.service_start_secs
    }

    /// As a [`SimDuration`], for offsetting a workflow start.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.total_secs())
    }
}

/// Simulate provisioning `spec` under `cfg`. Instances boot concurrently
/// with independent jittered boot times; the Context Broker waits for all
/// of them (it needs every identity to generate configurations), then
/// contextualizes and starts services.
pub fn provision_timeline(
    spec: &ClusterSpec,
    cfg: &ProvisionConfig,
    rng: &mut DetRng,
) -> ProvisionReport {
    let n = spec.total_instances();
    let boot_secs: Vec<f64> = (0..n)
        .map(|_| rng.uniform(cfg.boot_min_secs, cfg.boot_max_secs))
        .collect();
    let slowest_boot_secs = boot_secs.iter().copied().fold(0.0, f64::max);
    ProvisionReport {
        slowest_boot_secs,
        contextualize_secs: cfg.contextualize_per_node_secs * f64::from(n),
        service_start_secs: cfg.service_start_secs,
        boot_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceType;

    fn spec(n: u32) -> ClusterSpec {
        ClusterSpec::with_server(n, InstanceType::M1Xlarge)
    }

    #[test]
    fn boots_land_in_the_cloudstatus_range() {
        let mut rng = DetRng::stream(42, "prov");
        let r = provision_timeline(&spec(8), &ProvisionConfig::default(), &mut rng);
        assert_eq!(r.boot_secs.len(), 9, "8 workers + server");
        for &b in &r.boot_secs {
            assert!((70.0..90.0).contains(&b), "{b}");
        }
        assert!(r.slowest_boot_secs >= 70.0);
    }

    #[test]
    fn more_nodes_mean_slower_readiness() {
        let mut rng = DetRng::stream(42, "prov");
        let small = provision_timeline(&spec(1), &ProvisionConfig::default(), &mut rng);
        let mut rng = DetRng::stream(42, "prov");
        let large = provision_timeline(&spec(8), &ProvisionConfig::default(), &mut rng);
        // Contextualization is per-node; the slowest-boot order statistic
        // also grows with n.
        assert!(large.total_secs() > small.total_secs());
        assert!(large.contextualize_secs > small.contextualize_secs);
    }

    #[test]
    fn provisioning_is_deterministic_per_seed() {
        let mut a = DetRng::stream(7, "prov");
        let mut b = DetRng::stream(7, "prov");
        let cfg = ProvisionConfig::default();
        assert_eq!(
            provision_timeline(&spec(4), &cfg, &mut a),
            provision_timeline(&spec(4), &cfg, &mut b)
        );
    }

    #[test]
    fn report_total_is_the_sum_of_stages() {
        let r = ProvisionReport {
            boot_secs: vec![80.0],
            slowest_boot_secs: 80.0,
            contextualize_secs: 5.0,
            service_start_secs: 15.0,
        };
        assert!((r.total_secs() - 100.0).abs() < 1e-12);
        assert_eq!(r.total(), SimDuration::from_secs(100));
    }
}
