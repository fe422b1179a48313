//! Experiment E9 (beyond-paper): end-to-end accounting — provisioning
//! (§III.A) and WAN staging (§III.C excluded both from the makespans) —
//! so a complete "submit to archived outputs" timeline and bill can be
//! reported per application.

use serde::Serialize;
use simcore::DetRng;
use vcluster::{provision_timeline, ClusterSpec, InstanceType, ProvisionConfig};
use wfcost::transfer::{stage_in, stage_out};
use wfdag::FileClass;
use wfgen::App;

/// The end-to-end picture for one application at a reference cluster
/// size.
#[derive(Debug, Clone, Serialize)]
pub struct EndToEndRow {
    /// The application.
    pub app: App,
    /// Provision-to-ready wall time, seconds.
    pub provision_secs: f64,
    /// Input staging (submit host → cloud), seconds.
    pub stage_in_secs: f64,
    /// Input staging transfer charge, cents.
    pub stage_in_cents: f64,
    /// The workflow makespan the paper reports, seconds.
    pub makespan_secs: f64,
    /// Output archiving (cloud → submit host), seconds.
    pub stage_out_secs: f64,
    /// Output transfer charge, cents.
    pub stage_out_cents: f64,
}

impl EndToEndRow {
    /// Total submit-to-archived wall time.
    pub fn total_secs(&self) -> f64 {
        self.provision_secs + self.stage_in_secs + self.makespan_secs + self.stage_out_secs
    }

    /// Fraction of the end-to-end time the paper's makespan covers.
    pub fn makespan_fraction(&self) -> f64 {
        self.makespan_secs / self.total_secs()
    }
}

/// Build the E9 table at 4 workers on each app's best-performing storage
/// option, given the already-measured makespans.
pub fn end_to_end(makespans: &[(App, f64)], seed: u64) -> Vec<EndToEndRow> {
    let pcfg = ProvisionConfig::default();
    makespans
        .iter()
        .map(|&(app, makespan_secs)| {
            let wf = app.paper_workflow();
            let (mut in_bytes, mut in_files) = (0u64, 0u64);
            for f in wf.files() {
                if f.class == FileClass::Input {
                    in_bytes += f.size;
                    in_files += 1;
                }
            }
            // Archive the science products (what §II counts as output).
            let products: Vec<&str> = match app {
                App::Montage => vec!["mAdd", "mShrink", "mJPEG"],
                App::Broadband => vec!["intensity", "compare"],
                App::Epigenome => vec!["mapIndex", "mapDensity"],
            };
            let (mut out_bytes, mut out_files) = (0u64, 0u64);
            for t in wf.tasks() {
                if products.contains(&t.transformation.as_str()) {
                    out_bytes += t.output_bytes(wf.files());
                    out_files += t.outputs.len() as u64;
                }
            }
            let mut rng = DetRng::stream(seed, "provision");
            let prov = provision_timeline(
                &ClusterSpec::with_server(4, InstanceType::M1Xlarge),
                &pcfg,
                &mut rng,
            );
            let si = stage_in(in_bytes, in_files);
            let so = stage_out(out_bytes, out_files);
            EndToEndRow {
                app,
                provision_secs: prov.total_secs(),
                stage_in_secs: si.secs,
                stage_in_cents: si.cents,
                makespan_secs,
                stage_out_secs: so.secs,
                stage_out_cents: so.cents,
            }
        })
        .collect()
}

/// Render the E9 table.
pub fn render(rows: &[EndToEndRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "E9 — END-TO-END (beyond paper): provisioning + WAN staging around the measured makespans"
    );
    let _ = writeln!(
        s,
        "  {:<10} {:>10} {:>10} {:>10} {:>10} {:>9} {:>14}",
        "app", "provision", "stage-in", "makespan", "stage-out", "total", "makespan share"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "  {:<10} {:>9.0}s {:>9.0}s {:>9.0}s {:>9.0}s {:>8.0}s {:>13.0}%",
            r.app.label(),
            r.provision_secs,
            r.stage_in_secs,
            r.makespan_secs,
            r.stage_out_secs,
            r.total_secs(),
            r.makespan_fraction() * 100.0
        );
        let _ = writeln!(
            s,
            "  {:<10} transfer fees: in ${:.2}, out ${:.2}",
            "",
            r.stage_in_cents / 100.0,
            r.stage_out_cents / 100.0
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_covers_all_apps() {
        let rows = end_to_end(
            &[
                (App::Montage, 423.0),
                (App::Broadband, 2902.0),
                (App::Epigenome, 665.0),
            ],
            42,
        );
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.provision_secs > 70.0, "{r:?}");
            assert!(r.stage_in_secs > 0.0);
            assert!(r.stage_out_secs > 0.0);
            assert!((0.0..=1.0).contains(&r.makespan_fraction()));
        }
        // Montage moves the most data out (7.9 GB of products).
        let montage = &rows[0];
        let epi = &rows[2];
        assert!(montage.stage_out_cents > epi.stage_out_cents * 10.0);
    }

    #[test]
    fn staging_is_a_significant_share_for_io_heavy_apps() {
        // Validates the paper's choice to study it separately: for
        // Montage the excluded edges rival the makespan itself.
        let rows = end_to_end(&[(App::Montage, 423.0)], 42);
        assert!(rows[0].makespan_fraction() < 0.5, "{:?}", rows[0]);
    }
}
