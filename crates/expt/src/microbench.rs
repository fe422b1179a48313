//! Experiment E0: the §III.C ephemeral-disk microbenchmarks.
//!
//! The paper reports: ~20 MB/s first writes and ~100 MB/s subsequent
//! writes on a single ephemeral disk, ~110 MB/s single-disk reads; on the
//! 4-disk software RAID 0 array, 80–100 MB/s first writes, 350–400 MB/s
//! subsequent writes, ~310 MB/s reads. This module measures the simulated
//! device end-to-end (a timed single-stream transfer through the actual
//! resources) rather than echoing configuration constants.

use serde::Serialize;
use simcore::{FlowSpec, ResourceId, Sim, SimTime};
use vcluster::{DiskProfile, RaidEfficiency};

/// One measured device row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DiskRow {
    /// Number of disks in the array (1 = bare ephemeral disk).
    pub disks: u32,
    /// Measured first-write bandwidth, MB/s.
    pub first_write_mbps: f64,
    /// Measured rewrite bandwidth, MB/s.
    pub rewrite_mbps: f64,
    /// Measured read bandwidth, MB/s.
    pub read_mbps: f64,
}

/// The full microbenchmark table.
#[derive(Debug, Clone, Serialize)]
pub struct DiskMicrobench {
    /// Rows for 1-disk and 4-disk configurations.
    pub rows: Vec<DiskRow>,
}

/// Time a single `bytes`-sized stream through `path` (+ optional cap).
fn measure_mbps(profile: &DiskProfile, op: Op) -> f64 {
    let mut sim: Sim<()> = Sim::new();
    let spindle = sim.add_resource("spindle", profile.spindle_bps);
    let read = sim.add_resource("read", profile.read_bps);
    let write = sim.add_resource("write", profile.rewrite_bps);
    let fresh = profile
        .first_write_cap()
        .map(|bps| sim.add_resource("fresh", bps));
    let bytes: u64 = 2_000_000_000;
    let path: Vec<ResourceId> = match op {
        Op::Read => vec![spindle, read],
        Op::Rewrite => vec![spindle, write],
        Op::FirstWrite => {
            let mut p = vec![spindle, write];
            if let Some(f) = fresh {
                p.push(f);
            }
            p
        }
    };
    sim.schedule_at(SimTime::ZERO, move |s, _| {
        s.start_flow(FlowSpec::new(bytes, path), |_, _| {});
    });
    sim.run(&mut ());
    bytes as f64 / sim.now().as_secs_f64() / 1e6
}

#[derive(Clone, Copy)]
enum Op {
    Read,
    Rewrite,
    FirstWrite,
}

/// Run the microbenchmark for the 1-disk and 4-disk RAID 0 devices.
pub fn run() -> DiskMicrobench {
    let mut rows = Vec::new();
    for disks in [1u32, 4] {
        // A single disk is the bare device; striping efficiencies only
        // apply to real arrays.
        let profile = if disks == 1 {
            DiskProfile::ec2_ephemeral()
        } else {
            DiskProfile::ec2_ephemeral().raid0(disks, RaidEfficiency::default())
        };
        rows.push(DiskRow {
            disks,
            first_write_mbps: measure_mbps(&profile, Op::FirstWrite),
            rewrite_mbps: measure_mbps(&profile, Op::Rewrite),
            read_mbps: measure_mbps(&profile, Op::Read),
        });
    }
    DiskMicrobench { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_disk_matches_paper() {
        let b = run();
        let one = b.rows.iter().find(|r| r.disks == 1).unwrap();
        assert!((19.0..=21.0).contains(&one.first_write_mbps), "{one:?}");
        assert!((95.0..=105.0).contains(&one.rewrite_mbps), "{one:?}");
        assert!((105.0..=115.0).contains(&one.read_mbps), "{one:?}");
    }

    #[test]
    fn raid_array_matches_paper_ranges() {
        let b = run();
        let raid = b.rows.iter().find(|r| r.disks == 4).unwrap();
        // §III.C: first writes 80-100, rewrites 350-400, reads ~310 MB/s.
        assert!((80.0..=100.0).contains(&raid.first_write_mbps), "{raid:?}");
        assert!((350.0..=400.0).contains(&raid.rewrite_mbps), "{raid:?}");
        assert!((295.0..=320.0).contains(&raid.read_mbps), "{raid:?}");
    }
}
