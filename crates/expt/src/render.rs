//! Plain-text rendering of the regenerated tables and figures.

use crate::figures::{CostFigure, RuntimeFigure, Table1, XtreemFsNote};
use crate::microbench::DiskMicrobench;
use crate::shape::ShapeCheck;
use std::fmt::Write as _;
use wfstorage::StorageKind;

/// Render Table I.
pub fn table1(t: &Table1) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "TABLE I — APPLICATION RESOURCE USAGE COMPARISON");
    let _ = writeln!(
        s,
        "{:<12} {:<8} {:<8} {:<8}",
        "Application", "I/O", "Memory", "CPU"
    );
    for (app, u) in &t.rows {
        let _ = writeln!(
            s,
            "{:<12} {:<8} {:<8} {:<8}",
            app.label(),
            u.io.to_string(),
            u.memory.to_string(),
            u.cpu.to_string()
        );
    }
    s
}

/// Render the §III.C disk microbenchmark.
pub fn microbench(b: &DiskMicrobench) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "§III.C EPHEMERAL-DISK MICROBENCHMARK (measured end-to-end)"
    );
    let _ = writeln!(
        s,
        "{:<18} {:>12} {:>12} {:>10}",
        "Device", "first write", "rewrite", "read"
    );
    for r in &b.rows {
        let dev = if r.disks == 1 {
            "1 ephemeral disk".to_string()
        } else {
            format!("{}-disk RAID 0", r.disks)
        };
        let _ = writeln!(
            s,
            "{:<18} {:>9.0} MB/s {:>9.0} MB/s {:>7.0} MB/s",
            dev, r.first_write_mbps, r.rewrite_mbps, r.read_mbps
        );
    }
    let _ = writeln!(
        s,
        "(paper: 20 / 100 / 110 single disk; 80-100 / 350-400 / ~310 RAID 0)"
    );
    s
}

/// A single horizontal ASCII bar.
fn bar(value: f64, max: f64, width: usize) -> String {
    let n = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    "#".repeat(n.min(width))
}

/// Render a runtime figure (Figs 2–4) as grouped ASCII bars.
pub fn runtime_figure(fig: &RuntimeFigure, number: u32) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "FIG. {number} — Performance of {} using different storage systems (makespan, seconds)",
        fig.app.label()
    );
    let max = fig
        .cells
        .iter()
        .map(|c| c.makespan_secs)
        .fold(0.0f64, f64::max);
    for storage in StorageKind::EVALUATED {
        let pts: Vec<_> = fig
            .cells
            .iter()
            .filter(|c| c.cell.storage == storage)
            .collect();
        if pts.is_empty() {
            continue;
        }
        let _ = writeln!(s, "  {}", storage.label());
        for c in pts {
            let _ = writeln!(
                s,
                "    n={:<2} {:>8.0}s |{}",
                c.cell.workers,
                c.makespan_secs,
                bar(c.makespan_secs, max, 48)
            );
        }
    }
    if let Some(m24) = &fig.nfs_m24 {
        let _ = writeln!(
            s,
            "  NFS (m2.4xlarge server)\n    n={:<2} {:>8.0}s |{}",
            m24.cell.workers,
            m24.makespan_secs,
            bar(m24.makespan_secs, max, 48)
        );
    }
    s
}

/// Render a cost figure (Figs 5–7): per-hour and per-second charges.
pub fn cost_figure(fig: &CostFigure, number: u32) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "FIG. {number} — {} cost assuming per-hour charges (top) and per-second charges (bottom), USD",
        fig.app.label()
    );
    let max_h = fig.rows.iter().map(|r| r.2).fold(0.0f64, f64::max);
    let max_s = fig.rows.iter().map(|r| r.3).fold(0.0f64, f64::max);
    for (pass, label, max) in [(0usize, "per-hour", max_h), (1, "per-second", max_s)] {
        let _ = writeln!(s, "  [{label}]");
        for storage in StorageKind::EVALUATED {
            for (st, n, ph, ps) in &fig.rows {
                if *st != storage {
                    continue;
                }
                let v = if pass == 0 { *ph } else { *ps };
                let _ = writeln!(
                    s,
                    "    {:<24} n={:<2} ${:>6.2} |{}",
                    storage.label(),
                    n,
                    v,
                    bar(v, max, 40)
                );
            }
        }
    }
    s
}

/// Render the XtreemFS note.
pub fn xtreemfs(x: &XtreemFsNote) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "§IV NOTE — XtreemFS (terminated in the paper after >2x slowdowns)"
    );
    for (app, xs, best) in &x.rows {
        let _ = writeln!(
            s,
            "  {:<10} XtreemFS {:>7.0}s vs GlusterFS {:>7.0}s  ({:.1}x)",
            app.label(),
            xs,
            best,
            xs / best
        );
    }
    s
}

/// Render the shape-check scoreboard.
pub fn shape_checks(checks: &[ShapeCheck]) -> String {
    let mut s = String::new();
    let passed = checks.iter().filter(|c| c.passed).count();
    let _ = writeln!(
        s,
        "SHAPE CHECKS — {passed}/{} paper claims reproduced",
        checks.len()
    );
    for c in checks {
        let _ = writeln!(
            s,
            "  [{}] {:<32} {}",
            if c.passed { "PASS" } else { "FAIL" },
            c.id,
            c.claim
        );
        let margin = c
            .margin
            .map_or("n/a".to_string(), |m| format!("{:+.2}%", 100.0 * m));
        let _ = writeln!(s, "         margin {margin}: {}", c.detail);
    }
    s
}

/// CSV of a runtime figure: `app,storage,workers,makespan_secs` — ready
/// for external plotting.
pub fn runtime_csv(fig: &RuntimeFigure) -> String {
    let mut s = String::from("app,storage,workers,makespan_secs\n");
    for c in &fig.cells {
        let _ = writeln!(
            s,
            "{},{},{},{:.3}",
            fig.app.label(),
            c.cell.storage.label(),
            c.cell.workers,
            c.makespan_secs
        );
    }
    if let Some(m24) = &fig.nfs_m24 {
        let _ = writeln!(
            s,
            "{},NFS (m2.4xlarge server),{},{:.3}",
            fig.app.label(),
            m24.cell.workers,
            m24.makespan_secs
        );
    }
    s
}

/// CSV of a cost figure: `app,storage,workers,per_hour_usd,per_second_usd`.
pub fn cost_csv(fig: &CostFigure) -> String {
    let mut s = String::from("app,storage,workers,per_hour_usd,per_second_usd\n");
    for (st, n, ph, ps) in &fig.rows {
        let _ = writeln!(
            s,
            "{},{},{},{:.4},{:.4}",
            fig.app.label(),
            st.label(),
            n,
            ph,
            ps
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn table1_renders() {
        let t = crate::figures::table1();
        let s = table1(&t);
        assert!(s.contains("Montage"));
        assert!(s.contains("TABLE I"));
    }

    #[test]
    fn microbench_renders() {
        let s = microbench(&crate::microbench::run());
        assert!(s.contains("RAID 0"));
        assert!(s.contains("MB/s"));
    }

    #[test]
    fn csv_outputs_are_well_formed() {
        use crate::grid::{run_cell, Cell};
        use wfgen::App;
        use wfstorage::StorageKind;
        let cell = run_cell(Cell::new(App::Epigenome, StorageKind::Nfs, 2), 42).unwrap();
        let fig = RuntimeFigure {
            app: App::Epigenome,
            cells: vec![cell],
            nfs_m24: None,
        };
        let csv = runtime_csv(&fig);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "app,storage,workers,makespan_secs");
        assert!(lines[1].starts_with("Epigenome,NFS,2,"));
        let cost = cost_csv(&crate::figures::cost_figure(&fig));
        assert_eq!(cost.lines().count(), 2);
        assert!(cost.lines().nth(1).unwrap().matches(',').count() == 4);
    }
}
