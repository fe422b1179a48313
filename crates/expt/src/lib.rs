//! # expt — the reproduction harness
//!
//! Regenerates every table and figure of the paper (see DESIGN.md's
//! per-experiment index):
//!
//! * Table I — [`figures::table1`] (E1)
//! * §III.C disk microbenchmarks — [`microbench`] (E0)
//! * Figs 2–4 (runtimes) — [`figures::runtime_figure`] (E2–E4)
//! * Figs 5–7 (costs) — [`figures::cost_figure`] (E5–E7)
//! * XtreemFS note — [`figures::xtreemfs_note`] (E8)
//! * Ablations A1–A5 — [`ablations`]
//! * F1 future work (direct node-to-node transfers) — [`future_work`]
//! * F2 fault injection and recovery (beyond paper) — [`faults`]
//! * E9 end-to-end provisioning + WAN staging (beyond paper) — [`staging`]
//! * Qualitative shape checks against §V–§VI claims — [`shape`]
//!
//! Binary: `cargo run --release -p expt --bin repro` prints every
//! table/figure, runs the shape checks, and writes JSON reports under
//! `reports/`.

#![warn(missing_docs)]

pub mod ablations;
pub mod analysis;
pub mod faults;
pub mod figures;
pub mod future_work;
pub mod grid;
pub mod microbench;
pub mod render;
pub mod report;
pub mod shape;
pub mod staging;

pub use faults::{FaultRow, FaultScenario, FaultStudy};
pub use figures::{cost_figure, runtime_figure, table1, xtreemfs_note, RuntimeFigure, Table1};
pub use grid::{figure_cells, run_cell, run_cell_with, run_cells, Cell, CellResult, NODE_COUNTS};
pub use report::Report;
pub use shape::ShapeCheck;

// Re-exported so downstream code can name the axes without extra deps.
pub use wfgen::App;
pub use wfstorage::StorageKind;
