//! # wfgen — the paper's three workflow applications, synthesised
//!
//! §II of the paper evaluates three real applications chosen to span
//! resource profiles (Table I). The original binaries and science inputs
//! are not available, so this crate generates *structurally faithful*
//! synthetic instances: identical task counts, level structure, byte
//! volumes, file-size populations, reuse patterns and CPU/memory
//! profiles — everything the storage comparison is sensitive to.
//!
//! * [`montage`] — astronomy mosaics: 10,429 tasks, 4.2 GB in / 7.9 GB of
//!   products, tens of thousands of 1–10 MB files. I/O-bound.
//! * [`broadband`] — seismograms: 768 tasks (48 mini-pipelines of 16),
//!   6 GB of heavily reused inputs, 303 MB out. Memory-limited.
//! * [`epigenome`] — DNA mapping: 529 tasks, 1.9 GB in / 300 MB out.
//!   CPU-bound.
//! * [`profiler`] — a wfprof-style classifier that regenerates Table I.
//! * [`synthetic`] — a parameterised generator for workloads anywhere in
//!   the Table-I resource space.
//!
//! ```
//! use wfgen::{montage, MontageConfig, classify, profile, Grade};
//!
//! let wf = montage(MontageConfig::paper());
//! assert_eq!(wf.task_count(), 10_429); // the paper's 8-degree mosaic
//! assert_eq!(classify(&profile(&wf)).io, Grade::High); // Table I
//! ```

#![warn(missing_docs)]

pub mod broadband;
pub mod epigenome;
pub mod jitter;
pub mod montage;
pub mod profiler;
pub mod synthetic;

pub use broadband::{broadband, BroadbandConfig};
pub use epigenome::{epigenome, EpigenomeConfig};
pub use montage::{montage, MontageConfig};
pub use profiler::{classify, profile, Grade, Profile, ResourceUsage};
pub use synthetic::{synthetic, Shape, SyntheticConfig};

/// The three applications, for iteration in harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum App {
    /// Montage (astronomy, I/O-bound).
    Montage,
    /// Broadband (seismology, memory-limited).
    Broadband,
    /// Epigenome (bioinformatics, CPU-bound).
    Epigenome,
}

impl App {
    /// All applications in the paper's order.
    pub const ALL: [App; 3] = [App::Montage, App::Broadband, App::Epigenome];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            App::Montage => "Montage",
            App::Broadband => "Broadband",
            App::Epigenome => "Epigenome",
        }
    }

    /// Generate the paper-scale instance of this application.
    pub fn paper_workflow(self) -> wfdag::Workflow {
        match self {
            App::Montage => montage(MontageConfig::paper()),
            App::Broadband => broadband(BroadbandConfig::paper()),
            App::Epigenome => epigenome(EpigenomeConfig::paper()),
        }
    }

    /// Generate a small instance with the same shape, for tests.
    pub fn tiny_workflow(self) -> wfdag::Workflow {
        match self {
            App::Montage => montage(MontageConfig::tiny()),
            App::Broadband => broadband(BroadbandConfig::tiny()),
            App::Epigenome => epigenome(EpigenomeConfig::tiny()),
        }
    }
}

impl std::fmt::Display for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}
