//! A DAX-like interchange format: stable JSON serialisation of abstract
//! workflows, with validation on load.
//!
//! Pegasus workflows travel as DAX documents; this module provides the
//! equivalent for this library — a versioned, minimal JSON document that
//! round-trips through [`Workflow::build`] so a loaded workflow is always
//! validated (write-once, acyclic, no dangling references).

use crate::builder::WorkflowBuilder;
use crate::model::{Workflow, WorkflowError};
use serde::{Deserialize, Serialize};

/// Current document format version.
pub const FORMAT_VERSION: u32 = 1;

#[derive(Debug, Serialize, Deserialize)]
struct Doc {
    version: u32,
    name: String,
    files: Vec<FileDoc>,
    tasks: Vec<TaskDoc>,
}

#[derive(Debug, Serialize, Deserialize)]
struct FileDoc {
    name: String,
    size: u64,
}

#[derive(Debug, Serialize, Deserialize)]
struct TaskDoc {
    name: String,
    transformation: String,
    cpu_secs: f64,
    peak_mem: u64,
    io_ops: u32,
    /// Indices into `files`.
    inputs: Vec<u32>,
    /// Indices into `files`.
    outputs: Vec<u32>,
}

/// Errors when loading a workflow document.
#[derive(Debug)]
pub enum LoadError {
    /// The JSON was malformed.
    Json(serde_json::Error),
    /// The document version is not supported.
    Version {
        /// Version found in the document.
        found: u32,
    },
    /// A task's compute demand is negative or not finite.
    CpuSecs {
        /// Name of the task.
        task: String,
        /// The `cpu_secs` found in the document.
        found: f64,
    },
    /// The workflow failed validation.
    Invalid(WorkflowError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Json(e) => write!(f, "malformed workflow document: {e}"),
            LoadError::Version { found } => {
                write!(
                    f,
                    "unsupported document version {found} (expected {FORMAT_VERSION})"
                )
            }
            LoadError::CpuSecs { task, found } => write!(
                f,
                "task `{task}` has cpu_secs {found} (must be finite and non-negative)"
            ),
            LoadError::Invalid(e) => write!(f, "invalid workflow: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Serialise a workflow to the interchange JSON.
pub fn to_json(wf: &Workflow) -> String {
    let doc = Doc {
        version: FORMAT_VERSION,
        name: wf.name.clone(),
        files: wf
            .files()
            .iter()
            .map(|f| FileDoc {
                name: f.name.clone(),
                size: f.size,
            })
            .collect(),
        tasks: wf
            .tasks()
            .iter()
            .map(|t| TaskDoc {
                name: t.name.clone(),
                transformation: t.transformation.clone(),
                cpu_secs: t.cpu_secs,
                peak_mem: t.peak_mem,
                io_ops: t.io_ops,
                inputs: t.inputs.iter().map(|f| f.0).collect(),
                outputs: t.outputs.iter().map(|f| f.0).collect(),
            })
            .collect(),
    };
    serde_json::to_string_pretty(&doc).expect("workflow documents always serialise")
}

/// Load and validate a workflow from the interchange JSON.
pub fn from_json(json: &str) -> Result<Workflow, LoadError> {
    let doc: Doc = serde_json::from_str(json).map_err(LoadError::Json)?;
    if doc.version != FORMAT_VERSION {
        return Err(LoadError::Version { found: doc.version });
    }
    let mut b = WorkflowBuilder::new(doc.name);
    for f in &doc.files {
        b.file(f.name.clone(), f.size);
    }
    let nfiles = doc.files.len() as u32;
    for t in &doc.tasks {
        // Out-of-range indices surface as DanglingFile through build();
        // map them eagerly so the error names the right task.
        let to_ids = |ixs: &[u32]| {
            ixs.iter()
                .map(|&i| crate::ids::FileId(i.min(nfiles))) // clamp to an invalid id
                .collect::<Vec<_>>()
        };
        let tid = b.task(
            t.name.clone(),
            t.transformation.clone(),
            t.cpu_secs,
            t.peak_mem,
            to_ids(&t.inputs),
            to_ids(&t.outputs),
        );
        b.set_io_ops(tid, t.io_ops);
    }
    b.build().map_err(|e| match e {
        WorkflowError::CpuSecs { task } => {
            let t = &doc.tasks[task.index()];
            LoadError::CpuSecs {
                task: t.name.clone(),
                found: t.cpu_secs,
            }
        }
        e => LoadError::Invalid(e),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    fn sample() -> Workflow {
        let mut b = WorkflowBuilder::new("sample");
        let a = b.file("a", 100);
        let c = b.file("c", 50);
        let t = b.task("t0", "gen", 1.5, 1 << 20, vec![a], vec![c]);
        b.set_io_ops(t, 77);
        b.build().unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let wf = sample();
        let json = to_json(&wf);
        let back = from_json(&json).unwrap();
        assert_eq!(back.name, wf.name);
        assert_eq!(back.file_count(), wf.file_count());
        assert_eq!(back.task_count(), wf.task_count());
        let (t0, t1) = (&wf.tasks()[0], &back.tasks()[0]);
        assert_eq!(t0.cpu_secs.to_bits(), t1.cpu_secs.to_bits());
        assert_eq!(t0.io_ops, t1.io_ops);
        assert_eq!(t0.peak_mem, t1.peak_mem);
        assert_eq!(analysis::stats(&wf), analysis::stats(&back));
    }

    #[test]
    fn paper_scale_round_trip() {
        // A structurally rich DAG survives the trip intact.
        let mut b = WorkflowBuilder::new("layered");
        let mut prev = Vec::new();
        for l in 0..4 {
            let mut next = Vec::new();
            for i in 0..5 {
                let f = b.file(format!("f{l}_{i}"), 1000 + i);
                b.task(
                    format!("t{l}_{i}"),
                    format!("x{l}"),
                    1.0,
                    1 << 20,
                    prev.clone(),
                    vec![f],
                );
                next.push(f);
            }
            prev = next;
        }
        let wf = b.build().unwrap();
        let back = from_json(&to_json(&wf)).unwrap();
        assert_eq!(back.topo_order().len(), wf.topo_order().len());
        for (x, y) in wf.tasks().iter().zip(back.tasks()) {
            assert_eq!(x.level, y.level);
            assert_eq!(x.inputs, y.inputs);
        }
    }

    #[test]
    fn rejects_wrong_version() {
        let json = to_json(&sample()).replace("\"version\": 1", "\"version\": 99");
        assert!(matches!(
            from_json(&json),
            Err(LoadError::Version { found: 99 })
        ));
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(matches!(from_json("{nope"), Err(LoadError::Json(_))));
    }

    #[test]
    fn rejects_invalid_workflows() {
        // Two tasks producing the same file index.
        let json = r#"{
            "version": 1, "name": "bad",
            "files": [{"name": "f", "size": 1}],
            "tasks": [
                {"name": "a", "transformation": "x", "cpu_secs": 1.0, "peak_mem": 0, "io_ops": 1, "inputs": [], "outputs": [0]},
                {"name": "b", "transformation": "x", "cpu_secs": 1.0, "peak_mem": 0, "io_ops": 1, "inputs": [], "outputs": [0]}
            ]
        }"#;
        assert!(matches!(from_json(json), Err(LoadError::Invalid(_))));
        // Two tasks that each consume the other's output.
        let json = r#"{
            "version": 1, "name": "bad",
            "files": [{"name": "f", "size": 1}, {"name": "g", "size": 1}],
            "tasks": [
                {"name": "a", "transformation": "x", "cpu_secs": 1.0, "peak_mem": 0, "io_ops": 1, "inputs": [1], "outputs": [0]},
                {"name": "b", "transformation": "x", "cpu_secs": 1.0, "peak_mem": 0, "io_ops": 1, "inputs": [0], "outputs": [1]}
            ]
        }"#;
        assert!(matches!(
            from_json(json),
            Err(LoadError::Invalid(WorkflowError::Cycle { .. }))
        ));
    }

    #[test]
    fn rejects_negative_cpu_secs_naming_the_task() {
        let json = to_json(&sample()).replace("\"cpu_secs\": 1.5", "\"cpu_secs\": -2.0");
        let err = from_json(&json).expect_err("negative cpu_secs must not load");
        assert!(
            matches!(&err, LoadError::CpuSecs { task, found } if task == "t0" && *found == -2.0),
            "{err:?}"
        );
        assert!(err.to_string().contains("`t0`"), "{err}");
    }

    #[test]
    fn rejects_dangling_file_indices() {
        let json = r#"{
            "version": 1, "name": "bad",
            "files": [{"name": "f", "size": 1}],
            "tasks": [
                {"name": "a", "transformation": "x", "cpu_secs": 1.0, "peak_mem": 0, "io_ops": 1, "inputs": [5], "outputs": []}
            ]
        }"#;
        assert!(matches!(from_json(json), Err(LoadError::Invalid(_))));
    }
}
