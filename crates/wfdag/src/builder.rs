//! Incremental workflow construction.

use crate::ids::{FileId, TaskId};
use crate::model::{File, FileClass, Task, Workflow, WorkflowError};

/// Builds a [`Workflow`] one file/task at a time, then validates.
#[derive(Debug, Clone)]
pub struct WorkflowBuilder {
    name: String,
    files: Vec<File>,
    tasks: Vec<Task>,
}

impl WorkflowBuilder {
    /// Start a workflow named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        WorkflowBuilder {
            name: name.into(),
            files: Vec::new(),
            tasks: Vec::new(),
        }
    }

    /// Declare a file of `size` bytes. Classification (input, intermediate,
    /// output) is derived at build time from who produces/consumes it.
    pub fn file(&mut self, name: impl Into<String>, size: u64) -> FileId {
        let id = FileId(u32::try_from(self.files.len()).expect("file count fits u32"));
        self.files.push(File {
            name: name.into(),
            size,
            class: FileClass::Input,
            producer: None,
            consumers: Vec::new(),
        });
        id
    }

    /// Declare a task.
    ///
    /// `cpu_secs` is pure compute demand on a reference core (`build`
    /// rejects a negative or non-finite one); `peak_mem` the peak RSS in
    /// bytes; `inputs`/`outputs` the files read/written.
    pub fn task(
        &mut self,
        name: impl Into<String>,
        transformation: impl Into<String>,
        cpu_secs: f64,
        peak_mem: u64,
        inputs: Vec<FileId>,
        outputs: Vec<FileId>,
    ) -> TaskId {
        let id = TaskId(u32::try_from(self.tasks.len()).expect("task count fits u32"));
        // Default operation count: a few calls per file touched.
        let io_ops = 4 * (inputs.len() + outputs.len()) as u32 + 4;
        self.tasks.push(Task {
            name: name.into(),
            transformation: transformation.into(),
            cpu_secs,
            peak_mem,
            inputs,
            outputs,
            level: 0,
            io_ops,
        });
        id
    }

    /// Override the POSIX-operation count of a declared task (see
    /// [`crate::model::Task::io_ops`]).
    pub fn set_io_ops(&mut self, task: TaskId, io_ops: u32) {
        self.tasks[task.index()].io_ops = io_ops;
    }

    /// Number of files declared so far.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Number of tasks declared so far.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Validate and produce the immutable workflow.
    pub fn build(self) -> Result<Workflow, WorkflowError> {
        Workflow::build(self.name, self.files, self.tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_counts() {
        let mut b = WorkflowBuilder::new("w");
        let f = b.file("f", 1);
        b.task("t", "x", 1.0, 0, vec![], vec![f]);
        assert_eq!(b.file_count(), 1);
        assert_eq!(b.task_count(), 1);
        let w = b.build().unwrap();
        assert_eq!(w.name, "w");
    }

    #[test]
    fn negative_cpu_rejected() {
        for cpu_secs in [-1.0, f64::NAN, f64::INFINITY] {
            let mut b = WorkflowBuilder::new("w");
            b.task("ok", "x", 1.0, 0, vec![], vec![]);
            let t = b.task("t", "x", cpu_secs, 0, vec![], vec![]);
            assert_eq!(b.build().err(), Some(WorkflowError::CpuSecs { task: t }));
        }
    }
}
