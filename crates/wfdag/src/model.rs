//! Files, tasks and the workflow container.
//!
//! A workflow is the paper's model (§I): a set of tasks linked by data-flow
//! dependencies, communicating exclusively through write-once files. Task A
//! precedes task B iff B consumes a file A produces.

use crate::ids::{FileId, TaskId};

/// How a file relates to the workflow as a whole (derived during
/// validation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// No producer task: must be pre-staged to the cluster (§III.C).
    Input,
    /// Produced and consumed within the workflow.
    Intermediate,
    /// Produced but never consumed: a final product of the workflow.
    Output,
}

/// A workflow file.
#[derive(Debug, Clone)]
pub struct File {
    /// Logical file name (unique within the workflow).
    pub name: String,
    /// Size in bytes.
    pub size: u64,
    /// Derived classification (valid after `Workflow::build`).
    pub class: FileClass,
    /// Producing task, if any (valid after `Workflow::build`).
    pub producer: Option<TaskId>,
    /// Consuming tasks (valid after `Workflow::build`).
    pub consumers: Vec<TaskId>,
}

/// A workflow task.
#[derive(Debug, Clone)]
pub struct Task {
    /// Unique task name, e.g. `mProjectPP_0042`.
    pub name: String,
    /// Transformation (executable) name, e.g. `mProjectPP`; tasks of one
    /// transformation share a service-time profile.
    pub transformation: String,
    /// Pure compute demand in seconds on a reference core (c1.xlarge).
    pub cpu_secs: f64,
    /// Peak resident memory in bytes (drives the memory-aware scheduler).
    pub peak_mem: u64,
    /// Number of POSIX I/O operations the task issues (opens, seeks,
    /// small reads — what a ptrace profiler like wfprof counts). Drives
    /// per-operation server load on storage systems that charge for it
    /// (NFS). Legacy simulation codes with record-oriented I/O have high
    /// counts; streaming tools low ones.
    pub io_ops: u32,
    /// Files read.
    pub inputs: Vec<FileId>,
    /// Files written (each file has exactly one producer).
    pub outputs: Vec<FileId>,
    /// Depth in the DAG: longest chain of predecessors (valid after
    /// `Workflow::build`).
    pub level: u32,
}

impl Task {
    /// Total bytes this task reads.
    pub fn input_bytes(&self, files: &[File]) -> u64 {
        self.inputs.iter().map(|f| files[f.index()].size).sum()
    }

    /// Total bytes this task writes.
    pub fn output_bytes(&self, files: &[File]) -> u64 {
        self.outputs.iter().map(|f| files[f.index()].size).sum()
    }
}

/// Validation failures for a workflow under construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkflowError {
    /// Two tasks claim to produce the same file (violates write-once).
    MultipleProducers {
        /// The doubly-produced file.
        file: FileId,
        /// First claimed producer.
        first: TaskId,
        /// Second claimed producer.
        second: TaskId,
    },
    /// A task lists the same file as both input and output.
    SelfLoop {
        /// The offending task.
        task: TaskId,
        /// The file read and written by the same task.
        file: FileId,
    },
    /// The data-flow graph contains a cycle.
    Cycle {
        /// A task on the cycle.
        witness: TaskId,
    },
    /// A task's compute demand is negative or not finite.
    CpuSecs {
        /// The offending task.
        task: TaskId,
    },
    /// A task references a file id outside the file table.
    DanglingFile {
        /// The offending task.
        task: TaskId,
    },
    /// Duplicate file name.
    DuplicateFileName {
        /// The repeated name.
        name: String,
    },
    /// Duplicate task name.
    DuplicateTaskName {
        /// The repeated name.
        name: String,
    },
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkflowError::MultipleProducers {
                file,
                first,
                second,
            } => write!(
                f,
                "file {file:?} produced by both {first:?} and {second:?} (write-once violated)"
            ),
            WorkflowError::SelfLoop { task, file } => {
                write!(f, "task {task:?} both reads and writes file {file:?}")
            }
            WorkflowError::Cycle { witness } => {
                write!(f, "dependency cycle through task {witness:?}")
            }
            WorkflowError::CpuSecs { task } => {
                write!(f, "task {task:?} has a negative or non-finite cpu_secs")
            }
            WorkflowError::DanglingFile { task } => {
                write!(f, "task {task:?} references an unknown file id")
            }
            WorkflowError::DuplicateFileName { name } => write!(f, "duplicate file name {name:?}"),
            WorkflowError::DuplicateTaskName { name } => write!(f, "duplicate task name {name:?}"),
        }
    }
}

impl std::error::Error for WorkflowError {}

/// A validated workflow DAG.
#[derive(Debug, Clone)]
pub struct Workflow {
    /// Human-readable workflow name (e.g. `montage-8deg`).
    pub name: String,
    files: Vec<File>,
    tasks: Vec<Task>,
    /// Task ids in a topological order.
    topo: Vec<TaskId>,
    /// Per-task direct successor lists.
    children: Vec<Vec<TaskId>>,
    /// Per-task direct predecessor counts (in-degree in the task graph).
    parent_counts: Vec<u32>,
}

impl Workflow {
    /// Files table.
    pub fn files(&self) -> &[File] {
        &self.files
    }

    /// Tasks table.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// A file by id.
    pub fn file(&self, id: FileId) -> &File {
        &self.files[id.index()]
    }

    /// A task by id.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Task ids in topological order.
    pub fn topo_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Direct successors of a task.
    pub fn children(&self, id: TaskId) -> &[TaskId] {
        &self.children[id.index()]
    }

    /// Number of direct predecessors of a task.
    pub fn parent_count(&self, id: TaskId) -> u32 {
        self.parent_counts[id.index()]
    }

    /// Tasks with no predecessors (runnable immediately).
    pub fn roots(&self) -> Vec<TaskId> {
        (0..self.tasks.len() as u32)
            .map(TaskId)
            .filter(|t| self.parent_counts[t.index()] == 0)
            .collect()
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Validate and finish a workflow. Fills in derived fields (producers,
    /// consumers, classes, levels, topological order).
    pub fn build(
        name: impl Into<String>,
        mut files: Vec<File>,
        mut tasks: Vec<Task>,
    ) -> Result<Workflow, WorkflowError> {
        use std::collections::HashSet;

        if let Some(ti) = tasks
            .iter()
            .position(|t| !(t.cpu_secs.is_finite() && t.cpu_secs >= 0.0))
        {
            return Err(WorkflowError::CpuSecs {
                task: TaskId(ti as u32),
            });
        }
        let mut names = HashSet::new();
        for f in &files {
            if !names.insert(f.name.as_str()) {
                return Err(WorkflowError::DuplicateFileName {
                    name: f.name.clone(),
                });
            }
        }
        names.clear();
        for t in &tasks {
            if !names.insert(t.name.as_str()) {
                return Err(WorkflowError::DuplicateTaskName {
                    name: t.name.clone(),
                });
            }
        }
        drop(names);

        // Reset derived state.
        for f in files.iter_mut() {
            f.producer = None;
            f.consumers.clear();
        }

        // Producers, consumers, dangling references, self-loops.
        for (ti, t) in tasks.iter().enumerate() {
            let tid = TaskId(ti as u32);
            for out in &t.outputs {
                let Some(f) = files.get_mut(out.index()) else {
                    return Err(WorkflowError::DanglingFile { task: tid });
                };
                if let Some(first) = f.producer {
                    return Err(WorkflowError::MultipleProducers {
                        file: *out,
                        first,
                        second: tid,
                    });
                }
                f.producer = Some(tid);
            }
            for inp in &t.inputs {
                if inp.index() >= files.len() {
                    return Err(WorkflowError::DanglingFile { task: tid });
                }
                if t.outputs.contains(inp) {
                    return Err(WorkflowError::SelfLoop {
                        task: tid,
                        file: *inp,
                    });
                }
            }
        }
        for (ti, t) in tasks.iter().enumerate() {
            for inp in &t.inputs {
                files[inp.index()].consumers.push(TaskId(ti as u32));
            }
        }

        // Classes.
        for f in files.iter_mut() {
            f.class = match (f.producer.is_some(), !f.consumers.is_empty()) {
                (false, _) => FileClass::Input,
                (true, true) => FileClass::Intermediate,
                (true, false) => FileClass::Output,
            };
        }

        // Task graph edges via files; Kahn's algorithm for topo + levels.
        let n = tasks.len();
        let mut children: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        let mut indeg = vec![0u32; n];
        for (ti, t) in tasks.iter().enumerate() {
            let tid = TaskId(ti as u32);
            let mut preds: Vec<TaskId> = t
                .inputs
                .iter()
                .filter_map(|f| files[f.index()].producer)
                .collect();
            preds.sort_unstable();
            preds.dedup();
            indeg[ti] = preds.len() as u32;
            for p in preds {
                children[p.index()].push(tid);
            }
        }
        let parent_counts = indeg.clone();

        let mut queue: Vec<TaskId> = (0..n as u32)
            .map(TaskId)
            .filter(|t| indeg[t.index()] == 0)
            .collect();
        let mut topo = Vec::with_capacity(n);
        let mut level = vec![0u32; n];
        let mut head = 0;
        while head < queue.len() {
            let t = queue[head];
            head += 1;
            topo.push(t);
            for &c in &children[t.index()] {
                level[c.index()] = level[c.index()].max(level[t.index()] + 1);
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    queue.push(c);
                }
            }
        }
        if topo.len() != n {
            let witness = (0..n as u32)
                .map(TaskId)
                .find(|t| indeg[t.index()] > 0)
                .expect("cycle implies a task with positive in-degree");
            return Err(WorkflowError::Cycle { witness });
        }
        for (ti, t) in tasks.iter_mut().enumerate() {
            t.level = level[ti];
        }

        Ok(Workflow {
            name: name.into(),
            files,
            tasks,
            topo,
            children,
            parent_counts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::WorkflowBuilder;

    fn diamond() -> Workflow {
        // a -> (b, c) -> d through files.
        let mut b = WorkflowBuilder::new("diamond");
        let fin = b.file("in.dat", 100);
        let f1 = b.file("f1.dat", 10);
        let f2 = b.file("f2.dat", 20);
        let fout = b.file("out.dat", 5);
        b.task("a", "gen", 1.0, 0, vec![fin], vec![f1, f2]);
        b.task("b", "lhs", 1.0, 0, vec![f1], vec![]);
        let f3 = b.file("f3.dat", 7);
        b.task("c", "rhs", 1.0, 0, vec![f2], vec![f3]);
        b.task("d", "join", 1.0, 0, vec![f3], vec![fout]);
        b.build().unwrap()
    }

    #[test]
    fn classes_are_derived() {
        let w = diamond();
        assert_eq!(w.file(FileId(0)).class, FileClass::Input);
        assert_eq!(w.file(FileId(1)).class, FileClass::Intermediate);
        assert_eq!(w.file(FileId(3)).class, FileClass::Output);
    }

    #[test]
    fn levels_and_topo() {
        let w = diamond();
        assert_eq!(w.task(TaskId(0)).level, 0);
        assert_eq!(w.task(TaskId(1)).level, 1);
        assert_eq!(w.task(TaskId(2)).level, 1);
        assert_eq!(w.task(TaskId(3)).level, 2);
        assert_eq!(w.topo_order()[0], TaskId(0));
        assert_eq!(w.topo_order().len(), 4);
    }

    #[test]
    fn roots_and_children() {
        let w = diamond();
        assert_eq!(w.roots(), vec![TaskId(0)]);
        assert_eq!(w.children(TaskId(0)), &[TaskId(1), TaskId(2)]);
        assert_eq!(w.parent_count(TaskId(3)), 1);
    }

    #[test]
    fn multiple_producers_rejected() {
        let mut b = WorkflowBuilder::new("bad");
        let f = b.file("f", 1);
        b.task("t1", "x", 1.0, 0, vec![], vec![f]);
        b.task("t2", "x", 1.0, 0, vec![], vec![f]);
        assert!(matches!(
            b.build(),
            Err(WorkflowError::MultipleProducers { .. })
        ));
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = WorkflowBuilder::new("bad");
        let f = b.file("f", 1);
        b.task("t", "x", 1.0, 0, vec![f], vec![f]);
        assert!(matches!(b.build(), Err(WorkflowError::SelfLoop { .. })));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = WorkflowBuilder::new("bad");
        b.file("f", 1);
        b.file("f", 2);
        assert!(matches!(
            b.build(),
            Err(WorkflowError::DuplicateFileName { .. })
        ));
    }

    #[test]
    fn input_and_output_byte_helpers() {
        let w = diamond();
        let a = w.task(TaskId(0));
        assert_eq!(a.input_bytes(w.files()), 100);
        assert_eq!(a.output_bytes(w.files()), 30);
    }
}
