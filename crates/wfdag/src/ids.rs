//! Compact identifiers for tasks and files.

use serde::Serialize;

/// Identifier of a file within one workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct FileId(pub u32);

/// Identifier of a task within one workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct TaskId(pub u32);

impl FileId {
    /// Raw index into the workflow's file table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl TaskId {
    /// Raw index into the workflow's task table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
