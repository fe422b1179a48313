//! Folded-stack storage flamegraph export.
//!
//! One line per `backend;op_kind;task` stack, weighted in integer
//! microseconds — the input format of Brendan Gregg's `flamegraph.pl`
//! and of speedscope's "folded" importer, so per-backend storage time
//! can be eyeballed as a flame graph.
//!
//! `StorageOp` bus events carry the operation kind and payload but are
//! *plans* — they mark when a storage system scheduled work, not how
//! long it took, and concurrent tasks on one node interleave their
//! flows. The duration that is attributable per task is the task's own
//! storage-bound lifecycle phases, so each stack's weight is the summed
//! duration of the task's phases of that operation kind (`stage-in` →
//! `stage_in`, `read` → `read`, `write` → `write`, `stage-out` →
//! `stage_out`, `ops` → `op_storm`); pure `compute` time and dispatch
//! overhead are excluded. Kinds that planned no foreground work for a
//! task produce no line.

use crate::bus::ObsReport;
use crate::event::Phase;
use crate::fold::{AttemptFold, Step};
use crate::name_or;
use crate::text::push_u64;
use std::collections::BTreeMap;

/// Fixed render order for op-kind stacks (matches `OpKind` tag order).
const OP_ORDER: [&str; 5] = ["read", "write", "stage_in", "stage_out", "op_storm"];

/// The storage operation kind a lifecycle phase times, if any, as its
/// index in [`OP_ORDER`].
fn phase_op(p: Phase) -> Option<u8> {
    match p {
        Phase::Read => Some(0),
        Phase::Write => Some(1),
        Phase::StageIn => Some(2),
        Phase::StageOut => Some(3),
        Phase::Ops => Some(4),
        Phase::Compute => None,
    }
}

/// Render the storage-time flame graph of a Full-level report as folded
/// stacks: `backend;op_kind;task weight` lines, weight in microseconds.
/// `task_names` joins task ids back to names (`t<id>` fallback);
/// `backend` is the storage backend label used as the stack root.
/// Deterministic: stacks are ordered by op kind then task id.
pub fn folded_storage_stacks(report: &ObsReport, task_names: &[String], backend: &str) -> String {
    // (op index, task id) -> accumulated nanos, in render order.
    let mut weights: BTreeMap<(u8, u32), u64> = BTreeMap::new();
    let mut fold = AttemptFold::default();
    let mut add = |step: Step| {
        if let Step::Interval {
            att,
            phase: Some(phase),
            start,
            end,
            ..
        } = step
        {
            if let Some(op) = phase_op(phase) {
                *weights.entry((op, att.task)).or_insert(0) += end.saturating_sub(start);
            }
        }
    };
    for &(t, ev) in &report.events {
        fold.push(t, &ev, &mut add);
    }
    // A run that ended mid-task still accounts the open interval.
    fold.finish(add);

    let mut out = String::new();
    for (&(op, task), &nanos) in &weights {
        let micros = nanos / 1_000;
        if micros == 0 {
            continue;
        }
        out.push_str(backend);
        out.push(';');
        out.push_str(OP_ORDER[usize::from(op)]);
        out.push(';');
        out.push_str(&name_or(task_names, "t", task));
        out.push(' ');
        push_u64(&mut out, micros);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{ObsHandle, ObsLevel};
    use crate::event::Event;

    #[test]
    fn stacks_weight_storage_phases_only() {
        let h = ObsHandle::new(ObsLevel::Full, 1);
        h.set_now(0);
        h.emit(Event::TaskStart {
            task: 0,
            node: 0,
            attempt: 0,
        });
        h.set_now(1_000_000); // 1ms dispatch overhead — not weighted
        h.emit(Event::TaskPhase {
            task: 0,
            node: 0,
            phase: Phase::Read,
        });
        h.set_now(3_000_000); // 2ms read
        h.emit(Event::TaskPhase {
            task: 0,
            node: 0,
            phase: Phase::Compute,
        });
        h.set_now(8_000_000); // 5ms compute — not weighted
        h.emit(Event::TaskPhase {
            task: 0,
            node: 0,
            phase: Phase::Write,
        });
        h.set_now(11_000_000); // 3ms write
        h.emit(Event::TaskEnd {
            task: 0,
            node: 0,
            attempt: 1,
        });
        let report = h.take_report().unwrap();
        let out = folded_storage_stacks(&report, &["mAdd".into()], "NFS");
        assert_eq!(out, "NFS;read;mAdd 2000\nNFS;write;mAdd 3000\n");
    }

    #[test]
    fn unfinished_task_accounts_to_stream_end() {
        let h = ObsHandle::new(ObsLevel::Full, 1);
        h.set_now(0);
        h.emit(Event::TaskStart {
            task: 3,
            node: 0,
            attempt: 0,
        });
        h.emit(Event::TaskPhase {
            task: 3,
            node: 0,
            phase: Phase::StageIn,
        });
        h.set_now(4_000_000);
        h.emit(Event::BgDone); // just moves the stream clock
        let report = h.take_report().unwrap();
        let out = folded_storage_stacks(&report, &[], "S3");
        assert_eq!(out, "S3;stage_in;t3 4000\n");
    }

    #[test]
    fn output_is_deterministic_and_ordered_by_kind() {
        let h = ObsHandle::new(ObsLevel::Full, 1);
        h.set_now(0);
        for task in [1u32, 0] {
            h.emit(Event::TaskStart {
                task,
                node: 0,
                attempt: 0,
            });
            h.emit(Event::TaskPhase {
                task,
                node: 0,
                phase: Phase::Write,
            });
        }
        h.set_now(2_000_000);
        for task in [1u32, 0] {
            h.emit(Event::TaskPhase {
                task,
                node: 0,
                phase: Phase::Read,
            });
        }
        h.set_now(5_000_000);
        for task in [1u32, 0] {
            h.emit(Event::TaskEnd {
                task,
                node: 0,
                attempt: 1,
            });
        }
        let report = h.take_report().unwrap();
        let out = folded_storage_stacks(&report, &[], "PVFS");
        // read stacks first (task order), then write stacks.
        assert_eq!(
            out,
            "PVFS;read;t0 3000\nPVFS;read;t1 3000\n\
             PVFS;write;t0 2000\nPVFS;write;t1 2000\n"
        );
        assert_eq!(out, folded_storage_stacks(&report, &[], "PVFS"));
    }
}
