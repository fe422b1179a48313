//! The task-attempt fold: one streaming reducer of the event stream into
//! task attempts, shared by every exporter and the live viewer.
//!
//! Each `TaskStart` → `TaskPhase`* → `TaskEnd`/`TaskKilled`/`TaskFailed`
//! lifecycle becomes one [`Attempt`] and the fold reports it to its
//! caller as [`Step`]s, in event order:
//!
//! - [`Step::Start`] when the attempt opens, with the greedy lowest free
//!   sublane of its node and its per-task start ordinal;
//! - [`Step::Interval`] for every closed phase interval, including the
//!   dispatch-overhead interval (`phase: None`) before the first
//!   `TaskPhase`; the intervals of one attempt tile `[start, end]`;
//! - [`Step::Close`] with the attempt's [`Outcome`], right after its last
//!   interval.
//!
//! The fold holds only open attempts, so memory stays bounded by the
//! number of concurrently running tasks and the live TUI can run on it.
//! [`AttemptFold::finish`] closes whatever is still open at the end of
//! the stream as [`Outcome::Unfinished`], at the last timestamp seen, in
//! ascending task id.
//!
//! Malformed streams (the engine never emits them) follow two rules:
//!
//! - a `TaskStart` for a task that is already open first closes the stale
//!   attempt as [`Outcome::Unfinished`] at the new start time;
//! - a `TaskPhase` or terminal event for a task with no open attempt is
//!   ignored.

use crate::event::{Event, Phase};

/// One open task attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt {
    /// Task id.
    pub task: u32,
    /// Worker node id.
    pub node: u32,
    /// Sublane on `node`: the lowest one free when the attempt started.
    pub lane: u32,
    /// How many earlier `TaskStart`s this task had (0 on the first).
    pub ordinal: u32,
    /// The `attempt` field of the `TaskStart` event.
    pub attempt: u32,
    /// Start time, nanoseconds.
    pub start: u64,
    /// Current phase (`None` = dispatch overhead).
    pub phase: Option<Phase>,
    /// When the current phase began, nanoseconds.
    pub phase_start: u64,
    /// Sequence number of the current phase interval within the attempt.
    pub seq: u32,
}

/// How an attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// `TaskEnd`.
    Ok,
    /// `TaskKilled`, with the work it threw away.
    Killed {
        /// Partially executed work, nanoseconds.
        wasted_nanos: u64,
    },
    /// `TaskFailed`.
    Failed,
    /// Still open at the end of the stream (or restarted while open).
    Unfinished,
}

/// One thing the fold learned from an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// An attempt opened.
    Start(Attempt),
    /// A phase interval of `att` closed.
    Interval {
        /// The attempt, as it was while the interval was open.
        att: Attempt,
        /// The phase (`None` = dispatch overhead).
        phase: Option<Phase>,
        /// Interval start, nanoseconds.
        start: u64,
        /// Interval end, nanoseconds.
        end: u64,
        /// Per-attempt sequence number, from 0.
        seq: u32,
    },
    /// An attempt closed at `end`; its last interval was reported just
    /// before.
    Close {
        /// The attempt.
        att: Attempt,
        /// Close time, nanoseconds.
        end: u64,
        /// How it ended.
        outcome: Outcome,
    },
}

/// The streaming task-attempt reducer. Feed it every event of a stream
/// with [`push`](Self::push), then call [`finish`](Self::finish).
#[derive(Debug, Default)]
pub struct AttemptFold {
    /// Open attempt per task id.
    open: Vec<Option<Attempt>>,
    /// `TaskStart`s seen per task id.
    starts: Vec<u32>,
    /// Busy sublanes per node id.
    busy: Vec<Vec<bool>>,
    /// Last timestamp seen.
    t_end: u64,
}

impl AttemptFold {
    /// The open attempt of `task`, if any.
    pub fn open(&self, task: u32) -> Option<&Attempt> {
        self.open.get(task as usize)?.as_ref()
    }

    /// Fold one event in, handing the steps it produces to `f` in order:
    /// at most a stale attempt's interval and close, then a start.
    /// Events that are not task lifecycle events only move the clock.
    pub fn push(&mut self, t: u64, ev: &Event, mut f: impl FnMut(Step)) {
        self.t_end = self.t_end.max(t);
        match *ev {
            Event::TaskStart {
                task,
                node,
                attempt,
            } => {
                self.close(task, t, Outcome::Unfinished, &mut f);
                f(Step::Start(self.start(task, node, attempt, t)));
            }
            Event::TaskPhase { task, phase, .. } => {
                if let Some(att) = self.open.get_mut(task as usize).and_then(Option::as_mut) {
                    f(interval(*att, t));
                    att.phase = Some(phase);
                    att.phase_start = t;
                    att.seq += 1;
                }
            }
            Event::TaskEnd { task, .. } => self.close(task, t, Outcome::Ok, &mut f),
            Event::TaskKilled {
                task, wasted_nanos, ..
            } => self.close(task, t, Outcome::Killed { wasted_nanos }, &mut f),
            Event::TaskFailed { task, .. } => self.close(task, t, Outcome::Failed, &mut f),
            _ => {}
        }
    }

    /// Close every still-open attempt as [`Outcome::Unfinished`] at the
    /// last timestamp seen, in ascending task id.
    pub fn finish(&mut self, mut f: impl FnMut(Step)) {
        for task in 0..self.open.len() as u32 {
            self.close(task, self.t_end, Outcome::Unfinished, &mut f);
        }
    }

    fn start(&mut self, task: u32, node: u32, attempt: u32, t: u64) -> Attempt {
        let (ix, n) = (task as usize, node as usize);
        if self.open.len() <= ix {
            self.open.resize(ix + 1, None);
            self.starts.resize(ix + 1, 0);
        }
        if self.busy.len() <= n {
            self.busy.resize_with(n + 1, Vec::new);
        }
        let lanes = &mut self.busy[n];
        let lane = lanes.iter().position(|&b| !b).unwrap_or(lanes.len());
        if lane == lanes.len() {
            lanes.push(false);
        }
        lanes[lane] = true;
        let att = Attempt {
            task,
            node,
            lane: lane as u32,
            ordinal: self.starts[ix],
            attempt,
            start: t,
            phase: None,
            phase_start: t,
            seq: 0,
        };
        self.starts[ix] += 1;
        self.open[ix] = Some(att);
        att
    }

    /// Close `task`'s open attempt, if any: its last interval, then the
    /// close itself.
    fn close(&mut self, task: u32, t: u64, outcome: Outcome, f: &mut impl FnMut(Step)) {
        if let Some(att) = self.open.get_mut(task as usize).and_then(Option::take) {
            self.busy[att.node as usize][att.lane as usize] = false;
            f(interval(att, t));
            f(Step::Close {
                att,
                end: t,
                outcome,
            });
        }
    }
}

/// The attempt's current interval, closed at `end`.
fn interval(att: Attempt, end: u64) -> Step {
    Step::Interval {
        att,
        phase: att.phase,
        start: att.phase_start,
        end,
        seq: att.seq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(task: u32, node: u32) -> Event {
        Event::TaskStart {
            task,
            node,
            attempt: 0,
        }
    }

    /// The steps `ev` produces.
    fn push(f: &mut AttemptFold, t: u64, ev: &Event) -> Vec<Step> {
        let mut steps = Vec::new();
        f.push(t, ev, |s| steps.push(s));
        steps
    }

    fn kinds(steps: &[Step]) -> Vec<(&'static str, u32)> {
        steps
            .iter()
            .map(|s| match *s {
                Step::Start(a) => ("start", a.task),
                Step::Interval { att, .. } => ("interval", att.task),
                Step::Close { att, .. } => ("close", att.task),
            })
            .collect()
    }

    #[test]
    fn lifecycle_reports_overhead_phases_and_outcome() {
        let mut f = AttemptFold::default();
        push(&mut f, 10, &start(3, 1));
        push(
            &mut f,
            15,
            &Event::TaskPhase {
                task: 3,
                node: 1,
                phase: Phase::Read,
            },
        );
        let steps = push(
            &mut f,
            40,
            &Event::TaskKilled {
                task: 3,
                node: 1,
                wasted_nanos: 30,
            },
        );
        let Step::Interval {
            phase, start, end, ..
        } = steps[0]
        else {
            panic!("{steps:?}")
        };
        assert_eq!((phase, start, end), (Some(Phase::Read), 15, 40));
        let Step::Close { att, end, outcome } = steps[1] else {
            panic!("{steps:?}")
        };
        assert_eq!((att.start, end), (10, 40));
        assert_eq!(outcome, Outcome::Killed { wasted_nanos: 30 });
        assert!(f.open(3).is_none());
    }

    #[test]
    fn restart_while_open_closes_the_stale_attempt_as_unfinished() {
        let mut f = AttemptFold::default();
        push(&mut f, 0, &start(4, 0));
        let steps = push(&mut f, 7, &start(4, 0));
        assert_eq!(kinds(&steps), [("interval", 4), ("close", 4), ("start", 4)]);
        assert!(matches!(
            steps[1],
            Step::Close {
                end: 7,
                outcome: Outcome::Unfinished,
                ..
            }
        ));
        let Step::Start(att) = steps[2] else {
            panic!("{steps:?}")
        };
        assert_eq!((att.lane, att.ordinal, att.start), (0, 1, 7));
    }

    #[test]
    fn events_for_tasks_with_no_open_attempt_are_ignored() {
        let mut f = AttemptFold::default();
        let orphans = [
            Event::TaskPhase {
                task: 9,
                node: 0,
                phase: Phase::Compute,
            },
            Event::TaskEnd {
                task: 9,
                node: 0,
                attempt: 1,
            },
            Event::TaskKilled {
                task: 9,
                node: 0,
                wasted_nanos: 1,
            },
            Event::TaskFailed { task: 9, node: 0 },
        ];
        for ev in &orphans {
            assert_eq!(push(&mut f, 1, ev), [], "{ev:?}");
        }
        push(&mut f, 2, &start(9, 0));
        push(&mut f, 3, &Event::TaskFailed { task: 9, node: 0 });
        for ev in &orphans {
            assert_eq!(push(&mut f, 4, ev), [], "after close: {ev:?}");
        }
        f.finish(|s| panic!("nothing open, got {s:?}"));
    }

    #[test]
    fn finish_closes_in_ascending_task_id_at_the_last_timestamp() {
        let mut f = AttemptFold::default();
        push(&mut f, 0, &start(5, 0));
        push(&mut f, 1, &start(2, 0));
        push(&mut f, 9, &Event::BgDone);
        let mut closes = Vec::new();
        f.finish(|s| {
            if let Step::Close {
                att,
                end,
                outcome: Outcome::Unfinished,
            } = s
            {
                closes.push((att.task, end, att.lane));
            }
        });
        assert_eq!(closes, [(2, 9, 1), (5, 9, 0)]);
    }
}
