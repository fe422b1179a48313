//! Property tests for the task-attempt fold over random well-formed
//! event streams: phase intervals tile each attempt, open attempts never
//! share a sublane and always take the lowest free one, start ordinals
//! count `TaskStart`s per task, and `finish` closes what is left in
//! ascending task id at the last timestamp.

use std::collections::BTreeMap;

use proptest::prelude::*;
use wfobs::{AttemptFold, Event, Outcome, Phase, Step};

const PHASES: [Phase; 6] = [
    Phase::Ops,
    Phase::StageIn,
    Phase::Read,
    Phase::Compute,
    Phase::Write,
    Phase::StageOut,
];

/// Turn random draws into a well-formed stream: a task that is not open
/// starts on the drawn node; an open task enters a phase or ends. Every
/// fourth draw also emits a non-task event, which only moves the clock.
fn stream(draws: &[(u16, u8, u8, u8)]) -> Vec<(u64, Event)> {
    let mut open: BTreeMap<u32, u32> = BTreeMap::new();
    let mut out = Vec::new();
    let mut t = 0u64;
    for (i, &(dt, task, node, action)) in draws.iter().enumerate() {
        t += u64::from(dt);
        let task = u32::from(task);
        let ev = match open.get(&task).copied() {
            None => {
                let node = u32::from(node);
                open.insert(task, node);
                Event::TaskStart {
                    task,
                    node,
                    attempt: u32::from(action % 3),
                }
            }
            Some(node) => match action {
                0..=5 => Event::TaskPhase {
                    task,
                    node,
                    phase: PHASES[usize::from(action)],
                },
                6 => Event::TaskEnd {
                    task,
                    node,
                    attempt: 1,
                },
                7 => Event::TaskKilled {
                    task,
                    node,
                    wasted_nanos: u64::from(dt),
                },
                _ => Event::TaskFailed { task, node },
            },
        };
        if !matches!(ev, Event::TaskStart { .. } | Event::TaskPhase { .. }) {
            open.remove(&task);
        }
        out.push((t, ev));
        if i % 4 == 3 {
            out.push((t + 1, Event::BgDone));
        }
    }
    out
}

/// What the test expects of the fold, rebuilt from its steps.
#[derive(Default)]
struct Model {
    /// `(node, lane)` -> task of every open attempt.
    lanes: BTreeMap<(u32, u32), u32>,
    /// `TaskStart`s seen per task.
    starts: BTreeMap<u32, u32>,
    /// Open task -> (attempt start, end of its last interval, next seq).
    tiling: BTreeMap<u32, (u64, u64, u32)>,
}

impl Model {
    fn check(&mut self, step: Step) -> Result<(), TestCaseError> {
        match step {
            Step::Start(att) => {
                prop_assert!(
                    !self.lanes.contains_key(&(att.node, att.lane)),
                    "lane shared"
                );
                for lower in 0..att.lane {
                    prop_assert!(
                        self.lanes.contains_key(&(att.node, lower)),
                        "lane not lowest free"
                    );
                }
                self.lanes.insert((att.node, att.lane), att.task);
                let n = self.starts.entry(att.task).or_insert(0);
                prop_assert_eq!(att.ordinal, *n);
                *n += 1;
                self.tiling.insert(att.task, (att.start, att.start, 0));
            }
            Step::Interval {
                att,
                start,
                end,
                seq,
                ..
            } => {
                let tile = self
                    .tiling
                    .get_mut(&att.task)
                    .expect("interval of an open attempt");
                prop_assert_eq!(start, tile.1, "gap or overlap");
                prop_assert!(start <= end);
                prop_assert_eq!(seq, tile.2);
                tile.1 = end;
                tile.2 += 1;
            }
            Step::Close { att, end, .. } => {
                let tile = self
                    .tiling
                    .remove(&att.task)
                    .expect("close of an open attempt");
                prop_assert_eq!(tile.0, att.start);
                prop_assert_eq!(tile.1, end, "intervals stop short of the close");
                prop_assert!(tile.2 >= 1, "at least one interval");
                prop_assert_eq!(self.lanes.remove(&(att.node, att.lane)), Some(att.task));
            }
        }
        Ok(())
    }
}

proptest! {
    #[test]
    fn fold_invariants_hold(
        draws in proptest::collection::vec((0u16..50, 0u8..10, 0u8..3, 0u8..9), 0..200),
    ) {
        let events = stream(&draws);
        let mut fold = AttemptFold::default();
        let mut model = Model::default();
        let mut steps = Vec::new();
        for (t, ev) in &events {
            fold.push(*t, ev, |step| steps.push(step));
            for step in steps.drain(..) {
                model.check(step)?;
            }
        }
        let left: Vec<u32> = model.tiling.keys().copied().collect();
        let t_end = events.last().map_or(0, |&(t, _)| t);
        let mut closed = Vec::new();
        fold.finish(|step| steps.push(step));
        for step in steps {
            if let Step::Close { att, end, outcome } = step {
                prop_assert_eq!(outcome, Outcome::Unfinished);
                prop_assert_eq!(end, t_end);
                closed.push(att.task);
            }
            model.check(step)?;
        }
        prop_assert_eq!(closed, left, "ascending task id");
        prop_assert!(model.lanes.is_empty());
    }
}
