//! The schedule log: the heart of DoublePlay's logging story.
//!
//! Because each epoch of the epoch-parallel execution runs all threads
//! time-sliced on a single processor, reproducing it needs only the sequence
//! of scheduling decisions — *which thread ran for how many instructions* —
//! plus the points where asynchronous events (logged syscall completions,
//! signals) were delivered. No shared-memory access ordering is ever logged;
//! that is the paper's central saving.

use dp_vm::{Tid, Word};

/// One scheduling event in an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEvent {
    /// `tid` ran for exactly `instrs` instructions.
    Slice {
        /// Thread that ran.
        tid: Tid,
        /// Instructions executed.
        instrs: u64,
    },
    /// A logged blocking syscall's completion was delivered to `tid` at this
    /// point (the thread was `Waiting`; its result comes from the syscall
    /// log).
    LoggedWake {
        /// Thread whose pending syscall completed.
        tid: Tid,
    },
    /// Signal `sig` was delivered to `tid` at this point (handler frame
    /// pushed before its next slice).
    Signal {
        /// Thread receiving the signal.
        tid: Tid,
        /// Signal number.
        sig: Word,
    },
}

/// An epoch's schedule log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScheduleLog {
    events: Vec<SchedEvent>,
}

impl ScheduleLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a slice, coalescing with an immediately preceding slice of
    /// the same thread (uninterrupted execution needs only one entry).
    pub fn push_slice(&mut self, tid: Tid, instrs: u64) {
        if instrs == 0 {
            return;
        }
        if let Some(SchedEvent::Slice {
            tid: last,
            instrs: n,
        }) = self.events.last_mut()
        {
            if *last == tid {
                *n += instrs;
                return;
            }
        }
        self.events.push(SchedEvent::Slice { tid, instrs });
    }

    /// Appends a logged-wake delivery.
    pub fn push_wake(&mut self, tid: Tid) {
        self.events.push(SchedEvent::LoggedWake { tid });
    }

    /// Appends a signal delivery.
    pub fn push_signal(&mut self, tid: Tid, sig: Word) {
        self.events.push(SchedEvent::Signal { tid, sig });
    }

    /// The events in order.
    pub fn events(&self) -> &[SchedEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total instructions covered by the log's slices.
    pub fn total_instructions(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                SchedEvent::Slice { instrs, .. } => *instrs,
                _ => 0,
            })
            .sum()
    }

    /// Event counts by kind: `(slices, wakes, signals)`.
    pub fn event_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for e in &self.events {
            match e {
                SchedEvent::Slice { .. } => counts.0 += 1,
                SchedEvent::LoggedWake { .. } => counts.1 += 1,
                SchedEvent::Signal { .. } => counts.2 += 1,
            }
        }
        counts
    }

    /// Per-thread `(slice count, instruction total)`, sorted by thread id —
    /// the per-thread view the inspection tooling prints.
    pub fn per_thread_totals(&self) -> Vec<(Tid, usize, u64)> {
        let mut totals: std::collections::BTreeMap<u32, (usize, u64)> =
            std::collections::BTreeMap::new();
        for e in &self.events {
            if let SchedEvent::Slice { tid, instrs } = e {
                let t = totals.entry(tid.0).or_default();
                t.0 += 1;
                t.1 += instrs;
            }
        }
        totals
            .into_iter()
            .map(|(tid, (n, instrs))| (Tid(tid), n, instrs))
            .collect()
    }
}

impl FromIterator<SchedEvent> for ScheduleLog {
    fn from_iter<I: IntoIterator<Item = SchedEvent>>(iter: I) -> Self {
        let mut log = ScheduleLog::new();
        for e in iter {
            match e {
                SchedEvent::Slice { tid, instrs } => log.push_slice(tid, instrs),
                SchedEvent::LoggedWake { tid } => log.push_wake(tid),
                SchedEvent::Signal { tid, sig } => log.push_signal(tid, sig),
            }
        }
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesces_adjacent_same_thread_slices() {
        let mut log = ScheduleLog::new();
        log.push_slice(Tid(0), 100);
        log.push_slice(Tid(0), 50);
        log.push_slice(Tid(1), 10);
        log.push_slice(Tid(0), 5);
        assert_eq!(log.len(), 3);
        assert_eq!(
            log.events()[0],
            SchedEvent::Slice {
                tid: Tid(0),
                instrs: 150
            }
        );
        assert_eq!(log.total_instructions(), 165);
    }

    #[test]
    fn wake_breaks_coalescing() {
        let mut log = ScheduleLog::new();
        log.push_slice(Tid(0), 10);
        log.push_wake(Tid(1));
        log.push_slice(Tid(0), 10);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn zero_length_slices_are_dropped() {
        let mut log = ScheduleLog::new();
        log.push_slice(Tid(0), 0);
        assert!(log.is_empty());
    }

    #[test]
    fn from_iterator_coalesces_too() {
        let log: ScheduleLog = vec![
            SchedEvent::Slice {
                tid: Tid(2),
                instrs: 1,
            },
            SchedEvent::Slice {
                tid: Tid(2),
                instrs: 2,
            },
        ]
        .into_iter()
        .collect();
        assert_eq!(log.len(), 1);
        assert_eq!(log.total_instructions(), 3);
    }
}
