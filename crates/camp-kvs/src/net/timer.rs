//! A min-heap of reactor deadlines: slowloris idle checks, chaos delay
//! resumes and the 50 ms drain tick. [`Timers::expire`] pops everything
//! due before the caller fires any of it, so an entry re-armed at "now"
//! while firing waits for the next pass. Cancellation is lazy: the
//! reactor's payloads are connection `EntryId`s, and a fired entry whose
//! connection is gone is ignored.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::time::{Duration, Instant};

/// Deadlines ordered earliest first; `T` is the caller's payload.
#[derive(Debug)]
pub struct Timers<T: Ord>(BinaryHeap<Reverse<(Instant, T)>>);

impl<T: Ord> Timers<T> {
    /// Schedules `payload` to fire once `deadline` has passed. Deadlines
    /// already in the past fire on the next [`Timers::expire`] call.
    pub fn schedule(&mut self, deadline: Instant, payload: T) {
        self.0.push(Reverse((deadline, payload)));
    }

    /// Appends every payload due by `now` to `due`, earliest first.
    pub fn expire(&mut self, now: Instant, due: &mut Vec<T>) {
        while let Some(top) = self.0.peek_mut() {
            if top.0 .0 > now {
                break;
            }
            due.push(PeekMut::pop(top).0 .1);
        }
    }

    /// How long the owner may sleep before the earliest entry is due, or
    /// `None` when nothing is scheduled.
    #[must_use]
    pub fn next_timeout(&self, now: Instant) -> Option<Duration> {
        let Reverse((deadline, _)) = self.0.peek()?;
        Some(deadline.saturating_duration_since(now))
    }
}

impl<T: Ord> Default for Timers<T> {
    fn default() -> Self {
        Timers(BinaryHeap::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(timers: &mut Timers<u32>, now: Instant) -> Vec<u32> {
        let mut due = Vec::new();
        timers.expire(now, &mut due);
        due
    }

    #[test]
    fn fires_once_the_deadline_passes() {
        let start = Instant::now();
        let mut timers = Timers::default();
        timers.schedule(start + Duration::from_millis(10), 1);
        assert_eq!(drain(&mut timers, start + Duration::from_millis(5)), vec![]);
        assert_eq!(
            drain(&mut timers, start + Duration::from_millis(10)),
            vec![1]
        );
        assert_eq!(timers.next_timeout(start), None);
    }

    #[test]
    fn past_deadlines_fire_on_the_next_expire() {
        let start = Instant::now();
        let mut timers = Timers::default();
        timers.schedule(start + Duration::from_millis(3), 7);
        timers.schedule(start + Duration::from_millis(1), 8);
        assert_eq!(
            drain(&mut timers, start + Duration::from_millis(5)),
            vec![8, 7]
        );
        timers.schedule(start, 9);
        assert_eq!(
            drain(&mut timers, start + Duration::from_millis(5)),
            vec![9]
        );
    }

    #[test]
    fn next_timeout_is_the_exact_sleep() {
        let start = Instant::now();
        let mut timers = Timers::<u32>::default();
        assert_eq!(timers.next_timeout(start), None);
        timers.schedule(start + Duration::from_millis(20), 1);
        timers.schedule(start + Duration::from_millis(30), 2);
        let sleep = timers.next_timeout(start).expect("entry scheduled");
        assert_eq!(sleep, Duration::from_millis(20));
        // Sleeping exactly that long makes the entry due, and only it.
        assert_eq!(drain(&mut timers, start + sleep), vec![1]);
        assert_eq!(
            timers.next_timeout(start + Duration::from_millis(40)),
            Some(Duration::ZERO)
        );
    }

    #[test]
    fn interleaved_deadlines_fire_in_deadline_order() {
        let start = Instant::now();
        let mut timers = Timers::default();
        timers.schedule(start + Duration::from_millis(30), 3);
        timers.schedule(start + Duration::from_millis(10), 1);
        timers.schedule(start + Duration::from_millis(20), 2);
        assert_eq!(
            drain(&mut timers, start + Duration::from_millis(40)),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn an_entry_rearmed_at_now_while_firing_waits_for_the_next_pass() {
        let start = Instant::now();
        let mut timers = Timers::default();
        timers.schedule(start, 1);
        let mut due = Vec::new();
        timers.expire(start, &mut due);
        // Firing 1 re-arms it at the same instant, as the reactor does for
        // a parked connection: the pass that collected it is over.
        for &payload in &due {
            timers.schedule(start, payload);
        }
        assert_eq!(due, vec![1]);
        assert_eq!(drain(&mut timers, start), vec![1]);
        assert_eq!(drain(&mut timers, start), vec![]);
    }
}
