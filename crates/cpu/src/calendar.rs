//! A calendar queue of per-cycle wakeup events.
//!
//! The core schedules two kinds of timed events — results becoming ready
//! and sleeping instructions re-checking their operands — and drains every
//! event due at the current cycle once per cycle. Nearly all of them fall
//! within a few hundred cycles, so they go into a power-of-two wheel of
//! per-cycle buckets with an occupancy bitmap: a push is one `Vec::push`,
//! a drain swaps out one bucket, and the next event is a bitmap scan. The
//! rare event beyond the wheel waits in a min-heap and moves into the
//! wheel once it comes within reach.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Wheel width in cycles: covers a 3-level miss with room to spare.
const WIDTH: usize = 256;
const MASK: u64 = WIDTH as u64 - 1;
const WORDS: usize = WIDTH / 64;

/// Sequence numbers keyed by the cycle they become due.
///
/// A push dated at or before the last drained cycle lands on the first
/// cycle still to be drained. Within a cycle, events come out in no
/// particular order.
#[derive(Debug)]
pub(crate) struct Calendar {
    /// The first cycle not yet drained. The wheel holds the events dated
    /// in `next..next + WIDTH`, cycle `t` in bucket `t % WIDTH`.
    next: u64,
    buckets: Vec<Vec<u64>>,
    /// Bit `i` set iff `buckets[i]` is non-empty.
    occupied: [u64; WORDS],
    /// Events dated at or after `next + WIDTH`, as `(cycle, seq)`.
    far: BinaryHeap<Reverse<(u64, u64)>>,
}

impl Calendar {
    pub(crate) fn new() -> Calendar {
        Calendar {
            next: 0,
            buckets: vec![Vec::new(); WIDTH],
            occupied: [0; WORDS],
            far: BinaryHeap::new(),
        }
    }

    /// Schedules `seq` at `cycle` (or at the first undrained cycle, if
    /// `cycle` has already been drained).
    pub(crate) fn push(&mut self, cycle: u64, seq: u64) {
        let cycle = cycle.max(self.next);
        if cycle - self.next < WIDTH as u64 {
            self.put(cycle, seq);
        } else {
            self.far.push(Reverse((cycle, seq)));
        }
    }

    fn put(&mut self, cycle: u64, seq: u64) {
        let slot = (cycle & MASK) as usize;
        self.buckets[slot].push(seq);
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    /// Moves every event dated at or before `cycle` into `out` (which is
    /// cleared first), and marks every cycle up to `cycle` drained.
    pub(crate) fn drain(&mut self, cycle: u64, out: &mut Vec<u64>) {
        out.clear();
        if cycle == self.next {
            // The common case, one cycle after the last drain: one bucket.
            self.take(cycle, out);
        } else {
            while let Some(t) = self.next_in_wheel().filter(|&t| t <= cycle) {
                self.take(t, out);
            }
        }
        self.next = self.next.max(cycle + 1);
        while let Some(&Reverse((t, seq))) = self.far.peek() {
            if t >= self.next + WIDTH as u64 {
                break;
            }
            self.far.pop();
            if t <= cycle {
                out.push(seq);
            } else {
                self.put(t, seq);
            }
        }
    }

    /// Appends the bucket of wheel cycle `t` to `out` and empties it.
    fn take(&mut self, t: u64, out: &mut Vec<u64>) {
        let slot = (t & MASK) as usize;
        let bit = 1 << (slot % 64);
        if self.occupied[slot / 64] & bit == 0 {
            return;
        }
        self.occupied[slot / 64] &= !bit;
        let bucket = &mut self.buckets[slot];
        if out.is_empty() {
            // Hand the bucket over whole; it gets `out`'s empty buffer.
            std::mem::swap(out, bucket);
        } else {
            out.append(bucket);
        }
    }

    /// The cycle of the earliest pending event, if any.
    pub(crate) fn next_event(&self) -> Option<u64> {
        let far = self.far.peek().map(|&Reverse((t, _))| t);
        self.next_in_wheel().into_iter().chain(far).min()
    }

    /// The earliest occupied wheel cycle: the first set bit at or after
    /// `next`'s slot, wrapping around the bitmap once.
    fn next_in_wheel(&self) -> Option<u64> {
        let start = (self.next & MASK) as usize;
        for k in 0..=WORDS {
            let word = (start / 64 + k) % WORDS;
            let mut bits = self.occupied[word];
            if k == 0 {
                bits &= !0 << (start % 64);
            } else if k == WORDS {
                bits &= !(!0 << (start % 64));
            }
            if bits != 0 {
                let slot = word * 64 + bits.trailing_zeros() as usize;
                let ahead = (slot as u64).wrapping_sub(start as u64) & MASK;
                return Some(self.next + ahead);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains cycle by cycle from `from` through `to`, returning
    /// `(cycle, seq)` for every event, sorted within each cycle.
    fn drain_each(cal: &mut Calendar, from: u64, to: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut got = Vec::new();
        for c in from..=to {
            cal.drain(c, &mut out);
            out.sort_unstable();
            got.extend(out.iter().map(|&s| (c, s)));
        }
        got
    }

    #[test]
    fn events_drain_on_exactly_their_cycle() {
        let w = WIDTH as u64;
        let now = 10;
        let mut cal = Calendar::new();
        cal.drain(now, &mut Vec::new());
        let dates = [now + 1, now + w - 1, now + w, now + 5 * w];
        for (seq, &t) in dates.iter().enumerate() {
            cal.push(t, seq as u64);
        }
        let got = drain_each(&mut cal, now + 1, now + 5 * w + 1);
        let want: Vec<(u64, u64)> =
            dates.iter().enumerate().map(|(seq, &t)| (t, seq as u64)).collect();
        assert_eq!(got, want);
        assert_eq!(cal.next_event(), None);
    }

    #[test]
    fn a_past_dated_push_drains_next_cycle() {
        let mut cal = Calendar::new();
        cal.drain(40, &mut Vec::new());
        cal.push(3, 7);
        cal.push(40, 8);
        assert_eq!(cal.next_event(), Some(41));
        assert_eq!(drain_each(&mut cal, 41, 42), [(41, 7), (41, 8)]);
    }

    #[test]
    fn next_event_is_the_earliest_pending() {
        let w = WIDTH as u64;
        let mut cal = Calendar::new();
        assert_eq!(cal.next_event(), None, "an empty calendar has no next event");
        // Only a far-heap event pending.
        cal.push(3 * w + 5, 1);
        assert_eq!(cal.next_event(), Some(3 * w + 5));
        // A wheel event before it, in a slot behind `next`'s slot once
        // the wheel has turned.
        cal.drain(w - 3, &mut Vec::new());
        cal.push(w + 2, 2);
        assert_eq!(cal.next_event(), Some(w + 2));
        cal.push(w - 1, 3);
        assert_eq!(cal.next_event(), Some(w - 1));
        // Several cycles drained at once hand out everything due.
        let mut out = Vec::new();
        cal.drain(w + 2, &mut out);
        out.sort_unstable();
        assert_eq!(out, [2, 3]);
        assert_eq!(cal.next_event(), Some(3 * w + 5));
        cal.drain(10 * w, &mut out);
        assert_eq!(out, [1]);
        assert_eq!(cal.next_event(), None);
    }
}
