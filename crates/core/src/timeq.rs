//! A hierarchical time-wheel event queue for the simulation engine.
//!
//! The simulator schedules everything it knows about the future —
//! completion events, transfer-buffer credit returns, branch
//! resolutions, wake checks, ready-queue entries — at absolute cycles.
//! [`TimeQ`] stores those events in a 1024-slot time wheel indexed by
//! `cycle % 1024`, with a two-level occupancy bitmap (16 slot words
//! under one summary word) so the earliest occupied slot is found with
//! a handful of `trailing_zeros` instructions, in O(1). Events beyond
//! the wheel horizon wait in a small overflow heap and are re-folded
//! into the wheel as the base advances.
//!
//! # Ordering
//!
//! [`TimeQ::pop_due`] yields due entries sorted by `(cycle, key, tick)`
//! where `tick` is a per-queue insertion counter: same-cycle entries
//! drain in key order, and exact duplicates in insertion order. This
//! reproduces the pop order of the `BinaryHeap<Reverse<(cycle, key)>>`
//! formulation the engine used before, which is what keeps
//! fast-forwarded and single-stepped runs byte-identical (branch
//! resolutions, for example, must update the predictor in
//! `(cycle, seq)` order).
//!
//! # Late scheduling
//!
//! An entry scheduled for a cycle the queue has already drained past
//! (the engine does this: operand-availability times can lie at or
//! before the cycle that computes them) is clamped into the current
//! base slot and pops on the next `pop_due` call — exactly when the
//! heap formulation would have delivered it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Wheel size in slots (cycles). Power of two, `WORDS * 64`.
const WHEEL_SLOTS: usize = 1024;
/// Occupancy-bitmap words under the summary word.
const WORDS: usize = WHEEL_SLOTS / 64;

/// One scheduled event: fires at `cycle`, ordered within the cycle by
/// `key`, carrying one word of `data` the producer packs as it likes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Entry {
    /// Absolute cycle the event fires at.
    pub cycle: u64,
    /// Same-cycle drain order, typically an instruction sequence number.
    pub key: u64,
    /// Insertion counter: makes `(cycle, key, tick)` a total order, so
    /// duplicate `(cycle, key)` schedules drain in insertion order.
    tick: u64,
    /// Producer-packed payload.
    pub data: u64,
}

/// The time-wheel event queue. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct TimeQ {
    /// Earliest cycle the wheel can hold; every wheel entry's effective
    /// cycle lies in `[base, base + WHEEL_SLOTS)`.
    base: u64,
    len: usize,
    tick: u64,
    /// Bit `w` set iff `words[w] != 0`.
    summary: u64,
    /// Bit `s % 64` of `words[s / 64]` set iff slot `s` is occupied.
    words: [u64; WORDS],
    slots: Vec<Vec<Entry>>,
    /// Entries at or beyond `base + WHEEL_SLOTS`, folded back into the
    /// wheel as the base advances.
    overflow: BinaryHeap<Reverse<Entry>>,
    /// Cached delivery cycle of the earliest scheduled entry
    /// (`u64::MAX` when empty). Lets [`TimeQ::pop_due`] answer the
    /// overwhelmingly common nothing-due-yet case — the simulator polls
    /// its queues every live cycle — with one compare instead of a
    /// bitmap walk, and makes [`TimeQ::next_cycle`] O(1).
    next_due: u64,
}

impl Default for TimeQ {
    fn default() -> TimeQ {
        TimeQ::new()
    }
}

impl TimeQ {
    /// Creates an empty queue anchored at cycle 0.
    #[must_use]
    pub fn new() -> TimeQ {
        TimeQ {
            base: 0,
            len: 0,
            tick: 0,
            summary: 0,
            words: [0; WORDS],
            slots: vec![Vec::new(); WHEEL_SLOTS],
            overflow: BinaryHeap::new(),
            next_due: u64::MAX,
        }
    }

    /// Number of scheduled entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules an event. Cycles already drained past clamp into the
    /// base slot (see the module docs); cycles beyond the wheel horizon
    /// go to the overflow heap.
    pub fn schedule(&mut self, cycle: u64, key: u64, data: u64) {
        self.tick += 1;
        let entry = Entry { cycle, key, tick: self.tick, data };
        self.len += 1;
        if cycle >= self.base + WHEEL_SLOTS as u64 {
            if cycle < self.next_due {
                self.next_due = cycle;
            }
            self.overflow.push(Reverse(entry));
            return;
        }
        // A cycle already drained past clamps into the base slot, so
        // its delivery cycle (what the cache tracks) is the base.
        let effective = cycle.max(self.base);
        if effective < self.next_due {
            self.next_due = effective;
        }
        let slot = (effective % WHEEL_SLOTS as u64) as usize;
        self.set_bit(slot);
        self.slots[slot].push(entry);
    }

    /// Appends every entry due at or before `now` to `out`, sorted by
    /// `(cycle, key, tick)`, and advances the base past the drained
    /// span (so the base never trails `now`).
    pub fn pop_due(&mut self, now: u64, out: &mut Vec<Entry>) {
        if now < self.next_due {
            // Nothing due: the cache proves no occupied slot lies in
            // `[base, now]`, so the base can jump without a scan. Slot
            // assignments stay valid — every live entry's delivery
            // cycle is `>= next_due > now`, within the new window.
            self.base = self.base.max(now);
            return;
        }
        self.pop_due_slow(now, out);
        self.next_due = self.earliest_delivery();
    }

    fn pop_due_slow(&mut self, now: u64, out: &mut Vec<Entry>) {
        loop {
            if self.summary == 0 {
                match self.overflow.peek() {
                    // Jump the empty wheel straight to the next
                    // overflow entry so refilling lands it in range.
                    Some(&Reverse(e)) if e.cycle <= now => self.base = e.cycle,
                    _ => {
                        self.base = self.base.max(now);
                        return;
                    }
                }
            }
            while let Some(&Reverse(e)) = self.overflow.peek() {
                if e.cycle >= self.base + WHEEL_SLOTS as u64 {
                    break;
                }
                self.overflow.pop();
                let slot = (e.cycle % WHEEL_SLOTS as u64) as usize;
                self.set_bit(slot);
                self.slots[slot].push(e);
            }
            if now < self.base {
                return;
            }
            let horizon = now.min(self.base + (WHEEL_SLOTS as u64 - 1));
            self.drain_window(horizon, out);
            if horizon == now {
                self.base = now;
                return;
            }
            self.base = horizon + 1;
        }
    }

    /// The cycle of the next `pop_due` delivery, if anything is
    /// scheduled. Late-clamped entries report their delivery cycle (the
    /// base slot), not their original one. O(1) — served from the
    /// cache `pop_due` and `schedule` maintain.
    #[must_use]
    pub fn next_cycle(&self) -> Option<u64> {
        (self.len != 0).then_some(self.next_due)
    }

    /// Recomputes the earliest delivery cycle from the wheel bitmap and
    /// the overflow heap (`u64::MAX` when empty) — the slow form of
    /// [`TimeQ::next_cycle`], run after anything is removed.
    fn earliest_delivery(&self) -> u64 {
        let wheel = self.first_occupied().map(|slot| {
            let start = (self.base % WHEEL_SLOTS as u64) as usize;
            self.base + ((slot + WHEEL_SLOTS - start) % WHEEL_SLOTS) as u64
        });
        let over = self.overflow.peek().map(|&Reverse(e)| e.cycle);
        match (wheel, over) {
            (Some(a), Some(b)) => a.min(b),
            (a, b) => a.or(b).unwrap_or(u64::MAX),
        }
    }

    /// The entry `pop_earliest` would return, without removing it.
    #[must_use]
    pub fn peek_earliest(&self) -> Option<Entry> {
        let wheel = self
            .first_occupied()
            .map(|slot| *self.slots[slot].iter().min().expect("occupied slot"));
        let over = self.overflow.peek().map(|&Reverse(e)| e);
        match (wheel, over) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Removes and returns the earliest entry by `(cycle, key, tick)`.
    pub fn pop_earliest(&mut self) -> Option<Entry> {
        if let Some(slot) = self.first_occupied() {
            let v = &mut self.slots[slot];
            let i = (0..v.len()).min_by_key(|&i| v[i]).expect("occupied slot");
            let e = v.remove(i);
            if v.is_empty() {
                self.clear_bit(slot);
            }
            self.len -= 1;
            self.next_due = self.earliest_delivery();
            return Some(e);
        }
        self.overflow.pop().map(|Reverse(e)| {
            self.len -= 1;
            self.next_due = self.earliest_delivery();
            e
        })
    }

    /// Keeps only the entries `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(&Entry) -> bool) {
        for slot in 0..WHEEL_SLOTS {
            if self.slots[slot].is_empty() {
                continue;
            }
            let before = self.slots[slot].len();
            self.slots[slot].retain(|e| keep(e));
            self.len -= before - self.slots[slot].len();
            if self.slots[slot].is_empty() {
                self.clear_bit(slot);
            }
        }
        let before = self.overflow.len();
        let kept: Vec<Reverse<Entry>> =
            self.overflow.drain().filter(|Reverse(e)| keep(e)).collect();
        self.len -= before - kept.len();
        self.overflow = kept.into_iter().collect();
        self.next_due = self.earliest_delivery();
    }

    /// Removes every entry and re-anchors at cycle 0, leaving the queue
    /// as `new()` would (minus the allocations).
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.clear();
        }
        self.words = [0; WORDS];
        self.summary = 0;
        self.overflow.clear();
        self.len = 0;
        self.base = 0;
        self.tick = 0;
        self.next_due = u64::MAX;
    }

    /// Visits every scheduled entry in no particular order. Walks the
    /// occupancy bitmap rather than all [`WHEEL_SLOTS`] slot headers,
    /// so a sparse queue (the common case — the invariant checker
    /// calls this every validated cycle) costs O(occupied slots).
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        (0..WORDS)
            .filter(|&w| self.summary & (1 << w) != 0)
            .flat_map(move |w| {
                let mut bits = self.words[w];
                std::iter::from_fn(move || {
                    if bits == 0 {
                        return None;
                    }
                    let slot = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(slot)
                })
            })
            .flat_map(|slot| self.slots[slot].iter())
            .chain(self.overflow.iter().map(|Reverse(e)| e))
    }

    fn set_bit(&mut self, slot: usize) {
        self.words[slot / 64] |= 1 << (slot % 64);
        self.summary |= 1 << (slot / 64);
    }

    fn clear_bit(&mut self, slot: usize) {
        self.words[slot / 64] &= !(1 << (slot % 64));
        if self.words[slot / 64] == 0 {
            self.summary &= !(1 << (slot / 64));
        }
    }

    /// First occupied slot in circular order from the base slot.
    fn first_occupied(&self) -> Option<usize> {
        if self.summary == 0 {
            return None;
        }
        let start = (self.base % WHEEL_SLOTS as u64) as usize;
        self.scan_range(start, WHEEL_SLOTS).or_else(|| self.scan_range(0, start))
    }

    /// First occupied slot in `[from, to)`, linear.
    fn scan_range(&self, from: usize, to: usize) -> Option<usize> {
        if from >= to {
            return None;
        }
        let first_w = from / 64;
        let last_w = (to - 1) / 64;
        for w in first_w..=last_w {
            if self.summary & (1 << w) == 0 {
                continue;
            }
            let mut bits = self.words[w];
            if w == first_w {
                bits &= !0u64 << (from % 64);
            }
            if w == last_w && !to.is_multiple_of(64) {
                bits &= (1u64 << (to % 64)) - 1;
            }
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Drains occupied slots with effective cycles in `[base, horizon]`
    /// into `out`, each slot sorted, in cycle order.
    fn drain_window(&mut self, horizon: u64, out: &mut Vec<Entry>) {
        let start = (self.base % WHEEL_SLOTS as u64) as usize;
        let span = (horizon - self.base + 1) as usize;
        let first = span.min(WHEEL_SLOTS - start);
        self.drain_range(start, start + first, out);
        if span > first {
            self.drain_range(0, span - first, out);
        }
    }

    /// Drains occupied slots in `[from, to)`, linear, position order.
    fn drain_range(&mut self, from: usize, to: usize, out: &mut Vec<Entry>) {
        let first_w = from / 64;
        let last_w = (to - 1) / 64;
        for w in first_w..=last_w {
            if self.summary & (1 << w) == 0 {
                continue;
            }
            let mut bits = self.words[w];
            if w == first_w {
                bits &= !0u64 << (from % 64);
            }
            if w == last_w && !to.is_multiple_of(64) {
                bits &= (1u64 << (to % 64)) - 1;
            }
            while bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let mut v = std::mem::take(&mut self.slots[slot]);
                if v.len() > 1 {
                    v.sort_unstable();
                }
                self.len -= v.len();
                out.append(&mut v);
                self.slots[slot] = v;
                self.clear_bit(slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut TimeQ, now: u64) -> Vec<(u64, u64, u64)> {
        let mut out = Vec::new();
        q.pop_due(now, &mut out);
        out.into_iter().map(|e| (e.cycle, e.key, e.data)).collect()
    }

    #[test]
    fn pops_in_cycle_then_key_order() {
        let mut q = TimeQ::new();
        q.schedule(7, 2, 20);
        q.schedule(3, 9, 90);
        q.schedule(7, 1, 10);
        q.schedule(5, 4, 40);
        assert_eq!(q.len(), 4);
        assert_eq!(drain(&mut q, 6), vec![(3, 9, 90), (5, 4, 40)]);
        assert_eq!(drain(&mut q, 6), vec![], "nothing due twice");
        assert_eq!(drain(&mut q, 7), vec![(7, 1, 10), (7, 2, 20)]);
        assert!(q.is_empty());
    }

    #[test]
    fn same_cycle_same_key_pops_fifo() {
        let mut q = TimeQ::new();
        q.schedule(4, 8, 1);
        q.schedule(4, 8, 2);
        q.schedule(4, 8, 3);
        assert_eq!(drain(&mut q, 4), vec![(4, 8, 1), (4, 8, 2), (4, 8, 3)]);
    }

    #[test]
    fn late_schedules_clamp_to_the_next_drain() {
        let mut q = TimeQ::new();
        q.schedule(10, 1, 0);
        assert_eq!(drain(&mut q, 10), vec![(10, 1, 0)]);
        // Cycle 3 is already drained past; the entry must still come
        // out on the very next pop, ahead of same-pop later cycles.
        q.schedule(3, 7, 0);
        q.schedule(11, 2, 0);
        assert_eq!(drain(&mut q, 11), vec![(3, 7, 0), (11, 2, 0)]);
    }

    #[test]
    fn far_future_entries_ride_the_overflow_ring() {
        let mut q = TimeQ::new();
        q.schedule(5, 1, 0);
        q.schedule(100_000, 2, 0); // far beyond the 1024-slot horizon
        q.schedule(2_000_000, 3, 0);
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_cycle(), Some(5));
        assert_eq!(drain(&mut q, 50), vec![(5, 1, 0)]);
        assert_eq!(q.next_cycle(), Some(100_000));
        assert_eq!(drain(&mut q, 99_999), vec![]);
        assert_eq!(drain(&mut q, 100_000), vec![(100_000, 2, 0)]);
        assert_eq!(drain(&mut q, 3_000_000), vec![(2_000_000, 3, 0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn wheel_wraps_around_without_mixing_cycles() {
        let mut q = TimeQ::new();
        // Walk the base across several wheel lengths with entries that
        // straddle each wrap point.
        let mut expected = Vec::new();
        for lap in 0..5u64 {
            let c = lap * 1000 + 1020; // crosses the 1024 boundary repeatedly
            q.schedule(c, lap, 0);
            expected.push((c, lap, 0));
        }
        let mut got = Vec::new();
        for now in (0..8000).step_by(97) {
            got.extend(drain(&mut q, now));
        }
        got.extend(drain(&mut q, 8000));
        assert_eq!(got, expected);
    }

    #[test]
    fn overflow_refills_preserve_ordering_across_a_big_jump() {
        let mut q = TimeQ::new();
        q.schedule(5000, 2, 0);
        q.schedule(4096, 1, 0);
        q.schedule(9000, 3, 0);
        // One pop far past everything: all three, still in order.
        assert_eq!(drain(&mut q, 10_000), vec![(4096, 1, 0), (5000, 2, 0), (9000, 3, 0)]);
    }

    #[test]
    fn next_cycle_reports_the_earliest_pending_entry() {
        let mut q = TimeQ::new();
        assert_eq!(q.next_cycle(), None);
        q.schedule(2000, 1, 0);
        assert_eq!(q.next_cycle(), Some(2000));
        q.schedule(12, 2, 0);
        assert_eq!(q.next_cycle(), Some(12));
        let _ = drain(&mut q, 500);
        assert_eq!(q.next_cycle(), Some(2000));
    }

    #[test]
    fn peek_and_pop_earliest_agree_with_pop_due_order() {
        let mut q = TimeQ::new();
        q.schedule(9, 5, 50);
        q.schedule(9, 3, 30);
        q.schedule(2000, 1, 10);
        let e = q.peek_earliest().unwrap();
        assert_eq!((e.cycle, e.key), (9, 3));
        assert_eq!(q.pop_earliest().map(|e| (e.cycle, e.key)), Some((9, 3)));
        assert_eq!(q.pop_earliest().map(|e| (e.cycle, e.key)), Some((9, 5)));
        assert_eq!(q.pop_earliest().map(|e| (e.cycle, e.key)), Some((2000, 1)));
        assert_eq!(q.pop_earliest(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn retain_filters_wheel_and_overflow() {
        let mut q = TimeQ::new();
        for k in 0..10 {
            q.schedule(10 + k, k, 0);
            q.schedule(100_000 + k, k, 0);
        }
        q.retain(|e| e.key % 2 == 0);
        assert_eq!(q.len(), 10);
        let keys: Vec<u64> = {
            let mut out = Vec::new();
            q.pop_due(200_000, &mut out);
            out.iter().map(|e| e.key).collect()
        };
        assert_eq!(keys, vec![0, 2, 4, 6, 8, 0, 2, 4, 6, 8]);
    }

    #[test]
    fn clear_empties_everything() {
        let mut q = TimeQ::new();
        q.schedule(5, 1, 0);
        q.schedule(100_000, 2, 0);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.next_cycle(), None);
        // Still usable after a clear (re-anchored at cycle 0).
        q.schedule(7, 3, 0);
        assert_eq!(drain(&mut q, 7), vec![(7, 3, 0)]);
        assert_eq!(drain(&mut q, 200_000), vec![]);
    }

    #[test]
    fn iter_visits_wheel_and_overflow_entries() {
        let mut q = TimeQ::new();
        q.schedule(5, 1, 0);
        q.schedule(6, 2, 0);
        q.schedule(500_000, 3, 0);
        let mut keys: Vec<u64> = q.iter().map(|e| e.key).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 2, 3]);
    }

    #[test]
    fn entries_at_exactly_the_wheel_horizon_ride_overflow_and_hand_back() {
        let mut q = TimeQ::new();
        // `base + WHEEL_SLOTS` is the first cycle the wheel cannot
        // hold: it must go to the overflow heap, not wrap into slot 0
        // (which currently means "cycle base").
        q.schedule(WHEEL_SLOTS as u64, 1, 10);
        assert_eq!(q.next_cycle(), Some(WHEEL_SLOTS as u64));
        assert_eq!(drain(&mut q, WHEEL_SLOTS as u64 - 1), vec![]);
        // Draining advances the base, so the horizon entry folds back
        // into the wheel and pops at its exact cycle.
        assert_eq!(drain(&mut q, WHEEL_SLOTS as u64), vec![(WHEEL_SLOTS as u64, 1, 10)]);
        assert!(q.is_empty());

        // Same handoff with a non-zero base: advance the base first,
        // then park an entry exactly one wheel length ahead of it.
        let mut q = TimeQ::new();
        q.schedule(500, 1, 0);
        assert_eq!(drain(&mut q, 500), vec![(500, 1, 0)]);
        let horizon = 500 + WHEEL_SLOTS as u64;
        q.schedule(horizon, 2, 20); // exactly base + WHEEL_SLOTS
        q.schedule(horizon - 1, 3, 30); // last in-wheel slot
        assert_eq!(q.next_cycle(), Some(horizon - 1));
        assert_eq!(
            drain(&mut q, horizon),
            vec![(horizon - 1, 3, 30), (horizon, 2, 20)],
            "horizon entry hands back from overflow in cycle order"
        );
        assert!(q.is_empty());
    }

    #[test]
    fn reinsertion_during_a_pop_cycle_pops_in_the_same_cycle() {
        // The engine's pattern: pop the events due at `now`, process
        // them, and processing schedules follow-up events at `now`
        // itself (late clamp) or `now + 1`. A same-cycle re-insertion
        // must come out of the very next pop at the same `now`, not be
        // deferred a cycle or dropped by the drained-past logic.
        let mut q = TimeQ::new();
        q.schedule(10, 1, 0);
        assert_eq!(drain(&mut q, 10), vec![(10, 1, 0)]);
        // Re-insert at the already-drained cycle 10 (and one behind
        // it): both clamp into the base slot and pop immediately.
        q.schedule(10, 2, 0);
        q.schedule(9, 3, 0);
        assert_eq!(drain(&mut q, 10), vec![(9, 3, 0), (10, 2, 0)]);
        // A chain of same-cycle re-insertions keeps popping at `now`,
        // in insertion order for duplicate keys.
        for i in 0..4 {
            q.schedule(10, 7, i);
            assert_eq!(drain(&mut q, 10), vec![(10, 7, i)]);
        }
        assert!(q.is_empty());
        // And the base never trailed: a next-cycle entry still pops on
        // time.
        q.schedule(11, 1, 0);
        assert_eq!(q.next_cycle(), Some(11));
        assert_eq!(drain(&mut q, 11), vec![(11, 1, 0)]);
    }

    #[test]
    fn heap_equivalence_at_the_wheel_boundary() {
        // Seeded property test against the BinaryHeap oracle with
        // offsets concentrated at `now + WHEEL_SLOTS ± 2`, so every
        // drain exercises the wheel/overflow handoff both ways.
        let mut seed = 0xDEAD_BEEF_CAFE_F00Du64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut q = TimeQ::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut tick = 0u64;
        for round in 0..3000u64 {
            for _ in 0..(rng() % 3) {
                let w = WHEEL_SLOTS as u64;
                let cycle = match rng() % 8 {
                    0 => now + w - 2,
                    1 => now + w - 1,
                    2 => now + w, // exactly the horizon
                    3 => now + w + 1,
                    4 => now + w + 2,
                    5 => now + rng() % 4, // near term, same slots soon
                    _ => now + 1 + rng() % (w / 2),
                };
                let key = rng() % 8;
                tick += 1;
                q.schedule(cycle, key, tick);
                heap.push(Reverse((cycle, key, tick)));
            }
            // Mostly small steps; occasionally a jump of about one
            // wheel length so the base crosses the wrap point.
            now += if round % 17 == 0 { WHEEL_SLOTS as u64 - 3 + rng() % 6 } else { rng() % 4 };
            let mut got = Vec::new();
            q.pop_due(now, &mut got);
            let mut want = Vec::new();
            while let Some(&Reverse((c, ..))) = heap.peek() {
                if c > now {
                    break;
                }
                let Reverse((_, key, t)) = heap.pop().unwrap();
                want.push((key, t));
            }
            let got: Vec<(u64, u64)> = got.iter().map(|e| (e.key, e.data)).collect();
            assert_eq!(got, want, "divergence at now={now}");
            assert_eq!(q.len(), heap.len(), "length divergence at now={now}");
        }
    }

    #[test]
    fn heap_equivalence_under_random_traffic() {
        // Differential test against the BinaryHeap formulation the
        // engine used before: identical pop sequences under a stream of
        // interleaved schedules and drains (deterministic xorshift).
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut q = TimeQ::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut tick = 0u64;
        for _ in 0..2000 {
            for _ in 0..(rng() % 4) {
                // Mostly near-future, occasionally far-future, rarely
                // in the past (clamped).
                let r = rng();
                let cycle = match r % 10 {
                    0 => now.saturating_sub(rng() % 8),
                    1..=7 => now + rng() % 40,
                    _ => now + 1000 + rng() % 5000,
                };
                let key = rng() % 16;
                tick += 1;
                q.schedule(cycle, key, tick);
                // The heap keeps the original cycle even for entries in
                // the past: they sort to the front and pop on the next
                // drain, exactly like the wheel's base-slot clamp.
                heap.push(Reverse((cycle, key, tick)));
            }
            now += rng() % 6;
            let mut got = Vec::new();
            q.pop_due(now, &mut got);
            let mut want = Vec::new();
            while let Some(&Reverse((c, ..))) = heap.peek() {
                if c > now {
                    break;
                }
                let Reverse((_, key, t)) = heap.pop().unwrap();
                want.push((key, t));
            }
            let got: Vec<(u64, u64)> = got.iter().map(|e| (e.key, e.data)).collect();
            assert_eq!(got, want, "divergence at now={now}");
        }
    }
}
