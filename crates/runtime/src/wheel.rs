//! A hashed timer wheel for host-time deadlines.
//!
//! The reactor backend multiplexes thousands of node tasks onto a handful
//! of worker threads, so `SetTimer` deadlines can no longer live in a
//! per-thread `recv_deadline` — some *one* data structure has to answer
//! "which node must wake next, and when?" for every parked node at once.
//! This module is that structure: a classic hashed timer wheel (Varghese &
//! Lauck, SOSP 1987), sharing design DNA with the simulator's ladder
//! queue (`crates/sim/src/event.rs`) — both exploit the fact that
//! deadlines are clustered near the present to replace `O(log n)` heap
//! reshuffles with `O(1)` bucket pushes.
//!
//! * **Ticks.** Host time is quantized into ticks of `granularity`
//!   nanoseconds. Deadlines round *up* to the next tick boundary, so an
//!   entry never fires early (firing late by less than one tick is
//!   indistinguishable from host scheduling jitter, which the runtime
//!   already folds into `u` — see the crate docs).
//! * **Slots.** Entry with deadline tick `t` lives in slot `t % SLOTS`.
//!   Insertion and cancellation are `O(1)` plus a short in-slot scan
//!   (slot occupancy is `len / SLOTS`; the reactor keeps at most one
//!   entry per node, so with 2048 nodes and 256 slots that is ≈ 8).
//!   Within a slot, entries stay in insertion (= sequence) order.
//! * **Advancing.** [`advance`](TimerWheel::advance) collects every entry
//!   whose tick is at or before "now", scanning only the slots the
//!   cursor passed (or one full rotation, whichever is smaller), and
//!   returns them sorted by `(tick, seq)` — deterministic FIFO order for
//!   same-deadline ties, which the oracle proptest below pins against a
//!   `BinaryHeap`. A slot that empties releases its buffer, so a burst
//!   of entries costs memory only while it is pending.
//! * **Next deadline.** Every pending tick is at or after the cursor, and
//!   tick `cursor + i` lives in the `i`-th slot from the cursor, so the
//!   first slot (in cursor order) holding an entry of exactly that tick
//!   holds the minimum: [`next_deadline`](TimerWheel::next_deadline)
//!   costs the distance to the next due tick, not a scan of every entry.
//!   Only when no entry lies within one rotation does it visit them all.
//! * **Cancellation.** [`insert`](TimerWheel::insert) returns a
//!   [`WheelKey`] with a unique sequence number;
//!   [`cancel`](TimerWheel::cancel) removes the entry if it has not
//!   fired yet.
//!
//! The wheel is a plain deterministic data structure (no clocks, no
//! threads). The runtime owns two, both ticking at
//! `clamp(min(u, d)/64, 50 µs, 1 ms)`: the reactor's timer thread drives
//! one with node wakeups, and the network thread holds every in-flight
//! message in one (`crates/runtime/src/net.rs`).

use crusader_time::Dur;

/// Tick granularity of the runtime's wheels, in nanoseconds:
/// `clamp(min(u, d) / 64, 50 µs, 1 ms)`. Fine enough that the ≤ 1-tick
/// lateness is small against the delay uncertainty `u` (protocol
/// deadlines compound two or three timer hops, so lateness must be ≪ the
/// slack `u` provides), coarse enough that neither the timer thread nor
/// the network thread spins.
pub(crate) fn granularity_ns(u: Dur, d: Dur) -> u64 {
    let base = (u.min(d) / 64.0).as_nanos();
    let clamped = base.clamp(50_000.0, 1_000_000.0);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        clamped as u64
    }
}

/// Handle to a pending entry, for [`TimerWheel::cancel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WheelKey {
    slot: u32,
    seq: u64,
}

#[derive(Clone, Debug)]
struct Entry<T> {
    tick: u64,
    seq: u64,
    payload: T,
}

/// A hashed timer wheel mapping `u64` nanosecond deadlines to payloads.
///
/// See the [module docs](self) for the design; the reactor uses one entry
/// per node (the node's earliest pending timer), re-registered whenever
/// the node runs.
#[derive(Clone, Debug)]
pub struct TimerWheel<T> {
    slots: Vec<Vec<Entry<T>>>,
    granularity: u64,
    /// Next tick [`advance`](Self::advance) has not yet swept past.
    cursor: u64,
    /// Cached earliest pending tick (`None` when unknown; recomputed
    /// lazily by [`next_deadline`](Self::next_deadline)).
    min_tick: Option<u64>,
    len: usize,
    next_seq: u64,
}

impl<T> TimerWheel<T> {
    /// Creates a wheel with `slots` buckets of `granularity` nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `granularity == 0` or `slots == 0`.
    #[must_use]
    pub fn new(granularity: u64, slots: usize) -> Self {
        assert!(granularity > 0, "granularity must be positive");
        assert!(slots > 0, "need at least one slot");
        TimerWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            granularity,
            cursor: 0,
            min_tick: None,
            len: 0,
            next_seq: 0,
        }
    }

    /// Number of pending (uncancelled, unfired) entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The wheel's tick granularity in nanoseconds.
    #[must_use]
    pub fn granularity(&self) -> u64 {
        self.granularity
    }

    fn tick_of(&self, deadline_ns: u64) -> u64 {
        // Round *up*: an entry must never fire before its deadline.
        deadline_ns.div_ceil(self.granularity)
    }

    /// Schedules `payload` for `deadline_ns` (nanoseconds on the caller's
    /// clock). Returns a key for [`cancel`](Self::cancel).
    ///
    /// A deadline at or before the last [`advance`](Self::advance) sweep
    /// fires on the *next* sweep — the wheel never loses entries to the
    /// past.
    pub fn insert(&mut self, deadline_ns: u64, payload: T) -> WheelKey {
        // Clamp into the present so a stale deadline still fires promptly
        // instead of waiting one full rotation behind the cursor.
        let tick = self.tick_of(deadline_ns).max(self.cursor);
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = (tick % self.slots.len() as u64) as u32;
        self.slots[slot as usize].push(Entry {
            tick,
            seq,
            payload,
        });
        self.len += 1;
        // Only ever *lower* the cached minimum. `None` means "unknown,
        // recompute lazily" — not "empty": surviving entries smaller than
        // this insert may exist, so promoting `None` to `Some(tick)` here
        // would silently raise the reported next deadline and make the
        // reactor's timer thread sleep past real deadlines.
        if self.min_tick.is_some_and(|m| tick < m) {
            self.min_tick = Some(tick);
        } else if self.len == 1 {
            // A previously empty wheel has no smaller survivor.
            self.min_tick = Some(tick);
        }
        WheelKey { slot, seq }
    }

    /// Cancels a pending entry. Returns the payload if it was still
    /// pending, `None` if it already fired (or was already cancelled).
    pub fn cancel(&mut self, key: WheelKey) -> Option<T> {
        let slot = &mut self.slots[key.slot as usize];
        let at = slot.iter().position(|e| e.seq == key.seq)?;
        // `remove`, not `swap_remove`: in-slot order is sequence order,
        // which `advance` relies on for its `(tick, seq)` output.
        let entry = slot.remove(at);
        if slot.is_empty() {
            *slot = Vec::new();
        }
        self.len -= 1;
        if self.min_tick == Some(entry.tick) {
            self.min_tick = None; // recompute lazily
        }
        Some(entry.payload)
    }

    /// The earliest pending deadline, in nanoseconds (tick-quantized, so
    /// it is at or after the true deadline by less than one tick).
    pub fn next_deadline(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        if self.min_tick.is_none() {
            self.min_tick = Some(self.scan_min_tick());
        }
        self.min_tick.map(|t| t * self.granularity)
    }

    /// The earliest pending tick, found by walking the slots from the
    /// cursor: every pending tick is `>= cursor` (inserts clamp to it,
    /// sweeps remove everything behind it), so the first slot holding an
    /// entry of tick `cursor + i` at step `i` holds the minimum. Entries
    /// from later rotations seen on the way are folded into a fallback
    /// minimum, used when no entry lies within one rotation.
    fn scan_min_tick(&self) -> u64 {
        let slots = self.slots.len() as u64;
        let mut fallback = u64::MAX;
        for i in 0..slots {
            let tick = self.cursor + i;
            for e in &self.slots[(tick % slots) as usize] {
                if e.tick == tick {
                    return tick;
                }
                fallback = fallback.min(e.tick);
            }
        }
        debug_assert!(fallback != u64::MAX, "non-empty wheel without entries");
        fallback
    }

    /// Removes and returns every entry due at or before `now_ns`, sorted
    /// by `(tick, seq)` — deadline order, insertion order within a tick.
    pub fn advance(&mut self, now_ns: u64) -> Vec<(u64, T)> {
        let mut fired = Vec::new();
        self.advance_into(now_ns, &mut fired);
        fired
    }

    /// [`advance`](Self::advance) appending to a caller-owned buffer, so a
    /// thread sweeping every tick reuses one allocation.
    pub fn advance_into(&mut self, now_ns: u64, out: &mut Vec<(u64, T)>) {
        let now_tick = now_ns / self.granularity;
        let start = out.len();
        if self.len > 0 {
            let slots = self.slots.len() as u64;
            // Sweep only the slots the cursor actually passes; a jump
            // longer than one rotation visits each slot once.
            let span = (now_tick + 1).saturating_sub(self.cursor).min(slots);
            let g = self.granularity;
            for i in 0..span {
                let bucket = &mut self.slots[((self.cursor + i) % slots) as usize];
                if bucket.iter().any(|e| e.tick <= now_tick) {
                    // Entries of later rotations stay, in order; a slot
                    // left empty gives up its buffer.
                    let mut keep = Vec::new();
                    for e in std::mem::take(bucket) {
                        if e.tick <= now_tick {
                            out.push((e.tick * g, e.payload));
                        } else {
                            keep.push(e);
                        }
                    }
                    *bucket = keep;
                }
            }
            self.len -= out.len() - start;
            if self.min_tick.is_some_and(|m| m <= now_tick) {
                self.min_tick = None;
            }
            // Slots come out in cursor order and each in sequence order,
            // and equal ticks share a slot: a stable sort by tick yields
            // `(tick, seq)` order (a no-op pass when only one tick fired).
            out[start..].sort_by_key(|&(ns, _)| ns);
        }
        self.cursor = self.cursor.max(now_tick + 1);
    }

    /// Total entry capacity held by the slots (memory diagnostics).
    #[cfg(test)]
    fn slot_capacity(&self) -> usize {
        self.slots.iter().map(Vec::capacity).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_deadline_order_with_fifo_ties() {
        let mut w = TimerWheel::new(100, 8);
        let _a = w.insert(250, "a"); // tick 3
        let _b = w.insert(300, "b"); // tick 3 (exact boundary)
        let _c = w.insert(150, "c"); // tick 2
        assert_eq!(w.len(), 3);
        assert_eq!(w.next_deadline(), Some(200));
        let fired = w.advance(300);
        let order: Vec<&str> = fired.iter().map(|(_, p)| *p).collect();
        assert_eq!(order, ["c", "a", "b"]);
        assert!(w.is_empty());
    }

    #[test]
    fn never_fires_early() {
        let mut w = TimerWheel::new(100, 8);
        w.insert(201, "x"); // tick 3: rounding up, never early
        assert!(w.advance(299).is_empty());
        assert_eq!(w.advance(300).len(), 1);
    }

    #[test]
    fn cancel_removes_and_is_idempotent() {
        let mut w = TimerWheel::new(10, 4);
        let k = w.insert(25, 7u32);
        assert_eq!(w.cancel(k), Some(7));
        assert_eq!(w.cancel(k), None);
        assert!(w.advance(1_000).is_empty());
        assert_eq!(w.next_deadline(), None);
    }

    #[test]
    fn entries_beyond_one_rotation_wait_their_round() {
        let mut w = TimerWheel::new(10, 4);
        // tick 9 lands in slot 1 of a 4-slot wheel; tick 1 shares it.
        w.insert(90, "far");
        w.insert(10, "near");
        let fired = w.advance(15);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1, "near");
        assert_eq!(w.next_deadline(), Some(90));
        let fired = w.advance(95);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1, "far");
    }

    /// Regression: an insert landing while the cached minimum is
    /// invalidated (`None`, right after an `advance` fired the previous
    /// minimum) must not raise `next_deadline` above a surviving smaller
    /// entry. This exact sequence made the reactor's timer thread sleep
    /// ~200 ms past a herd of accept deadlines.
    #[test]
    fn insert_after_min_fire_keeps_surviving_minimum() {
        let mut w = TimerWheel::new(10, 8);
        w.insert(200, "fires");
        w.insert(500, "survivor");
        let fired = w.advance(250);
        assert_eq!(fired.len(), 1);
        // Cache is now invalidated; this insert is *larger* than the
        // survivor and must not become the reported minimum.
        w.insert(900, "later");
        assert_eq!(w.next_deadline(), Some(500));
    }

    #[test]
    fn stale_deadlines_fire_on_next_sweep() {
        let mut w = TimerWheel::new(10, 4);
        w.advance(500);
        w.insert(30, "stale"); // far behind the cursor
        let fired = w.advance(510);
        assert_eq!(fired.len(), 1);
    }

    #[test]
    fn long_jump_sweeps_each_slot_once() {
        let mut w = TimerWheel::new(10, 4);
        for i in 0..16u64 {
            w.insert(i * 10, i);
        }
        let fired = w.advance(10_000);
        assert_eq!(fired.len(), 16);
        let seqs: Vec<u64> = fired.iter().map(|(_, p)| *p).collect();
        assert_eq!(seqs, (0..16).collect::<Vec<_>>());
    }

    mod proptests {
        use proptest::prelude::*;

        use super::*;

        proptest! {
            /// The wheel against a sorted-list oracle (the moral
            /// equivalent of a `BinaryHeap` of `(tick, seq)`) over random
            /// insert/cancel/advance interleavings: identical fire sets in
            /// identical `(tick, seq)` order, including same-deadline ties
            /// and cancelled entries — the same oracle pattern as the
            /// simulator's ladder-queue proptest in
            /// `crates/sim/src/event.rs`.
            #[test]
            fn prop_wheel_matches_heap_oracle(
                // One op per value; the vendored proptest stand-in has no
                // tuple strategies. Low 2 bits select the op (0/1 insert,
                // 2 cancel, 3 advance); the rest is a deadline or a step.
                ops in proptest::collection::vec(0u32..1 << 12, 1..300)
            ) {
                let g = 10u64; // granularity
                let mut wheel = TimerWheel::new(g, 16);
                // Oracle state, mirroring the wheel's documented contract.
                let mut model: Vec<(u64, u64)> = Vec::new(); // (tick, seq)
                let mut keys: Vec<(WheelKey, u64)> = Vec::new(); // (key, seq)
                let mut cursor = 0u64;
                let mut now = 0u64;
                let mut seq = 0u64;
                for op in ops {
                    let arg = u64::from(op >> 2);
                    match op & 3 {
                        0 | 1 => {
                            // Insert; deadlines land in the past, on exact
                            // tick boundaries (ties), and in the future —
                            // past deadlines clamp to the sweep cursor.
                            let key = wheel.insert(arg, seq);
                            let tick = arg.div_ceil(g).max(cursor);
                            model.push((tick, seq));
                            keys.push((key, seq));
                            seq += 1;
                        }
                        2 => {
                            // Cancel a random previously issued key; the
                            // wheel must agree with the oracle on whether
                            // the entry was still pending.
                            if !keys.is_empty() {
                                let pick = (arg as usize) % keys.len();
                                let (key, s) = keys.swap_remove(pick);
                                let pending = model.iter().position(|&(_, ms)| ms == s);
                                prop_assert_eq!(
                                    wheel.cancel(key).is_some(),
                                    pending.is_some()
                                );
                                if let Some(at) = pending {
                                    model.remove(at);
                                }
                            }
                        }
                        _ => {
                            // Advance monotonically and compare fire order.
                            now += arg.min(500);
                            let now_tick = now / g;
                            let mut expect: Vec<(u64, u64)> = model
                                .iter()
                                .copied()
                                .filter(|&(tick, _)| tick <= now_tick)
                                .collect();
                            expect.sort_unstable();
                            model.retain(|&(tick, _)| tick > now_tick);
                            cursor = cursor.max(now_tick + 1);
                            let got: Vec<(u64, u64)> = wheel
                                .advance(now)
                                .into_iter()
                                .map(|(ns, s)| (ns / g, s))
                                .collect();
                            prop_assert_eq!(got, expect);
                        }
                    }
                    // Intermittently (not after every op — a check
                    // repairs the lazy cache, and the historical bug
                    // lived exactly in the unchecked advance→insert
                    // window) the reported next deadline must equal the
                    // model's true minimum.
                    if op & 0b10000 == 0 {
                        let model_min = model.iter().map(|&(t, _)| t * g).min();
                        prop_assert_eq!(wheel.next_deadline(), model_min);
                    }
                }
                // Conservation: exactly the unfired, uncancelled entries
                // remain, and the reported earliest deadline matches.
                prop_assert_eq!(wheel.len(), model.len());
                let model_min = model.iter().map(|&(t, _)| t * g).min();
                prop_assert_eq!(wheel.next_deadline(), model_min);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

            /// The wheel at network scale, against a `BinaryHeap` oracle:
            /// the network thread's shape (flights in `[d − u, d]`, a
            /// rotation of `⌈d/g⌉ + 2` slots) with bursts of inserts
            /// interleaved with tick-sized advances and an occasional jump
            /// of more than a rotation, past 10 K live entries. Checks
            /// exact `(tick, seq)` fire order, that nothing fires before
            /// its deadline, that `next_deadline` is the oracle minimum
            /// rounded up to a tick, and that the drained wheel keeps no
            /// slot capacity.
            #[test]
            fn prop_wheel_at_network_scale(
                seed in any::<u64>(),
                burst in 250usize..500,
            ) {
                use std::cmp::Reverse;
                use std::collections::BinaryHeap;

                use rand::rngs::SmallRng;
                use rand::{Rng, SeedableRng};

                let g = 1_000u64;
                let (d, u) = (120 * g, 40 * g);
                let slots = d.div_ceil(g) as usize + 2;
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut wheel = TimerWheel::new(g, slots);
                // (tick, seq, deadline): ticks are plain ceilings, since
                // every deadline is at least `d − u ≥ g` past the sweep.
                let mut oracle: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
                let mut now = 0u64;
                let mut seq = 0u64;
                let mut peak = 0usize;
                for step in 0..600u32 {
                    for _ in 0..rng.gen_range(0..=burst) {
                        let deadline = now + rng.gen_range(d - u..=d);
                        wheel.insert(deadline, (seq, deadline));
                        oracle.push(Reverse((deadline.div_ceil(g), seq, deadline)));
                        seq += 1;
                    }
                    peak = peak.max(wheel.len());
                    let model_min = oracle.peek().map(|Reverse((t, _, _))| t * g);
                    prop_assert_eq!(wheel.next_deadline(), model_min);
                    now += if step % 97 == 96 {
                        (slots as u64 + 5) * g // more than a rotation
                    } else {
                        rng.gen_range(0..2 * g)
                    };
                    let now_tick = now / g;
                    let mut expect = Vec::new();
                    while oracle.peek().is_some_and(|Reverse((t, _, _))| *t <= now_tick) {
                        let Reverse((t, s, _)) = oracle.pop().expect("peeked");
                        expect.push((t, s));
                    }
                    let fired = wheel.advance(now);
                    for &(_, (_, deadline)) in &fired {
                        prop_assert!(deadline <= now, "fired early: {deadline} > {now}");
                    }
                    let got: Vec<(u64, u64)> =
                        fired.iter().map(|&(ns, (s, _))| (ns / g, s)).collect();
                    prop_assert_eq!(got, expect);
                    prop_assert_eq!(wheel.len(), oracle.len());
                }
                prop_assert!(peak >= 10_000, "only {peak} live entries at peak");
                let drained = wheel.advance(now + 2 * d);
                prop_assert_eq!(drained.len(), oracle.len());
                prop_assert!(wheel.is_empty());
                prop_assert_eq!(wheel.next_deadline(), None);
                prop_assert_eq!(wheel.slot_capacity(), 0);
            }
        }
    }
}
