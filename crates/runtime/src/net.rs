//! The delay-injecting network thread, shared by both backends.
//!
//! Receives send/broadcast commands from node handlers, holds each
//! message for a uniformly random flight time in `[d − u, d]` (drawn
//! per *destination*, exactly like the simulator's random delay model),
//! then hands it to the backend through a [`DeliverySink`] — a channel
//! push for the thread backend, an inbox-push-plus-wakeup for the
//! reactor.
//!
//! **Delivery rule.** In-flight messages wait in a hashed
//! [`TimerWheel`] ticking at the runtime's granularity
//! `g = clamp(u/64, 50 µs, 1 ms)` (the reactor's timer wheel uses the
//! same tick), with `⌈d/g⌉ + 2` slots so one rotation spans the longest
//! flight. A message is **never delivered early**: its deadline rounds up
//! to the next tick boundary. It is delivered **less than one tick
//! late** on an unloaded host (host scheduling can add more, which the
//! crate docs fold into `u`). Within one destination, deliveries follow
//! `(tick, seq)` order — tick of the deadline, then the order the network
//! thread accepted the sends.
//!
//! The thread wakes once per due tick, not once per message, and hands
//! each tick's deliveries over one destination at a time
//! ([`DeliverySink::deliver_batch`]): the reactor takes a destination's
//! whole tick with one inbox lock and one scheduling, the thread backend
//! keeps one channel send per event.
//!
//! Broadcasts travel from the sender to this thread as **one** command
//! and are held behind one `Arc` while in flight; the per-destination
//! clone happens only at delivery time. At reactor scale this matters
//! twice: a 2048-node broadcast is one channel send instead of 2048, and
//! the wheel holds small entries sharing a payload instead of 2048 deep
//! copies.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, SendTimeoutError, Sender};
use crusader_crypto::NodeId;
use crusader_sim::{ChaosTimeline, FloodSpec};
use crusader_time::{Dur, Time};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::supervise::Counters;
use crate::wheel::{self, TimerWheel};

/// What a node receives from the runtime.
#[derive(Debug)]
pub enum NodeEvent<M> {
    /// A message finished its (injected) flight.
    Deliver {
        /// Authenticated sender.
        from: NodeId,
        /// Payload.
        msg: M,
    },
    /// Chaos injection: the node crashes (drops deliveries, defers
    /// timers) until [`NodeEvent::Thaw`].
    Freeze,
    /// Chaos injection: the node recovers; overdue timers fire at the
    /// recovery instant, mirroring the simulator's deferral semantics.
    Thaw,
    /// Chaos injection: the node's next handler invocation panics (a
    /// supervision drill — exercises containment and worker respawn).
    /// Ignored while the node is frozen.
    PanicInject,
    /// Orderly shutdown request from the harness.
    Shutdown,
}

/// How the network hands an event to the backend.
///
/// Implemented by plain closures (per-event delivery); the network thread
/// is generic over it so the thread and reactor backends share one
/// delivery loop. Carries whole [`NodeEvent`]s (not just messages) so the
/// chaos injector can emit `Freeze`/`Thaw` control events through the
/// same path.
pub(crate) trait DeliverySink<M>: Send + 'static {
    fn deliver(&mut self, to: NodeId, event: NodeEvent<M>);

    /// Hands `to` every message that came due at the tick boundary `due`,
    /// in `(tick, seq)` order, and must leave `events` empty. Called once
    /// per destination per tick; the default delivers event by event.
    fn deliver_batch(&mut self, to: NodeId, _due: Instant, events: &mut Vec<NodeEvent<M>>) {
        for event in events.drain(..) {
            self.deliver(to, event);
        }
    }
}

impl<M, F: FnMut(NodeId, NodeEvent<M>) + Send + 'static> DeliverySink<M> for F {
    fn deliver(&mut self, to: NodeId, event: NodeEvent<M>) {
        self(to, event);
    }
}

/// Chaos injection context for the network thread: the fault timeline
/// plus the run's epoch anchor. The epoch arrives through a `OnceLock`
/// because the thread backend anchors it only after the startup barrier
/// — until it is set, no scenario time has elapsed (every window starts
/// after time zero) and the network polls briefly instead of blocking.
pub(crate) struct NetChaos {
    pub timeline: Arc<ChaosTimeline>,
    pub epoch: Arc<OnceLock<Instant>>,
}

/// An in-flight payload: owned for unicasts, `Arc`-shared for
/// broadcasts (cloned per destination only at delivery).
enum Payload<M> {
    One(M),
    Shared(Arc<M>),
}

impl<M: Clone> Payload<M> {
    fn into_msg(self) -> M {
        match self {
            Payload::One(msg) => msg,
            // The last destination takes the broadcast's own copy.
            Payload::Shared(arc) => Arc::try_unwrap(arc).unwrap_or_else(|arc| (*arc).clone()),
        }
    }
}

/// An in-flight message; the wheel entry carries its tick and sequence
/// number.
struct InFlight<M> {
    from: NodeId,
    to: NodeId,
    payload: Payload<M>,
}

/// Bounded retry policy for pushing a command onto the network sink:
/// total attempts per send, and the first per-send timeout (doubled on
/// every retry — exponential backoff).
const NET_SEND_ATTEMPTS: u32 = 4;
const NET_BACKOFF_BASE: Duration = Duration::from_millis(2);

/// Capacity of the command channel into the network thread. Large
/// enough that a healthy run never fills it; bounding it means a wedged
/// network thread exerts backpressure (and eventually triggers the
/// retry/degradation path) instead of growing the queue without limit.
const NET_QUEUE_CAP: usize = 65_536;

/// A node's handle on the network sink: a bounded channel sender with
/// retry, exponential backoff and a per-send timeout. A send that
/// exhausts its attempts is dropped and counted (message loss is within
/// the model — the protocol tolerates it), never a panic or a stall.
pub(crate) struct NetLink<M> {
    tx: Sender<NetCommand<M>>,
    counters: Arc<Counters>,
}

// Manual impl: `derive(Clone)` would demand `M: Clone`, which the
// channel sender itself does not need.
impl<M> Clone for NetLink<M> {
    fn clone(&self) -> Self {
        NetLink {
            tx: self.tx.clone(),
            counters: Arc::clone(&self.counters),
        }
    }
}

impl<M> NetLink<M> {
    pub fn new(tx: Sender<NetCommand<M>>, counters: Arc<Counters>) -> Self {
        NetLink { tx, counters }
    }

    /// Pushes `cmd` onto the network queue, retrying with backoff while
    /// the queue stays full. Silent on disconnect (the network thread is
    /// gone — the run is shutting down); on exhaustion the command is
    /// dropped, counted as a failed send, and charged to the fault
    /// budget.
    pub fn send(&self, mut cmd: NetCommand<M>) {
        let mut timeout = NET_BACKOFF_BASE;
        for attempt in 1..=NET_SEND_ATTEMPTS {
            match self.tx.send_timeout(cmd, timeout) {
                Ok(()) => return,
                Err(SendTimeoutError::Disconnected(_)) => return,
                Err(SendTimeoutError::Timeout(back)) => {
                    cmd = back;
                    if attempt < NET_SEND_ATTEMPTS {
                        self.counters.note_net_retry();
                        timeout *= 2;
                    }
                }
            }
        }
        self.counters.note_net_send_failed();
        self.counters.note_fault_budget();
    }
}

pub(crate) enum NetCommand<M> {
    Send {
        from: NodeId,
        to: NodeId,
        msg: M,
    },
    /// One copy of `msg` to every node (including the sender), each
    /// destination with its own independently drawn delay.
    Broadcast {
        from: NodeId,
        msg: M,
    },
    Shutdown,
}

/// The delay-injecting network thread handle. Joining yields
/// `(delivered, chaos_dropped)` message counts.
pub(crate) struct Network<M> {
    pub commands: Sender<NetCommand<M>>,
    pub handle: std::thread::JoinHandle<(u64, u64)>,
}

impl<M: Clone + Send + Sync + 'static> Network<M> {
    /// Spawns the network thread for an `n`-node system, delivering
    /// through `sink`. When `chaos` is set, the thread additionally
    /// enforces the timeline's link cuts, delay storms and flood
    /// windows on every command, and emits `Freeze`/`Thaw` events at
    /// the timeline's crash transitions.
    pub fn spawn<S: DeliverySink<M>>(
        sink: S,
        n: usize,
        d: Dur,
        u: Dur,
        seed: u64,
        chaos: Option<NetChaos>,
    ) -> Network<M> {
        let (tx, rx): (Sender<NetCommand<M>>, Receiver<NetCommand<M>>) =
            channel::bounded(NET_QUEUE_CAP);
        let handle = std::thread::Builder::new()
            .name("crusader-net".into())
            .spawn(move || network_loop(&rx, sink, n, d, u, seed, chaos))
            .expect("spawn network thread");
        Network {
            commands: tx,
            handle,
        }
    }
}

/// Crash-transition playback state: the sorted `(when, node, down)`
/// schedule from [`ChaosTimeline::crash_transitions`] plus a cursor.
struct Transitions {
    schedule: Vec<(Time, usize, bool)>,
    next: usize,
}

/// Panic-drill playback state: the sorted `(when, node)` schedule from
/// [`ChaosTimeline::panic_schedule`] plus a cursor.
struct PanicCursor {
    schedule: Vec<(Time, usize)>,
    next: usize,
}

/// Per-destination staging for one tick's deliveries: a buffer per node
/// plus the destinations touched, in first-touch order.
struct TickBatches<M> {
    per_dest: Vec<Vec<NodeEvent<M>>>,
    touched: Vec<NodeId>,
}

impl<M: Clone> TickBatches<M> {
    fn new(n: usize) -> Self {
        TickBatches {
            per_dest: (0..n).map(|_| Vec::new()).collect(),
            touched: Vec::new(),
        }
    }

    /// Drains `due` (sorted by `(tick, seq)`) into `sink`: one
    /// [`DeliverySink::deliver_batch`] per destination per tick.
    fn deliver<S: DeliverySink<M>>(
        &mut self,
        due: &mut Vec<(u64, InFlight<M>)>,
        origin: Instant,
        sink: &mut S,
    ) {
        let mut fired = due.drain(..).peekable();
        while let Some((tick_ns, m)) = fired.next() {
            let batch = &mut self.per_dest[m.to.index()];
            if batch.is_empty() {
                self.touched.push(m.to);
            }
            batch.push(NodeEvent::Deliver {
                from: m.from,
                msg: m.payload.into_msg(),
            });
            if fired.peek().is_some_and(|&(next, _)| next == tick_ns) {
                continue;
            }
            let at = origin + Duration::from_nanos(tick_ns);
            for to in self.touched.drain(..) {
                let batch = &mut self.per_dest[to.index()];
                sink.deliver_batch(to, at, batch);
                batch.clear();
            }
        }
    }
}

/// The in-flight store: every held message on a wheel whose time is
/// nanoseconds since `origin`, plus the delay draw.
struct Flights<M> {
    wheel: TimerWheel<InFlight<M>>,
    origin: Instant,
    rng: SmallRng,
    /// Flight-time bounds `d − u` and `d`, in seconds.
    min: f64,
    max: f64,
}

impl<M> Flights<M> {
    fn new(d: Dur, u: Dur, seed: u64) -> Self {
        // One rotation spans the longest flight plus rounding, so a slot
        // holds one tick's messages.
        let g = wheel::granularity_ns(u, d);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let slots = (d.as_nanos().max(0.0) as u64).div_ceil(g) as usize + 2;
        Flights {
            wheel: TimerWheel::new(g, slots),
            origin: Instant::now(),
            rng: SmallRng::seed_from_u64(seed ^ 0x7e7e_0000_0000_0001),
            min: (d - u).as_secs().max(0.0),
            max: d.as_secs(),
        }
    }

    fn ns_since_origin(&self, at: Instant) -> u64 {
        #[allow(clippy::cast_possible_truncation)]
        {
            at.saturating_duration_since(self.origin).as_nanos() as u64
        }
    }

    fn draw(&mut self) -> Duration {
        let delay = if self.max > self.min {
            self.rng.gen_range(self.min..=self.max)
        } else {
            self.max
        };
        Duration::from_secs_f64(delay)
    }

    /// Puts one message to `to` in flight: first any flood copies (each
    /// with its own draw, or the minimum delay when rushing), then the
    /// message itself — pinned to `d` during a delay storm. Flood copies
    /// share the payload, so a flooded unicast arrives `Shared`.
    fn launch(
        &mut self,
        sent_at: Instant,
        from: NodeId,
        to: NodeId,
        storming: bool,
        flood: Option<FloodSpec>,
        payload: Payload<M>,
    ) {
        if let (Some(spec), Payload::Shared(shared)) = (flood, &payload) {
            for _ in 0..spec.copies {
                let delay = if spec.rush {
                    Duration::from_secs_f64(self.min)
                } else {
                    self.draw()
                };
                let copy = Payload::Shared(Arc::clone(shared));
                self.hold(sent_at + delay, from, to, copy);
            }
        }
        let delay = if storming {
            Duration::from_secs_f64(self.max)
        } else {
            self.draw()
        };
        self.hold(sent_at + delay, from, to, payload);
    }

    fn hold(&mut self, at: Instant, from: NodeId, to: NodeId, payload: Payload<M>) {
        let at = self.ns_since_origin(at);
        self.wheel.insert(at, InFlight { from, to, payload });
    }
}

fn network_loop<M: Clone + Send, S: DeliverySink<M>>(
    rx: &Receiver<NetCommand<M>>,
    mut sink: S,
    n: usize,
    d: Dur,
    u: Dur,
    seed: u64,
    chaos: Option<NetChaos>,
) -> (u64, u64) {
    let mut flights = Flights::new(d, u, seed);
    let mut due = Vec::new();
    let mut batches = TickBatches::new(n);
    let mut delivered = 0u64;
    let mut chaos_dropped = 0u64;
    let mut transitions = chaos.as_ref().map(|c| Transitions {
        schedule: c.timeline.crash_transitions(),
        next: 0,
    });
    let mut panics = chaos.as_ref().map(|c| PanicCursor {
        schedule: c.timeline.panic_schedule(),
        next: 0,
    });
    // Scenario time elapsed since the epoch; zero until the epoch is
    // anchored (all chaos windows open strictly after time zero).
    let scenario_now = |chaos: &Option<NetChaos>, at: Instant| -> Time {
        chaos
            .as_ref()
            .and_then(|c| c.epoch.get())
            .map_or(Time::ZERO, |epoch| {
                Time::from_secs(at.saturating_duration_since(*epoch).as_secs_f64())
            })
    };
    loop {
        // Deliver everything due, interleaved with any crash
        // transitions that have come due.
        let now = Instant::now();
        if let (Some(tr), Some(c)) = (transitions.as_mut(), chaos.as_ref()) {
            if let Some(epoch) = c.epoch.get().copied() {
                while tr
                    .schedule
                    .get(tr.next)
                    .is_some_and(|&(t, _, _)| epoch + Duration::from_secs_f64(t.as_secs()) <= now)
                {
                    let (_, node, down) = tr.schedule[tr.next];
                    tr.next += 1;
                    let event = if down {
                        NodeEvent::Freeze
                    } else {
                        NodeEvent::Thaw
                    };
                    sink.deliver(NodeId::new(node), event);
                }
            }
        }
        if let (Some(pc), Some(c)) = (panics.as_mut(), chaos.as_ref()) {
            if let Some(epoch) = c.epoch.get().copied() {
                while pc
                    .schedule
                    .get(pc.next)
                    .is_some_and(|&(t, _)| epoch + Duration::from_secs_f64(t.as_secs()) <= now)
                {
                    let (_, node) = pc.schedule[pc.next];
                    pc.next += 1;
                    sink.deliver(NodeId::new(node), NodeEvent::PanicInject);
                }
            }
        }
        let now_ns = flights.ns_since_origin(now);
        flights.wheel.advance_into(now_ns, &mut due);
        delivered += due.len() as u64;
        batches.deliver(&mut due, flights.origin, &mut sink);
        // Wait for the next command, the next due tick, or the next
        // crash transition — whichever is soonest. Until the epoch is
        // anchored a pending transition schedule polls at 1ms.
        let mut deadline: Option<Instant> = flights
            .wheel
            .next_deadline()
            .map(|ns| flights.origin + Duration::from_nanos(ns));
        if let (Some(tr), Some(c)) = (transitions.as_ref(), chaos.as_ref()) {
            if let Some(&(t, _, _)) = tr.schedule.get(tr.next) {
                let at = match c.epoch.get() {
                    Some(epoch) => *epoch + Duration::from_secs_f64(t.as_secs()),
                    None => now + Duration::from_millis(1),
                };
                deadline = Some(deadline.map_or(at, |d| d.min(at)));
            }
        }
        if let (Some(pc), Some(c)) = (panics.as_ref(), chaos.as_ref()) {
            if let Some(&(t, _)) = pc.schedule.get(pc.next) {
                let at = match c.epoch.get() {
                    Some(epoch) => *epoch + Duration::from_secs_f64(t.as_secs()),
                    None => now + Duration::from_millis(1),
                };
                deadline = Some(deadline.map_or(at, |d| d.min(at)));
            }
        }
        let result = match deadline {
            Some(at) => rx.recv_deadline(at),
            None => rx
                .recv()
                .map_err(|_| channel::RecvTimeoutError::Disconnected),
        };
        match result {
            Ok(NetCommand::Send { from, to, msg }) => {
                let sent_at = Instant::now();
                let t = scenario_now(&chaos, sent_at);
                let tl = chaos.as_ref().map(|c| &*c.timeline);
                if tl.is_some_and(|tl| tl.cut(from, to, t)) {
                    chaos_dropped += 1;
                    continue;
                }
                let storming = tl.is_some_and(|tl| tl.storming(t));
                let flood = tl.and_then(|tl| tl.flood(t));
                let payload = if flood.is_some() {
                    Payload::Shared(Arc::new(msg))
                } else {
                    Payload::One(msg)
                };
                flights.launch(sent_at, from, to, storming, flood, payload);
            }
            Ok(NetCommand::Broadcast { from, msg }) => {
                let shared = Arc::new(msg);
                let sent_at = Instant::now();
                let t = scenario_now(&chaos, sent_at);
                let tl = chaos.as_ref().map(|c| &*c.timeline);
                let storming = tl.is_some_and(|tl| tl.storming(t));
                let flood = tl.and_then(|tl| tl.flood(t));
                for to in NodeId::all(n) {
                    if tl.is_some_and(|tl| tl.cut(from, to, t)) {
                        chaos_dropped += 1;
                        continue;
                    }
                    let payload = Payload::Shared(Arc::clone(&shared));
                    flights.launch(sent_at, from, to, storming, flood, payload);
                }
            }
            Ok(NetCommand::Shutdown) | Err(channel::RecvTimeoutError::Disconnected) => {
                return (delivered, chaos_dropped);
            }
            Err(channel::RecvTimeoutError::Timeout) => {
                // Loop around to deliver due messages.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use parking_lot::Mutex;

    use super::*;

    /// One recorded batch: destination, the tick it came due at, and the
    /// `(sender, message id, send instant)` of each message, in order.
    type Batch = (NodeId, Instant, Vec<(NodeId, u64, Instant)>);

    struct Recorder(Arc<Mutex<Vec<Batch>>>);

    impl DeliverySink<(u64, Instant)> for Recorder {
        fn deliver(&mut self, _: NodeId, _: NodeEvent<(u64, Instant)>) {
            unreachable!("control events need a chaos timeline");
        }

        fn deliver_batch(
            &mut self,
            to: NodeId,
            due: Instant,
            events: &mut Vec<NodeEvent<(u64, Instant)>>,
        ) {
            let arrived = Instant::now();
            assert!(arrived >= due, "batch handed over before its tick");
            let msgs = events
                .drain(..)
                .map(|event| match event {
                    NodeEvent::Deliver { from, msg } => (from, msg.0, msg.1),
                    _ => unreachable!("only deliveries are batched"),
                })
                .collect();
            self.0.lock().push((to, due, msgs));
        }
    }

    /// The delivery rule, end to end through a spawned network thread:
    /// no message comes due before `send + (d − u)`, each destination
    /// sees `(tick, seq)` order (ticks strictly increasing across its
    /// batches, send order within one), and every message arrives
    /// exactly once. The upper bound (< one tick late) is host-load
    /// dependent and deliberately not asserted.
    #[test]
    fn deliveries_are_never_early_and_in_tick_seq_order() {
        let n = 5;
        let (d, u) = (Dur::from_millis(6.0), Dur::from_millis(4.0));
        let log = Arc::new(Mutex::new(Vec::new()));
        let net = Network::spawn(Recorder(Arc::clone(&log)), n, d, u, 7, None);
        let mut expected = vec![0usize; n];
        let mut id = 0u64;
        for round in 0..20 {
            for from in NodeId::all(n) {
                let msg = (id, Instant::now());
                if id.is_multiple_of(3) {
                    assert!(net
                        .commands
                        .send(NetCommand::Broadcast { from, msg })
                        .is_ok());
                    expected.iter_mut().for_each(|c| *c += 1);
                } else {
                    let to = NodeId::new((from.index() + round) % n);
                    assert!(net
                        .commands
                        .send(NetCommand::Send { from, to, msg })
                        .is_ok());
                    expected[to.index()] += 1;
                }
                id += 1;
            }
            std::thread::sleep(Duration::from_micros(300));
        }
        // Shutdown drops whatever is still in flight, so wait for every
        // message first (generously: only a broken network stalls here).
        let total: usize = expected.iter().sum();
        let waited = Instant::now();
        while log.lock().iter().map(|b| b.2.len()).sum::<usize>() < total {
            assert!(
                waited.elapsed() < Duration::from_secs(60),
                "deliveries stalled"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(net.commands.send(NetCommand::Shutdown).is_ok());
        let (delivered, dropped) = net.handle.join().unwrap();
        assert_eq!((delivered, dropped), (total as u64, 0));

        let min_flight = Duration::from_secs_f64((d - u).as_secs());
        let mut got = vec![0usize; n];
        let mut last_due: Vec<Option<Instant>> = vec![None; n];
        for (to, due, msgs) in log.lock().iter() {
            let i = to.index();
            assert!(!msgs.is_empty(), "empty batch");
            // One batch per destination per tick, ticks in order…
            assert!(
                last_due[i].is_none_or(|prev| prev < *due),
                "{to:?}: tick out of order"
            );
            last_due[i] = Some(*due);
            // …and send (= sequence) order within the tick.
            assert!(
                msgs.windows(2).all(|w| w[0].1 < w[1].1),
                "{to:?}: seq out of order"
            );
            for &(_, id, sent) in msgs {
                assert!(*due >= sent + min_flight, "message {id} came due early");
            }
            got[i] += msgs.len();
        }
        assert_eq!(got, expected);
    }
}
