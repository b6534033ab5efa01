//! Transparent wrappers around the traits every executor calls.
//!
//! The benchmark measures layers from outside the program: it wraps
//! [`Automaton`] (and the [`Context`] each handler receives, whose
//! `signer()` and `verifier()` it wraps in turn), [`Adversary`] and
//! [`RunObserver`], and leaves the executors untouched. Whatever time a
//! run spends outside the wrapped calls is the executor's own — the
//! simulator engine or the runtime machinery.
//!
//! Reading the clock around every call would cost about as much as the
//! calls themselves and bury the layers under the cost of the clock. Each wrapper therefore
//! counts every call but times one call in [`SAMPLE_EVERY`], chosen by a
//! per-wrapper xorshift stream (so periodic call patterns cannot alias
//! with the sampling), subtracts the cost of an empty timed span, and
//! scales the mean up to the call count. What tracing still costs is
//! measured as the difference to an untraced run and reported as
//! `trace.overhead_frac`.
//!
//! A wrapper must not change the run: the traced run's `trace_hash` has
//! to equal the untraced one's, which the benchmark checks on every
//! traced repetition.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crusader_crypto::{KeyRing, NodeId, Signature, Signer, Verifier};
use crusader_sim::{Adversary, AdversaryApi, Automaton, Context, RunObserver, TimerId};
use crusader_time::{Dur, LocalTime, Time};

/// One call in this many is timed.
pub const SAMPLE_EVERY: u64 = 8;

/// Calls into one layer: all of them counted, a sample of them timed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Span {
    pub calls: u64,
    pub timed: u64,
    pub timed_ns: u64,
}

impl Span {
    fn add(&mut self, other: &Span) {
        self.calls += other.calls;
        self.timed += other.timed;
        self.timed_ns += other.timed_ns;
    }

    /// Estimated seconds spent in all calls: the mean timed call, net of
    /// the cost `empty_ns` of timing an empty span, times the call count.
    #[must_use]
    pub fn estimate_s(&self, empty_ns: f64) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        let mean_ns = (self.timed_ns as f64 / self.timed as f64 - empty_ns).max(0.0);
        mean_ns * self.calls as f64 * 1e-9
    }
}

/// What a timed span measures when nothing happens inside it, in
/// nanoseconds: the share of a clock read that lands inside every timed
/// call, subtracted from each. (The rest of the clock's cost falls
/// outside the spans and shows up in `trace.overhead_frac`.)
#[must_use]
pub fn empty_span_ns() -> f64 {
    const ROUNDS: u32 = 200_000;
    let mut total = std::time::Duration::ZERO;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        total += black_box(t.elapsed());
    }
    total.as_nanos() as f64 / f64::from(ROUNDS)
}

/// Per-wrapper sampling decisions (xorshift64).
#[derive(Clone, Copy, Debug)]
struct Sampler(u64);

impl Sampler {
    fn new(salt: u64) -> Self {
        let mut z = salt.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        Sampler((z ^ (z >> 31)) | 1)
    }

    fn hit(&mut self) -> bool {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.is_multiple_of(SAMPLE_EVERY)
    }
}

fn timed<R>(span: &mut Span, sampler: &mut Sampler, call: impl FnOnce() -> R) -> R {
    span.calls += 1;
    if !sampler.hit() {
        return call();
    }
    let start = Instant::now();
    let out = call();
    span.timed_ns += start.elapsed().as_nanos() as u64;
    span.timed += 1;
    out
}

/// Effects the handlers asked their `Context` for.
#[derive(Clone, Copy, Debug, Default)]
pub struct Effects {
    pub sends: u64,
    pub broadcasts: u64,
    pub timers_set: u64,
}

/// Everything the wrappers of one run collected.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// `Automaton` handlers, by entry point.
    pub init: Span,
    pub msg: Span,
    pub timer: Span,
    pub recover: Span,
    /// `Context` effects requested by the handlers.
    pub effects: Effects,
    /// Signature checks through `Context::verifier()`, and signatures
    /// made through `Context::signer()`.
    pub verify: Span,
    pub signs: u64,
    /// `Adversary` callbacks (including delay choices).
    pub adversary: Span,
    /// `RunObserver` callbacks.
    pub observer: Span,
    /// How late each timer fired against the local time it was armed
    /// for, in milliseconds of local time.
    pub timer_late_ms: Vec<f64>,
}

impl Layers {
    fn merge(&mut self, o: &Layers) {
        self.init.add(&o.init);
        self.msg.add(&o.msg);
        self.timer.add(&o.timer);
        self.recover.add(&o.recover);
        self.effects.sends += o.effects.sends;
        self.effects.broadcasts += o.effects.broadcasts;
        self.effects.timers_set += o.effects.timers_set;
        self.verify.add(&o.verify);
        self.signs += o.signs;
        self.adversary.add(&o.adversary);
        self.observer.add(&o.observer);
        self.timer_late_ms.extend_from_slice(&o.timer_late_ms);
    }

    /// Estimated seconds in protocol handlers, crypto included.
    #[must_use]
    pub fn handler_s(&self, empty_ns: f64) -> f64 {
        [self.init, self.msg, self.timer, self.recover]
            .iter()
            .map(|s| s.estimate_s(empty_ns))
            .sum()
    }
}

/// Where wrappers deposit their counts when the executor drops them.
pub type Sink = Arc<Mutex<Layers>>;

fn deposit(sink: &Sink, layers: &Layers) {
    // A poisoned sink means a wrapper panicked mid-deposit; the counts
    // are statistics, and the run's own checks report the panic.
    let mut all = sink
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    all.merge(layers);
}

/// The instant the first node's `on_init` ran: the end of set-up on the
/// wall-clock runtime.
pub type FirstInit = Arc<OnceLock<Instant>>;

/// The key ring the executor derives, rebuilt from the same `(n, seed)`.
///
/// `Context::signer()` and `Context::verifier()` return borrows of the
/// executor's context, so a wrapper cannot hand out a counting view of
/// them without unsafe code. The taps instead forward to an identical
/// ring, and every wrapped node checks on its first `on_init` that its
/// tap and the executor agree on a probe signature.
#[derive(Clone)]
pub struct Keys(KeyRing);

impl Keys {
    /// The simulator's ring (`KeyRing::symbolic`).
    #[must_use]
    pub fn sim(n: usize, seed: u64) -> Self {
        Keys(KeyRing::symbolic(n, seed))
    }

    /// The wall-clock runtime's ring (`KeyRing::ed25519`).
    #[must_use]
    pub fn runtime(n: usize, seed: u64) -> Self {
        Keys(KeyRing::ed25519(n, seed))
    }
}

struct VerifyTap {
    inner: Arc<dyn Verifier>,
    calls: AtomicU64,
    timed: AtomicU64,
    timed_ns: AtomicU64,
    sampler: AtomicU64,
}

// Handlers of one node never run concurrently, so the counters are plain
// statistics: relaxed atomics, read after the run.
impl Verifier for VerifyTap {
    fn verify(&self, signer: NodeId, msg: &[u8], sig: &Signature) -> bool {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let mut sampler = Sampler(self.sampler.load(Ordering::Relaxed));
        let hit = sampler.hit();
        self.sampler.store(sampler.0, Ordering::Relaxed);
        if !hit {
            return self.inner.verify(signer, msg, sig);
        }
        let start = Instant::now();
        let ok = self.inner.verify(signer, msg, sig);
        self.timed_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.timed.fetch_add(1, Ordering::Relaxed);
        ok
    }
}

impl VerifyTap {
    fn span(&self) -> Span {
        Span {
            calls: self.calls.load(Ordering::Relaxed),
            timed: self.timed.load(Ordering::Relaxed),
            timed_ns: self.timed_ns.load(Ordering::Relaxed),
        }
    }
}

struct SignTap {
    inner: Arc<dyn Signer>,
    signs: AtomicU64,
}

impl Signer for SignTap {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn sign(&self, msg: &[u8]) -> Signature {
        self.signs.fetch_add(1, Ordering::Relaxed);
        self.inner.sign(msg)
    }
}

/// A traced node: forwards every handler to `inner` and every context
/// call to the executor, counting and sampling on the way.
pub struct Traced<A: Automaton> {
    inner: A,
    verifier: VerifyTap,
    signer: SignTap,
    layers: Layers,
    sampler: Sampler,
    /// Pending timers and the local time each was armed for.
    armed: HashMap<TimerId, LocalTime>,
    first_init: FirstInit,
    sink: Sink,
}

impl<A: Automaton> Traced<A> {
    #[must_use]
    pub fn new(me: NodeId, inner: A, keys: &Keys, first_init: &FirstInit, sink: &Sink) -> Self {
        Traced {
            inner,
            verifier: VerifyTap {
                inner: keys.0.verifier(),
                calls: AtomicU64::new(0),
                timed: AtomicU64::new(0),
                timed_ns: AtomicU64::new(0),
                sampler: AtomicU64::new(Sampler::new(!(me.index() as u64)).0),
            },
            signer: SignTap {
                inner: keys.0.signer(me),
                signs: AtomicU64::new(0),
            },
            layers: Layers::default(),
            sampler: Sampler::new(me.index() as u64),
            armed: HashMap::new(),
            first_init: Arc::clone(first_init),
            sink: Arc::clone(sink),
        }
    }
}

impl<A: Automaton> Drop for Traced<A> {
    fn drop(&mut self) {
        self.layers.verify = self.verifier.span();
        self.layers.signs = self.signer.signs.load(Ordering::Relaxed);
        deposit(&self.sink, &self.layers);
    }
}

/// The context a traced handler sees.
struct TracedCtx<'a, M> {
    inner: &'a mut dyn Context<M>,
    verifier: &'a VerifyTap,
    signer: &'a SignTap,
    effects: &'a mut Effects,
    armed: &'a mut HashMap<TimerId, LocalTime>,
}

impl<M> Context<M> for TracedCtx<'_, M> {
    fn me(&self) -> NodeId {
        self.inner.me()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn local_time(&self) -> LocalTime {
        self.inner.local_time()
    }

    fn send(&mut self, to: NodeId, msg: M) {
        self.effects.sends += 1;
        self.inner.send(to, msg);
    }

    fn broadcast(&mut self, msg: M) {
        self.effects.broadcasts += 1;
        self.inner.broadcast(msg);
    }

    fn set_timer_at(&mut self, at: LocalTime) -> TimerId {
        self.effects.timers_set += 1;
        // A timer armed in the past fires now, so it is due now.
        let due = if at < self.inner.local_time() {
            self.inner.local_time()
        } else {
            at
        };
        let id = self.inner.set_timer_at(at);
        self.armed.insert(id, due);
        id
    }

    fn cancel_timer(&mut self, timer: TimerId) {
        self.armed.remove(&timer);
        self.inner.cancel_timer(timer);
    }

    fn pulse(&mut self, index: u64) {
        self.inner.pulse(index);
    }

    fn signer(&self) -> &dyn Signer {
        self.signer
    }

    fn verifier(&self) -> &dyn Verifier {
        self.verifier
    }

    fn mark_violation(&mut self, description: String) {
        self.inner.mark_violation(description);
    }
}

/// Builds the traced context from disjoint borrows of a [`Traced`].
macro_rules! traced_ctx {
    ($self:ident, $ctx:ident) => {
        TracedCtx {
            inner: $ctx,
            verifier: &$self.verifier,
            signer: &$self.signer,
            effects: &mut $self.layers.effects,
            armed: &mut $self.armed,
        }
    };
}

impl<A: Automaton> Automaton for Traced<A> {
    type Msg = A::Msg;

    fn on_init(&mut self, ctx: &mut dyn Context<A::Msg>) {
        let _ = self.first_init.set(Instant::now());
        let probe = b"crusader benchmark key probe";
        let ours = self.signer.inner.sign(probe);
        assert!(
            ctx.signer().sign(probe) == ours && ctx.verifier().verify(ctx.me(), probe, &ours),
            "the tap's key ring differs from the executor's"
        );
        let mut tctx = traced_ctx!(self, ctx);
        timed(&mut self.layers.init, &mut self.sampler, || {
            self.inner.on_init(&mut tctx)
        });
    }

    fn on_message(&mut self, from: NodeId, msg: A::Msg, ctx: &mut dyn Context<A::Msg>) {
        let mut tctx = traced_ctx!(self, ctx);
        timed(&mut self.layers.msg, &mut self.sampler, || {
            self.inner.on_message(from, msg, &mut tctx);
        });
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<A::Msg>) {
        if let Some(due) = self.armed.remove(&timer) {
            let late: Dur = ctx.local_time() - due;
            self.layers.timer_late_ms.push(late.as_millis());
        }
        let mut tctx = traced_ctx!(self, ctx);
        timed(&mut self.layers.timer, &mut self.sampler, || {
            self.inner.on_timer(timer, &mut tctx);
        });
    }

    fn on_recover(&mut self, ctx: &mut dyn Context<A::Msg>) {
        // Timers armed before the crash are stale (the automaton contract
        // lets an executor defer them past recovery); they are not late.
        self.armed.clear();
        let mut tctx = traced_ctx!(self, ctx);
        timed(&mut self.layers.recover, &mut self.sampler, || {
            self.inner.on_recover(&mut tctx)
        });
    }
}

/// An untraced node on the wall-clock runtime: forwards everything and
/// only stamps the first `on_init`, which ends the runtime's set-up.
pub struct Stamped<A> {
    inner: A,
    first_init: FirstInit,
}

impl<A> Stamped<A> {
    #[must_use]
    pub fn new(inner: A, first_init: &FirstInit) -> Self {
        Stamped {
            inner,
            first_init: Arc::clone(first_init),
        }
    }
}

impl<A: Automaton> Automaton for Stamped<A> {
    type Msg = A::Msg;

    fn on_init(&mut self, ctx: &mut dyn Context<A::Msg>) {
        let _ = self.first_init.set(Instant::now());
        self.inner.on_init(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: A::Msg, ctx: &mut dyn Context<A::Msg>) {
        self.inner.on_message(from, msg, ctx);
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<A::Msg>) {
        self.inner.on_timer(timer, ctx);
    }

    fn on_recover(&mut self, ctx: &mut dyn Context<A::Msg>) {
        self.inner.on_recover(ctx);
    }
}

/// A traced adversary: every callback forwarded, counted and sampled.
pub struct TracedAdversary<M> {
    inner: Box<dyn Adversary<M>>,
    span: Span,
    sampler: Sampler,
    sink: Sink,
}

impl<M> TracedAdversary<M> {
    #[must_use]
    pub fn new(inner: Box<dyn Adversary<M>>, sink: &Sink) -> Self {
        TracedAdversary {
            inner,
            span: Span::default(),
            sampler: Sampler::new(u64::MAX),
            sink: Arc::clone(sink),
        }
    }
}

impl<M> Drop for TracedAdversary<M> {
    fn drop(&mut self) {
        deposit(
            &self.sink,
            &Layers {
                adversary: self.span,
                ..Layers::default()
            },
        );
    }
}

impl<M> Adversary<M> for TracedAdversary<M> {
    fn on_init(&mut self, api: &mut AdversaryApi<'_, M>) {
        timed(&mut self.span, &mut self.sampler, || {
            self.inner.on_init(api)
        });
    }

    fn on_deliver(&mut self, to: NodeId, from: NodeId, msg: &M, api: &mut AdversaryApi<'_, M>) {
        timed(&mut self.span, &mut self.sampler, || {
            self.inner.on_deliver(to, from, msg, api);
        });
    }

    fn on_honest_send(&mut self, from: NodeId, to: NodeId, api: &mut AdversaryApi<'_, M>) {
        timed(&mut self.span, &mut self.sampler, || {
            self.inner.on_honest_send(from, to, api);
        });
    }

    fn on_timer(&mut self, key: u64, api: &mut AdversaryApi<'_, M>) {
        timed(&mut self.span, &mut self.sampler, || {
            self.inner.on_timer(key, api)
        });
    }

    fn pick_delay(&mut self, from: NodeId, to: NodeId, bounds: (Dur, Dur)) -> Option<Dur> {
        timed(&mut self.span, &mut self.sampler, || {
            self.inner.pick_delay(from, to, bounds)
        })
    }

    fn is_passive(&self) -> bool {
        self.inner.is_passive()
    }
}

/// Records every `(node, pulse index, time)` a run reports, for the
/// benchmark's own checks, and forwards to `inner`; when tracing, it
/// also counts and samples the calls into `inner`.
#[derive(Debug)]
pub struct Recorder {
    inner: Arc<dyn RunObserver>,
    trace: bool,
    state: Mutex<RecorderState>,
}

#[derive(Debug)]
struct RecorderState {
    pulses: Vec<(NodeId, u64, Time)>,
    span: Span,
    sampler: Sampler,
}

impl Recorder {
    #[must_use]
    pub fn new(inner: Arc<dyn RunObserver>, trace: bool) -> Self {
        Recorder {
            inner,
            trace,
            state: Mutex::new(RecorderState {
                pulses: Vec::new(),
                span: Span::default(),
                sampler: Sampler::new(0x0b5e_17e5),
            }),
        }
    }

    /// The pulses seen, and the sampled calls into the inner observer.
    #[must_use]
    pub fn take(&self) -> (Vec<(NodeId, u64, Time)>, Span) {
        let mut st = self.state.lock().expect("recorder poisoned");
        (std::mem::take(&mut st.pulses), st.span)
    }

    fn forward(&self, st: &mut RecorderState, call: impl FnOnce()) {
        if self.trace {
            let RecorderState { span, sampler, .. } = st;
            timed(span, sampler, call);
        } else {
            call();
        }
    }
}

impl RunObserver for Recorder {
    fn on_pulse(&self, node: NodeId, index: u64, at: Time) {
        let mut st = self.state.lock().expect("recorder poisoned");
        st.pulses.push((node, index, at));
        self.forward(&mut st, || self.inner.on_pulse(node, index, at));
    }

    fn on_violation(&self, node: Option<NodeId>, text: &str, at: Time) {
        let mut st = self.state.lock().expect("recorder poisoned");
        self.forward(&mut st, || self.inner.on_violation(node, text, at));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_estimate_scales_the_sample_to_all_calls() {
        let span = Span {
            calls: 80,
            timed: 10,
            timed_ns: 10 * 150,
        };
        // 150 ns per timed call, 50 ns of which is the clock itself.
        let est = span.estimate_s(50.0);
        assert!((est - 80.0 * 100e-9).abs() < 1e-15, "{est}");
        assert_eq!(Span::default().estimate_s(50.0), 0.0);
    }

    use crusader_bench::trace_hash;
    use crusader_core::adversary::StaggeredDealer;
    use crusader_core::{Carry, CpsNode, Params, RecoveringNode, RecoveryMsg};
    use crusader_sim::{ChaosTimeline, SilentAdversary, SimBuilder, Trace};
    use crusader_time::drift::DriftModel;

    /// A small Byzantine CPS run, bare or with every wrapper on.
    fn byzantine(n: usize, traced: bool) -> (Trace, Layers) {
        let params =
            Params::max_resilience(n, Dur::from_millis(1.0), Dur::from_micros(20.0), 1.003);
        let derived = params.derive().expect("feasible");
        let adversary: Box<dyn Adversary<Carry>> = Box::new(StaggeredDealer::anticipating(
            Dur::from_micros(150.0),
            &params,
            &derived,
        ));
        let builder = SimBuilder::new(n)
            .faulty(n - params.f..n)
            .link(params.d, params.u)
            .drift(DriftModel::ExtremalSplit, params.theta, derived.s)
            .seed(9)
            .max_pulses(8);
        let cps = |me| CpsNode::new(me, params, derived);
        if !traced {
            return (builder.build(cps, adversary).run(), Layers::default());
        }
        let sink = Sink::default();
        let (keys, first) = (Keys::sim(n, 9), FirstInit::default());
        let trace = builder
            .build(
                |me| Traced::new(me, cps(me), &keys, &first, &sink),
                Box::new(TracedAdversary::new(adversary, &sink)),
            )
            .run();
        assert!(first.get().is_some());
        let layers = sink.lock().expect("sink").clone();
        (trace, layers)
    }

    #[test]
    fn wrappers_leave_a_byzantine_run_unchanged() {
        let (bare, _) = byzantine(7, false);
        let (traced, layers) = byzantine(7, true);
        assert_eq!(trace_hash(&bare), trace_hash(&traced));
        assert!(layers.msg.calls > 0 && layers.timer.calls > 0 && layers.init.calls == 4);
        assert!(
            layers.verify.calls > 0
                && layers.effects.broadcasts > 0
                && layers.effects.timers_set > 0
        );
        assert!(layers.adversary.calls > 0);
        assert!(layers.msg.timed > 0 && layers.msg.timed < layers.msg.calls);
        // Timers on the simulator fire exactly when due.
        assert!(layers.timer_late_ms.iter().all(|&late| late == 0.0));
    }

    /// A small all-honest run with one crash, observed by a recorder.
    fn rejoin(traced: bool) -> (Trace, Layers, usize) {
        let n = 5;
        let params = Params::max_resilience(n, Dur::from_millis(20.0), Dur::from_millis(6.0), 1.01);
        let derived = params.derive().expect("feasible");
        let mut timeline = ChaosTimeline::new(n);
        timeline.crash(2, Time::from_millis(500.0), Some(Time::from_millis(650.0)));
        #[derive(Debug)]
        struct Nobody;
        impl RunObserver for Nobody {
            fn on_pulse(&self, _: NodeId, _: u64, _: Time) {}
            fn on_violation(&self, _: Option<NodeId>, _: &str, _: Time) {}
        }
        let recorder = Arc::new(Recorder::new(Arc::new(Nobody), traced));
        let builder = SimBuilder::new(n)
            .link(params.d, params.u)
            .drift(DriftModel::RandomStable, params.theta, derived.s)
            .seed(4)
            .horizon(Time::from_millis(1500.0))
            .chaos(Arc::new(timeline))
            .observer(Arc::clone(&recorder) as Arc<dyn RunObserver>);
        let node = |me| RecoveringNode::new(CpsNode::new(me, params, derived));
        let silent: Box<dyn Adversary<RecoveryMsg>> = Box::new(SilentAdversary);
        let sink = Sink::default();
        let trace = if traced {
            let (keys, first) = (Keys::sim(n, 4), FirstInit::default());
            builder
                .build(
                    |me| Traced::new(me, node(me), &keys, &first, &sink),
                    Box::new(TracedAdversary::new(silent, &sink)),
                )
                .run()
        } else {
            builder.build(node, silent).run()
        };
        let (pulses, observer) = recorder.take();
        let mut layers = sink.lock().expect("sink").clone();
        layers.observer = observer;
        (trace, layers, pulses.len())
    }

    #[test]
    fn wrappers_leave_a_rejoin_run_unchanged_and_forward_passivity() {
        let (bare, _, bare_pulses) = rejoin(false);
        let (traced, layers, traced_pulses) = rejoin(true);
        assert_eq!(trace_hash(&bare), trace_hash(&traced));
        assert_eq!(bare_pulses, traced_pulses);
        assert_eq!(layers.recover.calls, 1);
        assert_eq!(layers.observer.calls as usize, traced_pulses);
        // A passive adversary stays passive behind the wrapper, so the
        // engine never calls it.
        assert_eq!(layers.adversary.calls, 0);
        let wrapped: TracedAdversary<RecoveryMsg> =
            TracedAdversary::new(Box::new(SilentAdversary), &Sink::default());
        assert!(wrapped.is_passive());
    }

    #[test]
    fn sampler_times_about_one_call_in_sample_every() {
        let mut s = Sampler::new(7);
        let hits = (0..80_000).filter(|_| s.hit()).count();
        let expect = 80_000 / SAMPLE_EVERY as usize;
        assert!(hits.abs_diff(expect) < expect / 10, "{hits} hits");
    }
}
