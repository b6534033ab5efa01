//! The three workloads: what each builds from its seed, runs, and checks.
//!
//! * `sim-byzantine` — the paper's maximum-resilience regime on the
//!   single-lane simulator: n = 64, f = 31 anticipating staggered
//!   dealers (the Lemma 11 timing attack) under extremal drift. The only
//!   workload where the adversary path and the knowledge tracker work.
//! * `sim-rejoin` — an all-honest n = 32 mesh of `RecoveringNode`s under
//!   a generated rolling-restart timeline, with the `InvariantChecker`
//!   riding along: the same engine with chaos hooks on every send,
//!   deferred timers and the signed rejoin handshake.
//! * `rt-fleet` — the wall-clock runtime's reactor backend with a
//!   32-dealer CPS core and 96 `PulseClient`s: the only workload for the
//!   runtime layers, bypassing the simulator entirely.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crusader_bench::trace_hash;
use crusader_chaos::{InvariantChecker, Scenario};
use crusader_core::adversary::StaggeredDealer;
use crusader_core::{
    Carry, CpsNode, Derived, FleetNode, Params, PulseClient, RecoveringNode, RecoveryMsg,
};
use crusader_crypto::NodeId;
use crusader_runtime::{Backend, RuntimeConfig};
use crusader_sim::metrics::{pulse_stats, resync_times};
use crusader_sim::{
    Adversary, Automaton, ChaosTimeline, DelayModel, RunObserver, SilentAdversary, Sim, SimBuilder,
    Trace,
};
use crusader_time::drift::DriftModel;
use crusader_time::{Dur, Time};

use crate::host::process_cpu_s;
use crate::tap::{FirstInit, Keys, Layers, Recorder, Sink, Stamped, Traced, TracedAdversary};

/// The first round whose skew counts: round 1 reads the initial offsets
/// alone (1.0 × S by construction), and rounds 2–4 converge from them.
const SKEW_FROM_ROUND: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SimByzantine,
    SimRejoin,
    RtFleet,
}

/// Every workload, with why it is in the benchmark.
pub const WORKLOADS: [(Workload, &str, &str); 3] = [
    (
        Workload::SimByzantine,
        "sim-byzantine",
        "n=64 with f=31 anticipating staggered dealers under extremal drift: the only workload where the adversary and knowledge tracker work",
    ),
    (
        Workload::SimRejoin,
        "sim-rejoin",
        "n=32 honest mesh under a rolling restart with the invariant checker: chaos hooks on every send, deferred timers, signed rejoins",
    ),
    (
        Workload::RtFleet,
        "rt-fleet",
        "reactor runtime with a 32-dealer core and 96 pulse clients: the only workload for the runtime layers, bypassing the simulator",
    ),
];

impl Workload {
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        WORKLOADS.iter().find(|w| w.1 == name).map(|w| w.0)
    }

    #[must_use]
    pub fn name(self) -> &'static str {
        WORKLOADS.iter().find(|w| w.0 == self).map_or("?", |w| w.1)
    }

    #[must_use]
    pub fn is_sim(self) -> bool {
        self != Workload::RtFleet
    }
}

/// Counters the executor itself reports (never from the wrappers).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    pub events: u64,
    pub messages: u64,
    pub timer_slots_high_water: u64,
    pub queue_spill: u64,
    pub chaos_drops: u64,
    pub forgeries_blocked: u64,
    pub net_retries: u64,
    pub net_sends_failed: u64,
    pub stalls: u64,
    pub worker_respawns: u64,
    pub events_discarded: u64,
}

impl Counts {
    fn of_sim(trace: &Trace) -> Self {
        Counts {
            events: trace.events_processed,
            messages: trace.messages_delivered,
            timer_slots_high_water: trace.timer_slots_high_water,
            queue_spill: trace.queue_spill_count,
            chaos_drops: trace.chaos_drops,
            forgeries_blocked: trace.forgeries_blocked,
            ..Counts::default()
        }
    }
}

/// One repetition of a workload.
#[derive(Debug, Default)]
pub struct Rep {
    /// Set-up samples, seconds from generated inputs to a runnable system.
    pub setup_s: Vec<f64>,
    /// Scenario parse time inside set-up (sim-rejoin only).
    pub parse_s: f64,
    /// Host wall and process CPU seconds of the run itself.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Rounds every checked node completed.
    pub rounds: u64,
    /// Largest checked pairwise skew from round 5 on, over its bound.
    pub skew_over_bound: f64,
    /// Honest (node, round) slots, and how many of them were missed.
    pub slots: u64,
    pub missed: u64,
    /// Time-to-resync of every recovery, and recoveries never resolved.
    pub resync_ms: Vec<f64>,
    pub unresolved: u64,
    /// What this repetition's timings are divided by, when it is not the
    /// reference kernel: the protocol's nominal round length `T` on the
    /// wall-clock runtime. Rounds there take protocol time, and the
    /// runtime's CPU goes to thread wake-ups and channel hops that the
    /// compute kernel does not track (in ten runs on a 2-CPU host the
    /// kernel's time moved by 24 % while the fleet's CPU moved by 9 %).
    pub nominal_round_s: Option<f64>,
    /// `trace_hash` of a simulator run.
    pub hash: Option<u64>,
    pub counts: Counts,
    /// Failed output checks, each a failed operation.
    pub failures: Vec<String>,
    /// What the wrappers saw, on a traced repetition.
    pub layers: Option<Layers>,
}

impl Rep {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Checks the run's `Trace` violations and fills slots and skew from
    /// per-node pulse index lists.
    fn score(
        &mut self,
        trace: &Trace,
        checked: &[NodeId],
        indices: &BTreeMap<NodeId, Vec<u64>>,
        slot_rounds: u64,
        excused: impl Fn(NodeId, u64) -> bool,
        bound: Dur,
    ) {
        let stats = pulse_stats(trace, checked);
        self.rounds = stats.complete_pulses as u64;
        self.skew_over_bound = stats
            .skews
            .iter()
            .skip(SKEW_FROM_ROUND - 1)
            .max()
            .map_or(0.0, |s| s.as_secs() / bound.as_secs());
        self.check(stats.skews.len() > SKEW_FROM_ROUND, || {
            format!("only {} complete rounds", stats.skews.len())
        });
        let skew = self.skew_over_bound;
        self.check(skew <= 1.0, || {
            format!("skew {skew:.4} x its bound from round {SKEW_FROM_ROUND} on")
        });
        self.check(trace.violations.is_empty(), || {
            format!(
                "{} trace violations, first: {}",
                trace.violations.len(),
                trace.violations[0]
            )
        });
        let (slots, missed) = missed_slots(indices, slot_rounds, excused);
        self.slots = slots;
        self.missed = missed + trace.violations.len() as u64;
    }
}

/// Honest `(node, round)` slots for rounds `1..=rounds` that are not
/// `excused`, and how many of them have no pulse with that index or an
/// out-of-order one.
#[must_use]
pub fn missed_slots(
    indices: &BTreeMap<NodeId, Vec<u64>>,
    rounds: u64,
    excused: impl Fn(NodeId, u64) -> bool,
) -> (u64, u64) {
    let (mut slots, mut missed) = (0, 0);
    for (&node, seen) in indices {
        let in_order = seen.windows(2).all(|w| w[0] < w[1]);
        for r in 1..=rounds {
            if excused(node, r) {
                continue;
            }
            slots += 1;
            if !in_order || seen.binary_search(&r).is_err() {
                missed += 1;
            }
        }
    }
    (slots, missed)
}

/// Pulse indices per node from a run without recoveries, where a node's
/// `k`-th pulse is its round `k` (the trace flags any other order).
fn positional_indices(trace: &Trace, nodes: &[NodeId]) -> BTreeMap<NodeId, Vec<u64>> {
    nodes
        .iter()
        .map(|&v| (v, (1..=trace.pulses[v.index()].len() as u64).collect()))
        .collect()
}

/// Tracing state handed to a repetition that runs traced.
struct Tracing {
    sink: Sink,
    first_init: FirstInit,
}

impl Tracing {
    fn new() -> Self {
        Tracing {
            sink: Arc::new(Mutex::new(Layers::default())),
            first_init: FirstInit::default(),
        }
    }

    fn take(&self) -> Layers {
        std::mem::take(&mut *self.sink.lock().expect("layer sink poisoned"))
    }
}

fn run_sim<A: Automaton>(sim: Sim<A>, rep: &mut Rep) -> Trace {
    let (cpu0, t0) = (process_cpu_s(), Instant::now());
    let trace = sim.run();
    rep.wall_s = t0.elapsed().as_secs_f64();
    rep.cpu_s = process_cpu_s() - cpu0;
    rep.hash = Some(trace_hash(&trace));
    rep.counts = Counts::of_sim(&trace);
    trace
}

// ---------------------------------------------------------------- sim-byzantine

const BYZ_N: usize = 64;
const BYZ_ROUNDS: u64 = 40;

/// Set-ups timed per untraced simulator repetition (set-up takes
/// microseconds to milliseconds, so one sample would be mostly noise).
const SETUP_SAMPLES: usize = 8;

/// Builds a system [`SETUP_SAMPLES`] times, timing each build, and keeps
/// the last one.
fn timed_setup<T>(rep: &mut Rep, mut build: impl FnMut() -> T) -> T {
    let mut system = None;
    for _ in 0..SETUP_SAMPLES {
        drop(system.take());
        let t0 = Instant::now();
        system = Some(build());
        rep.setup_s.push(t0.elapsed().as_secs_f64());
    }
    system.expect("SETUP_SAMPLES > 0")
}

/// One `sim-byzantine` repetition. Peak memory grows with the round
/// count (the knowledge tracker keeps every learned claim), so the round
/// count is part of the workload.
fn sim_byzantine(seed: u64, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let params =
        Params::max_resilience(BYZ_N, Dur::from_millis(1.0), Dur::from_micros(20.0), 1.003);
    let setup = || {
        let derived = params
            .derive()
            .expect("sim-byzantine parameters are feasible");
        let adversary: Box<dyn Adversary<Carry>> = Box::new(StaggeredDealer::anticipating(
            Dur::from_micros(150.0),
            &params,
            &derived,
        ));
        let builder = SimBuilder::new(BYZ_N)
            .faulty(BYZ_N - params.f..BYZ_N)
            .link(params.d, params.u)
            .delays(DelayModel::Random)
            .drift(DriftModel::ExtremalSplit, params.theta, derived.s)
            .seed(seed)
            .horizon(Time::from_secs(3600.0))
            .max_pulses(BYZ_ROUNDS);
        (derived, adversary, builder)
    };
    let tracing = traced.then(Tracing::new);
    let (trace, derived) = match &tracing {
        None => {
            let (sim, derived) = timed_setup(&mut rep, || {
                let (derived, adversary, builder) = setup();
                let sim = builder.build(|me| CpsNode::new(me, params, derived), adversary);
                (sim, derived)
            });
            (run_sim(sim, &mut rep), derived)
        }
        Some(t) => {
            let (derived, adversary, builder) = setup();
            let keys = Keys::sim(BYZ_N, seed);
            let sim = builder.build(
                |me| {
                    Traced::new(
                        me,
                        CpsNode::new(me, params, derived),
                        &keys,
                        &t.first_init,
                        &t.sink,
                    )
                },
                Box::new(TracedAdversary::new(adversary, &t.sink)),
            );
            (run_sim(sim, &mut rep), derived)
        }
    };
    let honest: Vec<NodeId> = NodeId::all(BYZ_N - params.f).collect();
    rep.check(
        honest
            .iter()
            .all(|v| trace.pulses[v.index()].len() as u64 == BYZ_ROUNDS),
        || format!("not every honest node reached {BYZ_ROUNDS} pulses"),
    );
    let stats = pulse_stats(&trace, &honest);
    rep.check(stats.max_skew <= derived.s, || {
        format!(
            "round skew {} above S = {} (Theorem 17)",
            stats.max_skew, derived.s
        )
    });
    let indices = positional_indices(&trace, &honest);
    rep.score(
        &trace,
        &honest,
        &indices,
        BYZ_ROUNDS,
        |_, _| false,
        derived.s,
    );
    rep.layers = tracing.map(|t| t.take());
    rep
}

// ---------------------------------------------------------------- sim-rejoin

const REJOIN_N: usize = 32;
const REJOIN_RUN_MS: f64 = 30_000.0;
/// Outage length and spacing: one node down at a time.
const OUTAGE_MS: f64 = 150.0;
const OUTAGE_EVERY_MS: f64 = 250.0;
const FIRST_OUTAGE_MS: f64 = 500.0;
/// No outage starts in the last second, so every restart can rejoin.
const LAST_OUTAGE_MARGIN_MS: f64 = 1_000.0;

/// The generated `.chaos` scenario of a `sim-rejoin` input: a seeded
/// pool of `f` nodes is restarted round-robin in a seeded order, one at
/// a time. Restarted nodes count against the fault budget, so the pool
/// is `f` nodes and the other `n − f` stay stable; they carry the skew,
/// period and liveness invariants.
#[must_use]
pub fn rejoin_scenario(seed: u64) -> String {
    let params = rejoin_params();
    let derived = params.derive().expect("sim-rejoin parameters are feasible");
    let mut rng = seed ^ 0x5DEE_CE66_D1CE_5EED;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut nodes: Vec<usize> = (0..REJOIN_N).collect();
    for i in (1..nodes.len()).rev() {
        nodes.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    let pool = &nodes[..params.f];
    // The documented catch-up bound: one resync round trip plus two
    // maximum periods.
    let resync_bound = (params.d * 2.0 + params.u) * params.theta + derived.p_max * 2.0;
    let mut text = format!(
        "name generated_rolling_restart\n\
         summary {f} of {n} nodes restarted round-robin, one at a time\n\
         n {n}\nseed {seed}\nd_ms {d}\nu_ms {u}\ntheta {theta}\nrun_for_ms {run}\n\
         invariant skew_ms {skew}\ninvariant period_ms {pmin} {pmax}\n\
         invariant min_pulses {quota}\ninvariant resync_ms {resync}\nexpect clean\n",
        f = params.f,
        n = REJOIN_N,
        d = params.d.as_millis(),
        u = params.u.as_millis(),
        theta = params.theta,
        run = REJOIN_RUN_MS,
        skew = derived.s.as_millis(),
        pmin = derived.p_min.as_millis(),
        pmax = derived.p_max.as_millis(),
        quota = (REJOIN_RUN_MS / derived.p_max.as_millis()) as u64 - 1,
        resync = resync_bound.as_millis(),
    );
    let mut at = FIRST_OUTAGE_MS;
    let mut k = 0;
    while at + OUTAGE_MS <= REJOIN_RUN_MS - LAST_OUTAGE_MARGIN_MS {
        text.push_str(&format!(
            "crash {} {at} {}\n",
            pool[k % pool.len()],
            at + OUTAGE_MS
        ));
        at += OUTAGE_EVERY_MS;
        k += 1;
    }
    text
}

fn rejoin_params() -> Params {
    Params::max_resilience(
        REJOIN_N,
        Dur::from_millis(20.0),
        Dur::from_millis(6.0),
        1.01,
    )
}

/// What a `sim-rejoin` run is checked against once it ends.
struct RejoinSetup {
    sc: Scenario,
    parse_s: f64,
    params: Params,
    derived: Derived,
    timeline: Arc<ChaosTimeline>,
    checker: Arc<InvariantChecker>,
    recorder: Arc<Recorder>,
}

/// Everything a `sim-rejoin` run needs besides its nodes.
fn rejoin_setup(seed: u64, scenario_text: &str, traced: bool) -> (RejoinSetup, SimBuilder) {
    let t0 = Instant::now();
    let sc = Scenario::parse(scenario_text).expect("generated scenario parses");
    let parse_s = t0.elapsed().as_secs_f64();
    let params = rejoin_params();
    let derived = params.derive().expect("sim-rejoin parameters are feasible");
    let timeline = Arc::new(sc.timeline());
    let resumes: Vec<(Time, usize)> = timeline
        .crash_transitions()
        .into_iter()
        .filter(|&(at, node, down)| !down && !timeline.down(NodeId::new(node), at))
        .map(|(at, node, _)| (at, node))
        .collect();
    let checker = Arc::new(
        InvariantChecker::new(sc.invariants.clone(), sc.n, &sc.affected()).with_resumes(&resumes),
    );
    let recorder = Arc::new(Recorder::new(
        Arc::clone(&checker) as Arc<dyn RunObserver>,
        traced,
    ));
    let builder = SimBuilder::new(sc.n)
        .link(sc.d, sc.u)
        .delays(DelayModel::Random)
        .drift(DriftModel::RandomStable, sc.theta, derived.s)
        .seed(seed)
        .horizon(Time::ZERO + sc.run_for)
        .chaos(Arc::clone(&timeline))
        .observer(Arc::clone(&recorder) as Arc<dyn RunObserver>);
    let setup = RejoinSetup {
        sc,
        parse_s,
        params,
        derived,
        timeline,
        checker,
        recorder,
    };
    (setup, builder)
}

fn sim_rejoin(seed: u64, scenario_text: &str, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let tracing = traced.then(Tracing::new);
    let node = |params, derived| move |me| RecoveringNode::new(CpsNode::new(me, params, derived));
    let (trace, setup) = match &tracing {
        None => {
            let (sim, setup) = timed_setup(&mut rep, || {
                let (setup, builder) = rejoin_setup(seed, scenario_text, false);
                let sim =
                    builder.build(node(setup.params, setup.derived), Box::new(SilentAdversary));
                (sim, setup)
            });
            (run_sim(sim, &mut rep), setup)
        }
        Some(t) => {
            let (setup, builder) = rejoin_setup(seed, scenario_text, true);
            let keys = Keys::sim(setup.sc.n, seed);
            let make = node(setup.params, setup.derived);
            let adversary: Box<dyn Adversary<RecoveryMsg>> = Box::new(SilentAdversary);
            let sim = builder.build(
                |me| Traced::new(me, make(me), &keys, &t.first_init, &t.sink),
                Box::new(TracedAdversary::new(adversary, &t.sink)),
            );
            (run_sim(sim, &mut rep), setup)
        }
    };
    let RejoinSetup {
        sc,
        parse_s,
        derived,
        timeline,
        checker,
        recorder,
        ..
    } = setup;
    rep.parse_s = parse_s;
    let horizon = Time::ZERO + sc.run_for;
    let affected = sc.affected();

    let verdict = checker.finalize(horizon);
    rep.check(verdict.clean(), || {
        format!(
            "invariant checker: {} violations, first: {}",
            verdict.violations.len(),
            verdict.violations[0]
        )
    });
    let resyncs = resync_times(&trace, &timeline);
    rep.resync_ms = resyncs
        .iter()
        .filter_map(|r| r.time_to_pulse.map(Dur::as_millis))
        .collect();
    rep.unresolved = resyncs.iter().filter(|r| r.time_to_pulse.is_none()).count() as u64;
    let unresolved = rep.unresolved;
    rep.check(unresolved == 0, || {
        format!("{unresolved} crashed nodes never rejoined")
    });

    let stable: Vec<NodeId> = NodeId::all(sc.n)
        .filter(|v| !affected.contains(&v.index()))
        .collect();
    let (pulses, observer) = recorder.take();
    let mut indices: BTreeMap<NodeId, Vec<u64>> =
        NodeId::all(sc.n).map(|v| (v, Vec::new())).collect();
    for &(v, index, _) in &pulses {
        indices
            .get_mut(&v)
            .expect("pulse from a known node")
            .push(index);
    }
    // A restarted node is excused from the rounds the stable nodes pulse
    // between its crash and its first pulse after rejoining (widened by
    // S on both sides: its own pulse may trail or lead the median).
    let round_at: Vec<Time> = (1..=trace.complete_pulses(&stable))
        .map(|r| {
            let mut ts = trace.pulse_times(r, &stable).expect("complete round");
            ts.sort_by(|a, b| a.partial_cmp(b).expect("finite pulse times"));
            ts[ts.len() / 2]
        })
        .collect();
    let mut away: Vec<Vec<(Time, Time)>> = vec![Vec::new(); sc.n];
    for c in &sc.crashes {
        let back = c
            .until
            .and_then(|u| trace.pulses[c.node].iter().copied().find(|&t| t >= u));
        away[c.node].push((c.from - derived.s, back.map_or(horizon, |t| t + derived.s)));
    }
    let excused = |v: NodeId, r: u64| {
        let t = round_at[r as usize - 1];
        away[v.index()]
            .iter()
            .any(|&(from, to)| from <= t && t <= to)
    };
    let slot_rounds = (round_at.len() as u64).saturating_sub(1);
    rep.score(&trace, &stable, &indices, slot_rounds, excused, derived.s);
    if let Some(mut layers) = tracing.map(|t| t.take()) {
        layers.observer = observer;
        rep.layers = Some(layers);
    }
    rep
}

// ---------------------------------------------------------------- rt-fleet

const FLEET_CORE: usize = 32;
const FLEET_N: usize = 128;
/// Set-up-only launches per repetition (each stops right after start).
const FLEET_SETUP_LAUNCHES: usize = 24;

fn fleet_config(seed: u64, run_for: Duration) -> (RuntimeConfig, Params) {
    let params = Params::max_resilience(
        FLEET_CORE,
        Dur::from_millis(120.0),
        Dur::from_millis(40.0),
        1.01,
    );
    let derived = params.derive().expect("rt-fleet parameters are feasible");
    // One CPU stays free for the network and timer threads. With a
    // worker on every CPU of a 2-CPU host, the workers contend with them
    // and CPU time per round rose 30% and spread tenfold (5.9-6.6 CPU-s
    // per 15 s run against 4.6 with one worker), measuring contention
    // rather than work.
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = nproc.saturating_sub(1).max(1);
    let cfg = RuntimeConfig {
        d: params.d,
        u: params.u,
        theta: params.theta,
        max_offset: derived.s,
        run_for,
        seed,
        backend: Backend::Reactor,
        workers: Some(workers),
        ..RuntimeConfig::new(FLEET_N)
    };
    (cfg, params)
}

fn fleet_node(params: Params) -> impl Fn(NodeId) -> FleetNode {
    let derived = params.derive().expect("rt-fleet parameters are feasible");
    move |me| {
        if me.index() < FLEET_CORE {
            FleetNode::Core(Box::new(CpsNode::new(me, params, derived)))
        } else {
            FleetNode::Client(PulseClient::new(FLEET_CORE, params.f))
        }
    }
}

/// Seconds from entering `crusader_runtime::run` to the first `on_init`.
fn fleet_setup(seed: u64) -> f64 {
    let (cfg, params) = fleet_config(seed, Duration::ZERO);
    let first = FirstInit::default();
    let make = fleet_node(params);
    let entered = Instant::now();
    crusader_runtime::run(&cfg, |me| Stamped::new(make(me), &first));
    first
        .get()
        .map_or(f64::NAN, |t| t.duration_since(entered).as_secs_f64())
}

fn rt_fleet(seed: u64, run_for: Duration, traced: bool) -> Rep {
    let mut rep = Rep::default();
    if !traced {
        rep.setup_s = (0..FLEET_SETUP_LAUNCHES)
            .map(|_| fleet_setup(seed))
            .collect();
    }
    let (cfg, params) = fleet_config(seed, run_for);
    let derived = params.derive().expect("rt-fleet parameters are feasible");
    let make = fleet_node(params);
    let tracing = Tracing::new();
    let (cpu0, t0) = (process_cpu_s(), Instant::now());
    let report = if traced {
        let keys = Keys::runtime(FLEET_N, seed);
        crusader_runtime::run(&cfg, |me| {
            Traced::new(me, make(me), &keys, &tracing.first_init, &tracing.sink)
        })
    } else {
        crusader_runtime::run(&cfg, |me| Stamped::new(make(me), &tracing.first_init))
    };
    rep.wall_s = t0.elapsed().as_secs_f64();
    rep.cpu_s = process_cpu_s() - cpu0;
    if let Some(first) = tracing.first_init.get() {
        if !traced {
            rep.setup_s.push(first.duration_since(t0).as_secs_f64());
        }
    }
    rep.nominal_round_s = Some(derived.t_nominal.as_secs());
    let sup = &report.supervision;
    rep.counts = Counts {
        messages: report.messages_delivered,
        net_retries: sup.net_retries,
        net_sends_failed: sup.net_sends_failed,
        stalls: sup.stalls_detected,
        worker_respawns: sup.worker_respawns,
        events_discarded: sup.events_discarded,
        ..Counts::default()
    };
    rep.check(!sup.degraded && sup.worker_panics == 0, || {
        format!(
            "supervision: degraded={} panics={}",
            sup.degraded, sup.worker_panics
        )
    });
    let trace = &report.trace;
    let all: Vec<NodeId> = NodeId::all(FLEET_N).collect();
    // The fleet bound: clients trail the core by up to one delay and
    // their own clock drift (see `crusader_core::client`).
    let bound = derived.s * (1.0 + params.theta * params.theta) + params.d;
    let indices = positional_indices(trace, &all);
    // The shutdown can land between two nodes' pulses of the last round,
    // so slots stop one round short of the furthest node.
    let furthest = indices.values().map(|v| v.len() as u64).max().unwrap_or(0);
    rep.score(
        trace,
        &all,
        &indices,
        furthest.saturating_sub(1),
        |_, _| false,
        bound,
    );
    if traced {
        rep.layers = Some(tracing.take());
    }
    rep
}

/// A workload's inputs, generated from the seed before anything is timed.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    scenario: String,
}

impl Inputs {
    #[must_use]
    pub fn generate(workload: Workload, seed: u64) -> Self {
        // Spread nearby seeds over the whole 64-bit space.
        let mixed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC0FF_EE00;
        let scenario = match workload {
            Workload::SimRejoin => rejoin_scenario(mixed),
            _ => String::new(),
        };
        Inputs {
            workload,
            seed: mixed,
            scenario,
        }
    }

    /// Runs one repetition. `run_for` sets the length of a wall-clock
    /// run; simulator runs have a fixed length.
    #[must_use]
    pub fn rep(&self, traced: bool, run_for: Duration) -> Rep {
        match self.workload {
            Workload::SimByzantine => sim_byzantine(self.seed, traced),
            Workload::SimRejoin => sim_rejoin(self.seed, &self.scenario, traced),
            Workload::RtFleet => rt_fleet(self.seed, run_for, traced),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missed_slots_counts_gaps_disorder_and_excuses() {
        let v = |i| NodeId::new(i);
        let mut idx = BTreeMap::new();
        idx.insert(v(0), vec![1, 2, 3, 4]);
        idx.insert(v(1), vec![1, 2, 4]); // round 3 missing
        idx.insert(v(2), vec![1, 3, 2, 4]); // out of order: all slots bad
        assert_eq!(missed_slots(&idx, 4, |_, _| false), (12, 1 + 4));
        // Excusing node 1's round 3 removes that slot.
        assert_eq!(missed_slots(&idx, 4, |n, r| n == v(1) && r == 3), (11, 4));
    }

    #[test]
    fn rejoin_scenario_restarts_one_pool_node_at_a_time() {
        let sc = Scenario::parse(&rejoin_scenario(3)).expect("parses");
        let f = rejoin_params().f;
        assert_eq!(sc.affected().len(), f);
        assert!(sc.crashes.len() >= 100, "p90 needs 100 resync samples");
        for w in sc.crashes.windows(2) {
            assert!(w[0].until.expect("every outage ends") < w[1].from);
        }
        assert_eq!(rejoin_scenario(3), rejoin_scenario(3));
        assert_ne!(rejoin_scenario(3), rejoin_scenario(4));
    }
}
