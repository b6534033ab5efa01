//! The metric registry, the `BENCHMARK.json` it describes, and the
//! assembly of one run's repetitions into the final JSON line.

use std::fmt::Write as _;

use crate::stats::{median, percentile, quartiles};
use crate::tap::Layers;
use crate::workloads::{Rep, Workload, WORKLOADS};

/// An end-to-end metric: `(name, unit, bound)`. Every one is lower-is-
/// better and never zero; `bound` is the share of the parent's median by
/// which it may worsen.
pub const END_TO_END: [(&str, &str, f64); 5] = [
    ("setup_s", "s", 0.25),
    ("wall_per_round_ref", "ref/round", 0.25),
    ("cpu_per_round_ref", "ref/round", 0.25),
    ("skew_over_bound", "ratio", 0.25),
    ("peak_rss_mb", "MiB", 0.2),
];

/// A per-layer metric: `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, &str); 49] = [
    ("sim.events", "count", "lower"),
    ("sim.messages", "count", "lower"),
    ("sim.events_per_round", "count/round", "lower"),
    ("sim.self_s", "s", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.timer_slots_high_water", "count", "lower"),
    ("sim.queue_spill", "count", "lower"),
    ("sim.chaos_drops", "count", "lower"),
    ("adversary.calls", "count", "lower"),
    ("adversary.self_s", "s", "lower"),
    ("adversary.forgeries_blocked", "count", "lower"),
    ("core.msg_calls", "count", "lower"),
    ("core.timer_calls", "count", "lower"),
    ("core.recover_calls", "count", "lower"),
    ("core.sends", "count", "lower"),
    ("core.broadcasts", "count", "lower"),
    ("core.timers_set", "count", "lower"),
    ("core.self_s", "s", "lower"),
    ("core.ns_per_msg", "ns", "lower"),
    ("crypto.verifies", "count", "lower"),
    ("crypto.signs", "count", "lower"),
    ("crypto.verify_s", "s", "lower"),
    ("crypto.verifies_per_msg", "1/msg", "lower"),
    ("recovery.rejoins", "count", "higher"),
    ("recovery.unresolved", "count", "lower"),
    ("chaos.parse_s", "s", "lower"),
    ("chaos.observer_calls", "count", "lower"),
    ("chaos.observer_s", "s", "lower"),
    ("runtime.messages", "count", "higher"),
    ("runtime.handler_s", "s", "lower"),
    ("runtime.machinery_cpu_s", "s", "lower"),
    ("runtime.timer_late_ms_p50", "ms", "lower"),
    ("runtime.timer_late_ms_p99", "ms", "lower"),
    ("runtime.net_retries", "count", "lower"),
    ("runtime.net_sends_failed", "count", "lower"),
    ("runtime.stalls", "count", "lower"),
    ("runtime.worker_respawns", "count", "lower"),
    ("runtime.events_discarded", "count", "lower"),
    ("host.ref_kernel_s", "s", "lower"),
    ("host.wall_per_round_s", "s", "lower"),
    ("host.cpu_per_round_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.cpu_s", "s", "lower"),
    ("missed_pulse_frac", "frac", "lower"),
    ("resync_ms_p50", "ms", "lower"),
    ("resync_ms_p90", "ms", "lower"),
    ("trace.empty_span_ns", "ns", "lower"),
    ("trace.sample_every", "count", "lower"),
];

/// Seconds one run measures for, as written in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 30;

/// The `BENCHMARK.json` this benchmark implements.
#[must_use]
pub fn describe() -> String {
    let mut s = String::new();
    s.push_str("{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (_, name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, bound)) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"lower\", \"bound\": {bound}}}{sep}"
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{sep}"
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// One measured repetition with the reference time around it.
pub struct Sample {
    pub rep: Rep,
    pub ref_s: f64,
    pub traced: bool,
}

/// Everything one invocation measured.
pub struct Run {
    pub workload: Workload,
    pub trace: bool,
    pub samples: Vec<Sample>,
    pub empty_ns: f64,
    pub peak_rss_mb: f64,
}

/// The final result line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

fn med(xs: impl IntoIterator<Item = f64>) -> f64 {
    median(&xs.into_iter().collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Pairs computed values with the registry's units; the values must come
/// in registry order.
fn with_units<const N: usize>(
    registry: impl Iterator<Item = (&'static str, &'static str)>,
    values: [(&'static str, f64); N],
) -> Vec<(&'static str, f64, &'static str)> {
    registry
        .zip(values)
        .map(|((name, unit), (label, value))| {
            assert_eq!(name, label, "metric computed out of registry order");
            (name, value, unit)
        })
        .collect()
}

fn layers(s: &Sample) -> &Layers {
    s.rep
        .layers
        .as_ref()
        .expect("traced repetitions carry their layers")
}

/// The time a repetition's timings are divided by.
fn reference(s: &Sample) -> f64 {
    s.rep.nominal_round_s.unwrap_or(s.ref_s)
}

fn per_round(x: f64, rep: &Rep) -> f64 {
    x / rep.rounds.max(1) as f64
}

impl Run {
    fn reps(&self, traced: bool) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(move |s| s.traced == traced)
    }

    /// Checks that simulator repetitions repeat exactly and that tracing
    /// left the trace untouched; every mismatch is a failure.
    fn determinism_failures(&self) -> Vec<String> {
        if !self.workload.is_sim() {
            return Vec::new();
        }
        let Some(first) = self.reps(false).next() else {
            return vec!["no untraced repetition".to_string()];
        };
        let key = |r: &Rep| (r.hash, r.counts.events, r.counts.messages);
        let want = key(&first.rep);
        self.samples
            .iter()
            .enumerate()
            .filter(|(_, s)| key(&s.rep) != want)
            .map(|(i, s)| {
                format!(
                    "repetition {i} ({}) gave (hash, events, messages) {:?}, first untraced gave {want:?}",
                    if s.traced { "traced" } else { "untraced" },
                    key(&s.rep)
                )
            })
            .collect()
    }

    #[must_use]
    pub fn outcome(&self) -> Outcome {
        let metrics = if self.trace {
            self.per_layer()
        } else {
            self.end_to_end()
        };
        let mut failures: Vec<String> = self
            .samples
            .iter()
            .flat_map(|s| s.rep.failures.iter().cloned())
            .collect();
        failures.extend(self.determinism_failures());
        failures.extend(
            metrics
                .iter()
                .filter(|m| !m.1.is_finite())
                .map(|m| format!("metric {} is not finite", m.0)),
        );
        let attempted: u64 = self.samples.iter().map(|s| s.rep.slots).sum::<u64>().max(1);
        let missed: u64 = self.samples.iter().map(|s| s.rep.missed).sum();
        let failed = missed + failures.len() as u64;
        Outcome {
            correct: failed == 0,
            attempted,
            failed,
            failures,
            metrics,
        }
    }

    /// Quartiles of the per-repetition values behind the untraced
    /// medians, with their sample counts, for the human-readable report.
    #[must_use]
    pub fn rep_quartiles(&self) -> Vec<(&'static str, usize, Option<[f64; 3]>)> {
        let per_rep =
            |f: &dyn Fn(&Sample) -> f64| -> Vec<f64> { self.reps(false).map(f).collect() };
        let setup: Vec<f64> = self
            .reps(false)
            .flat_map(|s| s.rep.setup_s.iter().copied())
            .collect();
        let wall = per_rep(&|s| per_round(s.rep.wall_s, &s.rep) / reference(s));
        let cpu = per_rep(&|s| per_round(s.rep.cpu_s, &s.rep) / reference(s));
        let refs = per_rep(&|s| s.ref_s);
        [
            ("setup_s", setup),
            ("wall_per_round_ref", wall),
            ("cpu_per_round_ref", cpu),
            ("host.ref_kernel_s", refs),
        ]
        .into_iter()
        .map(|(name, xs)| (name, xs.len(), quartiles(&xs)))
        .collect()
    }

    fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let setup = med(self.reps(false).flat_map(|s| s.rep.setup_s.iter().copied()));
        let wall = med(self
            .reps(false)
            .map(|s| per_round(s.rep.wall_s, &s.rep) / reference(s)));
        let cpu = med(self
            .reps(false)
            .map(|s| per_round(s.rep.cpu_s, &s.rep) / reference(s)));
        let skew = med(self.reps(false).map(|s| s.rep.skew_over_bound));
        let values = [
            ("setup_s", setup),
            ("wall_per_round_ref", wall),
            ("cpu_per_round_ref", cpu),
            ("skew_over_bound", skew),
            ("peak_rss_mb", self.peak_rss_mb),
        ];
        with_units(END_TO_END.iter().map(|m| (m.0, m.1)), values)
    }

    fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        let empty = self.empty_ns;
        let untraced = || self.reps(false);
        let traced = || self.reps(true);
        let tmed = |f: &dyn Fn(&Sample, &Layers) -> f64| med(traced().map(|s| f(s, layers(s))));
        let sim = self.workload.is_sim();

        // Normalized cost of a repetition: wall time on the simulator,
        // CPU time on the wall-clock runtime (whose wall time is fixed).
        let cost = |s: &Sample| {
            let t = if sim { s.rep.wall_s } else { s.rep.cpu_s };
            per_round(t, &s.rep) / reference(s)
        };
        let overhead_frac = 1.0 - med(untraced().map(cost)) / med(traced().map(cost));
        let traced_wall = med(traced().map(|s| s.rep.wall_s));
        let traced_cpu = med(traced().map(|s| s.rep.cpu_s));

        let handler_s = tmed(&|_, l| l.handler_s(empty));
        let verify_s = tmed(&|_, l| l.verify.estimate_s(empty));
        let core_self = handler_s - verify_s;
        let adversary_s = tmed(&|_, l| l.adversary.estimate_s(empty));
        let observer_s = tmed(&|_, l| l.observer.estimate_s(empty));
        let msg_calls = tmed(&|_, l| l.msg.calls as f64);
        // The engine is what the traced wall time leaves once tracing's
        // own cost and every wrapped layer are taken out.
        let sim_self = if sim {
            traced_wall * (1.0 - overhead_frac) - core_self - verify_s - adversary_s - observer_s
        } else {
            0.0
        };
        let events = tmed(&|s, _| s.rep.counts.events as f64);
        let rounds = tmed(&|s, _| s.rep.rounds as f64);
        let late: Vec<f64> = traced()
            .flat_map(|s| layers(s).timer_late_ms.iter().copied())
            .collect();
        let (late_p50, late_p99) = if sim {
            (0.0, 0.0)
        } else {
            (
                percentile(&late, 50.0).unwrap_or(f64::NAN),
                percentile(&late, 99.0).unwrap_or(f64::NAN),
            )
        };
        let last = untraced().last().map(|s| &s.rep);
        let resync = last.map(|r| r.resync_ms.clone()).unwrap_or_default();
        let resync_pct = |p| {
            if resync.is_empty() {
                0.0
            } else {
                percentile(&resync, p).unwrap_or(f64::NAN)
            }
        };
        let slots: u64 = untraced().map(|s| s.rep.slots).sum();
        let missed: u64 = untraced().map(|s| s.rep.missed).sum();
        let c =
            |f: &dyn Fn(&crate::workloads::Counts) -> u64| tmed(&|s, _| f(&s.rep.counts) as f64);
        let runtime = |x: f64| if sim { 0.0 } else { x };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

        let values = [
            ("sim.events", events),
            ("sim.messages", if sim { c(&|k| k.messages) } else { 0.0 }),
            ("sim.events_per_round", ratio(events, rounds)),
            ("sim.self_s", sim_self),
            ("sim.ns_per_event", ratio(sim_self * 1e9, events)),
            (
                "sim.timer_slots_high_water",
                c(&|k| k.timer_slots_high_water),
            ),
            ("sim.queue_spill", c(&|k| k.queue_spill)),
            ("sim.chaos_drops", c(&|k| k.chaos_drops)),
            ("adversary.calls", tmed(&|_, l| l.adversary.calls as f64)),
            ("adversary.self_s", adversary_s),
            ("adversary.forgeries_blocked", c(&|k| k.forgeries_blocked)),
            ("core.msg_calls", msg_calls),
            ("core.timer_calls", tmed(&|_, l| l.timer.calls as f64)),
            ("core.recover_calls", tmed(&|_, l| l.recover.calls as f64)),
            ("core.sends", tmed(&|_, l| l.effects.sends as f64)),
            ("core.broadcasts", tmed(&|_, l| l.effects.broadcasts as f64)),
            ("core.timers_set", tmed(&|_, l| l.effects.timers_set as f64)),
            ("core.self_s", core_self),
            ("core.ns_per_msg", ratio(core_self * 1e9, msg_calls)),
            ("crypto.verifies", tmed(&|_, l| l.verify.calls as f64)),
            ("crypto.signs", tmed(&|_, l| l.signs as f64)),
            ("crypto.verify_s", verify_s),
            (
                "crypto.verifies_per_msg",
                ratio(tmed(&|_, l| l.verify.calls as f64), msg_calls),
            ),
            (
                "recovery.rejoins",
                last.map_or(0.0, |r| r.resync_ms.len() as f64),
            ),
            (
                "recovery.unresolved",
                last.map_or(0.0, |r| r.unresolved as f64),
            ),
            ("chaos.parse_s", med(untraced().map(|s| s.rep.parse_s))),
            (
                "chaos.observer_calls",
                tmed(&|_, l| l.observer.calls as f64),
            ),
            ("chaos.observer_s", observer_s),
            ("runtime.messages", runtime(c(&|k| k.messages))),
            ("runtime.handler_s", runtime(handler_s)),
            ("runtime.machinery_cpu_s", runtime(traced_cpu - handler_s)),
            ("runtime.timer_late_ms_p50", late_p50),
            ("runtime.timer_late_ms_p99", late_p99),
            ("runtime.net_retries", c(&|k| k.net_retries)),
            ("runtime.net_sends_failed", c(&|k| k.net_sends_failed)),
            ("runtime.stalls", c(&|k| k.stalls)),
            ("runtime.worker_respawns", c(&|k| k.worker_respawns)),
            ("runtime.events_discarded", c(&|k| k.events_discarded)),
            (
                "host.ref_kernel_s",
                med(self.samples.iter().map(|s| s.ref_s)),
            ),
            (
                "host.wall_per_round_s",
                med(untraced().map(|s| per_round(s.rep.wall_s, &s.rep))),
            ),
            (
                "host.cpu_per_round_s",
                med(untraced().map(|s| per_round(s.rep.cpu_s, &s.rep))),
            ),
            ("trace.overhead_frac", overhead_frac),
            ("trace.wall_s", traced_wall),
            ("trace.cpu_s", traced_cpu),
            ("missed_pulse_frac", ratio(missed as f64, slots as f64)),
            ("resync_ms_p50", resync_pct(50.0)),
            ("resync_ms_p90", resync_pct(90.0)),
            ("trace.empty_span_ns", empty),
            ("trace.sample_every", crate::tap::SAMPLE_EVERY as f64),
        ];
        with_units(PER_LAYER.iter().map(|m| (m.0, m.1)), values)
    }
}

impl Outcome {
    /// The one-line JSON result.
    #[must_use]
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_registry() {
        let committed = include_str!("../../BENCHMARK.json");
        assert!(
            committed == describe(),
            "BENCHMARK.json differs from the registry: regenerate it with --describe"
        );
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
