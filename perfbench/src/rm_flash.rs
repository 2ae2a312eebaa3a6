//! `rm-flash-crowd`: an in-process `RmCore` replaying a seeded flash-crowd
//! trace, closed loop on one thread.
//!
//! Every lifecycle call runs a full reallocation across all live sessions,
//! so the RM does nearly all of the work. The fault directives add the
//! cold re-solve and migration path beside the warm one.

use crate::report::Outcome;
use crate::spans;
use crate::stats::{another_round, median, peak_rss_mib, percentile, process_cpu_s};
use harp_bench::{cache, dse, jobs};
use harp_platform::{HardwareDescription, CAP_NOMINAL_PERMILLE};
use harp_rm::{AppObservation, Directive, RmConfig, RmCore, RmOutput, TickObservations};
use harp_sim::{SimTime, SECOND};
use harp_types::{
    AppId, CoreId, CoreKind, ExtResourceVector, FaultEvent, NonFunctional, OperatingPointTable,
    PriorityClass, Result,
};
use harp_workload::{
    generate_trace, Platform, Template, Trace, TraceEvent, TraceGenConfig, TraceShape,
};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Arrivals per trace; with 250‰ early departures the live population
/// peaks in the low hundreds.
pub const ARRIVALS: u32 = 200;
/// Simulated window the trace spans.
pub const WINDOW_NS: SimTime = 20 * SECOND;
/// Traces replayed per round: averaging over several seeded traces keeps
/// one trace's population curve from deciding a run.
pub const TRACES: u64 = 4;
/// Synthetic measurement interval of one tick.
const TICK_DT_S: f64 = 0.05;
/// Quiescence ticks allowed after the last event.
const QUIESCENCE_TICKS: usize = 400;
/// Set-ups timed per run (the median is reported).
const SETUP_REPEATS: usize = 3;
/// Lifecycle-call latencies needed before the run may stop, so the p99
/// has at least ten samples beyond it.
const MIN_OP_SAMPLES: usize = 1000;

pub fn mix(mut x: u64) -> u64 {
    // splitmix64 finalizer: a fixed, seedable scramble.
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The fault schedule: one P-core and one E-core (chosen by the seed)
/// each fail once and recover, and the E-core cluster is thermally capped
/// to 60% in between.
pub fn fault_schedule(hw: &HardwareDescription, seed: u64) -> Vec<(SimTime, FaultEvent)> {
    let pick = |kind: usize, salt: u64| {
        let cores = hw.cores_of_kind(CoreKind(kind)).expect("preset kind");
        cores[(mix(seed ^ salt) % cores.len() as u64) as usize]
    };
    let (p, e) = (pick(0, 0x51), pick(1, 0xe7));
    let at = |permille: u64| WINDOW_NS / 1000 * permille;
    vec![
        (at(300), FaultEvent::CoreFail { core: p }),
        (
            at(450),
            FaultEvent::ThermalCap {
                cluster: 1,
                permille: 600,
            },
        ),
        (at(550), FaultEvent::CoreFail { core: e }),
        (at(650), FaultEvent::CoreRecover { core: p }),
        (at(800), FaultEvent::CoreRecover { core: e }),
        (
            at(900),
            FaultEvent::ThermalCap {
                cluster: 1,
                permille: 1000,
            },
        ),
    ]
}

/// Generator seed of trace `i` of a run seeded `seed`.
pub fn trace_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(TRACES).wrapping_add(i)
}

/// Generator settings of a replayed trace.
pub fn trace_config(hw: &HardwareDescription, seed: u64) -> TraceGenConfig {
    TraceGenConfig {
        seed,
        window_ns: WINDOW_NS,
        arrivals: ARRIVALS,
        shape: TraceShape::FlashCrowd,
        churn_permille: 250,
        reprioritize_permille: 50,
        faults: fault_schedule(hw, seed),
    }
}

/// Work units of the spec each template's profile is measured on: the
/// flash-crowd generator's base work size. The profile's utility is a rate
/// (work per second), so one size serves every arrival.
const PROFILE_WORK: u64 = 1_000_000_000;
/// Simulated horizon of one DSE configuration, as in the figures.
const DSE_HORIZON_S: f64 = 600.0;

/// Each template's operating points, keyed by template name: the offline
/// DSE sweep of `Template::spec` on the Raptor Lake grid, recomputed from
/// an empty profile cache — the description file a HARP (Offline)
/// session of that template would submit.
fn template_profiles() -> Result<HashMap<String, OperatingPointTable>> {
    let kinds = Platform::RaptorLake.hardware().num_kinds();
    let specs = Template::ALL
        .iter()
        .map(|t| t.spec(kinds, PROFILE_WORK, PriorityClass::Standard))
        .collect::<Result<Vec<_>>>()?;
    cache::reset();
    dse::offline_profiles(Platform::RaptorLake, &specs, DSE_HORIZON_S)
}

/// The points a session of `template` submits.
fn submitted_points(table: &OperatingPointTable) -> Vec<(ExtResourceVector, NonFunctional)> {
    table.iter().map(|(_, p)| (p.erv.clone(), p.nfc)).collect()
}

/// Builds the trace and reads it back through its canonical text, as a
/// frontend loading a trace file would.
/// Returns the trace and the parse time in milliseconds.
fn setup(hw: &HardwareDescription, seed: u64, out: &mut Outcome) -> (Trace, f64) {
    let generated = generate_trace("rm-flash-crowd", &trace_config(hw, seed));
    let text = generated.to_canonical_text();
    let p = process_cpu_s();
    let parsed = {
        let _s = spans::span("workload.parse");
        Trace::parse(&text)
    };
    let parse_ms = (process_cpu_s() - p) * 1e3;
    let trace = match out.setup("Trace::parse", parsed) {
        Some(tr) => {
            if tr != generated {
                out.violation("parsed trace differs from the generated one");
            }
            tr
        }
        None => generated,
    };
    (trace, parse_ms)
}

/// Counters accumulated over every replayed round.
#[derive(Default)]
struct Tally {
    op_us: Vec<f64>,
    events: u64,
    directives: u64,
    changed: u64,
    solves: u64,
}

struct Live {
    template: Template,
    cpu: Vec<f64>,
}

/// One replay of the trace against a fresh RM, with the benchmark's own
/// mirror of what the trace did (live sessions, offline cores, caps,
/// metered energy) to check the RM's outputs against.
struct Replay<'a> {
    hw: &'a HardwareDescription,
    profiles: &'a HashMap<String, OperatingPointTable>,
    rm: RmCore,
    live: BTreeMap<u64, Live>,
    grants: BTreeMap<u64, Directive>,
    offline: Vec<bool>,
    cap_permille: Vec<u32>,
    metered_uj: u64,
    /// Core id -> core kind index.
    kind_of: Vec<usize>,
    /// Scratch: per-kind grant counts of one directive.
    per_kind: Vec<u32>,
    /// Scratch: grants per core.
    held: Vec<u32>,
    out: &'a mut Outcome,
    tally: &'a mut Tally,
}

impl<'a> Replay<'a> {
    fn call(
        &mut self,
        name: &'static str,
        lifecycle: bool,
        f: impl FnOnce(&mut RmCore) -> Result<RmOutput>,
    ) -> Option<RmOutput> {
        let t = process_cpu_s();
        let r = {
            let _s = spans::span(name);
            f(&mut self.rm)
        };
        if lifecycle {
            self.tally.op_us.push((process_cpu_s() - t) * 1e6);
        }
        let out = self.out.op(name, r)?;
        self.check(name, &out);
        Some(out)
    }

    fn check(&mut self, what: &str, out: &RmOutput) {
        let n = self.kind_of.len();
        self.tally.directives += out.directives.len() as u64;
        self.tally.solves += u64::from(out.solves);
        for d in &out.directives {
            let app = d.app.raw();
            if !self.live.contains_key(&app) {
                self.out
                    .violation(format!("{what}: directive for departed app {app}"));
            }
            self.per_kind.fill(0);
            self.held.fill(0);
            for c in &d.cores {
                if c.0 >= n {
                    self.out
                        .violation(format!("{what}: core {} out of range", c.0));
                    continue;
                }
                if self.offline[c.0] {
                    self.out
                        .violation(format!("{what}: offline core {} granted to {app}", c.0));
                }
                self.held[c.0] += 1;
                if self.held[c.0] > 1 {
                    self.out
                        .violation(format!("{what}: core {} granted twice to {app}", c.0));
                }
                self.per_kind[self.kind_of[c.0]] += 1;
            }
            for (k, &granted) in self.per_kind.iter().enumerate() {
                if granted != d.erv.cores_of_kind(k) {
                    self.out.violation(format!(
                        "{what}: {app} granted {granted} kind-{k} cores for demand {}",
                        d.erv.cores_of_kind(k)
                    ));
                }
            }
            if d.hw_threads.len() as u32 != d.parallelism {
                self.out.violation(format!(
                    "{what}: {app} got {} threads at parallelism {}",
                    d.hw_threads.len(),
                    d.parallelism
                ));
            }
            if self.grants.get(&app) != Some(d) {
                self.tally.changed += 1;
                self.grants.insert(app, d.clone());
            }
        }
        let live = &self.live;
        self.grants.retain(|app, _| live.contains_key(app));
        // When no two live grants share a core, per-kind totals must fit
        // the machine (sharing is the explicit co-allocation fallback).
        self.held.fill(0);
        let mut shared = false;
        for c in self.grants.values().flat_map(|d| &d.cores) {
            if let Some(h) = self.held.get_mut(c.0) {
                *h += 1;
                shared |= *h > 1;
            }
        }
        if !shared {
            let cap = self.hw.capacity();
            for k in 0..self.hw.num_kinds() {
                let used: u32 = self.grants.values().map(|d| d.erv.cores_of_kind(k)).sum();
                if used > cap.count(CoreKind(k)) {
                    self.out
                        .violation(format!("{what}: kind {k} oversubscribed ({used} cores)"));
                }
            }
        }
        if let Some(e) = &out.energy {
            let attributed: u64 = e.entries.iter().map(|x| x.tick_uj).sum();
            if e.tick_uj != e.idle_tick_uj + attributed {
                self.out.violation(format!(
                    "{what}: tick energy {} != idle {} + attributed {attributed}",
                    e.tick_uj, e.idle_tick_uj
                ));
            }
        }
    }

    /// Online-core fraction times mean cluster cap: the machine's
    /// remaining capacity, which scales synthetic power and utility.
    fn degrade(&self) -> f64 {
        let online =
            self.offline.iter().filter(|o| !**o).count() as f64 / self.offline.len() as f64;
        let cap: u32 = self.cap_permille.iter().sum();
        online * f64::from(cap) / (f64::from(CAP_NOMINAL_PERMILLE) * self.cap_permille.len() as f64)
    }

    fn tick(&mut self) {
        let degrade = self.degrade();
        let watts = (20.0 + 2.0 * self.live.len() as f64) * degrade;
        self.metered_uj += (watts * TICK_DT_S * 1e6).round() as u64;
        let kinds = self.hw.num_kinds();
        let apps: Vec<AppObservation> = self
            .live
            .iter_mut()
            .map(|(&key, l)| {
                // CPU time follows the granted cores, so the ledger splits
                // energy by what each session actually held.
                if let Some(d) = self.grants.get(&key) {
                    for (k, cpu) in l.cpu.iter_mut().enumerate().take(kinds) {
                        *cpu += TICK_DT_S * f64::from(d.erv.cores_of_kind(k));
                    }
                }
                // Progress is the profile's utility at the granted point,
                // scaled by what the faults left of the machine.
                let utility = self.grants.get(&key).and_then(|d| {
                    self.profiles[l.template.as_str()]
                        .iter()
                        .find(|(_, p)| p.erv == d.erv)
                        .map(|(_, p)| p.nfc.utility)
                });
                AppObservation {
                    app: AppId(key),
                    utility_rate: utility.unwrap_or(0.0) * degrade,
                    cpu_time: l.cpu.clone(),
                }
            })
            .collect();
        let obs = TickObservations {
            dt_s: TICK_DT_S,
            package_energy_j: self.metered_uj as f64 / 1e6,
            apps,
        };
        self.call("rm.tick", false, |rm| rm.tick(&obs));
        self.tally.events += 1;
    }

    fn run(mut self, trace: &Trace) {
        let events = &trace.events;
        let mut i = 0;
        while i < events.len() {
            let t = events[i].at();
            while i < events.len() && events[i].at() == t {
                self.event(&events[i]);
                self.tally.events += 1;
                i += 1;
            }
            // One synthetic measurement interval per distinct event time.
            self.tick();
        }
        for _ in 0..QUIESCENCE_TICKS {
            if self.rm.all_stable() {
                break;
            }
            self.tick();
        }
        if !self.rm.all_stable() {
            self.out
                .violation("RM not stable after the quiescence drive");
        }
        let ledger = self.rm.ledger();
        if ledger.conservation_error() != 0 {
            self.out.violation(format!(
                "ledger conservation off by {} uJ",
                ledger.conservation_error()
            ));
        }
        if ledger.total_uj().abs_diff(self.metered_uj) > 1 {
            self.out.violation(format!(
                "ledger total {} uJ vs metered {} uJ",
                ledger.total_uj(),
                self.metered_uj
            ));
        }
        let managed: Vec<u64> = self.rm.managed_apps().iter().map(|a| a.raw()).collect();
        let expected: Vec<u64> = self.live.keys().copied().collect();
        if managed != expected {
            self.out.violation(format!(
                "RM manages {} sessions, trace has {} live",
                managed.len(),
                expected.len()
            ));
        }
    }

    fn event(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Arrive {
                key,
                class,
                template,
                ..
            } => {
                self.live.insert(
                    key,
                    Live {
                        template,
                        cpu: vec![0.0; self.hw.num_kinds()],
                    },
                );
                let app = AppId(key);
                self.call("rm.register", true, |rm| {
                    rm.register(app, template.as_str(), false)
                });
                let points = submitted_points(&self.profiles[template.as_str()]);
                self.call("rm.submit_points", true, |rm| rm.submit_points(app, points));
                if class != PriorityClass::Standard {
                    self.call("rm.set_priority", true, |rm| {
                        rm.set_priority(app, class.weight())
                    });
                }
            }
            TraceEvent::Depart { key, .. } => {
                if self.live.remove(&key).is_some() {
                    self.grants.remove(&key);
                    self.call("rm.deregister", true, |rm| rm.deregister(AppId(key)));
                }
            }
            TraceEvent::Priority { key, class, .. } => {
                if self.live.contains_key(&key) {
                    self.call("rm.set_priority", true, |rm| {
                        rm.set_priority(AppId(key), class.weight())
                    });
                }
            }
            // Flash-crowd traces carry no load shifts.
            TraceEvent::Load { .. } => {}
            TraceEvent::Fault { ev, .. } => {
                match ev {
                    FaultEvent::CoreFail { core } => self.offline[core.0] = true,
                    FaultEvent::CoreRecover { core } => self.offline[core.0] = false,
                    FaultEvent::ThermalCap { cluster, permille } => {
                        self.cap_permille[cluster as usize] = permille;
                    }
                    FaultEvent::SensorDrop { .. } => {}
                }
                self.call("rm.inject_fault", true, |rm| rm.inject_fault(&ev));
            }
        }
    }
}

/// Runs the workload for whole rounds for about `seconds`; the DSE sweep
/// of the set-up runs on `workers` threads. Timings are process CPU time.
pub fn run(seed: u64, seconds: u64, traced: bool, workers: usize) -> Outcome {
    jobs::set_worker_override(Some(workers));
    let hw = Platform::RaptorLake.hardware();
    let mut out = Outcome::default();

    // Set-up: the templates' operating points, then the traces.
    let mut setups = Vec::new();
    let mut parses = Vec::new();
    let mut sweeps = Vec::new();
    let mut profiles = None;
    let mut traces = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = process_cpu_s();
        let swept = {
            let _s = spans::span("dse");
            template_profiles()
        };
        sweeps.push((process_cpu_s() - t) * 1e3);
        profiles = out.setup("dse::offline_profiles", swept);
        if profiles.is_none() {
            return out;
        }
        traces = (0..TRACES)
            .map(|i| {
                let (trace, parse_ms) = setup(&hw, trace_seed(seed, i), &mut out);
                parses.push(parse_ms);
                trace
            })
            .collect();
        setups.push(process_cpu_s() - t);
    }
    let profiles = profiles.expect("set-up ran");

    let alloc_before = harp_alloc::stats::snapshot();
    let mut tally = Tally::default();
    let mut rounds = Vec::new();
    let start = Instant::now();
    // A traced run also replays enough arrivals for the per-call p99s of
    // `register` and `submit_points`.
    let registers = |rounds: usize| rounds * (ARRIVALS as usize) * TRACES as usize;
    let mut wall_s = 0.0;
    while rounds.is_empty()
        || another_round(start, seconds, wall_s)
        || tally.op_us.len() < MIN_OP_SAMPLES
        || (traced && registers(rounds.len()) < MIN_OP_SAMPLES)
    {
        let (w, t) = (Instant::now(), process_cpu_s());
        for trace in &traces {
            let _s = spans::span("replay");
            let replay = Replay {
                hw: &hw,
                profiles: &profiles,
                rm: RmCore::new(hw.clone(), RmConfig::default()),
                live: BTreeMap::new(),
                grants: BTreeMap::new(),
                offline: vec![false; hw.num_cores()],
                cap_permille: vec![CAP_NOMINAL_PERMILLE; hw.num_kinds()],
                metered_uj: 0,
                kind_of: (0..hw.num_cores())
                    .map(|c| hw.kind_of_core(CoreId(c)).expect("core in range").0)
                    .collect(),
                per_kind: vec![0; hw.num_kinds()],
                held: vec![0; hw.num_cores()],
                out: &mut out,
                tally: &mut tally,
            };
            replay.run(trace);
        }
        rounds.push(process_cpu_s() - t);
        wall_s = w.elapsed().as_secs_f64();
    }
    let alloc = harp_alloc::stats::snapshot();
    out.rounds = rounds.len() as u64;

    out.e2e.insert("setup_s", median(&setups).unwrap_or(0.0));
    out.e2e.insert("peak_rss_mb", peak_rss_mib().unwrap_or(0.0));
    let round_s = median(&rounds).unwrap_or(0.0);
    out.e2e.insert(
        "ops_per_s",
        tally.events as f64 / rounds.iter().sum::<f64>(),
    );
    out.e2e
        .insert("op_p50_us", median(&tally.op_us).unwrap_or(0.0));
    out.e2e
        .insert("op_tail_us", percentile(&tally.op_us, 90.0).unwrap_or(0.0));
    out.e2e.insert("round_s", round_s);

    if traced {
        let spans = spans::take();
        let durations = spans::durations_us(&spans);
        let r = out.rounds as f64;
        out.layer("workload.parse_ms", median(&parses).unwrap_or(0.0));
        out.layer("dse.ms", median(&sweeps).unwrap_or(0.0));
        let mut rm_us = 0.0;
        // A traced run sees about 300 priority changes, 400 departures
        // and 40 faults: too few for a p99 with ten samples beyond it.
        for (f, with_p99) in [
            ("register", true),
            ("submit_points", true),
            ("set_priority", false),
            ("deregister", false),
            ("inject_fault", false),
            ("tick", true),
        ] {
            let name = format!("rm.{f}");
            let samples = durations.get(name.as_str()).cloned().unwrap_or_default();
            rm_us += samples.iter().sum::<f64>();
            out.call_stats(&name, &samples, true, with_p99);
        }
        out.layer("rm.directives", tally.directives as f64 / r);
        out.layer("rm.directives_changed", tally.changed as f64 / r);
        out.layer("rm.solves", tally.solves as f64 / r);
        alloc_layers(&mut out, &alloc_before, &alloc);
        let solve_ms = (alloc.wall_ns - alloc_before.wall_ns) as f64 / 1e6;
        out.layer("rm.non_solve_ms", (rm_us / 1e3 - solve_ms) / r);
        out.traced_copies(&spans);
        crate::finish_trace("rm-flash-crowd", seed, &spans);
    }
    out
}

/// Per-round deltas of the process-wide solver counters.
pub fn alloc_layers(
    out: &mut Outcome,
    before: &harp_alloc::stats::SolverStats,
    after: &harp_alloc::stats::SolverStats,
) {
    let r = out.rounds.max(1) as f64;
    let d = |a: u64, b: u64| (a - b) as f64 / r;
    out.layer("alloc.solves", d(after.solves, before.solves));
    out.layer("alloc.solve_ms", d(after.wall_ns, before.wall_ns) / 1e6);
    out.layer("alloc.memo_hits", d(after.memo_hits, before.memo_hits));
    out.layer("alloc.certified", d(after.certified, before.certified));
    out.layer("alloc.full", d(after.full, before.full));
    out.layer(
        "alloc.pruned_options",
        d(after.pruned_options, before.pruned_options),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn templates_submit_enough_points_to_start_stable() {
        jobs::set_worker_override(Some(2));
        let profiles = template_profiles().expect("DSE sweep");
        for t in Template::ALL {
            let pts = submitted_points(&profiles[t.as_str()]);
            // The RM's default `stable_threshold` is 25 points.
            assert!(pts.len() >= 25, "{t:?}: {}", pts.len());
            assert!(pts
                .iter()
                .all(|(_, n)| n.utility > 0.0 && n.power > 0.0 && n.utility.is_finite()));
        }
    }

    #[test]
    fn same_seed_same_trace_and_faults() {
        let hw = Platform::RaptorLake.hardware();
        let a = generate_trace("x", &trace_config(&hw, 7));
        let b = generate_trace("x", &trace_config(&hw, 7));
        assert_eq!(a.to_canonical_text(), b.to_canonical_text());
        assert_eq!(a.faults(), 6);
        assert_eq!(a.arrivals(), ARRIVALS as usize);
    }
}
