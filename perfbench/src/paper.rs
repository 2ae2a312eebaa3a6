//! `paper-eval`: the paper's evaluation cut to a few seconds — all of
//! Fig. 7 (Odroid, HARP (Offline) vs EAS) and the reduced Fig. 6 cells
//! (Raptor Lake: CFS, ITD, HARP with online-learned points, HARP
//! (Offline), HARP (No Scaling)) — through the public `dse`, `runner` and
//! `jobs` functions of harp-bench.
//!
//! The simulator and the scheduler frontends do the work; the RM runs in
//! its periodic-tick mode with online exploration.

use crate::report::Outcome;
use crate::spans;
use crate::stats::{another_round, median, peak_rss_mib, percentile, process_cpu_s, thread_cpu_s};
use harp_bench::runner::{self, ManagerKind, ProfileStore, RunMetrics, RunOptions};
use harp_bench::{cache, dse, jobs};
use harp_platform::Governor;
use harp_sched::{CfsManager, EasManager, HarpManagerConfig, HarpSimManager, ItdManager};
use harp_sim::{AppReport, AppSpec, Manager, RunReport, SECOND};
use harp_types::Result;
use harp_workload::{Platform, Scenario};
use std::time::Instant;

/// Measurement horizon of one DSE configuration (simulated seconds), as in
/// the figures.
const DSE_HORIZON_S: f64 = 600.0;
/// Online-learning warm-up per Fig. 6 scenario (the reduced figure's).
const WARMUP_S: u64 = 90;
/// DSE sweeps timed per run (the median is reported).
const SETUP_REPEATS: usize = 3;
/// Seed of every measured cell's simulation (`RunOptions::default`'s, as
/// in the figures).
const RUN_SEED: u64 = 1;
/// Seed of the Fig. 6 online-learning runs, as in the figure.
const LEARN_SEED: u64 = 23;
/// Cell timings needed before the run may stop, so the p90 has at least
/// ten samples beyond it.
const MIN_CELL_SAMPLES: usize = 100;

/// The reduced Fig. 6 scenarios (Raptor Lake) and whether each is in the
/// multi-application group.
pub fn fig6_scenarios() -> Vec<(Scenario, bool)> {
    vec![
        (Scenario::of(Platform::RaptorLake, &["mg"]), false),
        (Scenario::of(Platform::RaptorLake, &["binpack"]), false),
        (
            Scenario::of(Platform::RaptorLake, &["cg", "ep", "ft"]),
            true,
        ),
    ]
}

/// The Fig. 7 scenarios (Odroid) of the reduced figure.
pub fn fig7_scenarios() -> Vec<(Scenario, bool)> {
    vec![
        (Scenario::of(Platform::Odroid, &["mg"]), false),
        (Scenario::of(Platform::Odroid, &["mandelbrot"]), false),
        (
            Scenario::of(Platform::Odroid, &["mandelbrot-static"]),
            false,
        ),
        (Scenario::of(Platform::Odroid, &["is", "mg"]), true),
    ]
}

const FIG6_MANAGERS: [ManagerKind; 5] = [
    ManagerKind::Cfs,
    ManagerKind::Itd,
    ManagerKind::Harp,
    ManagerKind::HarpOffline,
    ManagerKind::HarpNoScaling,
];
const FIG7_MANAGERS: [ManagerKind; 2] = [ManagerKind::Eas, ManagerKind::HarpOffline];

/// Span name and metric key of each manager.
fn manager_names(kind: ManagerKind) -> (&'static str, &'static str) {
    match kind {
        ManagerKind::Cfs => ("sim.cfs", "cfs"),
        ManagerKind::Eas => ("sim.eas", "eas"),
        ManagerKind::Itd => ("sim.itd", "itd"),
        ManagerKind::Harp => ("sim.harp", "harp"),
        ManagerKind::HarpOffline => ("sim.harp_offline", "harp_offline"),
        ManagerKind::HarpNoScaling => ("sim.harp_noscaling", "harp_noscaling"),
        ManagerKind::HarpOverheadOnly => ("sim.harp_overhead", "harp_overhead"),
    }
}

fn is_harp(kind: ManagerKind) -> bool {
    !matches!(kind, ManagerKind::Cfs | ManagerKind::Eas | ManagerKind::Itd)
}

/// One evaluation cell: a scenario under a manager.
struct Cell {
    platform: Platform,
    scenario: usize,
    multi: bool,
    kind: ManagerKind,
}

/// What one cell's simulation returned, and the CPU time it took (each
/// cell runs on one pool thread).
struct CellRun {
    report: Result<RunReport>,
    cpu_s: f64,
}

fn manager(
    kind: ManagerKind,
    platform: Platform,
    profiles: Option<&ProfileStore>,
) -> Box<dyn Manager> {
    match kind {
        ManagerKind::Cfs => Box::new(CfsManager::new()),
        ManagerKind::Eas => Box::new(EasManager::new()),
        ManagerKind::Itd => Box::new(ItdManager::new()),
        _ => {
            let mut cfg = HarpManagerConfig::default();
            match kind {
                ManagerKind::HarpOffline => cfg.rm.offline = true,
                ManagerKind::HarpNoScaling => cfg.scaling = false,
                _ => {}
            }
            let mut mgr = HarpSimManager::new(cfg);
            if let Some(profiles) = profiles {
                let rm = mgr.init_rm(platform.hardware());
                for (name, table) in profiles {
                    rm.load_profile(name.clone(), table.clone());
                }
            }
            Box::new(mgr)
        }
    }
}

/// The most work the HARP frontend can add to an instance as management
/// overhead. `HarpSimManager` charges every directive a message round trip
/// plus its share of the modelled solve, and every tick a further half
/// round trip; `Simulation::charge_overhead` converts that time to work
/// units at a master thread's rate on the first core kind and adds them
/// to the instance's next chunk, so they count in `work_done`. Each tick
/// and each start or exit of any instance in the run invokes the RM at
/// most once; each invocation is bounded here by one full solve.
fn max_overhead_work(platform: Platform, spec: &AppSpec, rec: &AppReport, instances: usize) -> f64 {
    let rm = HarpManagerConfig::default().rm;
    let interval = rm.exploration.measurement_interval_ns.max(1);
    let ticks = (rec.end_ns - rec.start_ns) / interval + 1;
    let invocations = ticks + 2 * instances as u64 + 2;
    let per_invocation_ns = rm.message_cost_ns + rm.message_cost_ns / 2 + rm.solve_cost_ns;
    let rate = platform.hardware().clusters[0].perf.ips_per_thread * spec.kind_efficiency[0];
    (invocations * per_invocation_ns) as f64 / 1e9 * rate
}

/// Checks one cell's report against its scenario: every instance
/// finished within the horizon, and package energy exceeds the
/// per-cluster sum (the uncore share). Returns the first instance whose
/// retired work is wrong; the caller counts such a cell as a failed
/// operation. An instance retires exactly its spec's `total_work()` (to
/// 1e-6 relative) under CFS, EAS and ITD; under HARP it may retire more,
/// by at most the overhead work the frontend can charge it.
fn check_report(
    out: &mut Outcome,
    what: &str,
    cell: &Cell,
    scenario: &Scenario,
    r: &RunReport,
) -> Option<String> {
    if !r.partial.is_empty() {
        out.violation(format!(
            "{what}: {} instances hit the horizon",
            r.partial.len()
        ));
    }
    if r.apps.len() != scenario.apps.len() {
        out.violation(format!(
            "{what}: {} of {} instances finished",
            r.apps.len(),
            scenario.apps.len()
        ));
    }
    let mut wrong_work = None;
    for rec in &r.apps {
        match scenario.apps.iter().find(|a| a.name == rec.name) {
            Some(spec) => {
                let want = spec.total_work();
                let tolerance = 1e-6 * want;
                let overhead = if is_harp(cell.kind) {
                    max_overhead_work(cell.platform, spec, rec, r.apps.len())
                } else {
                    0.0
                };
                let ok = rec.work_done >= want - tolerance
                    && rec.work_done <= want + tolerance + overhead;
                if !ok && wrong_work.is_none() {
                    wrong_work = Some(format!(
                        "{what}: {} retired {} of {want} work (overhead allowance {overhead})",
                        rec.name, rec.work_done
                    ));
                }
            }
            None => out.violation(format!("{what}: unknown instance {}", rec.name)),
        }
    }
    let clusters: f64 = r.cluster_energy_j.iter().sum();
    if r.total_energy_j <= clusters {
        out.violation(format!(
            "{what}: package energy {} J <= cluster sum {clusters} J",
            r.total_energy_j
        ));
    }
    wrong_work
}

fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len().max(1) as f64).exp()
}

/// Per-pass accumulators.
#[derive(Default)]
struct Tally {
    cell_us: Vec<f64>,
    sim_s: f64,
    sim_events: u64,
    learn_ms: f64,
    learn_runs: u64,
    by_manager: std::collections::BTreeMap<&'static str, (f64, u64)>,
    outcome: Option<(f64, f64)>,
    first_failure: Option<String>,
}

/// Every (scenario, manager) cell of both figures, in an order drawn from
/// `seed`: the seed decides which cells share the pool at the same time,
/// while each cell's simulation keeps the figures' fixed seeds, so the
/// simulated outcomes are the same for every seed.
fn cells(seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (i, (_, multi)) in fig6_scenarios().iter().enumerate() {
        for kind in FIG6_MANAGERS {
            cells.push(Cell {
                platform: Platform::RaptorLake,
                scenario: i,
                multi: *multi,
                kind,
            });
        }
    }
    for (i, (_, multi)) in fig7_scenarios().iter().enumerate() {
        for kind in FIG7_MANAGERS {
            cells.push(Cell {
                platform: Platform::Odroid,
                scenario: i,
                multi: *multi,
                kind,
            });
        }
    }
    let mut state = seed;
    for i in (1..cells.len()).rev() {
        state = crate::rm_flash::mix(state);
        cells.swap(i, (state % (i as u64 + 1)) as usize);
    }
    cells
}

/// One evaluation pass: the learning wave, then every cell on the pool.
fn pass(
    cells: &[Cell],
    offline6: &ProfileStore,
    offline7: &ProfileStore,
    out: &mut Outcome,
    tally: &mut Tally,
) {
    let fig6 = fig6_scenarios();
    let fig7 = fig7_scenarios();
    // Learning wave: one online warm-up run per Fig. 6 scenario.
    let t = process_cpu_s();
    let learned: Vec<Result<ProfileStore>> = {
        let _s = spans::span("learn");
        let parent = spans::current();
        jobs::parallel_map(&fig6, |(scenario, _)| {
            let _a = spans::adopt(parent);
            let _s = spans::span("sim.learn");
            runner::learn_profiles(
                Platform::RaptorLake,
                scenario,
                WARMUP_S * SECOND,
                LEARN_SEED,
            )
        })
    };
    tally.learn_ms += (process_cpu_s() - t) * 1e3;
    tally.learn_runs += learned.len() as u64;
    let learned: Vec<Option<ProfileStore>> = learned
        .into_iter()
        .map(|l| out.op("runner::learn_profiles", l))
        .collect();
    if learned.iter().any(Option::is_none) {
        return;
    }

    // Measurement wave: every cell on the pool.
    let runs: Vec<CellRun> = {
        let _s = spans::span("measure");
        let parent = spans::current();
        jobs::parallel_map(cells, |c| {
            let _a = spans::adopt(parent);
            let (scenario, profiles, governor) = match c.platform {
                Platform::RaptorLake => {
                    let profiles = match c.kind {
                        ManagerKind::HarpOffline => Some(offline6),
                        ManagerKind::Harp | ManagerKind::HarpNoScaling => {
                            learned[c.scenario].as_ref()
                        }
                        _ => None,
                    };
                    (&fig6[c.scenario].0, profiles, Governor::Powersave)
                }
                Platform::Odroid => {
                    let profiles = (c.kind == ManagerKind::HarpOffline).then_some(offline7);
                    (&fig7[c.scenario].0, profiles, Governor::Schedutil)
                }
            };
            let opts = RunOptions {
                seed: RUN_SEED,
                governor,
                solver_threads: 0,
                ..RunOptions::default()
            };
            let mut mgr = manager(c.kind, c.platform, profiles);
            let _s = spans::span(manager_names(c.kind).0);
            let t = thread_cpu_s();
            let report = runner::run_with_manager(c.platform, scenario, &opts, mgr.as_mut());
            CellRun {
                report,
                cpu_s: thread_cpu_s() - t,
            }
        })
    };

    let mut harp_energy = 0.0;
    let mut harp_makespan = 0.0;
    // Multi-group (baseline, HARP) metrics per figure.
    let mut multi6: Vec<(Option<RunMetrics>, Option<RunMetrics>)> = Vec::new();
    let mut multi7: Vec<(Option<RunMetrics>, Option<RunMetrics>)> = Vec::new();
    for (c, run) in cells.iter().zip(runs) {
        let (span, _) = manager_names(c.kind);
        let scenario = match c.platform {
            Platform::RaptorLake => &fig6[c.scenario].0,
            Platform::Odroid => &fig7[c.scenario].0,
        };
        let what = format!("{span} {}", scenario.name);
        let Some(report) = out.op(&what, run.report) else {
            continue;
        };
        if let Some(wrong) = check_report(out, &what, c, scenario, &report) {
            out.failed += 1;
            tally.first_failure.get_or_insert(wrong);
        }
        tally.cell_us.push(run.cpu_s * 1e6);
        tally.sim_s += run.cpu_s;
        tally.sim_events += report.events;
        let e = tally.by_manager.entry(span).or_default();
        e.0 += run.cpu_s * 1e3;
        e.1 += report.events;
        let m = RunMetrics {
            makespan_s: report.makespan_s(),
            energy_j: report.total_energy_j,
        };
        if is_harp(c.kind) {
            harp_energy += m.energy_j;
            harp_makespan += m.makespan_s;
        }
        if c.multi {
            let (group, baseline, harp) = match c.platform {
                Platform::RaptorLake => (&mut multi6, ManagerKind::Cfs, ManagerKind::Harp),
                Platform::Odroid => (&mut multi7, ManagerKind::Eas, ManagerKind::HarpOffline),
            };
            if group.len() <= c.scenario {
                group.resize(c.scenario + 1, (None, None));
            }
            if c.kind == baseline {
                group[c.scenario].0 = Some(m);
            } else if c.kind == harp {
                group[c.scenario].1 = Some(m);
            }
        }
    }
    // HARP must save energy over the baseline scheduler on the
    // multi-application group of each figure: the method's purpose.
    for (fig, group) in [("fig6", multi6), ("fig7", multi7)] {
        let gains: Vec<f64> = group
            .into_iter()
            .filter_map(|(b, h)| Some(runner::improvement(b?, h?).energy))
            .collect();
        if gains.is_empty() || geomean(&gains) <= 1.0 {
            out.violation(format!(
                "{fig}: HARP multi-app energy gain {:.3} is not above 1",
                geomean(&gains)
            ));
        }
    }
    // Simulated outcomes are deterministic: every pass must repeat them.
    match tally.outcome {
        None => tally.outcome = Some((harp_energy, harp_makespan)),
        Some((e, m)) => {
            if e.to_bits() != harp_energy.to_bits() || m.to_bits() != harp_makespan.to_bits() {
                out.violation(format!(
                    "HARP outcome changed between passes: {e} J/{m} s vs {harp_energy} J/{harp_makespan} s"
                ));
            }
        }
    }
}

/// Runs the workload for whole passes for about `seconds` on a pool of
/// `workers` threads. Timings are CPU time: a pass and a set-up are
/// process CPU time, a cell is its pool thread's.
pub fn run(seed: u64, seconds: u64, traced: bool, workers: usize) -> Outcome {
    jobs::set_worker_override(Some(workers));
    let mut out = Outcome::default();
    let apps = |scens: Vec<(Scenario, bool)>| -> Vec<AppSpec> {
        scens.into_iter().flat_map(|(s, _)| s.apps).collect()
    };
    let (apps6, apps7) = (apps(fig6_scenarios()), apps(fig7_scenarios()));

    // Set-up: the offline DSE sweeps behind HARP (Offline), recomputed from
    // an empty profile cache each time.
    let mut setups = Vec::new();
    let mut offline = None;
    for _ in 0..SETUP_REPEATS {
        cache::reset();
        let t = process_cpu_s();
        let sweep = {
            let _s = spans::span("dse");
            let six = dse::offline_profiles(Platform::RaptorLake, &apps6, DSE_HORIZON_S);
            let seven = dse::offline_profiles(Platform::Odroid, &apps7, DSE_HORIZON_S);
            six.and_then(|a| Ok((a, seven?)))
        };
        setups.push(process_cpu_s() - t);
        offline = out.setup("dse::offline_profiles", sweep);
        if offline.is_none() {
            return out;
        }
    }
    let (offline6, offline7) = offline.expect("set-up ran");

    let cells = cells(seed);
    let alloc_before = harp_alloc::stats::snapshot();
    let mut tally = Tally::default();
    let mut rounds = Vec::new();
    let start = Instant::now();
    let mut wall_s = 0.0;
    while rounds.is_empty()
        || another_round(start, seconds, wall_s)
        || tally.cell_us.len() < MIN_CELL_SAMPLES
    {
        let (w, t) = (Instant::now(), process_cpu_s());
        {
            let _s = spans::span("pass");
            pass(&cells, &offline6, &offline7, &mut out, &mut tally);
        }
        rounds.push(process_cpu_s() - t);
        wall_s = w.elapsed().as_secs_f64();
    }
    if let Some(first) = &tally.first_failure {
        eprintln!(
            "perfbench: {} operations failed; first: {first}",
            out.failed
        );
    }
    let alloc_after = harp_alloc::stats::snapshot();
    out.rounds = rounds.len() as u64;
    let r = out.rounds as f64;

    out.e2e.insert("setup_s", median(&setups).unwrap_or(0.0));
    out.e2e.insert("peak_rss_mb", peak_rss_mib().unwrap_or(0.0));
    out.e2e
        .insert("ops_per_s", tally.sim_events as f64 / tally.sim_s.max(1e-9));
    out.e2e
        .insert("op_p50_us", median(&tally.cell_us).unwrap_or(0.0));
    out.e2e.insert(
        "op_tail_us",
        percentile(&tally.cell_us, 90.0).unwrap_or(0.0),
    );
    out.e2e.insert("round_s", median(&rounds).unwrap_or(0.0));

    if traced {
        let spans = spans::take();
        out.layer("dse.ms", median(&setups).unwrap_or(0.0) * 1e3);
        out.layer("learn.ms", tally.learn_ms / r);
        out.layer("learn.runs", tally.learn_runs as f64 / r);
        for kind in [
            ManagerKind::Cfs,
            ManagerKind::Eas,
            ManagerKind::Itd,
            ManagerKind::Harp,
            ManagerKind::HarpOffline,
            ManagerKind::HarpNoScaling,
        ] {
            let (span, key) = manager_names(kind);
            let (ms, events) = tally.by_manager.get(span).copied().unwrap_or_default();
            out.layer(&format!("sim.{key}.ms"), ms / r);
            out.layer(&format!("sim.{key}.events"), events as f64 / r);
        }
        let (energy, makespan) = tally.outcome.unwrap_or_default();
        out.layer("eval.harp_energy_j", energy);
        out.layer("eval.harp_makespan_s", makespan);
        crate::rm_flash::alloc_layers(&mut out, &alloc_before, &alloc_after);
        out.traced_copies(&spans);
        crate::finish_trace("paper-eval", seed, &spans);
    }
    out
}
