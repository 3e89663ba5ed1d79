//! The simulator workloads: the benchmark builds each engine run from
//! public APIs (`TraceSource::materialise`, `SchedulerKind::build`,
//! `Simulation::new`) and drives `Simulation::step` itself.

use crate::adapters::{lock, RoundLog, SharedLog, TimedScheduler};
use crate::report::{registry_counters, Report};
use crate::spans::{self, Recorder, CORE_TID};
use crate::stats::{median, Summary};
use ones_cluster::ClusterSpec;
use ones_dlperf::PerfModel;
use ones_obs::ArgValue;
use ones_simcore::DetRng;
use ones_simulator::{JobMetrics, SchedulerKind, SimConfig, Simulation, StepOutcome, TraceSource};
use ones_workload::{ReplayConfig, TraceConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One simulator workload.
pub struct SimWorkload {
    /// Cluster size in GPUs.
    pub gpus: u32,
    /// Scheduler under test.
    pub scheduler: SchedulerKind,
    /// The trace of one sub-run, from its seed.
    pub source: fn(u64) -> TraceSource,
    /// How much of each sub-trace a run measures.
    pub extent: Extent,
    /// Decision-latency limit of one round, milliseconds (`slo_ok_ratio`).
    pub round_limit_ms: f64,
}

/// How much of its sub-traces a run measures. Either way the amount of
/// work depends on `--seconds` only, never on how fast it went.
#[derive(Debug, Clone, Copy)]
pub enum Extent {
    /// Each sub-trace runs to completion, all of it timed; a run of `s`
    /// seconds covers `round(s * traces_per_sec)` sub-traces (at least 2).
    Complete {
        /// Sub-traces per measured second.
        traces_per_sec: f64,
    },
    /// Each of `traces` sub-traces first runs `warmup` scheduling rounds
    /// untimed, so the cluster fills up as it does in a whole run; then a
    /// window of `round(s * rounds_per_sec / traces)` rounds is timed.
    Window {
        /// Sub-traces per run.
        traces: usize,
        /// Untimed rounds before the window.
        warmup: usize,
        /// Timed rounds per measured second, over all sub-traces.
        rounds_per_sec: f64,
    },
}

/// Seed of the Figure 15 trace in `fig15_jct_comparison`.
const FIG15_TRACE_SEED: u64 = 42;

/// ONES on the paper's Figure 15 setup, as `fig15_jct_comparison` runs
/// it: its trace of 120 Table 2 jobs with Poisson arrivals 30 s apart on
/// 64 GPUs. The workload seed seeds the scheduler, as in every workload,
/// so each seed is another ONES run over the same jobs: a single 120-job trace's mix
/// moves the window's cost too much (round p50 13–20 ms over five trace
/// seeds) to draw a new trace per seed. The first 900 rounds fill the
/// cluster to its steady ~25 running jobs; the timed window follows.
pub fn fig15_64(round_limit_ms: f64) -> SimWorkload {
    SimWorkload {
        gpus: 64,
        scheduler: SchedulerKind::Ones,
        source: |_| {
            TraceSource::Table2(TraceConfig {
                num_jobs: 120,
                arrival_rate: 1.0 / 30.0,
                seed: FIG15_TRACE_SEED,
                kill_fraction: 0.0,
            })
        },
        extent: Extent::Window {
            traces: 1,
            warmup: 900,
            rounds_per_sec: 24.0,
        },
        round_limit_ms,
    }
}

/// ONES at 1 024 GPUs (population K = |C| = 1 024) on a 16-job
/// Philly-style replay, jobs about 1 s apart. The first 16 rounds admit
/// the jobs; the timed window follows, with all 16 running.
pub fn ones_1k(round_limit_ms: f64) -> SimWorkload {
    SimWorkload {
        gpus: 1024,
        scheduler: SchedulerKind::Ones,
        source: |seed| {
            TraceSource::Replay(ReplayConfig {
                num_jobs: 16,
                base_rate: 1.0,
                seed,
                ..ReplayConfig::default()
            })
        },
        extent: Extent::Window {
            traces: 2,
            warmup: 16,
            rounds_per_sec: 1.6,
        },
        round_limit_ms,
    }
}

/// FIFO on a contended Philly-style replay at 1 024 GPUs, run to
/// completion: the engine does the work and the evolutionary search none.
pub fn replay_1k(round_limit_ms: f64) -> SimWorkload {
    SimWorkload {
        gpus: 1024,
        scheduler: SchedulerKind::Fifo,
        source: |seed| {
            TraceSource::Replay(ReplayConfig {
                num_jobs: 1000,
                seed,
                ..ReplayConfig::default()
            })
        },
        extent: Extent::Complete {
            traces_per_sec: 0.28,
        },
        round_limit_ms,
    }
}

/// About this many set-ups are timed per run; `setup_s` is their median.
const SETUPS: usize = 201;

/// Seed of sub-trace `j` of a run with workload seed `seed`.
#[must_use]
pub fn sub_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(j as u64)
}

/// What one engine run produced, over its timed part.
struct SubRun {
    synth_s: f64,
    wall_s: f64,
    /// Events in the timed part.
    events: u64,
    /// Events in the whole run, and the JCT sum of the jobs it completed:
    /// equal between an untraced and a traced run of one seed.
    events_total: u64,
    jct_sum: f64,
    completed: usize,
    log: RoundLog,
    step_us: Vec<f64>,
    /// `ones-obs` counter deltas over the timed part.
    counters: BTreeMap<&'static str, u64>,
    /// The timed part, microseconds on the recorder's clock.
    window_us: (f64, f64),
    failures: Vec<String>,
}

/// A set-up engine run, ready to step.
struct Setup {
    trace: ones_workload::Trace,
    sim: Simulation,
    log: SharedLog,
    synth_s: f64,
    setup_s: f64,
}

/// Synthesises sub-trace `seed`, builds the scheduler behind its adapter
/// and creates the simulation: everything before the first step.
fn set_up(w: &SimWorkload, seed: u64, sched_seed: u64, rec: Recorder) -> Setup {
    let t = Instant::now();
    let trace = (w.source)(seed)
        .materialise()
        .expect("generated sources cannot fail");
    let synth_s = t.elapsed().as_secs_f64();
    let spec = ClusterSpec::longhorn_subset(w.gpus);
    let layer = if w.scheduler == SchedulerKind::Fifo {
        "baselines"
    } else {
        "ones"
    };
    let inner = w.scheduler.build(&spec, &trace, &DetRng::seed(sched_seed));
    let (scheduler, log) = TimedScheduler::new(inner, rec, layer);
    let sim = Simulation::new(
        PerfModel::new(spec),
        &trace,
        Box::new(scheduler),
        SimConfig::default(),
    );
    Setup {
        setup_s: t.elapsed().as_secs_f64(),
        trace,
        sim,
        log,
        synth_s,
    }
}

/// Set-up samples taken between engine steps, about [`SETUPS`] spread
/// evenly over the run. The host's speed drifts over seconds; set-ups
/// bunched at the start of a run would time only its state then.
struct SetupSampler<'a> {
    w: &'a SimWorkload,
    seed: u64,
    every: Duration,
    next: Instant,
    samples: Vec<f64>,
}

impl<'a> SetupSampler<'a> {
    fn new(w: &'a SimWorkload, seed: u64, seconds: f64) -> Self {
        SetupSampler {
            w,
            seed,
            every: Duration::from_secs_f64(seconds / SETUPS as f64),
            next: Instant::now(),
            samples: Vec::new(),
        }
    }

    /// Times the set-up of another sub-trace if one is due; returns the
    /// time it took, which the caller leaves out of its own timing.
    fn tick(&mut self) -> Duration {
        let now = Instant::now();
        if now < self.next {
            return Duration::ZERO;
        }
        let j = self.samples.len();
        let setup = set_up(
            self.w,
            sub_seed(self.seed, j),
            self.seed,
            Recorder::disabled(),
        );
        self.samples.push(setup.setup_s);
        drop(setup);
        let end = Instant::now();
        self.next = end + self.every;
        end - now
    }
}

/// Where the timed part of a sub-run started.
struct Mark {
    at: Instant,
    events: u64,
    counters: BTreeMap<&'static str, u64>,
}

/// Sets up and runs one sub-trace: `warmup` rounds untimed, then `window`
/// rounds timed, or the rest of the trace when `window` is `None`. Takes
/// set-up samples between steps when given a sampler.
fn sub_run(
    w: &SimWorkload,
    seed: u64,
    sched_seed: u64,
    (warmup, window): (usize, Option<usize>),
    rec: Recorder,
    mut sampler: Option<&mut SetupSampler>,
) -> SubRun {
    let Setup {
        trace,
        mut sim,
        log,
        synth_s,
        ..
    } = set_up(w, seed, sched_seed, rec);
    let rounds = |log: &SharedLog| lock(log).on_event_ns.len();

    let mut step_us = Vec::new();
    let mut failures = Vec::new();
    let mut mark: Option<Mark> = None;
    let mut sampling = Duration::ZERO;
    loop {
        if mark.is_none() && rounds(&log) >= warmup {
            // The window starts: forget the warm-up's rounds.
            *lock(&log) = RoundLog::default();
            mark = Some(Mark {
                at: Instant::now(),
                events: sim.events_processed(),
                counters: registry_counters(),
            });
        }
        if mark.is_some() && window.is_some_and(|n| rounds(&log) >= n) {
            break;
        }
        let ts = Instant::now();
        let outcome = sim.step();
        let te = Instant::now();
        if mark.is_some() && rec.is_enabled() {
            step_us.push(te.duration_since(ts).as_nanos() as f64 / 1e3);
        }
        rec.record(CORE_TID, "simulator", "step", ts, te, Vec::new());
        if outcome == StepOutcome::Capped {
            failures.push(format!(
                "sub-trace {seed}: engine hit its time or event cap"
            ));
            break;
        }
        if outcome != StepOutcome::Progressed {
            break;
        }
        let spent = sampler.as_mut().map_or(Duration::ZERO, |s| s.tick());
        if mark.is_some() {
            sampling += spent;
        }
    }
    let end = Instant::now();
    let events_total = sim.events_processed();
    let log = lock(&log).clone();
    let (wall_s, events, counters, from) = match mark {
        Some(m) => {
            let after = registry_counters();
            let counters = after
                .iter()
                .map(|(k, v)| (*k, v - m.counters.get(k).copied().unwrap_or(0)))
                .collect();
            (
                (end.duration_since(m.at) - sampling).as_secs_f64(),
                events_total - m.events,
                counters,
                m.at,
            )
        }
        None => {
            failures.push(format!(
                "sub-trace {seed}: ended after {} of {warmup} warm-up rounds",
                log.on_event_ns.len()
            ));
            (0.0, 0, BTreeMap::new(), end)
        }
    };
    rec.record(
        CORE_TID,
        "bench",
        "run",
        from,
        end,
        vec![("seed", ArgValue::U64(seed))],
    );

    let (result, _) = sim.into_result();
    let jobs = trace.jobs.len();
    let metrics = JobMetrics::completed_only(&result);
    match window {
        None => {
            if result.incomplete_jobs != 0 {
                failures.push(format!(
                    "sub-trace {seed}: {} job(s) left incomplete",
                    result.incomplete_jobs
                ));
            }
            if result.completed_jobs + result.killed_jobs != jobs {
                failures.push(format!(
                    "sub-trace {seed}: completed {} + killed {} != {jobs} jobs",
                    result.completed_jobs, result.killed_jobs
                ));
            }
            if !metrics.mean_jct().is_finite() || metrics.jct.is_empty() {
                failures.push(format!("sub-trace {seed}: mean JCT is not finite"));
            }
        }
        Some(n) if log.on_event_ns.len() < n => failures.push(format!(
            "sub-trace {seed}: ended after {} of {n} window rounds",
            log.on_event_ns.len()
        )),
        Some(_) => {}
    }
    SubRun {
        synth_s,
        wall_s,
        events,
        events_total,
        jct_sum: metrics.jct.iter().sum(),
        completed: metrics.jct.len(),
        log,
        step_us,
        counters,
        window_us: (rec.us(from), rec.us(end)),
        failures,
    }
}

/// One pass over a run's sub-traces.
struct Pass {
    subs: Vec<SubRun>,
}

impl Pass {
    fn rounds_ms(&self) -> Vec<f64> {
        self.subs
            .iter()
            .flat_map(|s| s.log.on_event_ns.iter().map(|&ns| ns as f64 / 1e6))
            .collect()
    }

    fn wall_total(&self) -> f64 {
        self.subs.iter().map(|s| s.wall_s).sum()
    }

    fn mean_jct(&self) -> f64 {
        let n: usize = self.subs.iter().map(|s| s.completed).sum();
        let sum: f64 = self.subs.iter().map(|s| s.jct_sum).sum();
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// Sub-traces a run of `seconds` covers, and the warm-up and window
/// rounds of each.
fn plan(w: &SimWorkload, seconds: f64) -> (usize, (usize, Option<usize>)) {
    match w.extent {
        Extent::Complete { traces_per_sec } => (
            ((seconds * traces_per_sec).round() as usize).max(2),
            (0, None),
        ),
        Extent::Window {
            traces,
            warmup,
            rounds_per_sec,
        } => {
            let window = ((seconds * rounds_per_sec / traces as f64).round() as usize).max(1);
            (traces, (warmup, Some(window)))
        }
    }
}

/// The untraced run: end-to-end metrics.
pub fn run_timed(w: &SimWorkload, seed: u64, seconds: f64, report: &mut Report) {
    let (k, extent) = plan(w, seconds);
    let mut sampler = SetupSampler::new(w, seed, seconds);
    let pass = Pass {
        subs: (0..k)
            .map(|j| {
                let sub = sub_seed(seed, j);
                sub_run(
                    w,
                    sub,
                    seed,
                    extent,
                    Recorder::disabled(),
                    Some(&mut sampler),
                )
            })
            .collect(),
    };
    report.set("setup_s", median(&sampler.samples));
    report
        .stats
        .push(("setup_s".into(), Summary::of(sampler.samples)));
    let walls: Vec<f64> = pass.subs.iter().map(|s| s.wall_s).collect();
    report.sample("run_wall_s", walls);
    report.set("run_wall_s", pass.wall_total());
    let rounds_ms = pass.rounds_ms();
    let ok = rounds_ms
        .iter()
        .filter(|&&ms| ms <= w.round_limit_ms)
        .count();
    let rounds = Summary::of(rounds_ms);
    report.set("round_ms_p50", rounds.p50);
    report.set("slo_ok_ratio", ok as f64 / rounds.n.max(1) as f64);
    report.stats.push(("round_ms".into(), rounds.clone()));
    report.attempted += rounds.n as u64;
    report.note("sub_traces", k as f64);
    report.note("mean_jct_s", pass.mean_jct());
    for s in &pass.subs {
        report.failures.extend(s.failures.iter().cloned());
    }
}

/// Median number of running jobs the timed rounds saw (traced runs).
fn running_jobs_p50(pass: &Pass) -> f64 {
    let running: Vec<f64> = pass
        .subs
        .iter()
        .flat_map(|s| s.log.running.iter().map(|&n| n as f64))
        .collect();
    median(&running)
}

/// The traced run: untraced and traced sub-runs of the same sub-traces,
/// each half as long as in the untraced run; per-layer metrics come from
/// the traced ones.
pub fn run_traced(w: &SimWorkload, seed: u64, seconds: f64, report: &mut Report) {
    let (k, extent) = plan(w, seconds / 2.0);
    let rec = Recorder::enabled();
    // Untraced and traced sub-runs alternate, so a slow spell on the host
    // lands on both sides of the overhead comparison.
    let (mut plain, mut traced) = (Pass { subs: Vec::new() }, Pass { subs: Vec::new() });
    for j in 0..k {
        let sub = sub_seed(seed, j);
        plain
            .subs
            .push(sub_run(w, sub, seed, extent, Recorder::disabled(), None));
        traced.subs.push(sub_run(w, sub, seed, extent, rec, None));
    }
    let mut counters = BTreeMap::new();
    for s in &traced.subs {
        for (key, v) in &s.counters {
            *counters.entry(*key).or_insert(0) += v;
        }
    }
    let counter = |key: &str| counters.get(key).copied().unwrap_or(0);

    for (a, b) in plain.subs.iter().zip(&traced.subs) {
        if a.events_total != b.events_total || a.jct_sum.to_bits() != b.jct_sum.to_bits() {
            report.failures.push(format!(
                "traced run diverged: {} vs {} events, JCT sum {} vs {}",
                a.events_total, b.events_total, a.jct_sum, b.jct_sum
            ));
        }
    }
    for s in plain.subs.iter().chain(&traced.subs) {
        report.failures.extend(s.failures.iter().cloned());
    }

    let plain_rounds = Summary::of(plain.rounds_ms());
    report.set("round_ms_p99", plain_rounds.at(0.99));
    report.stats.push(("round_ms".into(), plain_rounds.clone()));
    report.attempted += plain_rounds.n as u64;
    report.set("mean_jct_s", plain.mean_jct());
    let overhead = (traced.wall_total() / plain.wall_total() - 1.0) * 100.0;
    report.set("obs.trace_overhead_pct", overhead);

    let synth: Vec<f64> = traced.subs.iter().map(|s| s.synth_s).collect();
    report.set("workload.synth_s", median(&synth));

    // Per-layer time over the timed windows only.
    let windowed: Vec<_> = spans::spans()
        .into_iter()
        .filter(|x| {
            traced
                .subs
                .iter()
                .any(|s| x.ts_us >= s.window_us.0 && x.ts_us <= s.window_us.1)
        })
        .collect();
    let by_layer = spans::self_time_by_layer(&windowed);
    let layer = |name: &str| by_layer.get(name).copied().unwrap_or(0.0);
    let mut log = RoundLog::default();
    let mut step_us = Vec::new();
    for s in &traced.subs {
        log.merge(&s.log);
        step_us.extend(s.step_us.iter().copied());
    }
    report.set(
        "simulator.events",
        traced.subs.iter().map(|s| s.events as f64).sum(),
    );
    report.set("simulator.self_s", layer("simulator"));
    let steps = Summary::of(step_us);
    report.set("simulator.step_us_p50", steps.p50);
    report.set("simulator.step_us_p99", steps.at(0.99));
    report.stats.push(("simulator.step_us".into(), steps));

    crate::report::scheduler_layers(report, &log, &by_layer);
    report.set("reconcile.ops", counter("simulator.reconcile.ops") as f64);
    report.set(
        "reconcile.noop_deploys",
        counter("simulator.reconcile.noop_deploys") as f64,
    );
    let proposals = log.proposals as f64;
    report.set(
        "reconcile.ops_per_proposal",
        if proposals > 0.0 {
            counter("simulator.reconcile.ops") as f64 / proposals
        } else {
            0.0
        },
    );
    report.self_split(&[
        ("simulator.self_s", layer("simulator")),
        ("ones.self_s", report.get("ones.self_s")),
        ("baselines.self_s", report.get("baselines.self_s")),
        ("evo.refresh_s", report.get("evo.refresh_s")),
        ("evo.derive_s", report.get("evo.derive_s")),
        ("evo.score_s", report.get("evo.score_s")),
    ]);
    report.note("sub_traces", k as f64);
    report.note("running_jobs_p50", running_jobs_p50(&traced));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(extent: Extent) -> SimWorkload {
        SimWorkload {
            gpus: 16,
            scheduler: SchedulerKind::Fifo,
            source: |seed| {
                TraceSource::Table2(TraceConfig {
                    num_jobs: 6,
                    arrival_rate: 1.0 / 30.0,
                    seed,
                    kill_fraction: 0.0,
                })
            },
            extent,
            round_limit_ms: 1e3,
        }
    }

    /// A window times exactly its rounds, after the warm-up.
    #[test]
    fn window_times_its_rounds_after_the_warm_up() {
        let w = tiny(Extent::Window {
            traces: 1,
            warmup: 3,
            rounds_per_sec: 4.0,
        });
        let (k, extent) = plan(&w, 1.0);
        assert_eq!((k, extent), (1, (3, Some(4))));
        let s = sub_run(&w, 1, 1, extent, Recorder::disabled(), None);
        assert!(s.failures.is_empty(), "{:?}", s.failures);
        assert_eq!(s.log.on_event_ns.len(), 4);
        assert!(s.events > 0 && s.events < s.events_total);
    }

    /// A window longer than the trace is a failed check, not a short run.
    #[test]
    fn window_past_the_trace_end_fails() {
        let w = tiny(Extent::Window {
            traces: 1,
            warmup: 2,
            rounds_per_sec: 1e6,
        });
        let (_, extent) = plan(&w, 1.0);
        let s = sub_run(&w, 1, 1, extent, Recorder::disabled(), None);
        assert!(s.failures.iter().any(|f| f.contains("window rounds")));
    }

    /// Run to completion, every job is accounted for.
    #[test]
    fn complete_runs_pass_the_checks() {
        let w = tiny(Extent::Complete {
            traces_per_sec: 1.0,
        });
        let (k, extent) = plan(&w, 1.0);
        assert_eq!((k, extent), (2, (0, None)));
        let s = sub_run(&w, 1, 1, extent, Recorder::disabled(), None);
        assert!(s.failures.is_empty(), "{:?}", s.failures);
        assert_eq!(s.completed, 6);
        assert_eq!(s.events, s.events_total);
    }

    /// Set-up samples are taken between steps and change no decision.
    #[test]
    fn set_up_samples_ride_along() {
        let w = tiny(Extent::Complete {
            traces_per_sec: 1.0,
        });
        let (_, extent) = plan(&w, 1.0);
        let plain = sub_run(&w, 1, 1, extent, Recorder::disabled(), None);
        // Due at every step.
        let mut sampler = SetupSampler::new(&w, 1, 0.0);
        let sampled = sub_run(&w, 1, 1, extent, Recorder::disabled(), Some(&mut sampler));
        assert!(sampler.samples.len() >= 2);
        assert!(sampler.samples.iter().all(|&x| x > 0.0));
        assert_eq!(plain.events_total, sampled.events_total);
        assert_eq!(plain.jct_sum.to_bits(), sampled.jct_sum.to_bits());
    }
}
