//! Adapters that time calls into the program's layers from outside.
//!
//! [`TimedScheduler`] wraps the boxed [`Scheduler`] that
//! `SchedulerKind::build` returns and times every `on_event`;
//! [`TimedBackend`] wraps the [`ClusterBackend`] handed to
//! `ones_d::serve`. Both forward every call unchanged, so a run with
//! adapters makes the same decisions as one without.

use crate::spans::{Recorder, CORE_TID};
use ones_obs::ArgValue;
use ones_schedcore::{
    ClusterView, ScalingMechanism, SchedEvent, SchedTuning, Schedule, Scheduler,
    SchedulerPerfCounters,
};
use ones_simcore::SimTime;
use ones_simulator::{BackendEvent, BackendPhase, ClusterBackend, Occupancy};
use ones_workload::{JobId, JobSpec};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// What the scheduler adapter learned, shared with the benchmark.
#[derive(Debug, Default, Clone)]
pub struct RoundLog {
    /// Host nanoseconds of every `on_event` call.
    pub on_event_ns: Vec<u64>,
    /// Rounds that returned a schedule.
    pub proposals: u64,
    /// Evo phase nanoseconds accumulated inside `on_event` (traced runs).
    pub refresh_ns: u64,
    /// See `refresh_ns`.
    pub derive_ns: u64,
    /// See `refresh_ns`.
    pub score_ns: u64,
    /// Generations run inside `on_event` (traced runs).
    pub generations: u64,
    /// Candidates scored (traced runs).
    pub candidates_scored: u64,
    /// Throughput-cache hits and misses (traced runs).
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// Hits and misses of each round's last generation (traced runs).
    pub warm_hits: u64,
    /// See `warm_hits`.
    pub warm_misses: u64,
    /// Per-generation milliseconds, one sample per generation, each the
    /// mean of its round (traced runs).
    pub gen_ms: Vec<f64>,
    /// `reconcile::diff` of each proposal against the deployed schedule:
    /// host nanoseconds (traced runs).
    pub diff_ns: Vec<u64>,
    /// Jobs running when each round started (traced runs).
    pub running: Vec<u32>,
}

impl RoundLog {
    /// Adds `other` into this log.
    pub fn merge(&mut self, other: &RoundLog) {
        self.on_event_ns.extend(&other.on_event_ns);
        self.proposals += other.proposals;
        self.refresh_ns += other.refresh_ns;
        self.derive_ns += other.derive_ns;
        self.score_ns += other.score_ns;
        self.generations += other.generations;
        self.candidates_scored += other.candidates_scored;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.warm_hits += other.warm_hits;
        self.warm_misses += other.warm_misses;
        self.gen_ms.extend(&other.gen_ms);
        self.diff_ns.extend(&other.diff_ns);
        self.running.extend(&other.running);
    }
}

/// Shared handle to a [`RoundLog`].
pub type SharedLog = Arc<Mutex<RoundLog>>;

/// Locks a shared log.
pub fn lock(log: &SharedLog) -> MutexGuard<'_, RoundLog> {
    log.lock().expect("a thread panicked while logging a round")
}

/// Times a boxed scheduler's rounds.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    log: SharedLog,
    rec: Recorder,
    layer: &'static str,
}

impl TimedScheduler {
    /// Wraps `inner`; spans go to `rec` when it is enabled, under
    /// `layer` (`ones` or `baselines`).
    pub fn new(inner: Box<dyn Scheduler>, rec: Recorder, layer: &'static str) -> (Self, SharedLog) {
        let log = SharedLog::default();
        let adapter = TimedScheduler {
            inner,
            log: Arc::clone(&log),
            rec,
            layer,
        };
        (adapter, log)
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn mechanism(&self) -> ScalingMechanism {
        self.inner.mechanism()
    }

    fn on_event(&mut self, event: SchedEvent, view: &ClusterView<'_>) -> Option<Schedule> {
        if !self.rec.is_enabled() {
            let t = Instant::now();
            let out = self.inner.on_event(event, view);
            let ns = t.elapsed().as_nanos() as u64;
            let mut log = lock(&self.log);
            log.on_event_ns.push(ns);
            log.proposals += u64::from(out.is_some());
            return out;
        }
        let running = view.jobs.values().filter(|j| j.is_running()).count() as u32;
        let before = self.inner.perf_counters().unwrap_or_default();
        let t = Instant::now();
        let out = self.inner.on_event(event, view);
        let end = Instant::now();
        let ns = end.duration_since(t).as_nanos() as u64;
        let after = self.inner.perf_counters().unwrap_or_default();
        let d = delta(&before, &after);
        let args = vec![
            ("refresh_ms", ArgValue::F64(d.refresh_nanos as f64 / 1e6)),
            ("derive_ms", ArgValue::F64(d.derive_nanos as f64 / 1e6)),
            ("score_ms", ArgValue::F64(d.score_nanos as f64 / 1e6)),
            ("generations", ArgValue::U64(d.generations)),
            ("proposal", ArgValue::U64(u64::from(out.is_some()))),
        ];
        self.rec
            .record(CORE_TID, self.layer, "on_event", t, end, args);
        let mut diff_ns = None;
        if let Some(desired) = &out {
            // The engine diffs the proposal against the deployed schedule
            // when it deploys it; repeat that diff here to time it.
            let t = Instant::now();
            let ops = ones_schedcore::reconcile::diff(desired, view.deployed).len();
            let end = Instant::now();
            diff_ns = Some(end.duration_since(t).as_nanos() as u64);
            let args = vec![("ops", ArgValue::U64(ops as u64))];
            self.rec
                .record(CORE_TID, "schedcore", "reconcile.diff", t, end, args);
        }
        let mut log = lock(&self.log);
        log.on_event_ns.push(ns);
        log.proposals += u64::from(out.is_some());
        log.refresh_ns += d.refresh_nanos;
        log.derive_ns += d.derive_nanos;
        log.score_ns += d.score_nanos;
        log.generations += d.generations;
        log.candidates_scored += d.candidates_scored;
        log.cache_hits += d.cache_hits;
        log.cache_misses += d.cache_misses;
        if d.generations > 0 {
            log.warm_hits += after.cache_hits_last_gen;
            log.warm_misses += after.cache_misses_last_gen;
            let per_gen = d.total_nanos() as f64 / 1e6 / d.generations as f64;
            log.gen_ms
                .extend(std::iter::repeat_n(per_gen, d.generations as usize));
        }
        log.diff_ns.extend(diff_ns);
        log.running.push(running);
        out
    }

    fn next_wakeup(&self, now: SimTime) -> Option<SimTime> {
        self.inner.next_wakeup(now)
    }

    fn scales_batch_sizes(&self) -> bool {
        self.inner.scales_batch_sizes()
    }

    fn perf_counters(&self) -> Option<SchedulerPerfCounters> {
        self.inner.perf_counters()
    }

    fn reconfigure(&mut self, tuning: &SchedTuning) -> bool {
        self.inner.reconfigure(tuning)
    }
}

fn delta(a: &SchedulerPerfCounters, b: &SchedulerPerfCounters) -> SchedulerPerfCounters {
    SchedulerPerfCounters {
        generations: b.generations - a.generations,
        candidates_scored: b.candidates_scored - a.candidates_scored,
        cache_hits: b.cache_hits - a.cache_hits,
        cache_misses: b.cache_misses - a.cache_misses,
        cache_duplicate_computes: b.cache_duplicate_computes - a.cache_duplicate_computes,
        cache_invalidations: b.cache_invalidations - a.cache_invalidations,
        cache_hits_last_gen: b.cache_hits_last_gen,
        cache_misses_last_gen: b.cache_misses_last_gen,
        refresh_nanos: b.refresh_nanos - a.refresh_nanos,
        derive_nanos: b.derive_nanos - a.derive_nanos,
        score_nanos: b.score_nanos - a.score_nanos,
    }
}

/// Submitted job names carry the request id as `<SUBMIT_PREFIX><id>`,
/// which links a request to its `ClusterBackend::submit` span.
pub const SUBMIT_PREFIX: &str = "pb-req-";

/// Times the calls the service core makes into its backend, and notes
/// when a step batch first finds nothing to do. Records spans only when
/// the recorder is enabled.
pub struct TimedBackend {
    inner: Box<dyn ClusterBackend>,
    rec: Recorder,
    first_idle: FirstIdle,
}

/// When the backend first reported [`BackendPhase::Idle`], if it has.
pub type FirstIdle = Arc<Mutex<Option<Instant>>>;

impl TimedBackend {
    /// Wraps `inner`; the returned handle reads when it first went idle.
    pub fn new(inner: Box<dyn ClusterBackend>, rec: Recorder) -> (Self, FirstIdle) {
        let first_idle = FirstIdle::default();
        let adapter = TimedBackend {
            inner,
            rec,
            first_idle: Arc::clone(&first_idle),
        };
        (adapter, first_idle)
    }
}

impl ClusterBackend for TimedBackend {
    fn scheduler_name(&self) -> String {
        self.inner.scheduler_name()
    }

    fn now_secs(&self) -> f64 {
        self.inner.now_secs()
    }

    fn submit(&mut self, spec: JobSpec) -> Result<f64, String> {
        let req = spec
            .name
            .strip_prefix(SUBMIT_PREFIX)
            .and_then(|id| id.parse().ok());
        let t = Instant::now();
        let out = self.inner.submit(spec);
        let args = req.map(|r| ("req", ArgValue::U64(r))).into_iter().collect();
        self.rec
            .record(CORE_TID, "oned", "backend.submit", t, Instant::now(), args);
        out
    }

    fn step(&mut self, max_events: u64) -> (Vec<BackendEvent>, BackendPhase) {
        let t = Instant::now();
        let out = self.inner.step(max_events);
        let end = Instant::now();
        if out.1 == BackendPhase::Idle {
            let mut first = self.first_idle.lock().expect("idle note poisoned");
            first.get_or_insert(end);
        }
        let args = vec![("events", ArgValue::U64(out.0.len() as u64))];
        self.rec
            .record(CORE_TID, "oned", "backend.step", t, end, args);
        out
    }

    fn job_statuses(&self) -> BTreeMap<JobId, ones_schedcore::JobStatus> {
        self.rec.time(CORE_TID, "oned", "backend.job_statuses", || {
            self.inner.job_statuses()
        })
    }

    fn occupancy(&self) -> Occupancy {
        self.rec.time(CORE_TID, "oned", "backend.occupancy", || {
            self.inner.occupancy()
        })
    }

    fn reconfigure(&mut self, tuning: &SchedTuning) -> bool {
        self.inner.reconfigure(tuning)
    }

    fn reconcile_state(&self) -> Option<ones_schedcore::Reconciler> {
        self.rec
            .time(CORE_TID, "oned", "backend.reconcile_state", || {
                self.inner.reconcile_state()
            })
    }
}
