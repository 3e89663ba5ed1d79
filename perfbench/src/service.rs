//! The `service` workload: `ones-d` in-process over loopback with its
//! production defaults (ONES, 64 GPUs, 64 events per core batch, a state
//! file), a preloaded Table 2 backlog that keeps the core stepping, and
//! an open-loop load from two generator threads on two connections: one
//! submits jobs, one cycles through the read endpoints.

use crate::adapters::{lock, FirstIdle, TimedBackend, TimedScheduler, SUBMIT_PREFIX};
use crate::report::{registry_counters, scheduler_layers, Report};
use crate::spans::{self, Recorder, CORE_TID};
use crate::stats::{median, Summary};
use ones_cluster::ClusterSpec;
use ones_d::{serve, Client, ServeOptions, ServerHandle};
use ones_obs::{ArgValue, SpanEvent};
use ones_simcore::DetRng;
use ones_simulator::{SchedulerKind, SimBackend, SimConfig, TraceSource};
use ones_workload::{TraceConfig, WireJobSpec};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Cluster size.
const GPUS: u32 = 64;
/// Jobs in the preloaded backlog.
const BACKLOG_JOBS: usize = 24;
/// Mean seconds between backlog arrivals (virtual time).
const BACKLOG_GAP_SECS: f64 = 2.0;
/// Submit rate of the open loop, per second.
pub const SUBMIT_HZ: f64 = 0.8;
/// Query rate of the open loop, per second.
pub const QUERY_HZ: f64 = 100.0;
/// Share of `--seconds` spent under load; the rest is set-up and
/// shutdown.
const LOAD_SHARE: f64 = 0.8;
/// Set-ups timed per session, half before the load and half after it;
/// `setup_s` is their median.
const SETUPS: usize = 100;

/// Read endpoints the query connection cycles through.
pub const QUERY_KINDS: [&str; 4] = ["cluster", "jobs", "events", "metrics"];

/// Tracks of the generator threads.
const SUBMIT_TID: u64 = 2;
const QUERY_TID: u64 = 3;

/// Latency limits of `slo_ok_ratio`, milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Submit limit, from its due time to the reply.
    pub submit_ms: f64,
    /// Query limit, from its due time to the reply.
    pub query_ms: f64,
}

/// One open-loop request.
#[derive(Debug, Clone, Copy)]
pub struct Shot {
    /// Index in the schedule.
    pub index: usize,
    /// When it was due.
    pub due: Instant,
    /// When the generator sent it.
    pub sent: Instant,
    /// When the reply arrived.
    pub done: Instant,
    /// Whether it succeeded (2xx).
    pub ok: bool,
}

impl Shot {
    /// Latency from the due time, milliseconds.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        self.done.duration_since(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent it, milliseconds.
    #[must_use]
    pub fn late_ms(&self) -> f64 {
        self.sent.duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Runs an open loop: request `i` is due at `start + i / rate_hz`, for
/// every due time before `start + window`. A request goes out at its due
/// time, or as soon as the previous one returns if that is later, so a
/// stall delays every request behind it and shows in their latency.
pub fn open_loop<F: FnMut(usize) -> bool>(
    start: Instant,
    rate_hz: f64,
    window: Duration,
    mut send: F,
) -> Vec<Shot> {
    let mut shots = Vec::new();
    for index in 0.. {
        let offset = Duration::from_secs_f64(index as f64 / rate_hz);
        if offset >= window {
            break;
        }
        let due = start + offset;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let ok = send(index);
        shots.push(Shot {
            index,
            due,
            sent,
            done: Instant::now(),
            ok,
        });
    }
    shots
}

/// What one daemon session produced.
struct Session {
    setup_s: Vec<f64>,
    synth_s: f64,
    wall_s: f64,
    submits: Vec<Shot>,
    queries: Vec<(Shot, usize)>,
    mean_jct_s: f64,
    unfinished: u64,
    rounds_ms: Vec<f64>,
    log: crate::adapters::RoundLog,
    rec: Recorder,
    counters: (u64, u64, u64),
    failures: Vec<String>,
}

fn state_file(seed: u64) -> PathBuf {
    crate::out_dir().join(format!("service-{}-{seed}.state.json", std::process::id()))
}

/// Submission bodies: Table 2 jobs from the workload seed, named so the
/// backend adapter can link each to its request.
fn submit_bodies(seed: u64, n: usize) -> Vec<String> {
    let pool = TraceSource::Table2(TraceConfig {
        num_jobs: n.max(1),
        arrival_rate: 1.0,
        seed: seed.wrapping_add(1),
        kill_fraction: 0.0,
    })
    .materialise()
    .expect("generated sources cannot fail");
    pool.jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let mut wire = WireJobSpec::from_spec(job);
            wire.id = None;
            wire.name = Some(format!("{SUBMIT_PREFIX}{i}"));
            wire.arrival_secs = None;
            wire.to_json()
        })
        .collect()
}

struct Booted {
    handle: ServerHandle,
    log: crate::adapters::SharedLog,
    first_idle: FirstIdle,
    synth_s: f64,
}

/// Boots a daemon with the backlog preloaded and waits for its first
/// health check.
fn boot(seed: u64, rec: Recorder, state: &Path, paused: bool) -> Result<Booted, String> {
    let t = Instant::now();
    let trace = TraceSource::Table2(TraceConfig {
        num_jobs: BACKLOG_JOBS,
        arrival_rate: 1.0 / BACKLOG_GAP_SECS,
        seed,
        kill_fraction: 0.0,
    })
    .materialise()
    .expect("generated sources cannot fail");
    let synth_s = t.elapsed().as_secs_f64();
    let spec = ClusterSpec::longhorn_subset(GPUS);
    let inner = SchedulerKind::Ones.build(&spec, &trace, &DetRng::seed(seed));
    let (scheduler, log) = TimedScheduler::new(inner, rec, "ones");
    let backend = SimBackend::new(spec, &trace, Box::new(scheduler), SimConfig::default());
    let (backend, first_idle) = TimedBackend::new(Box::new(backend), rec);
    let handle = serve(
        Box::new(backend),
        ServeOptions {
            state_file: Some(state.to_path_buf()),
            paused,
            ..ServeOptions::default()
        },
    )
    .map_err(|e| format!("cannot boot ones-d: {e}"))?;
    let mut client =
        Client::connect(handle.local_addr()).map_err(|e| format!("cannot resolve daemon: {e}"))?;
    match client.get("/healthz") {
        Ok((200, _)) => Ok(Booted {
            handle,
            log,
            first_idle,
            synth_s,
        }),
        other => Err(format!("health check failed: {other:?}")),
    }
}

/// Times `n` boots with the core paused: the same boot path, without a
/// first batch of rounds to compete with the health check or to wait for
/// at shutdown.
fn time_boots(seed: u64, state: &Path, n: usize, out: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..n {
        let _ = std::fs::remove_file(state);
        let t = Instant::now();
        let booted = boot(seed, Recorder::disabled(), state, true)?;
        out.push(t.elapsed().as_secs_f64());
        booted.handle.shutdown_and_wait();
    }
    Ok(())
}

/// Boots a daemon, loads it for `window` and shuts it down. The session's
/// wall time runs from the first due request to the last reply.
fn session(seed: u64, window: Duration, rec: Recorder) -> Result<Session, String> {
    let state = state_file(seed);
    let mut setup_s = Vec::new();
    let mut failures = Vec::new();
    time_boots(seed, &state, SETUPS / 2, &mut setup_s)?;
    let before = registry_counters();
    let _ = std::fs::remove_file(&state);
    let booted = boot(seed, rec, &state, false)?;
    let started = Instant::now();
    let addr = booted.handle.local_addr();

    let bodies = submit_bodies(seed, (window.as_secs_f64() * SUBMIT_HZ).ceil() as usize + 1);
    let submit_thread = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("resolved at boot");
        let mut ids = Vec::new();
        let shots = open_loop(started, SUBMIT_HZ, window, |i| {
            let sent = Instant::now();
            let reply = client.post("/v1/jobs", &bodies[i % bodies.len()]);
            let ok = matches!(&reply, Ok((201, _)));
            if let Ok((201, body)) = &reply {
                if let Some(id) = serde_json::from_str::<serde_json::Value>(body)
                    .ok()
                    .and_then(|v| v.get("id").and_then(serde_json::Value::as_u64))
                {
                    ids.push(id);
                }
            }
            record_request(rec, SUBMIT_TID, "POST /v1/jobs", sent, Some(i as u64));
            ok
        });
        (shots, ids)
    });
    let query_thread = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("resolved at boot");
        let mut since = 0u64;
        let shots = open_loop(started, QUERY_HZ, window, |i| {
            let sent = Instant::now();
            let kind = i % QUERY_KINDS.len();
            let reply = match QUERY_KINDS[kind] {
                "cluster" => client.get("/v1/cluster"),
                "jobs" => client.get("/v1/jobs"),
                "events" => {
                    let r = client.get(&format!("/v1/events?since={since}"));
                    if let Ok((200, body)) = &r {
                        since = serde_json::from_str::<serde_json::Value>(body)
                            .ok()
                            .and_then(|v| v.get("next_seq").and_then(serde_json::Value::as_u64))
                            .unwrap_or(since);
                    }
                    r
                }
                _ => client.get("/metrics"),
            };
            record_request(rec, QUERY_TID, QUERY_KINDS[kind], sent, None);
            matches!(reply, Ok((200, _)))
        });
        shots
            .into_iter()
            .map(|s| (s, s.index % QUERY_KINDS.len()))
            .collect::<Vec<_>>()
    });
    let (submits, ids) = submit_thread.join().expect("submit generator");
    let queries = query_thread.join().expect("query generator");
    let load_end = Instant::now();
    let wall_s = load_end.duration_since(started).as_secs_f64();
    let first_idle = *booted.first_idle.lock().expect("idle note poisoned");
    failures.extend(idle_check(first_idle, started, load_end));

    // Every acknowledged submit must be visible in the job list.
    let mut client = Client::connect(addr).expect("resolved at boot");
    match client.get_json("/v1/jobs") {
        Ok(v) => {
            let listed: BTreeSet<u64> = v
                .get("jobs")
                .and_then(serde_json::Value::as_array)
                .map(|jobs| {
                    jobs.iter()
                        .filter_map(|j| j.get("id").and_then(serde_json::Value::as_u64))
                        .collect()
                })
                .unwrap_or_default();
            let missing: Vec<u64> = ids
                .iter()
                .filter(|id| !listed.contains(id))
                .copied()
                .collect();
            if !missing.is_empty() {
                failures.push(format!(
                    "acknowledged jobs missing from /v1/jobs: {missing:?}"
                ));
            }
        }
        Err(e) => failures.push(format!("GET /v1/jobs after the load: {e}")),
    }

    // Mean JCT of the jobs that finished during the session, and how
    // many were still unfinished: the backlog must outlast the load.
    let (mean_jct_s, unfinished) = {
        let shared = booted.handle.state();
        let st = ones_d::state::read_state(&shared);
        let jcts: Vec<f64> = st.jobs.values().filter_map(|j| j.jct_secs).collect();
        let mean = jcts.iter().sum::<f64>() / jcts.len().max(1) as f64;
        (mean, st.outstanding())
    };
    booted.handle.shutdown_and_wait();
    time_boots(seed, &state, SETUPS - SETUPS / 2, &mut setup_s)?;
    let _ = std::fs::remove_file(&state);
    let after = registry_counters();
    let diff =
        |key: &str| after.get(key).copied().unwrap_or(0) - before.get(key).copied().unwrap_or(0);
    let log = lock(&booted.log).clone();
    Ok(Session {
        setup_s,
        synth_s: booted.synth_s,
        wall_s,
        submits,
        queries,
        mean_jct_s,
        unfinished,
        rounds_ms: log.on_event_ns.iter().map(|&ns| ns as f64 / 1e6).collect(),
        log,
        rec,
        counters: (
            diff("simulator.engine.events"),
            diff("simulator.reconcile.ops"),
            diff("simulator.reconcile.noop_deploys"),
        ),
        failures,
    })
}

fn record_request(rec: Recorder, tid: u64, name: &'static str, sent: Instant, req: Option<u64>) {
    let args = req.map(|r| ("req", ArgValue::U64(r))).into_iter().collect();
    rec.record(tid, "client", name, sent, Instant::now(), args);
}

/// The workload needs a core that keeps stepping: with an idle core a
/// submit is answered in about a millisecond, and the submit path under
/// load is no longer what is measured. The check fails when the backlog
/// ran out, the core finding nothing to do, before the load ended.
fn idle_check(first_idle: Option<Instant>, started: Instant, load_end: Instant) -> Option<String> {
    let at = first_idle?;
    (at < load_end).then(|| {
        format!(
            "the core went idle {:.1} s into the load: the backlog of {BACKLOG_JOBS} jobs ran out",
            at.saturating_duration_since(started).as_secs_f64()
        )
    })
}

fn window_of(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds * LOAD_SHARE).max(1.0))
}

/// Adds the request-path figures of a session to the report; returns the
/// `slo_ok_ratio`.
fn request_metrics(s: &Session, limits: Limits, report: &mut Report) -> f64 {
    let submit = Summary::of(s.submits.iter().map(Shot::latency_ms).collect());
    let query = Summary::of(s.queries.iter().map(|(q, _)| q.latency_ms()).collect());
    let attempted = s.submits.len() + s.queries.len();
    let failed = s.submits.iter().filter(|q| !q.ok).count()
        + s.queries.iter().filter(|(q, _)| !q.ok).count();
    let ok = s
        .submits
        .iter()
        .filter(|q| q.ok && q.latency_ms() <= limits.submit_ms)
        .count()
        + s.queries
            .iter()
            .filter(|(q, _)| q.ok && q.latency_ms() <= limits.query_ms)
            .count();
    report.attempted += attempted as u64;
    report.failed += failed as u64;
    report.set("submit_ms_p50", submit.p50);
    report.set("submit_ms_p90", submit.at(0.9));
    report.set("query_ms_p50", query.p50);
    report.set("query_ms_p99", query.at(0.99));
    report.stats.push(("submit_ms".into(), submit));
    report.stats.push(("query_ms".into(), query));
    ok as f64 / attempted.max(1) as f64
}

/// The untraced run: end-to-end metrics.
pub fn run_timed(seed: u64, seconds: f64, limits: Limits, report: &mut Report) {
    let s = match session(seed, window_of(seconds), Recorder::disabled()) {
        Ok(s) => s,
        Err(e) => return report.failures.push(e),
    };
    report.failures.extend(s.failures.iter().cloned());
    report.set("setup_s", median(&s.setup_s));
    report
        .stats
        .push(("setup_s".into(), Summary::of(s.setup_s.clone())));
    report.set("run_wall_s", s.wall_s);
    let rounds = Summary::of(s.rounds_ms.clone());
    report.set("round_ms_p50", rounds.p50);
    report.stats.push(("round_ms".into(), rounds));
    let slo = request_metrics(&s, limits, report);
    report.set("slo_ok_ratio", slo);
    report.note("mean_jct_s", s.mean_jct_s);
    report.note("unfinished_jobs_at_end", s.unfinished as f64);
    report.note("load_window_s", window_of(seconds).as_secs_f64());
}

/// The traced run: an untraced and a traced session, each half as long.
pub fn run_traced(seed: u64, seconds: f64, limits: Limits, report: &mut Report) {
    let window = window_of(seconds / 2.0);
    let sessions = session(seed, window, Recorder::disabled())
        .and_then(|plain| Ok((plain, session(seed, window, Recorder::enabled())?)));
    let (plain, traced) = match sessions {
        Ok(pair) => pair,
        Err(e) => return report.failures.push(e),
    };
    report.failures.extend(plain.failures.iter().cloned());
    report.failures.extend(traced.failures.iter().cloned());

    request_metrics(&plain, limits, report);
    let rounds = Summary::of(plain.rounds_ms.clone());
    report.set("round_ms_p99", rounds.at(0.99));
    report.set("mean_jct_s", plain.mean_jct_s);
    // A session lasts its load window either way, so the overhead is
    // read off the scheduling rounds, which the tracing wraps.
    let traced_rounds = Summary::of(traced.rounds_ms.clone());
    report.set(
        "obs.trace_overhead_pct",
        (traced_rounds.p50 / rounds.p50 - 1.0) * 100.0,
    );
    report.stats.push(("round_ms".into(), rounds));
    report.set("workload.synth_s", traced.synth_s);

    let spans = spans::spans();
    let by_layer = spans::self_time_by_layer(&spans);
    scheduler_layers(report, &traced.log, &by_layer);
    let (events, ops, noops) = traced.counters;
    report.set("simulator.events", events as f64);
    report.set("reconcile.ops", ops as f64);
    report.set("reconcile.noop_deploys", noops as f64);
    let proposals = traced.log.proposals as f64;
    report.set(
        "reconcile.ops_per_proposal",
        if proposals > 0.0 {
            ops as f64 / proposals
        } else {
            0.0
        },
    );
    core_metrics(&spans, &traced, report);
    report.set(
        "oned.requests_sent",
        (traced.submits.len() + traced.queries.len()) as f64,
    );
    report.set(
        "oned.requests_failed",
        (traced.submits.iter().filter(|q| !q.ok).count()
            + traced.queries.iter().filter(|(q, _)| !q.ok).count()) as f64,
    );
    let late = Summary::of(
        traced
            .submits
            .iter()
            .chain(traced.queries.iter().map(|(q, _)| q))
            .map(Shot::late_ms)
            .collect(),
    );
    report.set("oned.generator_late_ms_p99", late.at(0.99));
    report.stats.push(("oned.generator_late_ms".into(), late));
    for (i, kind) in QUERY_KINDS.iter().enumerate() {
        let lat = Summary::of(
            traced
                .queries
                .iter()
                .filter(|(_, k)| *k == i)
                .map(|(q, _)| q.latency_ms())
                .collect(),
        );
        let name = match *kind {
            "cluster" => "oned.query.cluster_ms_p50",
            "jobs" => "oned.query.jobs_ms_p50",
            "events" => "oned.query.events_ms_p50",
            _ => "oned.query.metrics_ms_p50",
        };
        report.set(name, lat.p50);
        report.stats.push((format!("oned.query.{kind}_ms"), lat));
    }
    let engine_self = by_layer.get("oned").copied().unwrap_or(0.0);
    report.set("simulator.self_s", step_self(&spans));
    report.self_split(&[
        ("simulator.self_s", report.get("simulator.self_s")),
        (
            "oned.backend_reads_s",
            (engine_self - report.get("simulator.self_s")).max(0.0),
        ),
        ("ones.self_s", report.get("ones.self_s")),
        ("evo.refresh_s", report.get("evo.refresh_s")),
        ("evo.derive_s", report.get("evo.derive_s")),
        ("evo.score_s", report.get("evo.score_s")),
    ]);
}

/// Self time of the core's `backend.step` spans: engine time outside the
/// scheduler.
fn step_self(spans: &[SpanEvent]) -> f64 {
    spans
        .iter()
        .zip(spans::child_us(spans))
        .filter(|(s, _)| s.name == "backend.step")
        .map(|(s, c)| (s.dur_us.unwrap_or(0.0) - c).max(0.0) / 1e6)
        .sum()
}

/// The request id a span carries, if any.
fn req_of(s: &SpanEvent) -> Option<u64> {
    s.args.iter().find_map(|(k, v)| match (k, v) {
        (&"req", ArgValue::U64(r)) => Some(*r),
        _ => None,
    })
}

/// Core-thread figures from the backend spans: step batches, the publish
/// that follows each, the core's own time between batches, and the
/// submit path.
fn core_metrics(spans: &[SpanEvent], s: &Session, report: &mut Report) {
    let mut core: Vec<&SpanEvent> = spans
        .iter()
        .filter(|x| x.tid == CORE_TID && x.cat == "oned")
        .collect();
    core.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
    let mut batches = Vec::new();
    let mut publish = Vec::new();
    let mut gaps = Vec::new();
    let mut backend_submit = Vec::new();
    let mut prev_step_end: Option<f64> = None;
    let mut inside = 0.0;
    let mut publish_from: Option<f64> = None;
    for x in &core {
        let dur = x.dur_us.unwrap_or(0.0);
        let end = x.ts_us + dur;
        match x.name {
            "backend.step" => {
                batches.push(dur / 1e3);
                if let Some(prev) = prev_step_end {
                    gaps.push((x.ts_us - prev - inside).max(0.0) / 1e3);
                }
                prev_step_end = Some(end);
                publish_from = Some(end);
                inside = 0.0;
            }
            name => {
                inside += dur;
                if name == "backend.submit" {
                    backend_submit.push(dur);
                }
                if name == "backend.occupancy" {
                    if let Some(from) = publish_from.take() {
                        publish.push((end - from).max(0.0) / 1e3);
                    }
                }
            }
        }
    }
    let batches = Summary::of(batches);
    report.set("oned.step_batch_ms_p50", batches.p50);
    report.set("oned.step_batch_ms_p99", batches.at(0.99));
    report.stats.push(("oned.step_batch_ms".into(), batches));
    let publish = Summary::of(publish);
    report.set("oned.publish_ms_p50", publish.p50);
    report.stats.push(("oned.publish_ms".into(), publish));
    let gaps = Summary::of(gaps);
    report.set("oned.core_gap_ms_p50", gaps.p50);
    report.set("oned.core_gap_ms_p99", gaps.at(0.99));
    report.stats.push(("oned.core_gap_ms".into(), gaps));
    let backend_submit = Summary::of(backend_submit);
    report.set("oned.backend_submit_us_p50", backend_submit.p50);
    report
        .stats
        .push(("oned.backend_submit_us".into(), backend_submit));

    // Due time of a submit to its entry into `ClusterBackend::submit`.
    let waits: Vec<f64> = core
        .iter()
        .filter(|x| x.name == "backend.submit")
        .filter_map(|x| {
            let req = req_of(x)? as usize;
            let shot = s.submits.iter().find(|q| q.index == req)?;
            Some((x.ts_us - s.rec.us(shot.due)).max(0.0) / 1e3)
        })
        .collect();
    let waits = Summary::of(waits);
    report.set("oned.submit_wait_ms_p50", waits.p50);
    report.set("oned.submit_wait_ms_p90", waits.at(0.9));
    report.stats.push(("oned.submit_wait_ms".into(), waits));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stalled endpoint delays every request due during the stall: their
    /// latency, timed from the due time, and the generator's lateness both
    /// show it.
    #[test]
    fn open_loop_charges_a_stall_to_later_requests() {
        let stall = Duration::from_millis(300);
        let shots = open_loop(Instant::now(), 50.0, Duration::from_millis(800), |i| {
            if i == 5 {
                std::thread::sleep(stall);
            }
            true
        });
        assert_eq!(shots.len(), 40);
        // Requests due 20 ms apart behind a 300 ms stall: the next ~14 go
        // out late, each later than its due time by what remains of it.
        let behind: Vec<&Shot> = shots[6..20].iter().collect();
        for (k, s) in behind.iter().enumerate() {
            let expected = 300.0 - 20.0 * (k as f64 + 1.0);
            assert!(
                s.latency_ms() >= expected - 5.0,
                "request {} latency {:.1} ms, expected ≥ {expected:.1}",
                s.index,
                s.latency_ms()
            );
            assert!(s.late_ms() >= expected - 5.0);
        }
        let late = Summary::of(shots.iter().map(Shot::late_ms).collect());
        assert!(late.at(0.99) >= 250.0, "late p99 {:.1}", late.at(0.99));
        // Once the backlog clears, requests go out on time again.
        assert!(shots.last().unwrap().late_ms() < 100.0);
    }

    /// A core that ran out of work before the load ended fails the run;
    /// one that went idle only after it does not.
    #[test]
    fn idle_core_during_the_load_fails_the_run() {
        let started = Instant::now();
        let end = started + Duration::from_secs(20);
        assert_eq!(idle_check(None, started, end), None);
        let failure = idle_check(Some(started + Duration::from_secs(5)), started, end);
        assert!(failure.is_some_and(|f| f.contains("went idle 5.0 s")));
        assert_eq!(
            idle_check(Some(end + Duration::from_millis(1)), started, end),
            None
        );
    }

    /// The backend adapter notes when the backlog runs out.
    #[test]
    fn backend_adapter_notes_the_first_idle_step() {
        let trace = TraceSource::Table2(TraceConfig {
            num_jobs: 1,
            arrival_rate: 1.0,
            seed: 1,
            kill_fraction: 0.0,
        })
        .materialise()
        .unwrap();
        let spec = ClusterSpec::longhorn_subset(8);
        let fifo = SchedulerKind::Fifo.build(&spec, &trace, &DetRng::seed(1));
        let sim = SimBackend::new(spec, &trace, fifo, SimConfig::default());
        let (mut backend, first_idle) = TimedBackend::new(Box::new(sim), Recorder::disabled());
        use ones_simulator::{BackendPhase, ClusterBackend};
        let (_, phase) = backend.step(1);
        assert_eq!(phase, BackendPhase::Active);
        assert!(first_idle.lock().unwrap().is_none());
        let mut steps = 0;
        while backend.step(64).1 == BackendPhase::Active {
            steps += 1;
            assert!(steps < 10_000, "a one-job trace never went idle");
        }
        assert!(first_idle.lock().unwrap().is_some());
    }

    /// Without a stall the generator keeps its schedule.
    #[test]
    fn open_loop_keeps_the_schedule() {
        let start = Instant::now();
        let shots = open_loop(start, 100.0, Duration::from_millis(200), |_| true);
        assert_eq!(shots.len(), 20);
        for s in &shots {
            assert_eq!(s.due, start + Duration::from_millis(10 * s.index as u64));
            assert!(s.late_ms() < 100.0 && s.latency_ms() >= 0.0);
        }
    }
}
