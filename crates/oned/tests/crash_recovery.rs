//! Crash recovery against the real `ones-d` binary (DESIGN.md §10):
//! SIGKILL a daemon mid-replay — no drain, no shutdown path, no final
//! snapshot — then restart it from the persisted state file and assert
//! the recovered run reaches exactly the fixpoint an uninterrupted run
//! reaches: same per-job outcome phases and bit-identical completion
//! times.

use ones_d::Client;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("ones-d-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&path).expect("mkdir tempdir");
        TempDir(path)
    }

    fn file(&self, name: &str) -> std::path::PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const JOBS: u64 = 12;

/// Spawns `ones-d` on the shared 12-job Philly replay and returns the
/// child plus the announced loopback address.
fn spawn_daemon(extra: &[&str]) -> (Child, String) {
    let mut args = vec![
        "--port",
        "0",
        "--gpus",
        "16",
        "--scheduler",
        "ones",
        "--trace-source",
        "philly",
        "--jobs",
        "12",
        "--rate-secs",
        "10",
        "--seed",
        "7",
        "--sched-seed",
        "1",
    ];
    args.extend_from_slice(extra);
    let mut child = Command::new(env!("CARGO_BIN_EXE_ones-d"))
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ones-d");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("ones-d closed stdout before announcing its address")
            .expect("read stdout");
        if let Some(rest) = line.strip_prefix("ones-d listening on ") {
            break rest.to_string();
        }
    };
    // Keep draining stdout for the daemon's lifetime: dropping the pipe's
    // read end would EPIPE the daemon's next `println!` and kill it.
    std::thread::spawn(move || lines.for_each(drop));
    (child, addr)
}

/// Per-job fixpoint: id → (phase, completion time). Completion times are
/// compared exactly (same build, same deterministic replay).
type Fixpoint = std::collections::BTreeMap<u64, (String, Option<f64>)>;

/// Polls the daemon until every job reached a terminal phase, then
/// returns the per-job fixpoint.
fn run_to_fixpoint(client: &mut Client) -> Fixpoint {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        // Transient transport errors (a keep-alive race while the host is
        // loaded with sibling test suites) just mean "poll again".
        let done = client
            .get_json("/v1/cluster")
            .ok()
            .map(|cluster| {
                cluster
                    .get("completed")
                    .and_then(|v| v.as_u64())
                    .unwrap_or(0)
                    + cluster.get("killed").and_then(|v| v.as_u64()).unwrap_or(0)
            })
            .unwrap_or(0);
        if done == JOBS {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replay did not finish: {done}/{JOBS} terminal"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let jobs = std::iter::repeat_with(|| {
        std::thread::sleep(Duration::from_millis(10));
        client.get_json("/v1/jobs")
    })
    .take(100)
    .find_map(Result::ok)
    .expect("jobs");
    let views = match jobs.get("jobs") {
        Some(serde_json::Value::Array(items)) => items.clone(),
        other => panic!("bad jobs body: {other:?}"),
    };
    views
        .iter()
        .map(|j| {
            let id = j.get("id").and_then(|v| v.as_u64()).expect("id");
            let phase = j
                .get("phase")
                .and_then(|v| v.as_str())
                .expect("phase")
                .to_string();
            let completion = j.get("completion_secs").and_then(|v| v.as_f64());
            (id, (phase, completion))
        })
        .collect()
}

#[test]
fn sigkill_mid_reconcile_recovers_to_the_uninterrupted_fixpoint() {
    // Reference: the same replay, never interrupted, run flat out.
    let (mut reference, addr) = spawn_daemon(&[]);
    let mut client = Client::connect(addr.as_str()).expect("resolve reference daemon");
    let expected = run_to_fixpoint(&mut client);
    assert_eq!(expected.len(), JOBS as usize);
    reference.kill().expect("stop reference daemon");
    let _ = reference.wait();

    // Crash run: throttled so the kill lands mid-replay, with scaling
    // operations in flight, snapshotting after every step batch.
    let dir = TempDir::new("crash");
    let state_file = dir.file("state.json");
    let (mut victim, addr) = spawn_daemon(&[
        "--step-delay-ms",
        "25",
        "--events-per-batch",
        "4",
        "--state-file",
        state_file.to_str().unwrap(),
    ]);
    let mut client = Client::connect(addr.as_str()).expect("resolve victim daemon");

    // Let the replay progress past the first deployments, then SIGKILL:
    // no drain, no shutdown hook, no final snapshot.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(cluster) = client.get_json("/v1/cluster") {
            let now = cluster
                .get("now_secs")
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0);
            let seq = cluster
                .get("events_next_seq")
                .and_then(|v| v.as_u64())
                .unwrap_or(0);
            if now > 0.0 && seq >= 4 && state_file.exists() {
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "victim replay never started progressing"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    victim.kill().expect("SIGKILL ones-d");
    let _ = victim.wait();

    // The snapshot on disk is a valid recovery log: parseable, with the
    // full job log.
    let snapshot = ones_d::persist::load(&state_file).expect("persisted state parses");
    assert_eq!(snapshot.jobs.len(), JOBS as usize);
    assert!(!snapshot.draining);

    // Restart from the state file (same flags, unthrottled) and replay
    // to the fixpoint.
    let (mut recovered, addr) = spawn_daemon(&["--state-file", state_file.to_str().unwrap()]);
    let mut client = Client::connect(addr.as_str()).expect("resolve recovered daemon");
    let actual = run_to_fixpoint(&mut client);
    recovered.kill().expect("stop recovered daemon");
    let _ = recovered.wait();

    // The recovered fixpoint equals the uninterrupted run's, per job and
    // bit-for-bit on completion times.
    assert_eq!(actual.len(), expected.len());
    for (id, (phase, completion)) in &expected {
        let (got_phase, got_completion) = actual.get(id).expect("job present after recovery");
        assert_eq!(got_phase, phase, "job {id} phase diverged after recovery");
        match (completion, got_completion) {
            (Some(want), Some(got)) => assert!(
                (want - got).abs() < 1e-9,
                "job {id} completion diverged: {want} vs {got}"
            ),
            (None, None) => {}
            other => panic!("job {id} completion mismatch: {other:?}"),
        }
    }
}

#[test]
fn restart_recovers_from_a_state_file_that_still_carries_reconcile_state() {
    // A run to the fixpoint leaves a snapshot with the full job log.
    let dir = TempDir::new("legacy");
    let state_file = dir.file("state.json");
    let (mut first, addr) = spawn_daemon(&["--state-file", state_file.to_str().unwrap()]);
    let mut client = Client::connect(addr.as_str()).expect("resolve first daemon");
    let expected = run_to_fixpoint(&mut client);
    first.kill().expect("stop first daemon");
    let _ = first.wait();

    // Rewrite it in the earlier format, which also saved the reconciler's
    // state under a "reconcile" key. The draining flag marks the file as
    // the one loaded: a fresh start would not drain.
    let text = std::fs::read_to_string(&state_file).expect("read snapshot");
    let serde_json::Value::Object(mut fields) =
        serde_json::from_str::<serde_json::Value>(&text).expect("snapshot parses")
    else {
        panic!("snapshot is a JSON object");
    };
    let mut reconciler = ones_schedcore::Reconciler::new(16);
    let mut desired = ones_schedcore::Schedule::empty(16);
    desired.assign(ones_cluster::GpuId(0), ones_workload::JobId(0), 128);
    reconciler.reconcile(&desired);
    fields.retain(|(key, _)| key != "draining");
    fields.push(("draining".to_string(), serde_json::Value::Bool(true)));
    fields.push((
        "reconcile".to_string(),
        serde_json::to_value(&Some(reconciler)),
    ));
    std::fs::write(
        &state_file,
        serde_json::to_string(&serde_json::Value::Object(fields)).expect("json"),
    )
    .expect("write legacy snapshot");

    let (mut recovered, addr) = spawn_daemon(&["--state-file", state_file.to_str().unwrap()]);
    let mut client = Client::connect(addr.as_str()).expect("resolve recovered daemon");
    let actual = run_to_fixpoint(&mut client);
    let cluster = client.get_json("/v1/cluster").expect("cluster");
    recovered.kill().expect("stop recovered daemon");
    let _ = recovered.wait();
    assert_eq!(
        cluster.get("draining").and_then(|v| v.as_bool()),
        Some(true),
        "restart did not load the state file"
    );
    assert_eq!(actual, expected);
}
