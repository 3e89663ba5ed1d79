//! Crash-safe persistence of the daemon's scheduling state (DESIGN.md
//! §10).
//!
//! The core thread snapshots after every step batch and control message,
//! writing atomically (tmp file + rename) so a SIGKILL leaves either the
//! previous or the new snapshot on disk, never a torn one. The snapshot
//! is a *recovery log*, not a memory image: it records every submitted
//! job spec (trace preload and live API submissions alike, each with its
//! effective arrival time) and the drain flag. Because stepping is
//! deterministic for a fixed job log and seed, recovery replays the log
//! through an identically-configured backend and reaches the same
//! fixpoint the interrupted run was heading for — the property pinned by
//! `tests/crash_recovery.rs`. Deployed schedules and in-flight scaling
//! operations are not saved: the replay rebuilds them.

use ones_simulator::ClusterBackend;
use ones_workload::JobSpec;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::Path;

/// Everything `ones-d` needs to resume scheduling after a crash.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PersistedState {
    /// Scheduler name, for a recovery sanity check.
    pub scheduler: String,
    /// Cluster size, for a recovery sanity check.
    pub total_gpus: u32,
    /// Whether the daemon was draining when the snapshot was taken.
    pub draining: bool,
    /// Virtual time of the snapshot (diagnostic; replay restarts at 0).
    pub now_secs: f64,
    /// Every submitted job spec in id order, arrival times effective.
    pub jobs: Vec<JobSpec>,
}

impl PersistedState {
    /// Captures the backend's current job log.
    #[must_use]
    pub fn snapshot(backend: &dyn ClusterBackend, draining: bool) -> Self {
        // `job_statuses` is keyed by id in a BTreeMap, so the log comes
        // out in id order — the same order a dense trace preload uses.
        let jobs = backend
            .job_statuses()
            .into_values()
            .map(|status| status.spec)
            .collect();
        PersistedState {
            scheduler: backend.scheduler_name(),
            total_gpus: backend.occupancy().total_gpus,
            draining,
            now_secs: backend.now_secs(),
            jobs,
        }
    }
}

/// Writes a snapshot atomically: serialise to `<path>.tmp`, fsync, then
/// rename over `path`. A reader (or a restart) sees the old snapshot or
/// the new one, never a partial write.
///
/// # Errors
/// Propagates filesystem errors; serialisation failure is reported as
/// `InvalidData`.
pub fn save(path: &Path, state: &PersistedState) -> std::io::Result<()> {
    let json = serde_json::to_string(state)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let tmp = path.with_extension("tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(json.as_bytes())?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Reads a snapshot back.
///
/// # Errors
/// Returns a human-readable message on IO or parse failure; callers
/// treat an unreadable state file as "no recovery", not a crash.
pub fn load(path: &Path) -> Result<PersistedState, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read state file {}: {e}", path.display()))?;
    serde_json::from_str(&text)
        .map_err(|e| format!("cannot parse state file {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ones_dlperf::{ConvergenceModel, DatasetKind, ModelKind};
    use ones_workload::JobId;

    fn spec(id: u64) -> JobSpec {
        JobSpec {
            id: JobId(id),
            name: format!("job{id}"),
            model: ModelKind::ResNet18,
            dataset: DatasetKind::Cifar10,
            dataset_size: 20_000,
            submit_batch: 256,
            max_safe_batch: 4096,
            requested_gpus: 2,
            arrival_secs: id as f64 * 30.0,
            kill_after_secs: None,
            convergence: ConvergenceModel::example(),
        }
    }

    fn state() -> PersistedState {
        PersistedState {
            scheduler: "ones".to_string(),
            total_gpus: 8,
            draining: true,
            now_secs: 123.5,
            jobs: vec![spec(0), spec(1)],
        }
    }

    #[test]
    fn snapshot_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("ones-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("state.json");
        let original = state();
        save(&path, &original).expect("save");
        let recovered = load(&path).expect("load");
        assert_eq!(recovered.scheduler, original.scheduler);
        assert_eq!(recovered.total_gpus, original.total_gpus);
        assert_eq!(recovered.draining, original.draining);
        assert_eq!(recovered.jobs, original.jobs);
        // No tmp file left behind.
        assert!(!path.with_extension("tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loads_snapshots_that_still_carry_reconcile_state() {
        // Earlier daemons also saved the reconciler's state under a
        // "reconcile" key; recovery never read it, and loading ignores it.
        let mut reconciler = ones_schedcore::Reconciler::new(8);
        let mut desired = ones_schedcore::Schedule::empty(8);
        desired.assign(ones_cluster::GpuId(0), JobId(0), 128);
        desired.assign(ones_cluster::GpuId(1), JobId(0), 128);
        reconciler.reconcile(&desired);
        let original = state();
        let serde_json::Value::Object(mut fields) = serde_json::to_value(&original) else {
            panic!("a snapshot serialises to an object");
        };
        fields.push((
            "reconcile".to_string(),
            serde_json::to_value(&Some(reconciler)),
        ));
        let dir = std::env::temp_dir().join(format!("ones-persist4-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("state.json");
        let legacy = serde_json::to_string(&serde_json::Value::Object(fields)).expect("json");
        assert!(legacy.contains("\"reconcile\":{"));
        std::fs::write(&path, legacy).expect("write");
        let recovered = load(&path).expect("load");
        assert_eq!(recovered.jobs, original.jobs);
        assert_eq!(recovered.draining, original.draining);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_replaces_previous_snapshot_atomically() {
        let dir = std::env::temp_dir().join(format!("ones-persist2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("state.json");
        let mut snap = state();
        save(&path, &snap).expect("first save");
        snap.now_secs = 999.0;
        snap.jobs.push(spec(2));
        save(&path, &snap).expect("second save");
        let recovered = load(&path).expect("load");
        assert_eq!(recovered.jobs.len(), 3);
        assert!((recovered.now_secs - 999.0).abs() < 1e-12);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_reports_missing_and_malformed_files() {
        let missing = Path::new("/nonexistent/ones-d-state.json");
        assert!(load(missing).is_err());
        let dir = std::env::temp_dir().join(format!("ones-persist3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("garbage.json");
        std::fs::write(&path, "not json at all").expect("write");
        assert!(load(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
