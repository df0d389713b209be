//! Fault tolerance: asynchronous checkpointing and recovery.
//!
//! §3: "DistTrain adopts a dedicated process to periodically and
//! asynchronously save model checkpoints to the distributed file system for
//! fault tolerance"; §6: "DistTrain handles failures by automatically
//! recovering the training from the latest model checkpoint." The state
//! here is the trainer's control state (iteration counter, plan, stream
//! seed) — the simulation has no tensor weights — but the mechanics are
//! real: JSON files written by a background thread, recovery scanning for
//! the newest valid checkpoint and ignoring torn ones.

use dt_parallel::OrchestrationPlan;
use dt_simengine::json::Json;
use dt_simengine::schema::WireJson;
use dt_simengine::wire_struct;
use std::io;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

/// The recoverable trainer state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainingState {
    /// Completed iterations.
    pub iteration: u32,
    /// The active plan.
    pub plan: OrchestrationPlan,
    /// Data-stream seed (replaying from `iteration` reproduces the run).
    pub seed: u64,
}

wire_struct!(TrainingState {
    iteration,
    plan,
    seed
});

/// Writes checkpoints into a directory; one file per checkpoint.
pub struct CheckpointManager {
    dir: PathBuf,
    pending: Option<JoinHandle<io::Result<()>>>,
}

impl CheckpointManager {
    /// Bind to (and create) a checkpoint directory.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointManager { dir, pending: None })
    }

    fn path_for(&self, iteration: u32) -> PathBuf {
        self.dir.join(format!("ckpt-{iteration:010}.json"))
    }

    /// Asynchronously save `state`; returns immediately (the §3 "dedicated
    /// process"). A previous in-flight save is joined first so checkpoints
    /// land in order.
    pub fn save_async(&mut self, state: &TrainingState) -> io::Result<()> {
        self.wait()?;
        let path = self.path_for(state.iteration);
        let tmp = path.with_extension("tmp");
        let payload = state.to_json().to_string().into_bytes();
        self.pending = Some(std::thread::spawn(move || {
            // Write-then-rename so a crash can never leave a torn file
            // under the checkpoint name.
            std::fs::write(&tmp, &payload)?;
            std::fs::rename(&tmp, &path)
        }));
        Ok(())
    }

    /// Block until the in-flight save (if any) is durable.
    pub fn wait(&mut self) -> io::Result<()> {
        if let Some(handle) = self.pending.take() {
            handle
                .join()
                .map_err(|_| io::Error::other("checkpoint writer panicked"))??;
        }
        Ok(())
    }

    /// Recover the newest valid checkpoint in `dir`, skipping unreadable
    /// or torn files. `None` when no checkpoint exists.
    pub fn recover(dir: impl AsRef<Path>) -> io::Result<Option<TrainingState>> {
        let mut entries: Vec<PathBuf> = match std::fs::read_dir(dir.as_ref()) {
            Ok(rd) => rd
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "json"))
                .collect(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        entries.sort();
        for path in entries.into_iter().rev() {
            if let Ok(text) = std::fs::read_to_string(&path) {
                if let Ok(state) = Json::parse(&text)
                    .map_err(|e| e.to_string())
                    .and_then(|v| TrainingState::from_json(&v))
                {
                    return Ok(Some(state));
                }
            }
        }
        Ok(None)
    }
}

impl Drop for CheckpointManager {
    fn drop(&mut self) {
        let _ = self.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_parallel::ModulePlan;

    fn state(iteration: u32) -> TrainingState {
        TrainingState {
            iteration,
            plan: OrchestrationPlan {
                encoder: ModulePlan::new(1, 8, 1),
                backbone: ModulePlan::new(8, 8, 2),
                generator: ModulePlan::new(1, 8, 1),
                microbatch: 1,
            },
            seed: 42,
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dt-ckpt-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_and_recover_round_trips() {
        let dir = tempdir("roundtrip");
        let mut mgr = CheckpointManager::new(&dir).unwrap();
        mgr.save_async(&state(5)).unwrap();
        mgr.save_async(&state(10)).unwrap();
        mgr.wait().unwrap();
        let recovered = CheckpointManager::recover(&dir).unwrap().unwrap();
        assert_eq!(recovered, state(10));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_skips_torn_checkpoints() {
        let dir = tempdir("torn");
        let mut mgr = CheckpointManager::new(&dir).unwrap();
        mgr.save_async(&state(3)).unwrap();
        mgr.wait().unwrap();
        // Simulate a crash that tore the newest checkpoint.
        std::fs::write(dir.join("ckpt-0000000009.json"), b"{ torn").unwrap();
        let recovered = CheckpointManager::recover(&dir).unwrap().unwrap();
        assert_eq!(recovered.iteration, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_keeps_a_seed_of_2_pow_60() {
        let dir = tempdir("bigseed");
        let mut mgr = CheckpointManager::new(&dir).unwrap();
        let big = |iteration| TrainingState {
            seed: 1 << 60,
            ..state(iteration)
        };
        mgr.save_async(&big(1)).unwrap();
        mgr.save_async(&big(3)).unwrap();
        mgr.wait().unwrap();
        let recovered = CheckpointManager::recover(&dir).unwrap().unwrap();
        assert_eq!(recovered, big(3), "the newest checkpoint is not torn");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_or_missing_dir_recovers_none() {
        let dir = tempdir("empty");
        assert_eq!(CheckpointManager::recover(&dir).unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(CheckpointManager::recover(&dir).unwrap(), None);
    }

    #[test]
    fn async_save_is_ordered() {
        let dir = tempdir("ordered");
        let mut mgr = CheckpointManager::new(&dir).unwrap();
        for i in 0..5 {
            mgr.save_async(&state(i)).unwrap();
        }
        mgr.wait().unwrap();
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, 5);
        assert_eq!(
            CheckpointManager::recover(&dir).unwrap().unwrap().iteration,
            4
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
