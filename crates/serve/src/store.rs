//! The cross-request warm-plan store.
//!
//! One entry per spec fingerprint ([`crate::api::SpecDesc::fingerprint`]):
//! the task's [`WarmStart`] from [`TrainingTask::warm_start`], i.e. the §4
//! cost tables built from its (resolution- and cluster-size independent)
//! profile plus incumbent hints from the plans served so far. A repeat
//! plan or a degraded replan for the same fingerprint skips profiling and
//! table building entirely and seeds the branch-and-bound incumbent from
//! the plans previously served — the warm search returns bit-identical
//! results to a cold one, just much sooner.
//!
//! Concurrency shape: the map lock is held only for lookup/insert, never
//! across a profile build or a search; each entry carries its own lock so
//! two requests planning *different* fingerprints never serialize. Two
//! requests racing to build the *same* cold fingerprint may both build it
//! (both count as misses); the second insert wins and the loser's build
//! is discarded — wasted work, never wrong results.

use crate::api::SpecDesc;
use disttrain_core::TrainingTask;
use dt_cluster::ClusterSpec;
use dt_data::DataConfig;
use dt_model::{MllmPreset, MultimodalLlm};
use dt_orchestrator::WarmStart;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Parse a wire preset name.
pub fn parse_preset(name: &str) -> Option<MllmPreset> {
    match name {
        "mllm-9b" => Some(MllmPreset::Mllm9B),
        "mllm-15b" => Some(MllmPreset::Mllm15B),
        "mllm-72b" => Some(MllmPreset::Mllm72B),
        _ => None,
    }
}

/// Materialize the [`TrainingTask`] a [`SpecDesc`] describes. `None` for
/// an unknown preset.
pub fn task_for(spec: &SpecDesc) -> Option<TrainingTask> {
    let model: MultimodalLlm = parse_preset(&spec.preset)?.build();
    let data = DataConfig::evaluation(model.gen_resolution);
    Some(TrainingTask {
        model,
        cluster: ClusterSpec::production(spec.nodes),
        data,
        global_batch: spec.global_batch,
        microbatch: spec.microbatch,
        seed: spec.seed,
    })
}

/// The daemon-wide store: fingerprint → shared entry.
#[derive(Debug, Default)]
pub struct PlanStore {
    entries: Mutex<HashMap<String, Arc<Mutex<WarmStart>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanStore {
    /// An empty store.
    pub fn new() -> PlanStore {
        PlanStore::default()
    }

    /// Fetch the entry for `fingerprint`, building it from `task` when
    /// absent. Returns the shared entry and whether it was already warm.
    pub fn get_or_build(
        &self,
        fingerprint: &str,
        task: &TrainingTask,
    ) -> (Arc<Mutex<WarmStart>>, bool) {
        if let Some(entry) = self.entries.lock().expect("store lock").get(fingerprint) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (entry.clone(), true);
        }
        // Cold: build outside the map lock (profiling + cost tables are
        // the expensive part) and let the first insert win.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(Mutex::new(task.warm_start()));
        let mut map = self.entries.lock().expect("store lock");
        let entry = map.entry(fingerprint.to_string()).or_insert(built).clone();
        (entry, false)
    }

    /// Lookups served warm so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to build.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct fingerprints currently held.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("store lock").len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SpecDesc;

    #[test]
    fn unknown_preset_is_rejected() {
        assert!(parse_preset("mllm-900b").is_none());
        let spec = SpecDesc::ablation("mllm-900b", 128);
        assert!(task_for(&spec).is_none());
    }

    #[test]
    fn repeat_lookups_hit_the_same_entry() {
        let spec = SpecDesc::ablation("mllm-9b", 128);
        let task = task_for(&spec).unwrap();
        let store = PlanStore::new();
        let (a, warm_a) = store.get_or_build(&spec.fingerprint(), &task);
        assert!(!warm_a, "first lookup is cold");
        let (b, warm_b) = store.get_or_build(&spec.fingerprint(), &task);
        assert!(warm_b, "second lookup is warm");
        assert!(Arc::ptr_eq(&a, &b), "same shared entry");
        assert_eq!((store.hits(), store.misses()), (1, 1));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn different_fingerprints_get_distinct_entries() {
        let a = SpecDesc::ablation("mllm-9b", 128);
        let b = SpecDesc::ablation("mllm-9b", 64);
        let store = PlanStore::new();
        let (ea, _) = store.get_or_build(&a.fingerprint(), &task_for(&a).unwrap());
        let (eb, _) = store.get_or_build(&b.fingerprint(), &task_for(&b).unwrap());
        assert!(!Arc::ptr_eq(&ea, &eb));
        assert_eq!(store.len(), 2);
        assert_eq!(store.misses(), 2);
    }
}
