//! The convergence-semantics invariant (§5.2, §5.3): every reordering the
//! system performs is a pure permutation of the global batch, so gradient
//! accumulation — a commutative sum — is unaffected. These property tests
//! drive the *full* reordering stack (planner + both algorithms) over the
//! real data generator.

use disttrain::data::{DataConfig, SyntheticLaion, TrainSample};
use disttrain::model::MllmPreset;
use disttrain::reorder::InterReorderConfig;
use disttrain::reorder::{ReorderMode, ReorderPlanner};
use disttrain::simengine::DetRng;

fn planner(dp: u32, microbatch: u32, mode: ReorderMode) -> ReorderPlanner {
    ReorderPlanner {
        model: MllmPreset::Mllm9B.build(),
        dp,
        microbatch,
        inter_cfg: InterReorderConfig::new(4, 0.05, 0.10),
        secs_per_flop: 1e-14,
        mode,
    }
}

fn ids(samples: &[TrainSample]) -> Vec<u64> {
    let mut v: Vec<u64> = samples.iter().map(|s| s.id).collect();
    v.sort_unstable();
    v
}

/// The full planner preserves the sample multiset for every batch
/// geometry and mode. Seed-swept property (24 deterministic cases).
#[test]
fn reordering_is_always_a_permutation() {
    for case in 0u64..24 {
        let mut rng = DetRng::new(case);
        let dp = rng.range_u64(1, 9) as u32;
        let per_rank_mbs = rng.range_u64(1, 5) as u32;
        let microbatch = rng.range_u64(1, 3) as u32;
        let seed = rng.range_u64(0, 500);
        let mode = match rng.range_u64(0, 3) {
            0 => ReorderMode::None,
            1 => ReorderMode::IntraOnly,
            _ => ReorderMode::Full,
        };
        let n = (dp * per_rank_mbs * microbatch) as usize;
        let batch = SyntheticLaion::new(DataConfig::characterization(), seed).take(n);
        let out = planner(dp, microbatch, mode).reorder(batch.clone());
        assert_eq!(ids(&out), ids(&batch), "case {case}");
        assert_eq!(out.len(), batch.len(), "case {case}");
    }
}

/// Samples themselves are never mutated — only moved.
#[test]
fn reordering_never_edits_samples() {
    for seed in 0u64..24 {
        let batch = SyntheticLaion::new(DataConfig::characterization(), seed).take(16);
        let out = planner(4, 1, ReorderMode::Full).reorder(batch.clone());
        for s in &out {
            let original = batch.iter().find(|o| o.id == s.id).expect("same ids");
            assert_eq!(s, original, "seed {seed}");
        }
    }
}

/// Microbatch *boundaries* are respected by Algorithm 2: with M > 1,
/// samples that shared a microbatch after Algorithm 1 stay together
/// (the pass permutes whole microbatches within a rank).
#[test]
fn inter_reordering_moves_whole_microbatches() {
    for seed in 0u64..24 {
        let dp = 2u32;
        let m = 2u32;
        let n = (dp * m * 4) as usize;
        let batch = SyntheticLaion::new(DataConfig::characterization(), seed).take(n);
        let intra = planner(dp, m, ReorderMode::IntraOnly).reorder(batch.clone());
        let full = planner(dp, m, ReorderMode::Full).reorder(batch);
        // Collect microbatch id-pairs per rank from the intra-only result…
        let per_rank = intra.len() / dp as usize;
        let mut pairs: Vec<Vec<u64>> = Vec::new();
        for rank in intra.chunks(per_rank) {
            for mb in rank.chunks(m as usize) {
                let mut p: Vec<u64> = mb.iter().map(|s| s.id).collect();
                p.sort_unstable();
                pairs.push(p);
            }
        }
        // …and verify every full-reorder microbatch is one of them.
        for rank in full.chunks(per_rank) {
            for mb in rank.chunks(m as usize) {
                let mut p: Vec<u64> = mb.iter().map(|s| s.id).collect();
                p.sort_unstable();
                assert!(
                    pairs.contains(&p),
                    "seed {seed}: microbatch {p:?} was split"
                );
            }
        }
    }
}

#[test]
fn rank_assignment_changes_only_within_the_global_batch() {
    // Two consecutive global batches must not leak samples into each other
    // (synchronous training boundary, §3).
    let mut gen = SyntheticLaion::new(DataConfig::characterization(), 9);
    let p = planner(4, 1, ReorderMode::Full);
    let b1 = gen.take(16);
    let b2 = gen.take(16);
    let r1 = p.reorder(b1.clone());
    let r2 = p.reorder(b2.clone());
    assert_eq!(ids(&r1), ids(&b1));
    assert_eq!(ids(&r2), ids(&b2));
    let max1 = ids(&r1).into_iter().max().unwrap();
    let min2 = ids(&r2).into_iter().min().unwrap();
    assert!(max1 < min2, "batch boundary violated");
}
