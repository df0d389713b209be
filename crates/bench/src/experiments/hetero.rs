//! Heterogeneous-hardware case study (§8).
//!
//! "By disaggregating three modules ... DistTrain supports using
//! heterogeneous hardware for different modules ... we can place \[the\]
//! ViT encoder on more economical GPUs (e.g., NVIDIA L20)." Disaggregation
//! is what makes this possible at all — the monolithic plan interleaves
//! modules on the same machines.
//!
//! We compare MLLM-9B training with the encoder on Ampere vs on L20s
//! (sized to match the Ampere encoder's throughput), scoring both wall
//! time and a normalized hardware-cost metric.

use crate::report::{fmt_ratio, fmt_secs, Report};
use dt_cluster::{ClusterSpec, CollectiveCost, GpuSpec};
use dt_data::{DataConfig, GlobalBatch, SyntheticLaion};
use dt_model::{MllmPreset, ModuleKind};
use dt_orchestrator::PerfModel;
use dt_pipeline::{simulate, PipelineSpec, Schedule, Workload};
use dt_simengine::SimDuration;

/// Relative hardware cost units (A100-class ≈ 3.3× an L20 in list price
/// and power envelope).
const AMPERE_COST: f64 = 1.0;
/// L20 cost in the same units.
const L20_COST: f64 = 0.3;

/// One configuration's outcome.
pub struct HeteroOutcome {
    /// Iteration seconds.
    pub iter_secs: f64,
    /// Encoder GPUs (of the encoder pool's type).
    pub encoder_gpus: u32,
    /// Total hardware cost units.
    pub cost_units: f64,
}

/// Simulate MLLM-9B (BS 64, DP 8, backbone TP8/PP1 on 64 Ampere, encoder
/// pool as given, generator on 8 Ampere).
pub fn run_config(encoder_gpu: &GpuSpec, encoder_gpus: u32) -> HeteroOutcome {
    let model = MllmPreset::Mllm9B.build();
    let cluster = ClusterSpec::production(12);
    let coll = CollectiveCost::new(cluster.clone());
    let ampere = GpuSpec::ampere();
    let bb_perf = PerfModel::new(&model, &ampere, &coll).with_stepccl();
    let enc_perf = PerfModel::new(&model, encoder_gpu, &coll).with_stepccl();

    let dp = 8u32;
    let bs = 64u32;
    let mut gen = SyntheticLaion::new(DataConfig::evaluation(512), 42);
    let batch = GlobalBatch::new(gen.take(bs as usize));
    let per_rank = batch.split(dp, 1);

    // Per-rank 3-stage pipeline: encoder (pool type), backbone, generator.
    let mut worst = SimDuration::ZERO;
    for rank in &per_rank {
        let l = rank.len();
        let mut fwd = vec![vec![SimDuration::ZERO; l]; 3];
        let mut bwd = vec![vec![SimDuration::ZERO; l]; 3];
        for (i, mb) in rank.iter().enumerate() {
            let enc: SimDuration = mb
                .samples
                .iter()
                .map(|s| enc_perf.module_fwd_time(ModuleKind::Encoder, &s.shape(), 1))
                .sum();
            let enc = enc.mul_f64(dp as f64 / encoder_gpus as f64);
            let bb = bb_perf.module_fwd_time(ModuleKind::Backbone, &mb.samples[0].shape(), 8);
            let gen_t: SimDuration = mb
                .samples
                .iter()
                .map(|s| bb_perf.module_fwd_time(ModuleKind::Generator, &s.shape(), 1))
                .sum();
            let gen_t = gen_t.mul_f64(dp as f64 / 8.0);
            fwd[0][i] = enc;
            bwd[0][i] = enc * 2;
            fwd[1][i] = bb;
            bwd[1][i] = bb * 2;
            fwd[2][i] = gen_t;
            bwd[2][i] = gen_t * 2;
        }
        let spec = PipelineSpec::uniform(Schedule::OneFOneB, 3, SimDuration::from_millis(2));
        let result = simulate(&spec, &Workload { fwd, bwd });
        worst = worst.max(result.makespan);
    }

    let cost_units = encoder_gpus as f64
        * if encoder_gpu.name.starts_with("L20") {
            L20_COST
        } else {
            AMPERE_COST
        }
        + (64 + 8) as f64 * AMPERE_COST;
    HeteroOutcome {
        iter_secs: worst.as_secs_f64(),
        encoder_gpus,
        cost_units,
    }
}

/// Run the case study.
pub fn run() -> Report {
    let ampere = run_config(&GpuSpec::ampere(), 8);
    // Size the L20 pool to roughly match encoder throughput (peak ratio
    // ≈ 2.6×), then one step cheaper.
    let l20_matched = run_config(&GpuSpec::l20(), 21);
    let l20_lean = run_config(&GpuSpec::l20(), 16);

    let mut r = Report::new(
        "Case study (§8) — encoder on economical GPUs (MLLM-9B, 72 Ampere for LLM+gen)",
        &[
            "encoder pool",
            "iteration",
            "hardware cost",
            "cost efficiency",
        ],
    );
    r.note("Cost units: A100-class = 1.0, L20 = 0.3. Efficiency = 1/(time × cost),");
    r.note("normalized to the all-Ampere configuration.");
    let base_eff = 1.0 / (ampere.iter_secs * ampere.cost_units);
    for (name, o) in [
        ("8× Ampere", &ampere),
        ("21× L20 (throughput-matched)", &l20_matched),
        ("16× L20 (lean)", &l20_lean),
    ] {
        let eff = 1.0 / (o.iter_secs * o.cost_units);
        r.row(vec![
            name.into(),
            fmt_secs(o.iter_secs),
            format!("{:.1}", o.cost_units),
            fmt_ratio(eff / base_eff),
        ]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l20_encoder_pool_improves_cost_efficiency() {
        let ampere = run_config(&GpuSpec::ampere(), 8);
        let l20 = run_config(&GpuSpec::l20(), 21);
        // Near-equal time (encoder is not the bottleneck)…
        assert!(
            l20.iter_secs < ampere.iter_secs * 1.10,
            "{} vs {}",
            l20.iter_secs,
            ampere.iter_secs
        );
        // …at lower cost.
        assert!(l20.cost_units < ampere.cost_units);
    }
}
