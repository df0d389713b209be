//! Figure 3 — forward time under different input configurations.
//!
//! The paper measures, for a 70B-class setting (backbone PP=10, TP=8), the
//! forward time of one LLM PP stage against the modality encoder's and
//! generator's forward times as the number of images and the resolution
//! vary. The reproduction target is the *disparity pattern*: the LLM stage
//! is flat across configurations while encoder/generator vary by an order
//! of magnitude and overtake the LLM stage at the heavy end.

use crate::report::{fmt_secs, Report};
use dt_cluster::{ClusterSpec, CollectiveCost, GpuSpec};
use dt_model::{mllm::SampleShape, MllmPreset, ModuleKind};
use dt_orchestrator::PerfModel;

/// Run the sweep.
pub fn run() -> Report {
    let model = MllmPreset::Mllm72B.build();
    let gpu = GpuSpec::ampere();
    let coll = CollectiveCost::new(ClusterSpec::production(162));
    let perf = PerfModel::new(&model, &gpu, &coll);

    let mut r = Report::new(
        "Figure 3 — forward time vs input configuration (per microbatch)",
        &[
            "(#imgs, res)",
            "encoder fwd",
            "LLM stage fwd",
            "generator fwd",
        ],
    );
    r.note(
        "Backbone: Llama3-70B, one PP stage of PP=10, TP=8; encoder/generator replicated (TP=1).",
    );
    r.note("Paper shape: LLM stage constant; encoder/generator vary strongly and");
    r.note("overtake the LLM stage at high (#images, resolution).");

    let pp = 10u32;
    for (n, res) in [
        (1u32, 512u32),
        (5, 512),
        (10, 512),
        (1, 1024),
        (5, 1024),
        (10, 1024),
    ] {
        let tokens_per_image = model.encoder.tokens_per_image(res).min(8192 / n as u64);
        let image_tokens = (tokens_per_image * n as u64).min(8192);
        let shape = SampleShape {
            text_tokens: 8192 - image_tokens,
            image_tokens,
            num_images: n,
            gen_images: n,
            image_res: res,
            gen_res: res,
        };
        let enc = perf.module_fwd_time(ModuleKind::Encoder, &shape, 1);
        let llm_stage = perf.module_fwd_time(ModuleKind::Backbone, &shape, 8) / pp as u64;
        let gen = perf.module_fwd_time(ModuleKind::Generator, &shape, 1);
        r.row(vec![
            format!("({n}, {res})"),
            fmt_secs(enc.as_secs_f64()),
            fmt_secs(llm_stage.as_secs_f64()),
            fmt_secs(gen.as_secs_f64()),
        ]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llm_stage_is_flat_and_multimodal_varies() {
        let r = run();
        let parse = |s: &str| -> f64 {
            if let Some(v) = s.strip_suffix("ms") {
                v.parse::<f64>().unwrap() / 1e3
            } else if let Some(v) = s.strip_suffix("us") {
                v.parse::<f64>().unwrap() / 1e6
            } else {
                s.strip_suffix('s').unwrap().parse::<f64>().unwrap()
            }
        };
        let llm: Vec<f64> = r.rows.iter().map(|row| parse(&row[2])).collect();
        let enc: Vec<f64> = r.rows.iter().map(|row| parse(&row[1])).collect();
        // LLM stage constant (to within rounding of the formatter).
        assert!(llm.iter().all(|&t| (t - llm[0]).abs() / llm[0] < 0.05));
        // Encoder varies by >5× across the sweep.
        let (lo, hi) = (
            enc.iter().copied().fold(f64::MAX, f64::min),
            enc.iter().copied().fold(0.0, f64::max),
        );
        assert!(hi / lo > 5.0, "encoder should vary strongly: {lo} .. {hi}");
        // The heavy configuration overtakes the LLM stage.
        assert!(enc.last().unwrap() > llm.last().unwrap());
    }
}
