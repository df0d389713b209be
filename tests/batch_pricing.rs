//! A standing gate on batch pricing: `CostRows::new` prices each distinct
//! key once and copies the row to every later sample with that key, so a
//! key that stops telling samples apart hands a sample another's costs.
//! The skewed §2.3 stream mixes resolutions, image counts and text
//! lengths, so its samples share pricing slots without sharing keys. Every
//! row must equal the free functions' per-sample prices, bit for bit.

use disttrain::core::TrainingTask;
use disttrain::data::cost::{module_flops_forward, module_flops_train, multimodal_size, CostRows};
use disttrain::data::{DataConfig, SyntheticLaion};
use disttrain::model::{MllmPreset, ModuleKind};

#[test]
fn cost_rows_price_the_skewed_stream_as_the_free_functions_do() {
    for preset in MllmPreset::ALL {
        let task = TrainingTask::production(preset.build());
        let model = &task.model;
        let samples = SyntheticLaion::new(DataConfig::characterization(), task.seed)
            .take(task.global_batch as usize);
        assert_eq!(samples.len(), 1920);
        let rows = CostRows::new(model, &samples);
        let sizes = rows.multimodal_sizes();
        assert_eq!(rows.len(), samples.len());
        for (i, (s, r)) in samples.iter().zip(&rows.rows).enumerate() {
            let fwd = |k| module_flops_forward(model, k, s).to_bits();
            let at = format!("{preset:?} sample {i}: {s:?}");
            assert_eq!(r.enc_flops.to_bits(), fwd(ModuleKind::Encoder), "{at}");
            assert_eq!(
                r.backbone_flops.to_bits(),
                fwd(ModuleKind::Backbone),
                "{at}"
            );
            assert_eq!(r.gen_flops.to_bits(), fwd(ModuleKind::Generator), "{at}");
            assert_eq!(
                sizes[i].to_bits(),
                multimodal_size(model, s).to_bits(),
                "{at}"
            );
            let model_flops: f64 = ModuleKind::ALL
                .iter()
                .map(|&k| module_flops_train(model, k, s))
                .sum();
            assert_eq!(rows.model_flops(i).to_bits(), model_flops.to_bits(), "{at}");
            assert_eq!(r.pixels, s.total_pixels(), "{at}");
            assert_eq!(r.shape, s.shape(), "{at}");
        }
    }
}
