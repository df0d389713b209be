//! A standing gate on batch pricing: `CostRows::new` prices each distinct
//! key once and copies the row to every later sample with that key, so a
//! key that stops telling samples apart hands a sample another's costs.
//! The skewed §2.3 stream mixes resolutions, image counts and text
//! lengths, so its samples share pricing slots without sharing keys. Every
//! row must equal the free functions' per-sample prices, bit for bit.
//! The runtime's pipeline columns price a sample whose images differ in
//! resolution as the sum of its images' prices, each at its own
//! resolution.

use disttrain::cluster::{ClusterSpec, CollectiveCost};
use disttrain::core::{Runtime, RuntimeConfig, TrainingTask};
use disttrain::data::cost::{module_flops_forward, module_flops_train, multimodal_size, CostRows};
use disttrain::data::{DataConfig, Microbatch, SyntheticLaion, TrainSample};
use disttrain::model::mllm::SampleShape;
use disttrain::model::{MllmPreset, ModuleKind};
use disttrain::parallel::{ModulePlan, OrchestrationPlan};
use disttrain::simengine::SimDuration;

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
            assert_eq!(
                rows.shape(i).image_resolutions.pixels(),
                s.image_resolutions.pixels(),
                "{at}"
            );
            assert_eq!(*rows.shape(i), s.shape(), "{at}");
        }
    }
}

#[test]
fn runtime_columns_price_every_image_at_its_own_resolution() {
    // Encoder TP 1 exposes no allreduce and its 8 replicas match the
    // backbone's DP 8, so one encoder stage's forward time is the
    // microbatch's encoder time as the cost oracle prices it.
    let model = MllmPreset::Mllm9B.build();
    let cluster = ClusterSpec::production(20);
    let runtime = Runtime {
        model: &model,
        cluster: &cluster,
        plan: OrchestrationPlan {
            encoder: ModulePlan::new(1, 8, 1),
            backbone: ModulePlan::new(8, 8, 2),
            generator: ModulePlan::new(1, 8, 1),
            microbatch: 1,
        },
        data: DataConfig::evaluation(512),
        cfg: RuntimeConfig::disttrain(8, 1),
    };
    let coll = CollectiveCost::new(cluster.clone());
    let perf = runtime.perf_model(&coll);
    let sample = |images: &[u32]| {
        let mut s = TrainSample {
            id: 0,
            text_tokens: 0,
            image_resolutions: images.iter().copied().collect(),
            gen_images: 1,
            gen_resolution: 512,
            patch: 16,
        };
        s.text_tokens = 8192 - s.image_tokens();
        s
    };
    let encoder = |shape: &SampleShape| perf.module_fwd_time(ModuleKind::Encoder, shape, 1);
    // The input projector's time for the sample's image tokens, plus each
    // image alone at its own resolution, with no projector.
    let per_image_sum = |s: &TrainSample| {
        let projector = SampleShape {
            image_tokens: s.image_tokens(),
            ..sample(&[]).shape()
        };
        s.image_resolutions
            .iter()
            .map(|&res| SampleShape {
                image_tokens: 0,
                ..sample(&[res]).shape()
            })
            .fold(encoder(&projector), |sum, alone| sum + encoder(&alone))
    };
    let mixed = [
        sample(&[1024, 256]),
        sample(&[256, 1024]),
        sample(&[448, 448, 1024]),
    ];
    let microbatches: Vec<Microbatch> = mixed
        .iter()
        .map(|&s| Microbatch { samples: vec![s] })
        .chain([Microbatch {
            samples: mixed.to_vec(),
        }])
        .collect();
    let workload = runtime.build_workload_for(&perf, &microbatches);
    let columns = &workload.fwd[0];
    assert_eq!(columns.len(), microbatches.len());
    for (mb, &column) in microbatches.iter().zip(columns) {
        let expected = mb
            .samples
            .iter()
            .fold(SimDuration::ZERO, |sum, s| sum + per_image_sum(s));
        assert_eq!(column, expected, "{:?}", mb.samples);
    }
    assert_eq!(columns[0], columns[1], "packing order moved the price");
}
