//! Tables 1 & 2 — the architecture zoo and backbone configurations
//! (inputs of the evaluation, printed for cross-checking the presets).

use crate::report::Report;
use dt_model::llama;
use dt_model::mllm::architecture_zoo;
use dt_model::{MllmPreset, UNetConfig, VitConfig};

/// Render Tables 1 and 2 plus the derived preset parameter counts.
pub fn run() -> Report {
    let mut r = Report::new(
        "Tables 1 & 2 — model zoo and evaluation presets",
        &["entry", "encoder(s)", "backbone", "generator(s)", "params"],
    );
    r.note("Table 1 rows verbatim; Table 2 presets with derived parameter counts.");
    for e in architecture_zoo() {
        r.row(vec![
            e.model.clone(),
            e.encoders.join("+"),
            e.backbone.clone(),
            e.generators.join("+"),
            "-".into(),
        ]);
    }
    for cfg in [llama::llama3_7b(), llama::llama3_13b(), llama::llama3_70b()] {
        r.row(vec![
            cfg.name.clone(),
            "-".into(),
            format!(
                "{}L h={} f={} a={} g={}",
                cfg.layers, cfg.hidden, cfg.ffn_hidden, cfg.heads, cfg.kv_groups
            ),
            "-".into(),
            format!("{:.1}B", cfg.params() as f64 / 1e9),
        ]);
    }
    let vit = VitConfig::vit_huge();
    r.row(vec![
        "ViT-Huge (encoder)".into(),
        format!("{}L h={}", vit.trunk.layers, vit.trunk.hidden),
        "-".into(),
        "-".into(),
        format!("{:.2}B", vit.params() as f64 / 1e9),
    ]);
    let sd = UNetConfig::sd21();
    r.row(vec![
        "SD 2.1 UNet (generator)".into(),
        "-".into(),
        "-".into(),
        format!("base={} mult={:?}", sd.base_channels, sd.channel_mult),
        format!("{:.2}B", sd.params() as f64 / 1e9),
    ]);
    for p in MllmPreset::ALL {
        let m = p.build();
        r.row(vec![
            m.name.clone(),
            "ViT-Huge".into(),
            m.backbone.name.clone(),
            format!("SD2.1 @{}px", m.gen_resolution),
            format!("{:.1}B", m.total_params() as f64 / 1e9),
        ]);
    }
    r
}
