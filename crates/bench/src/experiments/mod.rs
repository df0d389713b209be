//! One module per reproduced table/figure. The mapping to the paper lives
//! in `DESIGN.md` §4 and `EXPERIMENTS.md`.

pub mod ablations;
pub mod elastic;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13_14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18_19;
pub mod fig21;
pub mod fig22;
pub mod hetero;
pub mod table3;
pub mod zoo;

use crate::report::Report;
use disttrain_core::TrainingTask;
use dt_model::{MllmPreset, MultimodalLlm};

/// Iterations per measured configuration (the simulator is deterministic;
/// two iterations exercise distinct batches without inflating runtime).
pub const MEASURE_ITERS: u32 = 2;

/// The §7.2 ablation task for a preset.
pub fn ablation_task(preset: MllmPreset) -> TrainingTask {
    TrainingTask::ablation(preset.build(), preset.ablation_global_batch())
}

/// The §7.1 production task for a preset.
pub fn production_task(preset: MllmPreset) -> TrainingTask {
    TrainingTask::production(preset.build())
}

/// An ablation task with a specific (frozen) model.
pub fn ablation_task_with(model: MultimodalLlm, preset: MllmPreset) -> TrainingTask {
    TrainingTask::ablation(model, preset.ablation_global_batch())
}

/// A reproducible experiment: its `repro` command name plus its runner.
pub type Experiment = (&'static str, fn() -> Report);

/// Every experiment, in presentation order, as `(command, runner)`.
pub fn all() -> Vec<Experiment> {
    vec![
        ("zoo", zoo::run as fn() -> Report),
        ("fig3", fig03::run),
        ("fig4", fig04::run),
        ("fig5", fig05::run),
        ("fig6", fig06::run),
        ("fig7", fig07::run),
        ("fig10", fig10::run),
        ("fig11", fig11::run),
        ("fig12", fig12::run),
        ("fig13", fig13_14::run_mfu),
        ("fig14", fig13_14::run_throughput),
        ("fig15", fig15::run),
        ("fig16", fig16::run),
        ("fig17", fig17::run),
        ("fig18", fig18_19::run_mfu),
        ("fig19", fig18_19::run_throughput),
        ("fig21", fig21::run),
        ("fig22", fig22::run),
        ("table3", table3::run),
        ("hetero", hetero::run),
        ("elastic", elastic::run),
        ("ablation-broker", ablations::broker),
        ("ablation-schedule", ablations::schedule),
        ("ablation-stepccl", ablations::stepccl_chunks),
        ("ablation-sp", ablations::sequence_parallelism),
        ("ablation-ep", ablations::expert_parallelism),
        ("ablation-vpp", ablations::vpp),
    ]
}
