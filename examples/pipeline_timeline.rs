//! Visualize the pipeline schedules the reproduction is built on.
//!
//! ```text
//! cargo run --release --example pipeline_timeline
//! ```
//!
//! Renders ASCII Gantt charts of (a) a tight homogeneous 1F1B pipeline,
//! (b) the same pipeline with one straggler microbatch (Figure 7), and
//! (c) the straggler pipeline after Algorithm 2's reordering.

use disttrain::pipeline::{render_gantt, simulate, PipelineSpec, Schedule, Workload};
use disttrain::reorder::{inter_reorder, InterReorderConfig};
use disttrain::simengine::{DetRng, SimDuration};

fn run(stage0: &[f64]) -> String {
    let p = 4;
    let l = stage0.len();
    let mut fwd = vec![stage0
        .iter()
        .map(|&t| SimDuration::from_secs_f64(t))
        .collect::<Vec<_>>()];
    let mut bwd = vec![stage0
        .iter()
        .map(|&t| SimDuration::from_secs_f64(2.0 * t))
        .collect::<Vec<_>>()];
    for _ in 1..p {
        fwd.push(vec![SimDuration::from_secs_f64(0.10); l]);
        bwd.push(vec![SimDuration::from_secs_f64(0.20); l]);
    }
    let result = simulate(
        &PipelineSpec::uniform(Schedule::OneFOneB, p, SimDuration::ZERO),
        &Workload { fwd, bwd },
    );
    format!(
        "{}makespan {}\n",
        render_gantt(&result, 100),
        result.makespan
    )
}

fn main() {
    println!(
        "(a) homogeneous 1F1B, p=4, l=8 (encoder stage 0, LLM stages 1-3):\n{}",
        run(&[0.10; 8])
    );

    // Heterogeneous multimodal stage-0 times (log-normal, like §2.3's data).
    let mut rng = DetRng::new(27);
    let hetero: Vec<f64> = (0..10).map(|_| rng.lognormal(-2.2, 1.0)).collect();
    println!(
        "(b) heterogeneous encoder microbatches (Figure 7b):\n{}",
        run(&hetero)
    );

    let cfg = InterReorderConfig::new(4, 0.10, 0.20);
    let order = inter_reorder(&cfg, &hetero);
    let reordered: Vec<f64> = order.iter().map(|&i| hetero[i]).collect();
    println!("(c) after Algorithm 2 ({order:?}):\n{}", run(&reordered));
    println!("Algorithm 2 fills the stage-0 intervals and parks the smallest");
    println!("microbatches in the unfillable rear slots (here ~12% faster; the");
    println!("end-to-end effect across whole runs is Figure 16's 1.01-1.04x).");
}
