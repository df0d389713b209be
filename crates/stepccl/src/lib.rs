//! # dt-stepccl — TP communication/computation overlap (§6, Appendix A.1)
//!
//! Tensor parallelism serializes a collective after every sharded linear
//! layer; NCCL's kernels occupy SMs and slow concurrent GEMMs. StepCCL —
//! the in-house collective library DistTrain deploys in production (§6) and
//! details in Appendix A.1 — moves the transfers to the DMA engines (no
//! SMs), decomposes each GEMM + collective into chunk pairs, and overlaps
//! chunk `i`'s transfer with chunk `i−1`'s GEMM (Figure 20). A final
//! *layout remap* restores the contiguous result (Figure 21), itself
//! overlappable with weight-gradient computation.
//!
//! This crate reproduces both halves:
//!
//! * [`overlap`] — the exact chunk-timeline algebra: [`sequential_time`]
//!   (baseline collective + GEMM), [`nccl_concurrent_time`] (SM-contention
//!   slowdown), and [`overlapped_time`] (DMA overlap + remap), plus
//!   [`StepCclModel`], the per-layer/per-stage iteration model behind
//!   Figure 22;
//! * [`remap`] — a real implementation of the layout remap on byte buffers
//!   ([`remap_layout`]: the chunked allgather delivers `[chunk][rank]`
//!   order; training needs `[rank][chunk]`), property-tested as a pure
//!   permutation.
//!
//! The per-stage GEMM/collective times that feed [`StepCclModel`] come from
//! `dt-model`'s analytical cost model. The training runtime does not call
//! [`StepCclModel`]: when a run enables StepCCL, `disttrain-core` hides a
//! constant fraction, `dt_orchestrator::perf::STEPCCL_TP_OVERLAP` (0.85),
//! of every TP collective through `PerfModel::with_stepccl`.

pub mod overlap;
pub mod remap;

pub use overlap::{nccl_concurrent_time, overlapped_time, sequential_time, StepCclModel};
pub use remap::{remap_layout, remap_layout_into};
