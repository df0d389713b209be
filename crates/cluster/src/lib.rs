//! # dt-cluster — hardware model and communication cost models
//!
//! The paper evaluates DistTrain on a production cluster: nodes with 8
//! NVIDIA Ampere GPUs joined by 300 GB/s (bidirectional) NVLink, nodes
//! joined by a 4×200 Gb/s RoCEv2 fabric with a rail-optimized topology
//! (§7, *Setup*). This crate is the analytic stand-in for that hardware:
//!
//! * [`GpuSpec`] — peak FLOP/s, HBM capacity, and a GEMM-efficiency ramp
//!   (small operations achieve a smaller fraction of peak). Compute time is
//!   `flops / (peak × efficiency(flops))`.
//! * [`NodeSpec`] / [`ClusterSpec`] — the node and fabric geometry.
//! * [`collective`] — α/β cost models for ring allreduce, allgather,
//!   point-to-point transfers, and the hierarchical (intra-node ring +
//!   inter-node ring) variants used by large DP groups.
//!
//! All downstream timing in the reproduction flows through these functions,
//! so their shapes (linear in bytes, harmonic in group size, NVLink ≫ RDMA)
//! are what preserves the paper's relative results.

pub mod collective;
pub mod gpu;
pub mod topology;

pub use collective::{CollectiveCost, CollectiveKind, CommDomain};
pub use gpu::GpuSpec;
pub use topology::{ClusterSpec, NodeSpec};
