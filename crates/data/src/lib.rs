//! # dt-data — synthetic heterogeneous multimodal training data
//!
//! §2.3 of the paper characterizes LAION-400M as packed 8K-token training
//! sequences built by interleaving text and image *subsequences*: each image
//! is cut into 16×16 patches (one token per patch), texts are tokenized with
//! the Llama tokenizer, and both distributions — subsequence sizes and the
//! number of image subsequences per sample — are highly skewed (Figure 5).
//! That skew is the *entire* cause of the intra-/inter-microbatch stragglers
//! DistTrain's reordering removes, so reproducing the distribution shapes
//! faithfully is what makes the downstream experiments meaningful.
//!
//! We cannot ship LAION-400M, so [`SyntheticLaion`] draws from calibrated
//! skewed distributions instead (log-normal text lengths, Zipf-like image
//! counts, a heavy-tailed resolution mix) and packs them into fixed-length
//! sequences exactly like the paper describes. A [`TrainSample`] records
//! the packed sequence's shape (text tokens, image resolutions, generation
//! targets), which is all the cost models read. It is a fixed-size `Copy`
//! value: the resolutions sit inline, at most [`MAX_IMAGES`] of them, so a
//! batch is drawn, moved and dropped without a heap allocation per
//! sample. Each sample is drawn from its own generator keyed by
//! `(seed, id)`, and its text-subsequence lengths are expanded on demand
//! for the Figure 5 characterization.
//!
//! Modules:
//! * [`config`] — distribution parameters (+ fixed-resolution mode used by
//!   the §7 experiments).
//! * [`dataset`] — the keyed generator and packed [`TrainSample`]s.
//! * [`batch`] — global batch / DP split / microbatch bookkeeping.
//! * [`cost`] — preprocessing cost model (decode + resize time, bytes).

pub mod batch;
pub mod config;
pub mod cost;
pub mod dataset;

pub use batch::{GlobalBatch, Microbatch};
pub use config::{DataConfig, ResolutionMode};
pub use dataset::{SyntheticLaion, TrainSample};
pub use dt_model::mllm::{Resolutions, MAX_IMAGES};
