//! Seeded generators for the domain types the oracles exercise.
//!
//! Everything is driven by a caller-supplied [`DetRng`], so a case is
//! fully reproducible from `(seed, size)`. Generators lean on the real
//! domain constructors (`SyntheticLaion` for LAION-skewed batches, the
//! planner's own `ProblemSpec`) rather than inventing parallel shapes —
//! the point is to feed the oracles inputs the production paths really
//! see, plus the hostile variants (truncated and corrupted wire streams)
//! they must survive.

use dt_data::{DataConfig, SyntheticLaion, TrainSample};
use dt_orchestrator::formulate::ProblemSpec;
use dt_pipeline::Workload;
use dt_preprocess::wire::{BatchHeader, Request};
use dt_simengine::frame::{write_frame, write_json};
use dt_simengine::{DetRng, SimDuration};

/// A batch of `n` LAION-skewed multimodal samples.
pub fn sample_batch(rng: &mut DetRng, n: usize) -> Vec<TrainSample> {
    SyntheticLaion::new(DataConfig::characterization(), rng.next_u64()).take(n)
}

/// `n` log-normal sample/microbatch sizes — the §2.3 heavy-tailed
/// multimodal load distribution.
pub fn lognormal_sizes(rng: &mut DetRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.lognormal(0.0, 1.0)).collect()
}

/// A pipeline shape `(stages, microbatches)` with both dimensions ≥ 1 and
/// microbatches scaled by `size`.
pub fn pipeline_shape(rng: &mut DetRng, size: usize) -> (usize, usize) {
    let p = rng.range_usize(1, 9);
    let l = rng.range_usize(1, size.max(1) + 1);
    (p, l)
}

/// A heterogeneous `[stage][microbatch]` workload for the 1F1B simulator.
pub fn heterogeneous_workload(rng: &mut DetRng, p: usize, l: usize) -> Workload {
    let d = |rng: &mut DetRng| SimDuration::from_nanos(rng.range_u64(1, 500));
    Workload {
        fwd: (0..p).map(|_| (0..l).map(|_| d(rng)).collect()).collect(),
        bwd: (0..p).map(|_| (0..l).map(|_| d(rng)).collect()).collect(),
    }
}

/// A random planner problem spec over the cluster shapes the evaluation
/// sweeps (kept small enough that the full serial/pruned differential
/// stays fast under `--seeds 200`).
pub fn problem_spec(rng: &mut DetRng) -> ProblemSpec {
    ProblemSpec {
        total_gpus: 8 * *rng.pick(&[1u32, 2, 3, 6, 12]),
        gpus_per_node: 8,
        hbm_bytes: *rng.pick(&[80 * (1u64 << 30), 40 * (1 << 30)]),
        global_batch: *rng.pick(&[16u32, 40, 64, 128]),
        microbatch: *rng.pick(&[1u32, 2]),
        vpp: *rng.pick(&[1u32, 2]),
        pp_hop_secs: *rng.pick(&[0.0, 0.02]),
    }
}

/// An adversarial planner spec: ~1 in 4 cases is deliberately infeasible
/// (starved HBM, an indivisible microbatch, or a sub-minimum cluster), so
/// differential oracles exercise the error paths — the pruned search must
/// reproduce the serial reference's *diagnosis* too, counts included —
/// while the rest stay on the feasible [`problem_spec`] sweep.
pub fn adversarial_problem_spec(rng: &mut DetRng) -> ProblemSpec {
    let mut spec = problem_spec(rng);
    match rng.range_usize(0, 8) {
        0 => spec.hbm_bytes = 1 << 28, // 256 MiB: the memory gate rejects all
        1 => {
            spec.global_batch = 16;
            spec.microbatch = 32; // BS/M = 0: empty DP lattice
        }
        2 => spec.total_gpus = *rng.pick(&[1u32, 2]), // below MIN_CLUSTER_GPUS
        _ => {}
    }
    spec
}

/// A well-formed wire stream: a few control/header/raw frames in protocol
/// order. Returns the stream plus the payloads, in frame order.
pub fn wire_stream(rng: &mut DetRng, frames: usize) -> (Vec<u8>, Vec<Vec<u8>>) {
    let mut buf = Vec::new();
    let mut payloads = Vec::new();
    for _ in 0..frames.max(1) {
        let start = buf.len();
        match rng.range_usize(0, 3) {
            0 => {
                let req = if rng.chance(0.5) {
                    Request::FetchBatch {
                        count: rng.range_u64(1, 256) as u32,
                    }
                } else {
                    Request::Shutdown
                };
                write_json(&mut buf, &req).expect("vec write cannot fail");
            }
            1 => {
                let n = rng.range_usize(1, 4);
                let samples = sample_batch(rng, n);
                let token_lens = samples.iter().map(|_| rng.range_u64(1, 4096)).collect();
                let header = BatchHeader {
                    samples,
                    token_lens,
                    producer_cpu_ns: rng.next_u64() >> 16,
                };
                write_json(&mut buf, &header).expect("vec write cannot fail");
            }
            _ => {
                let raw_len = rng.range_usize(0, 2048);
                let raw = rng.bytes(raw_len);
                write_frame(&mut buf, &raw).expect("vec write cannot fail");
            }
        }
        payloads.push(buf[start + 4..].to_vec());
    }
    (buf, payloads)
}

/// A hostile wire stream: a valid stream that is then truncated,
/// bit-flipped, prefixed with a lying length header, or replaced with
/// pure garbage. Decoders must error cleanly — never panic, never
/// balloon memory.
pub fn corrupt_wire_stream(rng: &mut DetRng, size: usize) -> Vec<u8> {
    let (mut buf, _) = wire_stream(rng, size.clamp(1, 6));
    match rng.range_usize(0, 4) {
        0 => {
            // Truncate mid-frame.
            let keep = rng.range_usize(0, buf.len());
            buf.truncate(keep);
        }
        1 => {
            // Flip random bytes (length headers included).
            for _ in 0..rng.range_usize(1, 9) {
                let at = rng.range_usize(0, buf.len());
                buf[at] ^= rng.next_u64() as u8 | 1;
            }
        }
        2 => {
            // Prefix a frame whose header claims far more than follows.
            let mut lying = Vec::new();
            let claim = rng.range_u64(1 << 20, 1 << 30) as u32;
            lying.extend_from_slice(&claim.to_le_bytes());
            let tail = rng.range_usize(0, 64);
            lying.extend_from_slice(&rng.bytes(tail));
            lying.extend_from_slice(&buf);
            buf = lying;
        }
        _ => {
            // Pure garbage.
            let garbage_len = rng.range_usize(0, 512);
            buf = rng.bytes(garbage_len);
        }
    }
    buf
}

/// One hostile-peer behavior against a live producer endpoint — the §6
/// data plane must shrug every one of these off: close the offending
/// session (counting it malformed where it is), keep serving well-behaved
/// consumers, and still shut down cleanly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostilePeer {
    /// Pure garbage bytes, then close.
    Garbage(Vec<u8>),
    /// A 4-byte length header claiming `claim` bytes, then `tail` real
    /// bytes, then close — the lying-header attack.
    LyingHeader { claim: u32, tail: Vec<u8> },
    /// A valid `FetchBatch` frame truncated after `keep` bytes, then close.
    TruncatedRequest { count: u32, keep: usize },
    /// Connect and immediately disconnect.
    SilentClose,
    /// A valid `FetchBatch`, then vanish without reading the response —
    /// the producer's write path hits the dead socket mid-batch.
    FetchThenVanish { count: u32 },
    /// A valid `FetchBatch`, read only `keep` bytes of the response, then
    /// vanish — a mid-stream disconnect while the response is in flight.
    FetchReadPartial { count: u32, keep: usize },
    /// The polite path: a well-formed `Shutdown`.
    PoliteShutdown,
}

impl HostilePeer {
    /// The bytes this peer writes before (possibly) reading and closing.
    /// Returns `(bytes_to_send, response_bytes_to_read)`.
    pub fn wire_bytes(&self) -> (Vec<u8>, usize) {
        let mut buf = Vec::new();
        match self {
            HostilePeer::Garbage(bytes) => (bytes.clone(), 0),
            HostilePeer::LyingHeader { claim, tail } => {
                buf.extend_from_slice(&claim.to_le_bytes());
                buf.extend_from_slice(tail);
                (buf, 0)
            }
            HostilePeer::TruncatedRequest { count, keep } => {
                write_json(&mut buf, &Request::FetchBatch { count: *count })
                    .expect("vec write cannot fail");
                buf.truncate((*keep).min(buf.len()));
                (buf, 0)
            }
            HostilePeer::SilentClose => (buf, 0),
            HostilePeer::FetchThenVanish { count } => {
                write_json(&mut buf, &Request::FetchBatch { count: *count })
                    .expect("vec write cannot fail");
                (buf, 0)
            }
            HostilePeer::FetchReadPartial { count, keep } => {
                write_json(&mut buf, &Request::FetchBatch { count: *count })
                    .expect("vec write cannot fail");
                (buf, *keep)
            }
            HostilePeer::PoliteShutdown => {
                write_json(&mut buf, &Request::Shutdown).expect("vec write cannot fail");
                (buf, 0)
            }
        }
    }
}

/// Draw one hostile-peer script. Counts stay small so the producer-side
/// codec work a hostile fetch triggers is bounded.
pub fn hostile_peer(rng: &mut DetRng) -> HostilePeer {
    match rng.range_usize(0, 7) {
        0 => {
            let len = rng.range_usize(1, 64);
            HostilePeer::Garbage(rng.bytes(len))
        }
        1 => {
            // Anything from "too big for a request" to "bigger than any
            // frame": both must close the session, not allocate.
            let claim = rng.range_u64(1 << 17, u32::MAX as u64) as u32;
            let tail_len = rng.range_usize(0, 32);
            HostilePeer::LyingHeader {
                claim,
                tail: rng.bytes(tail_len),
            }
        }
        2 => HostilePeer::TruncatedRequest {
            count: rng.range_u64(1, 4) as u32,
            keep: rng.range_usize(1, 12),
        },
        3 => HostilePeer::SilentClose,
        4 => HostilePeer::FetchThenVanish {
            count: rng.range_u64(1, 3) as u32,
        },
        5 => HostilePeer::FetchReadPartial {
            count: rng.range_u64(1, 3) as u32,
            keep: rng.range_usize(1, 64),
        },
        _ => HostilePeer::PoliteShutdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_simengine::frame::read_frame;
    use std::io::Cursor;

    #[test]
    fn generators_are_seed_deterministic() {
        let batch = |seed: u64| sample_batch(&mut DetRng::new(seed), 8);
        assert_eq!(batch(5), batch(5));
        assert_ne!(batch(5), batch(6));
        let stream = |seed: u64| corrupt_wire_stream(&mut DetRng::new(seed), 4);
        assert_eq!(stream(9), stream(9));
    }

    #[test]
    fn hostile_peers_are_seed_deterministic_and_cover_every_variant() {
        let peers = |seed: u64| -> Vec<HostilePeer> {
            let mut rng = DetRng::new(seed);
            (0..64).map(|_| hostile_peer(&mut rng)).collect()
        };
        assert_eq!(peers(13), peers(13));
        let sweep = peers(13);
        let discriminant = |p: &HostilePeer| match p {
            HostilePeer::Garbage(_) => 0,
            HostilePeer::LyingHeader { .. } => 1,
            HostilePeer::TruncatedRequest { .. } => 2,
            HostilePeer::SilentClose => 3,
            HostilePeer::FetchThenVanish { .. } => 4,
            HostilePeer::FetchReadPartial { .. } => 5,
            HostilePeer::PoliteShutdown => 6,
        };
        let mut seen = [false; 7];
        for p in &sweep {
            seen[discriminant(p)] = true;
            // Every script's wire bytes are well-defined and bounded.
            let (bytes, _) = p.wire_bytes();
            assert!(bytes.len() < 256, "{p:?} sends {} bytes", bytes.len());
        }
        assert!(
            seen.iter().all(|&s| s),
            "64 draws should cover all 7 behaviors: {seen:?}"
        );
    }

    #[test]
    fn wire_stream_frames_parse_back() {
        let mut rng = DetRng::new(3);
        let (buf, payloads) = wire_stream(&mut rng, 5);
        let mut cur = Cursor::new(buf);
        for p in &payloads {
            assert_eq!(&read_frame(&mut cur).unwrap(), p);
        }
    }

    #[test]
    fn adversarial_specs_mix_infeasible_shapes_into_the_sweep() {
        let mut rng = DetRng::new(11);
        let mut infeasible = 0u32;
        for _ in 0..200 {
            let s = adversarial_problem_spec(&mut rng);
            if s.hbm_bytes == 1 << 28
                || !s.global_batch.is_multiple_of(s.microbatch)
                || s.total_gpus < 3
            {
                infeasible += 1;
            }
        }
        assert!(
            (30..=120).contains(&infeasible),
            "expected roughly a quarter infeasible, got {infeasible}/200"
        );
    }

    #[test]
    fn problem_specs_stay_on_the_supported_lattice() {
        let mut rng = DetRng::new(7);
        for _ in 0..50 {
            let s = problem_spec(&mut rng);
            assert!(s.total_gpus >= 8 && s.total_gpus.is_multiple_of(8));
            assert!(
                s.global_batch.is_multiple_of(s.microbatch),
                "sweep specs keep a non-empty lattice"
            );
        }
    }
}
