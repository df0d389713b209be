//! The synthetic image codec — real CPU work standing in for JPEG.
//!
//! §2.3: "a typical training sample could include a 256-word text sequence
//! and ten 1024×1024 RGB images ... Preprocessing (e.g., decompression,
//! resizing, and reordering) such samples can take several seconds." We
//! cannot ship LAION's JPEGs, so the codec here generates deterministic
//! pseudo-image bytes and performs the same *classes* of work at the same
//! asymptotic costs: decompression is O(pixels) byte-level expansion,
//! resizing is an O(pixels) box filter, patchifying is an O(pixels)
//! 16×16-tile gather. Wall-clock per image lands in the tens of
//! milliseconds at 1024², so a 10-image sample costs real fractions of a
//! second on one worker — the regime Figure 17 measures.

use dt_data::TrainSample;

/// Raw-capture resolution multiplier: images arrive from storage larger
/// than the training resolution and are resized down (emulating the decode
/// → resize pipeline).
pub const RAW_SCALE_NUM: u32 = 5;
/// Denominator of the raw-capture multiplier (raw = res × 5/4).
pub const RAW_SCALE_DEN: u32 = 4;

/// A "compressed" synthetic image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedImage {
    /// Raw (on-disk) square edge, pixels.
    pub raw_res: u32,
    /// Compressed payload (deterministic from the seed).
    pub payload: Vec<u8>,
}

/// Deterministically synthesize the compressed form of one image at
/// *training* resolution `res` (raw capture is 5/4 larger per side).
pub fn synth_compressed(res: u32, seed: u64) -> CompressedImage {
    let raw_res = res * RAW_SCALE_NUM / RAW_SCALE_DEN;
    // ~10:1 "JPEG" ratio over the raw RGB size.
    let len = (3 * raw_res as usize * raw_res as usize) / 10;
    let mut payload = Vec::with_capacity(len);
    // Mix the seed first: adjacent seeds must produce unrelated payloads
    // (`seed | 1` alone would alias 42 and 43).
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for _ in 0..len {
        // xorshift64*: cheap, deterministic, fills the buffer with entropy.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        payload.push((state >> 56) as u8);
    }
    CompressedImage { raw_res, payload }
}

/// Per-byte mixing rounds of the synthetic decoder — calibrated so the
/// decode throughput lands in the 30–60 MB/s/core range of a real
/// high-quality JPEG decode (entropy decoding + IDCT are far more than
/// one instruction per output byte).
const DECODE_ROUNDS: u32 = 16;

/// "Decompress" to an RGB buffer of `3 × raw_res²` bytes. Every output
/// byte is derived from the payload with real byte-level mixing work,
/// matching a decoder's O(pixels) cost profile.
pub fn decompress(img: &CompressedImage) -> Vec<u8> {
    let n = 3 * img.raw_res as usize * img.raw_res as usize;
    let mut out = vec![0u8; n];
    let p = &img.payload;
    if p.is_empty() {
        return out;
    }
    let mut acc: u8 = 0x5a;
    for (i, o) in out.iter_mut().enumerate() {
        let mut b = p[i % p.len()];
        for r in 0..DECODE_ROUNDS {
            b = b.rotate_left(1).wrapping_mul(167).wrapping_add(r as u8);
        }
        acc = acc.rotate_left(3) ^ b.wrapping_add(i as u8);
        *o = acc;
    }
    out
}

/// Box-filter resize of a square RGB image from `from` to `to` pixels per
/// side (downscale; `to <= from`).
pub fn resize(rgb: &[u8], from: u32, to: u32) -> Vec<u8> {
    assert_eq!(
        rgb.len(),
        3 * from as usize * from as usize,
        "input is not 3·from²"
    );
    assert!(to <= from, "codec only downsizes ({from} → {to})");
    if to == from {
        return rgb.to_vec();
    }
    let (from, to) = (from as usize, to as usize);
    let mut out = vec![0u8; 3 * to * to];
    for y in 0..to {
        let y0 = y * from / to;
        let y1 = ((y + 1) * from / to).max(y0 + 1);
        for x in 0..to {
            let x0 = x * from / to;
            let x1 = ((x + 1) * from / to).max(x0 + 1);
            for c in 0..3 {
                let mut sum = 0u32;
                for yy in y0..y1 {
                    for xx in x0..x1 {
                        sum += rgb[3 * (yy * from + xx) + c] as u32;
                    }
                }
                let count = ((y1 - y0) * (x1 - x0)) as u32;
                out[3 * (y * to + x) + c] = (sum / count) as u8;
            }
        }
    }
    out
}

/// Gather a square RGB image into patch-major order (`patch × patch` tiles
/// row-major, channels interleaved) — the token layout the ViT consumes.
pub fn patchify(rgb: &[u8], res: u32, patch: u32) -> Vec<u8> {
    assert_eq!(
        rgb.len(),
        3 * res as usize * res as usize,
        "input is not 3·res²"
    );
    assert_eq!(res % patch, 0, "resolution must be patch-aligned");
    let (res, patch) = (res as usize, patch as usize);
    let per_side = res / patch;
    let mut out = Vec::with_capacity(rgb.len());
    for py in 0..per_side {
        for px in 0..per_side {
            for y in 0..patch {
                let row = (py * patch + y) * res + px * patch;
                out.extend_from_slice(&rgb[3 * row..3 * (row + patch)]);
            }
        }
    }
    out
}

/// The output of preprocessing one sample: patchified token bytes per
/// image, ready for the encoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreprocessedSample {
    /// The sample's id.
    pub sample_id: u64,
    /// Concatenated patch-major bytes of every image.
    pub token_bytes: Vec<u8>,
}

/// Full per-sample pipeline: synth → decompress → resize → patchify, for
/// every image in the sample. Deterministic in `(sample.id, image index)`.
pub fn preprocess_sample(sample: &TrainSample) -> PreprocessedSample {
    let mut token_bytes = Vec::new();
    for (i, &res) in sample.image_resolutions.iter().enumerate() {
        let compressed = synth_compressed(res, sample.id.wrapping_mul(1315423911) ^ i as u64);
        let raw = decompress(&compressed);
        let resized = resize(&raw, compressed.raw_res, res);
        token_bytes.extend(patchify(&resized, res, sample.patch));
    }
    PreprocessedSample {
        sample_id: sample.id,
        token_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_data::{DataConfig, SyntheticLaion};

    #[test]
    fn decompress_produces_full_rgb_buffer() {
        let img = synth_compressed(64, 7);
        assert_eq!(img.raw_res, 80);
        let rgb = decompress(&img);
        assert_eq!(rgb.len(), 3 * 80 * 80);
        // Entropy check: a real decode does not emit constant bytes.
        let distinct: std::collections::BTreeSet<u8> = rgb.iter().copied().collect();
        assert!(distinct.len() > 64);
    }

    #[test]
    fn codec_is_deterministic() {
        let a = decompress(&synth_compressed(64, 42));
        let b = decompress(&synth_compressed(64, 42));
        assert_eq!(a, b);
        assert_ne!(a, decompress(&synth_compressed(64, 43)));
    }

    #[test]
    fn resize_preserves_means_approximately() {
        let img = synth_compressed(64, 3);
        let rgb = decompress(&img);
        let small = resize(&rgb, 80, 64);
        assert_eq!(small.len(), 3 * 64 * 64);
        let mean = |v: &[u8]| v.iter().map(|&b| b as f64).sum::<f64>() / v.len() as f64;
        assert!(
            (mean(&rgb) - mean(&small)).abs() < 8.0,
            "box filter should preserve brightness"
        );
    }

    #[test]
    fn resize_identity_when_same_size() {
        let rgb = decompress(&synth_compressed(64, 1));
        // raw_res = 80; same-size resize is a copy.
        assert_eq!(resize(&rgb, 80, 80), rgb);
    }

    #[test]
    fn patchify_is_a_permutation() {
        let rgb = decompress(&synth_compressed(64, 9));
        let resized = resize(&rgb, 80, 64);
        let patched = patchify(&resized, 64, 16);
        assert_eq!(patched.len(), resized.len());
        let mut a = resized.clone();
        let mut b = patched.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn patchify_tiles_are_contiguous() {
        // 2×2 image with 1×1 patches in 3 channels: patch order == pixel
        // order for this degenerate case.
        let rgb: Vec<u8> = (0..12).collect();
        assert_eq!(patchify(&rgb, 2, 1), rgb);
    }

    #[test]
    fn sample_pipeline_emits_token_bytes_for_every_image() {
        let gen = SyntheticLaion::new(DataConfig::evaluation(512), 11);
        // Shrink resolutions for test speed while keeping the structure.
        let mut sample = gen.sample_at(0);
        sample.image_resolutions.fill(64);
        let out = preprocess_sample(&sample);
        let expected: usize = sample.image_resolutions.iter().map(|_| 3 * 64 * 64).sum();
        assert_eq!(out.token_bytes.len(), expected);
        assert_eq!(out.sample_id, sample.id);
    }
}
