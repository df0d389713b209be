//! The layout remap of Figure 21 — real buffer code.
//!
//! A chunked allgather delivers rank shards interleaved per chunk:
//!
//! ```text
//! received:  [chunk0: r0 r1 … r{R−1}] [chunk1: r0 r1 …] …
//! needed:    [r0: chunk0 chunk1 …]    [r1: chunk0 …]    …
//! ```
//!
//! i.e. a `(chunks × ranks)` → `(ranks × chunks)` block transpose over
//! fixed-size cells. §A.1 notes the remap usually costs little and can be
//! overlapped with weight-gradient computation when it does not.

/// Transpose `data` from `[chunk][rank]` cell order to `[rank][chunk]`,
/// writing into `out`. `cell_bytes` is the size of one (chunk, rank) cell.
///
/// # Panics
/// If the buffer sizes do not equal `chunks × ranks × cell_bytes`.
pub fn remap_layout_into(
    data: &[u8],
    out: &mut [u8],
    chunks: usize,
    ranks: usize,
    cell_bytes: usize,
) {
    let total = chunks * ranks * cell_bytes;
    assert_eq!(data.len(), total, "input is not chunks×ranks×cell");
    assert_eq!(out.len(), total, "output is not chunks×ranks×cell");
    for c in 0..chunks {
        for r in 0..ranks {
            let src = (c * ranks + r) * cell_bytes;
            let dst = (r * chunks + c) * cell_bytes;
            out[dst..dst + cell_bytes].copy_from_slice(&data[src..src + cell_bytes]);
        }
    }
}

/// Allocating wrapper around [`remap_layout_into`].
pub fn remap_layout(data: &[u8], chunks: usize, ranks: usize, cell_bytes: usize) -> Vec<u8> {
    let mut out = vec![0u8; data.len()];
    remap_layout_into(data, &mut out, chunks, ranks, cell_bytes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_by_two_transpose() {
        // chunks=2, ranks=2, cell=1: [c0r0, c0r1, c1r0, c1r1] →
        // [r0c0, r0c1, r1c0, r1c1].
        let data = [10u8, 20, 11, 21];
        assert_eq!(remap_layout(&data, 2, 2, 1), vec![10, 11, 20, 21]);
    }

    #[test]
    fn multi_byte_cells_stay_contiguous() {
        // chunks=2, ranks=2, cell=2.
        let data = [1u8, 1, 2, 2, 3, 3, 4, 4]; // c0:[r0=11, r1=22] c1:[r0=33, r1=44]
        assert_eq!(remap_layout(&data, 2, 2, 2), vec![1, 1, 3, 3, 2, 2, 4, 4]);
    }

    #[test]
    fn single_rank_is_identity() {
        let data: Vec<u8> = (0..24).collect();
        assert_eq!(remap_layout(&data, 4, 1, 6), data);
    }

    #[test]
    #[should_panic(expected = "chunks×ranks×cell")]
    fn size_mismatch_is_rejected() {
        remap_layout(&[0u8; 7], 2, 2, 2);
    }

    /// The remap is a permutation and transposing twice (with swapped
    /// dims) is the identity. Seed-swept property over layout geometries.
    #[test]
    fn remap_is_an_involution_under_dim_swap() {
        for seed in 0u64..100 {
            let mut rng = dt_simengine::DetRng::new(seed);
            let chunks = rng.range_usize(1, 8);
            let ranks = rng.range_usize(1, 8);
            let cell = rng.range_usize(1, 16);
            let n = chunks * ranks * cell;
            let data: Vec<u8> = (0..n).map(|_| rng.range_u64(0, 256) as u8).collect();
            let once = remap_layout(&data, chunks, ranks, cell);
            // Permutation: same multiset of bytes.
            let mut a = data.clone();
            let mut b = once.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "seed {seed}");
            // Involution.
            let twice = remap_layout(&once, ranks, chunks, cell);
            assert_eq!(twice, data, "seed {seed}");
        }
    }
}
