//! Algorithm 1 — intra-microbatch reordering.
//!
//! Goal: minimize the maximum total sample size across the `m` DP groups
//! (the straggler group gates the iteration, Figure 6). This is multiway
//! number partitioning — NP-hard — so the paper uses the classic LPT greedy:
//! sort descending, always assign to the least-loaded group. The returned
//! order is the concatenation of the groups, matching how
//! `GlobalBatch::split` hands contiguous chunks to DP ranks.
//!
//! With two or more groups, sizes never increase within a group's chunk
//! and equal sizes keep their index order, so groups dealt equal size
//! multisets get equal streams: the repeats [`crate::inter`] reuses.
//!
//! Complexity: `O(n log n)` for the sort, then one pass over the sorted
//! order in runs of equal size. Within a run every pick bumps its group
//! by the same size, so the groups picked form a merge of two sorted
//! queues: the open groups, sorted by `(load, group index)`, and the
//! groups this run already bumped, in pick order. Each pick compares the
//! two fronts; at the end of the run the bumped queue is merged back into
//! the open list from its tail. So after the sort a pick costs `O(1)`,
//! and each run ends with a gallop and a bisection per bumped group and at
//! most `m` entries moved. The production batch (`n` = 1920, `m` = 128)
//! has about 26 distinct sizes, so it pays about 26 merges; a batch of
//! all-distinct sizes pays one merge per sample.

use crate::error::ReorderError;
use std::cmp::Ordering;

/// A DP group that still has room: its load and its index.
type Open = (f64, usize);

/// Whether `a` is picked before `b`: the least-loaded group first, ties
/// going to the lowest index — the choice the paper's strict-`<` scan
/// makes.
///
/// Loads compare with [`f64::total_cmp`], which orders them exactly as
/// `<` does here: a load starts at `+0.0` and adds only finite sizes
/// (non-finite ones are rejected up front), so it is never NaN (a finite
/// size added to `±inf` leaves it infinite) and never `-0.0` (a
/// round-to-nearest sum is `-0.0` only when both terms are).
fn before(a: &Open, b: &Open) -> bool {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).is_lt()
}

/// `<`/`>` as an ordering: equal (`0.0` and `-0.0` included) when
/// neither holds, so it never panics.
pub(crate) fn cmp_f64(a: f64, b: f64) -> Ordering {
    if a < b {
        Ordering::Less
    } else if a > b {
        Ordering::Greater
    } else {
        Ordering::Equal
    }
}

/// Reorder a batch whose samples have the given `sizes` so that splitting
/// it into `m` contiguous equal-count chunks yields balanced total size.
/// Returns the new order as indices into `sizes`, or
/// [`ReorderError::IndivisibleBatch`] when no equal-count split exists and
/// [`ReorderError::NonFiniteSize`] when a size is NaN or infinite (the
/// caller decides the policy — `ReorderPlanner` passes such batches
/// through unreordered).
///
/// Mirrors the paper's Algorithm 1 line by line, with one practical
/// addition: because the trainer splits the batch into *equal-count*
/// chunks, the greedy must not overfill a group's sample quota
/// (`n / m`); a group leaves the open list once it is full.
pub fn intra_reorder_indices(sizes: &[f64], m: usize) -> Result<Vec<usize>, ReorderError> {
    let n = sizes.len();
    if let Some(index) = sizes.iter().position(|s| !s.is_finite()) {
        return Err(ReorderError::NonFiniteSize { index });
    }
    if m <= 1 || n == 0 {
        return Ok((0..n).collect());
    }
    if !n.is_multiple_of(m) {
        return Err(ReorderError::IndivisibleBatch { n, m });
    }
    let quota = n / m;

    // Line 3: sort in descending order by size.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| cmp_f64(sizes[b], sizes[a]));

    // Lines 4–11: greedy assignment to the least-loaded non-full group,
    // each pick written straight to its slot in the concatenated order.
    // `open[head..]` is sorted; picks leave from its front and the groups
    // a run bumped rejoin at its back, so it never outgrows `m + n`.
    let mut out = vec![0; n];
    let mut filled = vec![0; m];
    let mut open: Vec<Open> = Vec::with_capacity(m + n);
    open.extend((0..m).map(|group| (0.0, group)));
    let mut head = 0;
    let mut bumped: Vec<Open> = Vec::new();
    for run in order.chunk_by(|&a, &b| cmp_f64(sizes[a], sizes[b]).is_eq()) {
        bumped.clear();
        let mut bumped_head = 0;
        for &idx in run {
            // The groups hold exactly `n` samples, so one is always open:
            // the lesser of the two fronts.
            let from_bumped = bumped
                .get(bumped_head)
                .is_some_and(|b| open.get(head).is_none_or(|o| before(b, o)));
            let (load, g) = if from_bumped {
                bumped_head += 1;
                bumped[bumped_head - 1]
            } else {
                head += 1;
                open[head - 1]
            };
            out[g * quota + filled[g]] = idx;
            filled[g] += 1;
            if filled[g] < quota {
                // Bumped loads arrive in pick order, but rounding can make
                // two of them equal out of group order: sort each one in.
                let entry = (load + sizes[idx], g);
                let mut i = bumped.len();
                bumped.push(entry);
                while i > bumped_head && before(&entry, &bumped[i - 1]) {
                    bumped[i] = bumped[i - 1];
                    i -= 1;
                }
                bumped[i] = entry;
            }
        }
        merge_from_tail(&mut open, head, &bumped[bumped_head..]);
    }
    Ok(out)
}

/// Merge the sorted `rest` into the sorted `open[head..]` in place,
/// growing `open` by `rest.len()`. Largest entry first, each finds its
/// slot by galloping back from the unmerged tail, then bisecting; the
/// open entries after it move up in one copy.
fn merge_from_tail(open: &mut Vec<Open>, head: usize, rest: &[Open]) {
    let mut end = open.len();
    open.extend_from_slice(rest);
    for (below, entry) in rest.iter().enumerate().rev() {
        // Every entry of `open[hi..end]` comes after `entry`.
        let mut hi = end;
        let mut step = 1;
        let lo = loop {
            match end.checked_sub(step).filter(|&i| i >= head) {
                Some(i) if before(entry, &open[i]) => {
                    hi = i;
                    step *= 2;
                }
                Some(i) => break i + 1,
                None => break head,
            }
        };
        let slot = lo + open[lo..hi].partition_point(|o| before(o, entry));
        open.copy_within(slot..end, slot + below + 1);
        open[slot + below] = *entry;
        end = slot;
    }
}

/// The makespan metric Algorithm 1 minimizes: split `sizes` (already in
/// dispatch order) into exactly `m` contiguous groups and return the
/// largest group total.
///
/// When `sizes.len()` is not divisible by `m`, the first `len % m` groups
/// hold one extra sample, matching how a trainer hands near-equal
/// contiguous chunks to DP ranks; when `m > sizes.len()` the trailing
/// groups are empty (load 0). Either way exactly `m` groups are evaluated
/// — never more (a prior version chunked by `len / m` and would silently
/// score a trailing partial chunk as an extra group, or degenerate to
/// one-sample chunks).
pub fn max_group_load(sizes: &[f64], m: usize) -> f64 {
    if sizes.is_empty() || m == 0 {
        return 0.0;
    }
    let base = sizes.len() / m;
    let extra = sizes.len() % m;
    let mut max = 0.0f64;
    let mut start = 0usize;
    for g in 0..m {
        let len = base + usize::from(g < extra);
        max = max.max(sizes[start..start + len].iter().sum());
        start += len;
    }
    debug_assert_eq!(start, sizes.len(), "partition must consume every sample");
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_simengine::DetRng;

    /// The paper's Algorithm 1 as first written: an `O(m)` strict-`<`
    /// argmin scan over the non-full groups, then a concatenation.
    fn linear_scan_reference(sizes: &[f64], m: usize) -> Vec<usize> {
        let n = sizes.len();
        if m <= 1 || n == 0 {
            return (0..n).collect();
        }
        let quota = n / m;
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| sizes[b].partial_cmp(&sizes[a]).unwrap());
        let mut groups: Vec<Vec<usize>> = vec![Vec::with_capacity(quota); m];
        let mut loads = vec![0.0f64; m];
        for idx in order {
            let mut best = usize::MAX;
            for g in 0..m {
                if groups[g].len() < quota && (best == usize::MAX || loads[g] < loads[best]) {
                    best = g;
                }
            }
            groups[best].push(idx);
            loads[best] += sizes[idx];
        }
        groups.concat()
    }

    /// The run merge picks exactly what the scan picks, ties included:
    /// random sizes, sizes drawn from a few values (many equal loads),
    /// all-zero sizes, one sample per group (`m = n`) and one group
    /// (`m = 1`). Negative sizes (loads cross zero), `±0.0` mixes, and
    /// sizes near `±f64::MAX` whose sums overflow to `±inf` are where
    /// `total_cmp` would part from `<` if a load could be NaN or `-0.0`.
    /// Sizes of `1e16 + {0, 1, 2, 3}` bump loads that round together, so
    /// a run's bumped groups arrive out of group order; a few distinct
    /// log-normal values give long runs, as production batches do.
    #[test]
    fn matches_the_linear_scan() {
        for seed in 0u64..300 {
            let mut rng = DetRng::new(seed);
            let m = rng.range_usize(1, 40);
            let per_group = rng.range_usize(1, 12);
            let n = m * per_group;
            let random: Vec<f64> = (0..n).map(|_| rng.lognormal(2.0, 1.0)).collect();
            let tied: Vec<f64> = (0..n).map(|_| rng.range_usize(0, 3) as f64).collect();
            let signed: Vec<f64> = (0..n).map(|_| rng.range_f64(-4.0, 4.0).round()).collect();
            let zeros: Vec<f64> = (0..n).map(|_| *rng.pick(&[0.0, -0.0, 1.0])).collect();
            let huge: Vec<f64> = (0..n)
                .map(|_| *rng.pick(&[f64::MAX, -f64::MAX, 0.75 * f64::MAX, -0.0, 1.0]))
                .collect();
            let rounding: Vec<f64> = (0..n)
                .map(|_| 1e16 + rng.range_usize(0, 4) as f64)
                .collect();
            let values: Vec<f64> = (0..rng.range_usize(1, 6))
                .map(|_| rng.lognormal(2.0, 1.0))
                .collect();
            let few: Vec<f64> = (0..n).map(|_| *rng.pick(&values)).collect();
            let cases = [
                random,
                tied,
                vec![0.0; n],
                signed,
                zeros,
                huge,
                rounding,
                few,
            ];
            for sizes in &cases {
                for groups in [m, 1, n] {
                    assert_eq!(
                        intra_reorder_indices(sizes, groups).unwrap(),
                        linear_scan_reference(sizes, groups),
                        "seed {seed} n={n} m={groups}"
                    );
                }
            }
        }
    }

    /// The module-level invariant: with two or more groups, sizes never
    /// increase within a group's chunk and ties keep index order, over the
    /// random, tied and signed cases of `matches_the_linear_scan`.
    #[test]
    fn groups_list_their_samples_in_dealing_order() {
        for seed in 0u64..300 {
            let mut rng = DetRng::new(seed);
            let m = rng.range_usize(1, 40);
            let n = m * rng.range_usize(1, 12);
            let random: Vec<f64> = (0..n).map(|_| rng.lognormal(2.0, 1.0)).collect();
            let tied: Vec<f64> = (0..n).map(|_| rng.range_usize(0, 3) as f64).collect();
            let signed: Vec<f64> = (0..n).map(|_| rng.range_f64(-4.0, 4.0).round()).collect();
            for sizes in [random, tied, signed] {
                for groups in [m, n].into_iter().filter(|&g| g > 1) {
                    let order = intra_reorder_indices(&sizes, groups).unwrap();
                    for chunk in order.chunks(n / groups) {
                        for w in chunk.windows(2) {
                            let (a, b) = (w[0], w[1]);
                            assert!(
                                sizes[a] > sizes[b] || (sizes[a] == sizes[b] && a < b),
                                "seed {seed} m={groups}: {a}:{} before {b}:{}",
                                sizes[a],
                                sizes[b]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn figure_11_example() {
        // Four samples, sizes descending 1 ≥ 2 ≥ 3 ≥ 4; DP=2. The paper
        // reorders [1,2,3,4] → [1,4 | 2,3]-equivalent balanced groups.
        let sizes = [10.0, 8.0, 6.0, 5.0];
        let order = intra_reorder_indices(&sizes, 2).unwrap();
        let reordered: Vec<f64> = order.iter().map(|&i| sizes[i]).collect();
        // Group 1 gets the largest + smallest, group 2 the middle two.
        assert_eq!(reordered, vec![10.0, 5.0, 8.0, 6.0]);
        assert!(max_group_load(&reordered, 2) < max_group_load(&sizes, 2));
    }

    #[test]
    fn balanced_groups_beat_sorted_order() {
        let mut rng = DetRng::new(1);
        let sizes: Vec<f64> = (0..64).map(|_| rng.lognormal(2.0, 1.0)).collect();
        let naive = max_group_load(&sizes, 8);
        let order = intra_reorder_indices(&sizes, 8).unwrap();
        let reordered: Vec<f64> = order.iter().map(|&i| sizes[i]).collect();
        assert!(max_group_load(&reordered, 8) <= naive);
    }

    #[test]
    fn groups_have_equal_counts() {
        let mut rng = DetRng::new(2);
        let sizes: Vec<f64> = (0..24).map(|_| rng.range_f64(0.0, 100.0)).collect();
        let order = intra_reorder_indices(&sizes, 6).unwrap();
        assert_eq!(order.len(), 24);
        // Equal-count chunks by construction; just confirm it's a perm.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn indivisible_batch_returns_typed_error() {
        assert_eq!(
            intra_reorder_indices(&[1.0; 10], 3),
            Err(crate::ReorderError::IndivisibleBatch { n: 10, m: 3 })
        );
    }

    #[test]
    fn non_finite_sizes_return_typed_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for m in [1, 2] {
                assert_eq!(
                    intra_reorder_indices(&[1.0, bad, 2.0, 3.0], m),
                    Err(crate::ReorderError::NonFiniteSize { index: 1 })
                );
            }
        }
    }

    #[test]
    fn single_group_is_identity() {
        let sizes = [3.0, 1.0, 2.0];
        assert_eq!(intra_reorder_indices(&sizes, 1).unwrap(), vec![0, 1, 2]);
    }

    /// Regression: a non-divisible `sizes.len()` used to be chunked by
    /// `len / m`, which evaluated a trailing partial chunk as an extra
    /// group (reporting more than `m` groups) — now the split is exactly
    /// `m` contiguous groups with the first `len % m` one larger.
    #[test]
    fn max_group_load_splits_into_exactly_m_groups() {
        // 5 samples, m=2 → groups [1,1,1 | 1,1]: max 3, not the old
        // chunks-of-2 answer 2.
        assert_eq!(max_group_load(&[1.0; 5], 2), 3.0);
        // 3 samples, m=2 → groups [5+1 | 1]: max 6, not the old
        // one-sample-chunk answer 5.
        assert_eq!(max_group_load(&[5.0, 1.0, 1.0], 2), 6.0);
        // 5 samples, m=3 → groups [2,2,1], not five one-sample chunks.
        assert_eq!(max_group_load(&[1.0, 1.0, 1.0, 1.0, 1.0], 3), 2.0);
    }

    /// Regression: `m > sizes.len()` used to degenerate to one-sample
    /// chunks; now the trailing groups are empty and contribute load 0.
    #[test]
    fn max_group_load_with_more_groups_than_samples() {
        assert_eq!(max_group_load(&[2.0, 3.0], 5), 3.0);
        assert_eq!(max_group_load(&[7.0], 4), 7.0);
    }

    #[test]
    fn max_group_load_divisible_case_is_unchanged() {
        assert_eq!(max_group_load(&[10.0, 5.0, 8.0, 6.0], 2), 15.0);
        assert_eq!(max_group_load(&[1.0, 2.0, 3.0, 4.0], 4), 4.0);
        assert_eq!(max_group_load(&[1.0, 2.0], 1), 3.0);
    }

    /// Exact optimum by exhaustive assignment for tiny instances, used to
    /// check the LPT approximation bound.
    fn brute_force_opt(sizes: &[f64], m: usize) -> f64 {
        let quota = sizes.len() / m;
        let mut best = f64::INFINITY;
        let mut assign = vec![0usize; sizes.len()];
        #[allow(clippy::too_many_arguments)] // exhaustive-search helper threads all state explicitly
        fn rec(
            i: usize,
            sizes: &[f64],
            m: usize,
            quota: usize,
            assign: &mut [usize],
            counts: &mut [usize],
            loads: &mut [f64],
            best: &mut f64,
        ) {
            if i == sizes.len() {
                let max = loads.iter().copied().fold(0.0, f64::max);
                if max < *best {
                    *best = max;
                }
                return;
            }
            for g in 0..m {
                if counts[g] < quota {
                    counts[g] += 1;
                    loads[g] += sizes[i];
                    assign[i] = g;
                    rec(i + 1, sizes, m, quota, assign, counts, loads, best);
                    counts[g] -= 1;
                    loads[g] -= sizes[i];
                }
            }
        }
        rec(
            0,
            sizes,
            m,
            quota,
            &mut assign,
            &mut vec![0; m],
            &mut vec![0.0; m],
            &mut best,
        );
        best
    }

    /// Reordering is always a permutation (the convergence-semantics
    /// invariant: gradient accumulation is commutative, so a permutation
    /// changes nothing about the training result). Seed-swept property.
    #[test]
    fn reorder_is_a_permutation() {
        for seed in 0u64..500 {
            let mut rng = DetRng::new(seed);
            let n_groups = rng.range_usize(1, 6);
            let per_group = rng.range_usize(1, 6);
            let n = n_groups * per_group;
            let sizes: Vec<f64> = (0..n).map(|_| rng.range_f64(0.0, 50.0)).collect();
            let order = intra_reorder_indices(&sizes, n_groups).unwrap();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "seed {seed}");
        }
    }

    /// LPT never loses to the original order and stays within the 4/3
    /// bound of the exact optimum on small instances. Seed-swept property.
    #[test]
    fn lpt_is_within_four_thirds_of_opt() {
        for seed in 0u64..200 {
            let mut rng = DetRng::new(seed);
            let m = rng.range_usize(2, 4);
            let per_group = rng.range_usize(2, 4);
            let n = m * per_group;
            let sizes: Vec<f64> = (0..n).map(|_| rng.range_f64(1.0, 100.0)).collect();
            let order = intra_reorder_indices(&sizes, m).unwrap();
            let reordered: Vec<f64> = order.iter().map(|&i| sizes[i]).collect();
            let lpt = max_group_load(&reordered, m);
            let opt = brute_force_opt(&sizes, m);
            assert!(
                lpt <= opt * (4.0 / 3.0) + 1e-9,
                "seed {seed}: LPT {lpt} vs OPT {opt}"
            );
        }
    }
}
