//! Generic Zipf-correlated multi-assignment generators.
//!
//! These are the workhorse inputs of micro-benchmarks, property tests and the
//! quickstart example: heavy-tailed weights whose cross-assignment
//! correlation and churn are directly controllable.

use cws_core::columns::RecordColumns;
use cws_core::weights::MultiWeighted;
use cws_hash::RandomSource;

use crate::distributions::{lognormal, rng_for, zipf_mandelbrot};

/// Generates a multi-assignment data set with Zipf-distributed base weights.
///
/// Every key draws a base weight from a Zipf-Mandelbrot law over the key
/// universe. For each assignment the key keeps its base weight scaled by
/// log-normal noise of magnitude `1 - correlation` and is dropped entirely
/// (weight 0) with probability `churn`.
///
/// * `correlation = 1.0`, `churn = 0.0` → all assignments identical.
/// * `correlation = 0.0` → assignments share only the popularity skew.
///
/// # Panics
/// Panics if `num_keys == 0`, `num_assignments == 0`, or `correlation` /
/// `churn` are outside `[0, 1]`.
#[must_use]
pub fn correlated_zipf(
    num_keys: usize,
    num_assignments: usize,
    exponent: f64,
    correlation: f64,
    churn: f64,
    seed: u64,
) -> MultiWeighted {
    assert!(num_keys > 0, "need at least one key");
    assert!(num_assignments > 0, "need at least one assignment");
    assert!((0.0..=1.0).contains(&correlation), "correlation must be in [0, 1]");
    assert!((0.0..=1.0).contains(&churn), "churn must be in [0, 1]");

    let popularity = zipf_mandelbrot(num_keys, exponent, 1.0);
    let sigma = (1.0 - correlation) * 0.8;
    let mut rng = rng_for(seed, 0xC0FFEE);
    let mut builder = MultiWeighted::builder(num_assignments);
    for (index, &p) in popularity.iter().enumerate() {
        let key = index as u64;
        let base = p * num_keys as f64 * 100.0;
        for assignment in 0..num_assignments {
            let dropped = rng.next_unit() < churn;
            let weight = if dropped {
                0.0
            } else if sigma == 0.0 {
                base
            } else {
                base * lognormal(&mut rng, 0.0, sigma)
            };
            builder.add(key, assignment, weight);
        }
    }
    builder.build()
}

/// One observation of an *unaggregated* element stream: a key, the weight
/// assignment it contributes to, and a fragment of that slot's total weight.
pub type Element = (u64, usize, f64);

/// Shreds an aggregated column batch into a deterministic unaggregated
/// element stream: every non-zero `(key, assignment)` slot is split into
/// `min_fragments..=max_fragments` weight fragments, and the fragments of
/// all slots are interleaved pseudo-randomly (keys arrive mixed together,
/// the way raw log records do before any aggregation).
///
/// Two properties make the stream usable as a *bit-exact* parity input for
/// a `SumByKey` aggregation stage:
///
/// * **Exact recombination.** Fragments are differences of partial-sum
///   targets `w·j/n`, with the final fragment computed as `w − acc`; since
///   the accumulated prefix is at least `w/2` by then, Sterbenz's lemma
///   makes the closing subtraction exact and in-order summation reproduces
///   `w` to the bit. (Each slot's construction is verified by replay; in
///   the — unobserved — event floating point misbehaves, the slot falls
///   back to a single fragment.)
/// * **Order preservation within a slot.** The interleaving shuffles slots
///   against each other but never reorders the fragments of one slot, so
///   the aggregator's per-slot accumulation order matches the construction
///   order.
///
/// Zero-weight slots emit nothing (an absent element and an explicit zero
/// weight produce identical summaries).
///
/// # Panics
/// Panics if `min_fragments == 0` or `min_fragments > max_fragments`.
#[must_use]
pub fn element_stream(
    columns: &RecordColumns,
    min_fragments: usize,
    max_fragments: usize,
    seed: u64,
) -> Vec<Element> {
    assert!(min_fragments >= 1, "need at least one fragment per slot");
    assert!(min_fragments <= max_fragments, "fragment range must be non-empty");
    let mut rng = rng_for(seed, 0x0E1E_7E57);
    let span = (max_fragments - min_fragments + 1) as u64;
    // (token, emission sequence, element): sorted by token to interleave
    // slots; the sequence number breaks token ties while preserving each
    // slot's internal order (tokens within a slot are assigned ascending).
    let mut tagged: Vec<(u64, usize, Element)> = Vec::new();
    let mut fragments: Vec<f64> = Vec::new();
    for (index, &key) in columns.keys().iter().enumerate() {
        for assignment in 0..columns.num_assignments() {
            let weight = columns.lane(assignment)[index];
            if weight == 0.0 {
                continue;
            }
            let n = min_fragments + rng.next_below(span) as usize;
            fragments.clear();
            let mut acc = 0.0f64;
            for j in 1..n {
                let target = weight * (j as f64 / n as f64);
                let fragment = target - acc;
                if fragment > 0.0 && fragment.is_finite() {
                    fragments.push(fragment);
                    acc += fragment;
                }
            }
            let last = weight - acc;
            if last != 0.0 {
                fragments.push(last);
            }
            // Replay guard: the whole point of the construction is that
            // in-order summation lands exactly on `weight`.
            let replay: f64 = fragments.iter().fold(0.0, |sum, &f| sum + f);
            if replay.to_bits() != weight.to_bits() {
                fragments.clear();
                fragments.push(weight);
            }
            let mut tokens: Vec<u64> = (0..fragments.len()).map(|_| rng.next_u64()).collect();
            tokens.sort_unstable();
            for (&token, &fragment) in tokens.iter().zip(&fragments) {
                tagged.push((token, tagged.len(), (key, assignment, fragment)));
            }
        }
    }
    tagged.sort_unstable_by_key(|&(token, sequence, _)| (token, sequence));
    tagged.into_iter().map(|(_, _, element)| element).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_core::aggregates::weighted_jaccard;

    #[test]
    fn dimensions_and_determinism() {
        let a = correlated_zipf(500, 3, 1.2, 0.8, 0.1, 7);
        let b = correlated_zipf(500, 3, 1.2, 0.8, 0.1, 7);
        assert_eq!(a, b);
        assert_eq!(a.num_keys(), 500);
        assert_eq!(a.num_assignments(), 3);
        let c = correlated_zipf(500, 3, 1.2, 0.8, 0.1, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn columnar_generator_matches_row_generator_bit_for_bit() {
        let rows = correlated_zipf(400, 3, 1.1, 0.7, 0.15, 0x17_6E57);
        let columns = correlated_zipf(400, 3, 1.1, 0.7, 0.15, 0x17_6E57).to_columns();
        assert_eq!(columns.len(), rows.num_keys());
        assert_eq!(columns, rows.to_columns());
        for (index, (key, weights)) in rows.iter().enumerate() {
            assert_eq!(columns.keys()[index], key);
            for (b, &w) in weights.iter().enumerate() {
                assert_eq!(columns.lane(b)[index].to_bits(), w.to_bits());
            }
        }
    }

    #[test]
    fn full_correlation_no_churn_gives_identical_assignments() {
        let data = correlated_zipf(200, 4, 1.1, 1.0, 0.0, 3);
        for (_, weights) in data.iter() {
            for b in 1..4 {
                assert_eq!(weights[b], weights[0]);
            }
        }
        assert!((weighted_jaccard(&data, 0, 3, |_| true) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_controls_similarity() {
        let high = correlated_zipf(400, 2, 1.1, 0.95, 0.0, 5);
        let low = correlated_zipf(400, 2, 1.1, 0.1, 0.0, 5);
        let sim_high = weighted_jaccard(&high, 0, 1, |_| true);
        let sim_low = weighted_jaccard(&low, 0, 1, |_| true);
        assert!(sim_high > sim_low, "{sim_high} vs {sim_low}");
        assert!(sim_high > 0.8);
    }

    #[test]
    fn churn_produces_zero_weights() {
        let data = correlated_zipf(300, 2, 1.1, 0.9, 0.4, 9);
        let zeros = data.iter().flat_map(|(_, w)| w.iter().copied()).filter(|&w| w == 0.0).count();
        let total = 300 * 2;
        let fraction = zeros as f64 / total as f64;
        assert!((fraction - 0.4).abs() < 0.08, "zero fraction {fraction}");
    }

    #[test]
    fn element_stream_recombines_bit_exactly_in_slot_order() {
        let columns = correlated_zipf(300, 4, 1.1, 0.7, 0.2, 0x5EED).to_columns();
        let elements = element_stream(&columns, 2, 5, 9);
        assert_eq!(elements, element_stream(&columns, 2, 5, 9), "deterministic");

        // Re-aggregate in arrival order and compare bit-for-bit.
        let mut sums = vec![vec![0.0f64; columns.len()]; columns.num_assignments()];
        let index_of: std::collections::HashMap<u64, usize> =
            columns.keys().iter().enumerate().map(|(i, &k)| (k, i)).collect();
        for &(key, assignment, fragment) in &elements {
            sums[assignment][index_of[&key]] += fragment;
        }
        for (assignment, lane_sums) in sums.iter().enumerate() {
            for (index, &weight) in columns.lane(assignment).iter().enumerate() {
                assert_eq!(
                    lane_sums[index].to_bits(),
                    weight.to_bits(),
                    "slot (key {}, assignment {assignment})",
                    columns.keys()[index]
                );
            }
        }

        // Fragment counts respect the requested range per non-zero slot.
        let mut per_slot = std::collections::HashMap::new();
        for &(key, assignment, _) in &elements {
            *per_slot.entry((key, assignment)).or_insert(0usize) += 1;
        }
        assert!(per_slot.values().all(|&n| (1..=5).contains(&n)));
        // The stream is genuinely interleaved: the first few elements do not
        // all belong to the first key.
        let first_keys: std::collections::HashSet<u64> =
            elements.iter().take(16).map(|&(k, _, _)| k).collect();
        assert!(first_keys.len() > 4, "interleaving looks broken: {first_keys:?}");
    }

    #[test]
    fn weights_are_heavy_tailed() {
        let data = correlated_zipf(1000, 1, 1.3, 1.0, 0.0, 11);
        let mut weights: Vec<f64> = data.iter().map(|(_, w)| w[0]).collect();
        weights.sort_by(|a, b| b.total_cmp(a));
        let top10: f64 = weights[..10].iter().sum();
        let total: f64 = weights.iter().sum();
        assert!(top10 / total > 0.2, "top-10 share {}", top10 / total);
    }
}
