//! Percentiles, medians and the rule every reported latency follows: a
//! percentile is computed inside each round, and what is reported is the
//! rounds' value at the middle of the phase — their median where rounds
//! are alike, and the middle of a robust line through them where they
//! drift (an upload costs more the more instances its model has).

/// Fewest samples that must lie beyond a percentile, in every round, for
/// it to be reported (choosing-metrics guide §1).
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending), `p` in `(0, 1]`.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(n.min(1), n)
}

pub fn median_f64(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The value at the middle of a phase of `n_rounds` rounds of a line
/// through `points` (round position, value): the Theil–Sen line, whose
/// slope is the median of the slopes between every two points. Where
/// rounds are alike this is their median; where they drift, it stays put
/// when some rounds are left out, which their median does not. Fewer
/// than three points give their median.
pub fn centre_value(points: &[(usize, f64)], n_rounds: usize) -> Option<f64> {
    let values: Vec<f64> = points.iter().map(|p| p.1).collect();
    if points.len() < 3 {
        return median_f64(&values);
    }
    let mut slopes = Vec::with_capacity(points.len() * (points.len() - 1) / 2);
    for (i, a) in points.iter().enumerate() {
        for b in &points[i + 1..] {
            if a.0 != b.0 {
                slopes.push((b.1 - a.1) / (b.0 as f64 - a.0 as f64));
            }
        }
    }
    let slope = median_f64(&slopes).unwrap_or(0.0);
    let centre = (n_rounds.max(1) - 1) as f64 / 2.0;
    let at_centre: Vec<f64> = points
        .iter()
        .map(|p| p.1 + slope * (centre - p.0 as f64))
        .collect();
    median_f64(&at_centre)
}

/// Why a percentile was not reported.
#[derive(Debug, Clone, PartialEq)]
pub enum Refused {
    NoRounds,
    /// Round `round` had only `beyond` samples beyond the percentile.
    TooFewBeyond {
        round: usize,
        beyond: usize,
    },
}

/// A reported latency: the rounds' percentiles at the middle of the
/// phase, with the total number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundMedian {
    pub value_ns: f64,
    pub samples: usize,
}

/// Percentile `p` of each round (its position in a phase of `n_rounds`,
/// and its nanosecond samples in any order), then [`centre_value`] over
/// the rounds. Refused unless every round has at least `min_beyond`
/// samples beyond the percentile ([`MIN_BEYOND`] everywhere but the
/// self-test, whose rounds are tiny).
pub fn round_median(
    rounds: &[(usize, Vec<u64>)],
    n_rounds: usize,
    p: f64,
    min_beyond: usize,
) -> Result<RoundMedian, Refused> {
    if rounds.is_empty() {
        return Err(Refused::NoRounds);
    }
    let mut per_round = Vec::with_capacity(rounds.len());
    for (round, samples) in rounds {
        let beyond = samples_beyond(samples.len(), p);
        if beyond < min_beyond || samples.is_empty() {
            return Err(Refused::TooFewBeyond {
                round: *round,
                beyond,
            });
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        per_round.push((
            *round,
            percentile_sorted(&sorted, p).expect("round is not empty") as f64,
        ));
    }
    Ok(RoundMedian {
        value_ns: centre_value(&per_round, n_rounds).expect("at least one round"),
        samples: rounds.iter().map(|r| r.1.len()).sum(),
    })
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), so
/// that `--compare` judges spread the way the driver does.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // Clamp first, then take the offset from the clamped position:
        // at the ends this extrapolates, exactly as Python does.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_vectors() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), Some(50));
        assert_eq!(percentile_sorted(&v, 0.99), Some(99));
        assert_eq!(percentile_sorted(&v, 1.0), Some(100));
        assert_eq!(percentile_sorted(&[7], 0.5), Some(7));
        assert_eq!(percentile_sorted(&[], 0.5), None);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(20, 0.5), 10);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn medians_on_known_vectors() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median_f64(&[]), None);
    }

    #[test]
    fn round_median_takes_the_rounds_percentiles_at_the_middle_of_the_phase() {
        let round = |centre: u64| -> Vec<u64> { (0..21).map(|i| centre + i - 10).collect() };
        // Rounds alike, one of them slow: the slow one does not count.
        let alike = [
            (0, round(20)),
            (1, round(1000)),
            (2, round(20)),
            (3, round(21)),
            (4, round(20)),
        ];
        assert_eq!(
            round_median(&alike, 5, 0.5, MIN_BEYOND).unwrap(),
            RoundMedian {
                value_ns: 20.0,
                samples: 105
            }
        );
        // Rounds that drift by 10 a round: the value at round 4.5 of 10,
        // whichever rounds were left out.
        let drifting = |keep: &[usize]| -> Vec<(usize, Vec<u64>)> {
            keep.iter()
                .map(|&i| (i, round(100 + 10 * i as u64)))
                .collect()
        };
        for keep in [
            &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9][..],
            &[0, 1, 2, 3],
            &[6, 8, 9],
            &[1, 5, 9],
        ] {
            assert_eq!(
                round_median(&drifting(keep), 10, 0.5, MIN_BEYOND)
                    .unwrap()
                    .value_ns,
                145.0,
                "{keep:?}"
            );
        }
        // Two rounds are too few for a line: their median.
        assert_eq!(
            round_median(&drifting(&[0, 1]), 10, 0.5, MIN_BEYOND)
                .unwrap()
                .value_ns,
            105.0
        );
    }

    #[test]
    fn centre_value_on_known_vectors() {
        assert_eq!(centre_value(&[], 10), None);
        assert_eq!(centre_value(&[(3, 7.0)], 10), Some(7.0));
        assert_eq!(centre_value(&[(0, 1.0), (1, 2.0), (2, 3.0)], 3), Some(2.0));
        // One wild point moves neither the slope nor the level.
        assert_eq!(
            centre_value(&[(0, 1.0), (1, 2.0), (2, 99.0), (3, 4.0), (4, 5.0)], 5),
            Some(3.0)
        );
    }

    #[test]
    fn a_percentile_with_too_few_samples_beyond_it_is_refused() {
        let ok: Vec<u64> = (0..1000).collect();
        let short: Vec<u64> = (0..999).collect();
        assert!(round_median(&[(0, ok.clone()), (1, ok.clone())], 2, 0.99, MIN_BEYOND).is_ok());
        assert_eq!(
            round_median(&[(0, ok), (1, short)], 2, 0.99, MIN_BEYOND),
            Err(Refused::TooFewBeyond {
                round: 1,
                beyond: 9
            })
        );
        assert_eq!(
            round_median(&[], 1, 0.5, MIN_BEYOND),
            Err(Refused::NoRounds)
        );
        // p50 needs 20 samples a round.
        assert!(round_median(&[(0, (0..19).collect())], 1, 0.5, MIN_BEYOND).is_err());
        assert!(round_median(&[(0, (0..20).collect())], 1, 0.5, MIN_BEYOND).is_ok());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 2.0, 4.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
