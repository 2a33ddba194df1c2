//! Property tests for histogram quantile estimation: the interpolated
//! estimate must land within one bucket of the exact order statistic, for
//! arbitrary workloads and for both the default duration buckets and a
//! coarse hand-picked grid.

use gallery_telemetry::{default_duration_buckets_ms, Registry};
use proptest::collection::vec;
use proptest::prelude::*;

/// Index of the bucket (0-based, `bounds.len()` = +Inf) a value falls in.
fn bucket_index(bounds: &[f64], v: f64) -> usize {
    bounds.partition_point(|&b| b < v)
}

/// Exact order statistic at quantile `q` (matching the histogram's
/// ceil-rank convention).
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

fn check_quantiles(bounds: Vec<f64>, mut values: Vec<f64>) -> Result<(), TestCaseError> {
    let reg = Registry::new();
    let h = reg.histogram("q_test", &[], &bounds);
    for &v in &values {
        h.observe(v);
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for q in [0.5, 0.9, 0.95, 0.99] {
        let exact = exact_quantile(&values, q);
        let est = h.quantile(q).expect("non-empty histogram");
        let exact_bucket = bucket_index(&bounds, exact);
        let est_bucket = bucket_index(&bounds, est);
        // Values past the last finite bound are reported as that bound, so
        // clamp the exact bucket the same way before comparing.
        let exact_bucket = exact_bucket.min(bounds.len() - 1);
        prop_assert!(
            est_bucket.abs_diff(exact_bucket) <= 1,
            "q={q}: exact {exact} (bucket {exact_bucket}) vs estimate {est} (bucket {est_bucket})"
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn p99_within_one_bucket_default_bounds(values in vec(0.0005f64..12000.0, 1..400)) {
        check_quantiles(default_duration_buckets_ms(), values)?;
    }

    #[test]
    fn p99_within_one_bucket_coarse_bounds(values in vec(0.0f64..100.0, 1..400)) {
        check_quantiles(vec![1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0], values)?;
    }

    #[test]
    fn count_and_sum_match_inputs(values in vec(0.0f64..1000.0, 1..200)) {
        let reg = Registry::new();
        let h = reg.duration_histogram("sum_test", &[]);
        let mut sum = 0.0;
        for &v in &values {
            h.observe(v);
            sum += v;
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert!((h.sum() - sum).abs() < 1e-6 * sum.max(1.0));
    }
}
