//! Simulated backend latency.
//!
//! Remote tiers (S3/HDFS for blobs, the network for RPCs) have
//! per-request latencies orders of magnitude above an in-process call. A
//! [`LatencyModel`] prices one request so experiments can account that
//! cost deterministically instead of sleeping: the service crate's
//! `LatentTransport` advances a manual clock by it, and the cache
//! experiment (E13) charges it once per backend fetch.

use std::time::Duration;

/// Latency model for a simulated remote backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Fixed per-request cost.
    pub per_request: Duration,
    /// Additional cost per byte transferred.
    pub per_byte_ns: f64,
}

impl LatencyModel {
    /// A model loosely shaped like an S3 GET/PUT from the same region:
    /// ~15 ms per request plus ~10 ns/byte (≈100 MB/s).
    pub fn object_store_like() -> Self {
        LatencyModel {
            per_request: Duration::from_millis(15),
            per_byte_ns: 10.0,
        }
    }

    /// Cost of one request moving `bytes` bytes.
    pub fn cost(&self, bytes: usize) -> Duration {
        self.per_request + Duration::from_nanos((self.per_byte_ns * bytes as f64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_scales_with_bytes() {
        let m = LatencyModel {
            per_request: Duration::from_millis(1),
            per_byte_ns: 100.0,
        };
        assert_eq!(m.cost(0), Duration::from_millis(1));
        assert_eq!(m.cost(10_000), Duration::from_millis(2));
    }
}
