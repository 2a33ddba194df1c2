//! Ablation — §3.5 blob cache: serving-time fetch cost with and without
//! the LRU cache, under a simulated object-store latency model
//! (~15 ms/request + 10 ns/byte, S3-like). Simulated backend time is the
//! number of fetches that reach the backend — every request without the
//! cache, only the misses with it — times the model's cost of one fetch.
//!
//! Workload: a fleet of model blobs served with a Zipf-ish skewed access
//! pattern (a few hot champions, a long tail), as serving traffic looks in
//! practice.

use bytes::Bytes;
use gallery_bench::{banner, human_bytes, TextTable};
use gallery_store::blob::cache::CachedBlobStore;
use gallery_store::blob::localfs::LocalFsBlobStore;
use gallery_store::{BlobLocation, LatencyModel, ObjectStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn skewed_index(rng: &mut StdRng, n: usize) -> usize {
    // Simple skew: 80% of requests to the hottest 10% of blobs.
    if rng.gen_bool(0.8) {
        rng.gen_range(0..(n / 10).max(1))
    } else {
        rng.gen_range(0..n)
    }
}

struct Arm {
    name: &'static str,
    requests: u64,
    simulated_backend_time_ms: f64,
    hit_rate: f64,
    cached_bytes: u64,
}

fn run_arm(cache_bytes: Option<usize>, blobs: usize, blob_size: usize, requests: u64) -> Arm {
    let backend = Arc::new(LocalFsBlobStore::in_memory());
    let fetch_ms = LatencyModel::object_store_like()
        .cost(blob_size)
        .as_secs_f64()
        * 1000.0;
    let locations: Vec<BlobLocation> = (0..blobs)
        .map(|i| {
            backend
                .put(Bytes::from(vec![(i % 251) as u8; blob_size]))
                .unwrap()
                .location
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(99);
    match cache_bytes {
        None => {
            for _ in 0..requests {
                let loc = &locations[skewed_index(&mut rng, blobs)];
                let _ = backend.get(loc).unwrap();
            }
            Arm {
                name: "no cache",
                requests,
                simulated_backend_time_ms: requests as f64 * fetch_ms,
                hit_rate: 0.0,
                cached_bytes: 0,
            }
        }
        Some(budget) => {
            let cache = CachedBlobStore::new(backend as Arc<dyn ObjectStore>, budget);
            for _ in 0..requests {
                let loc = &locations[skewed_index(&mut rng, blobs)];
                let _ = cache.get(loc).unwrap();
            }
            let stats = cache.stats();
            Arm {
                name: "LRU cache (10% of fleet)",
                requests,
                simulated_backend_time_ms: stats.misses as f64 * fetch_ms,
                hit_rate: stats.hit_rate(),
                cached_bytes: stats.bytes_cached,
            }
        }
    }
}

fn main() {
    banner(
        "ablation: blob cache at serving time",
        "§3.5 'The cache is updated with the requested blob'",
    );
    let blobs = 500;
    let blob_size = 512 * 1024; // 512 KiB models
    let requests = 20_000u64;
    let budget = blobs / 10 * blob_size + blob_size; // fits the hot set

    let without = run_arm(None, blobs, blob_size, requests);
    let with = run_arm(Some(budget), blobs, blob_size, requests);

    let mut table = TextTable::new(&[
        "arm",
        "requests",
        "simulated backend time",
        "hit rate",
        "cache footprint",
    ]);
    for arm in [&without, &with] {
        table.add_row(vec![
            arm.name.into(),
            arm.requests.to_string(),
            format!("{:.1} s", arm.simulated_backend_time_ms / 1000.0),
            format!("{:.1}%", 100.0 * arm.hit_rate),
            human_bytes(arm.cached_bytes),
        ]);
    }
    println!("{}", table.render());
    let speedup = without.simulated_backend_time_ms / with.simulated_backend_time_ms.max(1e-9);
    println!(
        "cache cut simulated backend time {:.1}x on a skewed serving workload ✓",
        speedup
    );
    assert!(with.hit_rate > 0.5);
    assert!(speedup > 2.0);
}
