//! `loadbench --selftest`: the whole benchmark at tiny sizes, in a few
//! seconds. It checks what a change to the benchmark is most likely to
//! break: that the same seed gives the same operations and the same
//! exact counts, that another seed gives others, that every workload
//! answers correctly and survives its crash, and that a traced run fills
//! in every per-layer metric.

use crate::bench::{self, RunConfig, RunResult};
use crate::gen::{Sizes, Workload};

/// Metrics that are counts or ratios of counts: they must repeat exactly
/// when one client runs the same operations.
const EXACT: [&str; 2] = ["disk_amp", "fsyncs_per_write"];
const EXACT_LAYER: [&str; 8] = [
    "wire.resp_bytes.query",
    "wire.resp_bytes.blob",
    "registry.join_subqueries",
    "wal.bytes_per_write",
    "wal.fsyncs_per_write",
    "blob.fs_ops_per_put",
    "fs.fsyncs",
    "fs.bytes_written",
];

fn config(workload: Workload, seed: u64, traced: bool, in_process: bool) -> RunConfig {
    RunConfig {
        workload,
        seed,
        sizes: Sizes::tiny(),
        traced,
        setups: 1,
        recoveries: 1,
        recovery_time: std::time::Duration::ZERO,
        recover_in_process: in_process,
        trace_out: None,
        patience: std::time::Duration::ZERO,
    }
}

fn value(result: &RunResult, name: &str) -> Option<f64> {
    result
        .end_to_end
        .iter()
        .chain(&result.per_layer)
        .find(|m| m.name == name)
        .map(|m| m.value)
}

/// Everything the self-test checks; `in_process` keeps recovery in this
/// process so that the unit tests can run it too.
pub fn check(in_process: bool) -> Result<(), String> {
    for workload in Workload::ALL {
        let a = bench::run_once(&config(workload, 11, false, in_process))?;
        if !a.correct {
            return Err(format!(
                "{}: run is not correct: {:?}",
                workload.name(),
                a.errors
            ));
        }
        if a.end_to_end.len() != 15 || a.end_to_end.iter().any(|m| m.value <= 0.0) {
            return Err(format!(
                "{}: expected 15 positive end-to-end metrics",
                workload.name()
            ));
        }
        let b = bench::run_once(&config(workload, 11, false, in_process))?;
        if a.plan_fingerprint != b.plan_fingerprint {
            return Err(format!(
                "{}: same seed, different operations",
                workload.name()
            ));
        }
        let c = bench::run_once(&config(workload, 12, false, in_process))?;
        if a.plan_fingerprint == c.plan_fingerprint {
            return Err(format!(
                "{}: different seed, same operations",
                workload.name()
            ));
        }
        // With two clients the interleaving differs from run to run.
        if workload != Workload::Mixed {
            for name in EXACT {
                if value(&a, name) != value(&b, name) {
                    return Err(format!(
                        "{}: {name} did not repeat: {:?} vs {:?}",
                        workload.name(),
                        value(&a, name),
                        value(&b, name)
                    ));
                }
            }
            if a.attempted != b.attempted {
                return Err(format!(
                    "{}: attempted differs between identical runs",
                    workload.name()
                ));
            }
        }
        println!(
            "selftest {:<7} ok: {} operations, plan {:016x}",
            workload.name(),
            a.attempted,
            a.plan_fingerprint
        );
    }
    let traced: Vec<RunResult> = (0..2)
        .map(|_| bench::run_once(&config(Workload::Search, 11, true, in_process)))
        .collect::<Result<_, _>>()?;
    for t in &traced {
        if !t.correct || t.per_layer.len() != 51 {
            return Err(format!(
                "traced run: correct={} with {} per-layer metrics: {:?}",
                t.correct,
                t.per_layer.len(),
                t.errors
            ));
        }
    }
    for name in EXACT_LAYER {
        if value(&traced[0], name) != value(&traced[1], name) {
            return Err(format!(
                "traced {name} did not repeat: {:?} vs {:?}",
                value(&traced[0], name),
                value(&traced[1], name)
            ));
        }
    }
    println!("selftest traced  ok: 51 per-layer metrics, exact counts repeat");
    Ok(())
}

pub fn run() -> Result<bool, String> {
    let started = std::time::Instant::now();
    check(false)?;
    println!(
        "selftest passed in {:.2} s",
        started.elapsed().as_secs_f64()
    );
    Ok(true)
}

#[cfg(test)]
mod tests {
    #[test]
    fn whole_benchmark_at_tiny_size() {
        super::check(true).unwrap();
    }
}
