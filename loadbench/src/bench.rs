//! One whole run of one workload, and the metrics it reports.

use crate::gen::{self, Kind, Sizes, Workload};
use crate::json::{self, Json};
use crate::layers::{self, median_us, PhaseSamples, Tracer};
use crate::quiet::{Gate, Quiet};
use crate::recover::{self, Expectation, RecoveryReport};
use crate::run::{self, quiet_median, Env, FleetBlobs, Loaded, Measured, Phase, Timed};
use crate::stack::{StackOptions, TABLES};
use crate::stats::{centre_value, median_f64, round_median, samples_beyond};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub sizes: Sizes,
    pub traced: bool,
    /// Set-ups to time (the last one is kept); `setup_s` is their median.
    pub setups: u32,
    /// Recovery children to time, at least; `recovery_s` is their median.
    pub recoveries: u32,
    /// More children are started while those so far took less than this
    /// together (and there are fewer than [`MAX_RECOVERIES`]): a small
    /// store recovers in a fifth of a second, which one disturbance
    /// covers, and can afford more tries than a large one.
    pub recovery_time: Duration,
    /// Recover in this process (unit tests only: they are not `loadbench`).
    pub recover_in_process: bool,
    pub trace_out: Option<PathBuf>,
    /// The most the run may sleep, in total, waiting for the machine to
    /// run at full speed before a round, a set-up or a recovery.
    pub patience: Duration,
}

pub const MAX_RECOVERIES: usize = 7;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (0 for a count or a ratio of counts).
    pub samples: usize,
    /// Where it was measured: `rounds`, `reference`, `run`.
    pub source: &'static str,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub plan_fingerprint: u64,
}

/// Is this kind's latency taken from the workload's own measured rounds
/// (it issues the operation in bulk there) or from the reference block?
fn native(workload: Workload, kind: Kind) -> bool {
    workload.native_kinds().contains(&kind)
}

/// The p99s are only native where the issue's matrix reports them.
fn native_p99(workload: Workload, kind: Kind) -> bool {
    matches!(
        (workload, kind),
        (Workload::Serve, Kind::Blob) | (Workload::Search, Kind::Query)
    )
}

fn native_writes(workload: Workload) -> bool {
    native(workload, Kind::Upload)
}

fn pick(m: &Measured, kind: Kind, from_rounds: bool) -> (&Phase, &'static str) {
    if from_rounds {
        (&m.main, "rounds")
    } else if kind.is_write() {
        (&m.reference_writes, "reference")
    } else {
        (&m.reference_reads, "reference")
    }
}

/// Percentile `p` of `kind`'s latency in `phase`, in milliseconds, with
/// the number of samples behind it: per round from the quiet windows of
/// the kept rounds, if enough of them have enough quiet samples for this
/// percentile; else from all quiet samples as one; else from everything
/// the phase measured.
fn latency_ms(
    phase: &Phase,
    gate: &Gate,
    kind: Kind,
    p: f64,
    min_beyond: usize,
) -> Result<(f64, usize), String> {
    let enough =
        |r: &(usize, Vec<u64>)| !r.1.is_empty() && samples_beyond(r.1.len(), p) >= min_beyond;
    let mut rounds = phase.usable_view(gate).samples(kind);
    if rounds.iter().filter(|r| enough(r)).count() * 2 >= rounds.len() {
        rounds.retain(enough);
    } else {
        rounds = vec![(0, rounds.into_iter().flat_map(|r| r.1).collect())];
    }
    if !rounds.iter().all(enough) {
        rounds = phase.view(&Gate::OPEN).samples(kind);
    }
    round_median(&rounds, phase.rounds.len(), p, min_beyond)
        .map(|r| (r.value_ns / 1e6, r.samples))
        .map_err(|why| format!("{why:?}"))
}

struct Builder<'a> {
    m: &'a Measured,
    sizes: &'a Sizes,
    /// What a quiet window may read at its ends (see `quiet.rs`).
    gate: Gate,
    out: Vec<Metric>,
    errors: Vec<String>,
}

impl Builder<'_> {
    fn push(
        &mut self,
        name: &str,
        unit: &'static str,
        value: f64,
        samples: usize,
        source: &'static str,
    ) {
        if !value.is_finite() {
            self.errors.push(format!("{name} is not a number"));
        }
        self.out.push(Metric {
            name: name.to_owned(),
            unit,
            value,
            samples,
            source,
        });
    }

    fn latency(&mut self, kind: Kind, p: f64, label: &str, from_rounds: bool) {
        let (phase, source) = pick(self.m, kind, from_rounds);
        let name = format!("{}_ms_{label}", kind.name());
        match latency_ms(phase, &self.gate, kind, p, self.sizes.min_beyond) {
            Ok((ms, samples)) => self.push(&name, "ms", ms, samples, source),
            Err(why) => {
                self.errors.push(format!("{name} refused: {why}"));
                self.push(&name, "ms", f64::NAN, 0, source);
            }
        }
    }
}

/// Write amplification and fsyncs per write over one phase.
fn write_costs(phase: &Phase) -> (f64, f64) {
    let (b, a) = (&phase.before, &phase.after);
    let file_bytes =
        (a.wal_file_bytes - b.wal_file_bytes) + (a.blob_file_bytes - b.blob_file_bytes);
    let fsyncs = a.wal_fs.since(&b.wal_fs).fsyncs + a.blob_fs.since(&b.blob_fs).fsyncs;
    (
        file_bytes as f64 / phase.tally.user_bytes as f64,
        fsyncs as f64 / phase.tally.acked_writes as f64,
    )
}

/// Per-round rates of the measured phase, over quiet windows.
fn main_rates(m: &Measured, gate: &Gate) -> Vec<(usize, f64)> {
    m.main.usable_view(gate).round_rates()
}

fn end_to_end(
    m: &Measured,
    sizes: &Sizes,
    gate: &Gate,
    recoveries: &[Timed],
) -> (Vec<Metric>, Vec<String>) {
    let w = m.workload;
    let mut b = Builder {
        m,
        sizes,
        gate: *gate,
        out: Vec::new(),
        errors: Vec::new(),
    };
    b.push(
        "setup_s",
        "s",
        quiet_median(&m.setups, gate).unwrap_or(f64::NAN),
        m.setups.len(),
        "run",
    );
    let rates = main_rates(m, gate);
    b.push(
        "ops_per_s",
        "ops/s",
        centre_value(&rates, m.main.rounds.len()).unwrap_or(f64::NAN),
        rates.len(),
        "rounds",
    );
    b.latency(Kind::Upload, 0.5, "p50", native(w, Kind::Upload));
    b.latency(Kind::Metric, 0.5, "p50", native(w, Kind::Metric));
    b.latency(Kind::Get, 0.5, "p50", native(w, Kind::Get));
    b.latency(Kind::Latest, 0.5, "p50", native(w, Kind::Latest));
    b.latency(Kind::Blob, 0.5, "p50", native(w, Kind::Blob));
    b.latency(Kind::Blob, 0.99, "p99", native_p99(w, Kind::Blob));
    b.latency(Kind::Query, 0.5, "p50", native(w, Kind::Query));
    b.latency(Kind::Query, 0.99, "p99", native_p99(w, Kind::Query));
    b.latency(Kind::Join, 0.5, "p50", native(w, Kind::Join));
    b.push(
        "recovery_s",
        "s",
        quiet_median(recoveries, gate).unwrap_or(f64::NAN),
        recoveries.len(),
        "run",
    );
    let (phase, source) = pick(m, Kind::Upload, native_writes(w));
    let (disk_amp, fsyncs_per_write) = write_costs(phase);
    b.push("disk_amp", "ratio", disk_amp, 0, source);
    b.push("fsyncs_per_write", "ratio", fsyncs_per_write, 0, source);
    b.push("rss_peak_mb", "MB", m.rss_peak_mb, 0, "run");
    (b.out, b.errors)
}

/// Traced-run extras that need their own measurement.
pub struct LayerExtras {
    pub telemetry_overhead_ratio: f64,
    pub meta_bytes: usize,
    pub total_rows: usize,
}

fn per_layer(
    m: &Measured,
    sizes: &Sizes,
    tracer: &Tracer,
    gate: &Gate,
    recovery: &RecoveryReport,
    extras: &LayerExtras,
) -> Vec<Metric> {
    let w = m.workload;
    let phases = tracer.samples();
    let kind_samples = |kind: Kind| -> (&layers::KindSamples, &'static str) {
        if native(w, kind) {
            (&phases[0].by_kind[kind.index()], "rounds")
        } else {
            (&phases[1].by_kind[kind.index()], "reference")
        }
    };
    let write_phase: (&PhaseSamples, &Phase, &'static str) = if native_writes(w) {
        (&phases[0], &m.main, "rounds")
    } else {
        (&phases[1], &m.reference_writes, "reference")
    };
    let spans = tracer.sink.snapshot();
    let stats = layers::span_stats(&spans, &|kind, reference| native(w, kind) != reference);
    let mut out: Vec<Metric> = Vec::new();
    let mut push =
        |name: String, unit: &'static str, (value, samples): (f64, usize), source: &'static str| {
            out.push(Metric {
                name,
                unit,
                value: if value.is_finite() { value } else { 0.0 },
                samples,
                source,
            });
        };

    // client: the call minus what ran under the transport, minus codec.
    for kind in [Kind::Get, Kind::Query, Kind::Upload] {
        let (k, source) = kind_samples(kind);
        let v = if kind.is_write() {
            // A write cannot be replayed: span difference minus the
            // client's side of the codec.
            let codec_client = median_f64(&k.codec).unwrap_or(0.0) / 2.0;
            let outside = &stats.client_outside_transport[kind.index()];
            (
                median_f64(outside).map_or(0.0, |v| (v - codec_client) / 1e3),
                outside.len(),
            )
        } else {
            scaled_us(&k.client_self, k.cold_factor())
        };
        push(format!("client.self_us.{}", kind.name()), "us", v, source);
    }
    // wire: the four codec steps on captured messages.
    for kind in [
        Kind::Get,
        Kind::Latest,
        Kind::Blob,
        Kind::Query,
        Kind::Join,
        Kind::Upload,
        Kind::Metric,
    ] {
        let (k, source) = kind_samples(kind);
        push(
            format!("wire.codec_us.{}", kind.name()),
            "us",
            scaled_us(&k.codec, k.cold_factor()),
            source,
        );
    }
    for kind in [Kind::Query, Kind::Blob] {
        let (k, source) = kind_samples(kind);
        let v = (median_f64(&k.resp_bytes).unwrap_or(0.0), k.resp_bytes.len());
        push(
            format!("wire.resp_bytes.{}", kind.name()),
            "bytes",
            v,
            source,
        );
    }
    for kind in [Kind::Get, Kind::Latest, Kind::Query] {
        let (k, source) = kind_samples(kind);
        push(
            format!("server.self_us.{}", kind.name()),
            "us",
            scaled_us(&k.server_self, k.cold_factor()),
            source,
        );
    }
    for kind in [Kind::Get, Kind::Latest, Kind::Query] {
        let (k, source) = kind_samples(kind);
        push(
            format!("registry.self_us.{}", kind.name()),
            "us",
            scaled_us(&k.registry_self, k.cold_factor()),
            source,
        );
    }
    let (join, join_source) = kind_samples(Kind::Join);
    let subqueries = (
        median_f64(&join.store_queries).unwrap_or(0.0),
        join.store_queries.len(),
    );
    push(
        "registry.join_subqueries".into(),
        "count",
        subqueries,
        join_source,
    );
    push(
        "registry.upload_lookup_us".into(),
        "us",
        median_us(&write_phase.0.upload_lookup),
        write_phase.2,
    );
    for kind in [Kind::Get, Kind::Query] {
        let (k, source) = kind_samples(kind);
        push(
            format!("dal.self_us.{}", kind.name()),
            "us",
            scaled_us(&k.dal_self, k.cold_factor()),
            source,
        );
    }
    let (get, get_source) = kind_samples(Kind::Get);
    push(
        "meta.get_us".into(),
        "us",
        scaled_us(&get.meta, get.cold_factor()),
        get_source,
    );
    let (query, query_source) = kind_samples(Kind::Query);
    push(
        "meta.query_us".into(),
        "us",
        scaled_us(&query.meta, query.cold_factor()),
        query_source,
    );
    let (mut scanned, mut tail) = (0u64, 0u64);
    for kind in [Kind::Latest, Kind::Query, Kind::Join] {
        let (k, source) = kind_samples(kind);
        scanned += k.rows_scanned;
        tail += k.tail_merge_rows;
        let per_result = k.rows_scanned as f64 / k.rows.max(1) as f64;
        push(
            format!("meta.rows_scanned_per_result.{}", kind.name()),
            "ratio",
            (per_result, k.e2e.len()),
            source,
        );
    }
    push(
        "meta.tail_merge_share".into(),
        "ratio",
        (tail as f64 / scanned.max(1) as f64, 0),
        "run",
    );
    // In the measured rounds only: the reference block forces flushes.
    let flushes = m.main.after.index_flushes - m.main.before.index_flushes;
    push(
        "meta.index_flushes".into(),
        "count",
        (flushes as f64, 0),
        "run",
    );
    push(
        "meta.flush_stall_us".into(),
        "us",
        median_us(&write_phase.0.flush_stall),
        write_phase.2,
    );
    let bytes_per_row = extras.meta_bytes as f64 / extras.total_rows.max(1) as f64;
    push(
        "meta.bytes_per_row".into(),
        "bytes",
        (bytes_per_row, 0),
        "run",
    );
    for kind in [Kind::Upload, Kind::Metric] {
        let cpu = &stats.write_cpu[kind.index()];
        push(
            format!("write.cpu_us.{}", kind.name()),
            "us",
            median_us(cpu),
            write_phase.2,
        );
    }
    let metric_p99 =
        latency_ms(write_phase.1, gate, Kind::Metric, 0.99, sizes.min_beyond).unwrap_or((0.0, 0));
    push(
        "write.metric_ms_p99".into(),
        "ms",
        metric_p99,
        write_phase.2,
    );

    // wal, blob, fs: counts over the phase that has the writes.
    let phase = write_phase.1;
    let wal = phase.after.wal_fs.since(&phase.before.wal_fs);
    let blob = phase.after.blob_fs.since(&phase.before.blob_fs);
    let writes = phase.tally.acked_writes.max(1) as f64;
    push(
        "wal.bytes_per_write".into(),
        "bytes",
        (wal.bytes_written as f64 / writes, 0),
        write_phase.2,
    );
    push(
        "wal.fsyncs_per_write".into(),
        "ratio",
        (wal.fsyncs as f64 / writes, 0),
        write_phase.2,
    );
    let replay_rate = recovery.rows as f64 / recovery.meta_open_s;
    push(
        "wal.replay_rows_per_s".into(),
        "rows/s",
        (replay_rate, 0),
        "run",
    );
    let (blob_phase, blob_source) = pick(m, Kind::Blob, native(w, Kind::Blob));
    let (cb, ca) = (&blob_phase.before.cache, &blob_phase.after.cache);
    let (hits, misses) = (ca.hits - cb.hits, ca.misses - cb.misses);
    push(
        "blob.cache_hit_rate".into(),
        "ratio",
        (hits as f64 / (hits + misses).max(1) as f64, 0),
        blob_source,
    );
    push(
        "blob.cache_evictions".into(),
        "count",
        ((ca.evictions - cb.evictions) as f64, 0),
        blob_source,
    );
    push(
        "blob.hit_us".into(),
        "us",
        median_us(&stats.blob_hit),
        blob_source,
    );
    push(
        "blob.miss_us".into(),
        "us",
        median_us(&stats.blob_miss),
        blob_source,
    );
    push(
        "blob.put_us".into(),
        "us",
        median_us(&stats.blob_put),
        write_phase.2,
    );
    let blob_fs_ops = blob.creates + blob.write_calls + blob.fsyncs + blob.renames;
    let uploads = phase.tally.acked_uploads.max(1) as f64;
    push(
        "blob.fs_ops_per_put".into(),
        "ratio",
        (blob_fs_ops as f64 / uploads, 0),
        write_phase.2,
    );
    let both = wal.plus(&blob);
    push(
        "fs.fsyncs".into(),
        "count",
        (both.fsyncs as f64, 0),
        write_phase.2,
    );
    push(
        "fs.write_calls".into(),
        "count",
        (both.write_calls as f64, 0),
        write_phase.2,
    );
    push(
        "fs.bytes_written".into(),
        "bytes",
        (both.bytes_written as f64, 0),
        write_phase.2,
    );
    push(
        "fs.renames".into(),
        "count",
        (both.renames as f64, 0),
        write_phase.2,
    );
    push("fs.fsync_us".into(), "us", median_us(&stats.fs_sync), "run");
    push(
        "fs.write_us".into(),
        "us",
        median_us(&stats.fs_write),
        "run",
    );
    push(
        "telemetry.overhead_ratio".into(),
        "ratio",
        (extras.telemetry_overhead_ratio, 0),
        "run",
    );

    // Odd rounds were traced and even rounds were not. Each traced round
    // is compared with the untraced rounds next to it, so that a drift
    // over the phase does not pass for overhead.
    let rates = main_rates(m, gate);
    let rate_of = |i: usize| rates.iter().find(|(r, _)| *r == i).map(|(_, rate)| *rate);
    let ratios: Vec<f64> = rates
        .iter()
        .filter(|(i, _)| i % 2 == 1)
        .filter_map(|&(i, traced)| {
            let untraced: Vec<f64> = [rate_of(i - 1), rate_of(i + 1)]
                .into_iter()
                .flatten()
                .collect();
            (!untraced.is_empty())
                .then(|| traced * untraced.len() as f64 / untraced.iter().sum::<f64>())
        })
        .collect();
    let ratio = median_f64(&ratios).unwrap_or(0.0);
    push(
        "trace.overhead_ratio".into(),
        "ratio",
        (ratio, rates.len()),
        "rounds",
    );
    out
}

/// Median of `ns` in microseconds, times `factor` (the kind's cold
/// factor, see `KindSamples::cold_factor`).
fn scaled_us(ns: &[f64], factor: f64) -> (f64, usize) {
    let (us, n) = median_us(ns);
    (us * factor, n)
}

/// For `get`, `latest` and `query`: the layers' self times, their sum,
/// and the traced end-to-end p50 they should add up to. Printed with a
/// traced run; the README's acceptance table.
pub fn waterfall(workload: Workload, tracer: &Tracer) -> Vec<String> {
    let phases = tracer.samples();
    let mut lines = Vec::new();
    for kind in [Kind::Get, Kind::Latest, Kind::Query] {
        let k = &phases[usize::from(!native(workload, kind))].by_kind[kind.index()];
        let factor = k.cold_factor();
        let med = |v: &[f64]| scaled_us(v, factor).0;
        let parts = [
            med(&k.client_self),
            med(&k.codec),
            med(&k.server_self),
            med(&k.registry_self),
            med(&k.dal_self),
            med(&k.meta),
        ];
        let sum: f64 = parts.iter().sum();
        let e2e = median_us(&k.e2e).0;
        lines.push(format!(
            "waterfall {:<6} client {:.2} + wire {:.2} + server {:.2} + registry {:.2} + dal {:.2} + meta {:.2} = {:.2} us; traced end-to-end p50 {:.2} us; ratio {:.3}; cold factor {:.3} ({} samples)",
            kind.name(), parts[0], parts[1], parts[2], parts[3], parts[4], parts[5], sum, e2e, sum / e2e, factor, k.e2e.len()
        ));
    }
    lines
}

/// What must survive the crash, from the shadow.
fn expectation(loaded: &Loaded, sizes: &Sizes, seed: u64) -> Expectation {
    let shadow = loaded.shadow.read().expect("shadow lock");
    let mut rng = gen::Rng::new(seed, 0x5A4D_504C);
    let mut expect = Expectation {
        cache_bytes: sizes.cache_bytes as u64,
        rows: vec![
            (TABLES[0].to_owned(), shadow.models.len() as u64),
            (TABLES[1].to_owned(), shadow.instances.len() as u64),
            (TABLES[2].to_owned(), shadow.acked_metrics),
        ],
        ..Default::default()
    };
    // 1,000 sampled acknowledged ids, weighted to the newest instances:
    // the ones a lost WAL tail would take first.
    let n = shadow.instances.len() as u32;
    for i in 0..1000u32.min(n) {
        let ordinal = if i < 500 {
            n - 1 - i.min(n - 1)
        } else {
            rng.below(n)
        };
        let inst = &shadow.instances[ordinal as usize];
        expect.ids.push((TABLES[1].to_owned(), inst.id.clone()));
        if i % 10 == 0 {
            expect
                .blobs
                .push((inst.blob_location.clone(), u64::from(inst.blob_len)));
        }
    }
    for m in shadow.models.iter().take(50) {
        expect.ids.push((TABLES[0].to_owned(), m.id.clone()));
    }
    expect
}

/// `telemetry.overhead_ratio`: three `serve` rounds on a stack with
/// `Telemetry::disabled()` at every seam over the same three on a default
/// stack, rounds alternating between the two.
fn telemetry_overhead(
    cfg: &RunConfig,
    dataset: &gen::Dataset,
    blobs: &FleetBlobs,
) -> Result<f64, String> {
    let plan = gen::plan(Workload::Serve, &cfg.sizes, cfg.seed);
    let quiet = Quiet::new(Duration::ZERO);
    let mut rates: [Vec<f64>; 2] = Default::default();
    let arms: Vec<Loaded> = [true, false]
        .into_iter()
        .map(|telemetry| {
            let opts = StackOptions {
                cache_bytes: cfg.sizes.cache_bytes,
                telemetry,
                sink: None,
            };
            run::setup(&cfg.sizes, dataset, blobs, &opts)
        })
        .collect::<Result<_, _>>()?;
    let envs: Vec<Env<'_>> = arms
        .iter()
        .map(|l| Env {
            stack: &l.stack,
            shadow: &l.shadow,
            seed: cfg.seed,
            tracer: None,
            quiet: &quiet,
        })
        .collect();
    for env in &envs {
        run::run_phase(env, std::slice::from_ref(&plan.warmup), &[], 0, &mut |_| {});
    }
    for round in plan.rounds.iter().take(3) {
        for (arm, env) in envs.iter().enumerate() {
            let phase = run::run_phase(env, std::slice::from_ref(round), &[], 0, &mut |_| {});
            if phase.tally.failed > 0 {
                return Err(format!("telemetry arm {arm}: {:?}", phase.tally.errors));
            }
            rates[arm].extend(
                phase
                    .view(&Gate::OPEN)
                    .round_rates()
                    .into_iter()
                    .map(|(_, r)| r),
            );
        }
    }
    Ok(median_f64(&rates[1]).unwrap_or(0.0) / median_f64(&rates[0]).unwrap_or(f64::NAN))
}

pub fn run_once(cfg: &RunConfig) -> Result<RunResult, String> {
    let sizes = &cfg.sizes;
    let dataset = gen::dataset(sizes, cfg.seed);
    let blobs = FleetBlobs::generate(&dataset, cfg.seed);
    let plan = gen::plan(cfg.workload, sizes, cfg.seed);
    let tracer = cfg.traced.then(Tracer::new);
    let quiet = Quiet::new(cfg.patience);
    let opts = StackOptions {
        cache_bytes: sizes.cache_bytes,
        telemetry: true,
        sink: tracer.as_ref().map(|t| Arc::clone(&t.sink)),
    };

    // Set-up, several times; each stack is dropped before the next is
    // built and the last one is used.
    let mut setups = Vec::new();
    let mut loaded = None;
    for _ in 0..cfg.setups.max(1) {
        drop(loaded.take());
        quiet.pause();
        let before = quiet.speed();
        let l = run::setup(sizes, &dataset, &blobs, &opts)?;
        setups.push(Timed {
            seconds: l.setup_s,
            speed: (before, quiet.speed()),
        });
        loaded = Some(l);
    }
    let loaded = loaded.expect("at least one set-up ran");
    drop(blobs);

    let env = Env {
        stack: &loaded.stack,
        shadow: &loaded.shadow,
        seed: cfg.seed,
        tracer: tracer.as_ref(),
        quiet: &quiet,
    };
    let measured = run::measure(cfg.workload, &plan, &env, setups);
    let extras_counts = (loaded.stack.approx_meta_bytes(), loaded.stack.total_rows());

    // Crash, then recover in fresh processes.
    let expect = expectation(&loaded, sizes, cfg.seed);
    let (wal_image, wal_lost, _) = loaded.stack.wal_fs.crash_image();
    let (blob_image, blob_lost, blob_lost_files) = loaded.stack.blob_fs.crash_image();
    let payload = recover::payload(&expect, &wal_image, &blob_image).map_err(|e| e.to_string())?;
    // The store itself is not needed again, and the children do not
    // have to share the machine's memory with it.
    drop((wal_image, blob_image, loaded));
    let mut reports = Vec::new();
    let recovering = std::time::Instant::now();
    while reports.len() < cfg.recoveries.max(1) as usize
        || (reports.len() < MAX_RECOVERIES && recovering.elapsed() < cfg.recovery_time)
    {
        quiet.pause();
        reports.push(if cfg.recover_in_process {
            recover::in_process(&payload)?
        } else {
            recover::in_child(&payload)?
        });
    }
    drop(payload);
    let recoveries: Vec<Timed> = reports
        .iter()
        .map(|r| Timed {
            seconds: r.recovery_s,
            speed: r.speed,
        })
        .collect();

    let gate = quiet.gate();
    for (name, phase) in [
        ("reference reads", &measured.reference_reads),
        ("measured phase", &measured.main),
        ("reference writes", &measured.reference_writes),
    ] {
        let view = phase.view(&gate);
        let (kept, of) = view.kept_rounds();
        println!(
            "quiet: {:.0}% of the operations of the {name}, {kept} of {of} rounds kept",
            100.0 * view.quiet_share()
        );
    }
    println!(
        "machine speed {:.1} loads/us; waited {:.2} s for quiet",
        quiet.usual_speed(),
        quiet.waited().as_secs_f64()
    );
    let mut tally = measured.warmup_tally.clone();
    tally.absorb(&measured.main.tally);
    tally.absorb(&measured.reference_reads.tally);
    tally.absorb(&measured.reference_writes.tally);
    let (end_to_end, mut errors) = end_to_end(&measured, sizes, &gate, &recoveries);
    errors.extend(tally.errors.iter().cloned());
    for r in &reports {
        errors.extend(r.errors.iter().cloned());
    }
    if wal_lost + blob_lost + blob_lost_files > 0 {
        // Not an error by itself: only acknowledged data must survive,
        // and the recovery checks above decide that.
        eprintln!("crash dropped {wal_lost} unsynced WAL bytes, {blob_lost} blob bytes, {blob_lost_files} files");
    }

    let mut per_layer_metrics = Vec::new();
    if let Some(tracer) = &tracer {
        let extras = LayerExtras {
            telemetry_overhead_ratio: telemetry_overhead(
                cfg,
                &dataset,
                &FleetBlobs::generate(&dataset, cfg.seed),
            )?,
            meta_bytes: extras_counts.0,
            total_rows: extras_counts.1,
        };
        per_layer_metrics = per_layer(&measured, sizes, tracer, &gate, &reports[0], &extras);
        for line in waterfall(cfg.workload, tracer) {
            println!("{line}");
        }
        if let Some(path) = &cfg.trace_out {
            let file =
                std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let mut out = std::io::BufWriter::new(file);
            tracer
                .sink
                .write_jsonl(&mut out)
                .map_err(|e| e.to_string())?;
            std::io::Write::flush(&mut out).map_err(|e| e.to_string())?;
            println!("spans written to {}", path.display());
        }
    }

    Ok(RunResult {
        correct: errors.is_empty() && tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        errors,
        end_to_end,
        per_layer: per_layer_metrics,
        plan_fingerprint: measured.plan_fingerprint,
    })
}

impl RunResult {
    fn metrics_json(metrics: &[Metric]) -> Json {
        Json::Map(
            metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        json::obj(vec![
                            ("value", json::num(m.value)),
                            ("unit", json::text(m.unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The line the driver reads: end-to-end metrics of an untraced run,
    /// per-layer metrics of a traced one.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        json::line(&json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::U64(self.attempted.max(1))),
            ("failed", Json::U64(self.failed)),
            ("metrics", Self::metrics_json(metrics)),
        ]))
    }

    pub fn print_table(&self, traced: bool) {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        println!(
            "{:<40} {:>16} {:<7} {:>9}  from",
            "metric", "value", "unit", "samples"
        );
        for m in metrics {
            println!(
                "{:<40} {:>16.6} {:<7} {:>9}  {}",
                m.name, m.value, m.unit, m.samples, m.source
            );
        }
        println!(
            "operations attempted {}  failed {}",
            self.attempted, self.failed
        );
        for e in &self.errors {
            println!("ERROR {e}");
        }
    }
}
