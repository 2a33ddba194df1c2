//! One benchmark run: set up, warm up, measure fixed work in rounds, run
//! the reference block, then hand the crash image to recovery.
//!
//! Closed loop: a client sends its next request only after the previous
//! one has returned. `ingest`, `serve` and `search` have one client;
//! `mixed` has a writer and a reader. `DirectTransport` runs the server
//! on the caller's thread, so no workload has more runnable threads than
//! the sandbox has cores (2).

use crate::gen::{self, Dataset, Kind, MetricTarget, Op, Plan, Sizes, Workload};
use crate::layers::{Tracer, REFERENCE_PHASE};
use crate::memfs::{FsCounts, MemFs};
use crate::quiet::{Gate, Quiet, MIN_QUIET_SHARE_OF_ROUND, WINDOW};
use crate::shadow::{CountKey, InstanceEntry, Shadow};
use crate::stack::{CacheCounts, InstanceView, PreparedRead, Search, Stack, StackOptions};
use bytes::Bytes;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// A stretch of one client's round between two machine-speed probes.
#[derive(Clone)]
pub struct Window {
    /// Machine speed read just before the window and just after it.
    pub speed: (f64, f64),
    /// From the end of the probe before it to the start of the one after.
    pub wall_ns: u64,
    /// Length of each kind's sample vector in the round at the window's
    /// end; the window's samples lie between the previous window's ends
    /// and these.
    ends: [u32; 7],
    /// Operations that returned the right answer.
    pub ops: u64,
    /// Sum of their latencies: the time the client spent waiting.
    pub busy_ns: u64,
}

/// Latency samples (ns) of one client's round, by operation kind, and
/// the windows they fall into.
#[derive(Default, Clone)]
pub struct RoundSamples {
    pub by_kind: [Vec<u64>; 7],
    pub windows: Vec<Window>,
}

impl RoundSamples {
    /// Operations, waiting time and wall time over the quiet windows.
    fn totals(&self, gate: &Gate) -> (u64, u64, u64) {
        self.windows
            .iter()
            .filter(|w| gate.admits(w.speed))
            .fold((0, 0, 0), |t, w| {
                (t.0 + w.ops, t.1 + w.busy_ns, t.2 + w.wall_ns)
            })
    }

    /// Whether the quiet windows hold `share` of the round's operations,
    /// and one at least.
    fn is_kept(&self, gate: &Gate, share: f64) -> bool {
        let ops: u64 = self.windows.iter().map(|w| w.ops).sum();
        let quiet_ops = self.totals(gate).0;
        quiet_ops > 0 && quiet_ops as f64 >= share * ops as f64
    }

    /// Samples of `kind` that fell into quiet windows.
    fn samples(&self, kind: Kind, gate: &Gate) -> Vec<u64> {
        let k = kind.index();
        let mut out = Vec::new();
        for (i, w) in self.windows.iter().enumerate() {
            if gate.admits(w.speed) {
                let start = if i == 0 {
                    0
                } else {
                    self.windows[i - 1].ends[k]
                };
                out.extend_from_slice(&self.by_kind[k][start as usize..w.ends[k] as usize]);
            }
        }
        out
    }
}

/// Totals a client keeps across phases.
#[derive(Default, Debug, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub acked_writes: u64,
    /// Payload bytes of acknowledged writes: blob bytes plus the ids,
    /// names, metadata and values the client sent.
    pub user_bytes: u64,
    pub acked_uploads: u64,
    pub errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.acked_writes += other.acked_writes;
        self.user_bytes += other.user_bytes;
        self.acked_uploads += other.acked_uploads;
        for e in &other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e.clone());
            }
        }
    }
}

/// Everything a client needs that outlives one operation.
pub struct Env<'a> {
    pub stack: &'a Stack,
    pub shadow: &'a RwLock<Shadow>,
    pub seed: u64,
    pub tracer: Option<&'a Tracer>,
    pub quiet: &'a Quiet,
}

/// The window a client is in: it ends with the first probe taken
/// `WINDOW` or more after `started`.
struct OpenWindow {
    started: Instant,
    speed_before: f64,
    ops: u64,
    busy_ns: u64,
}

/// What `run_rounds` tells its caller between rounds.
pub enum RoundEvent {
    /// The client is about to wait for a quiet machine.
    Waiting,
    /// The wait is over and round `i`'s first operation is next.
    Starting(usize),
}

/// One closed-loop client.
pub struct Client<'a> {
    env: &'a Env<'a>,
    window: OpenWindow,
    /// Ordinal of the instance this client's last upload created.
    last_new: Option<u32>,
    /// Whether that instance's join metric is still to be written.
    last_new_unsettled: bool,
    /// Distinguishes the two clients' operation ids in a trace.
    id_base: u32,
    seq: u32,
    pub tally: Tally,
}

/// An operation resolved against the shadow: inputs ready to send and
/// the answer to expect.
enum Prepared {
    Upload {
        model: u32,
        city: u32,
        model_id: String,
        metadata_json: String,
        blob: Bytes,
        crc: u32,
    },
    Metric {
        ordinal: u32,
        instance_id: String,
        name: &'static str,
        scope: &'static str,
        value: f64,
        join_value: Option<f64>,
        settles: bool,
    },
    Get {
        instance_id: String,
        model_id: String,
    },
    Latest {
        model: u32,
        model_id: String,
        latest_id: String,
        in_flight: bool,
    },
    Blob {
        instance_id: String,
        len: u32,
        crc: u32,
    },
    Search {
        read: PreparedRead,
        key: CountKey,
        acked: u32,
        marker: String,
    },
}

fn count_key(op: &Op) -> Option<CountKey> {
    Some(match *op {
        Op::QueryCity { city } => CountKey::City(city),
        Op::QueryProjectType {
            project,
            model_type,
        } => CountKey::ProjectType(project, model_type),
        Op::QueryProject { project } => CountKey::Project(project),
        Op::QueryBase { model } => CountKey::Model(model),
        Op::Join { name, threshold } => CountKey::Join(name, threshold),
        _ => return None,
    })
}

impl<'a> Client<'a> {
    pub fn new(env: &'a Env<'a>, id_base: u32) -> Self {
        let window = OpenWindow {
            started: Instant::now(),
            speed_before: 0.0,
            ops: 0,
            busy_ns: 0,
        };
        Client {
            env,
            window,
            last_new: None,
            last_new_unsettled: false,
            id_base,
            seq: 0,
            tally: Tally::default(),
        }
    }

    /// Start a window here, with a fresh probe reading.
    pub fn open_window(&mut self) {
        let speed_before = self.env.quiet.speed();
        self.begin_window(speed_before);
    }

    fn begin_window(&mut self, speed_before: f64) {
        self.window = OpenWindow {
            started: Instant::now(),
            speed_before,
            ops: 0,
            busy_ns: 0,
        };
    }

    /// End the open window with a probe reading, file it under `out`, and
    /// start the next one from that reading.
    pub fn close_window(&mut self, out: &mut RoundSamples) {
        let wall_ns = self.window.started.elapsed().as_nanos() as u64;
        let speed_after = self.env.quiet.speed();
        let mut ends = [0u32; 7];
        for (end, samples) in ends.iter_mut().zip(&out.by_kind) {
            *end = samples.len() as u32;
        }
        let w = &self.window;
        out.windows.push(Window {
            speed: (w.speed_before, speed_after),
            wall_ns,
            ends,
            ops: w.ops,
            busy_ns: w.busy_ns,
        });
        self.begin_window(speed_after);
    }

    /// One operation, then a probe if the window has lasted long enough.
    pub fn step(&mut self, op: &Op, out: &mut RoundSamples) {
        self.exec(op, out);
        if self.window.started.elapsed() >= WINDOW {
            self.close_window(out);
        }
    }

    fn prepare(&mut self, op: &Op) -> Option<Prepared> {
        let env = self.env;
        let shadow = env.shadow.read().expect("shadow lock");
        Some(match *op {
            Op::Upload {
                model,
                city,
                blob_len,
            } => {
                let entry = &shadow.models[model as usize];
                let model_id = entry.id.clone();
                let metadata_json = gen::instance_metadata_json(&entry.spec, city);
                // The ordinal keys the blob's bytes. Only one client
                // uploads at a time, so it is the next free one.
                let ordinal = shadow.instances.len() as u32;
                drop(shadow);
                let bytes = gen::blob_bytes(env.seed, ordinal, blob_len);
                let crc = gen::crc32(&bytes);
                Prepared::Upload {
                    model,
                    city,
                    model_id,
                    metadata_json,
                    blob: Bytes::from(bytes),
                    crc,
                }
            }
            Op::Metric {
                target,
                production,
                name,
                value,
            } => {
                let ordinal = match target {
                    MetricTarget::New => self.last_new?,
                    MetricTarget::Existing(o) => o.min(shadow.instances.len() as u32 - 1),
                };
                let (name, scope) = if production {
                    (gen::PRODUCTION_NAMES[name as usize], "production")
                } else {
                    (gen::VALIDATION_NAMES[name as usize], "validation")
                };
                let is_join = name == gen::JOIN_METRIC;
                let settles = is_join && target == MetricTarget::New && self.last_new_unsettled;
                Prepared::Metric {
                    ordinal,
                    instance_id: shadow.instances[ordinal as usize].id.clone(),
                    name,
                    scope,
                    value,
                    join_value: is_join.then_some(value),
                    settles,
                }
            }
            Op::Get { inst } => {
                let entry = &shadow.instances[inst as usize];
                Prepared::Get {
                    instance_id: entry.id.clone(),
                    model_id: shadow.models[entry.model as usize].id.clone(),
                }
            }
            Op::Latest { model } => Prepared::Latest {
                model,
                model_id: shadow.models[model as usize].id.clone(),
                latest_id: shadow.instances[shadow.latest(model)? as usize].id.clone(),
                in_flight: shadow.upload_in_flight(model),
            },
            Op::BlobLatest { .. } | Op::BlobOf { .. } => {
                let ordinal = match *op {
                    Op::BlobLatest { model } => shadow.latest(model)?,
                    Op::BlobOf { inst } => inst,
                    _ => unreachable!("matched blob operations only"),
                };
                let entry = &shadow.instances[ordinal as usize];
                Prepared::Blob {
                    instance_id: entry.id.clone(),
                    len: entry.blob_len,
                    crc: entry.blob_crc,
                }
            }
            Op::QueryCity { .. }
            | Op::QueryProjectType { .. }
            | Op::QueryProject { .. }
            | Op::QueryBase { .. }
            | Op::Join { .. } => {
                let key = count_key(op)?;
                let (read, marker) = match *op {
                    Op::QueryCity { city } => {
                        let c = gen::city_name(city);
                        (Stack::prepare_search(&Search::City(c.clone())), c)
                    }
                    Op::QueryProjectType {
                        project,
                        model_type,
                    } => {
                        let t = gen::model_type_name(model_type);
                        let s = Search::ProjectType {
                            project: gen::project_name(project),
                            model_type: t.clone(),
                        };
                        (Stack::prepare_search(&s), t)
                    }
                    Op::QueryProject { project } => (
                        Stack::prepare_search(&Search::Project(gen::project_name(project))),
                        String::new(),
                    ),
                    Op::QueryBase { model } => {
                        let b = gen::base_version_id(model);
                        (Stack::prepare_search(&Search::Base(b.clone())), b)
                    }
                    Op::Join { name, threshold } => {
                        let n = gen::model_name(name);
                        (Stack::prepare_join(&n, gen::JOIN_METRIC, threshold), n)
                    }
                    _ => unreachable!("matched searches only"),
                };
                Prepared::Search {
                    read,
                    key,
                    acked: shadow.bounds(key).0,
                    marker,
                }
            }
        })
    }

    /// Send one operation, check the answer, and record its latency if
    /// the answer was right.
    fn exec(&mut self, op: &Op, out: &mut RoundSamples) {
        let env = self.env;
        let kind = op.kind();
        self.tally.attempted += 1;
        self.seq += 1;
        let Some(prepared) = self.prepare(op) else {
            self.tally.fail(format!(
                "{op:?}: nothing in the shadow to resolve it against"
            ));
            return;
        };
        let op_id = self.id_base + self.seq;
        let trace = env.tracer.and_then(|t| t.begin(kind, op_id, env.stack));
        let stack = env.stack;
        let verdict: Result<u64, String> = match prepared {
            Prepared::Upload {
                model,
                city,
                model_id,
                metadata_json,
                blob,
                crc,
            } => {
                env.shadow
                    .write()
                    .expect("shadow lock")
                    .begin_upload(model, city);
                if let Some(t) = &trace {
                    t.before_upload(stack, &model_id);
                }
                let user_bytes = (blob.len() + metadata_json.len() + model_id.len()) as u64;
                let blob_len = blob.len() as u32;
                let (result, ns) = timed(&trace, || stack.upload(&model_id, &metadata_json, blob));
                let mut shadow = env.shadow.write().expect("shadow lock");
                match result {
                    Ok(v)
                        if v.model_id == model_id
                            && !v.id.is_empty()
                            && v.blob_location.is_some() =>
                    {
                        let entry = InstanceEntry {
                            id: v.id,
                            model,
                            blob_location: v.blob_location.unwrap_or_default(),
                            blob_len,
                            blob_crc: crc,
                            join_value: f64::INFINITY,
                        };
                        self.last_new = Some(shadow.ack_upload(model, city, entry));
                        self.last_new_unsettled = true;
                        self.tally.acked_writes += 1;
                        self.tally.acked_uploads += 1;
                        self.tally.user_bytes += user_bytes;
                        Ok(ns)
                    }
                    Ok(v) => {
                        shadow.abandon_upload(model, city);
                        Err(format!("upload answered with instance {v:?}"))
                    }
                    Err(e) => {
                        shadow.abandon_upload(model, city);
                        Err(e)
                    }
                }
            }
            Prepared::Metric {
                ordinal,
                instance_id,
                name,
                scope,
                value,
                join_value,
                settles,
            } => {
                let (result, ns) = timed(&trace, || stack.metric(&instance_id, name, scope, value));
                let mut shadow = env.shadow.write().expect("shadow lock");
                if settles {
                    self.last_new_unsettled = false;
                }
                match result {
                    Ok(()) => {
                        shadow.ack_metric(ordinal, join_value, settles);
                        self.tally.acked_writes += 1;
                        self.tally.user_bytes +=
                            (instance_id.len() + name.len() + scope.len() + 8) as u64;
                        Ok(ns)
                    }
                    Err(e) => {
                        if settles {
                            shadow.settle(ordinal);
                        }
                        Err(e)
                    }
                }
            }
            Prepared::Get {
                instance_id,
                model_id,
            } => {
                let (result, ns) = timed(&trace, || stack.get(&instance_id));
                if let Some(t) = &trace {
                    t.after_read(stack, &Stack::prepare_get(&instance_id), ns);
                }
                match result {
                    Ok(v) if v.id == instance_id && v.model_id == model_id => Ok(ns),
                    Ok(v) => Err(format!(
                        "get {instance_id} answered {} of model {}",
                        v.id, v.model_id
                    )),
                    Err(e) => Err(e),
                }
            }
            Prepared::Latest {
                model,
                model_id,
                latest_id,
                in_flight,
            } => {
                let (result, ns) = timed(&trace, || stack.latest(&model_id));
                if let Some(t) = &trace {
                    t.after_read(stack, &Stack::prepare_latest(&model_id), ns);
                }
                match result {
                    Ok(Some(v)) if v.model_id == model_id => {
                        let shadow = env.shadow.read().expect("shadow lock");
                        let now_latest = shadow
                            .latest(model)
                            .map(|o| shadow.instances[o as usize].id.as_str());
                        // While an upload to this model is in flight the
                        // new instance may already be the latest.
                        if v.id == latest_id
                            || Some(v.id.as_str()) == now_latest
                            || in_flight
                            || shadow.upload_in_flight(model)
                        {
                            Ok(ns)
                        } else {
                            Err(format!(
                                "latest of {model_id} answered {}, expected {latest_id}",
                                v.id
                            ))
                        }
                    }
                    Ok(other) => Err(format!(
                        "latest of {model_id} answered {:?}",
                        other.map(|v| v.id)
                    )),
                    Err(e) => Err(e),
                }
            }
            Prepared::Blob {
                instance_id,
                len,
                crc,
            } => {
                let (result, ns) = timed(&trace, || stack.blob(&instance_id));
                if let Some(t) = &trace {
                    t.after_blob();
                }
                match result {
                    Ok(b) if b.len() == len as usize && gen::crc32(&b) == crc => Ok(ns),
                    Ok(b) => Err(format!(
                        "blob of {instance_id}: {} bytes, expected {len} with crc {crc:08x}",
                        b.len()
                    )),
                    Err(e) => Err(e),
                }
            }
            Prepared::Search {
                read,
                key,
                acked,
                marker,
            } => {
                let queries_before = trace.as_ref().map(|_| stack.store_queries());
                let (result, ns) = timed(&trace, || stack.search(&read));
                if let (Some(t), Some(before)) = (&trace, queries_before) {
                    t.after_search(stack, &read, ns, before);
                }
                match result {
                    Ok(rows) => {
                        let issued = env.shadow.read().expect("shadow lock").bounds(key).1;
                        check_search(&rows, key, acked, issued, &marker).map(|()| ns)
                    }
                    Err(e) => Err(e),
                }
            }
        };
        if let Some(t) = trace {
            t.finish(verdict.as_ref().ok().copied());
        }
        match verdict {
            Ok(ns) => {
                out.by_kind[kind.index()].push(ns);
                self.window.ops += 1;
                self.window.busy_ns += ns;
            }
            Err(e) => self.tally.fail(format!("{}: {e}", kind.name())),
        }
    }

    /// Run whole rounds, one after another. Every round starts from
    /// applied index deltas, as set-up leaves them, and on a quiet
    /// machine if waiting brings one: the rounds of a phase are then
    /// repeats of one another (an upload's latest-instance lookup scans
    /// at most one round's uploads), and one that was disturbed can be
    /// left out without moving the median of the others.
    pub fn run_rounds(
        &mut self,
        rounds: &[Vec<Op>],
        on_round: &mut dyn FnMut(RoundEvent),
    ) -> Vec<RoundSamples> {
        rounds
            .iter()
            .enumerate()
            .map(|(i, ops)| {
                on_round(RoundEvent::Waiting);
                self.env.stack.flush_index_deltas();
                self.env.quiet.pause();
                on_round(RoundEvent::Starting(i));
                let mut out = RoundSamples::default();
                self.open_window();
                for op in ops {
                    self.step(op, &mut out);
                }
                self.close_window(&mut out);
                out
            })
            .collect()
    }
}

/// Time `f`; inside a sampled operation, under that operation's root span.
fn timed<T>(trace: &Option<crate::layers::OpTrace<'_>>, f: impl FnOnce() -> T) -> (T, u64) {
    let run = || {
        let t0 = Instant::now();
        let out = f();
        (out, t0.elapsed().as_nanos() as u64)
    };
    match trace {
        Some(t) => t.sampled(run),
        None => run(),
    }
}

fn check_search(
    rows: &[InstanceView],
    key: CountKey,
    acked: u32,
    issued: u32,
    marker: &str,
) -> Result<(), String> {
    let n = rows.len() as u32;
    if n < acked || n > issued {
        return Err(format!(
            "{key:?} answered {n} rows, expected {acked}..={issued}"
        ));
    }
    // Spot check both ends of the result against the searched value.
    for row in rows.first().into_iter().chain(rows.last()) {
        let ok = match key {
            CountKey::Model(_) => row.base_version_id == marker,
            _ => row.metadata_json.contains(marker),
        };
        if !ok {
            return Err(format!(
                "{key:?} answered instance {} which does not match {marker}",
                row.id
            ));
        }
    }
    Ok(())
}

/// The state of one set-up: a loaded stack and its shadow.
pub struct Loaded {
    pub stack: Stack,
    pub shadow: RwLock<Shadow>,
    pub setup_s: f64,
}

/// Preloaded blobs with their checksums: inputs, made before set-up is
/// timed.
pub struct FleetBlobs {
    blobs: Vec<(Bytes, u32)>,
}

impl FleetBlobs {
    pub fn generate(dataset: &Dataset, seed: u64) -> Self {
        let blobs = dataset
            .instances
            .iter()
            .enumerate()
            .map(|(ordinal, spec)| {
                let bytes = gen::blob_bytes(seed, ordinal as u32, spec.blob_len);
                let crc = gen::crc32(&bytes);
                (Bytes::from(bytes), crc)
            })
            .collect();
        FleetBlobs { blobs }
    }
}

/// Build a stack and preload the fleet through the client API. Timed:
/// stack construction, preload and index flushes.
pub fn setup(
    sizes: &Sizes,
    dataset: &Dataset,
    blobs: &FleetBlobs,
    opts: &StackOptions,
) -> Result<Loaded, String> {
    let started = Instant::now();
    let (stack, _) = Stack::open(Arc::new(MemFs::new()), Arc::new(MemFs::new()), opts)?;
    let mut shadow = Shadow::new(sizes, dataset);
    for (m, spec) in dataset.models.iter().enumerate() {
        let id = stack.create_model(
            &gen::project_name(spec.project),
            &gen::base_version_id(m as u32),
            &gen::model_name(spec.name),
        )?;
        shadow.add_model(id, spec.clone());
    }
    for (ordinal, (spec, (blob, crc))) in dataset.instances.iter().zip(&blobs.blobs).enumerate() {
        let model = &shadow.models[spec.model as usize];
        let metadata_json = gen::instance_metadata_json(&model.spec, spec.city);
        let view = stack.upload(&model.id, &metadata_json, blob.clone())?;
        let location = view
            .blob_location
            .ok_or("preload: upload returned no blob location")?;
        for (name, value) in gen::VALIDATION_NAMES.iter().zip(spec.validation) {
            stack.metric(&view.id, name, "validation", value)?;
        }
        shadow.begin_upload(spec.model, spec.city);
        let entry = InstanceEntry {
            id: view.id,
            model: spec.model,
            blob_location: location,
            blob_len: spec.blob_len,
            blob_crc: *crc,
            join_value: f64::INFINITY,
        };
        let o = shadow.ack_upload(spec.model, spec.city, entry);
        shadow.ack_metric(o, Some(spec.validation[0]), true);
        shadow.acked_metrics += 2;
        // Deferred index tails otherwise make every later upload's
        // latest-instance lookup scan all rows loaded so far.
        if (ordinal as u32 + 1).is_multiple_of(sizes.preload_flush_every) {
            stack.flush_index_deltas();
        }
    }
    stack.flush_index_deltas();
    Ok(Loaded {
        stack,
        shadow: RwLock::new(shadow),
        setup_s: started.elapsed().as_secs_f64(),
    })
}

/// Counters the benchmark reads from outside the program, at one moment.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub wal_fs: FsCounts,
    pub blob_fs: FsCounts,
    pub cache: CacheCounts,
    pub index_flushes: u64,
    pub wal_file_bytes: u64,
    pub blob_file_bytes: u64,
}

impl Counters {
    pub fn read(stack: &Stack) -> Counters {
        Counters {
            wal_fs: stack.wal_fs.counts(),
            blob_fs: stack.blob_fs.counts(),
            cache: stack.cache_counts(),
            index_flushes: stack.index_flushes(),
            wal_file_bytes: stack.wal_fs.total_file_bytes(),
            blob_file_bytes: stack.blob_fs.total_file_bytes(),
        }
    }
}

/// What one phase (measured rounds or the reference block) produced.
pub struct Phase {
    /// The single client's rounds; thread W's on `mixed`.
    pub rounds: Vec<RoundSamples>,
    /// Thread R's samples binned by W's round (`mixed` only).
    pub reader_rounds: Vec<RoundSamples>,
    pub before: Counters,
    pub after: Counters,
    pub tally: Tally,
}

/// A phase read through a gate: what its quiet windows hold.
pub struct PhaseView<'a> {
    phase: &'a Phase,
    gate: Gate,
    /// The share of a round's operations its quiet windows must hold for
    /// the round to be reported.
    min_share: f64,
}

impl Phase {
    pub fn view(&self, gate: &Gate) -> PhaseView<'_> {
        PhaseView {
            phase: self,
            gate: *gate,
            min_share: MIN_QUIET_SHARE_OF_ROUND,
        }
    }

    /// The phase through `gate` if at least three of its rounds are kept
    /// under it; else whatever its rounds have in quiet windows, however
    /// little, if three have any; else through the open gate — a phase
    /// that never met a quiet machine has no better choice than all of
    /// its windows.
    pub fn usable_view(&self, gate: &Gate) -> PhaseView<'_> {
        let enough = |view: &PhaseView<'_>| view.kept_rounds().0 >= 3.min(self.rounds.len());
        let mut view = self.view(gate);
        if !enough(&view) {
            view.min_share = 0.0;
        }
        if !enough(&view) {
            view = self.view(&Gate::OPEN);
        }
        view
    }
}

impl PhaseView<'_> {
    /// Whether round `i` is reported: every client's quiet windows must
    /// hold enough of its share of the round.
    fn is_kept(&self, i: usize) -> bool {
        let p = self.phase;
        p.rounds[i].is_kept(&self.gate, self.min_share)
            && p.reader_rounds
                .get(i)
                .is_none_or(|r| r.is_kept(&self.gate, self.min_share))
    }

    fn kept(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.phase.rounds.len()).filter(|&i| self.is_kept(i))
    }

    /// Rounds kept, of how many.
    pub fn kept_rounds(&self) -> (usize, usize) {
        (self.kept().count(), self.phase.rounds.len())
    }

    /// The share of the phase's operations that fell into quiet windows.
    pub fn quiet_share(&self) -> f64 {
        let p = self.phase;
        let all = p.rounds.iter().chain(&p.reader_rounds);
        let (quiet, total) = all.fold((0, 0), |t, r| {
            (t.0 + r.totals(&self.gate).0, t.1 + r.totals(&Gate::OPEN).0)
        });
        quiet as f64 / total.max(1) as f64
    }

    /// Quiet-window samples of `kind` from whichever client issued that
    /// kind: one vector per kept round, with the round's position.
    pub fn samples(&self, kind: Kind) -> Vec<(usize, Vec<u64>)> {
        let p = self.phase;
        let rounds = if kind.is_write() || p.reader_rounds.is_empty() {
            &p.rounds
        } else {
            &p.reader_rounds
        };
        self.kept()
            .map(|i| (i, rounds[i].samples(kind, &self.gate)))
            .collect()
    }

    /// Operations per second of each kept round, over its quiet windows,
    /// with the round's position in the phase. One client: operations
    /// over the time spent waiting for them. Two clients: each one's
    /// operations over its wall time, added up.
    pub fn round_rates(&self) -> Vec<(usize, f64)> {
        let p = self.phase;
        self.kept()
            .map(|i| {
                let (ops, busy_ns, wall_ns) = p.rounds[i].totals(&self.gate);
                let rate = match p.reader_rounds.get(i) {
                    Some(r) => {
                        let (r_ops, _, r_wall_ns) = r.totals(&self.gate);
                        ops as f64 / (wall_ns as f64 / 1e9)
                            + r_ops as f64 / (r_wall_ns as f64 / 1e9)
                    }
                    None => ops as f64 / (busy_ns as f64 / 1e9),
                };
                (i, rate)
            })
            .collect()
    }
}

/// Run `rounds` with one client, or with a writer and a reader when
/// `reader_loop` is not empty.
pub fn run_phase(
    env: &Env<'_>,
    rounds: &[Vec<Op>],
    reader_loop: &[Op],
    id_base: u32,
    on_round: &mut dyn FnMut(usize),
) -> Phase {
    let before = Counters::read(env.stack);
    let mut writer = Client::new(env, id_base);
    let mut starting = |event: RoundEvent| {
        if let RoundEvent::Starting(i) = event {
            on_round(i);
        }
    };
    let (rounds_out, reader_rounds, reader_tally) = if reader_loop.is_empty() {
        (
            writer.run_rounds(rounds, &mut starting),
            Vec::new(),
            Tally::default(),
        )
    } else {
        // The round the writer is in, or `WAITING` while it waits for a
        // quiet machine: the reader waits with it, so that every one of
        // its samples was taken next to a running writer.
        const WAITING: usize = usize::MAX;
        let current = AtomicUsize::new(WAITING);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut client = Client::new(env, id_base | 1 << 30);
                let mut out = vec![RoundSamples::default(); rounds.len()];
                let mut passes = 0;
                let read_round = || Some(current.load(Ordering::Relaxed)).filter(|&r| r != WAITING);
                let mut round: Option<usize> = None;
                'outer: loop {
                    for op in reader_loop {
                        // Once through the whole list at least, so that
                        // even the shortest phase samples every kind.
                        if passes > 0 && done.load(Ordering::Acquire) {
                            break 'outer;
                        }
                        let now = read_round();
                        if now != round || now.is_none() {
                            if let Some(r) = round {
                                client.close_window(&mut out[r]);
                            }
                            round = now;
                            while round.is_none() {
                                std::thread::sleep(std::time::Duration::from_micros(200));
                                round = read_round();
                            }
                            client.open_window();
                        }
                        if let Some(r) = round {
                            client.step(op, &mut out[r]);
                        }
                    }
                    passes += 1;
                }
                if let Some(r) = round {
                    client.close_window(&mut out[r]);
                }
                (out, client.tally)
            });
            let rounds_out = writer.run_rounds(rounds, &mut |event| match event {
                RoundEvent::Waiting => current.store(WAITING, Ordering::Relaxed),
                RoundEvent::Starting(i) => {
                    on_round(i);
                    current.store(i, Ordering::Relaxed);
                }
            });
            // Release pairs with the reader's Acquire load: it stops
            // before starting another operation.
            done.store(true, Ordering::Release);
            let (reader_rounds, reader_tally) = reader.join().expect("reader thread panicked");
            (rounds_out, reader_rounds, reader_tally)
        })
    };
    let mut tally = writer.tally;
    tally.absorb(&reader_tally);
    Phase {
        rounds: rounds_out,
        reader_rounds,
        before,
        after: Counters::read(env.stack),
        tally,
    }
}

/// A one-off duration (a set-up, a recovery) with the machine speed read
/// just before it and just after it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub seconds: f64,
    pub speed: (f64, f64),
}

/// The median of the durations taken on a quiet machine; of all of them
/// if none was.
pub fn quiet_median(timed: &[Timed], gate: &Gate) -> Option<f64> {
    let quiet: Vec<f64> = timed
        .iter()
        .filter(|t| gate.admits(t.speed))
        .map(|t| t.seconds)
        .collect();
    if quiet.is_empty() {
        crate::stats::median_f64(&timed.iter().map(|t| t.seconds).collect::<Vec<_>>())
    } else {
        crate::stats::median_f64(&quiet)
    }
}

/// Everything measured in one run, before it is turned into metrics.
pub struct Measured {
    pub workload: Workload,
    pub setups: Vec<Timed>,
    pub reference_reads: Phase,
    pub main: Phase,
    pub reference_writes: Phase,
    pub warmup_tally: Tally,
    pub rss_peak_mb: f64,
    pub plan_fingerprint: u64,
}

/// `VmHWM` of this process, in MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Warm-up, measured rounds and reference block on a loaded stack.
pub fn measure(workload: Workload, plan: &Plan, env: &Env<'_>, setups: Vec<Timed>) -> Measured {
    let tracer = env.tracer;
    // The read half of the reference block sees exactly the preloaded
    // fleet, with every index delta applied.
    let reference_reads = run_phase(
        env,
        &plan.reference_reads,
        &[],
        REFERENCE_PHASE,
        &mut |_| {},
    );
    if let Some(t) = tracer {
        t.set_enabled(false);
    }
    let warmup = run_phase(
        env,
        std::slice::from_ref(&plan.warmup),
        &plan.reader_loop,
        0,
        &mut |_| {},
    );
    let main = run_phase(env, &plan.rounds, &plan.reader_loop, 0, &mut |i| {
        // Odd rounds are traced, even rounds are not: their rates give
        // the tracing overhead from one run.
        if let Some(t) = tracer {
            t.set_enabled(i % 2 == 1);
        }
    });
    if let Some(t) = tracer {
        t.set_enabled(true);
    }
    let reference_writes = run_phase(
        env,
        &plan.reference_writes,
        &[],
        REFERENCE_PHASE,
        &mut |_| {},
    );
    Measured {
        workload,
        setups,
        reference_reads,
        main,
        reference_writes,
        warmup_tally: warmup.tally,
        rss_peak_mb: rss_peak_mb(),
        plan_fingerprint: plan.fingerprint(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUIET: (f64, f64) = (100.0, 100.2);
    const DISTURBED: (f64, f64) = (100.0, 93.0);

    /// A round of `get` samples `1..=n`, cut into windows of the given
    /// lengths and speeds; every sample took 10 ns.
    fn round(windows: &[(usize, (f64, f64))]) -> RoundSamples {
        let mut r = RoundSamples::default();
        for &(n, speed) in windows {
            let samples = &mut r.by_kind[Kind::Get.index()];
            let first = samples.len() as u64 + 1;
            samples.extend(first..first + n as u64);
            let mut ends = [0u32; 7];
            ends[Kind::Get.index()] = samples.len() as u32;
            r.windows.push(Window {
                speed,
                wall_ns: 20 * n as u64,
                ends,
                ops: n as u64,
                busy_ns: 10 * n as u64,
            });
        }
        r
    }

    fn phase(rounds: Vec<RoundSamples>) -> Phase {
        Phase {
            rounds,
            reader_rounds: Vec::new(),
            before: Counters::default(),
            after: Counters::default(),
            tally: Tally::default(),
        }
    }

    #[test]
    fn only_quiet_windows_count() {
        let gate = Gate::around(100.0);
        let r = round(&[(2, QUIET), (3, DISTURBED), (1, QUIET)]);
        assert_eq!(r.samples(Kind::Get, &gate), vec![1, 2, 6]);
        assert_eq!(r.samples(Kind::Get, &Gate::OPEN), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(r.samples(Kind::Blob, &gate), Vec::<u64>::new());
        assert_eq!(r.totals(&gate), (3, 30, 60));
        assert!(r.is_kept(&gate, 0.5));
        assert!(!r.is_kept(&gate, 0.6));
        assert!(
            !round(&[(3, DISTURBED)]).is_kept(&gate, 0.0),
            "a kept round has a quiet operation"
        );
    }

    #[test]
    fn a_phase_gives_up_its_gate_step_by_step() {
        let gate = Gate::around(100.0);
        let mostly_quiet = || round(&[(8, QUIET), (2, DISTURBED)]);
        let barely_quiet = || round(&[(1, QUIET), (9, DISTURBED)]);
        let disturbed = || round(&[(10, DISTURBED)]);
        // Three rounds with enough quiet work: those are reported, at
        // the rate of their quiet windows (8 operations in 80 ns).
        let p = phase(vec![
            mostly_quiet(),
            disturbed(),
            mostly_quiet(),
            barely_quiet(),
            mostly_quiet(),
        ]);
        let view = p.usable_view(&gate);
        assert_eq!(view.kept_rounds(), (3, 5));
        assert_eq!(view.round_rates(), vec![(0, 1e8), (2, 1e8), (4, 1e8)]);
        assert_eq!(
            view.samples(Kind::Get)[1],
            (2, (1..=8).collect::<Vec<u64>>())
        );
        assert_eq!(view.quiet_share(), 25.0 / 50.0);
        // Too few of those: whatever is quiet, however little.
        let p = phase(vec![
            mostly_quiet(),
            barely_quiet(),
            barely_quiet(),
            disturbed(),
        ]);
        let view = p.usable_view(&gate);
        assert_eq!(view.kept_rounds(), (3, 4));
        assert_eq!(view.samples(Kind::Get)[1], (1, vec![1]));
        // Nothing quiet in three rounds: everything.
        let p = phase(vec![
            mostly_quiet(),
            barely_quiet(),
            disturbed(),
            disturbed(),
        ]);
        let view = p.usable_view(&gate);
        assert_eq!(view.kept_rounds(), (4, 4));
        assert_eq!(view.samples(Kind::Get)[3].1.len(), 10);
    }

    #[test]
    fn one_off_timings_are_the_median_of_the_quiet_ones() {
        let gate = Gate::around(100.0);
        let timed = [
            Timed {
                seconds: 5.0,
                speed: DISTURBED,
            },
            Timed {
                seconds: 1.0,
                speed: QUIET,
            },
            Timed {
                seconds: 9.0,
                speed: DISTURBED,
            },
            Timed {
                seconds: 2.0,
                speed: QUIET,
            },
        ];
        assert_eq!(quiet_median(&timed, &gate), Some(1.5));
        assert_eq!(
            quiet_median(&timed[..1], &gate),
            Some(5.0),
            "none quiet: all of them"
        );
        assert_eq!(quiet_median(&[], &gate), None);
    }
}
