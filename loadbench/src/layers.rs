//! Per-layer measurement for a traced run.
//!
//! Two sources. Where the program has a trait seam (`Transport`,
//! `ObjectStore`, `FileSystem`) the wrappers in `stack::seams` record
//! spans inside the measured call. Where a layer boundary is a concrete
//! type there is nothing to wrap, so a sampled read is re-issued at once
//! at each deeper public entry — client, `handle_frame` on the captured
//! frame, the `Gallery` method, the `Dal` call, the `MetadataStore` call —
//! in an order that rotates from sample to sample, and a layer's self
//! time is its entry's time minus the next entry's (*onion replay*).
//! Writes cannot be replayed; they get spans and counts only.

use crate::gen::Kind;
use crate::stack::{seams, PreparedRead, Stack};
use crate::stats::median_f64;
use crate::trace::{Span, SpanSink, NO_PARENT};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One operation in this many is sampled, by kind. Reads are sampled 1 in
/// 50; the rare kinds more often so that their medians have enough
/// samples behind them.
fn sample_every(kind: Kind) -> u32 {
    match kind {
        Kind::Upload | Kind::Join => 5,
        Kind::Query => 25,
        Kind::Metric | Kind::Get | Kind::Latest | Kind::Blob => 50,
    }
}

fn root_span_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Upload => "client.upload",
        Kind::Metric => "client.metric",
        Kind::Get => "client.get",
        Kind::Latest => "client.latest",
        Kind::Blob => "client.blob",
        Kind::Query => "client.query",
        Kind::Join => "client.join",
    }
}

/// Bit set in the operation id of everything the reference block issues.
pub const REFERENCE_PHASE: u32 = 1 << 29;

/// What the replays of sampled operations of one kind measured (ns).
#[derive(Default, Clone)]
pub struct KindSamples {
    /// The measured (original) call of each sampled operation.
    pub e2e: Vec<f64>,
    /// The client entry replayed: what the six parts below add up to.
    pub client_replay: Vec<f64>,
    pub client_self: Vec<f64>,
    pub server_self: Vec<f64>,
    pub registry_self: Vec<f64>,
    pub dal_self: Vec<f64>,
    pub meta: Vec<f64>,
    pub codec: Vec<f64>,
    pub resp_bytes: Vec<f64>,
    pub rows: u64,
    pub rows_scanned: u64,
    pub tail_merge_rows: u64,
    pub store_queries: Vec<f64>,
}

impl KindSamples {
    /// Measured call ÷ replayed client call, medians. A replay runs right
    /// after the measured call and finds its rows and code in cache, so
    /// the replays add up to 10–25 % less than the call they explain.
    /// Each layer's self time is scaled by this factor: the cold cost is
    /// attributed to the layers in proportion to their warm self times.
    pub fn cold_factor(&self) -> f64 {
        match (median_f64(&self.e2e), median_f64(&self.client_replay)) {
            (Some(cold), Some(warm)) if warm > 0.0 => cold / warm,
            _ => 1.0,
        }
    }
}

#[derive(Default, Clone)]
pub struct PhaseSamples {
    pub by_kind: [KindSamples; 7],
    pub upload_lookup: Vec<f64>,
    /// Latency of writes during which a stripe applied its index delta.
    pub flush_stall: Vec<f64>,
}

pub struct Tracer {
    pub sink: Arc<SpanSink>,
    enabled: AtomicBool,
    seen: [AtomicU32; 7],
    /// Index 0: measured rounds; 1: reference block.
    phases: Mutex<[PhaseSamples; 2]>,
}

pub struct OpTrace<'a> {
    tracer: &'a Tracer,
    kind: Kind,
    op_id: u32,
    sampled: bool,
    rotation: u32,
    flushes_before: u64,
    stack: &'a Stack,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            sink: Arc::new(SpanSink::new()),
            enabled: AtomicBool::new(true),
            seen: Default::default(),
            phases: Mutex::new(Default::default()),
        }
    }

    /// Turn tracing off for an untraced comparison round.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Relaxed);
    }

    /// `None` when tracing is off. Otherwise every write is watched for
    /// an index flush, and one operation in `sample_every(kind)` is
    /// sampled for spans and replay.
    pub fn begin<'a>(&'a self, kind: Kind, op_id: u32, stack: &'a Stack) -> Option<OpTrace<'a>> {
        if !self.enabled.load(Relaxed) {
            return None;
        }
        let n = self.seen[kind.index()].fetch_add(1, Relaxed);
        let sampled = n.is_multiple_of(sample_every(kind));
        if !sampled && !kind.is_write() {
            return None;
        }
        Some(OpTrace {
            tracer: self,
            kind,
            op_id,
            sampled,
            rotation: n / sample_every(kind),
            flushes_before: if kind.is_write() {
                stack.index_flushes()
            } else {
                0
            },
            stack,
        })
    }

    pub fn samples(&self) -> [PhaseSamples; 2] {
        self.phases.lock().expect("layer samples lock").clone()
    }
}

fn ns_of(f: impl FnOnce() -> usize) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_nanos() as f64
}

impl OpTrace<'_> {
    fn with_kind(&self, f: impl FnOnce(&mut KindSamples)) {
        let phase = usize::from(self.op_id & REFERENCE_PHASE != 0);
        let mut phases = self.tracer.phases.lock().expect("layer samples lock");
        f(&mut phases[phase].by_kind[self.kind.index()]);
    }

    fn with_phase(&self, f: impl FnOnce(&mut PhaseSamples)) {
        let phase = usize::from(self.op_id & REFERENCE_PHASE != 0);
        f(&mut self.tracer.phases.lock().expect("layer samples lock")[phase]);
    }

    /// Run the measured call, under a root span if this one is sampled.
    pub fn sampled<T>(&self, f: impl FnOnce() -> T) -> T {
        if self.sampled {
            self.tracer
                .sink
                .sampled(self.op_id, root_span_name(self.kind), f)
        } else {
            f()
        }
    }

    /// `registry.upload_lookup_us`: the latest-instance lookup an upload
    /// starts with, timed just before the upload itself.
    pub fn before_upload(&self, stack: &Stack, model_id: &str) {
        if !self.sampled {
            return;
        }
        let id = Stack::model_id(model_id);
        let ns = ns_of(|| stack.registry_latest(&id) as usize);
        self.with_phase(|p| p.upload_lookup.push(ns));
    }

    /// Codec times and reply size from the captured frame and reply.
    fn codec(&self) -> Option<(crate::stack::CodecTimes, bytes::Bytes)> {
        let (frame, reply) = seams::take_captured()?;
        let times = Stack::codec_times(&frame, &reply)?;
        let total = times.total_ns() as f64;
        let reply_len = reply.len() as f64;
        self.with_kind(|k| {
            k.codec.push(total);
            k.resp_bytes.push(reply_len);
        });
        Some((times, frame))
    }

    /// Onion replay of a `get` or `latest`.
    pub fn after_read(&self, stack: &Stack, read: &PreparedRead, e2e_ns: u64) {
        if self.sampled {
            self.replay(stack, read, e2e_ns);
        }
    }

    /// Codec times and reply size of a sampled blob fetch.
    pub fn after_blob(&self) {
        if self.sampled {
            self.codec();
        }
    }

    /// Onion replay of a search or join, plus how many store queries the
    /// measured call made.
    pub fn after_search(
        &self,
        stack: &Stack,
        read: &PreparedRead,
        e2e_ns: u64,
        queries_before: u64,
    ) {
        if !self.sampled {
            return;
        }
        let made = (stack.store_queries() - queries_before) as f64;
        self.with_kind(|k| k.store_queries.push(made));
        self.replay(stack, read, e2e_ns);
    }

    fn replay(&self, stack: &Stack, read: &PreparedRead, e2e_ns: u64) {
        let Some((codec, frame)) = self.codec() else {
            return;
        };
        // [client, server, registry, dal, meta], started at a rotating
        // position so that no entry always runs first (coldest) or last.
        let mut t = [0f64; 5];
        let mut plan = crate::stack::ReadPlanStats::default();
        for step in 0..5 {
            let entry = (step + self.rotation as usize) % 5;
            t[entry] = match entry {
                0 => ns_of(|| stack.client_read(read)),
                1 => ns_of(|| stack.server_frame(frame.clone())),
                2 => ns_of(|| stack.registry_read(read)),
                3 => {
                    let t0 = Instant::now();
                    plan = stack.dal_read(read);
                    t0.elapsed().as_nanos() as f64
                }
                _ if read.has_meta_entry() => ns_of(|| stack.meta_read(read)),
                _ => 0.0,
            };
        }
        // The client replay makes one more transport capture; drop it.
        seams::take_captured();
        self.with_kind(|k| {
            k.e2e.push(e2e_ns as f64);
            k.client_replay.push(t[0]);
            k.client_self
                .push(t[0] - t[1] - codec.client_side_ns() as f64);
            k.server_self
                .push(t[1] - t[2] - codec.server_side_ns() as f64);
            k.registry_self.push(t[2] - t[3]);
            k.dal_self.push(t[3] - t[4]);
            k.meta.push(t[4]);
            k.rows += plan.rows.max(1) as u64;
            k.rows_scanned += plan.rows_scanned as u64;
            k.tail_merge_rows += plan.tail_merge_rows as u64;
        });
    }

    /// End of the operation; `latency_ns` is `None` if it failed.
    pub fn finish(self, latency_ns: Option<u64>) {
        if !self.kind.is_write() {
            return;
        }
        if self.sampled {
            self.codec();
        }
        if let Some(ns) = latency_ns {
            if self.stack.index_flushes() > self.flushes_before {
                self.with_phase(|p| p.flush_stall.push(ns as f64));
            }
        }
    }
}

/// Durations taken from the span tree: what the seam wrappers saw inside
/// sampled calls.
#[derive(Default)]
pub struct SpanStats {
    /// Client call minus transport, by kind (codec still included).
    pub client_outside_transport: [Vec<f64>; 7],
    /// Transport (server) time of a write minus its blob-store and WAL
    /// file-system spans.
    pub write_cpu: [Vec<f64>; 7],
    pub blob_hit: Vec<f64>,
    pub blob_miss: Vec<f64>,
    pub blob_put: Vec<f64>,
    pub fs_sync: Vec<f64>,
    pub fs_write: Vec<f64>,
}

fn kind_of_root(name: &str) -> Option<Kind> {
    Kind::ALL.into_iter().find(|k| root_span_name(*k) == name)
}

/// Walk the spans once. `keep` picks the phase each kind is taken from.
pub fn span_stats(spans: &[Span], keep: &dyn Fn(Kind, bool) -> bool) -> SpanStats {
    let mut out = SpanStats::default();
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push(i as u32);
        }
    }
    // Root (kind) of every span, found through its parent chain; parents
    // always precede children in the sink.
    let mut root_kind: Vec<Option<Kind>> = Vec::with_capacity(spans.len());
    for s in spans {
        let k = if s.parent == NO_PARENT {
            kind_of_root(s.name)
        } else {
            root_kind[s.parent as usize]
        };
        root_kind.push(k);
    }
    for (i, s) in spans.iter().enumerate() {
        let Some(kind) = root_kind[i] else { continue };
        if !keep(kind, s.op & REFERENCE_PHASE != 0) {
            continue;
        }
        let dur = s.dur_ns() as f64;
        match s.name {
            "transport" => {
                let parent = &spans[s.parent as usize];
                out.client_outside_transport[kind.index()].push(parent.dur_ns() as f64 - dur);
                if kind.is_write() {
                    let covered: u64 = children[i]
                        .iter()
                        .map(|&c| &spans[c as usize])
                        .filter(|c| c.name == "blob.outer.put" || c.name.starts_with("fs.wal."))
                        .map(Span::dur_ns)
                        .sum();
                    out.write_cpu[kind.index()].push(dur - covered as f64);
                }
            }
            "blob.outer.get" => {
                let missed = children[i]
                    .iter()
                    .any(|&c| spans[c as usize].name == "blob.inner.get");
                if missed {
                    &mut out.blob_miss
                } else {
                    &mut out.blob_hit
                }
                .push(dur);
            }
            "blob.outer.put" => out.blob_put.push(dur),
            "fs.wal.sync" | "fs.blob.sync" => out.fs_sync.push(dur),
            "fs.wal.write" | "fs.blob.write" => out.fs_write.push(dur),
            _ => {}
        }
    }
    out
}

pub fn median_us(ns: &[f64]) -> (f64, usize) {
    (median_f64(ns).map_or(0.0, |v| v / 1e3), ns.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, op: u32, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            op,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn span_stats_split_hits_misses_and_write_cpu() {
        let spans = vec![
            // An upload: 100 total, transport 90, blob put 40 (fs inside), WAL write+sync 10+5.
            span("client.upload", 1, NO_PARENT, 0, 100),
            span("transport", 1, 0, 5, 95),
            span("blob.outer.put", 1, 1, 10, 50),
            span("blob.inner.put", 1, 2, 12, 48),
            span("fs.blob.sync", 1, 3, 20, 23),
            span("fs.wal.write", 1, 1, 60, 70),
            span("fs.wal.sync", 1, 1, 70, 75),
            // A blob hit and a blob miss.
            span("client.blob", 2, NO_PARENT, 200, 230),
            span("transport", 2, 7, 202, 228),
            span("blob.outer.get", 2, 8, 205, 215),
            span("client.blob", 3 | REFERENCE_PHASE, NO_PARENT, 300, 400),
            span("transport", 3 | REFERENCE_PHASE, 10, 305, 395),
            span("blob.outer.get", 3 | REFERENCE_PHASE, 11, 310, 390),
            span("blob.inner.get", 3 | REFERENCE_PHASE, 12, 315, 385),
        ];
        let all = span_stats(&spans, &|_, _| true);
        assert_eq!(
            all.write_cpu[Kind::Upload.index()],
            vec![90.0 - 40.0 - 10.0 - 5.0]
        );
        assert_eq!(
            all.client_outside_transport[Kind::Upload.index()],
            vec![10.0]
        );
        assert_eq!(all.blob_put, vec![40.0]);
        assert_eq!(all.blob_hit, vec![10.0]);
        assert_eq!(all.blob_miss, vec![80.0]);
        assert_eq!(all.fs_sync, vec![3.0, 5.0]);
        assert_eq!(all.fs_write, vec![10.0]);
        let main_only = span_stats(&spans, &|_, reference| !reference);
        assert_eq!(main_only.blob_miss, Vec::<f64>::new());
        assert_eq!(main_only.blob_hit, vec![10.0]);
    }

    #[test]
    fn sampling_rates_follow_the_kind() {
        assert_eq!(sample_every(Kind::Get), 50);
        assert_eq!(sample_every(Kind::Join), 5);
        assert_eq!(kind_of_root("client.latest"), Some(Kind::Latest));
        assert_eq!(kind_of_root("transport"), None);
    }
}
