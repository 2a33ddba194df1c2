//! Inputs: the `fleet` dataset and the four workloads' operation lists,
//! all derived from `--seed`. The program under test only ever sees what
//! this module generates; nothing here calls into it.

use std::fmt::Write as _;

/// xoshiro256** seeded through splitmix64. Owned by the benchmark so that
/// the same seed gives the same inputs whatever the repository vendors.
#[derive(Clone)]
pub struct Rng([u64; 4]);

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// One independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03);
        Rng([
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
        ])
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-32 for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Sampler for a Zipf distribution over `0..n` with exponent `s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u32, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / f64::from(rank).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1) as u32
    }
}

/// CRC-32 (IEEE), eight bytes per step. The benchmark checks fetched
/// blobs with its own implementation, not the program's.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for i in 0..256u32 {
            let mut c = i;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            t[0][i as usize] = c;
        }
        for i in 0..256 {
            for k in 1..8 {
                t[k][i] = (t[k - 1][i] >> 8) ^ t[0][(t[k - 1][i] & 0xFF) as usize];
            }
        }
        t
    });
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// FNV-1a over 64-bit words: the fingerprint of an operation list.
#[derive(Clone, Copy)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }

    pub fn add(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Every size the benchmark uses. `fleet` is the dataset of ISSUE 12 cut
/// by one common factor so that the driver's run count fits its time cap;
/// `tiny` is the same shape at self-test size.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizes {
    pub models: u32,
    pub instances_per_model: u32,
    pub projects: u32,
    pub model_types: u32,
    pub cities: u32,
    /// Distinct `model_name` values; each is shared by `models / names`
    /// models, which sets the fan-out of the metric join.
    pub names: u32,
    pub blob_min: u32,
    pub blob_max: u32,
    pub cache_bytes: usize,
    /// `flush_index_deltas` is called after this many preload uploads.
    pub preload_flush_every: u32,
    pub rounds: u32,
    /// Samples every round must have beyond a reported percentile.
    pub min_beyond: usize,
    /// Per measured round: uploads in `ingest` (and thread W of `mixed`),
    /// each followed by 3 validation and 13 production metrics.
    pub ingest_uploads: u32,
    /// The same for thread W of `mixed`, which a reader slows down.
    pub mixed_uploads: u32,
    pub serve_ops: u32,
    pub search_ops: u32,
    /// The reference block every workload ends with (see `reference_round`).
    pub ref_rounds: u32,
    pub ref_uploads: u32,
    pub ref_reads: u32,
    pub ref_queries: u32,
    pub ref_joins: u32,
}

/// Metrics written per upload: 3 validation on the new instance, then 13
/// production on random existing instances.
pub const VALIDATION_PER_UPLOAD: u32 = 3;
pub const PRODUCTION_PER_UPLOAD: u32 = 13;
pub const VALIDATION_NAMES: [&str; 3] = ["bias", "mae", "r2"];
pub const PRODUCTION_NAMES: [&str; 4] = ["live_mae", "live_bias", "latency_ms", "drift"];
/// The metric the join filters on.
pub const JOIN_METRIC: &str = VALIDATION_NAMES[0];

impl Sizes {
    /// The `fleet` dataset at `dataset_scale`, with per-round operation
    /// counts sized so that ten measured rounds take about `seconds` on
    /// the 2-core sandbox. The counts are fixed work, never a duration: a
    /// faster program finishes sooner and reports higher rates.
    pub fn fleet(dataset_scale: f64, seconds: f64) -> Sizes {
        let d = |full: f64| (full * dataset_scale).round().max(1.0) as u32;
        let per_second = |ops: f64| (ops * seconds).round().max(1.0) as u32;
        Sizes {
            models: d(1000.0),
            instances_per_model: 8,
            projects: d(20.0),
            model_types: 5,
            cities: d(200.0),
            names: d(200.0),
            blob_min: 4 << 10,
            blob_max: 64 << 10,
            cache_bytes: ((32u64 << 20) as f64 * dataset_scale) as usize,
            preload_flush_every: 1000,
            rounds: 10,
            min_beyond: crate::stats::MIN_BEYOND,
            ingest_uploads: per_second(INGEST_UPLOADS_PER_ROUND_SECOND),
            mixed_uploads: per_second(MIXED_UPLOADS_PER_ROUND_SECOND),
            serve_ops: per_second(SERVE_OPS_PER_ROUND_SECOND),
            search_ops: per_second(SEARCH_OPS_PER_ROUND_SECOND),
            ref_rounds: 10,
            ref_uploads: 140,
            ref_reads: 1100,
            ref_queries: 1100,
            ref_joins: 40,
        }
    }

    /// Self-test size: the whole benchmark in well under five seconds.
    pub fn tiny() -> Sizes {
        Sizes {
            models: 20,
            instances_per_model: 4,
            projects: 2,
            model_types: 2,
            cities: 4,
            names: 4,
            blob_min: 256,
            blob_max: 2048,
            cache_bytes: 40 << 10,
            preload_flush_every: 30,
            rounds: 3,
            min_beyond: 0,
            ingest_uploads: 6,
            mixed_uploads: 6,
            serve_ops: 400,
            search_ops: 120,
            ref_rounds: 2,
            ref_uploads: 3,
            ref_reads: 60,
            ref_queries: 60,
            ref_joins: 6,
        }
    }

    pub fn fleet_instances(&self) -> u32 {
        self.models * self.instances_per_model
    }
}

/// Operations per measured round and per second of `--seconds`: what
/// makes a run of each workload take 19–30 s at `--seconds 10` on the
/// sandbox (README, "Running it"). `ingest` is the shortest because its
/// uploads also decide how long its recovery children take.
const INGEST_UPLOADS_PER_ROUND_SECOND: f64 = 40.0;
const MIXED_UPLOADS_PER_ROUND_SECOND: f64 = 50.0;
const SERVE_OPS_PER_ROUND_SECOND: f64 = 3000.0;
const SEARCH_OPS_PER_ROUND_SECOND: f64 = 160.0;

/// The seven operations whose latency the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Upload,
    Metric,
    Get,
    Latest,
    Blob,
    Query,
    Join,
}

impl Kind {
    pub const ALL: [Kind; 7] = [
        Kind::Upload,
        Kind::Metric,
        Kind::Get,
        Kind::Latest,
        Kind::Blob,
        Kind::Query,
        Kind::Join,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Upload => "upload",
            Kind::Metric => "metric",
            Kind::Get => "get",
            Kind::Latest => "latest",
            Kind::Blob => "blob",
            Kind::Query => "query",
            Kind::Join => "join",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn is_write(self) -> bool {
        matches!(self, Kind::Upload | Kind::Metric)
    }
}

/// Which instance a metric is written to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricTarget {
    /// The instance the preceding `Upload` created.
    New,
    /// An instance by ordinal (position in the shadow's instance table).
    Existing(u32),
}

/// One generated operation. Models, cities and so on are ordinals into
/// the dataset; the run resolves them to the ids the server assigned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    Upload {
        model: u32,
        city: u32,
        blob_len: u32,
    },
    Metric {
        target: MetricTarget,
        production: bool,
        name: u8,
        value: f64,
    },
    Get {
        inst: u32,
    },
    Latest {
        model: u32,
    },
    /// Fetch the blob of the model's latest instance (the hot set).
    BlobLatest {
        model: u32,
    },
    /// Fetch the blob of any instance (the cold set).
    BlobOf {
        inst: u32,
    },
    QueryCity {
        city: u32,
    },
    QueryProjectType {
        project: u32,
        model_type: u32,
    },
    QueryProject {
        project: u32,
    },
    QueryBase {
        model: u32,
    },
    Join {
        name: u32,
        threshold: f64,
    },
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Upload { .. } => Kind::Upload,
            Op::Metric { .. } => Kind::Metric,
            Op::Get { .. } => Kind::Get,
            Op::Latest { .. } => Kind::Latest,
            Op::BlobLatest { .. } | Op::BlobOf { .. } => Kind::Blob,
            Op::QueryCity { .. }
            | Op::QueryProjectType { .. }
            | Op::QueryProject { .. }
            | Op::QueryBase { .. } => Kind::Query,
            Op::Join { .. } => Kind::Join,
        }
    }

    fn fingerprint(&self, f: &mut Fingerprint) {
        let (tag, a, b, c): (u64, u64, u64, u64) = match *self {
            Op::Upload {
                model,
                city,
                blob_len,
            } => (1, model.into(), city.into(), blob_len.into()),
            Op::Metric {
                target,
                production,
                name,
                value,
            } => {
                let t = match target {
                    MetricTarget::New => u64::MAX,
                    MetricTarget::Existing(i) => i.into(),
                };
                (
                    2,
                    t,
                    u64::from(name) << 1 | u64::from(production),
                    value.to_bits(),
                )
            }
            Op::Get { inst } => (3, inst.into(), 0, 0),
            Op::Latest { model } => (4, model.into(), 0, 0),
            Op::BlobLatest { model } => (5, model.into(), 0, 0),
            Op::BlobOf { inst } => (6, inst.into(), 0, 0),
            Op::QueryCity { city } => (7, city.into(), 0, 0),
            Op::QueryProjectType {
                project,
                model_type,
            } => (8, project.into(), model_type.into(), 0),
            Op::QueryProject { project } => (9, project.into(), 0, 0),
            Op::QueryBase { model } => (10, model.into(), 0, 0),
            Op::Join { name, threshold } => (11, name.into(), threshold.to_bits(), 0),
        };
        for word in [tag, a, b, c] {
            f.add(word);
        }
    }
}

pub fn fingerprint(rounds: &[Vec<Op>]) -> u64 {
    let mut f = Fingerprint::new();
    for round in rounds {
        f.add(round.len() as u64);
        for op in round {
            op.fingerprint(&mut f);
        }
    }
    f.0
}

/// Static description of one model of the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    pub project: u32,
    pub model_type: u32,
    pub name: u32,
}

/// Static description of one preloaded instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceSpec {
    pub model: u32,
    pub city: u32,
    pub blob_len: u32,
    /// Values of the three validation metrics.
    pub validation: [f64; 3],
}

/// The `fleet` dataset: what set-up preloads.
pub struct Dataset {
    pub models: Vec<ModelSpec>,
    /// In upload order: round-robin over models, so a model's instances
    /// are spread through the preload as retrains would be.
    pub instances: Vec<InstanceSpec>,
}

pub fn project_name(i: u32) -> String {
    format!("project-{i:03}")
}
pub fn model_type_name(i: u32) -> String {
    format!("type-{i}")
}
pub fn city_name(i: u32) -> String {
    format!("city-{i:03}")
}
pub fn model_name(i: u32) -> String {
    format!("name-{i:03}")
}
pub fn base_version_id(model: u32) -> String {
    format!("fleet/model-{model:05}")
}

/// The instance metadata the paper's Listing 3 uploads: the three
/// canonical search keys.
pub fn instance_metadata_json(spec: &ModelSpec, city: u32) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(
        s,
        r#"{{"model_name":"{}","city":"{}","model_type":"{}"}}"#,
        model_name(spec.name),
        city_name(city),
        model_type_name(spec.model_type)
    );
    s
}

/// Log-uniform blob length in `[blob_min, blob_max]`.
fn blob_len(sizes: &Sizes, rng: &mut Rng) -> u32 {
    let (lo, hi) = (f64::from(sizes.blob_min), f64::from(sizes.blob_max));
    (lo * (hi / lo).powf(rng.unit())).round() as u32
}

/// Blob bytes: a PRNG stream keyed by `(seed, instance ordinal)`.
pub fn blob_bytes(seed: u64, ordinal: u32, len: u32) -> Vec<u8> {
    let mut rng = Rng::new(seed, 0xB10B_0000_0000 + u64::from(ordinal));
    let mut out = Vec::with_capacity(len as usize + 8);
    while out.len() < len as usize {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len as usize);
    out
}

const STREAM_DATASET: u64 = 1;
const STREAM_INGEST: u64 = 2;
const STREAM_SERVE: u64 = 3;
const STREAM_SEARCH: u64 = 4;
const STREAM_MIXED_READS: u64 = 5;
const STREAM_REFERENCE: u64 = 6;
const STREAM_BLOB_LENGTHS: u64 = 7;
const STREAM_UPLOAD_LENGTHS: u64 = 8;
const STREAM_WARMUP: u64 = 1 << 32;

pub fn dataset(sizes: &Sizes, seed: u64) -> Dataset {
    let mut rng = Rng::new(seed, STREAM_DATASET);
    let models: Vec<ModelSpec> = (0..sizes.models)
        .map(|m| ModelSpec {
            project: m % sizes.projects,
            model_type: (m / sizes.projects) % sizes.model_types,
            name: m % sizes.names,
        })
        .collect();
    // Two properties of the fleet are the same for every seed, because a
    // handful of values decides a reported median and would otherwise
    // make it differ from seed to seed by more than any code change:
    // every city holds the same number of instances (the seed only
    // rotates which), and blob lengths come from one fixed stream (three
    // in ten blob fetches go to the five hottest models' latest
    // instances, so a handful of lengths set `blob_ms_p50`).
    let city_shift = rng.below(sizes.cities);
    let mut length_rng = Rng::new(0, STREAM_BLOB_LENGTHS);
    let mut instances = Vec::with_capacity(sizes.fleet_instances() as usize);
    for round in 0..sizes.instances_per_model {
        for model in 0..sizes.models {
            instances.push(InstanceSpec {
                model,
                city: (model + 3 * round + city_shift) % sizes.cities,
                blob_len: blob_len(sizes, &mut length_rng),
                validation: [rng.unit(), rng.unit(), rng.unit()],
            });
        }
    }
    Dataset { models, instances }
}

/// The four workloads. Names are fixed: the driver passes them back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    Serve,
    Search,
    Mixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Ingest,
        Workload::Serve,
        Workload::Search,
        Workload::Mixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Serve => "serve",
            Workload::Search => "search",
            Workload::Mixed => "mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The operations this workload issues in bulk in its measured phase.
    /// Every other operation's latency comes from the reference block.
    pub fn native_kinds(self) -> &'static [Kind] {
        match self {
            Workload::Ingest => &[Kind::Upload, Kind::Metric],
            Workload::Serve => &[Kind::Get, Kind::Latest, Kind::Blob],
            Workload::Search => &[Kind::Query, Kind::Join],
            Workload::Mixed => &[Kind::Upload, Kind::Metric, Kind::Get, Kind::Latest],
        }
    }
}

/// Tracks how many instances exist while a write list is generated, so
/// that production metrics only target instances that will exist by then.
struct WriteGen<'a> {
    sizes: &'a Sizes,
    existing: u32,
    /// Upload lengths come from one fixed stream, like the preloaded
    /// ones: an upload costs what its blob weighs, and the median of a
    /// few hundred log-uniform lengths would otherwise move
    /// `upload_ms_p50` from seed to seed.
    lengths: Rng,
}

impl WriteGen<'_> {
    /// One upload to a uniformly chosen model, its 3 validation metrics,
    /// then 13 production metrics on random existing instances.
    fn upload_group(&mut self, rng: &mut Rng, out: &mut Vec<Op>) {
        let sizes = self.sizes;
        out.push(Op::Upload {
            model: rng.below(sizes.models),
            city: rng.below(sizes.cities),
            blob_len: blob_len(sizes, &mut self.lengths),
        });
        self.existing += 1;
        for name in 0..VALIDATION_PER_UPLOAD {
            out.push(Op::Metric {
                target: MetricTarget::New,
                production: false,
                name: name as u8,
                value: rng.unit(),
            });
        }
        for _ in 0..PRODUCTION_PER_UPLOAD {
            out.push(Op::Metric {
                target: MetricTarget::Existing(rng.below(self.existing)),
                production: true,
                name: rng.below(PRODUCTION_NAMES.len() as u32) as u8,
                value: rng.unit(),
            });
        }
    }
}

fn search_op(sizes: &Sizes, rng: &mut Rng, allow_join: bool) -> Op {
    // 50% city, 20% project+type, 10% project, 10% base version, 10% join.
    // Where joins are drawn separately the other four keep their ratio.
    let roll = rng.below(if allow_join { 100 } else { 90 });
    match roll {
        0..=49 => Op::QueryCity {
            city: rng.below(sizes.cities),
        },
        50..=69 => Op::QueryProjectType {
            project: rng.below(sizes.projects),
            model_type: rng.below(sizes.model_types),
        },
        70..=79 => Op::QueryProject {
            project: rng.below(sizes.projects),
        },
        80..=89 => Op::QueryBase {
            model: rng.below(sizes.models),
        },
        _ => join_op(sizes, rng),
    }
}

fn join_op(sizes: &Sizes, rng: &mut Rng) -> Op {
    Op::Join {
        name: rng.below(sizes.names),
        threshold: 0.2 + 0.6 * rng.unit(),
    }
}

/// `blob`: ¾ the Zipf-chosen model's latest instance (a hot set that fits
/// the cache), ¼ uniform over the preloaded fleet (which does not).
fn blob_op(sizes: &Sizes, zipf: &Zipf, rng: &mut Rng) -> Op {
    if rng.below(4) < 3 {
        Op::BlobLatest {
            model: zipf.sample(rng),
        }
    } else {
        Op::BlobOf {
            inst: rng.below(sizes.fleet_instances()),
        }
    }
}

/// The generated plan of one workload: what is run unmeasured to warm
/// up, what is measured, and the reference block.
pub struct Plan {
    pub warmup: Vec<Op>,
    /// Measured rounds of the single client (thread W on `mixed`).
    pub rounds: Vec<Vec<Op>>,
    /// `mixed` only: the read blend thread R cycles through.
    pub reader_loop: Vec<Op>,
    /// Reference block, read half: run right after set-up.
    pub reference_reads: Vec<Vec<Op>>,
    /// Reference block, write half: run after the measured rounds.
    pub reference_writes: Vec<Vec<Op>>,
}

impl Plan {
    /// Fingerprint of every generated operation, for the repeatability
    /// self-test.
    pub fn fingerprint(&self) -> u64 {
        let mut f = Fingerprint::new();
        f.add(fingerprint(std::slice::from_ref(&self.warmup)));
        f.add(fingerprint(&self.rounds));
        f.add(fingerprint(std::slice::from_ref(&self.reader_loop)));
        f.add(fingerprint(&self.reference_reads));
        f.add(fingerprint(&self.reference_writes));
        f.0
    }
}

fn write_rounds(uploads: u32, rng: &mut Rng, gen: &mut WriteGen, rounds: u32) -> Vec<Vec<Op>> {
    (0..rounds)
        .map(|_| {
            let mut ops = Vec::new();
            for _ in 0..uploads {
                gen.upload_group(rng, &mut ops);
            }
            ops
        })
        .collect()
}

fn serve_round(sizes: &Sizes, zipf: &Zipf, rng: &mut Rng) -> Vec<Op> {
    (0..sizes.serve_ops)
        .map(|_| match rng.below(10) {
            0..=3 => Op::Latest {
                model: zipf.sample(rng),
            },
            4..=7 => blob_op(sizes, zipf, rng),
            _ => Op::Get {
                inst: rng.below(sizes.fleet_instances()),
            },
        })
        .collect()
}

fn search_round(sizes: &Sizes, rng: &mut Rng) -> Vec<Op> {
    (0..sizes.search_ops)
        .map(|_| search_op(sizes, rng, true))
        .collect()
}

/// Length of the list thread R cycles through. The writer's phase does
/// not end before R has been through it once.
const READER_LOOP_OPS: u32 = 500;

/// Thread R of `mixed`: 35% latest, 35% blob, 10% get, 20% query.
///
/// ISSUE 12 gave 2% of the blend to the metric join. Over the writer's
/// unindexed `metrics` tail a join takes 130–200 ms (on a quiet store:
/// 0.5 ms), and each of its 41 store queries holds every stripe of the
/// table the writer inserts into. Those 2% were 80% of the reader's time
/// and throttled the writer a hundredfold while they ran, so the
/// workload's throughput depended on how often the two happened to meet:
/// `ops_per_s` ranged 3× between identical runs. The join's share went to
/// the plain searches; `join_ms_p50` on `mixed` comes from the reference
/// block.
fn mixed_reader_loop(sizes: &Sizes, zipf: &Zipf, rng: &mut Rng) -> Vec<Op> {
    (0..READER_LOOP_OPS)
        .map(|_| match rng.below(100) {
            0..=34 => Op::Latest {
                model: zipf.sample(rng),
            },
            35..=69 => blob_op(sizes, zipf, rng),
            70..=79 => Op::Get {
                inst: rng.below(sizes.fleet_instances()),
            },
            _ => search_op(sizes, rng, false),
        })
        .collect()
}

/// The reference block: the same fixed work in every workload, on a
/// state with no unindexed tail. It is where a workload's latencies for
/// operations outside its own mix come from, so those compare across
/// workloads and move only when the operation itself changes. The read
/// half runs right after set-up, on exactly the preloaded fleet; the
/// write half runs after the measured rounds, once their index deltas
/// have been applied. Each kind comes in bulk enough for a median, and
/// for a p99 of the three operations that report one.
fn reference_write_rounds(sizes: &Sizes, rng: &mut Rng, gen: &mut WriteGen) -> Vec<Vec<Op>> {
    write_rounds(sizes.ref_uploads, rng, gen, sizes.ref_rounds)
}

fn reference_read_round(sizes: &Sizes, zipf: &Zipf, rng: &mut Rng) -> Vec<Op> {
    let mut ops = Vec::new();
    for _ in 0..sizes.ref_reads {
        ops.push(Op::Get {
            inst: rng.below(sizes.fleet_instances()),
        });
    }
    for _ in 0..sizes.ref_reads {
        ops.push(Op::Latest {
            model: zipf.sample(rng),
        });
    }
    for _ in 0..sizes.ref_reads {
        ops.push(blob_op(sizes, zipf, rng));
    }
    for _ in 0..sizes.ref_queries {
        ops.push(search_op(sizes, rng, false));
    }
    for _ in 0..sizes.ref_joins {
        ops.push(join_op(sizes, rng));
    }
    // Shuffled, so that every kind's samples are spread over the whole
    // round and a disturbance of a few milliseconds cannot land on all
    // the samples of one kind.
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.below(i as u32 + 1) as usize);
    }
    ops
}

pub fn plan(workload: Workload, sizes: &Sizes, seed: u64) -> Plan {
    let zipf = Zipf::new(sizes.models, 0.99);
    let mut gen = WriteGen {
        sizes,
        existing: sizes.fleet_instances(),
        lengths: Rng::new(0, STREAM_UPLOAD_LENGTHS),
    };
    let (warmup, rounds, reader_loop) = match workload {
        Workload::Ingest | Workload::Mixed => {
            let uploads = if workload == Workload::Mixed {
                sizes.mixed_uploads
            } else {
                sizes.ingest_uploads
            };
            let mut warm_rng = Rng::new(seed, STREAM_INGEST | STREAM_WARMUP);
            let warmup = write_rounds(uploads, &mut warm_rng, &mut gen, 1).remove(0);
            let mut rng = Rng::new(seed, STREAM_INGEST);
            let rounds = write_rounds(uploads, &mut rng, &mut gen, sizes.rounds);
            let reader_loop = if workload == Workload::Mixed {
                mixed_reader_loop(sizes, &zipf, &mut Rng::new(seed, STREAM_MIXED_READS))
            } else {
                Vec::new()
            };
            (warmup, rounds, reader_loop)
        }
        Workload::Serve => {
            let warmup = serve_round(
                sizes,
                &zipf,
                &mut Rng::new(seed, STREAM_SERVE | STREAM_WARMUP),
            );
            let mut rng = Rng::new(seed, STREAM_SERVE);
            let rounds = (0..sizes.rounds)
                .map(|_| serve_round(sizes, &zipf, &mut rng))
                .collect();
            (warmup, rounds, Vec::new())
        }
        Workload::Search => {
            let warmup = search_round(sizes, &mut Rng::new(seed, STREAM_SEARCH | STREAM_WARMUP));
            let mut rng = Rng::new(seed, STREAM_SEARCH);
            let rounds = (0..sizes.rounds)
                .map(|_| search_round(sizes, &mut rng))
                .collect();
            (warmup, rounds, Vec::new())
        }
    };
    let mut rng = Rng::new(seed, STREAM_REFERENCE);
    let reference_reads = (0..sizes.ref_rounds)
        .map(|_| reference_read_round(sizes, &zipf, &mut rng))
        .collect();
    let reference_writes = reference_write_rounds(sizes, &mut rng, &mut gen);
    Plan {
        warmup,
        rounds,
        reader_loop,
        reference_reads,
        reference_writes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Lengths around the 8-byte stride agree with the bytewise tail.
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let bytewise = |d: &[u8]| {
            let mut crc = !0u32;
            for &b in d {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        0xEDB8_8320 ^ (crc >> 1)
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        };
        for len in [1, 7, 8, 9, 15, 16, 17, 999, 1000] {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        let sizes = Sizes::tiny();
        for w in Workload::ALL {
            let a = plan(w, &sizes, 7).fingerprint();
            assert_eq!(a, plan(w, &sizes, 7).fingerprint(), "{w:?}");
            assert_ne!(a, plan(w, &sizes, 8).fingerprint(), "{w:?}");
        }
        assert_eq!(dataset(&sizes, 7).instances, dataset(&sizes, 7).instances);
        assert_ne!(dataset(&sizes, 7).instances, dataset(&sizes, 8).instances);
        assert_eq!(blob_bytes(7, 3, 100), blob_bytes(7, 3, 100));
        assert_ne!(blob_bytes(7, 3, 100), blob_bytes(7, 4, 100));
        assert_eq!(blob_bytes(7, 3, 101).len(), 101);
    }

    #[test]
    fn mixes_match_the_issue() {
        let sizes = Sizes::fleet(0.25, 10.0);
        let share = |ops: &[Op], kind: Kind| {
            ops.iter().filter(|o| o.kind() == kind).count() as f64 / ops.len() as f64
        };
        let serve = plan(Workload::Serve, &sizes, 1);
        let all: Vec<Op> = serve.rounds.concat();
        assert!((share(&all, Kind::Latest) - 0.4).abs() < 0.01);
        assert!((share(&all, Kind::Blob) - 0.4).abs() < 0.01);
        assert!((share(&all, Kind::Get) - 0.2).abs() < 0.01);
        let search = plan(Workload::Search, &sizes, 1);
        let all: Vec<Op> = search.rounds.concat();
        assert!((share(&all, Kind::Join) - 0.1).abs() < 0.01);
        let ingest = plan(Workload::Ingest, &sizes, 1);
        let round = &ingest.rounds[0];
        assert_eq!(round.len() as u32, sizes.ingest_uploads * 17);
        assert_eq!(share(round, Kind::Upload), 1.0 / 17.0);
        let mixed = plan(Workload::Mixed, &sizes, 1);
        assert!((share(&mixed.reader_loop, Kind::Latest) - 0.35).abs() < 0.02);
        assert!((share(&mixed.reader_loop, Kind::Query) - 0.20).abs() < 0.04);
        assert_eq!(share(&mixed.reader_loop, Kind::Join), 0.0);
    }

    #[test]
    fn production_metrics_only_target_instances_that_exist() {
        let sizes = Sizes::tiny();
        let p = plan(Workload::Ingest, &sizes, 3);
        let mut existing = sizes.fleet_instances();
        for op in p
            .warmup
            .iter()
            .chain(p.rounds.iter().flatten())
            .chain(p.reference_writes.iter().flatten())
        {
            match op {
                Op::Upload { .. } => existing += 1,
                Op::Metric {
                    target: MetricTarget::Existing(i),
                    ..
                } => assert!(*i < existing),
                _ => {}
            }
        }
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let z = Zipf::new(100, 0.99);
        let mut rng = Rng::new(1, 1);
        let mut hits = [0u32; 100];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng) as usize] += 1;
        }
        assert!(hits[0] > hits[9] && hits[9] > hits[99]);
        assert!(hits[0] > 3000 && hits[0] < 5000);
    }
}
