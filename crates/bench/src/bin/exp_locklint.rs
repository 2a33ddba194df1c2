//! E22 — the lock-rank analyzer: false-positive floor, seeded
//! concurrency-mutation corpus, and the checking-overhead budget.
//!
//! The rule-language analyzer got its measurement in E18; this is the
//! same methodology pointed at the concurrency layer. Three parts, all
//! gating:
//!
//! 1. **Clean floor.** The real tree must be silent: a multi-threaded
//!    store soak (concurrent inserts + shaped queries against the WAL
//!    write path, an ordered index's latest-of-X read among them) and a
//!    kill-a-node cluster failover drill both run with rank checking
//!    enabled, and the resulting lock report must carry zero `GLnnnn`
//!    diagnostics, with `OrderedIndex` among the ranks its graph reaches.
//!    A detector that cries wolf on the committed tree is worse than no
//!    detector.
//!
//! 2. **Mutation detection.** A bank of seeded mutation operators models
//!    the concurrency mistakes the rank table exists to prevent — stripe
//!    pairs taken high-before-low, a multi-stripe set acquired unsorted
//!    (the bug dropping the `StripeSetToken` sort would introduce), a
//!    `ShardMap` write taken under a stripe, a foreign lock held across
//!    the WAL fsync, a condvar wait parked while holding the oplog, an
//!    undeclared rank, and opposite acquisition orders across calls.
//!    Every operator maps to the specific `GL` code the catalog promises
//!    for it, the detector must catch **100%** of each operator's
//!    mutants with that exact code, and the overall catch rate is
//!    asserted against the same ≥90% floor E18 uses.
//!
//! 3. **Overhead.** The store soak is re-run against a *durable* store —
//!    WAL appends with `SyncPolicy::Always` group-commit fsyncs, the
//!    write path the debug/test builds (checking permanently on) actually
//!    drive — timed with checking disabled vs enabled, interleaved
//!    best-of-15 exactly as E21's introspection gate; the enabled run
//!    must cost under 5%. (Release builds that never call
//!    [`checker::enable`] pay only a relaxed atomic load per acquisition
//!    — this measures the worst case, checking *on*.)
//!
//! Emits `BENCH_exp_locklint.json`; `--smoke` shrinks the workloads for
//! CI.

use gallery_bench::{arr, banner, obj, write_bench_json, TextTable};
use gallery_core::sync::checker;
use gallery_core::sync::locks::{OrderedCondvar, OrderedMutex, OrderedRwLock};
use gallery_core::sync::rank;
use gallery_core::sync::{codes, io_section, Rank};
use gallery_core::ManualClock;
use gallery_service::telemetry::Telemetry;
use gallery_service::{run_drill, ClusterConfig, DrillPlan, SimCluster};
use gallery_store::wal::SyncPolicy;
use gallery_store::{
    ColumnDef, Constraint, MetadataStore, Query, Record, TableSchema, Value, ValueType,
};
use serde::Content;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tiny deterministic LCG so mutant shapes vary without `rand`.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() as usize) % n.max(1)
    }
}

// ---------------------------------------------------------------------------
// Part 1 — clean floor
// ---------------------------------------------------------------------------

fn schema(table: &str) -> TableSchema {
    TableSchema::new(
        table,
        "id",
        vec![
            ColumnDef::new("id", ValueType::Str),
            ColumnDef::new("model_name", ValueType::Str).hash_indexed(),
            ColumnDef::new("city", ValueType::Str).hash_indexed(),
            ColumnDef::new("mape", ValueType::Float).btree_indexed(),
            ColumnDef::new("payload", ValueType::Str),
            ColumnDef::new("model_id", ValueType::Str),
            ColumnDef::new("created", ValueType::Timestamp),
        ],
    )
    .and_then(|s| s.ordered_by("model_id", "created"))
    .expect("static schema")
}

/// `payload` models the serialized feature/config blob a metadata record
/// carries in practice; the overhead soak uses 1 KiB so the denominator
/// reflects realistic per-insert WAL work, the clean floor uses "".
fn record_for(t: usize, i: usize, payload: &str) -> Record {
    Record::new()
        .set("id", format!("inst-{t}-{i:06}"))
        .set("model_name", ["ridge", "ewma", "seasonal"][i % 3])
        .set("city", format!("city_{:03}", i % 64))
        .set("mape", Value::Float((i % 1000) as f64 / 1000.0))
        .set("payload", payload)
        .set("model_id", format!("model_{:02}", i % 16))
        .set("created", Value::Timestamp(i as i64))
}

/// The store soak: `threads` workers each insert `rows` records into a
/// shared table, then run point gets and shaped queries. Hits stripes,
/// catalog, gate, the group-commit queue, and the WAL — the full rank
/// chain the checker watches.
fn store_soak(store: &Arc<MetadataStore>, table: &str, threads: usize, rows: usize, payload: &str) {
    store.create_table(schema(table)).expect("create table");
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let store = Arc::clone(store);
            let table = table.to_string();
            let payload = payload.to_string();
            std::thread::spawn(move || {
                for i in 0..rows {
                    store
                        .insert(&table, record_for(t, i, &payload))
                        .expect("insert");
                }
                for i in 0..rows / 4 {
                    store.get(&table, &format!("inst-{t}-{i:06}")).expect("get");
                }
                store
                    .query(
                        &table,
                        &Query::all().and(Constraint::eq("city", "city_007")),
                    )
                    .expect("query");
                let latest = Query::all()
                    .and(Constraint::eq("model_id", "model_07"))
                    .order_by("created", true)
                    .limit(1);
                store.query(&table, &latest).expect("latest");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("soak thread");
    }
}

/// Part 1: the committed tree produces zero diagnostics under load.
fn run_clean_floor(threads: usize, rows: usize, drill_writes: usize) -> (u64, usize) {
    checker::enable();
    checker::reset();

    let store = Arc::new(MetadataStore::in_memory());
    store_soak(&store, "soak", threads, rows, "");

    let clock = ManualClock::new(0);
    let cluster = SimCluster::start_with(
        ClusterConfig::new(3)
            .with_shards(6)
            .with_replication(2)
            .with_follower_reads(true, 0),
        Arc::new(clock.clone()),
        Telemetry::new(),
    );
    let plan = DrillPlan::kill_one(1, drill_writes, 1);
    let drill = run_drill(&cluster, &clock, &plan);
    assert!(drill.holds(), "failover drill invariants must hold");

    let report = checker::report();
    assert!(
        report.is_clean(),
        "clean tree must produce zero lock diagnostics:\n{}",
        report.render_text()
    );
    // Taken under a stripe by every insert and by every latest-of-X read.
    let ordered = rank::ORDERED_INDEX.label();
    assert!(
        report.edges.iter().any(|e| e.to == ordered),
        "the clean floor never acquired {ordered} under another lock"
    );
    println!(
        "✓ clean floor: {} acquisitions, {} edges, zero diagnostics \
         ({threads}×{rows}-row soak + {drill_writes}-write failover drill)\n",
        report.acquisitions,
        report.edges.len(),
    );
    (report.acquisitions, report.edges.len())
}

// ---------------------------------------------------------------------------
// Part 2 — seeded mutation corpus
// ---------------------------------------------------------------------------

/// `(operator, expected GL code)` — every operator maps to the exact
/// diagnostic the catalog promises for its bug class.
const OPERATORS: &[(&str, &str)] = &[
    ("swap-stripe-order", codes::INVERSION),
    ("unsorted-stripe-set", codes::INVERSION),
    ("shardmap-write-under-stripe", codes::INVERSION),
    ("foreign-lock-across-fsync", codes::HELD_ACROSS_FSYNC),
    ("condvar-wait-holding-oplog", codes::WAIT_HOLDING_FOREIGN),
    ("undeclared-rank", codes::UNDECLARED),
    ("opposite-order-cycle", codes::CYCLE),
];

/// Rank levels not in [`rank::DECLARED`] — the undeclared-rank operator
/// draws from these.
const ROGUE_LEVELS: &[u32] = &[15, 25, 33, 44, 66, 99, 101, 115, 130, 250];

/// Locks with no business spanning an fsync — the foreign-lock operator
/// draws from these (stripes, catalog, gate, ship, and WAL are allowed).
const FSYNC_FOREIGN: &[Rank] = &[
    rank::IDEMPOTENCY,
    rank::COMMIT_QUEUE,
    rank::BREAKER,
    rank::PROGRESS,
];

/// Execute one seeded mutant: an acquisition sequence modelling the bug,
/// built from the same wrappers and rank constants production code uses.
fn run_mutant(op: &str, rng: &mut Lcg) {
    match op {
        "swap-stripe-order" => {
            let hi = 1 + rng.pick(rank::MAX_STRIPE_INDEX as usize);
            let lo = rng.pick(hi);
            let a = OrderedMutex::new(rank::stripe(hi), ());
            let b = OrderedMutex::new(rank::stripe(lo), ());
            let _ga = a.lock();
            let _gb = b.lock();
        }
        "unsorted-stripe-set" => {
            // A write-set of stripes acquired in arrival order instead of
            // the StripeSetToken's sorted order: seeded shuffle, forced to
            // contain at least one descent.
            let k = 3 + rng.pick(4);
            let mut indices: Vec<usize> = Vec::new();
            while indices.len() < k {
                let i = rng.pick(rank::MAX_STRIPE_INDEX as usize + 1);
                if !indices.contains(&i) {
                    indices.push(i);
                }
            }
            if indices.windows(2).all(|w| w[0] < w[1]) {
                indices.reverse();
            }
            let locks: Vec<OrderedMutex<()>> = indices
                .iter()
                .map(|&i| OrderedMutex::new(rank::stripe(i), ()))
                .collect();
            let _guards: Vec<_> = locks.iter().map(|l| l.lock()).collect();
        }
        "shardmap-write-under-stripe" => {
            let stripe = OrderedMutex::new(rank::stripe(rng.pick(64)), ());
            let map = OrderedRwLock::new(rank::SHARD_MAP, ());
            let _gs = stripe.lock();
            let _gm = map.write();
        }
        "foreign-lock-across-fsync" => {
            let foreign = FSYNC_FOREIGN[rng.pick(FSYNC_FOREIGN.len())];
            let lock = OrderedMutex::new(foreign, ());
            let _g = lock.lock();
            io_section("wal.fsync", || {});
        }
        "condvar-wait-holding-oplog" => {
            let queue = OrderedMutex::new(rank::COMMIT_QUEUE, ());
            let oplog = OrderedMutex::new(rank::OPLOG, ());
            let cv = OrderedCondvar::new();
            let gq = queue.lock();
            let _go = oplog.lock();
            let (gq, _timed_out) = cv.wait_timeout(gq, Duration::from_millis(1));
            drop(gq);
        }
        "undeclared-rank" => {
            let level = ROGUE_LEVELS[rng.pick(ROGUE_LEVELS.len())];
            let rogue = OrderedMutex::new(Rank::new(level, "Rogue"), ());
            drop(rogue.lock());
        }
        "opposite-order-cycle" => {
            let pairs: &[(Rank, Rank)] = &[
                (rank::WAL, rank::OPLOG),
                (rank::GATE, rank::CATALOG),
                (rank::SHIP_LOCK, rank::CATALOG),
                (rank::BLOB_CACHE, rank::BLOB_STORE),
            ];
            let (lo, hi) = pairs[rng.pick(pairs.len())];
            let a = OrderedMutex::new(lo, ());
            let b = OrderedMutex::new(hi, ());
            {
                let _ga = a.lock();
                let _gb = b.lock();
            }
            {
                let _gb = b.lock();
                let _ga = a.lock();
            }
        }
        other => unreachable!("unknown operator {other}"),
    }
}

/// Part 2: every mutant must be flagged with its promised code.
fn run_mutation_detection(seeds: u64) -> Vec<(String, usize, usize)> {
    let mut table = TextTable::new(&["operator", "expected", "mutants", "caught", "rate"]);
    let mut rows = Vec::new();
    let mut total = 0usize;
    let mut total_caught = 0usize;
    for (op_idx, (op, expected)) in OPERATORS.iter().enumerate() {
        let mut caught = 0usize;
        let mut mutants = 0usize;
        for seed in 0..seeds {
            let mut rng = Lcg(1 + seed * 1000 + op_idx as u64 * 100);
            checker::reset();
            run_mutant(op, &mut rng);
            let report = checker::report();
            mutants += 1;
            if report.codes().contains(expected) {
                caught += 1;
            } else {
                eprintln!(
                    "MISS: {op} seed {seed} expected {expected}, got {:?}\n{}",
                    report.codes(),
                    report.render_text()
                );
            }
        }
        assert_eq!(
            caught, mutants,
            "operator {op} must be fully caught with {expected}"
        );
        let rate = caught as f64 / mutants.max(1) as f64;
        table.add_row(vec![
            op.to_string(),
            expected.to_string(),
            mutants.to_string(),
            caught.to_string(),
            format!("{:.1}%", rate * 100.0),
        ]);
        rows.push((op.to_string(), mutants, caught));
        total += mutants;
        total_caught += caught;
    }
    let overall = total_caught as f64 / total.max(1) as f64;
    table.add_row(vec![
        "overall".into(),
        "-".into(),
        total.to_string(),
        total_caught.to_string(),
        format!("{:.1}%", overall * 100.0),
    ]);
    println!("{}", table.render());
    assert!(
        overall >= 0.90,
        "catch rate {overall:.3} fell below the 90% floor"
    );
    // Mutants never leak into later parts.
    checker::reset();
    assert!(checker::report().is_clean(), "reset clears diagnostics");
    println!(
        "✓ mutation catch rate {:.1}% (floor: 90%, every operator 100%)\n",
        overall * 100.0
    );
    rows
}

// ---------------------------------------------------------------------------
// Part 3 — overhead budget
// ---------------------------------------------------------------------------

fn measure_overhead(threads: usize, rows: usize) -> (f64, f64, f64) {
    let repeats = 15;
    let scratch = std::env::temp_dir().join(format!("exp-locklint-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let payload = "x".repeat(1024);
    let mut iteration = 0usize;
    let mut timed = |checking: bool| -> f64 {
        if checking {
            checker::enable();
        } else {
            checker::disable();
        }
        checker::reset();
        iteration += 1;
        // The durable write path — WAL appends + group-commit fsync —
        // is what debug/test builds run with checking permanently on,
        // so it is the denominator the 5% budget is defined over.
        let wal = scratch.join(format!("wal-{iteration}.log"));
        let store =
            Arc::new(MetadataStore::durable(&wal, SyncPolicy::Always).expect("durable store"));
        let table = format!("t{iteration}");
        let t0 = Instant::now();
        store_soak(&store, &table, threads, rows, &payload);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        // Leave the scratch dir exactly as found: a growing directory
        // slows later fsyncs, which would bias whichever side runs later.
        drop(store);
        std::fs::remove_file(&wal).ok();
        ms
    };
    timed(false);
    timed(true);
    // The fsync-bound floor drifts with ambient disk speed, so the two
    // sides are compared *within* each adjacent pair (shared drift
    // divides out of the ratio) and the gate statistic is the median
    // pair ratio — one lucky run of either side cannot move it, unlike
    // independent best-of minima.
    let mut ratios = Vec::with_capacity(repeats);
    let mut disabled_ms = f64::INFINITY;
    let mut enabled_ms = f64::INFINITY;
    for pair in 0..repeats {
        // Alternate which side runs first so monotonic machine drift
        // (page-cache state, background load) cancels instead of always
        // penalizing the checked run.
        let (off, on) = if pair % 2 == 0 {
            let off = timed(false);
            (off, timed(true))
        } else {
            let on = timed(true);
            (timed(false), on)
        };
        disabled_ms = disabled_ms.min(off);
        enabled_ms = enabled_ms.min(on);
        ratios.push(on / off);
    }
    checker::reset();
    checker::reset_mode();
    std::fs::remove_dir_all(&scratch).ok();
    ratios.sort_by(f64::total_cmp);
    let overhead = (ratios[ratios.len() / 2] - 1.0) * 100.0;

    let mut table = TextTable::new(&["checking", "best-of-15 ms"]);
    table.add_row(vec!["off".into(), format!("{disabled_ms:.2}")]);
    table.add_row(vec!["on".into(), format!("{enabled_ms:.2}")]);
    println!("{}", table.render());
    println!(
        "rank-checking overhead: {overhead:+.2}% \
         (median of {repeats} paired ratios, {threads}×{rows}-row soak per run)"
    );
    (disabled_ms, enabled_ms, overhead)
}

/// Part 3: checking must cost under 5% on the write path. As in E21, one
/// re-measurement is allowed before failing — genuine overhead
/// reproduces, scheduler interference does not.
fn run_overhead(threads: usize, rows: usize) -> (f64, f64, f64) {
    let mut best = measure_overhead(threads, rows);
    if best.2 >= 5.0 {
        println!("overhead above budget — re-measuring once to reject scheduler interference");
        let second = measure_overhead(threads, rows);
        if second.2 < best.2 {
            best = second;
        }
    }
    let (_, _, overhead) = best;
    if overhead >= 5.0 {
        eprintln!("GATE FAILED: rank checking must cost <5%, measured {overhead:.2}%");
        std::process::exit(1);
    }
    println!("✓ overhead under the 5% budget\n");
    best
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(
        "E22: lock-rank analyzer — clean floor, mutation corpus, overhead",
        "concurrency-correctness gates over the ordered-lock layer",
    );

    let (threads, rows) = if smoke { (4, 1_500) } else { (4, 8_000) };
    let overhead_rows = if smoke { 500 } else { 2_000 };
    let drill_writes = if smoke { 60 } else { 300 };
    let seeds = if smoke { 3 } else { 8 };

    println!("part 1: clean floor ({threads}×{rows}-row soak + failover drill, checking on)");
    let (acquisitions, edges) = run_clean_floor(threads, rows, drill_writes);

    println!("part 2: seeded concurrency-mutation corpus ({seeds} seeds per operator)");
    let mutant_rows = run_mutation_detection(seeds);

    println!("part 3: checking overhead on the durable (fsync) write path");
    let (disabled_ms, enabled_ms, overhead) = run_overhead(threads, overhead_rows);

    let mutants_json = mutant_rows
        .iter()
        .map(|(op, mutants, caught)| {
            obj(vec![
                ("operator", Content::Str(op.clone())),
                ("mutants", Content::U64(*mutants as u64)),
                ("caught", Content::U64(*caught as u64)),
            ])
        })
        .collect();
    let results = obj(vec![
        ("smoke", Content::Bool(smoke)),
        (
            "clean_floor",
            obj(vec![
                ("acquisitions", Content::U64(acquisitions)),
                ("edges", Content::U64(edges as u64)),
                ("diagnostics", Content::U64(0)),
            ]),
        ),
        ("mutants", arr(mutants_json)),
        (
            "overhead",
            obj(vec![
                ("soak_rows", Content::U64(overhead_rows as u64)),
                ("disabled_ms", Content::F64(disabled_ms)),
                ("enabled_ms", Content::F64(enabled_ms)),
                ("overhead_pct", Content::F64(overhead)),
                ("budget_pct", Content::F64(5.0)),
            ]),
        ),
    ]);
    match write_bench_json("E22", "exp_locklint", results) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_exp_locklint.json: {e}"),
    }
    println!("E22 ✓ all lock-lint criteria hold");
}
