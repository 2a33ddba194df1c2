//! `gallery` — a command-line client over a durable, file-backed Gallery.
//!
//! State lives in a data directory (default `./gallery-data`): metadata in
//! a WAL-backed store, blobs in a content-sharded directory. Every
//! invocation opens the store, applies one operation, and exits — the
//! paper's stateless-service property at CLI scale.
//!
//! ```text
//! gallery [--data DIR] [--retries N] [--timeout-ms MS] COMMAND ...
//!
//! commands:
//!   create-model PROJECT BASE_ID [--name N] [--owner O] [--desc D]
//!   models [--project P]
//!   upload MODEL_ID BLOB_FILE [--meta key=value]...
//!   instances MODEL_ID | base BASE_ID
//!   fetch INSTANCE_ID OUT_FILE
//!   metric INSTANCE_ID NAME SCOPE VALUE
//!   metrics INSTANCE_ID
//!   query [key=value|key<value|key>value]...
//!   deploy MODEL_ID INSTANCE_ID ENV
//!   deployed MODEL_ID ENV
//!   dep-add MODEL_ID UPSTREAM_ID | dep-rm MODEL_ID UPSTREAM_ID
//!   deps MODEL_ID
//!   deprecate (model|instance) ID
//!   stage INSTANCE_ID [NEW_STAGE]
//!   health INSTANCE_ID
//!   monitor INSTANCE_ID [--window-ms W] [--mean M] [--std S] [--z Z]
//!   alerts INSTANCE_ID EXPR [--for-ms F] [--action NAME] [--env ENV]
//!           [monitor flags]
//!   audit [--repair]
//!   compact
//!   wal-dump
//!   stats [--probe]
//!   stats --cluster [--nodes N] [--shards S] [--replication R] [--writes W]
//!   explain TABLE [key=value|key<value|key>value]...
//!   slowlog [--probe]
//!   profile [--collapsed] [--probe]
//!   lint RULES_FILE | lint --expr EXPR
//!   lockgraph [--dot]
//!   cluster [--nodes N] [--shards S] [--replication R] [--writes W]
//!           [--kill NODE] [--seed SEED]
//! ```
//!
//! `monitor` replays the instance's stored production metrics through a
//! sliding-window [`ModelMonitor`] and prints the snapshot plus the
//! published `gallery_monitor_*` gauges. `alerts` runs the same replay,
//! then compiles EXPR (rule language over metric family names, e.g.
//! `gallery_monitor_drift_score > 3.0`) into an alert rule, evaluates one
//! tick, and prints the status board; `--action deprecate_instance` or
//! `--action rollback_production` arms the corresponding lifecycle hook.
//!
//! `stats` opens the store (replaying the WAL) and prints the
//! Prometheus-style exposition of every telemetry counter, gauge, and
//! histogram the invocation produced — with `--probe` it first runs a
//! model scan + query so the DAL/query paths show non-zero samples.
//! `stats --cluster` instead spins up an in-process sharded cluster,
//! drives a few writes and reads through it, and prints the *federated*
//! exposition ([`ClusterRouter::federate`]): every node's registry
//! relabeled with `node="<id>"` plus the derived `gallery_cluster_*`
//! gauges (docs/observability.md, "Cluster tracing & federation").
//!
//! `wal-dump` reads the data directory's WAL without opening the store —
//! nothing is healed, truncated or created — and prints one JSON object
//! per logged op (the log itself is binary frames, DESIGN.md §7 "WAL
//! format"; an op holding a non-finite float has no JSON form and prints
//! in Rust debug syntax), then `torn tail at <offset>, <n> bytes` if the log ends in a
//! crash artifact. A log damaged anywhere else prints `corrupt: <reason>`
//! and exits non-zero.
//!
//! `explain` plans and runs one store-level query against TABLE (e.g.
//! `models`, `instances`) and prints the [`Explain`] artifact: chosen
//! access path, estimated vs. actual rows scanned, and per-stage
//! timings. `slowlog` prints the store's
//! bounded slow-query ring (docs/observability.md, "Profiling & query
//! introspection"); `profile` folds the tracer's finished spans into a
//! self/total-time profile — `--collapsed` emits collapsed-stack lines
//! that flamegraph tooling ingests directly. All three read *this
//! invocation's* process-local state, so `--probe` first drives a model
//! scan + query (wrapped in spans for `profile`) to produce samples.
//!
//! `lockgraph` turns on lock-rank checking (normally off in release
//! builds), drives an in-memory model workload through the full write
//! path, and prints the acquired-before lock graph plus any `GLnnnn`
//! ordering diagnostics (docs/concurrency.md) — `--dot` emits Graphviz
//! instead of text. A running server exposes the same dump as
//! `Probe{section: "lockgraph"}`.
//!
//! `--retries N` re-attempts an operation up to N times when it fails
//! with a *transient* storage error (I/O, injected fault); semantic
//! errors (duplicate key, missing model) are never retried. `--timeout-ms`
//! caps the total time spent across attempts and backoff.

use bytes::Bytes;
use gallery::core::metadata::Metadata;
use gallery::core::monitor::{ModelMonitor, MonitorConfig, MonitorSnapshot, ScoringEvent};
use gallery::core::ManualClock;
use gallery::prelude::*;
use gallery::rules::{compile_condition, register_lifecycle_actions};
use gallery::store::blob::localfs::LocalFsBlobStore;
use gallery::store::wal::Wal;
use gallery::store::{Dal, MetadataStore, StoreError, SyncPolicy};
use gallery::telemetry::{AlertEngine, AlertRule};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

fn open(data_dir: &std::path::Path) -> Result<Gallery, String> {
    let meta = MetadataStore::durable(data_dir.join("wal.log"), SyncPolicy::Always)
        .map_err(|e| e.to_string())?;
    let blobs = LocalFsBlobStore::open(data_dir.join("blobs")).map_err(|e| e.to_string())?;
    let dal = Dal::new(Arc::new(meta), Arc::new(blobs));
    Gallery::open(Arc::new(dal), Arc::new(gallery::core::SystemClock)).map_err(|e| e.to_string())
}

/// Retry `op` up to `retries` attempts, backing off exponentially, as
/// long as the failure is transient ([`GalleryError::is_transient`]) and
/// the optional wall-clock budget has room for the next sleep.
fn retrying<T>(
    retries: u32,
    timeout_ms: Option<u64>,
    mut op: impl FnMut() -> Result<T, GalleryError>,
) -> Result<T, GalleryError> {
    let started = std::time::Instant::now();
    let budget = timeout_ms.map(std::time::Duration::from_millis);
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && attempt + 1 < retries.max(1) => {
                let delay = std::time::Duration::from_millis(10u64 << attempt.min(6));
                if let Some(budget) = budget {
                    if started.elapsed() + delay > budget {
                        return Err(e);
                    }
                }
                std::thread::sleep(delay);
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

fn flag_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 < args.len() {
        let value = args.remove(pos + 1);
        args.remove(pos);
        Some(value)
    } else {
        args.remove(pos);
        None
    }
}

fn collect_meta(args: &mut Vec<String>) -> Metadata {
    let mut meta = Metadata::new();
    while let Some(kv) = flag_value(args, "--meta") {
        if let Some((k, v)) = kv.split_once('=') {
            if let Ok(n) = v.parse::<f64>() {
                meta.insert(k, n);
            } else {
                meta.insert(k, v);
            }
        }
    }
    meta
}

fn parse_constraint(s: &str) -> Option<Constraint> {
    for (sep, op) in [
        ("<=", Op::Le),
        (">=", Op::Ge),
        ("<", Op::Lt),
        (">", Op::Gt),
        ("=", Op::Eq),
    ] {
        if let Some((k, v)) = s.split_once(sep) {
            let value: gallery::store::Value = match v.parse::<f64>() {
                Ok(n) if sep != "=" || v.contains('.') => n.into(),
                _ => v.into(),
            };
            return Some(Constraint {
                field: k.to_owned(),
                op,
                value,
            });
        }
    }
    None
}

/// Parse the shared `monitor`/`alerts` tuning flags. The CLI default
/// window is a day: stored metric histories usually span far more than the
/// library's 60 s live-stream default.
fn monitor_config_from_flags(args: &mut Vec<String>) -> Result<MonitorConfig, String> {
    let mut config = MonitorConfig {
        window_ms: 86_400_000,
        ..MonitorConfig::default()
    };
    if let Some(v) = flag_value(args, "--window-ms") {
        config.window_ms = v.parse().map_err(|e| format!("bad --window-ms: {e}"))?;
    }
    if let Some(v) = flag_value(args, "--mean") {
        config.baseline_mean = v.parse().map_err(|e| format!("bad --mean: {e}"))?;
    }
    if let Some(v) = flag_value(args, "--std") {
        config.baseline_std = v.parse().map_err(|e| format!("bad --std: {e}"))?;
    }
    if let Some(v) = flag_value(args, "--z") {
        config.drift_z_threshold = v.parse().map_err(|e| format!("bad --z: {e}"))?;
    }
    Ok(config)
}

/// Replay an instance's stored production metrics through a sliding-window
/// monitor, publishing `gallery_monitor_*` into the global registry.
fn replay_monitor(
    g: &Gallery,
    instance_id: &InstanceId,
    config: MonitorConfig,
) -> Result<(ModelMonitor, MonitorSnapshot), String> {
    let mut records = g
        .metrics_of_instance(instance_id)
        .map_err(|e| e.to_string())?;
    records.retain(|m| m.scope == MetricScope::Production);
    records.sort_by_key(|m| m.created_at);
    let last_ts = records.last().map(|m| m.created_at).unwrap_or(0);
    let clock = Arc::new(ManualClock::new(last_ts + 1));
    let mut monitor = ModelMonitor::new(
        instance_id.clone(),
        config,
        clock,
        gallery::telemetry::global(),
    );
    for m in &records {
        monitor.record(ScoringEvent::new(m.created_at, m.value));
    }
    let snapshot = monitor.evaluate();
    Ok((monitor, snapshot))
}

fn print_snapshot(snapshot: &MonitorSnapshot) {
    println!("window events:   {}", snapshot.window_events);
    match snapshot.drift_score {
        Some(score) => println!(
            "drift:           z={score:.3} ({})",
            if snapshot.drifted { "DRIFTED" } else { "ok" }
        ),
        None => println!("drift:           (empty window)"),
    }
    println!("completeness:    {:.3}", snapshot.feature_completeness);
    println!("staleness:       {} ms", snapshot.staleness_ms);
}

/// `gallery wal-dump` — replay the WAL read-only and print it as text.
fn cmd_wal_dump(data_dir: &std::path::Path) -> Result<(), String> {
    let fs = gallery::store::real_fs();
    let report = match Wal::replay_report(&*fs, data_dir.join("wal.log")) {
        Ok(report) => report,
        Err(StoreError::WalCorrupt(reason)) => {
            println!("corrupt: {reason}");
            return Err("wal is corrupt".into());
        }
        Err(e) => return Err(e.to_string()),
    };
    for op in &report.ops {
        // JSON has no NaN or infinity: an op holding one prints in Rust
        // debug syntax instead of failing the dump.
        match serde_json::to_string(op) {
            Ok(json) => println!("{json}"),
            Err(_) => println!("{op:?}"),
        }
    }
    if let Some(torn) = &report.torn_tail {
        println!(
            "torn tail at {}, {} bytes",
            torn.valid_len, torn.dropped_bytes
        );
    }
    Ok(())
}

/// `gallery lint` — run the rule-language static analyzer.
///
/// `gallery lint FILE` lints a rule document (JSON object) or rule set
/// (JSON array); `gallery lint --expr EXPR` lints an alert condition.
/// Findings are rendered rustc-style; error-severity findings make the
/// command fail, which is what makes it usable as a pre-commit gate.
fn cmd_lint(args: &mut Vec<String>) -> Result<(), String> {
    use gallery::rules::{analyze_condition, analyze_rule_json, analyze_rule_set, LintReport};

    let report: LintReport = if let Some(expr) = flag_value(args, "--expr") {
        analyze_condition(&expr)
    } else {
        let [path]: [String; 1] = std::mem::take(args)
            .try_into()
            .map_err(|_| "usage: lint RULES_FILE | lint --expr EXPR".to_string())?;
        let content =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let trimmed = content.trim_start();
        if trimmed.starts_with('[') {
            match serde_json::from_str::<Vec<gallery::rules::RuleDoc>>(&content) {
                Ok(docs) => analyze_rule_set(&docs),
                Err(e) => return Err(format!("{path}: not a JSON array of rule documents: {e}")),
            }
        } else {
            analyze_rule_json(&content)
        }
    };
    if report.is_empty() {
        println!("clean: no diagnostics");
        return Ok(());
    }
    print!("{}", report.render());
    if report.has_errors() {
        return Err("lint failed".into());
    }
    Ok(())
}

/// `gallery lockgraph [--dot]` — dump the lock-rank analyzer's report.
///
/// Rank checking is off in release builds by default, so the command
/// turns it on first, then drives an in-memory model workload through
/// the full write path (create → upload → metric → query → fetch) to
/// populate the acquired-before graph before printing the report.
/// `GLnnnn` diagnostics (docs/concurrency.md) make the command fail, so
/// it doubles as a pre-commit smoke gate for lock-order regressions.
fn cmd_lockgraph(args: &mut Vec<String>) -> Result<(), String> {
    use gallery::core::sync::checker;

    let dot = args.iter().any(|a| a == "--dot");
    args.retain(|a| a != "--dot");
    if !args.is_empty() {
        return Err("usage: lockgraph [--dot]".into());
    }

    checker::enable();
    checker::reset();
    let g = Gallery::in_memory();
    let model = g
        .create_model(ModelSpec::new("lockgraph", "smoke").name("probe"))
        .map_err(|e| e.to_string())?;
    let instance = g
        .upload_instance(
            &model.id,
            InstanceSpec::new(),
            Bytes::from_static(b"weights"),
        )
        .map_err(|e| e.to_string())?;
    g.insert_metric(
        &instance.id,
        MetricSpec::new("mape", MetricScope::Validation, 0.1),
    )
    .map_err(|e| e.to_string())?;
    g.find_models(&Query::all()).map_err(|e| e.to_string())?;
    g.fetch_instance_blob(&instance.id)
        .map_err(|e| e.to_string())?;

    let report = checker::report();
    if dot {
        print!("{}", report.render_dot());
    } else {
        print!("{}", report.render_text());
    }
    if !report.is_clean() {
        return Err(format!(
            "lock graph has {} diagnostics",
            report.diagnostics.len()
        ));
    }
    Ok(())
}

/// `cluster` — run an in-process kill-a-node failover drill against a
/// sharded, replicated cluster (docs/replication.md) and print the
/// report. Exits non-zero if any replication invariant is violated.
fn cmd_cluster(args: &mut Vec<String>) -> Result<(), String> {
    use gallery::core::ManualClock as Clock;
    use gallery::service::telemetry::Telemetry;
    use gallery::service::{run_drill, ClusterConfig, DrillPlan, SimCluster};

    let parse = |args: &mut Vec<String>, flag: &str, default: u64| -> Result<u64, String> {
        flag_value(args, flag)
            .map(|v| v.parse().map_err(|e| format!("bad {flag}: {e}")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let nodes = parse(args, "--nodes", 3)? as usize;
    let shards = parse(args, "--shards", nodes as u64 * 2)? as u32;
    let replication = parse(args, "--replication", 2)? as usize;
    let writes = parse(args, "--writes", 30)? as usize;
    let kill = parse(args, "--kill", 0)? as usize % nodes.max(1);
    let seed = parse(args, "--seed", 1)?;

    let clock = Clock::new(0);
    let cluster = SimCluster::start_with(
        ClusterConfig::new(nodes)
            .with_shards(shards)
            .with_replication(replication)
            .with_follower_reads(true, 0),
        Arc::new(clock.clone()),
        Telemetry::new(),
    );
    let plan = DrillPlan::kill_one(seed, writes, kill);
    let report = run_drill(&cluster, &clock, &plan);
    println!("cluster:    {nodes} nodes, {shards} shards, replication {replication}");
    println!(
        "drill:      kill node {kill} at write {}, revive at {} (seed {seed})",
        writes / 3,
        writes * 2 / 3
    );
    println!(
        "writes:     {} attempted, {} acked, {} rejected",
        report.attempted, report.acked, report.rejected
    );
    println!("failovers:  {}", report.failovers);
    println!(
        "reads:      {} served by followers, max lag {} ops (budget {})",
        report.follower_reads, report.max_follower_lag_ops, report.staleness_budget_ops
    );
    println!("lost acked: {}", report.lost);
    println!("diverged:   {}", report.diverged);
    if report.holds() {
        println!("drill holds: zero lost acknowledged writes, zero divergence, bounded staleness");
        Ok(())
    } else {
        Err("drill violated a replication invariant".into())
    }
}

/// `stats --cluster` — build an in-process sharded cluster, push a small
/// traced workload through the router, and print the federated metrics
/// exposition the router serves for `Probe{section: "cluster"}`.
fn cmd_cluster_stats(args: &mut Vec<String>) -> Result<(), String> {
    use gallery::core::ManualClock as Clock;
    use gallery::service::telemetry::Telemetry;
    use gallery::service::{ClusterConfig, GalleryClient, SimCluster};

    let parse = |args: &mut Vec<String>, flag: &str, default: u64| -> Result<u64, String> {
        flag_value(args, flag)
            .map(|v| v.parse().map_err(|e| format!("bad {flag}: {e}")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let nodes = parse(args, "--nodes", 3)? as usize;
    let shards = parse(args, "--shards", nodes as u64 * 2)? as u32;
    let replication = parse(args, "--replication", 2)? as usize;
    let writes = parse(args, "--writes", 12)? as usize;

    let clock = Clock::new(0);
    let cluster = SimCluster::start_with(
        ClusterConfig::new(nodes)
            .with_shards(shards)
            .with_replication(replication)
            .with_follower_reads(true, 0),
        Arc::new(clock),
        Telemetry::new(),
    );
    let client =
        GalleryClient::new(cluster.transport()).with_telemetry(Arc::clone(cluster.telemetry()));
    let mut ids = Vec::new();
    for i in 0..writes {
        let model = client
            .create_model("stats", &format!("bv-{i}"), "m", "cli", "", "{}")
            .map_err(|e| e.to_string())?;
        ids.push(model.id);
    }
    for id in &ids {
        client.get_model(id).map_err(|e| e.to_string())?;
    }
    client.model_query(Vec::new()).map_err(|e| e.to_string())?;
    print!("{}", client.probe("cluster").map_err(|e| e.to_string())?);
    Ok(())
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let data_dir =
        PathBuf::from(flag_value(&mut args, "--data").unwrap_or_else(|| "gallery-data".to_owned()));
    let retries: u32 = flag_value(&mut args, "--retries")
        .map(|v| v.parse().map_err(|e| format!("bad --retries: {e}")))
        .transpose()?
        .unwrap_or(1);
    let timeout_ms: Option<u64> = flag_value(&mut args, "--timeout-ms")
        .map(|v| v.parse().map_err(|e| format!("bad --timeout-ms: {e}")))
        .transpose()?;
    let Some(command) = (if args.is_empty() {
        None
    } else {
        Some(args.remove(0))
    }) else {
        eprintln!("usage: gallery [--data DIR] COMMAND ... (see --help)");
        return Err("no command".into());
    };
    if command == "--help" || command == "help" {
        println!("see the module docs at the top of src/bin/gallery.rs for the command list");
        return Ok(());
    }
    // `lint` is author-time static analysis: it needs no store, so it is
    // dispatched before the data directory is opened (or created).
    if command == "lint" {
        return cmd_lint(&mut args);
    }
    // `lockgraph` instruments its own in-memory workload — store-less too.
    if command == "lockgraph" {
        return cmd_lockgraph(&mut args);
    }
    // `cluster` builds its own in-process multi-node cluster — it never
    // touches the data directory either.
    if command == "cluster" {
        return cmd_cluster(&mut args);
    }
    // `stats --cluster` likewise: federated metrics come from an
    // in-process cluster, not the local store.
    if command == "stats" && args.iter().any(|a| a == "--cluster") {
        args.retain(|a| a != "--cluster");
        return cmd_cluster_stats(&mut args);
    }
    // `wal-dump` is read-only: opening the store would heal a torn tail.
    if command == "wal-dump" {
        return cmd_wal_dump(&data_dir);
    }
    let g = Arc::new(open(&data_dir)?);
    let err = |e: GalleryError| e.to_string();

    match command.as_str() {
        "create-model" => {
            let name = flag_value(&mut args, "--name").unwrap_or_else(|| "unnamed".into());
            let owner = flag_value(&mut args, "--owner").unwrap_or_default();
            let desc = flag_value(&mut args, "--desc").unwrap_or_default();
            let meta = collect_meta(&mut args);
            let [project, base]: [String; 2] = args
                .try_into()
                .map_err(|_| "usage: create-model PROJECT BASE_ID".to_string())?;
            let spec = ModelSpec::new(project, base)
                .name(name)
                .owner(owner)
                .description(desc)
                .metadata(meta);
            let model =
                retrying(retries, timeout_ms, || g.create_model(spec.clone())).map_err(err)?;
            println!("{}", model.id);
        }
        "models" => {
            let project = flag_value(&mut args, "--project");
            let mut q = Query::all();
            if let Some(p) = project {
                q = q.and(Constraint::eq("project", p));
            }
            for m in g.find_models(&q).map_err(err)? {
                println!("{}\t{}\t{}\t{}", m.id, m.project, m.base_version_id, m.name);
            }
        }
        "upload" => {
            let meta = collect_meta(&mut args);
            let [model_id, blob_file]: [String; 2] = args
                .try_into()
                .map_err(|_| "usage: upload MODEL_ID BLOB_FILE [--meta k=v]".to_string())?;
            let blob = std::fs::read(&blob_file).map_err(|e| format!("{blob_file}: {e}"))?;
            let model_id = ModelId(model_id);
            let blob = Bytes::from(blob);
            let inst = retrying(retries, timeout_ms, || {
                g.upload_instance(
                    &model_id,
                    InstanceSpec::new().metadata(meta.clone()),
                    blob.clone(),
                )
            })
            .map_err(err)?;
            println!("{}\t{}", inst.id, inst.display_version);
        }
        "instances" => {
            let [model_id]: [String; 1] = args
                .try_into()
                .map_err(|_| "usage: instances MODEL_ID".to_string())?;
            for i in g.instances_of_model(&ModelId(model_id)).map_err(err)? {
                println!(
                    "{}\t{}\t{}\t{:?}",
                    i.id, i.display_version, i.created_at, i.trigger
                );
            }
        }
        "base" => {
            let [base]: [String; 1] = args
                .try_into()
                .map_err(|_| "usage: base BASE_ID".to_string())?;
            for i in g.instances_of_base_version(&base).map_err(err)? {
                println!("{}\t{}\t{}", i.id, i.display_version, i.created_at);
            }
        }
        "fetch" => {
            let [instance_id, out]: [String; 2] = args
                .try_into()
                .map_err(|_| "usage: fetch INSTANCE_ID OUT_FILE".to_string())?;
            let instance_id = InstanceId(instance_id);
            let blob = retrying(retries, timeout_ms, || g.fetch_instance_blob(&instance_id))
                .map_err(err)?;
            std::fs::write(&out, &blob).map_err(|e| format!("{out}: {e}"))?;
            println!("{} bytes -> {out}", blob.len());
        }
        "metric" => {
            let [instance_id, name, scope, value]: [String; 4] = args
                .try_into()
                .map_err(|_| "usage: metric INSTANCE_ID NAME SCOPE VALUE".to_string())?;
            let scope = MetricScope::parse(&scope).map_err(err)?;
            let value: f64 = value.parse().map_err(|e| format!("bad value: {e}"))?;
            let instance_id = InstanceId(instance_id);
            retrying(retries, timeout_ms, || {
                g.insert_metric(&instance_id, MetricSpec::new(name.clone(), scope, value))
            })
            .map_err(err)?;
            println!("ok");
        }
        "metrics" => {
            let [instance_id]: [String; 1] = args
                .try_into()
                .map_err(|_| "usage: metrics INSTANCE_ID".to_string())?;
            for m in g
                .metrics_of_instance(&InstanceId(instance_id))
                .map_err(err)?
            {
                println!("{}\t{}\t{}\t{}", m.name, m.scope, m.value, m.created_at);
            }
        }
        "query" => {
            let constraints: Vec<Constraint> = args
                .iter()
                .map(|s| parse_constraint(s).ok_or_else(|| format!("bad constraint: {s}")))
                .collect::<Result<_, _>>()?;
            for i in g.model_query(&constraints).map_err(err)? {
                println!("{}\t{}\t{}", i.id, i.base_version_id, i.display_version);
            }
        }
        "deploy" => {
            let [model_id, instance_id, env]: [String; 3] = args
                .try_into()
                .map_err(|_| "usage: deploy MODEL_ID INSTANCE_ID ENV".to_string())?;
            let (model_id, instance_id) = (ModelId(model_id), InstanceId(instance_id));
            retrying(retries, timeout_ms, || {
                g.deploy(&model_id, &instance_id, &env)
            })
            .map_err(err)?;
            println!("ok");
        }
        "deployed" => {
            let [model_id, env]: [String; 2] = args
                .try_into()
                .map_err(|_| "usage: deployed MODEL_ID ENV".to_string())?;
            match g.deployed_instance(&ModelId(model_id), &env).map_err(err)? {
                Some(i) => println!("{i}"),
                None => println!("(none)"),
            }
        }
        "dep-add" | "dep-rm" => {
            let [model_id, upstream]: [String; 2] = args
                .try_into()
                .map_err(|_| format!("usage: {command} MODEL_ID UPSTREAM_ID"))?;
            let (m, u) = (ModelId(model_id), ModelId(upstream));
            if command == "dep-add" {
                g.add_dependency(&m, &u).map_err(err)?;
            } else {
                g.remove_dependency(&m, &u).map_err(err)?;
            }
            println!("ok");
        }
        "deps" => {
            let [model_id]: [String; 1] = args
                .try_into()
                .map_err(|_| "usage: deps MODEL_ID".to_string())?;
            let m = ModelId(model_id);
            println!("upstream:");
            for u in g.upstream_of(&m).map_err(err)? {
                println!("  {u}");
            }
            println!("downstream:");
            for d in g.downstream_of(&m).map_err(err)? {
                println!("  {d}");
            }
        }
        "deprecate" => {
            let [kind, id]: [String; 2] = args
                .try_into()
                .map_err(|_| "usage: deprecate (model|instance) ID".to_string())?;
            match kind.as_str() {
                "model" => g.deprecate_model(&ModelId(id)).map_err(err)?,
                "instance" => g.deprecate_instance(&InstanceId(id)).map_err(err)?,
                other => return Err(format!("unknown kind {other}")),
            }
            println!("ok");
        }
        "stage" => {
            if args.len() == 1 {
                let stage = g.stage_of(&InstanceId(args.remove(0))).map_err(err)?;
                println!("{stage}");
            } else if args.len() == 2 {
                let id = InstanceId(args.remove(0));
                let next = Stage::parse(&args.remove(0)).map_err(err)?;
                let stage = g.set_stage(&id, next).map_err(err)?;
                println!("{stage}");
            } else {
                return Err("usage: stage INSTANCE_ID [NEW_STAGE]".into());
            }
        }
        "health" => {
            let [instance_id]: [String; 1] = args
                .try_into()
                .map_err(|_| "usage: health INSTANCE_ID".to_string())?;
            let report = g.health_report(&InstanceId(instance_id)).map_err(err)?;
            println!("score:           {:.2}", report.score());
            println!(
                "reproducibility: {:.0}%",
                100.0 * report.reproducibility_score
            );
            println!("missing fields:  {:?}", report.missing_fields);
            println!(
                "metrics:         training={} validation={} production={}",
                report.has_training_metrics,
                report.has_validation_metrics,
                report.has_production_metrics
            );
            for skew in &report.skew {
                println!(
                    "skew {}:        offline {:.4} vs production {:.4} ({})",
                    skew.metric_name,
                    skew.offline_value,
                    skew.production_value,
                    if skew.skewed { "SKEWED" } else { "ok" }
                );
            }
        }
        "monitor" => {
            let config = monitor_config_from_flags(&mut args)?;
            let [instance_id]: [String; 1] = args.try_into().map_err(|_| {
                "usage: monitor INSTANCE_ID [--window-ms W] [--mean M] [--std S] [--z Z]"
                    .to_string()
            })?;
            let (_, snapshot) = replay_monitor(&g, &InstanceId(instance_id), config)?;
            print_snapshot(&snapshot);
            for line in gallery::telemetry::global().render_text().lines() {
                if line.contains("gallery_monitor_") {
                    println!("{line}");
                }
            }
        }
        "alerts" => {
            let config = monitor_config_from_flags(&mut args)?;
            let for_ms: i64 = flag_value(&mut args, "--for-ms")
                .map(|v| v.parse().map_err(|e| format!("bad --for-ms: {e}")))
                .transpose()?
                .unwrap_or(0);
            let env = flag_value(&mut args, "--env").unwrap_or_else(|| "production".into());
            let mut actions = Vec::new();
            while let Some(a) = flag_value(&mut args, "--action") {
                actions.push(a);
            }
            let [instance_id, expr]: [String; 2] = args.try_into().map_err(|_| {
                "usage: alerts INSTANCE_ID EXPR [--for-ms F] [--action NAME] [--env ENV]"
                    .to_string()
            })?;
            let instance_id = InstanceId(instance_id);
            let model_id = g.get_instance(&instance_id).map_err(err)?.model_id;
            let (monitor, snapshot) = replay_monitor(&g, &instance_id, config)?;
            print_snapshot(&snapshot);

            let engine = AlertEngine::new(gallery::telemetry::global());
            register_lifecycle_actions(&engine, Arc::clone(&g));
            let condition = compile_condition(&expr).map_err(|e| e.to_string())?;
            let mut rule = AlertRule::new("cli", condition)
                .for_ms(for_ms)
                .annotate("instance", instance_id.as_str())
                .annotate("model", model_id.as_str())
                .annotate("environment", &env)
                .exemplar_from(monitor.error_histogram());
            for action in actions {
                rule = rule.action(action);
            }
            engine.add_rule(rule);
            engine.evaluate();
            print!("{}", engine.render_text());
        }
        "stats" => {
            // Metrics are per-process: everything since `open` above
            // (WAL replay, table scans) is already in the global registry.
            if args.iter().any(|a| a == "--probe") {
                let _ = g.find_models(&Query::all()).map_err(err)?;
                let _ = g.model_query(&[]).map_err(err)?;
            }
            g.dal().refresh_storage_gauges();
            print!("{}", gallery::telemetry::global().registry().render_text());
        }
        "explain" => {
            if args.is_empty() {
                return Err("usage: explain TABLE [key=value|key<value|key>value]...".into());
            }
            let table = args.remove(0);
            let mut q = Query::all();
            for s in &args {
                q = q.and(parse_constraint(s).ok_or_else(|| format!("bad constraint: {s}"))?);
            }
            let (rows, explain) = g
                .dal()
                .query_explain_full(&table, &q)
                .map_err(|e| e.to_string())?;
            println!("{explain}");
            println!("returned: {} rows", rows.len());
        }
        "slowlog" => {
            // The ring is per-process: only queries this invocation ran
            // are in it. `--probe` drives a scan + query first so a fresh
            // store still demonstrates the capture format.
            if args.iter().any(|a| a == "--probe") {
                let _ = g.find_models(&Query::all()).map_err(err)?;
                let _ = g.model_query(&[]).map_err(err)?;
            }
            print!("{}", g.dal().metadata().slow_log().render_text());
        }
        "profile" => {
            if args.iter().any(|a| a == "--probe") {
                let tracer = gallery::telemetry::global().tracer();
                let root = tracer.start_span("cli");
                let scan = tracer.start_child("find_models", root.context());
                let _ = g.find_models(&Query::all()).map_err(err)?;
                scan.finish();
                let query = tracer.start_child("model_query", root.context());
                let _ = g.model_query(&[]).map_err(err)?;
                query.finish();
                root.finish();
            }
            let profile = gallery::telemetry::global().profile();
            if args.iter().any(|a| a == "--collapsed") {
                print!("{}", profile.collapsed());
            } else if profile.is_empty() {
                println!("# span profile: no finished spans");
            } else {
                print!("{}", profile.render_text());
            }
        }
        "compact" => {
            let entries = g.dal().metadata().compact().map_err(|e| e.to_string())?;
            println!("compacted WAL to {entries} entries");
        }
        "audit" => {
            let repair = args.iter().any(|a| a == "--repair");
            if repair {
                let report = g
                    .dal()
                    .repair_orphans(&["instances"])
                    .map_err(|e| e.to_string())?;
                println!(
                    "rows: {}, blobs: {}, dangling: {}, orphans gc'd: {}, gc failed: {}",
                    report.audit.rows_checked,
                    report.audit.blobs_checked,
                    report.audit.dangling_metadata.len(),
                    report.deleted.len(),
                    report.failed.len(),
                );
                for (loc, e) in &report.failed {
                    eprintln!("  failed to delete {loc:?}: {e}");
                }
            } else {
                let report = g
                    .dal()
                    .audit_consistency(&["instances"])
                    .map_err(|e| e.to_string())?;
                println!(
                    "rows: {}, blobs: {}, dangling: {}, orphans: {} -> {}",
                    report.rows_checked,
                    report.blobs_checked,
                    report.dangling_metadata.len(),
                    report.orphan_blobs.len(),
                    if report.is_consistent() {
                        "CONSISTENT"
                    } else {
                        "INCONSISTENT"
                    }
                );
            }
        }
        other => return Err(format!("unknown command: {other}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
