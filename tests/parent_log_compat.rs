//! Logs written before ordered indexes existed.
//!
//! `fixtures/parent_wal.log` is the `wal.log` of a data directory written
//! by the commit before ordered indexes, through its own `gallery` CLI: six
//! `CreateTable` frames in the old form (hash indexes on `model_id` /
//! `instance_id`, no ordered-index section), one model, three instances
//! (the newest deprecated), four metrics, three deployments, two stage
//! changes. A store plans from the schema its log declares, so on this log
//! the five "latest" lookups of the registry must run as they did then —
//! `IndexEq` and a sort — and answer what `IndexTop` answers on a store
//! created now.
//!
//! `fixtures/parent_wal_rows.txt` is every row of that log as the commit
//! before positional rows read it back after replay: per row, its table
//! and the columns it holds as `name=value`, sorted by name.

use gallery::core::{
    Gallery, InstanceId, InstanceSpec, MetricScope, MetricSpec, ModelId, ModelSpec, Stage,
    SystemClock,
};
use gallery::store::blob::memory::MemoryBlobStore;
use gallery::store::{Constraint, Dal, MetadataStore, Query, SyncPolicy, WalOp};
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

const PARENT_WAL: &[u8] = include_bytes!("fixtures/parent_wal.log");
const PARENT_ROWS: &str = include_str!("fixtures/parent_wal_rows.txt");
const MODEL: &str = "220995e0-db55-46d6-9f1e-e4f38acf626a";
const OLDEST: &str = "81069fbf-168b-4f3b-997d-1ec9ce7c7fa4";
/// The newest instance that is not deprecated; carries the metrics, the
/// production pointer and the stage history.
const LIVE: &str = "73fc0395-974c-4e99-ab75-cc21bf7b6219";

fn data_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gallery-compat-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn open(dir: &std::path::Path) -> Gallery {
    let meta = MetadataStore::durable(dir.join("wal.log"), SyncPolicy::Always).unwrap();
    let dal = Dal::new(Arc::new(meta), Arc::new(MemoryBlobStore::new()));
    Gallery::open(Arc::new(dal), Arc::new(SystemClock)).unwrap()
}

/// Run `lookup` and return `table path` of every store query it made,
/// as EXPLAIN renders the path.
fn plans_of<T>(g: &Gallery, lookup: impl FnOnce(&Gallery) -> T) -> (T, Vec<String>) {
    let log = g.dal().metadata().slow_log();
    log.clear();
    let out = lookup(g);
    let plans = log
        .entries()
        .iter()
        .map(|e| {
            let rendered = e.explain.render();
            let path = rendered
                .strip_prefix("path: ")
                .and_then(|r| r.split(" [").next());
            format!(
                "{} {} tail={}",
                e.table,
                path.unwrap(),
                e.explain.tail_merge_rows
            )
        })
        .collect();
    (out, plans)
}

/// One model's history as both stores hold it.
struct Ids {
    model: ModelId,
    oldest: InstanceId,
    live: InstanceId,
}

/// The five "latest" lookups: their answers, with ids spelled as roles so
/// two stores compare, and the plan each ran as.
fn latest_lookups(g: &Gallery, ids: &Ids) -> (Vec<String>, Vec<String>) {
    let mut answers = Vec::new();
    let mut plans = Vec::new();
    let mut ask = |lookup: &dyn Fn(&Gallery) -> String| {
        let (answer, plan) = plans_of(g, lookup);
        let roles = answer
            .replace(ids.live.as_str(), "LIVE")
            .replace(ids.oldest.as_str(), "OLDEST");
        answers.push(roles);
        plans.extend(plan);
    };
    ask(&|g| {
        let latest = g.latest_instance(&ids.model).unwrap().unwrap();
        format!("{} {}", latest.id, latest.display_version)
    });
    ask(&|g| {
        let metric = g.latest_metric(&ids.live, "bias", MetricScope::Validation);
        metric.unwrap().unwrap().value.to_string()
    });
    ask(&|g| {
        format!(
            "{:?}",
            g.latest_metric_any_scope(&ids.live, "bias").unwrap()
        )
    });
    for environment in ["production", "staging", "nowhere"] {
        ask(&|g| {
            format!(
                "{:?}",
                g.deployed_instance(&ids.model, environment).unwrap()
            )
        });
    }
    ask(&|g| g.stage_of(&ids.live).unwrap().to_string());
    (answers, plans)
}

#[test]
fn a_parent_log_replays_and_answers_latest_as_it_was_planned_then() {
    let dir = data_dir("replay");
    std::fs::write(dir.join("wal.log"), PARENT_WAL).unwrap();
    let g = open(&dir);

    // The schemas are the log's: no ordered index, the hash indexes the
    // ordered ones replaced still there.
    let ops = g.dal().metadata().ops_since(0, 6);
    assert_eq!(ops.len(), 6);
    for (_, op) in &ops {
        let WalOp::CreateTable { schema } = op else {
            panic!("{op:?}");
        };
        assert!(schema.ordered.is_empty(), "{}", schema.name);
    }
    assert_eq!(g.dal().metadata().applied_seq(), 20);

    let then = Ids {
        model: ModelId::from(MODEL),
        oldest: InstanceId::from(OLDEST),
        live: InstanceId::from(LIVE),
    };
    let (answers, plans) = latest_lookups(&g, &then);
    assert_eq!(
        answers,
        [
            "LIVE 1.1",
            "0.05",
            "Some(0.2)",
            "Some(InstanceId(\"LIVE\"))",
            "Some(InstanceId(\"OLDEST\"))",
            "None",
            "deployed",
        ]
    );
    // Every index the log declares is current after replay, so among the
    // equalities it can serve the planner takes the smallest bucket: three
    // of the live instance's four metrics are `bias`, and two of the three
    // deployments are to `production`.
    assert_eq!(
        plans,
        [
            "instances IndexEq(model_id) tail=0",
            "metrics IndexEq(name) tail=0",
            "metrics IndexEq(name) tail=0",
            "deployments IndexEq(environment) tail=0",
            "deployments IndexEq(environment) tail=0",
            "deployments IndexEq(environment) tail=0",
            "lifecycle_events IndexEq(instance_id) tail=0",
        ]
    );

    // The same history written by this build: the same answers, read off
    // the end of the ordered indexes.
    let fresh = Gallery::in_memory();
    let model = fresh
        .create_model(ModelSpec::new("marketplace", "demand_forecast"))
        .unwrap();
    let upload = || {
        let blob = bytes::Bytes::from_static(b"weights");
        fresh
            .upload_instance(&model.id, InstanceSpec::new(), blob)
            .unwrap()
    };
    let (oldest, live, newest) = (upload(), upload(), upload());
    for (name, scope, value) in [
        ("bias", MetricScope::Validation, 0.10),
        ("bias", MetricScope::Validation, 0.05),
        ("bias", MetricScope::Production, 0.20),
        ("mape", MetricScope::Validation, 0.30),
    ] {
        fresh
            .insert_metric(&live.id, MetricSpec::new(name, scope, value))
            .unwrap();
    }
    fresh.deploy(&model.id, &oldest.id, "production").unwrap();
    fresh.deploy(&model.id, &live.id, "production").unwrap();
    fresh.deploy(&model.id, &oldest.id, "staging").unwrap();
    fresh.set_stage(&live.id, Stage::Evaluated).unwrap();
    fresh.set_stage(&live.id, Stage::Deployed).unwrap();
    fresh.deprecate_instance(&newest.id).unwrap();
    let now = Ids {
        model: model.id.clone(),
        oldest: oldest.id,
        live: live.id,
    };
    let (fresh_answers, fresh_plans) = latest_lookups(&fresh, &now);
    assert_eq!(fresh_answers, answers);
    assert_eq!(
        fresh_plans,
        [
            "instances IndexTop(model_id, created) tail=0",
            "metrics IndexTop(instance_id, created) tail=0",
            "metrics IndexTop(instance_id, created) tail=0",
            "deployments IndexTop(model_id, created) tail=0",
            "deployments IndexTop(model_id, created) tail=0",
            "deployments IndexTop(model_id, created) tail=0",
            "lifecycle_events IndexTop(instance_id, created) tail=0",
        ]
    );
    // Without a limit the same indexes serve as IndexEq. So does the
    // metric join's one pass.
    let (_, plans) = plans_of(&fresh, |g| g.instances_of_model(&now.model).unwrap());
    assert_eq!(plans, ["instances IndexEq(model_id) tail=0"]);
    let join = [
        Constraint::eq("project", "marketplace"),
        Constraint::eq("metricName", "bias"),
        Constraint::lt("metricValue", 0.25),
    ];
    let (found, plans) = plans_of(&fresh, |g| {
        g.model_query(&join).unwrap().to_instances().unwrap()
    });
    assert_eq!(found.len(), 1);
    assert_eq!(
        plans[1..],
        ["metrics SemiJoin(instance_id) tail=0"],
        "one semi-join for both live instances: {plans:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_parent_log_replays_into_rows_that_read_as_they_did_then() {
    let dir = data_dir("rows");
    std::fs::write(dir.join("wal.log"), PARENT_WAL).unwrap();
    let meta = MetadataStore::durable(dir.join("wal.log"), SyncPolicy::Always).unwrap();
    let mut tables = meta.table_names();
    tables.sort();
    let (mut by_position, mut by_name) = (String::new(), String::new());
    for table in &tables {
        for row in meta.query(table, &Query::all().with_deprecated()).unwrap() {
            let columns = row.schema().columns.iter().enumerate();
            let mut at: Vec<String> = columns
                .filter(|(i, _)| !row.at(*i).is_null())
                .map(|(i, c)| format!("{}={:?}", c.name, row.at(i)))
                .collect();
            let names = row.schema().columns.iter().map(|c| c.name.as_str());
            let mut named: Vec<String> = names
                .filter_map(|name| Some(format!("{name}={:?}", row.get(name)?)))
                .collect();
            at.sort();
            named.sort();
            by_position += &format!("{table} {}\n", at.join(" "));
            by_name += &format!("{table} {}\n", named.join(" "));
        }
    }
    assert_eq!(by_position, PARENT_ROWS);
    assert_eq!(by_name, PARENT_ROWS);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_dump_prints_both_forms_of_create_table() {
    let dump = |dir: &PathBuf, args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_gallery"))
            .arg("--data")
            .arg(dir)
            .args(args)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let old = data_dir("dump-old");
    std::fs::write(old.join("wal.log"), PARENT_WAL).unwrap();
    let text = dump(&old, &["wal-dump"]);
    assert_eq!(text.lines().count(), 20);
    let creates: Vec<&str> = text.lines().filter(|l| l.contains("CreateTable")).collect();
    assert_eq!(creates.len(), 6);
    assert!(
        creates.iter().all(|l| l.ends_with("\"ordered\":[]}}}")),
        "{text}"
    );
    assert_eq!(std::fs::read(old.join("wal.log")).unwrap(), PARENT_WAL);

    let new = data_dir("dump-new");
    dump(&new, &["create-model", "marketplace", "demand_forecast"]);
    let text = dump(&new, &["wal-dump"]);
    let instances = text
        .lines()
        .find(|l| l.starts_with("{\"CreateTable\":{\"schema\":{\"name\":\"instances\""))
        .unwrap();
    assert!(
        instances.ends_with("\"ordered\":[{\"by\":\"model_id\",\"order\":\"created\"}]}}}"),
        "{instances}"
    );
    assert!(
        instances
            .contains("{\"name\":\"model_id\",\"ty\":\"Str\",\"nullable\":false,\"index\":null}"),
        "{instances}"
    );
    for dir in [old, new] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
