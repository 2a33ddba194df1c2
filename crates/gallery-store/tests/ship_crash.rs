//! WAL shipping under the crash matrix (docs/replication.md): a durable
//! follower is crashed at every mutating IO operation while applying
//! shipped frames, recovered from its durable bytes, and re-shipped to
//! convergence. Proves the shipping protocol composes with the storage
//! layer's crash consistency:
//!
//! - the follower always converges to the leader's exact state;
//! - no phantom rows — every follower row is a leader row (the WAL-first
//!   apply path means a crash can lose a suffix, never invent one);
//! - replay is idempotent — re-applying the full frame set from scratch
//!   applies nothing and changes nothing.

// Integration tests unwrap freely; the disallowed-methods ban only
// guards non-test code.
#![allow(clippy::disallowed_methods)]

use gallery_store::{ColumnDef, FileSystem};
use gallery_store::{
    Constraint, MetadataStore, Query, Record, ShipFrame, SimFaultPlan, SimFs, SyncPolicy,
    TableSchema, Value, ValueType,
};
use std::sync::Arc;

const WAL_PATH: &str = "/replica/meta.wal";

/// A leader with a varied oplog: two tables, inserts, and flag updates.
fn leader() -> MetadataStore {
    let store = MetadataStore::in_memory();
    store
        .create_table(
            TableSchema::new(
                "models",
                "id",
                vec![
                    ColumnDef::new("id", ValueType::Str),
                    ColumnDef::new("name", ValueType::Str),
                    ColumnDef::new("deprecated", ValueType::Bool),
                ],
            )
            .unwrap(),
        )
        .unwrap();
    store
        .create_table(
            TableSchema::new(
                "instances",
                "id",
                vec![
                    ColumnDef::new("id", ValueType::Str),
                    ColumnDef::new("model_id", ValueType::Str),
                    ColumnDef::new("created", ValueType::Timestamp),
                ],
            )
            // Ordered by a timestamp, not by `id`: an ordered index refuses
            // a `str` order column, whose eight-byte sort key is not exact.
            .and_then(|s| s.ordered_by("model_id", "created"))
            .unwrap(),
        )
        .unwrap();
    for i in 0..6 {
        store
            .insert(
                "models",
                Record::new()
                    .set("id", format!("m{i}"))
                    .set("name", "rf")
                    .set("deprecated", false),
            )
            .unwrap();
        store
            .insert(
                "instances",
                Record::new()
                    .set("id", format!("i{i}"))
                    .set("model_id", format!("m{i}"))
                    .set("created", Value::Timestamp(i)),
            )
            .unwrap();
    }
    store.set_flag("models", "m0", "deprecated", true).unwrap();
    store.set_flag("models", "m3", "deprecated", true).unwrap();
    store
}

fn open_follower(fs: &SimFs) -> gallery_store::Result<MetadataStore> {
    MetadataStore::durable_with_fs(
        Arc::new(fs.clone()) as Arc<dyn FileSystem>,
        WAL_PATH,
        SyncPolicy::Always,
    )
}

/// Ship everything the leader has to the follower in small batches (so a
/// crash lands mid-batch). Returns Err when the follower crashes.
fn ship_all(leader: &MetadataStore, follower: &MetadataStore) -> gallery_store::Result<()> {
    loop {
        let (leader_seq, frames) = leader.ship_since(follower.applied_seq(), 4);
        if frames.is_empty() {
            assert_eq!(follower.applied_seq(), leader_seq);
            return Ok(());
        }
        let report = follower.apply_ship(&frames)?;
        assert_eq!(report.resend_from, None, "leader ships from our seq");
        assert!(report.applied > 0 || report.skipped > 0);
    }
}

/// The follower's state must equal the leader's, row for row.
fn assert_converged(leader: &MetadataStore, follower: &MetadataStore) {
    assert_eq!(follower.applied_seq(), leader.applied_seq());
    let mut tables = leader.table_names();
    let mut follower_tables = follower.table_names();
    tables.sort();
    follower_tables.sort();
    assert_eq!(tables, follower_tables);
    for table in &tables {
        assert_eq!(
            follower.row_count(table).unwrap(),
            leader.row_count(table).unwrap(),
            "row count of {table}"
        );
    }
    // Same cardinality + every leader row present and equal ⇒ the
    // follower holds exactly the leader's rows, no phantoms.
    for i in 0..6 {
        for (table, pk) in [("models", format!("m{i}")), ("instances", format!("i{i}"))] {
            assert_eq!(
                follower.get(table, &pk).unwrap(),
                leader.get(table, &pk).unwrap(),
                "{table}/{pk}"
            );
        }
    }
    // The ordered index the follower built from shipped frames answers a
    // semi-join as the leader's does: `m9` has no instance, `m2` has `i2`.
    let keys = ["m0", "m9", "m2", "m5", "m2"].map(Value::from);
    let keys: Vec<&Value> = keys.iter().collect();
    let join = |store: &MetadataStore, residual: &Query| {
        let joined = store.semi_join("instances", "model_id", &keys, residual);
        joined.unwrap().0
    };
    let (any, only_i2) = (Query::all(), Query::all().and(Constraint::eq("id", "i2")));
    assert_eq!(join(leader, &any), [true, false, true, true, true]);
    assert_eq!(join(follower, &any), join(leader, &any));
    assert_eq!(join(follower, &only_i2), join(leader, &only_i2));
}

/// Re-applying the complete frame set from sequence 0 must be a no-op.
fn assert_replay_idempotent(leader: &MetadataStore, follower: &MetadataStore) {
    let (_, frames) = leader.ship_since(0, 10_000);
    let before = follower.applied_seq();
    let report = follower.apply_ship(&frames).unwrap();
    assert_eq!(report.applied, 0, "full replay applies nothing");
    assert_eq!(report.skipped, frames.len() as u64);
    assert_eq!(follower.applied_seq(), before);
}

#[test]
fn follower_crashed_at_every_io_op_converges() {
    let leader = leader();

    // Clean run first: count the IO ops a full apply performs, so the
    // matrix can enumerate every crash point.
    let clean_fs = SimFs::new();
    let follower = open_follower(&clean_fs).unwrap();
    ship_all(&leader, &follower).unwrap();
    assert_converged(&leader, &follower);
    let total_ops = clean_fs.ops();
    assert!(total_ops > 20, "matrix too small: {total_ops} ops");

    for crash_at in 0..total_ops {
        // Tear the crashing write on odd points: a partially persisted
        // final record is the classic crash artifact recovery truncates.
        let plan = SimFaultPlan {
            crash_at_op: Some(crash_at),
            torn_write_keep: (crash_at % 2 == 1).then_some(3),
            ..SimFaultPlan::default()
        };
        let fs = SimFs::with_plan(plan);
        // The crash can fire during open (bootstrap IO) or mid-apply;
        // either way the disk is whatever became durable.
        if let Ok(follower) = open_follower(&fs) {
            let _ = ship_all(&leader, &follower);
        }
        assert!(fs.crashed(), "crash point {crash_at} never fired");

        // Reboot: recovery truncates any torn tail, then shipping resumes
        // from whatever sequence survived.
        let rebooted = fs.recover();
        let follower = open_follower(&rebooted)
            .unwrap_or_else(|e| panic!("recovery failed at crash point {crash_at}: {e}"));
        assert!(
            follower.applied_seq() <= leader.applied_seq(),
            "crash point {crash_at}: follower ahead of leader"
        );
        ship_all(&leader, &follower)
            .unwrap_or_else(|e| panic!("re-ship failed at crash point {crash_at}: {e}"));
        assert_converged(&leader, &follower);
        assert_replay_idempotent(&leader, &follower);
    }
}

#[test]
fn double_crash_while_reshipping_converges() {
    // Crash once mid-apply, recover, then crash again during the re-ship —
    // recovery of a recovery. The second crash point is chosen mid-stream
    // of the resumed apply.
    let leader = leader();
    let fs = SimFs::with_plan(SimFaultPlan {
        crash_at_op: Some(12),
        ..SimFaultPlan::default()
    });
    if let Ok(follower) = open_follower(&fs) {
        let _ = ship_all(&leader, &follower);
    }
    assert!(fs.crashed());

    let rebooted = fs.recover();
    rebooted.set_plan(SimFaultPlan {
        crash_at_op: Some(8),
        torn_write_keep: Some(1),
        ..SimFaultPlan::default()
    });
    if let Ok(follower) = open_follower(&rebooted) {
        let _ = ship_all(&leader, &follower);
    }
    assert!(rebooted.crashed());

    let final_fs = rebooted.recover();
    let follower = open_follower(&final_fs).unwrap();
    ship_all(&leader, &follower).unwrap();
    assert_converged(&leader, &follower);
    assert_replay_idempotent(&leader, &follower);
}

#[test]
fn shipped_frames_survive_the_follower_wal_byte_for_byte() {
    // A frame applied on the follower is re-shippable from the follower's
    // own log with identical op bytes — chained replication would see the
    // same bytes the leader shipped.
    let leader = leader();
    let follower = MetadataStore::in_memory();
    let (_, frames) = leader.ship_since(0, 10_000);
    follower.apply_ship(&frames).unwrap();
    let (_, reshipped) = follower.ship_since(0, 10_000);
    assert_eq!(frames.len(), reshipped.len());
    for (a, b) in frames.iter().zip(reshipped.iter()) {
        assert_eq!(a, b);
    }
    // And a frame with a corrupted op is rejected before any state change.
    let bad = ShipFrame {
        seq: follower.applied_seq() + 1,
        op: frames[0].op.slice(..frames[0].op.len() - 1),
    };
    let before = follower.applied_seq();
    assert!(follower.apply_ship(&[bad]).is_err());
    assert_eq!(follower.applied_seq(), before);
}

#[test]
fn non_finite_floats_survive_restart_and_shipping_bit_for_bit() {
    // The in-memory store always took these; the durable one refused them
    // while its log was JSON ("cannot serialize non-finite float").
    let floats = [
        ("nan", f64::from_bits(0x7ff8_0000_dead_beef)),
        ("pos_inf", f64::INFINITY),
        ("neg_inf", f64::NEG_INFINITY),
        ("neg_zero", -0.0),
    ];
    let mut columns = vec![ColumnDef::new("id", ValueType::Str)];
    columns.extend(floats.map(|(name, _)| ColumnDef::new(name, ValueType::Float)));
    let schema = TableSchema::new("scores", "id", columns).unwrap();
    let row = floats
        .iter()
        .fold(Record::new().set("id", "r1"), |r, (name, x)| {
            r.set(*name, *x)
        });
    let assert_bits = |store: &MetadataStore, who: &str| {
        let got = store.get("scores", "r1").unwrap().expect("row present");
        for (name, x) in floats {
            let Some(Value::Float(y)) = got.get(name) else {
                panic!("{who}: {name} is {:?}", got.get(name));
            };
            assert_eq!(y.to_bits(), x.to_bits(), "{who}: {name}");
        }
    };

    let leader_fs = SimFs::new();
    let leader = open_follower(&leader_fs).unwrap();
    leader.create_table(schema).unwrap();
    leader.insert("scores", row).unwrap();
    assert_bits(&leader, "leader");
    drop(leader);
    let leader = open_follower(&leader_fs.recover()).unwrap();
    assert_bits(&leader, "restarted leader");

    let follower_fs = SimFs::new();
    let follower = open_follower(&follower_fs).unwrap();
    ship_all(&leader, &follower).unwrap();
    assert_bits(&follower, "follower");
    assert_eq!(leader.ship_since(0, 10), follower.ship_since(0, 10));
    drop(follower);
    assert_bits(
        &open_follower(&follower_fs.recover()).unwrap(),
        "restarted follower",
    );
}
