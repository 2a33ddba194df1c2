//! WAL shipping: the unit of replication between a shard leader and its
//! followers (docs/replication.md).
//!
//! A [`ShipFrame`] is one committed [`WalOp`] plus its 1-based commit
//! sequence, with the op carried as the payload bytes of its frame in the
//! physical WAL (one codec, in `wal.rs`) — so what travels between nodes
//! is what recovery replays from disk. The service layer moves frames
//! over the wire; this module owns the store-side batch helpers.

use crate::error::{Result, StoreError};
use crate::meta::{MetadataStore, ShipApply};
use crate::wal::{decode_op, encode_op, Undecoded, WalOp};
use bytes::Bytes;

/// One shipped op: `(seq, op)` with the op in WAL payload form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShipFrame {
    /// 1-based commit sequence on the leader.
    pub seq: u64,
    /// The op, encoded exactly as a physical WAL frame's payload.
    pub op: Bytes,
}

impl ShipFrame {
    pub fn new(seq: u64, op: &WalOp) -> Self {
        let mut payload = Vec::new();
        encode_op(op, &mut payload);
        ShipFrame {
            seq,
            op: Bytes::from(payload),
        }
    }

    /// Decode the carried op on `store`: an insert is placed against the
    /// store's own table as it is read. A frame that fails to decode is a
    /// protocol bug or corruption, never applied; an insert the table
    /// refuses fails as inserting the row would.
    fn op_on(&self, store: &MetadataStore) -> Result<WalOp> {
        decode_op(&self.op, &|table| store.schema_of(table)).map_err(|e| match e {
            Undecoded::Malformed(why) => StoreError::Io(format!("ship decode: {why}")),
            Undecoded::Refused(e) => e,
        })
    }
}

/// Outcome of applying a batch of shipped frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShipReport {
    /// Frames committed by this batch.
    pub applied: u64,
    /// Frames skipped because the local log already held their sequence.
    pub skipped: u64,
    /// Set when a frame was ahead of the local log: the sequence the
    /// follower needs shipping to restart from. Frames after the gap are
    /// not attempted.
    pub resend_from: Option<u64>,
}

impl MetadataStore {
    /// Leader side: the frames a follower at `from_seq` is missing, at
    /// most `max` of them, plus this store's own applied sequence (so the
    /// caller can compute lag even when no frames ship).
    pub fn ship_since(&self, from_seq: u64, max: usize) -> (u64, Vec<ShipFrame>) {
        let frames = self
            .ops_since(from_seq, max)
            .into_iter()
            .map(|(seq, op)| ShipFrame::new(seq, &op))
            .collect();
        (self.applied_seq(), frames)
    }

    /// Follower side: apply a batch of shipped frames in order,
    /// replay-idempotently. Stops at the first gap (reported, not an
    /// error) or the first real apply failure (an error: the replica is
    /// diverging and must be re-seeded).
    pub fn apply_ship(&self, frames: &[ShipFrame]) -> Result<ShipReport> {
        let mut report = ShipReport::default();
        for frame in frames {
            match self.apply_shipped(frame.seq, frame.op_on(self)?)? {
                ShipApply::Applied => report.applied += 1,
                ShipApply::AlreadyApplied => report.skipped += 1,
                ShipApply::Gap { expected } => {
                    report.resend_from = Some(expected);
                    break;
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::value::{Value, ValueType};

    fn schema() -> TableSchema {
        TableSchema::new(
            "models",
            "id",
            vec![
                ColumnDef::new("id", ValueType::Str),
                ColumnDef::new("name", ValueType::Str),
            ],
        )
        .unwrap()
    }

    fn leader() -> MetadataStore {
        let store = MetadataStore::in_memory();
        store.create_table(schema()).unwrap();
        for i in 0..8 {
            store
                .insert(
                    "models",
                    Record::new().set("id", format!("m{i}")).set("name", "rf"),
                )
                .unwrap();
        }
        store
    }

    #[test]
    fn frames_roundtrip_the_wal_encoding() {
        let follower = MetadataStore::in_memory();
        follower.create_table(schema()).unwrap();
        let row = Record::new().set("name", "rf").set("id", "m1");
        let op = WalOp::Insert {
            table: "models".into(),
            row: std::sync::Arc::new(std::sync::Arc::new(schema()).place(row).unwrap()),
        };
        let frame = ShipFrame::new(42, &op);
        match frame.op_on(&follower).unwrap() {
            WalOp::Insert { table, row } => {
                assert_eq!(table, "models");
                // Placed against the follower's own table.
                let own = follower.schema_of("models").unwrap();
                assert!(std::sync::Arc::ptr_eq(row.schema(), &own));
                assert_eq!(row.get("name"), Some(&Value::from("rf")));
            }
            other => panic!("unexpected op {other:?}"),
        }
        // An insert into a table the follower lacks fails as inserting it
        // would; bytes that are no op fail as such.
        let bare = MetadataStore::in_memory();
        assert!(matches!(
            frame.op_on(&bare),
            Err(StoreError::NoSuchTable(t)) if t == "models"
        ));
        let garbage = ShipFrame {
            seq: 1,
            op: Bytes::from_static(b"not an op"),
        };
        assert!(matches!(garbage.op_on(&follower), Err(StoreError::Io(_))));
    }

    #[test]
    fn a_shipped_frame_that_repeats_a_column_applies_its_first_value() {
        // Hand-built: what a leader wrote before such rows were refused.
        // Op, "models", `fields` fields: id "m1", name "rf", then name "lr".
        let insert = |fields: u8, last: &[u8]| {
            let head = [&[2, 6][..], b"models", &[fields, 2], b"id", &[4, 2], b"m1"];
            let name_rf = [&[4][..], b"name", &[4, 2], b"rf"];
            [&head[..], &name_rf[..], &[last][..]].concat().concat()
        };
        let payload = insert(3, &[4, b'n', b'a', b'm', b'e', 4, 2, b'l', b'r']);
        let follower = MetadataStore::in_memory();
        follower.create_table(schema()).unwrap();
        let frame = ShipFrame {
            seq: 2,
            op: Bytes::from(payload),
        };
        let report = follower.apply_ship(&[frame]).unwrap();
        assert_eq!(report.applied, 1);
        let row = follower.get("models", "m1").unwrap().unwrap();
        assert_eq!(row.get("name"), Some(&Value::from("rf")));
        // And it logs the row it holds: each column once.
        let (_, reshipped) = follower.ship_since(1, 1);
        assert_eq!(reshipped[0].op[..], insert(2, &[])[..]);
    }

    #[test]
    fn ship_and_apply_in_batches_converges() {
        let leader = leader();
        let follower = MetadataStore::in_memory();
        loop {
            let (leader_seq, frames) = leader.ship_since(follower.applied_seq(), 3);
            if frames.is_empty() {
                assert_eq!(follower.applied_seq(), leader_seq);
                break;
            }
            let report = follower.apply_ship(&frames).unwrap();
            assert_eq!(report.applied, frames.len() as u64);
            assert_eq!(report.resend_from, None);
        }
        assert_eq!(follower.row_count("models").unwrap(), 8);
    }

    #[test]
    fn overlapping_reship_skips_and_gap_reports_resend_point() {
        let leader = leader();
        let follower = MetadataStore::in_memory();
        let (_, frames) = leader.ship_since(0, 1000);
        follower.apply_ship(&frames[..4]).unwrap();
        // Overlapping batch: the first frames skip, the rest apply.
        let report = follower.apply_ship(&frames[2..6]).unwrap();
        assert_eq!(report.skipped, 2);
        assert_eq!(report.applied, 2);
        // A batch starting past the log reports where to resend from.
        let report = follower.apply_ship(&frames[8..]).unwrap();
        assert_eq!(report.applied, 0);
        assert_eq!(report.resend_from, Some(7));
        assert_eq!(follower.applied_seq(), 6);
    }
}
