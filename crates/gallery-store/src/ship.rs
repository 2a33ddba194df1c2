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
use crate::wal::{decode_op, encode_op, WalOp};
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

    /// Decode the carried op. A frame that fails to decode is a protocol
    /// bug or corruption, never applied.
    pub fn op(&self) -> Result<WalOp> {
        decode_op(&self.op).map_err(|why| StoreError::Io(format!("ship decode: {why}")))
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
            match self.apply_shipped(frame.seq, frame.op()?)? {
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
    use crate::value::ValueType;

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
        let op = WalOp::Insert {
            table: "models".into(),
            record: std::sync::Arc::new(Record::new().set("id", "m1").set("name", "rf")),
        };
        let frame = ShipFrame::new(42, &op);
        let back = frame.op().unwrap();
        match back {
            WalOp::Insert { table, .. } => assert_eq!(table, "models"),
            other => panic!("unexpected op {other:?}"),
        }
        assert!(ShipFrame {
            seq: 1,
            op: Bytes::from_static(b"not an op"),
        }
        .op()
        .is_err());
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
