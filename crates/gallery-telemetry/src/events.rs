//! Structured event sink: a bounded ring of discrete occurrences.
//!
//! Events are for things that *happen* — a breaker trips, a retry fires, a
//! WAL batch is fsynced, a degraded read falls back to a stale cache entry
//! — as opposed to metrics (aggregates) and spans (durations). Each event
//! carries a kind, a timestamp from the shared [`Clock`], optional
//! key/value fields, and an optional trace ID so it can be stitched into
//! the trace that caused it.
//!
//! The ring keeps the most recent `capacity` events; an optional JSONL
//! writer mirrors every event to a line-oriented log for offline
//! inspection (the format Model Lake-style registries call "operations as
//! queryable records").

use crate::trace::Clock;
use gallery_sync::{rank, OrderedMutex};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::Arc;

/// One recorded occurrence.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryEvent {
    /// Monotonic sequence number, 1-based, never reused.
    pub seq: u64,
    pub ts_ms: i64,
    pub kind: &'static str,
    pub trace_id: Option<u64>,
    /// A value that is a literal at the emitting site is borrowed.
    pub fields: Vec<(&'static str, Cow<'static, str>)>,
}

impl TelemetryEvent {
    /// Value of a named field, if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_ref())
    }

    /// Render as one JSON object (the JSONL line format).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"ts_ms\":");
        out.push_str(&self.ts_ms.to_string());
        out.push_str(",\"kind\":");
        push_json_str(&mut out, self.kind);
        if let Some(t) = self.trace_id {
            out.push_str(",\"trace_id\":");
            out.push_str(&t.to_string());
        }
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, k);
                out.push(':');
                push_json_str(&mut out, v);
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct SinkInner {
    ring: VecDeque<TelemetryEvent>,
    total: u64,
    writer: Option<Box<dyn Write + Send>>,
}

/// Bounded ring buffer of [`TelemetryEvent`]s with an optional JSONL tap.
pub struct EventSink {
    time: Arc<dyn Clock>,
    inner: OrderedMutex<SinkInner>,
    capacity: usize,
    enabled: bool,
}

impl EventSink {
    pub const DEFAULT_CAPACITY: usize = 4096;

    pub fn new(time: Arc<dyn Clock>) -> Self {
        Self::with_capacity(time, Self::DEFAULT_CAPACITY)
    }

    pub fn with_capacity(time: Arc<dyn Clock>, capacity: usize) -> Self {
        EventSink {
            time,
            inner: OrderedMutex::new(
                rank::EVENT_SINK,
                SinkInner {
                    ring: VecDeque::new(),
                    total: 0,
                    writer: None,
                },
            ),
            capacity: capacity.max(1),
            enabled: true,
        }
    }

    /// A sink that drops everything after one branch.
    pub fn disabled(time: Arc<dyn Clock>) -> Self {
        let mut s = Self::new(time);
        s.enabled = false;
        s
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Mirror every subsequent event to `writer` as one JSON line each.
    pub fn attach_jsonl(&self, writer: Box<dyn Write + Send>) {
        self.inner.lock().writer = Some(writer);
    }

    /// Open (append) a JSONL file at `path` and mirror events into it.
    pub fn attach_jsonl_path(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        self.attach_jsonl(Box::new(std::io::BufWriter::new(file)));
        Ok(())
    }

    /// Record an event with no trace affiliation.
    pub fn emit(&self, kind: &'static str, fields: Vec<(&'static str, Cow<'static, str>)>) {
        self.emit_traced(kind, None, fields);
    }

    /// Record an event stitched to a trace.
    pub fn emit_traced(
        &self,
        kind: &'static str,
        trace_id: Option<u64>,
        fields: Vec<(&'static str, Cow<'static, str>)>,
    ) {
        if !self.enabled {
            return;
        }
        let ts_ms = self.time.now_ms();
        let mut inner = self.inner.lock();
        inner.total += 1;
        let event = TelemetryEvent {
            seq: inner.total,
            ts_ms,
            kind,
            trace_id,
            fields,
        };
        if let Some(w) = inner.writer.as_mut() {
            // Telemetry must never take the process down: a full disk or
            // closed pipe silently stops the mirror.
            let line = event.to_json();
            if writeln!(w, "{line}").and_then(|_| w.flush()).is_err() {
                inner.writer = None;
            }
        }
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(event);
    }

    /// Most recent events, oldest first.
    pub fn recent(&self) -> Vec<TelemetryEvent> {
        self.inner.lock().ring.iter().cloned().collect()
    }

    /// Retained events of one kind, oldest first.
    pub fn of_kind(&self, kind: &str) -> Vec<TelemetryEvent> {
        self.inner
            .lock()
            .ring
            .iter()
            .filter(|e| e.kind == kind)
            .cloned()
            .collect()
    }

    /// Retained events stitched to `trace_id`, oldest first.
    pub fn for_trace(&self, trace_id: u64) -> Vec<TelemetryEvent> {
        self.inner
            .lock()
            .ring
            .iter()
            .filter(|e| e.trace_id == Some(trace_id))
            .cloned()
            .collect()
    }

    /// Total events ever emitted (including ones the ring has dropped).
    pub fn total_emitted(&self) -> u64 {
        self.inner.lock().total
    }

    pub fn clear(&self) {
        self.inner.lock().ring.clear();
    }
}

/// Event kind names used across the workspace, collected here so the
/// emitting site and the asserting test can't drift apart.
pub mod kinds {
    /// Circuit breaker state change: fields `endpoint`, `from`, `to`.
    pub const BREAKER_TRANSITION: &str = "breaker.transition";
    /// One attempt inside a resilient RPC call: fields `method`, `attempt`,
    /// `outcome`, and `delay_ms` when a backoff follows.
    pub const RPC_ATTEMPT: &str = "rpc.attempt";
    /// WAL fsync: fields `entries`, `reason`.
    pub const WAL_FLUSH: &str = "wal.flush";
    /// Degraded (stale-tolerant) blob read: fields `table`, `pk`, `stale`.
    pub const DEGRADED_READ: &str = "degraded.read";
    /// LRU cache eviction: fields `location`, `bytes`.
    pub const CACHE_EVICT: &str = "cache.evict";
    /// Server answered from the idempotency cache: fields `key`, `method`.
    pub const IDEMPOTENT_REPLAY: &str = "idempotency.replay";
    /// WAL recovery truncated a torn final record: fields `path`,
    /// `valid_len`, `dropped_bytes`.
    pub const WAL_TORN_TAIL: &str = "wal.torn_tail_truncated";
    /// The repair pass garbage-collected an orphan blob: fields `location`.
    pub const ORPHAN_REPAIRED: &str = "dal.orphan_repaired";
    /// An alert rule's condition started breaching but has not held for
    /// its `for` duration yet: fields `rule`, `value`.
    pub const ALERT_PENDING: &str = "alert.pending";
    /// An alert transitioned to firing: fields `rule`, `value`, plus the
    /// rule's annotations; `trace_id` links the breaching exemplar.
    pub const ALERT_FIRING: &str = "alert.firing";
    /// A firing alert's condition cleared: fields `rule`.
    pub const ALERT_RESOLVED: &str = "alert.resolved";
    /// A firing alert invoked a registered action: fields `rule`, `action`,
    /// `outcome`.
    pub const ALERT_ACTION: &str = "alert.action";
    /// The cluster router marked a node down: fields `node`, `reason`.
    pub const CLUSTER_NODE_DOWN: &str = "cluster.node_down";
    /// A follower was promoted to shard leader: fields `shard`, `node`,
    /// `applied_seq`.
    pub const CLUSTER_PROMOTE: &str = "cluster.promote";
    /// A shard completed leader failover (demotion + promotion + epoch
    /// bump): fields `shard`, `from`, `to`, `epoch`.
    pub const CLUSTER_FAILOVER: &str = "cluster.failover";
    /// A revived replica was reset and re-seeded from the leader's log:
    /// fields `shard`, `node`, `shipped`.
    pub const CLUSTER_RESYNC: &str = "cluster.resync";
    /// WAL shipping hit a sequence gap: a follower applied less than the
    /// router believed it had, so the next batch resends from the
    /// follower's truth. Fields `shard`, `node`, `epoch`, `from_seq`,
    /// `applied_seq`.
    pub const CLUSTER_SHIP_GAP: &str = "cluster.ship_gap";
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicI64, Ordering};

    struct StepClock(AtomicI64);

    impl Clock for StepClock {
        fn now_ms(&self) -> i64 {
            self.0.fetch_add(1, Ordering::Relaxed)
        }
    }

    fn sink() -> EventSink {
        EventSink::new(Arc::new(StepClock(AtomicI64::new(100))))
    }

    #[test]
    fn emit_and_query() {
        let s = sink();
        s.emit(kinds::WAL_FLUSH, vec![("entries", "3".into())]);
        s.emit_traced(kinds::RPC_ATTEMPT, Some(42), vec![("attempt", "1".into())]);
        assert_eq!(s.total_emitted(), 2);
        assert_eq!(s.of_kind(kinds::WAL_FLUSH).len(), 1);
        let traced = s.for_trace(42);
        assert_eq!(traced.len(), 1);
        assert_eq!(traced[0].field("attempt"), Some("1"));
        assert_eq!(traced[0].ts_ms, 101);
    }

    #[test]
    fn ring_bounded_but_total_keeps_counting() {
        let s = EventSink::with_capacity(Arc::new(StepClock(AtomicI64::new(0))), 2);
        for i in 0..5 {
            s.emit(kinds::CACHE_EVICT, vec![("bytes", i.to_string().into())]);
        }
        assert_eq!(s.recent().len(), 2);
        assert_eq!(s.total_emitted(), 5);
        assert_eq!(s.recent()[0].seq, 4);
    }

    #[test]
    fn jsonl_lines_are_valid_json() {
        let s = sink();
        let buf: Arc<std::sync::Mutex<Vec<u8>>> = Arc::new(std::sync::Mutex::new(Vec::new()));
        struct Tap(Arc<std::sync::Mutex<Vec<u8>>>);
        impl Write for Tap {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        s.attach_jsonl(Box::new(Tap(buf.clone())));
        s.emit_traced(
            kinds::DEGRADED_READ,
            Some(7),
            vec![("pk", "i-1".into()), ("note", "a\"b\\c".into())],
        );
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let line = text.lines().next().unwrap();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"kind\":\"degraded.read\""));
        assert!(line.contains("\"trace_id\":7"));
        assert!(line.contains("a\\\"b\\\\c"));
    }

    #[test]
    fn disabled_sink_drops_everything() {
        let s = EventSink::disabled(Arc::new(StepClock(AtomicI64::new(0))));
        s.emit(kinds::WAL_FLUSH, vec![]);
        assert_eq!(s.total_emitted(), 0);
        assert!(s.recent().is_empty());
    }
}
