//! Span-folding profiler: fold finished span trees into cumulative
//! self/total-time profiles per call stack.
//!
//! A [`Profile`] is built from a slice of [`SpanRecord`]s (normally a
//! tracer's retained ring). Each span contributes its duration to the
//! *stack* named by walking its parent links — `"request;handler;query"`
//! — and its **self time** is its duration minus the summed durations of
//! its direct children, clamped at zero. Folding is pure arithmetic over
//! the records: driven by a manual clock it is deterministic, which is
//! what E21 pins down.
//!
//! [`Profile::collapsed`] renders the standard collapsed-stack text
//! (`stack self_ms` per line, `;`-separated frames) that flamegraph
//! tooling consumes directly; [`Profile::render_text`] is the
//! human-readable table behind `Probe{"profile"}` and `gallery profile`.
//!
//! Spans whose parent is no longer retained (it fell off the tracer's
//! bounded ring) are folded as roots of their remaining subtree — a
//! truncated stack beats a dropped sample.

use crate::trace::SpanRecord;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Cumulative statistics for one distinct call stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameStats {
    /// `;`-separated span names, root first (collapsed-stack convention).
    pub stack: String,
    /// Time spent in this frame itself, excluding direct children (ms).
    pub self_ms: u64,
    /// Wall time of the frame including children (ms).
    pub total_ms: u64,
    /// How many spans folded into this stack.
    pub count: u64,
}

/// A folded profile: one [`FrameStats`] per distinct stack, sorted by
/// stack name so every rendering of the same spans is byte-identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    frames: Vec<FrameStats>,
}

impl Profile {
    /// Fold finished spans into a profile. Order of the input does not
    /// matter; parent links are resolved by span id.
    pub fn fold(spans: &[SpanRecord]) -> Profile {
        // Sum of direct children's durations per parent, for self time.
        let mut child_total: HashMap<u64, i64> = HashMap::new();
        for s in spans {
            if let Some(parent) = s.parent_span_id {
                *child_total.entry(parent).or_insert(0) += (s.end_ms - s.start_ms).max(0);
            }
        }
        let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.span_id, s)).collect();
        let mut agg: HashMap<String, (i64, i64, u64)> = HashMap::new();
        for s in spans {
            let mut names = vec![s.name];
            let mut cursor = s.parent_span_id;
            // The hop cap defends against malformed parent cycles; real
            // traces are far shallower.
            let mut hops = 0;
            while let (Some(parent), true) = (cursor, hops < 64) {
                match by_id.get(&parent) {
                    Some(p) => {
                        names.push(p.name);
                        cursor = p.parent_span_id;
                    }
                    // Parent evicted from the ring: fold as a root.
                    None => break,
                }
                hops += 1;
            }
            names.reverse();
            let stack = names.join(";");
            let total = (s.end_ms - s.start_ms).max(0);
            let self_time = (total - child_total.get(&s.span_id).copied().unwrap_or(0)).max(0);
            let entry = agg.entry(stack).or_insert((0, 0, 0));
            entry.0 += self_time;
            entry.1 += total;
            entry.2 += 1;
        }
        let mut frames: Vec<FrameStats> = agg
            .into_iter()
            .map(|(stack, (self_ms, total_ms, count))| FrameStats {
                stack,
                self_ms: self_ms as u64,
                total_ms: total_ms as u64,
                count,
            })
            .collect();
        frames.sort_by(|a, b| a.stack.cmp(&b.stack));
        Profile { frames }
    }

    /// All frames, sorted by stack name.
    pub fn frames(&self) -> &[FrameStats] {
        &self.frames
    }

    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Frames ranked by self time, heaviest first (ties break by stack
    /// name, so the ranking is total and deterministic).
    pub fn top_self(&self) -> Vec<&FrameStats> {
        let mut ranked: Vec<&FrameStats> = self.frames.iter().collect();
        ranked.sort_by(|a, b| b.self_ms.cmp(&a.self_ms).then(a.stack.cmp(&b.stack)));
        ranked
    }

    /// Collapsed-stack text: one `stack self_ms` line per frame, sorted
    /// by stack — the format flamegraph tools ingest directly.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for f in &self.frames {
            let _ = writeln!(out, "{} {}", f.stack, f.self_ms);
        }
        out
    }

    /// Human-readable table, heaviest self time first.
    pub fn render_text(&self) -> String {
        let spans: u64 = self.frames.iter().map(|f| f.count).sum();
        let self_total: u64 = self.frames.iter().map(|f| f.self_ms).sum();
        let mut out = format!(
            "# span profile: {} frames, {} spans, {} ms total self time\n",
            self.frames.len(),
            spans,
            self_total
        );
        let _ = writeln!(
            out,
            "{:>9} {:>9} {:>7}  STACK",
            "SELF_MS", "TOTAL_MS", "COUNT"
        );
        for f in self.top_self() {
            let _ = writeln!(
                out,
                "{:>9} {:>9} {:>7}  {}",
                f.self_ms, f.total_ms, f.count, f.stack
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Clock, Tracer};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    struct StepClock {
        now: AtomicU64,
        step: u64,
    }

    impl StepClock {
        fn new(t0: i64, step: u64) -> Arc<Self> {
            Arc::new(StepClock {
                now: AtomicU64::new(t0 as u64),
                step,
            })
        }
    }

    impl Clock for StepClock {
        fn now_ms(&self) -> i64 {
            self.now.fetch_add(self.step, Ordering::Relaxed) as i64
        }
    }

    fn record(
        name: &'static str,
        span_id: u64,
        parent: Option<u64>,
        start: i64,
        end: i64,
    ) -> SpanRecord {
        SpanRecord {
            name,
            trace_id: 1,
            span_id,
            parent_span_id: parent,
            start_ms: start,
            end_ms: end,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn fold_attributes_self_time_to_the_right_frames() {
        // request [0..50] with children child [10..20] and child [30..40]:
        // request self = 50 - 20 = 30; the two child spans share a stack.
        let spans = vec![
            record("child", 2, Some(1), 10, 20),
            record("child", 3, Some(1), 30, 40),
            record("request", 1, None, 0, 50),
        ];
        let p = Profile::fold(&spans);
        assert_eq!(p.len(), 2);
        let root = &p.frames()[0];
        assert_eq!(root.stack, "request");
        assert_eq!((root.self_ms, root.total_ms, root.count), (30, 50, 1));
        let leaf = &p.frames()[1];
        assert_eq!(leaf.stack, "request;child");
        assert_eq!((leaf.self_ms, leaf.total_ms, leaf.count), (20, 20, 2));
    }

    #[test]
    fn evicted_parent_folds_child_as_root() {
        let spans = vec![record("orphan", 7, Some(999), 0, 15)];
        let p = Profile::fold(&spans);
        assert_eq!(p.frames()[0].stack, "orphan");
        assert_eq!(p.frames()[0].self_ms, 15);
    }

    #[test]
    fn self_time_clamps_when_children_overlap_or_outlast_parents() {
        // Child claims more time than its parent (clock skew, overlap):
        // parent self clamps to 0 rather than going negative.
        let spans = vec![
            record("parent", 1, None, 0, 10),
            record("child", 2, Some(1), 0, 25),
        ];
        let p = Profile::fold(&spans);
        let parent = p.frames().iter().find(|f| f.stack == "parent").unwrap();
        assert_eq!(parent.self_ms, 0);
        assert_eq!(parent.total_ms, 10);
    }

    #[test]
    fn collapsed_output_is_deterministic_on_a_manual_clock() {
        let run = || {
            let tracer = Arc::new(Tracer::new(StepClock::new(0, 10)));
            let root = tracer.start_span("request");
            let handler = tracer.start_child("handler", root.context());
            let query = tracer.start_child("query", handler.context());
            query.finish();
            handler.finish();
            root.finish();
            Profile::fold(&tracer.finished_spans()).collapsed()
        };
        let text = run();
        assert_eq!(text, run(), "manual clock must make folding deterministic");
        // Three stacks, lexicographic order, self times in ms. Each
        // now_ms() reading steps by 10: root spans [0..50], handler
        // [10..40], query [20..30] → selves 20, 20, 10.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "request 20");
        assert_eq!(lines[1], "request;handler 20");
        assert_eq!(lines[2], "request;handler;query 10");
    }

    #[test]
    fn injected_hot_spot_ranks_first_by_self_time() {
        // Every now_ms reading advances 1 ms, so each short span burns
        // 2 ms of wall clock but only 1 ms of its own duration — the
        // other 1 ms lands in the *enclosing* frame's self time.
        let tracer = Arc::new(Tracer::new(StepClock::new(0, 1)));
        for _ in 0..5 {
            tracer.start_span("background").finish(); // 1 ms self each
        }
        let root = tracer.start_span("request");
        let hot = tracer.start_child("hot-spot", root.context());
        for _ in 0..20 {
            tracer.start_child("noise", hot.context()).finish();
        }
        hot.finish();
        root.finish();

        // hot-spot spans 41 readings and its children cover 20 of them:
        // 21 ms self, above both the noise frame (20) and background (5).
        let profile = Profile::fold(&tracer.finished_spans());
        let top = profile.top_self();
        assert_eq!(top[0].stack, "request;hot-spot");
        assert_eq!(top[0].self_ms, 21);
        assert_eq!(top[1].stack, "request;hot-spot;noise");
        assert_eq!((top[1].self_ms, top[1].count), (20, 20));
        // render_text leads with the heaviest frame right under the header.
        let text = profile.render_text();
        assert!(text.starts_with("# span profile:"), "{text}");
        let ranked_first = text.lines().nth(2).unwrap();
        assert!(ranked_first.ends_with("request;hot-spot"), "{text}");
    }
}
