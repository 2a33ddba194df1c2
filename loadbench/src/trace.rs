//! Spans recorded by the benchmark's own wrappers around the calls into
//! each layer. A span has a name, a start, an end, the span that caused
//! it and the id of the operation it belongs to. Spans are kept in memory
//! and written out when the run ends.
//!
//! Only sampled operations record spans: the wrappers check one
//! thread-local flag and otherwise pass straight through, which is what
//! keeps a traced run within 15% of an untraced one.

use std::cell::RefCell;
use std::io::{self, Write};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Id of the operation this span belongs to.
    pub op: u32,
    /// Position of the causing span in the sink, or `NO_PARENT`.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub const NO_PARENT: u32 = u32::MAX;

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where spans of all threads end up.
pub struct SpanSink {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

struct Ctx {
    op: u32,
    /// Open spans of the current operation, innermost last.
    open: Vec<u32>,
}

thread_local! {
    /// `Some` while this thread runs a sampled operation.
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// True while the calling thread is inside a sampled operation.
pub fn sampling() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

impl SpanSink {
    pub fn new() -> Self {
        SpanSink {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` as sampled operation `op`: every wrapper it passes through
    /// records a span, nested under a root span called `name`.
    pub fn sampled<T>(&self, op: u32, name: &'static str, f: impl FnOnce() -> T) -> T {
        CTX.with(|c| {
            *c.borrow_mut() = Some(Ctx {
                op,
                open: Vec::new(),
            })
        });
        let out = self.span(name, f);
        CTX.with(|c| *c.borrow_mut() = None);
        out
    }

    /// Time `f` as a span if the thread is sampling; otherwise just run it.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let opened = CTX.with(|c| {
            let mut c = c.borrow_mut();
            let ctx = c.as_mut()?;
            let parent = ctx.open.last().copied().unwrap_or(NO_PARENT);
            let mut spans = self.spans.lock().expect("span sink lock");
            let id = spans.len() as u32;
            spans.push(Span {
                name,
                op: ctx.op,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            ctx.open.push(id);
            Some(id)
        });
        let Some(id) = opened else { return f() };
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        CTX.with(|c| {
            if let Some(ctx) = c.borrow_mut().as_mut() {
                ctx.open.pop();
            }
        });
        let mut spans = self.spans.lock().expect("span sink lock");
        spans[id as usize].start_ns = start;
        spans[id as usize].end_ns = end;
        out
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink lock").clone()
    }

    /// One JSON object per line: `{"id":3,"op":150,"name":"transport",
    /// "parent":2,"start_ns":…,"end_ns":…}`; `parent` is `null` for a root.
    pub fn write_jsonl(&self, out: &mut dyn Write) -> io::Result<()> {
        for (id, s) in self.snapshot().iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                r#"{{"id":{id},"op":{},"name":"{}","parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_only_when_sampling() {
        let sink = SpanSink::new();
        assert_eq!(sink.span("ignored", || 1), 1);
        assert!(sink.snapshot().is_empty());
        let out = sink.sampled(42, "client.get", || {
            assert!(sampling());
            sink.span("transport", || sink.span("fs.wal.sync", || 7))
        });
        assert_eq!(out, 7);
        assert!(!sampling());
        let spans = sink.snapshot();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            names,
            vec![
                ("client.get", NO_PARENT, 42),
                ("transport", 0, 42),
                ("fs.wal.sync", 1, 42)
            ]
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut text = Vec::new();
        sink.write_jsonl(&mut text).unwrap();
        let text = String::from_utf8(text).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().next().unwrap().contains(r#""parent":null"#));
    }
}
