//! In-memory span recorder for the traced run.
//!
//! A span is one call from the benchmark into a layer's public
//! function: its name, start and end (nanoseconds since the run
//! started), the span that was open when it began (its parent), and
//! the operation it belongs to — every span of one request or campaign
//! shares that operation's id. Nothing inside the program is
//! instrumented; spans only wrap calls made from these files.
//!
//! Recording is off unless [`set_enabled`] turned it on, in which case
//! [`span`] costs two clock reads and one push. Spans stay in memory
//! and are written out once, by [`write_jsonl`], when the run ends.

use std::cell::RefCell;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Recorder {
    enabled: bool,
    origin: Instant,
    next_id: u64,
    op: u64,
    open: Vec<u64>,
    done: Vec<Span>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        origin: Instant::now(),
        next_id: 1,
        op: 0,
        open: Vec::new(),
        done: Vec::new(),
    });
}

/// Turns recording on or off for the spans opened from now on.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().enabled = on);
}

/// Starts a new operation: spans opened from now on share its id.
pub fn new_op() -> u64 {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.op += 1;
        r.op
    })
}

/// An open span; it ends when dropped.
pub struct Guard {
    live: Option<(u64, Option<u64>, &'static str, u64)>,
}

/// Opens a span named `name` under the innermost open span.
pub fn span(name: &'static str) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return Guard { live: None };
        }
        let id = r.next_id;
        r.next_id += 1;
        let parent = r.open.last().copied();
        r.open.push(id);
        let start = r.origin.elapsed().as_nanos() as u64;
        Guard {
            live: Some((id, parent, name, start)),
        }
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, start_ns)) = self.live.take() else {
            return;
        };
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end_ns = r.origin.elapsed().as_nanos() as u64;
            if let Some(at) = r.open.iter().rposition(|&o| o == id) {
                r.open.truncate(at);
            }
            let op = r.op;
            r.done.push(Span {
                id,
                parent,
                op,
                name,
                start_ns,
                end_ns,
            });
        });
    }
}

/// Times `f` under a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}

/// Number of spans recorded so far.
pub fn count() -> usize {
    REC.with(|r| r.borrow().done.len())
}

/// Writes every recorded span as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::new();
    REC.with(|r| {
        for s in &r.borrow().done {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.op, s.name, s.start_ns, s.end_ns
            );
        }
    });
    std::fs::write(path, out)
}
