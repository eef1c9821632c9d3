//! The benchmark's own spans around each call into the program, kept in
//! memory and written out as JSONL when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique within the run, from 1.
    pub id: u64,
    /// The enclosing span, or 0 for a root.
    pub parent: u64,
    /// The call or phase measured.
    pub name: &'static str,
    /// Start, µs since the recorder was created.
    pub start_us: u64,
    /// End, µs since the recorder was created.
    pub end_us: u64,
}

/// A thread-safe in-memory span store.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    next: AtomicU64,
    done: Mutex<Vec<SpanRecord>>,
}

/// An open span; [`Spans::end`] records it.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start_us: u64,
}

impl Open {
    /// This span's id, to parent child spans under it.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty store whose clock starts now.
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Opens a span under `parent` (0 for a root).
    pub fn begin(&self, name: &'static str, parent: u64) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_us: self.now_us(),
        }
    }

    /// Closes and records a span.
    pub fn end(&self, open: Open) {
        let rec = SpanRecord {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_us: open.start_us,
            end_us: self.now_us(),
        };
        self.done.lock().expect("span store poisoned").push(rec);
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<T>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, parent);
        let out = f();
        self.end(open);
        out
    }

    /// Every recorded span, in id order.
    pub fn records(&self) -> Vec<SpanRecord> {
        let mut v = self.done.lock().expect("span store poisoned").clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Runs `f` inside a span named `name` when `at` gives a store and a
/// parent span; runs it bare otherwise.
pub fn within<T>(at: Option<(&Spans, u64)>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match at {
        Some((spans, parent)) => spans.time(name, parent, f),
        None => f(),
    }
}

/// Per span name: `(count, total µs, self µs)`, where a span's self time is
/// its duration minus the union of its children's intervals.
pub fn self_times(records: &[SpanRecord]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for r in records {
        if r.parent != 0 {
            children
                .entry(r.parent)
                .or_default()
                .push((r.start_us, r.end_us));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for r in records {
        let total = r.end_us.saturating_sub(r.start_us);
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&r.id) {
            kids.sort_unstable();
            // Union of child intervals clipped to the parent.
            let mut cur: Option<(u64, u64)> = None;
            for &(s, e) in kids.iter() {
                let (s, e) = (s.max(r.start_us), e.min(r.end_us));
                if e <= s {
                    continue;
                }
                cur = match cur {
                    Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                    Some((cs, ce)) => {
                        covered += ce - cs;
                        Some((s, e))
                    }
                    None => Some((s, e)),
                };
            }
            if let Some((cs, ce)) = cur {
                covered += ce - cs;
            }
        }
        let entry = out.entry(r.name).or_default();
        entry.0 += 1;
        entry.1 += total;
        entry.2 += total - covered.min(total);
    }
    out
}

/// The spans as JSONL, one object per span.
pub fn to_jsonl(records: &[SpanRecord]) -> String {
    let mut s = String::new();
    for r in records {
        let _ = writeln!(
            s,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
            r.id, r.parent, r.name, r.start_us, r.end_us
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start_us: u64, end_us: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let records = [
            rec(1, 0, "pass", 0, 100),
            rec(2, 1, "call", 10, 40),
            rec(3, 1, "call", 30, 50),
            rec(4, 1, "call", 70, 80),
        ];
        let t = self_times(&records);
        assert_eq!(t["pass"], (1, 100, 50));
        assert_eq!(t["call"], (3, 60, 60));
    }

    #[test]
    fn recorder_nests_spans() {
        let spans = Spans::new();
        let outer = spans.begin("outer", 0);
        let inner = spans.time("inner", outer.id(), || 7);
        spans.end(outer);
        assert_eq!(inner, 7);
        let r = spans.records();
        assert_eq!(r.len(), 2);
        assert_eq!(r[1].parent, r[0].id);
        assert!(to_jsonl(&r).lines().count() == 2);
    }
}
