//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer; nothing inside the program is probed. They stay in memory and
//! are written as JSONL once the run ends.

use crate::stats;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
pub struct Span {
    /// Layer name, e.g. `core.compile_pattern`.
    pub name: &'static str,
    /// This span's id (1-based, unique within the run).
    pub id: u64,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<u64>,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// The input or request this span belongs to.
    pub item: String,
}

/// Collects spans for one run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// `t` in nanoseconds since the epoch.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        start: u64,
        end: u64,
        item: &str,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            name,
            id,
            parent,
            start,
            end,
            item: item.to_string(),
        });
        id
    }

    /// Opens a span starting now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<u64>, item: &str) -> u64 {
        let now = self.now();
        self.record(name, parent, now, now, item)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: u64) {
        let now = self.now();
        self.spans[id as usize - 1].end = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        item: &str,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, parent, item);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Start of span `id`.
    pub fn start_of(&self, id: u64) -> u64 {
        self.spans[id as usize - 1].start
    }

    /// Length of span `id` in nanoseconds.
    pub fn duration(&self, id: u64) -> f64 {
        let s = &self.spans[id as usize - 1];
        (s.end - s.start) as f64
    }

    /// Total self time per span name, in nanoseconds: each span's length
    /// minus what its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len() + 1];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start, s.end));
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) +=
                stats::self_time(s.start, s.end, &children[s.id as usize]);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"item\": \"{}\"}}",
                s.name,
                s.id,
                s.start,
                s.end,
                oneq_service::json::escape(&s.item)
            )?;
        }
        out.flush()
    }
}
