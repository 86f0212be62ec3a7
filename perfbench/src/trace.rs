//! In-memory span recorder for the traced run.
//!
//! Every span has a name, start, end, parent and a per-request id
//! (spans of one served session share it). Spans are recorded only from
//! this benchmark's files, around calls into each layer's public API;
//! they are kept in memory and written out once, when the run ends. A
//! layer's self time is its span minus the part of that interval its
//! child spans cover.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Clone, Debug)]
struct Span {
    name: String,
    start: Duration,
    end: Option<Duration>,
    parent: Option<SpanId>,
    request: u64,
}

/// Thread-safe span log with one time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&self, name: impl Into<String>, parent: Option<SpanId>, request: u64) -> SpanId {
        let start = self.origin.elapsed();
        let mut spans = self.lock();
        spans.push(Span {
            name: name.into(),
            start,
            end: None,
            parent,
            request,
        });
        spans.len() - 1
    }

    pub fn end(&self, id: SpanId) {
        let end = self.origin.elapsed();
        self.lock()[id].end = Some(end);
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<R>(
        &self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let out = f(id);
        self.end(id);
        out
    }

    /// Wall seconds of a closed span.
    pub fn seconds(&self, id: SpanId) -> f64 {
        let spans = self.lock();
        let s = &spans[id];
        (s.end.expect("span closed") - s.start).as_secs_f64()
    }

    /// The span's duration minus the union of its children's intervals.
    pub fn self_seconds(&self, id: SpanId) -> f64 {
        let spans = self.lock();
        let s = &spans[id];
        let end = s.end.expect("span closed");
        let mut children: Vec<(Duration, Duration)> = spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start.max(s.start), c.end.unwrap_or(end).min(end)))
            .filter(|(a, b)| a < b)
            .collect();
        children.sort();
        let mut covered = Duration::ZERO;
        let mut reach = s.start;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (end - s.start).saturating_sub(covered).as_secs_f64()
    }

    /// Self seconds of every closed span named `name`, in record order.
    pub fn self_seconds_named(&self, name: &str) -> Vec<f64> {
        let ids: Vec<SpanId> = {
            let spans = self.lock();
            (0..spans.len())
                .filter(|&i| spans[i].name == name && spans[i].end.is_some())
                .collect()
        };
        ids.into_iter().map(|id| self.self_seconds(id)).collect()
    }

    /// The most recently opened span named `name`.
    pub fn last_named(&self, name: &str) -> Option<SpanId> {
        self.lock().iter().rposition(|s| s.name == name)
    }

    /// Writes every span as a tab-separated line:
    /// `id parent request name start_ns end_ns self_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let count = self.lock().len();
        let mut body = String::from("id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns\n");
        for id in 0..count {
            let s = self.lock()[id].clone();
            let Some(end) = s.end else { continue };
            body.push_str(&format!(
                "{id}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                s.parent.map_or("-".to_string(), |p| p.to_string()),
                s.request,
                s.name,
                s.start.as_nanos(),
                end.as_nanos(),
                (self.self_seconds(id) * 1e9) as u64,
            ));
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(body.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new();
        let root = t.span("root", None, 0, |root| {
            t.span("child", Some(root), 0, |_| {
                std::thread::sleep(Duration::from_millis(20))
            });
            std::thread::sleep(Duration::from_millis(5));
            root
        });
        let total = t.seconds(root);
        let own = t.self_seconds(root);
        assert!(total >= 0.025);
        assert!(own < total - 0.015, "self {own} total {total}");
        assert_eq!(t.self_seconds_named("child").len(), 1);
    }
}
