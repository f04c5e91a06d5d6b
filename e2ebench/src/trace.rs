//! In-memory spans for the traced run. Spans are recorded by the benchmark
//! around its calls into each layer's public functions (the library itself
//! is not instrumented), kept in memory while the run measures, and written
//! out as JSON lines when it ends.

use std::borrow::Cow;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `serve`, `prepare`, `live.append`.
    pub name: Cow<'static, str>,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The request this span belongs to (`None` for set-up work).
    pub request: Option<u64>,
}

impl Span {
    /// The span's wall-clock duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Span recorder of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(1 << 16) }
    }
}

impl Tracer {
    /// Record a span over `[start, end]`.
    pub fn record(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.into(),
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = f();
        self.record(name, start, Instant::now(), None, request);
        value
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration).collect()
    }

    /// A span's self time: its duration minus the time its direct children
    /// cover.
    pub fn self_time(&self, id: SpanId) -> Duration {
        let children: Duration = self.spans[id + 1..]
            .iter()
            .take_while(|s| s.start <= self.spans[id].end)
            .filter(|s| s.parent == Some(id))
            .map(Span::duration)
            .sum();
        self.spans[id].duration().saturating_sub(children)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut tracer = Tracer::default();
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let parent = tracer.record("serve", t0, t0 + ms(10), None, Some(1));
        tracer.record("serve.exec", t0 + ms(2), t0 + ms(9), Some(parent), Some(1));
        tracer.record("serve", t0 + ms(11), t0 + ms(12), None, Some(2));
        assert_eq!(tracer.self_time(parent), ms(3));
        assert_eq!(tracer.durations("serve"), vec![ms(10), ms(1)]);
    }
}
