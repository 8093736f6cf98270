//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only at the benchmark's own call sites, around the
//! calls into each layer's public API; nothing inside the simulator is
//! instrumented. A disabled recorder costs one branch per call site, which
//! is what the untraced (end-to-end) run pays.

use std::time::Instant;

/// One recorded interval. `parent` indexes the span that was open when this
/// one began; `iter` is the pass that recorded it (spans of one pass share
/// it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub iter: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Spans::begin`]; `None` when recording is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    iter: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans { enabled, origin: Instant::now(), iter: 0, open: Vec::new(), spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off between passes, and tags what follows
    /// with `iter`.
    pub fn start_pass(&mut self, enabled: bool, iter: u32) {
        assert!(self.open.is_empty(), "a pass must close every span it opens");
        self.enabled = enabled;
        self.iter = iter;
    }

    /// Switches recording on or off and returns what it was, so that a
    /// stretch of a pass (its warm-up) can go unrecorded.
    pub fn set_enabled(&mut self, enabled: bool) -> bool {
        std::mem::replace(&mut self.enabled, enabled)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            iter: self.iter,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    #[inline]
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Times `f` under a span named `name`.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in nanoseconds, of every span named `name` in pass `iter`.
    pub fn durations(&self, name: &str, iter: u32) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.iter == iter && s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// A span's self time: its duration minus the part its direct children
    /// cover. Children of one parent never overlap (the recorder is a
    /// stack), so the subtraction is exact.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Sum of self times per span name within pass `iter`, in first-seen
    /// order. The sum over names is the time the pass's root spans cover.
    pub fn self_time_by_name(&self, iter: u32) -> Vec<(&'static str, u64)> {
        let own = self.self_ns();
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for (s, ns) in self.spans.iter().zip(own) {
            if s.iter != iter {
                continue;
            }
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some(slot) => slot.1 += ns,
                None => out.push((s.name, ns)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut s = Spans::new(false);
        let id = s.begin("a");
        s.end(id);
        assert!(s.all().is_empty());
    }

    #[test]
    fn children_nest_inside_parents_and_self_time_is_exact() {
        let mut s = Spans::new(true);
        s.start_pass(true, 3);
        let a = s.begin("a");
        for _ in 0..3 {
            s.time("b", || std::hint::black_box((0..1000u64).sum::<u64>()));
        }
        s.end(a);
        let spans = s.all();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        for child in &spans[1..] {
            assert_eq!(child.parent, Some(0));
            assert_eq!(child.iter, 3);
            assert!(child.start_ns >= spans[0].start_ns && child.end_ns <= spans[0].end_ns);
        }
        let own = s.self_ns();
        let children: u64 = spans[1..].iter().map(Span::dur_ns).sum();
        assert_eq!(own[0] + children, spans[0].dur_ns());
        let by_name = s.self_time_by_name(3);
        assert_eq!(by_name.iter().map(|(_, ns)| ns).sum::<u64>(), spans[0].dur_ns());
        assert!(s.self_time_by_name(0).is_empty());
    }
}
