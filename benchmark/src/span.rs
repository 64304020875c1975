//! In-memory span recorder: the benchmark's tracing layer.
//!
//! Spans are opened and closed from the benchmark's own files around
//! calls into the SDAM crates; nothing inside the crates is
//! instrumented. A span is named `<crate>.<what>` after the crate whose
//! public function it wraps, which is how per-layer shares are formed.
//! A disabled recorder records nothing and costs one branch per span,
//! so untraced and traced passes run the same code.

use std::collections::BTreeMap;
use std::time::Instant;

/// How a span relates to the workload's own work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A call the workload makes; its self time belongs to its crate.
    Layer,
    /// A whole that [`Kind::Shadow`] spans decompose (one
    /// `Machine::run`); only the part the shadows do not explain is
    /// attributed to its own crate.
    Whole,
    /// Work re-run from outside purely to decompose a [`Kind::Whole`]
    /// span. Excluded from the tracing-overhead comparison.
    Shadow,
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<crate>.<what>`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start: u64,
    /// Nanoseconds since the recorder's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Identifier shared by the spans of one unit of work (a cell, a
    /// run, a tenant op).
    pub cell: u32,
    /// Attribution rule.
    pub kind: Kind,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

/// Collects spans while enabled.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    cell: u32,
}

impl Recorder {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            cell: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the unit-of-work id stamped on spans opened from now on.
    pub fn set_cell(&mut self, cell: u32) {
        self.cell = cell;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a [`Kind::Layer`] span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.span_kind(name, Kind::Layer, f)
    }

    /// Runs `f` inside a span of the given kind; spans `f` opens nest
    /// under it.
    pub fn span_kind<T>(
        &mut self,
        name: &'static str,
        kind: Kind,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            cell: self.cell,
            kind,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let end = self.now();
        self.spans[idx as usize].end = end;
        out
    }

    /// Takes the recorded spans, leaving the recorder empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor).min(s.end);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Per-name totals over a pass: (self seconds, span count).
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (f64, u64)> {
    let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for (s, st) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += st as f64 * 1e-9;
        e.1 += 1;
    }
    out
}

/// Seconds attributed to each crate (the text before the first `.` of a
/// span name): self time of layer spans, full duration of shadow spans,
/// and the part of whole spans their shadows do not explain.
pub fn layer_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut whole: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut shadow = 0.0;
    for (s, st) in spans.iter().zip(self_times(spans)) {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        match s.kind {
            Kind::Layer => *out.entry(layer).or_default() += st as f64 * 1e-9,
            Kind::Shadow => {
                *out.entry(layer).or_default() += s.secs();
                shadow += s.secs();
            }
            Kind::Whole => *whole.entry(layer).or_default() += s.secs(),
        }
    }
    let whole_total: f64 = whole.values().sum();
    for (layer, secs) in whole {
        // Shadows decompose the wholes; what they leave unexplained is
        // the wholes' own crate (clock replay and staging).
        let residual = (secs - shadow * secs / whole_total).max(0.0);
        *out.entry(layer).or_default() += residual;
    }
    out
}

/// Seconds spent in spans of one kind.
pub fn kind_seconds(spans: &[Span], kind: Kind) -> f64 {
    spans
        .iter()
        .filter(|s| s.kind == kind)
        .map(Span::secs)
        .sum()
}

/// Seconds covered by top-level spans (the pass time the named layers
/// account for).
pub fn covered_seconds(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::secs)
        .sum()
}

/// Writes spans as compact JSON rows `[name, start_ns, end_ns, parent,
/// cell, kind]` with a name table (about 40 bytes a span: a 460 k-op
/// churn pass writes under 20 MB).
pub fn spans_json(spans: &[Span]) -> String {
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let mut out = String::from("{\"names\": [");
    for (i, n) in names.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{n}\""));
    }
    out.push_str("], \"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"cell\", \"kind\"], \"rows\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let name = names.binary_search(&s.name).unwrap_or(0);
        let parent = s.parent.map_or(-1, i64::from);
        let kind = match s.kind {
            Kind::Layer => "l",
            Kind::Whole => "w",
            Kind::Shadow => "s",
        };
        let sep = if i + 1 == spans.len() { "" } else { "," };
        out.push_str(&format!(
            "[{name},{},{},{parent},{},\"{kind}\"]{sep}\n",
            s.start, s.end, s.cell
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, kind: Kind) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            cell: 0,
            kind,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("a.outer", 0, 100, None, Kind::Layer),
            span("b.inner", 10, 30, Some(0), Kind::Layer),
            span("c.inner", 50, 90, Some(0), Kind::Layer),
            span("d.leaf", 60, 70, Some(2), Kind::Layer),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("a.outer", 0, 100, None, Kind::Layer),
            span("b.x", 10, 60, Some(0), Kind::Layer),
            span("b.y", 40, 80, Some(0), Kind::Layer),
            span("b.z", 90, 150, Some(0), Kind::Layer),
        ];
        // Children cover [10, 80) and [90, 100) of the parent.
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn layers_group_by_crate_prefix() {
        let spans = vec![
            span("core.cell", 0, 1_000_000_000, None, Kind::Layer),
            span("sys.execute", 0, 600_000_000, Some(0), Kind::Layer),
            span("ml.select", 600_000_000, 700_000_000, Some(0), Kind::Layer),
        ];
        let l = layer_seconds(&spans);
        assert!((l["core"] - 0.3).abs() < 1e-9);
        assert!((l["sys"] - 0.6).abs() < 1e-9);
        assert!((l["ml"] - 0.1).abs() < 1e-9);
        let t = totals_by_name(&spans);
        assert_eq!(t["sys.execute"].1, 1);
    }

    #[test]
    fn shadows_decompose_wholes() {
        let spans = vec![
            span("hbm.service", 0, 300, None, Kind::Shadow),
            span("mapping.translate", 300, 400, None, Kind::Shadow),
            span("sys.run", 400, 900, None, Kind::Whole),
        ];
        let l = layer_seconds(&spans);
        assert!((l["hbm"] - 300e-9).abs() < 1e-15);
        assert!((l["mapping"] - 100e-9).abs() < 1e-15);
        assert!((l["sys"] - 100e-9).abs() < 1e-15, "500 - 400 explained");
        assert!((kind_seconds(&spans, Kind::Shadow) - 400e-9).abs() < 1e-15);
        assert!((kind_seconds(&spans, Kind::Whole) - 500e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let v = r.span("a.b", |r| r.span("c.d", |_| 7));
        assert_eq!(v, 7);
        assert!(r.take().is_empty());
        let mut r = Recorder::new(true);
        r.set_cell(3);
        r.span("a.b", |r| r.span("c.d", |_| ()));
        let s = r.take();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].cell, 3);
        assert!(spans_json(&s).contains("\"a.b\""));
    }
}
