//! In-memory spans recorded by the benchmark around its calls into each
//! layer, their self times, and the span file written at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: `parent` is the span that caused it (0 = a root), and
/// spans of one replayed request share `req`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// 1-based identifier, in start order.
    pub id: u32,
    /// The replayed request this span belongs to.
    pub req: u32,
    /// Identifier of the enclosing span, 0 for a root.
    pub parent: u32,
    /// Layer-qualified name, e.g. `nn.prefix`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

/// Records nested spans; a disabled recorder only runs the closures, which
/// is how the untraced replay is timed for `trace.overhead_share`.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// A recorder that records (`enabled`) or only forwards.
    pub fn new(enabled: bool) -> Self {
        Recorder { origin: Instant::now(), enabled, spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span named `name` for request `req`; spans opened
    /// by `f` through the recorder it is handed become its children.
    pub fn span<R>(&mut self, req: u32, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        self.spans.push(Span { id, req, parent, name, start_ns: self.now_ns(), end_ns: 0 });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize - 1].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Everything recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the part of that interval its direct children cover (overlapping
/// children are not counted twice; a child is clipped to its parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Self time per span name: `(calls, total self ns)`, names in order.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let slot = out.entry(s.name).or_default();
        slot.0 += 1;
        slot.1 += self_ns;
    }
    out
}

/// Writes the span file: one JSON object whose `spans` array holds
/// `{id, req, parent, name, start_ns, end_ns, self_ns}` records.
pub fn write_span_file(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [")?;
    let self_ns = self_times_ns(spans);
    for (i, (s, own)) in spans.iter().zip(&self_ns).enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "  {{\"id\": {}, \"req\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"self_ns\": {}}}{sep}",
            s.id, s.req, s.parent, s.name, s.start_ns, s.end_ns, own
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, req: 0, parent, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_adjacent_children() {
        // request [0,100) with two back-to-back children [10,40) [40,90).
        let spans = [span(1, 0, "request", 0, 100), span(2, 1, "a", 10, 40), span(3, 1, "b", 40, 90)];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 50]);
    }

    #[test]
    fn self_time_counts_only_direct_children_of_nested_spans() {
        // request [0,100) > offload [20,80) > encode [30,50): the
        // grandchild is inside the child and must not be subtracted from
        // the root a second time.
        let spans = [span(1, 0, "request", 0, 100), span(2, 1, "offload", 20, 80), span(3, 2, "encode", 30, 50)];
        assert_eq!(self_times_ns(&spans), vec![40, 40, 20]);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped_to_the_parent() {
        let spans = [span(1, 0, "p", 10, 50), span(2, 1, "x", 0, 30), span(3, 1, "y", 20, 60)];
        // Children cover [10,50) entirely once clipped and merged.
        assert_eq!(self_times_ns(&spans)[0], 0);
    }

    #[test]
    fn recorder_nests_by_closure_scope() {
        let mut rec = Recorder::new(true);
        let v = rec.span(7, "request", |rec| {
            rec.span(7, "main", |_| 1) + rec.span(7, "offload", |rec| rec.span(7, "encode", |_| 2))
        });
        assert_eq!(v, 3);
        let s = rec.spans();
        assert_eq!(
            s.iter().map(|s| (s.id, s.parent, s.name)).collect::<Vec<_>>(),
            vec![(1, 0, "request"), (2, 1, "main"), (3, 1, "offload"), (4, 3, "encode")]
        );
        assert!(s.iter().all(|s| s.req == 7 && s.end_ns >= s.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[3].end_ns <= s[2].end_ns && s[2].end_ns <= s[0].end_ns);
        let by_name = self_time_by_name(s);
        assert_eq!(by_name["encode"].0, 1);
        let total: u64 = by_name.values().map(|v| v.1).sum();
        assert_eq!(total, s[0].end_ns - s[0].start_ns, "self times partition the root");
    }

    #[test]
    fn disabled_recorder_runs_the_closures_and_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span(0, "request", |rec| rec.span(0, "x", |_| 5)), 5);
        assert!(rec.spans().is_empty());
    }
}
