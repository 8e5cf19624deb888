//! In-memory spans for the traced run: name, start, end, parent, and a
//! trace id shared by every span of one program (or one campaign).
//! Spans are written out once, at the end, as Chrome trace-event JSON.

use dtsvliw_json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span. Times are nanoseconds since the
/// recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub trace: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans opened and closed around calls into the crates under
/// measurement. A span opened while another is open becomes its child.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace_names: BTreeMap<u64, String>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace_names: BTreeMap::new(),
        }
    }
}

impl Recorder {
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Name the track a trace id is drawn on.
    pub fn name_trace(&mut self, trace: u64, name: &str) {
        self.trace_names.insert(trace, name.to_string());
    }

    /// Open a span under the innermost open one; returns its id.
    pub fn begin(&mut self, name: &str, trace: u64) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let parent = self.open.last().map(|&i| self.spans[i].id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            trace,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        id
    }

    /// Close span `id`, which must be the innermost open span. Returns
    /// its duration in nanoseconds.
    pub fn end(&mut self, id: u64) -> u64 {
        let idx = self.open.pop().expect("end() without an open span");
        assert_eq!(self.spans[idx].id, id, "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
        self.spans[idx].duration_ns()
    }

    /// Time `f` inside a span; returns its result and the span's
    /// duration in nanoseconds.
    pub fn time<R>(&mut self, name: &str, trace: u64, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.begin(name, trace);
        let r = f();
        (r, self.end(id))
    }

    /// Add an already-closed span timed elsewhere (for example a job
    /// attempt the campaign engine recorded), as a child of `parent`.
    pub fn record(&mut self, name: &str, trace: u64, parent: u64, start_ns: u64, end_ns: u64) {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent: Some(parent),
            trace,
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }

    pub fn start_of(&self, id: u64) -> u64 {
        self.spans[(id - 1) as usize].start_ns
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON: one `X` record per span on the track
    /// of its trace id, in start order per track, plus track names.
    pub fn to_chrome_json(&self) -> Json {
        let mut out: Vec<Json> = self
            .trace_names
            .iter()
            .map(|(tid, name)| {
                Json::obj([
                    ("name", Json::Str("thread_name".into())),
                    ("ph", Json::Str("M".into())),
                    ("pid", Json::U64(1)),
                    ("tid", Json::U64(*tid)),
                    ("args", Json::obj([("name", Json::Str(name.clone()))])),
                ])
            })
            .collect();
        let mut sorted: Vec<&Span> = self.spans.iter().collect();
        sorted.sort_by_key(|s| (s.trace, s.start_ns, s.id));
        for s in sorted {
            let mut args = vec![("id", Json::U64(s.id))];
            if let Some(p) = s.parent {
                args.push(("parent", Json::U64(p)));
            }
            out.push(Json::obj([
                ("name", Json::Str(s.name.clone())),
                ("cat", Json::Str("perfbench".into())),
                ("ph", Json::Str("X".into())),
                ("ts", Json::U64(s.start_ns / 1_000)),
                ("dur", Json::U64(s.duration_ns() / 1_000)),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(s.trace)),
                ("args", Json::obj(args)),
            ]));
        }
        Json::Arr(out)
    }
}

/// Self time of every span, keyed by id: its duration minus the part
/// of its interval covered by the union of its children's intervals.
/// Overlapping children (two job slots running at once) are counted
/// once, and a child sticking out of its parent only counts inside it.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry(p)
                .or_default()
                .push((s.start_ns, s.end_ns.max(s.start_ns)));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Self time summed per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, u64> {
    let own = self_times(spans);
    let mut by_name = BTreeMap::new();
    for s in spans {
        *by_name.entry(s.name.clone()).or_insert(0) += own[&s.id];
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_are_subtracted_from_the_parent() {
        // root [0,100) ⊃ a [10,40) ⊃ b [15,25); c [50,60).
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(2), 15, 25),
            span(4, Some(1), 50, 60),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 30 - 10);
        assert_eq!(own[&2], 30 - 10);
        assert_eq!(own[&3], 10);
        assert_eq!(own[&4], 10);
        // Self times of a well-nested tree add up to the root.
        assert_eq!(own.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two slots: [10,50) and [30,70) overlap on [30,50).
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 50),
            span(3, Some(1), 30, 70),
        ];
        assert_eq!(self_times(&spans)[&1], 100 - 60);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span(1, None, 20, 80),
            span(2, Some(1), 0, 30),
            span(3, Some(1), 70, 120),
            span(4, Some(1), 90, 95),
        ];
        assert_eq!(self_times(&spans)[&1], 60 - 10 - 10);
    }

    #[test]
    fn fully_covered_parent_has_zero_self_time() {
        let spans = [
            span(1, None, 0, 10),
            span(2, Some(1), 0, 6),
            span(3, Some(1), 4, 10),
        ];
        assert_eq!(self_times(&spans)[&1], 0);
    }

    #[test]
    fn recorder_nests_and_names() {
        let mut r = Recorder::default();
        r.name_trace(7, "compress");
        let outer = r.begin("outer", 7);
        let (v, _) = r.time("inner", 7, || 41 + 1);
        assert_eq!(v, 42);
        r.end(outer);
        let s = r.spans();
        assert_eq!(s[1].parent, Some(s[0].id));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let by = self_time_by_name(s);
        assert_eq!(by["outer"] + by["inner"], s[0].duration_ns());
        let doc = r.to_chrome_json();
        assert_eq!(dtsvliw_trace::validate_perfetto(&doc), Ok(2));
    }
}
