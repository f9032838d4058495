//! The harness's own span recorder for the traced run.
//!
//! Every call the harness makes — an op through the front door, a layer
//! replay call — is wrapped in a span: name, start, end, the span that
//! caused it, and the id of the op it belongs to. The spans the program
//! records for a traced query ([`adj_service::Trace`]) are adopted as
//! children of the op that produced them. Everything stays in memory
//! until the run ends and is then written once, as Chrome trace-event JSON.

use adj_service::Trace;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Lane (Chrome `tid`) of the harness's own spans. The program's lanes —
/// coordinator 0, worker `w` at `w + 1` — are shifted past it.
const HARNESS_LANE: u32 = 0;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub lane: u32,
    pub start_us: u64,
    pub end_us: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The op this span belongs to; spans of one op share it.
    pub op: u64,
}

/// In-memory span log. A disabled log records nothing, so the untraced
/// rounds of a traced run pay one branch per call.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str, op: u64) {
        if !self.enabled {
            return;
        }
        let now = self.now_us();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name: name.to_string(),
            lane: HARNESS_LANE,
            start_us: now,
            end_us: now,
            parent,
            op,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_us = self.now_us();
    }

    /// Adopts the program's own timeline of one traced query as children of
    /// the innermost open span. The program's clock starts at the query's
    /// submission, which is when that span was opened.
    pub fn adopt(&mut self, trace: &Trace) {
        if !self.enabled {
            return;
        }
        let parent = *self.open.last().expect("adopt under an open span");
        let (base, op) = (self.spans[parent].start_us, self.spans[parent].op);
        for e in trace.events.iter().filter(|e| e.span) {
            self.spans.push(Span {
                name: e.name.to_string(),
                lane: e.lane + 1,
                start_us: base + e.start_us,
                end_us: base + e.start_us + e.dur_us,
                parent: Some(parent),
                op,
            });
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Renders the log as a Chrome trace-event JSON array: one complete
    /// (`"ph":"X"`) event per span, whose `args` carry the span's own index,
    /// its parent's, and the op id.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[\n");
        let mut lanes: Vec<u32> = self.spans.iter().map(|s| s.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        for lane in lanes {
            let name = match lane {
                HARNESS_LANE => "harness".to_string(),
                1 => "coordinator".to_string(),
                w => format!("worker {}", w - 2),
            };
            let _ = writeln!(
                out,
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{lane},\
                 \"args\":{{\"name\":\"{name}\"}}}},"
            );
        }
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"op\":{}}}}}{sep}",
                s.name,
                s.lane,
                s.start_us,
                s.end_us - s.start_us,
                s.op
            );
        }
        out.push(']');
        out
    }

    /// Writes [`Spans::to_chrome_json`] to `path`, creating its directory.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, self.to_chrome_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_render() {
        let mut s = Spans::new(true);
        s.enter("op", 7);
        s.enter("layer", 7);
        s.exit();
        s.exit();
        s.enter("op", 8);
        s.exit();
        assert_eq!(s.len(), 3);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[2].parent, None);
        assert!(s.spans[0].end_us >= s.spans[1].end_us);
        let json = s.to_chrome_json();
        assert!(json.contains("\"name\":\"layer\""));
        assert!(json.contains("\"parent\":0,\"op\":7"));
        assert!(json.trim_end().ends_with(']'));
        assert!(!json.contains("},\n]"));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut s = Spans::new(false);
        s.enter("op", 1);
        s.exit();
        assert!(s.is_empty());
        assert_eq!(s.to_chrome_json(), "[\n]");
    }
}
