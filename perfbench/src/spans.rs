//! Benchmark-side spans around calls into the program's layers.
//!
//! A span records a name, its start and end, and the span that was open
//! when it began (its parent). Spans are kept in memory and written out
//! when the run ends; nothing is recorded unless [`enable`] was called,
//! so the untraced run pays one relaxed load per span site.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// The layer call the span covers.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; closes (and is recorded) when dropped.
pub struct Guard(Option<(u64, u64, &'static str, u64)>);

/// Opens a span named `name` under this thread's innermost open span.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Guard(Some((id, parent, name, now_ns())))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, start_ns)) = self.0.take() else {
            return;
        };
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == id) {
                s.truncate(pos);
            }
        });
        let span = Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        };
        SPANS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(span);
    }
}

/// Id of this thread's innermost open span (0 when none or disabled).
pub fn current() -> u64 {
    STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// Makes `parent` (a span open on another thread) the enclosing span of
/// spans opened on this thread until the returned guard drops — how work
/// handed to a worker pool stays attributed to the span that submitted it.
pub fn adopt(parent: u64) -> Adopted {
    if parent != 0 {
        STACK.with(|s| s.borrow_mut().push(parent));
    }
    Adopted(parent)
}

/// Guard returned by [`adopt`].
pub struct Adopted(u64);

impl Drop for Adopted {
    fn drop(&mut self) {
        if self.0 != 0 {
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(pos) = s.iter().rposition(|&x| x == self.0) {
                    s.truncate(pos);
                }
            });
        }
    }
}

/// Removes and returns every span recorded so far, ordered by start.
pub fn take() -> Vec<Span> {
    let mut v = std::mem::take(
        &mut *SPANS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    v.sort_by_key(|s| (s.start_ns, s.id));
    v
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap one another (work that
/// ran on a pool), so the covered part is the union of their intervals,
/// clipped to the parent's.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Per-name totals: `(calls, inclusive ns, self ns)`, by name.
pub fn budget(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += selfs.get(&s.id).copied().unwrap_or(0);
    }
    out
}

/// Span durations in microseconds, per name.
pub fn durations_us(spans: &[Span]) -> HashMap<&'static str, Vec<f64>> {
    let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for s in spans {
        out.entry(s.name)
            .or_default()
            .push(s.duration_ns() as f64 / 1e3);
    }
    out
}

/// Renders the self-time budget as a table; shares are of the summed self
/// time, which equals the wall time the root spans cover on one thread.
pub fn render_budget(title: &str, spans: &[Span]) -> String {
    let budget = budget(spans);
    let total_self: u64 = budget.values().map(|v| v.2).sum::<u64>().max(1);
    let mut rows: Vec<_> = budget.into_iter().collect();
    rows.sort_by(|a, b| b.1 .2.cmp(&a.1 .2).then(a.0.cmp(b.0)));
    let mut s = format!(
        "== layer budget: {title} ==\n{:<28} {:>10} {:>12} {:>12} {:>7}\n",
        "span", "calls", "incl_ms", "self_ms", "self%"
    );
    for (name, (calls, incl, selfns)) in rows {
        s.push_str(&format!(
            "{:<28} {:>10} {:>12.3} {:>12.3} {:>6.1}%\n",
            name,
            calls,
            incl as f64 / 1e6,
            selfns as f64 / 1e6,
            100.0 * selfns as f64 / total_self as f64
        ));
    }
    s
}

/// Writes spans as JSON lines (`id`, `parent`, `name`, `start_ns`,
/// `end_ns`).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) > a [10,40) > b [20,30); root > c [50,60).
        let spans = vec![
            sp(1, 0, "root", 0, 100),
            sp(2, 1, "a", 10, 40),
            sp(3, 2, "b", 20, 30),
            sp(4, 1, "c", 50, 60),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 60);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&3], 10);
        assert_eq!(st[&4], 10);
        // Self times of one thread's tree sum to the root's wall time.
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Two pool workers overlap inside the wave; one outlives it.
        let spans = vec![
            sp(1, 0, "wave", 0, 100),
            sp(2, 1, "job", 10, 60),
            sp(3, 1, "job", 40, 90),
            sp(4, 1, "job", 95, 130),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 80 - 5);
        let b = budget(&spans);
        assert_eq!(b["job"].0, 3);
        assert_eq!(b["job"].1, 50 + 50 + 35);
    }

    #[test]
    fn recorder_nests_by_thread_and_adopts_across_threads() {
        enable();
        let _ = take();
        {
            let _root = span("test.root");
            let root_id = current();
            {
                let _child = span("test.child");
            }
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _a = adopt(root_id);
                    let _w = span("test.worker");
                });
            });
        }
        let spans: Vec<Span> = take()
            .into_iter()
            .filter(|s| s.name.starts_with("test."))
            .collect();
        let root = spans.iter().find(|s| s.name == "test.root").unwrap();
        assert_eq!(root.parent, 0);
        for name in ["test.child", "test.worker"] {
            let s = spans.iter().find(|s| s.name == name).unwrap();
            assert_eq!(s.parent, root.id, "{name}");
            assert!(s.start_ns >= root.start_ns && s.end_ns <= root.end_ns);
        }
    }
}
