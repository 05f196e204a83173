//! Spans recorded around the calls into each layer, from the benchmark's
//! side only: wrappers implement the library's `Executor`, `Stage` and
//! `ReportSource` traits by forwarding to the real implementations, so the
//! library runs unchanged.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mcim_oracles::exec::{Exec, Executor, FoldReport, Stage};
use mcim_oracles::stream::ReportSource;
use mcim_oracles::wire::{StageSpec, WireReader, WireState};
use mcim_oracles::Result;
use rand::rngs::StdRng;

/// Span names: the wrapped call each span times.
pub const FRAMEWORK_PIPELINE: &str = "Framework::execute_on";
/// Root span of a top-k run.
pub const TOPK_PIPELINE: &str = "mcim_topk::execute_on";
/// One `Executor::fold` (in-process or on the coordinator).
pub const FOLD: &str = "Executor::fold";
/// One `Stage::fold` call: a shard fragment.
pub const STAGE_FOLD: &str = "Stage::fold";
/// One `Stage::merge` call.
pub const STAGE_MERGE: &str = "Stage::merge";
/// One `ReportSource::fill` call on the pipeline's input.
pub const FILL: &str = "ReportSource::fill";

/// One timed interval. `parent_id` 0 marks a root span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The traced run this span belongs to.
    pub run_id: u32,
    /// Unique within the tracer, starting at 1.
    pub span_id: u64,
    /// The span that caused this one, or 0.
    pub parent_id: u64,
    /// The wrapped call.
    pub name: &'static str,
    /// Small per-process index of the recording thread.
    pub thread: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The last fold's accumulator probed through its wire codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct PartialProbe {
    /// `WireState::save` size in bytes.
    pub bytes: usize,
    /// `WireState::load` time in nanoseconds.
    pub load_ns: u64,
    /// Whether load followed by save reproduced the bytes.
    pub round_trips: bool,
}

/// In-memory span store plus the counts taken at the same boundaries.
pub struct Tracer {
    epoch: Instant,
    run_id: AtomicU32,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    items_folded: AtomicU64,
    degraded_folds: AtomicU64,
    partial: Mutex<Option<PartialProbe>>,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// Open spans on this thread, innermost last: the default parent.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            run_id: AtomicU32::new(0),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            items_folded: AtomicU64::new(0),
            degraded_folds: AtomicU64::new(0),
            partial: Mutex::new(None),
        }
    }
}

impl Tracer {
    /// Tags every span opened from now on with `run_id`.
    pub fn begin_run(&self, run_id: u32) {
        self.run_id.store(run_id, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost span open on this thread.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let parent = OPEN.with(|open| open.borrow().last().copied().unwrap_or(0));
        self.span_under(name, parent)
    }

    /// Opens a span under an explicit parent, which may live on another
    /// thread (stage folds run on the executor's worker threads).
    pub fn span_under(&self, name: &'static str, parent: u64) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push(id));
        SpanGuard {
            tracer: self,
            record: SpanRecord {
                run_id: self.run_id.load(Ordering::Relaxed),
                span_id: id,
                parent_id: parent,
                name,
                thread: THREAD.with(|t| *t),
                start_ns: self.now_ns(),
                end_ns: 0,
            },
        }
    }

    /// Every span closed so far, in closing order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Items handed to `Stage::fold` so far.
    pub fn items_folded(&self) -> u64 {
        self.items_folded.load(Ordering::Relaxed)
    }

    /// Folds whose backend reported a recovery so far.
    pub fn degraded_folds(&self) -> u64 {
        self.degraded_folds.load(Ordering::Relaxed)
    }

    /// The most recent fold's partial probe.
    pub fn last_partial(&self) -> Option<PartialProbe> {
        *self.partial.lock().expect("probe slot poisoned")
    }

    /// Saves `acc`, loads the bytes into a fresh template, and checks that
    /// saving the loaded state gives the same bytes.
    fn probe_partial<St: Stage>(&self, stage: &St, acc: &St::Acc) {
        let mut bytes = Vec::new();
        acc.save(&mut bytes);
        let mut loaded = stage.template();
        let start = Instant::now();
        let mut reader = WireReader::new(&bytes);
        let ok = loaded.load(&mut reader).and_then(|()| reader.finish());
        let load_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut again = Vec::new();
        loaded.save(&mut again);
        *self.partial.lock().expect("probe slot poisoned") = Some(PartialProbe {
            bytes: bytes.len(),
            load_ns,
            round_trips: ok.is_ok() && again == bytes,
        });
    }

    /// The spans as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
        for (i, s) in self.spans().iter().enumerate() {
            let _ = write!(
                out,
                "{}\n{{\"run_id\":{},\"span_id\":{},\"parent_id\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                if i == 0 { "" } else { "," },
                s.run_id,
                s.span_id,
                s.parent_id,
                s.name,
                s.thread,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// An open span; records itself when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    record: SpanRecord,
}

impl SpanGuard<'_> {
    /// The span's id, to parent spans opened on other threads.
    pub fn id(&self) -> u64 {
        self.record.span_id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.record.end_ns = self.tracer.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(at) = open.iter().rposition(|&id| id == self.record.span_id) {
                open.remove(at);
            }
        });
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(self.record);
        }
    }
}

/// Each span's self time: its duration minus the union of its direct
/// children's intervals (clipped to the span). Children may overlap each
/// other and run on other threads; grandchildren are already inside their
/// parents. Aligned with `spans`.
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: std::collections::BTreeMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans.iter().filter(|s| s.parent_id != 0) {
        children
            .entry(s.parent_id)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.span_id) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// The executor every run goes through. It answers `plan()` with the run's
/// own plan — so one connected coordinator serves every run seed — and,
/// when tracing, records a span around each fold and hands the backend a
/// [`TracedStage`].
pub struct BenchExecutor<'a, E> {
    inner: &'a E,
    plan: Exec,
    tracer: Option<&'a Tracer>,
}

impl<'a, E: Executor> BenchExecutor<'a, E> {
    /// Forwards folds to `inner` under `plan`.
    pub fn new(inner: &'a E, plan: Exec, tracer: Option<&'a Tracer>) -> Self {
        BenchExecutor {
            inner,
            plan,
            tracer,
        }
    }
}

impl<E: Executor> Executor for BenchExecutor<'_, E> {
    fn plan(&self) -> &Exec {
        &self.plan
    }

    fn fold<S, St>(&self, source: &mut S, stage_seed: u64, stage: &St) -> Result<St::Acc>
    where
        S: ReportSource<Item = St::Item>,
        St: Stage,
    {
        let Some(tracer) = self.tracer else {
            return self.inner.fold(source, stage_seed, stage);
        };
        let span = tracer.span(FOLD);
        let traced = TracedStage {
            inner: stage,
            tracer,
            parent: span.id(),
        };
        let acc = self.inner.fold(source, stage_seed, &traced);
        drop(span);
        if self.inner.last_fold_report().is_some_and(|r| r.degraded()) {
            tracer.degraded_folds.fetch_add(1, Ordering::Relaxed);
        }
        if let Ok(acc) = &acc {
            tracer.probe_partial(stage, acc);
        }
        acc
    }

    fn last_fold_report(&self) -> Option<FoldReport> {
        self.inner.last_fold_report()
    }
}

/// A stage that times `fold` and `merge` and forwards everything,
/// including its spec, so a distributed backend still ships the real stage.
pub struct TracedStage<'a, St> {
    inner: &'a St,
    tracer: &'a Tracer,
    parent: u64,
}

impl<St: Stage> Stage for TracedStage<'_, St> {
    type Item = St::Item;
    type Acc = St::Acc;

    fn template(&self) -> St::Acc {
        self.inner.template()
    }

    fn fold(
        &self,
        rng: &mut StdRng,
        abs: u64,
        items: &[St::Item],
        acc: &mut St::Acc,
    ) -> Result<()> {
        let _span = self.tracer.span_under(STAGE_FOLD, self.parent);
        self.tracer
            .items_folded
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        self.inner.fold(rng, abs, items, acc)
    }

    fn merge(&self, into: &mut St::Acc, from: &St::Acc) -> Result<()> {
        let _span = self.tracer.span_under(STAGE_MERGE, self.parent);
        self.inner.merge(into, from)
    }

    fn spec(&self) -> Option<StageSpec> {
        self.inner.spec()
    }
}

/// A pipeline input that times each `fill` when tracing.
pub struct TracedSource<'a, S> {
    inner: S,
    tracer: Option<&'a Tracer>,
}

impl<'a, S> TracedSource<'a, S> {
    /// Wraps `inner`.
    pub fn new(inner: S, tracer: Option<&'a Tracer>) -> Self {
        TracedSource { inner, tracer }
    }
}

impl<S: ReportSource> ReportSource for TracedSource<'_, S> {
    type Item = S::Item;

    fn fill(&mut self, buf: &mut Vec<S::Item>, max: usize) -> Result<usize> {
        let _span = self.tracer.map(|t| t.span(FILL));
        self.inner.fill(buf, max)
    }

    fn size_hint(&self) -> Option<u64> {
        self.inner.size_hint()
    }

    fn rewind(&mut self, n: u64) -> Result<bool> {
        self.inner.rewind(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, thread: u32, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            run_id: 0,
            span_id: id,
            parent_id: parent,
            name: "x",
            thread,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, 0, 0, 0, 100),
            // Two children on other threads overlapping in [20, 30).
            span(2, 1, 1, 10, 30),
            span(3, 1, 2, 20, 50),
            // A grandchild nested inside child 3 does not count twice.
            span(4, 3, 2, 25, 45),
            // A child running past its parent is clipped.
            span(5, 1, 0, 90, 130),
        ];
        // Parent: 100 − |[10, 50) ∪ [90, 100)| = 100 − 50.
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20, 40]);
    }

    #[test]
    fn spans_nest_on_one_thread_and_cross_threads_explicitly() {
        let tracer = Tracer::default();
        tracer.begin_run(3);
        let root = tracer.span("root");
        let root_id = root.id();
        {
            let _child = tracer.span("child");
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                let _remote = tracer.span_under("remote", root_id);
            });
        });
        drop(root);
        let spans = tracer.spans();
        let by_name = |n: &str| *spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("child").parent_id, root_id);
        assert_eq!(by_name("remote").parent_id, root_id);
        assert_ne!(by_name("remote").thread, by_name("root").thread);
        assert_eq!(by_name("root").parent_id, 0);
        assert!(spans
            .iter()
            .all(|s| s.run_id == 3 && s.end_ns >= s.start_ns));
        let json = tracer.to_json("w", 1);
        assert_eq!(json.matches("\"span_id\"").count(), 3);
    }
}
