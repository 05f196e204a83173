//! A forwarding [`Executor`] that sums the per-fold reports of every fold
//! it drives, for tests that assert on a whole session of folds.

use std::cell::RefCell;

use mcim_oracles::exec::{Exec, Executor, FoldReport, Stage};
use mcim_oracles::stream::ReportSource;
use mcim_oracles::Result;

/// Drives every fold on `inner` and folds its
/// [`last_fold_report`](Executor::last_fold_report) into a running total:
/// failure counters add up, while `workers`, `workers_used` and
/// `connect_retries` track the latest fold (they describe state, not
/// events).
pub struct Session<'a, E> {
    inner: &'a E,
    total: RefCell<FoldReport>,
}

impl<'a, E: Executor> Session<'a, E> {
    pub fn new(inner: &'a E) -> Self {
        Session {
            inner,
            total: RefCell::new(FoldReport::default()),
        }
    }

    /// The summed report of every fold so far.
    pub fn report(&self) -> FoldReport {
        self.total.borrow().clone()
    }
}

impl<E: Executor> Executor for Session<'_, E> {
    fn plan(&self) -> &Exec {
        self.inner.plan()
    }

    fn fold<S, St>(&self, source: &mut S, stage_seed: u64, stage: &St) -> Result<St::Acc>
    where
        S: ReportSource<Item = St::Item>,
        St: Stage,
    {
        let acc = self.inner.fold(source, stage_seed, stage);
        if let Some(fold) = self.inner.last_fold_report() {
            let mut total = self.total.borrow_mut();
            total.workers = fold.workers;
            total.workers_used = fold.workers_used;
            total.connect_retries = fold.connect_retries;
            total.workers_lost += fold.workers_lost;
            total.worker_errors += fold.worker_errors;
            total.reroutes += fold.reroutes;
            total.rerouted_shards += fold.rerouted_shards;
            total.local_shards += fold.local_shards;
            total.local_fallback |= fold.local_fallback;
        }
        acc
    }

    fn last_fold_report(&self) -> Option<FoldReport> {
        self.inner.last_fold_report()
    }
}
