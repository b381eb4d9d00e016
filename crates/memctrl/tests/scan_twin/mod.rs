//! The scanning schedulers the indexed ones replaced, kept as a
//! test-only reference twin.
//!
//! Each pick walks the whole queue in slot order and asks the ranks for
//! every request's open row; PAR-BS re-filters its batch against the
//! queue on every pick and sorts a fresh `(id, source)` list to form a
//! batch. The snapshot and digest encodings are the production ones, so
//! a controller driven by a twin must stay byte-identical to one driven
//! by the built-in scheduler.

use twice_common::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter, StateDigest};
use twice_common::{RankId, RowId};
use twice_dram::device::DramRank;
use twice_memctrl::queue::{QueuedRequest, RequestQueue};
use twice_memctrl::scheduler::{Scheduler, SchedulerKind};

/// The scanning twin of `kind` (PAR-BS with the paper's cap of 5).
pub fn scan_scheduler(kind: SchedulerKind) -> Box<dyn Scheduler> {
    match kind {
        SchedulerKind::Fcfs => Box::new(ScanFcfs),
        SchedulerKind::FrFcfs => Box::new(ScanFrFcfs),
        SchedulerKind::ParBs => Box::new(ScanParBs::new(5)),
    }
}

fn open_rows(ranks: &[DramRank]) -> impl Fn(RankId, u16) -> Option<RowId> + '_ {
    move |rank, bank| ranks[usize::from(rank.0)].open_row(bank)
}

struct ScanFcfs;

impl Scheduler for ScanFcfs {
    fn name(&self) -> &str {
        "FCFS"
    }

    fn pick(&mut self, queue: &RequestQueue, _ranks: &[DramRank]) -> Option<usize> {
        oldest(queue.as_slice(), |_| true)
    }
}

struct ScanFrFcfs;

impl Scheduler for ScanFrFcfs {
    fn name(&self) -> &str {
        "FR-FCFS"
    }

    fn pick(&mut self, queue: &RequestQueue, ranks: &[DramRank]) -> Option<usize> {
        pick_fr_fcfs(queue.as_slice(), &open_rows(ranks), |_| true)
    }
}

struct ScanParBs {
    batch_cap: usize,
    batch: Vec<u64>,
    per_source: Vec<(u16, usize)>,
}

impl ScanParBs {
    fn new(batch_cap: usize) -> ScanParBs {
        ScanParBs {
            batch_cap,
            batch: Vec::new(),
            per_source: Vec::new(),
        }
    }

    fn contains(&self, id: u64) -> bool {
        self.batch.binary_search(&id).is_ok()
    }

    fn form_batch(&mut self, queue: &[QueuedRequest]) {
        let mut order: Vec<(u64, u16)> = queue.iter().map(|q| (q.id, q.req.source)).collect();
        order.sort_unstable();
        self.per_source.clear();
        for (id, source) in order {
            let n = match self.per_source.iter_mut().find(|(s, _)| *s == source) {
                Some((_, n)) => n,
                None => {
                    self.per_source.push((source, 0));
                    &mut self.per_source.last_mut().expect("just pushed").1
                }
            };
            if *n < self.batch_cap {
                *n += 1;
                self.batch.push(id);
            }
        }
    }
}

impl Scheduler for ScanParBs {
    fn name(&self) -> &str {
        "PAR-BS"
    }

    fn pick(&mut self, queue: &RequestQueue, ranks: &[DramRank]) -> Option<usize> {
        let queue = queue.as_slice();
        if queue.is_empty() {
            return None;
        }
        self.batch.retain(|id| queue.iter().any(|q| q.id == *id));
        if self.batch.is_empty() {
            self.form_batch(queue);
        }
        pick_fr_fcfs(queue, &open_rows(ranks), |q| self.contains(q.id))
    }

    fn on_complete(&mut self, id: u64) {
        if let Ok(i) = self.batch.binary_search(&id) {
            self.batch.remove(i);
        }
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.batch.len());
        for id in &self.batch {
            w.put_u64(*id);
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let n = r.take_usize()?;
        self.batch.clear();
        for _ in 0..n {
            self.batch.push(r.take_u64()?);
        }
        self.batch.sort_unstable();
        self.batch.dedup();
        Ok(())
    }

    fn digest_state(&self, d: &mut StateDigest) {
        for id in &self.batch {
            d.write_u64(*id);
        }
    }
}

/// One pass over the queue tracking all three FR-FCFS preference tiers
/// at once: oldest eligible row hit, oldest eligible, oldest overall.
fn pick_fr_fcfs(
    queue: &[QueuedRequest],
    open_row: &dyn Fn(RankId, u16) -> Option<RowId>,
    eligible: impl Fn(&QueuedRequest) -> bool,
) -> Option<usize> {
    let mut hit: Option<(u64, usize)> = None;
    let mut elig: Option<(u64, usize)> = None;
    let mut any: Option<(u64, usize)> = None;
    for (i, q) in queue.iter().enumerate() {
        let key = (q.id, i);
        if any.is_none_or(|b| key < b) {
            any = Some(key);
        }
        if eligible(q) {
            if elig.is_none_or(|b| key < b) {
                elig = Some(key);
            }
            if open_row(q.access.rank, q.access.bank) == Some(q.access.row)
                && hit.is_none_or(|b| key < b)
            {
                hit = Some(key);
            }
        }
    }
    hit.or(elig).or(any).map(|(_, i)| i)
}

fn oldest(queue: &[QueuedRequest], pred: impl Fn(&QueuedRequest) -> bool) -> Option<usize> {
    queue
        .iter()
        .enumerate()
        .filter(|(_, q)| pred(q))
        .min_by_key(|(_, q)| q.id)
        .map(|(i, _)| i)
}

/// The page policy's queued-hit count as the controller computed it
/// before the index: a filter over the whole queue.
pub fn scan_queued_hits(queue: &[QueuedRequest], q: &QueuedRequest) -> usize {
    queue
        .iter()
        .filter(|o| {
            o.id != q.id
                && o.access.rank == q.access.rank
                && o.access.bank == q.access.bank
                && o.access.row == q.access.row
        })
        .count()
}
