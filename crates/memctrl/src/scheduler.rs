//! Request schedulers: FCFS, FR-FCFS, and PAR-BS.
//!
//! The evaluation system schedules with **PAR-BS** (Table 4,
//! [Mutlu & Moscibroda, ISCA'08]): requests are grouped into batches with
//! a per-source cap; the current batch is serviced to completion before
//! newer requests, which bounds inter-thread interference. Within a batch
//! (and for the simpler policies) the classic **FR-FCFS** rule applies:
//! row-buffer hits first, then oldest first.

use crate::queue::RequestQueue;
use twice_common::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter, StateDigest};
use twice_dram::device::DramRank;

/// Which scheduling policy to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Strict arrival order.
    Fcfs,
    /// Row-hit-first, then oldest.
    FrFcfs,
    /// Batch scheduling with FR-FCFS inside the batch (Table 4 default).
    #[default]
    ParBs,
}

/// A request scheduler.
///
/// Schedulers read the queue through its index and the channel's ranks
/// for their open rows, so a pick costs O(banks) rather than O(queue).
pub trait Scheduler: Send {
    /// The policy's display name.
    fn name(&self) -> &str;

    /// Picks the slot (into `queue`) of the request to service next,
    /// given the channel's `ranks` for their open rows. Returns `None`
    /// iff `queue` is empty.
    ///
    /// `queue` must be the queue whose completions this scheduler was
    /// told about through [`on_complete`](Self::on_complete).
    fn pick(&mut self, queue: &RequestQueue, ranks: &[DramRank]) -> Option<usize>;

    /// Notifies the scheduler that request `id` completed.
    fn on_complete(&mut self, id: u64) {
        let _ = id;
    }

    /// Serializes mutable scheduling state (checkpointing hook). FCFS and
    /// FR-FCFS are stateless; PAR-BS overrides this to save its batch.
    fn save_state(&self, w: &mut SnapshotWriter) {
        let _ = w;
    }

    /// Restores state written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Decode errors from a truncated or mismatched snapshot.
    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let _ = r;
        Ok(())
    }

    /// Checks restored state against the restored `queue` (the
    /// controller restores the scheduler before the queue, so this runs
    /// once both are loaded).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::StateMismatch`] if the state names a request the
    /// queue does not hold.
    fn check_restored(&self, queue: &RequestQueue) -> Result<(), SnapshotError> {
        let _ = queue;
        Ok(())
    }

    /// Folds mutable scheduling state into a digest.
    fn digest_state(&self, d: &mut StateDigest) {
        let _ = d;
    }
}

/// Creates a boxed scheduler of the given kind (PAR-BS uses the paper's
/// batching cap of 5 requests per source).
pub fn make_scheduler(kind: SchedulerKind) -> Box<dyn Scheduler> {
    match kind {
        SchedulerKind::Fcfs => Box::new(Fcfs),
        SchedulerKind::FrFcfs => Box::new(FrFcfs),
        SchedulerKind::ParBs => Box::new(ParBs::new(5)),
    }
}

/// First-come first-served.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl Scheduler for Fcfs {
    fn name(&self) -> &str {
        "FCFS"
    }

    fn pick(&mut self, queue: &RequestQueue, _ranks: &[DramRank]) -> Option<usize> {
        queue.oldest()
    }
}

/// Row-hit-first, then oldest-first.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrFcfs;

impl Scheduler for FrFcfs {
    fn name(&self) -> &str {
        "FR-FCFS"
    }

    fn pick(&mut self, queue: &RequestQueue, ranks: &[DramRank]) -> Option<usize> {
        match queue.oldest_row_hit(ranks, |_| true) {
            Some(id) => queue.slot_of(id),
            None => queue.oldest(),
        }
    }
}

/// Parallelism-aware batch scheduling.
///
/// The batch is a sorted id vector: ids are assigned monotonically and
/// batch formation walks the queue oldest first, so pushes arrive
/// pre-sorted, membership checks are binary searches, and `batch[0]` is
/// the batch's oldest request. The batch is always a subset of the
/// queue — [`on_complete`](Scheduler::on_complete) drops each served id
/// and [`check_restored`](Scheduler::check_restored) rejects a snapshot
/// that breaks it — so a pick never has to filter it. The snapshot
/// encoding is length then ascending ids.
#[derive(Debug, Clone)]
pub struct ParBs {
    batch_cap: usize,
    batch: Vec<u64>,
    /// Scratch for batch formation: per-source grant counts.
    per_source: Vec<(u16, usize)>,
}

impl ParBs {
    /// Creates a PAR-BS scheduler with `batch_cap` requests per source
    /// per batch.
    ///
    /// # Panics
    ///
    /// Panics if `batch_cap` is zero.
    pub fn new(batch_cap: usize) -> ParBs {
        assert!(batch_cap > 0, "batch cap must be non-zero");
        ParBs {
            batch_cap,
            batch: Vec::new(),
            per_source: Vec::new(),
        }
    }

    fn contains(&self, id: u64) -> bool {
        self.batch.binary_search(&id).is_ok()
    }

    /// Batches up to `batch_cap` oldest requests per source. The walk is
    /// oldest first, so the batch comes out sorted.
    fn form_batch(&mut self, queue: &RequestQueue) {
        self.per_source.clear();
        for q in queue.by_age() {
            let source = q.req.source;
            let n = match self.per_source.iter_mut().find(|(s, _)| *s == source) {
                Some((_, n)) => n,
                None => {
                    self.per_source.push((source, 0));
                    &mut self.per_source.last_mut().expect("just pushed").1
                }
            };
            if *n < self.batch_cap {
                *n += 1;
                self.batch.push(q.id);
            }
        }
        debug_assert!(self.batch.windows(2).all(|w| w[0] < w[1]));
    }
}

impl Scheduler for ParBs {
    fn name(&self) -> &str {
        "PAR-BS"
    }

    fn pick(&mut self, queue: &RequestQueue, ranks: &[DramRank]) -> Option<usize> {
        if queue.is_empty() {
            return None;
        }
        if self.batch.is_empty() {
            self.form_batch(queue);
        }
        // FR-FCFS inside the batch: its oldest row hit, else its oldest.
        let id = queue
            .oldest_row_hit(ranks, |id| self.contains(id))
            .unwrap_or(self.batch[0]);
        Some(
            queue
                .slot_of(id)
                .expect("the batch is a subset of the queue"),
        )
    }

    fn on_complete(&mut self, id: u64) {
        if let Ok(i) = self.batch.binary_search(&id) {
            self.batch.remove(i);
        }
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        // The batch is a pure set, kept sorted: canonical as-is.
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
        // Snapshots we write are ascending, but the set semantics never
        // depended on blob order — normalize rather than reject.
        self.batch.sort_unstable();
        self.batch.dedup();
        Ok(())
    }

    fn check_restored(&self, queue: &RequestQueue) -> Result<(), SnapshotError> {
        match self.batch.iter().find(|&&id| queue.slot_of(id).is_none()) {
            Some(id) => Err(SnapshotError::StateMismatch(format!(
                "PAR-BS batch names request {id}, which is not queued"
            ))),
            None => Ok(()),
        }
    }

    fn digest_state(&self, d: &mut StateDigest) {
        for id in &self.batch {
            d.write_u64(*id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addrmap::DecodedAccess;
    use crate::queue::QueuedRequest;
    use crate::request::MemRequest;
    use twice_common::{ChannelId, ColId, RankId, RowId, Time};
    use twice_dram::cmd::DramCommand;
    use twice_dram::device::RankConfig;

    fn q(id: u64, source: u16, bank: u16, row: u32) -> QueuedRequest {
        QueuedRequest {
            id,
            req: MemRequest::read(0, source, Time::ZERO),
            access: DecodedAccess {
                channel: ChannelId(0),
                rank: RankId(0),
                bank,
                row: RowId(row),
                col: ColId(0),
            },
        }
    }

    fn queue(reqs: &[QueuedRequest]) -> RequestQueue {
        let mut queue = RequestQueue::new(reqs.len(), 1, 4);
        for r in reqs {
            queue.push(*r);
        }
        queue
    }

    /// One rank of four banks with `open` rows active.
    fn rank_with(open: &[(u16, u32)]) -> Vec<DramRank> {
        let mut rank = DramRank::new(RankConfig::for_test(4, 64));
        for (i, &(bank, row)) in open.iter().enumerate() {
            let cmd = DramCommand::Activate {
                bank,
                row: RowId(row),
            };
            rank.issue(cmd, Time::from_ps(1_000_000 * (i as u64 + 1)))
                .expect("spaced ACTs are legal");
        }
        vec![rank]
    }

    #[test]
    fn fcfs_picks_oldest() {
        let mut s = Fcfs;
        let closed = rank_with(&[]);
        let reqs = queue(&[q(5, 0, 0, 1), q(2, 0, 1, 2), q(9, 0, 2, 3)]);
        assert_eq!(s.pick(&reqs, &closed), Some(1));
        assert_eq!(s.pick(&queue(&[]), &closed), None);
    }

    #[test]
    fn frfcfs_prefers_row_hits() {
        let mut s = FrFcfs;
        let reqs = queue(&[q(1, 0, 0, 10), q(2, 0, 0, 20), q(3, 0, 0, 20)]);
        // Oldest row hit is id 2 (slot 1), despite id 1 being older.
        assert_eq!(s.pick(&reqs, &rank_with(&[(0, 20)])), Some(1));
        // Without an open row, oldest wins.
        assert_eq!(s.pick(&reqs, &rank_with(&[])), Some(0));
    }

    #[test]
    fn parbs_caps_per_source_and_prioritizes_batch() {
        let mut s = ParBs::new(1);
        let closed = rank_with(&[]);
        // Source 0 floods; source 1 has one old request.
        let mut reqs = queue(&[q(1, 0, 0, 1), q(2, 0, 0, 2), q(3, 1, 1, 3)]);
        // Batch = {1 (src0 oldest), 3 (src1 oldest)}. Pick oldest in batch.
        assert_eq!(s.pick(&reqs, &closed), Some(0));
        reqs.swap_remove(0);
        s.on_complete(1);
        // Request 2 is NOT in the batch; 3 is.
        let slot = s.pick(&reqs, &closed).expect("queue is not empty");
        assert_eq!(reqs[slot].id, 3);
        reqs.swap_remove(slot);
        s.on_complete(3);
        // Batch drained: a new batch forms and 2 is serviced.
        assert_eq!(s.pick(&reqs, &closed), Some(0));
    }

    #[test]
    fn parbs_prefers_row_hits_within_batch() {
        let mut s = ParBs::new(2);
        let reqs = queue(&[q(1, 0, 0, 10), q(2, 0, 0, 20)]);
        assert_eq!(s.pick(&reqs, &rank_with(&[(0, 20)])), Some(1));
    }

    #[test]
    fn parbs_ignores_row_hits_outside_the_batch() {
        let mut s = ParBs::new(1);
        // Batch = {1}; id 2 hits the open row but is not batched.
        let reqs = queue(&[q(1, 0, 1, 10), q(2, 0, 0, 20)]);
        assert_eq!(s.pick(&reqs, &rank_with(&[(0, 20)])), Some(0));
    }

    #[test]
    fn parbs_restore_rejects_a_batch_outside_the_queue() {
        let mut s = ParBs::new(2);
        let reqs = queue(&[q(1, 0, 0, 10), q(2, 0, 0, 20)]);
        s.pick(&reqs, &rank_with(&[]));
        assert!(s.check_restored(&reqs).is_ok());
        let err = s.check_restored(&queue(&[q(2, 0, 0, 20)])).unwrap_err();
        assert!(matches!(err, SnapshotError::StateMismatch(_)), "{err:?}");
    }

    #[test]
    fn factory_names() {
        assert_eq!(make_scheduler(SchedulerKind::Fcfs).name(), "FCFS");
        assert_eq!(make_scheduler(SchedulerKind::FrFcfs).name(), "FR-FCFS");
        assert_eq!(make_scheduler(SchedulerKind::ParBs).name(), "PAR-BS");
    }
}
