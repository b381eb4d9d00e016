//! The controller's request queue and its per-bank index.
//!
//! [`RequestQueue`] owns the queued requests in *slot order*: arrival
//! order as `swap_remove` leaves it. Snapshots and `StateDigest`s
//! serialize that order verbatim, so it is part of the simulator's
//! observable state. Beside it the queue keeps two indexes, so neither
//! the schedulers nor the page policy ever scan the whole queue:
//!
//! * every queued `(id, slot)`, ascending by id — the id → slot map and
//!   the global age order (FCFS, PAR-BS batch formation);
//! * per flat (rank, bank), the `(id, row)` of that bank's queued
//!   requests, ascending by id. A bank's oldest row hit is the first
//!   entry whose row is the bank's open row, and the page policy's
//!   queued-hit count walks one bank's entries.
//!
//! Both indexes are derived from the slots: they are never serialized,
//! and a restore rebuilds them by pushing the saved slots in order.

use crate::addrmap::DecodedAccess;
use crate::request::MemRequest;
use twice_common::RowId;
use twice_dram::device::DramRank;

/// A request waiting in the controller queue, with its decoded coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedRequest {
    /// Monotonic id assigned by the controller at enqueue.
    pub id: u64,
    /// The request.
    pub req: MemRequest,
    /// Its decoded DRAM coordinate.
    pub access: DecodedAccess,
}

/// A bounded request queue indexed by age and by bank (see the module
/// docs for the layout and its invariants).
#[derive(Debug, Clone)]
pub struct RequestQueue {
    /// The requests in slot order.
    slots: Vec<QueuedRequest>,
    /// `(id, slot)` of every queued request, ascending by id.
    by_id: Vec<(u64, usize)>,
    /// Per flat (rank, bank): `(id, row)` of its queued requests,
    /// ascending by id.
    banks: Vec<Vec<(u64, RowId)>>,
    banks_per_rank: u16,
}

impl RequestQueue {
    /// An empty queue for `ranks` × `banks_per_rank` banks, with room
    /// for `capacity` requests before it reallocates.
    pub(crate) fn new(capacity: usize, ranks: u8, banks_per_rank: u16) -> RequestQueue {
        let total_banks = usize::from(ranks) * usize::from(banks_per_rank);
        RequestQueue {
            slots: Vec::with_capacity(capacity),
            by_id: Vec::with_capacity(capacity),
            banks: vec![Vec::new(); total_banks],
            banks_per_rank,
        }
    }

    /// Queued requests.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The queued requests in slot order (the order snapshots and
    /// digests record).
    #[inline]
    pub fn as_slice(&self) -> &[QueuedRequest] {
        &self.slots
    }

    /// The slot holding request `id`, if it is queued.
    #[inline]
    pub(crate) fn slot_of(&self, id: u64) -> Option<usize> {
        self.by_id
            .binary_search_by_key(&id, |&(i, _)| i)
            .ok()
            .map(|pos| self.by_id[pos].1)
    }

    /// The slot of the oldest (lowest-id) queued request.
    #[inline]
    pub(crate) fn oldest(&self) -> Option<usize> {
        self.by_id.first().map(|&(_, slot)| slot)
    }

    /// The queued requests, oldest first.
    pub(crate) fn by_age(&self) -> impl Iterator<Item = &QueuedRequest> + '_ {
        self.by_id.iter().map(|&(_, slot)| &self.slots[slot])
    }

    /// The id of the oldest queued request that hits its bank's open row
    /// in `ranks` and satisfies `eligible`. Costs one open-row probe per
    /// bank with queued requests, plus a walk over each such bank's
    /// entries that stops at the first eligible hit or at an id no
    /// younger than the best hit so far.
    pub(crate) fn oldest_row_hit(
        &self,
        ranks: &[DramRank],
        eligible: impl Fn(u64) -> bool,
    ) -> Option<u64> {
        let bpr = usize::from(self.banks_per_rank);
        let mut best: Option<u64> = None;
        for (fb, entries) in self.banks.iter().enumerate() {
            if entries.is_empty() {
                continue;
            }
            // `fb % bpr < banks_per_rank`, so the cast is lossless.
            let Some(open) = ranks[fb / bpr].open_row((fb % bpr) as u16) else {
                continue;
            };
            for &(id, row) in entries {
                if best.is_some_and(|b| id >= b) {
                    break;
                }
                if row == open && eligible(id) {
                    best = Some(id);
                    break;
                }
            }
        }
        best
    }

    /// Other queued requests to `q`'s row — the page policy's "queued
    /// hits" after `q` is served.
    pub fn queued_hits(&self, q: &QueuedRequest) -> usize {
        self.banks[self.flat_bank(&q.access)]
            .iter()
            .filter(|&&(id, row)| row == q.access.row && id != q.id)
            .count()
    }

    #[inline]
    fn flat_bank(&self, access: &DecodedAccess) -> usize {
        usize::from(access.rank.0) * usize::from(self.banks_per_rank) + usize::from(access.bank)
    }

    /// Appends `q` in the last slot and indexes it.
    ///
    /// # Panics
    ///
    /// Panics if `q.id` is already queued or its bank lies outside the
    /// queue's geometry; the controller range-checks both before
    /// pushing.
    pub(crate) fn push(&mut self, q: QueuedRequest) {
        // Ids arrive ascending from `submit`, so both inserts append
        // without a search; a restore may push in any order.
        let at = insertion_point(&self.by_id, q.id);
        assert!(
            self.by_id.get(at).is_none_or(|&(id, _)| id != q.id),
            "request id {} queued twice",
            q.id
        );
        let fb = self.flat_bank(&q.access);
        let bank = &mut self.banks[fb];
        bank.insert(insertion_point(bank, q.id), (q.id, q.access.row));
        self.by_id.insert(at, (q.id, self.slots.len()));
        self.slots.push(q);
    }

    /// Removes and returns the request in `slot`; the last slot's
    /// request moves into its place (`Vec::swap_remove` order).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds.
    pub(crate) fn swap_remove(&mut self, slot: usize) -> QueuedRequest {
        let q = self.slots.swap_remove(slot);
        let fb = self.flat_bank(&q.access);
        let bank = &mut self.banks[fb];
        let at = bank
            .binary_search_by_key(&q.id, |&(id, _)| id)
            .expect("queued request is indexed under its bank");
        bank.remove(at);
        let at = self
            .by_id
            .binary_search_by_key(&q.id, |&(id, _)| id)
            .expect("queued request is indexed by id");
        self.by_id.remove(at);
        if let Some(moved) = self.slots.get(slot) {
            let at = self
                .by_id
                .binary_search_by_key(&moved.id, |&(id, _)| id)
                .expect("queued request is indexed by id");
            self.by_id[at].1 = slot;
        }
        q
    }
}

/// Where `id` goes in an id-ordered list: the end when it is the
/// youngest (every push from `submit`), else by binary search.
#[inline]
fn insertion_point<T>(list: &[(u64, T)], id: u64) -> usize {
    match list.last() {
        Some(&(last, _)) if last >= id => list.partition_point(|&(i, _)| i < id),
        _ => list.len(),
    }
}

impl std::ops::Index<usize> for RequestQueue {
    type Output = QueuedRequest;

    #[inline]
    fn index(&self, slot: usize) -> &QueuedRequest {
        &self.slots[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twice_common::rng::SplitMix64;
    use twice_common::{ChannelId, ColId, RankId, Time};
    use twice_dram::cmd::DramCommand;
    use twice_dram::device::RankConfig;

    const RANKS: u8 = 2;
    const BANKS: u16 = 3;

    fn q(id: u64, rank: u8, bank: u16, row: u32) -> QueuedRequest {
        QueuedRequest {
            id,
            req: MemRequest::read(id * 64, (id % 5) as u16, Time::ZERO),
            access: DecodedAccess {
                channel: ChannelId(0),
                rank: RankId(rank),
                bank,
                row: RowId(row),
                col: ColId(0),
            },
        }
    }

    /// Ranks with `open[r][b]` open (rows 0..8).
    fn ranks_with(open: &[[Option<u32>; BANKS as usize]; RANKS as usize]) -> Vec<DramRank> {
        open.iter()
            .map(|banks| {
                let mut rank = DramRank::new(RankConfig::for_test(BANKS, 8));
                for (b, row) in banks.iter().enumerate() {
                    if let Some(row) = row {
                        let cmd = DramCommand::Activate {
                            bank: b as u16,
                            row: RowId(*row),
                        };
                        rank.issue(cmd, Time::from_ps(1_000_000 * (b as u64 + 1)))
                            .expect("spaced ACTs are legal");
                    }
                }
                rank
            })
            .collect()
    }

    /// Checks every index query against a scan of the slots.
    fn check_against_scan(queue: &RequestQueue, ranks: &[DramRank]) {
        let slots = queue.as_slice();
        assert_eq!(queue.len(), slots.len());
        for (slot, r) in slots.iter().enumerate() {
            assert_eq!(queue.slot_of(r.id), Some(slot));
            let hits = slots
                .iter()
                .filter(|o| o.id != r.id && o.access.rank == r.access.rank)
                .filter(|o| o.access.bank == r.access.bank && o.access.row == r.access.row)
                .count();
            assert_eq!(queue.queued_hits(r), hits);
        }
        let mut ids: Vec<u64> = slots.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(queue.by_age().map(|r| r.id).collect::<Vec<_>>(), ids);
        assert_eq!(queue.oldest().map(|s| slots[s].id), ids.first().copied());
        let is_hit = |r: &QueuedRequest| {
            ranks[usize::from(r.access.rank.0)].open_row(r.access.bank) == Some(r.access.row)
        };
        for parity in 0..2 {
            let scan = slots
                .iter()
                .filter(|r| is_hit(r) && r.id % 2 == parity)
                .map(|r| r.id)
                .min();
            assert_eq!(queue.oldest_row_hit(ranks, |id| id % 2 == parity), scan);
        }
    }

    #[test]
    fn index_matches_a_scan_under_random_push_and_remove() {
        let ranks = ranks_with(&[[Some(1), None, Some(3)], [Some(0), Some(2), None]]);
        for seed in 0..16 {
            let mut rng = SplitMix64::new(seed);
            let mut queue = RequestQueue::new(8, RANKS, BANKS);
            let mut next_id = 0;
            for _ in 0..300 {
                if queue.len() < 12 && rng.next_below(3) != 0 {
                    let rank = rng.next_below(u64::from(RANKS)) as u8;
                    let bank = rng.next_below(u64::from(BANKS)) as u16;
                    queue.push(q(next_id, rank, bank, rng.next_below(4) as u32));
                    next_id += 1;
                } else if !queue.is_empty() {
                    let slot = rng.next_below(queue.len() as u64) as usize;
                    let mut expect = queue.as_slice().to_vec();
                    let want = expect.swap_remove(slot);
                    assert_eq!(queue.swap_remove(slot), want);
                    assert_eq!(queue.as_slice(), &expect[..], "swap_remove order");
                }
                check_against_scan(&queue, &ranks);
            }
        }
    }

    #[test]
    fn out_of_order_pushes_keep_the_age_order() {
        let ranks = ranks_with(&[[Some(1), None, None], [None, None, None]]);
        let mut queue = RequestQueue::new(4, RANKS, BANKS);
        for id in [7, 3, 9, 1] {
            queue.push(q(id, 0, 0, 1));
        }
        assert_eq!(
            queue.as_slice().iter().map(|r| r.id).collect::<Vec<_>>(),
            [7, 3, 9, 1],
            "slots keep push order"
        );
        check_against_scan(&queue, &ranks);
        assert_eq!(queue.oldest_row_hit(&ranks, |_| true), Some(1));
    }

    #[test]
    #[should_panic(expected = "queued twice")]
    fn duplicate_ids_are_refused() {
        let mut queue = RequestQueue::new(4, RANKS, BANKS);
        queue.push(q(4, 0, 0, 0));
        queue.push(q(4, 1, 1, 1));
    }
}
