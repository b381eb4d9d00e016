//! Differential harness: the indexed schedulers against their scanning
//! twins (`scan_twin`).
//!
//! Every case runs two controllers in lockstep on the same request
//! stream — one with the built-in scheduler, one with its twin — and
//! requires, after every service, the same pick (slot and id), the same
//! result, the same clock, and the same `StateDigest`; snapshots are
//! compared byte for byte every few services and at the end. The index's
//! queued-hit count is checked against the old whole-queue filter at
//! every pick. Midway, both controllers are replaced by fresh ones
//! restored from their own snapshots, and the run goes on.
//!
//! The matrix is every scheduler kind × every page policy × queue depth
//! {1, 8, 64} × five request mixes, each with and without injected
//! faults (spurious nacks, stuck banks, postponed refreshes, bus jitter).
//! Request mixes are drawn from the in-tree seeded `SplitMix64`.

mod scan_twin;

use std::sync::{Arc, Mutex};

use scan_twin::{scan_queued_hits, scan_scheduler};
use twice_common::fault::{FaultKind, FaultPlan};
use twice_common::rng::SplitMix64;
use twice_common::snapshot::{
    Snapshot, SnapshotError, SnapshotReader, SnapshotWriter, StateDigest,
};
use twice_common::{ChannelId, ColId, RankId, RowId, Time};
use twice_dram::device::DramRank;
use twice_memctrl::addrmap::DecodedAccess;
use twice_memctrl::controller::{ChannelController, ControllerConfig};
use twice_memctrl::pagepolicy::PagePolicy;
use twice_memctrl::queue::RequestQueue;
use twice_memctrl::request::MemRequest;
use twice_memctrl::resilience::ControllerError;
use twice_memctrl::scheduler::{make_scheduler, Scheduler, SchedulerKind};

const RANKS: u8 = 2;
const BANKS: u16 = 4;
const ROWS: u32 = 64;
const REQUESTS: usize = 240;

/// Logs every pick as `(slot, id)` and checks the index's queued-hit
/// count for the picked request against the whole-queue filter.
struct Recorder {
    inner: Box<dyn Scheduler>,
    picks: Arc<Mutex<Vec<(usize, u64)>>>,
}

impl Scheduler for Recorder {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn pick(&mut self, queue: &RequestQueue, ranks: &[DramRank]) -> Option<usize> {
        let slot = self.inner.pick(queue, ranks)?;
        let q = queue[slot];
        assert_eq!(
            queue.queued_hits(&q),
            scan_queued_hits(queue.as_slice(), &q),
            "queued hits of request {}",
            q.id
        );
        self.picks
            .lock()
            .expect("no panic while held")
            .push((slot, q.id));
        Some(slot)
    }

    fn on_complete(&mut self, id: u64) {
        self.inner.on_complete(id);
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.inner.load_state(r)
    }

    fn check_restored(&self, queue: &RequestQueue) -> Result<(), SnapshotError> {
        self.inner.check_restored(queue)
    }

    fn digest_state(&self, d: &mut StateDigest) {
        self.inner.digest_state(d);
    }
}

/// One side of the lockstep pair.
struct Side {
    ctrl: ChannelController,
    picks: Arc<Mutex<Vec<(usize, u64)>>>,
}

impl Side {
    fn new(cfg: &ControllerConfig, scheduler: Box<dyn Scheduler>) -> Side {
        let picks = Arc::new(Mutex::new(Vec::new()));
        let recorder = Recorder {
            inner: scheduler,
            picks: Arc::clone(&picks),
        };
        Side {
            ctrl: ChannelController::without_defense(cfg.clone())
                .with_scheduler(Box::new(recorder)),
            picks,
        }
    }

    fn picks(&self) -> Vec<(usize, u64)> {
        self.picks.lock().expect("no panic while held").clone()
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        self.ctrl.save_state(&mut w);
        w.finish()
    }

    /// A fresh controller of the same kind, restored from this one's
    /// snapshot, keeping the pick log.
    fn restored(&self, cfg: &ControllerConfig, scheduler: Box<dyn Scheduler>) -> Side {
        let mut fresh = Side::new(cfg, scheduler);
        *fresh.picks.lock().expect("no panic while held") = self.picks();
        let blob = self.snapshot();
        fresh
            .ctrl
            .load_state(&mut SnapshotReader::new(&blob).expect("valid header"))
            .expect("a snapshot the controller wrote restores");
        assert_eq!(digest(&fresh.ctrl), digest(&self.ctrl), "restore is exact");
        fresh
    }
}

fn digest(c: &ChannelController) -> u64 {
    let mut d = StateDigest::new();
    c.digest_state(&mut d);
    d.finish()
}

#[derive(Debug, Clone, Copy)]
enum Mix {
    /// Independent uniform requests over every bank and row.
    Uniform,
    /// A few sources each streaming columns through one row at a time.
    Streams,
    /// One source alternating two rows of one bank, plus light noise.
    Hammer,
    /// One source floods; the others trickle (the PAR-BS cap binds).
    Skewed,
    /// A handful of hot rows per bank, so queued hits pile up.
    HotRows,
}

const MIXES: [Mix; 5] = [
    Mix::Uniform,
    Mix::Streams,
    Mix::Hammer,
    Mix::Skewed,
    Mix::HotRows,
];

fn access(rank: u64, bank: u64, row: u64, col: u64) -> DecodedAccess {
    DecodedAccess {
        channel: ChannelId(0),
        rank: RankId((rank % u64::from(RANKS)) as u8),
        bank: (bank % u64::from(BANKS)) as u16,
        row: RowId((row % u64::from(ROWS)) as u32),
        col: ColId((col % u64::from(DramRank::COLS_PER_ROW)) as u16),
    }
}

fn requests(mix: Mix, seed: u64) -> Vec<(MemRequest, DecodedAccess)> {
    let mut rng = SplitMix64::new(seed);
    let mut streams: Vec<(u64, u64, u64, u64)> = (0..4)
        .map(|_| (rng.next_u64(), rng.next_u64(), rng.next_u64(), 0))
        .collect();
    (0..REQUESTS)
        .map(|i| {
            let (source, a) = match mix {
                Mix::Uniform => (
                    rng.next_below(16),
                    access(
                        rng.next_u64(),
                        rng.next_u64(),
                        rng.next_u64(),
                        rng.next_u64(),
                    ),
                ),
                Mix::Streams => {
                    let s = rng.next_below(streams.len() as u64) as usize;
                    let (rank, bank, row, col) = &mut streams[s];
                    if rng.next_below(8) == 0 {
                        *row = rng.next_u64();
                    }
                    *col += 1;
                    (s as u64, access(*rank, *bank, *row, *col))
                }
                Mix::Hammer => {
                    if rng.next_below(5) == 0 {
                        (
                            1 + rng.next_below(3),
                            access(rng.next_u64(), rng.next_u64(), rng.next_u64(), 0),
                        )
                    } else {
                        (0, access(0, 1, 8 + 4 * (i as u64 % 2), i as u64))
                    }
                }
                Mix::Skewed => {
                    let source = if rng.next_below(5) == 0 {
                        1 + rng.next_below(5)
                    } else {
                        0
                    };
                    let row = if source == 0 {
                        rng.next_below(3)
                    } else {
                        rng.next_u64()
                    };
                    (
                        source,
                        access(rng.next_u64(), rng.next_u64(), row, rng.next_u64()),
                    )
                }
                Mix::HotRows => (
                    rng.next_below(6),
                    access(
                        rng.next_u64(),
                        rng.next_u64(),
                        rng.next_below(3) * 17,
                        rng.next_u64(),
                    ),
                ),
            };
            let req = if rng.next_below(4) == 0 {
                MemRequest::write(rng.next_u64() & !63, source as u16, Time::ZERO)
            } else {
                MemRequest::read(rng.next_u64() & !63, source as u16, Time::ZERO)
            };
            (req, a)
        })
        .collect()
}

fn config(kind: SchedulerKind, policy: PagePolicy, depth: usize, faults: bool) -> ControllerConfig {
    let fault_plan = if faults {
        FaultPlan::with_seed(depth as u64 ^ 0xD1FF)
            .rate(FaultKind::SpuriousNack, 0.05)
            .rate(FaultKind::BankStuck, 0.02)
            .rate(FaultKind::RefreshPostpone, 0.2)
            .rate(FaultKind::TimingJitter, 0.05)
    } else {
        FaultPlan::none()
    };
    ControllerConfig {
        ranks: RANKS,
        banks_per_rank: BANKS,
        rows_per_bank: ROWS,
        n_th: 200,
        scheduler: kind,
        page_policy: policy,
        queue_capacity: depth,
        fault_plan,
        ..ControllerConfig::paper_default()
    }
}

/// Services one request on both sides and checks they agree. Returns
/// `None` while both keep going, or the shared final outcome.
fn step(
    indexed: &mut Side,
    twin: &mut Side,
    services: &mut usize,
    label: &str,
) -> Option<Result<bool, ControllerError>> {
    let a = indexed.ctrl.service_one();
    let b = twin.ctrl.service_one();
    *services += 1;
    let at = format!("{label}, service {services}");
    assert_eq!(a, b, "{at}: service result");
    assert_eq!(indexed.picks().last(), twin.picks().last(), "{at}: pick");
    assert_eq!(indexed.ctrl.now(), twin.ctrl.now(), "{at}: clock");
    assert_eq!(digest(&indexed.ctrl), digest(&twin.ctrl), "{at}: digest");
    if services.is_multiple_of(16) {
        assert_eq!(indexed.snapshot(), twin.snapshot(), "{at}: snapshot bytes");
    }
    match a {
        Ok(true) => None,
        done => Some(done),
    }
}

fn run_case(kind: SchedulerKind, policy: PagePolicy, depth: usize, mix: Mix, faults: bool) {
    let label = format!("{kind:?} / {policy:?} / depth {depth} / {mix:?} / faults {faults}");
    let cfg = config(kind, policy, depth, faults);
    let reqs = requests(mix, depth as u64 * 31 + mix as u64);
    let mut indexed = Side::new(&cfg, make_scheduler(kind));
    let mut twin = Side::new(&cfg, scan_scheduler(kind));
    let mut services = 0;
    let mut outcome = None;
    'feed: for (i, &(req, access)) in reqs.iter().enumerate() {
        if i == REQUESTS / 2 {
            indexed = indexed.restored(&cfg, make_scheduler(kind));
            twin = twin.restored(&cfg, scan_scheduler(kind));
        }
        while !indexed.ctrl.has_capacity() {
            assert!(!twin.ctrl.has_capacity(), "{label}: queue lengths differ");
            if let Some(done) = step(&mut indexed, &mut twin, &mut services, &label) {
                outcome = Some(done);
                break 'feed;
            }
        }
        indexed.ctrl.submit(req, access);
        twin.ctrl.submit(req, access);
    }
    while outcome.is_none() {
        outcome = step(&mut indexed, &mut twin, &mut services, &label);
    }
    assert_eq!(indexed.picks(), twin.picks(), "{label}: pick sequence");
    assert_eq!(
        indexed.snapshot(),
        twin.snapshot(),
        "{label}: final snapshot"
    );
    if outcome == Some(Ok(false)) {
        assert_eq!(
            indexed.ctrl.served(),
            REQUESTS as u64,
            "{label}: every request served"
        );
    }
}

fn run_kind(kind: SchedulerKind) {
    for policy in [
        PagePolicy::Open,
        PagePolicy::Closed,
        PagePolicy::MinimalistOpen { max_hits: 4 },
    ] {
        for depth in [1, 8, 64] {
            for mix in MIXES {
                for faults in [false, true] {
                    run_case(kind, policy, depth, mix, faults);
                }
            }
        }
    }
}

#[test]
fn fcfs_matches_its_scanning_twin() {
    run_kind(SchedulerKind::Fcfs);
}

#[test]
fn fr_fcfs_matches_its_scanning_twin() {
    run_kind(SchedulerKind::FrFcfs);
}

#[test]
fn par_bs_matches_its_scanning_twin() {
    run_kind(SchedulerKind::ParBs);
}

#[test]
fn fault_plans_actually_nack() {
    // The fault legs are only meaningful if the injected nacks land.
    let cfg = config(SchedulerKind::ParBs, PagePolicy::paper_default(), 8, true);
    let mut side = Side::new(&cfg, make_scheduler(SchedulerKind::ParBs));
    for (req, access) in requests(Mix::Uniform, 1) {
        while !side.ctrl.has_capacity() {
            side.ctrl.service_one().expect("retries converge");
        }
        side.ctrl.submit(req, access);
    }
    side.ctrl.drain().expect("retries converge");
    assert!(side.ctrl.nacks() > 0, "spurious nacks must be injected");
}
