//! The traced run's memory system: the channel controllers `System::new`
//! would build, with each defense inside a [`TimedDefense`], fed by the
//! same routing loop `System::feed` runs, with a span around every call
//! into a layer.

use crate::tracer::{span, Kind};
use twice_common::defense::{DefensePressure, DefenseResponse, RowHammerDefense};
use twice_common::ids::{BankId, RowId};
use twice_common::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter, StateDigest};
use twice_common::time::Time;
use twice_memctrl::controller::{ChannelController, DefenseLocation};
use twice_memctrl::resilience::ControllerError;
use twice_mitigations::{make_defense_chaos, DefenseKind, Para};
use twice_sim::config::SimConfig;
use twice_workloads::TraceItem;

/// A defense that times `on_activate` and `on_auto_refresh` and forwards
/// every trait method, snapshot hooks included, to the defense it wraps —
/// so a controller built around it has the same state, digest and
/// snapshot bytes as one built around the bare defense.
pub struct TimedDefense {
    inner: Box<dyn RowHammerDefense>,
}

impl TimedDefense {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn RowHammerDefense>) -> TimedDefense {
        TimedDefense { inner }
    }
}

impl RowHammerDefense for TimedDefense {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_activate(&mut self, bank: BankId, row: RowId, now: Time) -> DefenseResponse {
        let _s = span(Kind::MitigationsOnAct);
        self.inner.on_activate(bank, row, now)
    }

    fn on_auto_refresh(&mut self, bank: BankId, now: Time) -> DefenseResponse {
        let _s = span(Kind::MitigationsOnRef);
        self.inner.on_auto_refresh(bank, now)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn corruption_events(&self) -> u64 {
        self.inner.corruption_events()
    }

    fn faults_injected(&self) -> u64 {
        self.inner.faults_injected()
    }

    fn pressure(&self) -> DefensePressure {
        self.inner.pressure()
    }

    fn table_occupancy(&self, bank: BankId) -> Option<usize> {
        self.inner.table_occupancy(bank)
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.inner.load_state(r)
    }

    fn digest_state(&self, d: &mut StateDigest) {
        self.inner.digest_state(d);
    }
}

/// Builds one controller per channel exactly as `System::new` does —
/// same per-channel defense seeds, same placement, same RCD-resident
/// PARA fallback — with every defense wrapped in a [`TimedDefense`].
///
/// # Panics
///
/// Panics if `cfg` fails validation, as `System::new` does.
pub fn build_controllers(cfg: &SimConfig, kind: DefenseKind) -> Vec<ChannelController> {
    let _s = span(Kind::SimSystemNew);
    cfg.validate().expect("invalid simulation configuration");
    let location = if kind.is_rcd_resident() {
        DefenseLocation::Rcd
    } else {
        DefenseLocation::MemoryController
    };
    (0..cfg.topology.channels)
        .map(|ch| {
            let defense = {
                let _s = span(Kind::MitigationsNew);
                make_defense_chaos(
                    kind,
                    &cfg.params,
                    cfg.banks_per_channel(),
                    cfg.seed ^ (u64::from(ch) << 40),
                    &cfg.fault_plan,
                    cfg.twice_scrubbing,
                )
            };
            let _s = span(Kind::MemctrlNew);
            let mut ctrl = ChannelController::new(
                cfg.controller_config(ch),
                Box::new(TimedDefense::new(defense)),
                location,
            );
            if location == DefenseLocation::Rcd {
                if let Some(p) = cfg.para_fallback {
                    ctrl = ctrl.with_fallback_defense(Box::new(TimedDefense::new(Box::new(
                        Para::new(p, cfg.seed ^ 0xFA11 ^ (u64::from(ch) << 24)),
                    ))));
                }
            }
            ctrl
        })
        .collect()
}

/// Feeds `items` through `ctrls` in chunks of `chunk` requests the way
/// `System::run` does — route to the channel, service until it has
/// room, submit — then drains every channel.
///
/// # Errors
///
/// [`ControllerError::RetryExhausted`] as `System::feed` reports it.
pub fn run_controllers(
    ctrls: &mut [ChannelController],
    items: &[TraceItem],
    chunk: usize,
) -> Result<(), ControllerError> {
    for part in items.chunks(chunk) {
        let _feed = span(Kind::BenchFeed);
        for &(req, access) in part {
            let ctrl = &mut ctrls[access.channel.index()];
            while !ctrl.has_capacity() {
                let _s = span(Kind::MemctrlService);
                ctrl.service_one()?;
            }
            let _s = span(Kind::MemctrlSubmit);
            ctrl.submit(req, access);
        }
    }
    let _drain = span(Kind::BenchDrain);
    for ctrl in ctrls.iter_mut() {
        loop {
            let _s = span(Kind::MemctrlService);
            if !ctrl.service_one()? {
                break;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{self, Tracer};
    use twice_common::fault::{FaultKind, FaultPlan};
    use twice_common::snapshot::{digest_of, restore_from, snapshot_bytes};
    use twice_sim::system::System;
    use twice_workloads::attack::{HammerAttack, HammerShape};
    use twice_workloads::synth::S1Random;
    use twice_workloads::AccessSource;

    /// A double-sided hammer on channel 0, every fourth request replaced
    /// by uniform random traffic over every channel: every defense
    /// fires, and the unprotected ones record flips.
    fn hammer_trace(cfg: &SimConfig, n: u64) -> Vec<TraceItem> {
        let shape = HammerShape::DoubleSided { victim: RowId(100) };
        let mut hammer = HammerAttack::new(&cfg.topology, 0, shape);
        let mut random = S1Random::new(&cfg.topology, cfg.seed);
        (0..n)
            .map(|i| {
                if i % 4 == 3 {
                    random.next_access()
                } else {
                    hammer.next_access()
                }
            })
            .collect()
    }

    #[test]
    fn wrapper_is_transparent_for_every_verify_lineup_kind() {
        let mut cfg = SimConfig::fast_test();
        cfg.topology.channels = 2;
        cfg.para_fallback = Some(0.01);
        let items = hammer_trace(&cfg, 40_000);
        for kind in DefenseKind::verify_lineup() {
            let mut sys = System::new(&cfg, kind);
            sys.run(items.iter().copied()).expect("fault-free run");
            tracer::install(Tracer::with_capacity(64));
            let mut ctrls = build_controllers(&cfg, kind);
            run_controllers(&mut ctrls, &items, 1_000).expect("fault-free run");
            let tr = tracer::take().expect("installed above");
            assert!(tr.totals(Kind::MemctrlService).calls > 0, "{kind}");
            assert_eq!(ctrls.len(), sys.controllers().len(), "{kind}");
            for (a, b) in sys.controllers().iter().zip(&ctrls) {
                assert_eq!(digest_of(a), digest_of(b), "{kind}: digest");
                assert_eq!(snapshot_bytes(a), snapshot_bytes(b), "{kind}: snapshot");
                assert_eq!(a.served(), b.served(), "{kind}");
                assert_eq!(a.bit_flip_count(), b.bit_flip_count(), "{kind}");
                assert_eq!(a.additional_acts(), b.additional_acts(), "{kind}");
                assert_eq!(a.detections(), b.detections(), "{kind}");
                assert_eq!(a.defense_pressure(), b.defense_pressure(), "{kind}");
                assert_eq!(a.corruption_events(), b.corruption_events(), "{kind}");
            }
            // The load hook forwards too: restoring the unwrapped
            // system's controller state into fresh wrapped controllers
            // reproduces it.
            let mut fresh = build_controllers(&cfg, kind);
            for (a, b) in sys.controllers().iter().zip(fresh.iter_mut()) {
                restore_from(b, &snapshot_bytes(a)).expect("restore");
                assert_eq!(digest_of(a), digest_of(b), "{kind}: restored digest");
            }
        }
    }

    #[test]
    fn wrapped_fallback_engages_like_the_system_fallback() {
        let mut cfg = SimConfig::fast_test();
        cfg.para_fallback = Some(0.01);
        cfg.fault_plan = FaultPlan::with_seed(7).rate(FaultKind::CounterBitFlip, 1e-2);
        let kind = DefenseKind::parse("twice").expect("known");
        let items = hammer_trace(&cfg, 20_000);
        let mut sys = System::new(&cfg, kind);
        sys.run(items.iter().copied()).expect("fault-free run");
        let mut ctrls = build_controllers(&cfg, kind);
        run_controllers(&mut ctrls, &items, 1_000).expect("fault-free run");
        let (a, b) = (&sys.controllers()[0], &ctrls[0]);
        assert!(
            a.fallback_windows() > 0,
            "the fault plan must engage the fallback"
        );
        assert_eq!(a.fallback_windows(), b.fallback_windows());
        assert_eq!(digest_of(a), digest_of(b));
        assert_eq!(snapshot_bytes(a), snapshot_bytes(b));
    }

    #[test]
    fn defense_calls_nest_inside_controller_service() {
        let cfg = SimConfig::fast_test();
        let items = hammer_trace(&cfg, 5_000);
        for kind in [
            DefenseKind::parse("twice").expect("known"),
            DefenseKind::parse("para").expect("known"),
        ] {
            tracer::install(Tracer::with_capacity(1 << 16));
            let mut ctrls = build_controllers(&cfg, kind);
            run_controllers(&mut ctrls, &items, 500).expect("fault-free run");
            let tr = tracer::take().expect("installed above");
            assert!(tr.totals(Kind::MitigationsOnAct).calls > 0, "{kind}");
            assert!(tr.totals(Kind::MitigationsOnRef).calls > 0, "{kind}");
            for s in tr.spans() {
                if matches!(s.kind, Kind::MitigationsOnAct | Kind::MitigationsOnRef) {
                    let p = tr.spans()[s.parent.expect("nested") as usize];
                    assert_eq!(p.kind, Kind::MemctrlService, "{kind}");
                }
            }
        }
    }
}
