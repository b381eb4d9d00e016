//! The three workloads: how each builds its inputs, which cells it runs,
//! and the checks every cell must pass.

use crate::cpuclock::CpuInstant;
use crate::tracer::{span, Kind};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use twice_common::snapshot::digest_of;
use twice_memctrl::controller::ChannelController;
use twice_memctrl::latency::LatencyHistogram;
use twice_mitigations::DefenseKind;
use twice_sim::cio::{CampaignIo, RealIo};
use twice_sim::config::SimConfig;
use twice_sim::journal::{parse_line, unseal_line, JsonValue};
use twice_sim::redteam::{verify_corpus, VerifyReport, CORPUS_MANIFEST, MUST_HOLD};
use twice_sim::runner::{try_build_source, WorkloadKind};
use twice_sim::system::System;
use twice_workloads::tracev2::decode_salvage;
use twice_workloads::TraceItem;

/// Requests per timed chunk. Chunk latency is the host time one `feed`
/// of this many requests takes.
pub const CHUNK: usize = 1_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 7(a)'s mix-high cell on the paper system under TWiCe.
    Fig7aMixHigh,
    /// MICA on the fast-test system under TWiCe.
    MicaFast,
    /// The checked-in red-team corpus against the verify lineup.
    CorpusVerify,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig7aMixHigh,
        Workload::MicaFast,
        Workload::CorpusVerify,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig7aMixHigh => "fig7a-mixhigh",
            Workload::MicaFast => "mica-fast",
            Workload::CorpusVerify => "corpus-verify",
        }
    }

    /// Resolves a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests generated per set-up for the generated workloads.
    fn requests(self) -> usize {
        match self {
            Workload::Fig7aMixHigh => 400_000,
            Workload::MicaFast => 400_000,
            Workload::CorpusVerify => 0,
        }
    }
}

/// One cell: a defense replaying one input trace.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Index into [`Inputs::traces`].
    pub trace: usize,
    /// The defense.
    pub kind: DefenseKind,
    /// The defense's command-line name.
    pub defense: String,
    /// Human-readable cell name for failure messages.
    pub label: String,
    /// For corpus cells: whether the CI gate saw a victim flip.
    pub expect_break: Option<bool>,
}

/// A workload's materialized inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The configuration every cell runs.
    pub cfg: SimConfig,
    /// The request streams, fully in memory.
    pub traces: Vec<Vec<TraceItem>>,
    /// One name per trace: the corpus file, or the generator.
    pub trace_names: Vec<String>,
    /// The cells, in run order.
    pub cells: Vec<Cell>,
    /// Requests drawn from an `AccessSource` during set-up.
    pub generated: u64,
    /// Records decoded from v2 traces during set-up.
    pub decoded: u64,
    /// Input-level failures (corpus traces that cannot be read or
    /// decoded), each one a failed operation.
    pub problems: Vec<String>,
}

impl Inputs {
    /// Full [`CHUNK`]s one pass over every cell feeds.
    pub fn chunks_per_pass(&self) -> usize {
        self.cells
            .iter()
            .map(|c| self.traces[c.trace].len() / CHUNK)
            .sum()
    }

    /// Requests one pass over every cell feeds.
    pub fn requests_per_pass(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| self.traces[c.trace].len() as u64)
            .sum()
    }
}

fn defense_name(kind: DefenseKind) -> String {
    kind.cli_name()
        .map(str::to_string)
        .unwrap_or_else(|| kind.to_string())
}

/// Builds `workload`'s inputs: generated from `seed`, or for the corpus
/// read and decoded from `corpus_dir` under the manifest's own seed.
///
/// # Errors
///
/// A message when the inputs cannot be built at all (unreadable
/// manifest); per-trace corpus problems land in [`Inputs::problems`].
pub fn prepare(workload: Workload, seed: u64, corpus_dir: &Path) -> Result<Inputs, String> {
    let (mut cfg, source) = match workload {
        Workload::Fig7aMixHigh => (SimConfig::paper_default(), WorkloadKind::MixHigh),
        Workload::MicaFast => (SimConfig::fast_test(), WorkloadKind::Mica),
        Workload::CorpusVerify => return load_corpus(corpus_dir),
    };
    cfg.seed = seed;
    let mut src = {
        let _s = span(Kind::WorkloadsBuild);
        try_build_source(&cfg, &source).map_err(|e| e.to_string())?
    };
    let n = workload.requests();
    let items: Vec<TraceItem> = {
        let _s = span(Kind::WorkloadsGen);
        (0..n).map(|_| src.next_access()).collect()
    };
    let kind = DefenseKind::parse("twice").expect("twice is a defense name");
    Ok(Inputs {
        cfg,
        traces: vec![items],
        trace_names: vec![workload.name().to_string()],
        cells: vec![Cell {
            trace: 0,
            kind,
            defense: defense_name(kind),
            label: format!("{} vs {}", workload.name(), defense_name(kind)),
            expect_break: None,
        }],
        generated: n as u64,
        decoded: 0,
        problems: Vec::new(),
    })
}

/// Reads the corpus inputs: the manifest's seed and trace files, each
/// trace decoded with `tracev2::decode_salvage` into one cell per
/// verify-lineup defense. The manifest's seals, trace digests and
/// hold/break verdicts are not checked here; [`corpus_gate`] runs the
/// real gate for that, and [`expect_gate_outcomes`] hands its
/// observations to the cells.
fn load_corpus(dir: &Path) -> Result<Inputs, String> {
    let manifest_path = dir.join(CORPUS_MANIFEST);
    let manifest = {
        let _s = span(Kind::WorkloadsBuild);
        std::fs::read_to_string(&manifest_path)
            .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?
    };
    let mut inputs = Inputs {
        cfg: SimConfig::fast_test(),
        traces: Vec::new(),
        trace_names: Vec::new(),
        cells: Vec::new(),
        generated: 0,
        decoded: 0,
        problems: Vec::new(),
    };
    for fields in manifest
        .lines()
        .filter_map(unseal_line)
        .filter_map(|line| parse_line(&line).ok())
    {
        let get_str = |k: &str| fields.get(k).and_then(JsonValue::as_str);
        match get_str("kind") {
            Some("meta") => {
                if let Some(seed) = fields.get("seed").and_then(JsonValue::as_u64) {
                    inputs.cfg.seed = seed;
                }
                continue;
            }
            Some("trace") => {}
            _ => continue,
        }
        let Some(file) = get_str("file") else {
            continue;
        };
        let bytes = {
            let _s = span(Kind::WorkloadsBuild);
            std::fs::read(dir.join(file)).map_err(|e| format!("{file}: unreadable ({e})"))
        };
        let salvaged = bytes.and_then(|b| {
            let _s = span(Kind::WorkloadsDecode);
            decode_salvage(&b, &inputs.cfg.topology).map_err(|e| format!("{file}: {e}"))
        });
        let items = match salvaged {
            Ok(s) => s.items,
            Err(e) => {
                inputs.problems.push(e);
                continue;
            }
        };
        inputs.decoded += items.len() as u64;
        let trace = inputs.traces.len();
        inputs.traces.push(items);
        inputs.trace_names.push(file.to_string());
        for kind in DefenseKind::verify_lineup() {
            let defense = defense_name(kind);
            inputs.cells.push(Cell {
                trace,
                kind,
                label: format!("{file} vs {defense}"),
                expect_break: None,
                defense,
            });
        }
    }
    if inputs.traces.is_empty() {
        inputs
            .problems
            .push("manifest names no decodable trace".into());
    }
    Ok(inputs)
}

/// Runs the CI security gate, `redteam::verify_corpus`, over the corpus
/// in `corpus_dir`: every manifest trace replayed under every
/// verify-lineup defense and diffed against the manifest.
///
/// # Errors
///
/// The gate's own error (a missing or unreadable manifest).
pub fn corpus_gate(corpus_dir: &Path) -> Result<VerifyReport, String> {
    let io: Arc<dyn CampaignIo> = Arc::new(RealIo);
    verify_corpus(&SimConfig::fast_test(), &io, corpus_dir, 0, 0)
}

/// Sets each corpus cell's expected outcome to the one the gate
/// observed for the same trace and defense, so every timed replay must
/// reproduce it.
pub fn expect_gate_outcomes(inputs: &mut Inputs, report: &VerifyReport) {
    for cell in &mut inputs.cells {
        // The gate's wording for a replay that broke.
        let finding = format!(
            "{}: victim crossed N_th unmitigated under {}",
            inputs.trace_names[cell.trace], cell.defense
        );
        cell.expect_break = Some(report.findings.contains(&finding));
    }
}

/// What one finished cell left behind.
#[derive(Debug, Clone)]
pub struct CellStats {
    /// One `StateDigest` per channel controller.
    pub digests: Vec<u64>,
    /// Requests the controllers served.
    pub served: u64,
    /// Row activations the requests caused.
    pub normal_acts: u64,
    /// Row activations the defense caused.
    pub additional_acts: u64,
    /// Detections raised.
    pub detections: u64,
    /// Victims that crossed `N_th` unmitigated.
    pub bit_flips: u64,
    /// Simulated time at the end of the cell, picoseconds.
    pub sim_ps: u64,
    /// Queue-to-completion latency of every request.
    pub latency: LatencyHistogram,
}

impl CellStats {
    /// Collects the stats of one cell's controllers.
    pub fn of(ctrls: &[ChannelController]) -> CellStats {
        let mut latency = LatencyHistogram::new();
        for c in ctrls {
            latency.merge(c.latency());
        }
        CellStats {
            digests: ctrls.iter().map(|c| digest_of(c)).collect(),
            served: ctrls.iter().map(ChannelController::served).sum(),
            normal_acts: ctrls.iter().map(ChannelController::normal_acts).sum(),
            additional_acts: ctrls.iter().map(ChannelController::additional_acts).sum(),
            detections: ctrls.iter().map(|c| c.detections().len() as u64).sum(),
            bit_flips: ctrls.iter().map(|c| c.bit_flip_count() as u64).sum(),
            sim_ps: ctrls.iter().map(|c| c.now().as_ps()).max().unwrap_or(0),
            latency,
        }
    }
}

/// The checks every cell must pass, apart from digest agreement (which
/// needs a second run to compare against): every fed request served, no
/// flip under a defense that must hold, and a corpus cell's hold/break
/// equal to the one the CI gate observed. Returns one message per failed
/// check.
pub fn check_cell(cell: &Cell, fed: u64, stats: &CellStats) -> Vec<String> {
    let mut problems = Vec::new();
    if stats.served != fed {
        problems.push(format!(
            "{}: served {} of {fed} fed requests",
            cell.label, stats.served
        ));
    }
    let broke = stats.bit_flips > 0;
    if broke && MUST_HOLD.contains(&cell.defense.as_str()) {
        problems.push(format!(
            "{}: {} must hold but {} victims crossed N_th",
            cell.label, cell.defense, stats.bit_flips
        ));
    } else if let Some(expected) = cell.expect_break {
        if broke != expected {
            problems.push(format!(
                "{}: the CI gate observed {}, this replay {}",
                cell.label,
                if expected { "break" } else { "hold" },
                if broke { "break" } else { "hold" },
            ));
        }
    }
    problems
}

/// Feeds `items` through `sys` in [`CHUNK`]-request chunks and drains it,
/// pushing the host time (thread CPU time) of every full chunk onto
/// `chunk_ns`. Returns the host time spent feeding and draining.
///
/// # Errors
///
/// The controller error's message.
pub fn run_system(
    sys: &mut System,
    items: &[TraceItem],
    chunk_ns: &mut Vec<u64>,
) -> Result<Duration, String> {
    let mut busy = Duration::ZERO;
    for part in items.chunks(CHUNK) {
        let t = CpuInstant::now();
        for &item in part {
            sys.feed(item).map_err(|e| e.to_string())?;
        }
        let dt = t.elapsed();
        busy += dt;
        if part.len() == CHUNK {
            chunk_ns.push(u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX));
        }
    }
    let t = CpuInstant::now();
    sys.drain().map_err(|e| e.to_string())?;
    Ok(busy + t.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus_dir() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../corpus")
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("fig7a"), None);
    }

    #[test]
    fn corpus_loads_into_a_cell_per_trace_and_defense() {
        let mut inputs = prepare(Workload::CorpusVerify, 0, &corpus_dir()).expect("corpus reads");
        assert!(inputs.problems.is_empty(), "{:?}", inputs.problems);
        let lineup = DefenseKind::verify_lineup().len();
        assert_eq!(inputs.cells.len(), inputs.traces.len() * lineup);
        assert_eq!(inputs.cfg.seed, 42, "the manifest's seed applies");
        let report = corpus_gate(&corpus_dir()).expect("gate runs");
        assert!(report.regressions.is_empty(), "{:?}", report.regressions);
        expect_gate_outcomes(&mut inputs, &report);
        // The gate's findings name breaking replays, so some cells expect
        // a break and every must-hold cell expects a hold.
        assert!(inputs.cells.iter().any(|c| c.expect_break == Some(true)));
        for c in &inputs.cells {
            let must_hold = MUST_HOLD.contains(&c.defense.as_str());
            assert!(c.expect_break == Some(false) || !must_hold, "{}", c.label);
        }
    }

    #[test]
    fn a_tampered_manifest_fails_the_gate_not_the_run() {
        let dir = std::env::temp_dir().join(format!("perfbench-corpus-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let good = std::fs::read_to_string(corpus_dir().join(CORPUS_MANIFEST)).expect("manifest");
        std::fs::write(dir.join(CORPUS_MANIFEST), good.replace("\"para,", "\"cbt,"))
            .expect("write manifest");
        let inputs = prepare(Workload::CorpusVerify, 0, &dir).expect("manifest reads");
        let report = corpus_gate(&dir).expect("manifest reads");
        std::fs::remove_dir_all(&dir).expect("cleanup");
        assert!(!inputs.problems.is_empty());
        assert!(inputs.cells.is_empty(), "no trace line passes its seal");
        assert!(!report.regressions.is_empty());
    }

    #[test]
    fn checks_catch_lost_requests_flips_and_manifest_drift() {
        let cfg = SimConfig::fast_test();
        let mut sys = System::new(&cfg, DefenseKind::None);
        let items: Vec<TraceItem> = {
            let mut src = try_build_source(&cfg, &WorkloadKind::S3).expect("source");
            (0..30_000).map(|_| src.next_access()).collect()
        };
        let mut chunks = Vec::new();
        run_system(&mut sys, &items, &mut chunks).expect("fault-free run");
        assert_eq!(chunks.len(), 30);
        let stats = CellStats::of(sys.controllers());
        assert!(stats.bit_flips > 0, "S3 flips unprotected DRAM");
        let mut cell = Cell {
            trace: 0,
            kind: DefenseKind::None,
            defense: "none".into(),
            label: "s3 vs none".into(),
            expect_break: Some(true),
        };
        assert!(check_cell(&cell, items.len() as u64, &stats).is_empty());
        assert_eq!(check_cell(&cell, items.len() as u64 + 1, &stats).len(), 1);
        cell.expect_break = Some(false);
        assert_eq!(check_cell(&cell, items.len() as u64, &stats).len(), 1);
        cell.defense = "oracle".into();
        cell.expect_break = None;
        assert_eq!(check_cell(&cell, items.len() as u64, &stats).len(), 1);
    }
}
