//! `twice-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload in this process. `--trace 0` measures the
//! end-to-end metrics; `--trace 1` measures the per-layer split. Either
//! way every cell is checked, the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`, and the
//! exit code is nonzero if any check failed.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use twice_mitigations::DefenseKind;
use twice_obs::{Ctr, HistId, SpanId};
use twice_perfbench::cells::{
    check_cell, corpus_gate, expect_gate_outcomes, prepare, run_system, CellStats, Inputs,
    Workload, CHUNK,
};
use twice_perfbench::cpuclock::CpuInstant;
use twice_perfbench::timed::{build_controllers, run_controllers};
use twice_perfbench::tracer::{self, calibrate, span, Kind, Tracer};
use twice_sim::system::System;

/// Set-ups per untraced run; `setup_s` is their median. The first one
/// feeds the first pass; the rest are spread evenly over the timed phase,
/// between passes, so the median sees the same machine as the throughput
/// does. Each replaces the inputs the next passes run.
const SETUPS: u32 = 15;
/// Every untraced run repeats its cells at least this often, so each
/// seed is run twice and its digests compared.
const MIN_PASSES: u32 = 2;
/// Chunks an untraced run must time, so ten lie beyond the p99.
const MIN_CHUNKS: usize = 1_000;
/// Spans the traced run keeps for its Chrome trace file.
const TRACE_CAPACITY: usize = 100_000;
/// Empty spans per calibration of the recorder's own cost.
const CALIBRATION_SPANS: u64 = 200_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: twice-perfbench --workload {{{}}} --seed N --seconds S --trace 0|1",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The correctness gate: operations attempted and failed.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
}

impl Gate {
    /// Records one operation; it failed if `problems` is non-empty.
    fn op(&mut self, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("FAILED: {p}");
            }
        }
    }
}

/// Metrics in output order: name → (value, unit).
type Metrics = Vec<(String, f64, &'static str)>;

/// Remembers each cell's first digests and reports any later run that
/// differs.
struct DigestLedger(Vec<Option<Vec<u64>>>);

impl DigestLedger {
    fn new(cells: usize) -> DigestLedger {
        DigestLedger(vec![None; cells])
    }

    fn check(&mut self, cell: usize, label: &str, digests: &[u64], what: &str) -> Option<String> {
        match &self.0[cell] {
            None => {
                self.0[cell] = Some(digests.to_vec());
                None
            }
            Some(first) if first == digests => None,
            Some(first) => Some(format!(
                "{label}: {what} digests {digests:x?} differ from the first run's {first:x?}"
            )),
        }
    }
}

/// One untraced pass over every cell.
struct Pass {
    busy: Duration,
    fed: u64,
    /// Host time per defense name.
    per_defense: BTreeMap<String, Duration>,
}

/// Runs every cell once. Each cell's `System` is built just before it
/// runs, outside the timers, and dropped after its checks, so one
/// `System` is resident at a time, as in `redteam::verify_corpus`.
fn run_pass(
    inputs: &Inputs,
    ledger: &mut DigestLedger,
    gate: &mut Gate,
    chunk_ns: &mut Vec<u64>,
) -> Pass {
    let mut pass = Pass {
        busy: Duration::ZERO,
        fed: 0,
        per_defense: BTreeMap::new(),
    };
    for (i, cell) in inputs.cells.iter().enumerate() {
        let items = &inputs.traces[cell.trace];
        let fed = items.len() as u64;
        let mut sys = System::new(&inputs.cfg, cell.kind);
        let problems = match run_system(&mut sys, items, chunk_ns) {
            Ok(dt) => {
                pass.busy += dt;
                pass.fed += fed;
                *pass.per_defense.entry(cell.defense.clone()).or_default() += dt;
                let stats = CellStats::of(sys.controllers());
                let mut problems = check_cell(cell, fed, &stats);
                problems.extend(ledger.check(i, &cell.label, &stats.digests, "repeat"));
                problems
            }
            Err(e) => vec![format!("{}: {e}", cell.label)],
        };
        gate.op(&problems);
    }
    pass
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of an ascending slice.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Chunks per block of [`contended_chunk_times`].
const BLOCK: usize = 40;

/// Nearest-rank upper quartile.
fn upper_quartile(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let rank = ((0.75 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The mean and the median chunk time of a pass in the host's contended
/// state, from `chunk_ns` holding whole passes of `per_pass` chunks each.
///
/// Every pass feeds the same chunks in the same order, so the chunks at
/// one position in different passes do the same work. Positions are
/// grouped into blocks of [`BLOCK`]; for each block, the chunks' mean
/// and median in every pass, and of each the upper quartile over the
/// passes. The result is the mean of the blocks' mean quartiles and the
/// median of their median quartiles.
///
/// The development box's CPU runs the simulator in two states about
/// 1.5× apart (another guest on the same core, most likely) whose shares
/// drift over minutes. The slower state holds most of the time, so the
/// upper quartile over passes lands in it as long as it holds a quarter
/// of each block's passes, and does not move with the share of the
/// faster one. A mean over the whole run, or a median of all chunks,
/// moves with that share.
fn contended_chunk_times(chunk_ns: &[u64], per_pass: usize) -> (f64, f64) {
    let blocks = per_pass / BLOCK;
    let passes: Vec<&[u64]> = chunk_ns.chunks_exact(per_pass).collect();
    let mut means = Vec::with_capacity(blocks);
    let mut medians = Vec::with_capacity(blocks);
    for b in 0..blocks {
        let mut block_means = Vec::with_capacity(passes.len());
        let mut block_medians = Vec::with_capacity(passes.len());
        for pass in &passes {
            let mut block = pass[b * BLOCK..(b + 1) * BLOCK].to_vec();
            block_means.push(block.iter().sum::<u64>() as f64 / BLOCK as f64);
            block.sort_unstable();
            block_medians.push(quantile(&block, 0.5) as f64);
        }
        means.push(upper_quartile(&mut block_means));
        medians.push(upper_quartile(&mut block_medians));
    }
    let mean = means.iter().sum::<f64>() / means.len() as f64;
    (mean, median(&mut medians))
}

/// `VmHWM` of this process, MiB. The untraced run reads it after its
/// first pass: one set-up and one run of every cell, which is the
/// program's flow. Later passes repeat that flow; the set-ups made
/// between them only let the allocator's heap creep up by a few percent,
/// by an amount that depends on how many fit in the run, which measures
/// the harness and the host's speed, not the program.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Reads or generates the workload's inputs once, outside every timer.
/// For the corpus, the CI gate runs first, its regressions are one
/// operation, and its observed outcomes become the cells' expectations.
/// Input problems are failed operations.
fn first_inputs(args: &Args, corpus: &Path, gate: &mut Gate) -> Result<Inputs, String> {
    let report = match args.workload {
        Workload::CorpusVerify => Some(corpus_gate(corpus)?),
        _ => None,
    };
    let mut inputs = prepare(args.workload, args.seed, corpus)?;
    for p in &inputs.problems {
        gate.op(std::slice::from_ref(p));
    }
    if let Some(report) = report {
        gate.op(&report.regressions);
        expect_gate_outcomes(&mut inputs, &report);
    }
    if inputs.cells.is_empty() {
        return Err("the workload has no cells to run".into());
    }
    Ok(inputs)
}

/// One timed set-up, in host (thread CPU) time: the inputs, then every
/// cell's `System`, each dropped once built (the passes build their
/// own). The new inputs carry `like`'s expected outcomes.
fn timed_setup(args: &Args, corpus: &Path, like: &Inputs) -> Result<(Inputs, f64), String> {
    let t = CpuInstant::now();
    let mut inputs = prepare(args.workload, args.seed, corpus)?;
    let mut secs = t.elapsed().as_secs_f64();
    for cell in &inputs.cells {
        let t = CpuInstant::now();
        let sys = System::new(&inputs.cfg, cell.kind);
        secs += t.elapsed().as_secs_f64();
        drop(sys);
    }
    if inputs.cells.len() != like.cells.len() {
        return Err("a repeated set-up built different cells".into());
    }
    for (cell, old) in inputs.cells.iter_mut().zip(&like.cells) {
        cell.expect_break = old.expect_break;
    }
    Ok((inputs, secs))
}

/// Replaces `inputs` with a freshly timed set-up, dropping the old
/// traces first so only one copy is resident.
fn resample(
    args: &Args,
    corpus: &Path,
    inputs: &mut Inputs,
    setup_s: &mut Vec<f64>,
) -> Result<(), String> {
    drop(std::mem::take(&mut inputs.traces));
    let (fresh, secs) = timed_setup(args, corpus, inputs)?;
    *inputs = fresh;
    setup_s.push(secs);
    Ok(())
}

/// The untraced run: a set-up, then passes over every cell until
/// `seconds` have gone by (and at least `MIN_PASSES` passes and
/// `MIN_CHUNKS` chunks are in). The `SETUPS` timed set-ups are made
/// between passes, one per `seconds / SETUPS` as the time comes due, and
/// the rest after the last pass.
fn untraced(args: &Args, corpus: &Path, gate: &mut Gate) -> Result<Metrics, String> {
    let mut inputs = first_inputs(args, corpus, gate)?;
    let mut setup_s = Vec::new();
    resample(args, corpus, &mut inputs, &mut setup_s)?;
    let per_pass = inputs.chunks_per_pass();
    if per_pass < BLOCK {
        return Err(format!(
            "a pass feeds {per_pass} full chunks, fewer than {BLOCK}"
        ));
    }
    let mut ledger = DigestLedger::new(inputs.cells.len());
    let mut chunk_ns = Vec::new();
    let (mut busy, mut fed, mut passes) = (Duration::ZERO, 0u64, 0u32);
    let start = Instant::now();
    let slot = Duration::from_secs(args.seconds) / SETUPS;
    let mut peak_rss = None;
    loop {
        let pass = run_pass(&inputs, &mut ledger, gate, &mut chunk_ns);
        busy += pass.busy;
        fed += pass.fed;
        passes += 1;
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mb()?);
        }
        let done = start.elapsed() >= Duration::from_secs(args.seconds);
        if passes >= MIN_PASSES && chunk_ns.len() >= MIN_CHUNKS && done {
            break;
        }
        while setup_s.len() < SETUPS as usize && start.elapsed() >= slot * setup_s.len() as u32 {
            resample(args, corpus, &mut inputs, &mut setup_s)?;
        }
    }
    while setup_s.len() < SETUPS as usize {
        resample(args, corpus, &mut inputs, &mut setup_s)?;
    }
    eprintln!("set-up samples (s): {setup_s:.4?}");
    let (chunk_mean_ns, chunk_p50_ns) = contended_chunk_times(&chunk_ns, per_pass);
    eprintln!(
        "whole-run means: {:.0} req/s, {:.1} us per chunk",
        fed as f64 / busy.as_secs_f64(),
        chunk_ns.iter().sum::<u64>() as f64 / chunk_ns.len() as f64 / 1e3
    );
    chunk_ns.sort_unstable();
    eprintln!(
        "{}: {passes} passes, {fed} requests, {} chunks of {CHUNK}",
        args.workload.name(),
        chunk_ns.len()
    );
    Ok(vec![
        (
            "req_per_s".into(),
            CHUNK as f64 * 1e9 / chunk_mean_ns,
            "1/s",
        ),
        ("chunk_us_p50".into(), chunk_p50_ns / 1e3, "us"),
        (
            "chunk_us_p99".into(),
            quantile(&chunk_ns, 0.99) as f64 / 1e3,
            "us",
        ),
        ("setup_s".into(), median(&mut setup_s), "s"),
        (
            "peak_rss_mb".into(),
            peak_rss.expect("read after the first pass"),
            "MiB",
        ),
    ])
}

/// The traced run: untraced reference passes for half of `seconds`, then
/// one traced set-up and one traced pass whose per-controller digests
/// must equal the reference's.
fn traced(args: &Args, corpus: &Path, gate: &mut Gate) -> Result<Metrics, String> {
    let inputs = first_inputs(args, corpus, gate)?;
    let mut ledger = DigestLedger::new(inputs.cells.len());
    let mut chunk_ns = Vec::new();
    let (mut busy, mut fed, mut passes) = (Duration::ZERO, 0u64, 0u32);
    let mut per_defense: BTreeMap<String, Duration> = BTreeMap::new();
    let start = Instant::now();
    while passes == 0 || start.elapsed() < Duration::from_secs(args.seconds) / 2 {
        let pass = run_pass(&inputs, &mut ledger, gate, &mut chunk_ns);
        busy += pass.busy;
        fed += pass.fed;
        for (d, t) in pass.per_defense {
            *per_defense.entry(d).or_default() += t;
        }
        passes += 1;
    }
    let untraced_rps = fed as f64 / busy.as_secs_f64();
    let expected: Vec<Option<bool>> = inputs.cells.iter().map(|c| c.expect_break).collect();
    drop(inputs);

    let cost = calibrate(CALIBRATION_SPANS);
    twice_obs::reset();
    tracer::install(Tracer::with_capacity(TRACE_CAPACITY).with_cost(cost));
    let (mut inputs, mut ctrls) = {
        let _root = span(Kind::BenchSetup);
        let inputs = prepare(args.workload, args.seed, corpus)?;
        let ctrls: Vec<_> = inputs
            .cells
            .iter()
            .map(|c| build_controllers(&inputs.cfg, c.kind))
            .collect();
        (inputs, ctrls)
    };
    let mut results = Vec::with_capacity(ctrls.len());
    let traced_cpu = CpuInstant::now();
    for (i, (cell, cell_ctrls)) in inputs.cells.iter().zip(ctrls.iter_mut()).enumerate() {
        tracer::set_cell(i as u32 + 1);
        let _root = span(Kind::BenchCell);
        results.push(run_controllers(
            cell_ctrls,
            &inputs.traces[cell.trace],
            CHUNK,
        ));
    }
    let traced_cpu = traced_cpu.elapsed();
    let tr = tracer::take().expect("installed above");
    let obs = twice_obs::snapshot();

    // Checked once the tracer is off, so the checks are not traced time.
    if expected.len() != inputs.cells.len() {
        return Err("the traced set-up built different cells".into());
    }
    let mut totals: Vec<CellStats> = Vec::new();
    for (i, ((cell, cell_ctrls), result)) in
        inputs.cells.iter_mut().zip(&ctrls).zip(results).enumerate()
    {
        cell.expect_break = expected[i];
        let problems = match result {
            Ok(()) => {
                let stats = CellStats::of(cell_ctrls);
                let fed = inputs.traces[cell.trace].len() as u64;
                let mut problems = check_cell(cell, fed, &stats);
                problems.extend(ledger.check(i, &cell.label, &stats.digests, "traced"));
                totals.push(stats);
                problems
            }
            Err(e) => vec![format!("{}: traced: {e}", cell.label)],
        };
        gate.op(&problems);
    }

    let trace_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.json", args.workload.name()));
    gate.op(&write_and_check_trace(
        &tr,
        args.workload.name(),
        &trace_path,
    ));

    let reqs = inputs.requests_per_pass();
    let traced_rps = reqs as f64 / traced_cpu.as_secs_f64();
    let served: u64 = totals.iter().map(|s| s.served).sum();
    let normal: u64 = totals.iter().map(|s| s.normal_acts).sum();
    let additional: u64 = totals.iter().map(|s| s.additional_acts).sum();
    let mut latency = twice_memctrl::latency::LatencyHistogram::new();
    for s in &totals {
        latency.merge(&s.latency);
    }
    let per = |ns: f64, n: u64| if n == 0 { 0.0 } else { ns / n as f64 };
    let ms = |ns: f64| ns / 1e6;
    let count = |c: Ctr| obs.counter(c) as f64;
    let t = |k: Kind| tr.totals(k);
    let on_act = t(Kind::MitigationsOnAct);
    let on_ref = t(Kind::MitigationsOnRef);
    let mut m: Metrics = vec![
        (
            "workloads.build_ms".into(),
            ms(t(Kind::WorkloadsBuild).total_ns),
            "ms",
        ),
        (
            "workloads.gen_ns_per_req".into(),
            per(t(Kind::WorkloadsGen).total_ns, inputs.generated),
            "ns",
        ),
        (
            "workloads.decode_ns_per_rec".into(),
            per(t(Kind::WorkloadsDecode).total_ns, inputs.decoded),
            "ns",
        ),
        (
            "sim.system_new_ms".into(),
            ms(t(Kind::SimSystemNew).total_ns),
            "ms",
        ),
        (
            "memctrl.submit_ns_per_req".into(),
            per(t(Kind::MemctrlSubmit).self_ns, reqs),
            "ns",
        ),
        (
            "memctrl.service_self_ns_per_req".into(),
            per(t(Kind::MemctrlService).self_ns, reqs),
            "ns",
        ),
        (
            "memctrl.queue_depth_p50".into(),
            obs.hist(HistId::MemctrlQueueDepth).quantile_bounds(0.5).1 as f64,
            "requests",
        ),
        (
            "memctrl.row_hit_pct".into(),
            100.0 * served.saturating_sub(normal) as f64 / served.max(1) as f64,
            "%",
        ),
        (
            "memctrl.cmd_retries".into(),
            count(Ctr::MemctrlCmdRetries),
            "count",
        ),
        (
            "memctrl.sim_ms".into(),
            totals.iter().map(|s| s.sim_ps as f64).sum::<f64>() / 1e9,
            "sim_ms",
        ),
        (
            "memctrl.sim_latency_p99_ns".into(),
            latency.quantile(0.99).as_ps() as f64 / 1e3,
            "sim_ns",
        ),
        (
            "dram.refresh_ns_per_req".into(),
            per(obs.span_hist(SpanId::DramRefresh).sum() as f64, reqs),
            "ns",
        ),
        (
            "dram.bank_transitions".into(),
            count(Ctr::DramBankTransitions),
            "count",
        ),
        (
            "dram.refresh_stalls".into(),
            count(Ctr::DramRefreshStalls),
            "count",
        ),
        ("dram.acts".into(), normal as f64, "count"),
        (
            "dram.bit_flips".into(),
            totals.iter().map(|s| s.bit_flips as f64).sum(),
            "count",
        ),
        (
            "mitigations.on_act_ns_per_act".into(),
            per(on_act.total_ns, on_act.calls),
            "ns",
        ),
        (
            "mitigations.on_act_calls".into(),
            on_act.calls as f64,
            "count",
        ),
        (
            "mitigations.on_ref_ns_per_call".into(),
            per(on_ref.total_ns, on_ref.calls),
            "ns",
        ),
        (
            "mitigations.on_ref_calls".into(),
            on_ref.calls as f64,
            "count",
        ),
        (
            "mitigations.extra_act_pct".into(),
            100.0 * additional as f64 / normal.max(1) as f64,
            "%",
        ),
        (
            "mitigations.detections".into(),
            totals.iter().map(|s| s.detections as f64).sum(),
            "count",
        ),
    ];
    for kind in DefenseKind::verify_lineup() {
        let name = kind.cli_name().expect("lineup kinds have CLI names");
        let spent = per_defense.get(name).copied().unwrap_or_default();
        m.push((
            format!("mitigations.{name}.replay_ms"),
            spent.as_secs_f64() * 1e3 / f64::from(passes),
            "ms",
        ));
    }
    m.extend([
        (
            "core.prune_ns_per_req".into(),
            per(obs.span_hist(SpanId::CorePrune).sum() as f64, reqs),
            "ns",
        ),
        (
            "core.pruned_entries".into(),
            count(Ctr::CorePrunedEntries),
            "count",
        ),
        ("core.arrs".into(), count(Ctr::CoreArrs), "count"),
        ("trace.coverage_pct".into(), tr.coverage_pct(), "%"),
        (
            "trace.overhead_pct".into(),
            100.0 * (untraced_rps / traced_rps - 1.0),
            "%",
        ),
    ]);
    eprintln!(
        "{}: traced {reqs} requests after {passes} reference passes; {} spans stored, {} unstored; \
         recorder cost {:.1}+{:.1} ticks per span, {:.1}% of the traced wall time; trace at {}",
        args.workload.name(),
        tr.spans().len(),
        tr.unstored(),
        cost.inside,
        cost.outside,
        100.0 * tr.recorder_ns() / tr.wall_ns(),
        trace_path.display()
    );
    Ok(m)
}

/// Writes the stored spans as Chrome trace JSON and checks the file
/// with the simulator's own trace validator.
fn write_and_check_trace(tr: &Tracer, label: &str, path: &Path) -> Vec<String> {
    let json = tr.chrome_trace_json(label);
    let dir = path.parent().expect("the trace path has a directory");
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(path, &json))
        .and_then(|()| std::fs::read_to_string(path));
    match written {
        Err(e) => vec![format!("trace file {}: {e}", path.display())],
        Ok(back) => match twice_sim::profile::validate_trace_json(&back) {
            Ok(events) if events.len() == tr.spans().len() => Vec::new(),
            Ok(events) => vec![format!(
                "trace file holds {} events, {} spans were stored",
                events.len(),
                tr.spans().len()
            )],
            Err(e) => vec![format!("trace file {} is invalid: {e}", path.display())],
        },
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("twice-perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("../corpus");
    let mut gate = Gate::default();
    let result = if args.trace {
        traced(&args, &corpus, &mut gate)
    } else {
        untraced(&args, &corpus, &mut gate)
    };
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("twice-perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for (name, value, unit) in &metrics {
        println!("{name:<36} {value:>16.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        gate.failed == 0,
        gate.attempted,
        gate.failed,
        body.join(",")
    );
    if gate.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=1_000).collect();
        assert_eq!(quantile(&v, 0.5), 500);
        assert_eq!(quantile(&v, 0.99), 990);
        assert_eq!(quantile(&v, 1.0), 1_000);
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(upper_quartile(&mut [4.0, 1.0, 3.0, 2.0]), 3.0);
    }

    /// `passes` passes of two blocks whose chunks take 1000 and 3000 ns,
    /// a pass being in the faster state (0.6×) when `fast(pass, block)`.
    fn two_state_run(passes: usize, fast: impl Fn(usize, usize) -> bool) -> Vec<u64> {
        let mut v = Vec::new();
        for p in 0..passes {
            for (b, ns) in [1_000u64, 3_000].into_iter().enumerate() {
                let ns = if fast(p, b) { ns * 6 / 10 } else { ns };
                v.extend(std::iter::repeat_n(ns, BLOCK));
            }
        }
        v
    }

    #[test]
    fn contended_times_do_not_move_with_the_fast_share() {
        let steady = contended_chunk_times(&two_state_run(8, |_, _| false), 2 * BLOCK);
        assert_eq!(steady, (2_000.0, 2_000.0));
        for share in 0..=5 {
            let run = two_state_run(8, |p, b| (p + b) % 8 < share);
            let got = contended_chunk_times(&run, 2 * BLOCK);
            assert_eq!(got, steady, "{share} of 8 passes fast");
            // The whole-run mean moves with the share.
            let mean = run.iter().sum::<u64>() as f64 / run.len() as f64;
            assert!(share == 0 || mean < 2_000.0);
        }
        let all_fast = contended_chunk_times(&two_state_run(8, |_, _| true), 2 * BLOCK);
        assert_eq!(all_fast, (1_200.0, 1_200.0));
    }
}
