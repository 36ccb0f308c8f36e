//! `sweep_mid1`: the 16-cell DDR3 replay sweep of a MID1 trace recorded at a
//! 2 ms horizon, on `min(nproc, 2)` threads.
//!
//! Set-up records the trace, writes it with `write_trace_file`, reads it
//! back with `TraceReader` and calibrates the replay baseline; the timed
//! loop repeats `replay_sharded` over `default_grid(Ddr3)`.

use crate::host::{HostClock, Laps};
use crate::layers;
use crate::report::Report;
use crate::span::{SourceTally, TimedSource, Tracer};
use crate::stats::{digest_debug, median, quantile, secs_since, Digest};
use crate::Ctx;
use memscale::policies::PolicyKind;
use memscale_simulator::{
    check_trace, default_grid, record_trace, replay_sequential, replay_sharded, Comparison,
    Experiment, RunResult, ShardResult, ShardSpec, SimConfig, Simulation,
};
use memscale_trace::format::crc32;
use memscale_trace::{write_trace_file, ReplayTrace, TraceReader};
use memscale_types::config::MemGeneration;
use memscale_types::freq::MemFreq;
use memscale_types::serve::JobSpec;
use memscale_types::time::Picos;
use memscale_workloads::Mix;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// The sweep's job: MID1, DDR3, 2 ms horizon, otherwise the serve
/// defaults (γ 10 %, 5 ms epochs, 16 cores, 4 channels, 50 % margin). The
/// server runs exactly this job in `serve_warm`.
pub fn job(id: String, seed: u64) -> JobSpec {
    JobSpec {
        duration_ms: 2,
        seed: Some(seed),
        ..JobSpec::for_mix(id, "MID1")
    }
}

/// The simulator configuration `job` describes, built field for field as
/// the sweep server builds it.
pub fn job_config(job: &JobSpec) -> SimConfig {
    let mut cfg =
        SimConfig::for_generation(job.generation).with_duration(Picos::from_ms(job.duration_ms));
    cfg.governor.gamma = job.gamma_pct / 100.0;
    cfg.governor.epoch = Picos::from_ms(job.epoch_ms);
    cfg.system.cpu.cores = job.cores;
    cfg.system.topology.channels = job.channels;
    if let Some(seed) = job.seed {
        cfg.seed = seed;
    }
    cfg
}

/// Whether `policy` runs the epoch governor.
pub fn governed(policy: PolicyKind) -> bool {
    matches!(
        policy,
        PolicyKind::MemScale
            | PolicyKind::MemScaleMemEnergy
            | PolicyKind::MemScaleFastPd
            | PolicyKind::MemScalePerChannel
    )
}

/// Governor epochs of a run: its simulated length in whole epochs.
pub fn epochs(cfg: &SimConfig, run: &RunResult) -> u64 {
    run.duration
        .as_ps()
        .div_ceil(cfg.governor.epoch.as_ps().max(1))
}

/// Digest of one cell's complete outcome.
pub fn cell_digest(label: &str, run: &RunResult, cmp: &Comparison) -> u64 {
    let mut d = Digest::default();
    d.text(label);
    d.bytes(&digest_debug(run).to_le_bytes());
    d.bytes(&digest_debug(cmp).to_le_bytes());
    d.value()
}

/// A recorded, calibrated sweep input and what each set-up step cost.
pub struct Prepared {
    /// The workload.
    pub mix: Mix,
    /// Its configuration.
    pub cfg: SimConfig,
    /// The trace as read back from disk.
    pub trace: ReplayTrace,
    /// The replay-calibrated baseline.
    pub exp: Experiment,
    /// Trace file size.
    pub file_bytes: u64,
    /// CRC-32 of the trace file.
    pub file_crc: u32,
    /// Seconds spent recording, encoding, decoding and calibrating.
    pub steps_s: [f64; 4],
}

/// Records `job`'s trace, writes it to `path`, reads it back and
/// calibrates the replay baseline.
///
/// # Errors
///
/// Any recording, I/O, trace or calibration failure, as text.
pub fn prepare(job: &JobSpec, path: &Path) -> Result<Prepared, String> {
    let mix = Mix::by_name(&job.mix).map_err(|e| e.to_string())?;
    let cfg = job_config(job);
    let t = Instant::now();
    let (header, streams) = record_trace(
        &mix,
        &cfg,
        &[PolicyKind::Static(MemFreq::MIN)],
        job.margin_pct,
    )
    .map_err(|e| e.to_string())?;
    let record_s = secs_since(t);
    let t = Instant::now();
    write_trace_file(path, &header, &streams).map_err(|e| e.to_string())?;
    let encode_s = secs_since(t);
    drop(streams);
    let t = Instant::now();
    let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
    let trace = TraceReader::new(std::io::BufReader::new(file))
        .read()
        .map_err(|e| e.to_string())?;
    let decode_s = secs_since(t);
    let t = Instant::now();
    let exp = Experiment::calibrate_replay(&mix, &cfg, &trace).map_err(|e| e.to_string())?;
    let calibrate_s = secs_since(t);
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    Ok(Prepared {
        mix,
        cfg,
        trace,
        exp,
        file_bytes: bytes.len() as u64,
        file_crc: crc32(&bytes),
        steps_s: [record_s, encode_s, decode_s, calibrate_s],
    })
}

/// Sets up `SETUP_REPEATS` times on a one-thread clock (set-up runs on one
/// core), checks every set-up produced the same trace bytes and baseline,
/// and returns the last one with the per-set-up step times and laps.
fn prepare_repeated(
    ctx: &Ctx,
    report: &mut Report,
) -> Result<(Prepared, Vec<[f64; 4]>, Laps), String> {
    let mut clock = HostClock::new(1);
    let spec = job("sweep".into(), ctx.seed);
    let mut steps = Vec::new();
    let mut laps = Laps::default();
    let mut first: Option<(u32, u64)> = None;
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        let (p, lap) = clock.time(|| prepare(&spec, &ctx.scratch.join(format!("mid1-{i}.trace"))));
        let p = p?;
        laps.push(lap);
        let identity = (p.file_crc, digest_debug(p.exp.baseline()));
        let first = *first.get_or_insert(identity);
        report.check(
            "setup_deterministic",
            identity == first,
            format!(
                "set-up {i}: trace CRC {:08x}, baseline digest {:016x}",
                identity.0, identity.1
            ),
        );
        steps.push(p.steps_s);
        last = Some(p);
    }
    Ok((last.expect("at least one set-up"), steps, laps))
}

/// Per-cell digests of a sweep (`None` for a failed cell) and its
/// simulated reads and writebacks.
struct SweepOutcome {
    digests: Vec<Option<u64>>,
    reads: u64,
    writebacks: u64,
}

fn summarize(results: &[ShardResult]) -> SweepOutcome {
    let mut out = SweepOutcome {
        digests: Vec::with_capacity(results.len()),
        reads: 0,
        writebacks: 0,
    };
    for (spec, res) in results {
        out.digests.push(res.as_ref().ok().map(|(run, cmp)| {
            out.reads += run.counters.reads;
            out.writebacks += run.counters.writes;
            cell_digest(&spec.label, run, cmp)
        }));
    }
    out
}

/// Counts failed cells and cells that differ from `reference`.
fn compare(reference: &[Option<u64>], got: &[Option<u64>]) -> (u64, u64) {
    let failed = got.iter().filter(|d| d.is_none()).count() as u64;
    let differing = reference
        .iter()
        .zip(got)
        .filter(|(r, g)| g.is_some() && r != g)
        .count() as u64;
    (failed, differing)
}

/// Replays one cell with every miss source wrapped in a [`TimedSource`]:
/// the body of `Experiment::evaluate_replay`, built from public calls.
fn evaluate_traced(
    p: &Prepared,
    policy: PolicyKind,
    tally: &SourceTally,
) -> Result<(RunResult, Comparison), String> {
    check_trace(&p.mix, &p.cfg, &p.trace).map_err(|e| e.to_string())?;
    let sources = TimedSource::wrap_all(p.trace.streams(), tally);
    let mut sim =
        Simulation::with_sources(&p.mix, policy, &p.cfg, sources).map_err(|e| e.to_string())?;
    sim.set_rest_of_system_w(p.exp.rest_w());
    let run = sim
        .run_until_work(&p.exp.baseline().work, p.exp.rest_w())
        .map_err(|e| e.to_string())?;
    let cmp = p.exp.compare(&run);
    Ok((run, cmp))
}

/// Runs the workload.
///
/// # Errors
///
/// A set-up failure, as text. Cell failures and mismatches are counted
/// and checked, not returned.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let (p, steps, setups) = prepare_repeated(ctx, report)?;
    let grid = default_grid(MemGeneration::Ddr3);

    // Warm-up and reference: one untimed sequential sweep (the reference
    // every later sweep must equal bit for bit) and one untimed sharded one.
    let reference = summarize(&replay_sequential(&p.exp, &p.trace, &grid));
    let ref_failed = reference.digests.iter().filter(|d| d.is_none()).count() as u64;
    let warm = summarize(&replay_sharded(&p.exp, &p.trace, &grid));
    let (warm_failed, warm_diff) = compare(&reference.digests, &warm.digests);
    report.attempted += 2 * grid.len() as u64;
    report.failed += ref_failed + warm_failed;

    let mut digest = Digest::default();
    for d in reference.digests.iter().flatten() {
        digest.bytes(&d.to_le_bytes());
    }
    report.digest = digest.value();
    report.info(
        "simulator.reads_per_sweep",
        reference.reads as f64,
        "count",
        "16 cells",
    );
    report.info(
        "simulator.writebacks_per_sweep",
        reference.writebacks as f64,
        "count",
        "16 cells",
    );

    if ctx.traced {
        return traced(ctx, report, &p, &grid, &steps, &reference, warm_diff);
    }

    let mut clock = HostClock::new(ctx.threads);
    let mut sweeps = Laps::default();
    let mut differing = warm_diff;
    let t0 = Instant::now();
    while secs_since(t0) < ctx.seconds {
        let (results, lap) = clock.time(|| replay_sharded(&p.exp, &p.trace, &grid));
        sweeps.push(lap);
        let got = summarize(&results);
        let (failed, diff) = compare(&reference.digests, &got.digests);
        report.attempted += grid.len() as u64;
        report.failed += failed;
        differing += diff;
    }
    let n = sweeps.len();
    report.check(
        "sharded_equals_sequential",
        differing == 0,
        format!(
            "{} sharded sweeps x {} cells against one sequential evaluate_replay sweep: {differing} cells differ",
            n + 1,
            grid.len()
        ),
    );

    report.samples("setup_s", &setups.raw_s);
    report.samples("sweep_s", &sweeps.raw_s);
    report.samples("probe_ms", &clock.probes_ms);
    let p50 = median(&sweeps.corrected_s);
    let raw_p50 = median(&sweeps.raw_s);
    let cells = grid.len() as f64;
    report.e2e(
        "peak_rss_mb",
        crate::status_mb("VmHWM:"),
        "VmHWM of this process: set-up plus measurement",
    );
    report.e2e(
        "setup_s",
        median(&setups.corrected_s),
        format!("host-corrected median of {SETUP_REPEATS} set-ups: record + encode + decode + calibrate"),
    );
    report.e2e(
        "throughput_per_s",
        cells / p50,
        format!("sweep_cells_per_s: {cells} cells / host-corrected median sweep"),
    );
    report.e2e(
        "latency_ms_p50",
        p50 * 1e3,
        format!(
            "host-corrected median of {n} 16-cell sharded sweeps on {} threads",
            ctx.threads
        ),
    );
    report.info(
        "sweep_cells_per_s",
        cells / p50,
        "1/s",
        format!("host-corrected, {n} sweeps"),
    );
    report.info(
        "sweep_ms_p50_raw",
        raw_p50 * 1e3,
        "ms",
        format!("host-time median of {n} sweeps"),
    );
    report.info(
        "sweep_ms_p90_raw",
        quantile(&sweeps.raw_s, 0.9) * 1e3,
        "ms",
        format!("host time, {n} sweeps"),
    );
    report.info(
        "sweep_cells_per_s_raw",
        cells / raw_p50,
        "1/s",
        format!("at the host-time median of {n} sweeps"),
    );
    report.info(
        "sim_mreads_per_s",
        reference.reads as f64 / p50 / 1e6,
        "M/s",
        format!(
            "{} simulated reads per sweep / host-corrected median sweep",
            reference.reads
        ),
    );
    report.info(
        "sim_mreads_per_s_raw",
        reference.reads as f64 / raw_p50 / 1e6,
        "M/s",
        "per host-time median sweep",
    );
    report.info("sweeps", n as f64, "count", "timed sweeps");
    report.info(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
        format!("{} of {} cells", report.failed, report.attempted),
    );
    report.info(
        "setup_s_raw",
        median(&setups.raw_s),
        "s",
        "host-time median of the set-ups",
    );
    Ok(())
}

fn traced(
    ctx: &Ctx,
    report: &mut Report,
    p: &Prepared,
    grid: &[ShardSpec],
    steps: &[[f64; 4]],
    reference: &SweepOutcome,
    warm_diff: u64,
) -> Result<(), String> {
    let mut tracer = Tracer::new();
    let id = format!("sweep_mid1/seed{}", ctx.seed);
    let tally: SourceTally = Arc::new(Mutex::new((0, 0)));
    let (mut untraced_ns, mut traced_ns) = (0u128, 0u128);
    let mut efficiency = Vec::new();
    let mut traced_diff = 0u64;
    let mut rounds = 0u64;
    let t0 = Instant::now();
    while rounds == 0 || secs_since(t0) < ctx.seconds {
        rounds += 1;
        let round = tracer.open("sweep.round", None, &id);
        let mut seq_s = 0.0;
        for spec in grid {
            let (res, span) = tracer.time("simulator.cell", Some(round), &spec.label, || {
                p.exp.evaluate_replay(spec.policy, &p.trace)
            });
            let ns = tracer.span(span).ns();
            untraced_ns += u128::from(ns);
            seq_s += ns as f64 / 1e9;
            report.attempted += 1;
            if res.is_err() {
                report.failed += 1;
            }
        }
        let (results, sharded) = tracer.time("rayon.sweep", Some(round), &id, || {
            replay_sharded(&p.exp, &p.trace, grid)
        });
        let sharded_s = tracer.span(sharded).ns() as f64 / 1e9;
        efficiency.push(seq_s / (ctx.threads as f64 * sharded_s));
        let (failed, diff) = compare(&reference.digests, &summarize(&results).digests);
        report.attempted += grid.len() as u64;
        report.failed += failed;
        traced_diff += diff;

        for (spec, want) in grid.iter().zip(&reference.digests) {
            let before = *tally.lock().expect("tally");
            let t = Instant::now();
            let res = evaluate_traced(p, spec.policy, &tally);
            let span = tracer.record(
                "simulator.cell_traced",
                Some(round),
                &spec.label,
                t,
                Instant::now(),
            );
            let after = *tally.lock().expect("tally");
            tracer.aggregate(
                "trace.next_event",
                span,
                after.1 - before.1,
                after.0 - before.0,
            );
            traced_ns += u128::from(tracer.span(span).ns());
            report.attempted += 1;
            match res {
                Ok((run, cmp)) => {
                    if Some(cell_digest(&spec.label, &run, &cmp)) != *want {
                        traced_diff += 1;
                    }
                }
                Err(_) => report.failed += 1,
            }
        }
        tracer.close(round);
    }
    report.check(
        "traced_equals_untraced",
        traced_diff + warm_diff == 0,
        format!(
            "{rounds} rounds of 16 traced cells and one sharded sweep against the sequential reference: {} cells differ",
            traced_diff + warm_diff
        ),
    );

    let (calls, timed_ns) = *tally.lock().expect("tally");
    let per_cell = calls / (rounds * grid.len() as u64);
    let call_ns = layers::source_ns(|| p.trace.streams(), per_cell);
    let source_ns = call_ns * calls as f64;
    let sweep_reads = reference.reads as f64;
    let cell_ms = tracer.durations_ms("simulator.cell");
    report.layer(
        "trace.next_event_ns",
        call_ns,
        format!(
            "ns per ReplayStream::next_event, {per_cell} calls (one cell's worth) drained per pass; \
             in the traced cells {calls} wrapped calls read {:.1} ns each, two clock reads included",
            timed_ns as f64 / calls.max(1) as f64
        ),
    );
    report.layer(
        "simulator.ns_per_read",
        untraced_ns as f64 / (sweep_reads * rounds as f64),
        format!(
            "untraced sequential cells: host ns per read over {} reads",
            reference.reads * rounds
        ),
    );
    report.layer(
        "simulator.source_share",
        source_ns / untraced_ns as f64,
        "next_event_ns x calls / untraced cell time",
    );
    report.layer(
        "simulator.trace_overhead",
        traced_ns as f64 / untraced_ns as f64 - 1.0,
        format!(
            "traced / untraced time of the same {} cells, minus 1",
            grid.len() as u64 * rounds
        ),
    );
    report.layer(
        "simulator.cell_ms_p50",
        median(&cell_ms),
        format!("sequential evaluate_replay over {} cells", cell_ms.len()),
    );
    report.layer(
        "simulator.cell_ms_p90",
        quantile(&cell_ms, 0.9),
        format!("sequential evaluate_replay over {} cells", cell_ms.len()),
    );
    report.layer(
        "simulator.reads",
        sweep_reads,
        "reads served per 16-cell sweep",
    );
    report.layer(
        "simulator.writebacks",
        reference.writebacks as f64,
        "writebacks served per 16-cell sweep",
    );

    // The governor: epochs over the governed cells, one decision's cost.
    let runs: Vec<(PolicyKind, RunResult)> = grid
        .iter()
        .filter(|s| governed(s.policy))
        .filter_map(|s| {
            p.exp
                .evaluate_replay(s.policy, &p.trace)
                .ok()
                .map(|(r, _)| (s.policy, r))
        })
        .collect();
    let epochs_total: u64 = runs.iter().map(|(_, r)| epochs(&p.cfg, r)).sum();
    let memscale = runs
        .iter()
        .find(|(k, _)| *k == PolicyKind::MemScale)
        .map(|(_, r)| r)
        .ok_or("MemScale cell failed")?;
    let decide = layers::decide_us(&p.cfg, memscale, p.exp.rest_w());
    let sweep_us = untraced_ns as f64 / 1e3 / rounds as f64;
    report.layer(
        "core.epochs",
        epochs_total as f64,
        format!(
            "governor epochs per sweep, {} governed cells of {}",
            runs.len(),
            grid.len()
        ),
    );
    report.layer(
        "core.decide_us",
        decide,
        format!(
            "median Policy::decide over {} calls on a MID1 profile",
            layers::DECISIONS
        ),
    );
    report.layer(
        "core.governor_share",
        decide * epochs_total as f64 / sweep_us,
        format!(
            "decide_us x epochs / sequential sweep time ({sweep_us:.0} us): negligible when ~0"
        ),
    );
    report.layer(
        "rayon.parallel_efficiency",
        median(&efficiency),
        format!("median over {rounds} rounds of sum(sequential cells) / (threads x sharded sweep)"),
    );
    report.layer("rayon.threads", ctx.threads as f64, "min(nproc, 2)");

    let col = |i: usize| steps.iter().map(|s| s[i]).collect::<Vec<f64>>();
    let mb = p.file_bytes as f64 / 1e6;
    report.layer(
        "trace.record_s",
        median(&col(0)),
        format!("median of {} record_trace calls", steps.len()),
    );
    report.layer(
        "trace.encode_mb_per_s",
        mb / median(&col(1)),
        format!(
            "{} trace bytes / median write_trace_file time",
            p.file_bytes
        ),
    );
    report.layer(
        "trace.decode_mb_per_s",
        mb / median(&col(2)),
        format!(
            "{} trace bytes / median TraceReader::read time",
            p.file_bytes
        ),
    );
    report.layer(
        "simulator.calibrate_s",
        median(&col(3)),
        format!("median of {} calibrate_replay calls", steps.len()),
    );

    let streams: Vec<&[memscale_workloads::MissEvent]> =
        (0..p.trace.apps()).map(|a| p.trace.events(a)).collect();
    let mc = layers::mc_standalone(&p.cfg, &streams);
    report.layer(
        "mc.read_ns",
        mc.read_ns,
        format!(
            "standalone MemoryController::read, reads-only pass over the {} recorded MID1 reads",
            mc.reads
        ),
    );
    report.layer(
        "mc.writeback_ns",
        mc.writeback_ns,
        format!(
            "time the {} recorded MID1 writebacks add to the reads-only pass, per writeback",
            mc.writebacks
        ),
    );
    tracer.finish(report, &ctx.spans_path())
}
