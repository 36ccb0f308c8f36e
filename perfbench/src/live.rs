//! `live_mem1`: the work behind `memscale-sim --mix MEM1 --policy memscale`
//! — `Experiment::calibrate` at the default 20 ms horizon, then
//! `evaluate(MemScale)`, with the live workload generator.

use crate::host::{HostClock, Lap, Laps};
use crate::layers;
use crate::report::Report;
use crate::span::{SourceTally, TimedSource, Tracer};
use crate::stats::{digest_debug, median, quantile, secs_since, Digest};
use crate::sweep::{cell_digest, epochs};
use crate::Ctx;
use memscale::policies::PolicyKind;
use memscale_power::PowerModel;
use memscale_simulator::{Comparison, Experiment, RunResult, SimConfig, Simulation};
use memscale_workloads::{MissEvent, MissSource, Mix};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Untimed warm-up runs per run; each is also a reference the others and
/// every timed run must equal. `setup_s` is their median.
const WARMUPS: usize = 3;

/// Outputs of one calibrate + evaluate.
struct LiveRun {
    baseline: u64,
    cell: u64,
    reads: u64,
    writebacks: u64,
    worst_cpi: f64,
}

/// One calibrate + evaluate on `clock`, each half its own lap so that the
/// host-speed correction follows the host within the run.
fn live_once(
    clock: &mut HostClock,
    mix: &Mix,
    cfg: &SimConfig,
) -> Result<(LiveRun, Experiment, RunResult, Lap), String> {
    let (exp, calibrate) = clock.time(|| Experiment::calibrate(mix, cfg));
    let exp = exp.map_err(|e| e.to_string())?;
    let (eval, evaluate) = clock.time(|| exp.evaluate(PolicyKind::MemScale));
    let (run, cmp) = eval.map_err(|e| e.to_string())?;
    let out = summarize(exp.baseline(), &run, &cmp);
    Ok((out, exp, run, calibrate + evaluate))
}

fn summarize(baseline: &RunResult, run: &RunResult, cmp: &Comparison) -> LiveRun {
    LiveRun {
        baseline: digest_debug(baseline),
        cell: cell_digest("memscale", run, cmp),
        reads: baseline.counters.reads + run.counters.reads,
        writebacks: baseline.counters.writes + run.counters.writes,
        worst_cpi: cmp.max_cpi_increase(),
    }
}

/// Live generators for `mix` under `cfg`, wrapped in timing sources.
fn timed_live_sources(
    mix: &Mix,
    cfg: &SimConfig,
    tally: &SourceTally,
) -> Vec<Box<dyn MissSource + Send>> {
    let live = mix
        .traces(cfg.system.cpu.cores, cfg.slice_lines, cfg.seed)
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn MissSource + Send>)
        .collect();
    TimedSource::wrap_all(live, tally)
}

/// `Experiment::calibrate` followed by `evaluate(MemScale)` with every
/// live generator wrapped in a timing source, built from public calls:
/// the baseline run and the rest-of-system calibration of
/// `Experiment::calibrate`, then the fixed-work MemScale run compared
/// against `exp` (the untraced experiment, whose baseline the traced one
/// must equal).
fn live_traced(
    mix: &Mix,
    cfg: &SimConfig,
    exp: &Experiment,
    tally: &SourceTally,
    tracer: &mut Tracer,
    parent: usize,
) -> Result<LiveRun, String> {
    let before = *tally.lock().expect("tally");
    let start = Instant::now();
    let sim = Simulation::with_sources(
        mix,
        PolicyKind::Baseline,
        cfg,
        timed_live_sources(mix, cfg, tally),
    )
    .map_err(|e| e.to_string())?;
    let mut baseline = sim.run_for(cfg.duration, 0.0).map_err(|e| e.to_string())?;
    let elapsed = baseline.energy.elapsed.as_secs_f64();
    let dimm_avg_w = (baseline.energy.memory_total_j() - baseline.energy.memory_j.mc_w) / elapsed;
    let rest_w = PowerModel::new(&cfg.system).rest_of_system_w(dimm_avg_w);
    baseline.energy.rest_j = rest_w * elapsed;
    baseline.rest_w = rest_w;
    let span = tracer.record(
        "simulator.calibrate_traced",
        Some(parent),
        "MEM1",
        start,
        Instant::now(),
    );
    let mid = *tally.lock().expect("tally");
    tracer.aggregate(
        "workloads.next_event",
        span,
        mid.1 - before.1,
        mid.0 - before.0,
    );

    let start = Instant::now();
    let mut sim = Simulation::with_sources(
        mix,
        PolicyKind::MemScale,
        cfg,
        timed_live_sources(mix, cfg, tally),
    )
    .map_err(|e| e.to_string())?;
    sim.set_rest_of_system_w(exp.rest_w());
    let run = sim
        .run_until_work(&exp.baseline().work, exp.rest_w())
        .map_err(|e| e.to_string())?;
    let cmp = exp.compare(&run);
    let span = tracer.record(
        "simulator.evaluate_traced",
        Some(parent),
        "MEM1",
        start,
        Instant::now(),
    );
    let after = *tally.lock().expect("tally");
    tracer.aggregate(
        "workloads.next_event",
        span,
        after.1 - mid.1,
        after.0 - mid.0,
    );
    Ok(summarize(&baseline, &run, &cmp))
}

/// Runs the workload.
///
/// # Errors
///
/// A warm-up failure, as text. Timed-run failures and mismatches are
/// counted and checked, not returned.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let mix = Mix::by_name("MEM1").map_err(|e| e.to_string())?;
    let cfg = SimConfig {
        seed: ctx.seed,
        ..SimConfig::default()
    };
    let gamma = cfg.governor.gamma;

    let mut clock = HostClock::new(1);
    let mut warmups = Laps::default();
    let mut warm = Vec::new();
    for _ in 0..WARMUPS {
        let (out, exp, run, lap) = live_once(&mut clock, &mix, &cfg)?;
        warmups.push(lap);
        warm.push((out, exp, run));
    }
    report.attempted += WARMUPS as u64;
    let (reference, exp, memscale_run) = warm.pop().expect("warm-up runs");
    let mut mismatches = warm
        .iter()
        .filter(|(w, _, _)| (w.baseline, w.cell) != (reference.baseline, reference.cell))
        .count() as u64;
    let mut worst = reference.worst_cpi;
    let mut digest = Digest::default();
    digest.bytes(&reference.baseline.to_le_bytes());
    digest.bytes(&reference.cell.to_le_bytes());
    report.digest = digest.value();
    report.info(
        "simulator.reads_per_run",
        reference.reads as f64,
        "count",
        "baseline + MemScale run",
    );
    report.info(
        "simulator.writebacks_per_run",
        reference.writebacks as f64,
        "count",
        "baseline + MemScale run",
    );

    if ctx.traced {
        return traced(ctx, report, &mix, &cfg, &exp, &memscale_run, &reference);
    }

    let mut runs = Laps::default();
    let t0 = Instant::now();
    while secs_since(t0) < ctx.seconds {
        report.attempted += 1;
        match live_once(&mut clock, &mix, &cfg) {
            Ok((out, _, _, lap)) => {
                runs.push(lap);
                worst = worst.max(out.worst_cpi);
                if (out.baseline, out.cell) != (reference.baseline, reference.cell) {
                    mismatches += 1;
                }
            }
            Err(_) => report.failed += 1,
        }
    }
    let n = runs.len();
    report.check(
        "runs_identical",
        mismatches == 0,
        format!(
            "{} calibrate+evaluate runs against the last warm-up: {mismatches} differ",
            n + WARMUPS - 1
        ),
    );
    report.check(
        "memscale_within_gamma",
        worst <= gamma,
        format!("worst per-application CPI increase {worst:.5} against gamma {gamma}"),
    );

    report.samples("warmup_s", &warmups.raw_s);
    report.samples("run_s", &runs.raw_s);
    report.samples("probe_ms", &clock.probes_ms);
    let p50 = median(&runs.corrected_s);
    let raw_p50 = median(&runs.raw_s);
    report.e2e(
        "peak_rss_mb",
        crate::status_mb("VmHWM:"),
        "VmHWM of this process: set-up plus measurement",
    );
    report.e2e(
        "setup_s",
        median(&warmups.corrected_s),
        format!(
            "host-corrected median of {WARMUPS} warm-up calibrate+evaluate runs (the reference results)"
        ),
    );
    report.e2e(
        "throughput_per_s",
        1.0 / p50,
        "runs per second: 1 / host-corrected run_s_p50",
    );
    report.e2e(
        "latency_ms_p50",
        p50 * 1e3,
        format!("run_s_p50 in ms: host-corrected median calibrate+evaluate of {n} runs"),
    );
    report.info(
        "run_s_p50",
        p50,
        "s",
        format!("host-corrected median of {n} runs"),
    );
    report.info(
        "run_s_p50_raw",
        raw_p50,
        "s",
        format!("host-time median of {n} runs"),
    );
    report.info(
        "setup_s_raw",
        median(&warmups.raw_s),
        "s",
        "host-time median of the warm-ups",
    );
    report.info("runs", n as f64, "count", "timed calibrate+evaluate runs");
    report.info(
        "sim_mreads_per_s",
        reference.reads as f64 / p50 / 1e6,
        "M/s",
        format!(
            "{} simulated reads per run / host-corrected run_s_p50",
            reference.reads
        ),
    );
    report.info(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
        format!("{} of {} runs", report.failed, report.attempted),
    );
    report.info(
        "memscale_worst_cpi_increase",
        worst,
        "ratio",
        format!("gamma {gamma}"),
    );
    Ok(())
}

fn traced(
    ctx: &Ctx,
    report: &mut Report,
    mix: &Mix,
    cfg: &SimConfig,
    exp: &Experiment,
    memscale_run: &RunResult,
    reference: &LiveRun,
) -> Result<(), String> {
    let mut tracer = Tracer::new();
    let tally: SourceTally = Arc::new(Mutex::new((0, 0)));
    let (mut untraced_ns, mut traced_ns, mut rounds, mut differing) = (0u128, 0u128, 0u64, 0u64);
    let t0 = Instant::now();
    while rounds == 0 || secs_since(t0) < ctx.seconds {
        rounds += 1;
        let round = tracer.open("live.round", None, "MEM1");
        let (cal, cal_span) = tracer.time("simulator.calibrate", Some(round), "MEM1", || {
            Experiment::calibrate(mix, cfg)
        });
        let cal = cal.map_err(|e| e.to_string())?;
        let (eval, eval_span) = tracer.time("simulator.evaluate", Some(round), "MEM1", || {
            cal.evaluate(PolicyKind::MemScale)
        });
        let (run, cmp) = eval.map_err(|e| e.to_string())?;
        untraced_ns += u128::from(tracer.span(cal_span).ns() + tracer.span(eval_span).ns());
        let plain = summarize(cal.baseline(), &run, &cmp);

        let start = Instant::now();
        let traced = live_traced(mix, cfg, exp, &tally, &mut tracer, round)?;
        traced_ns += start.elapsed().as_nanos();
        report.attempted += 2;
        for out in [plain, traced] {
            if (out.baseline, out.cell) != (reference.baseline, reference.cell) {
                differing += 1;
            }
        }
        tracer.close(round);
    }
    report.check(
        "traced_equals_untraced",
        differing == 0,
        format!("{rounds} untraced and {rounds} traced runs against the warm-up reference: {differing} differ"),
    );
    let gamma = cfg.governor.gamma;
    report.check(
        "memscale_within_gamma",
        reference.worst_cpi <= gamma,
        format!(
            "worst per-application CPI increase {:.5} against gamma {gamma}",
            reference.worst_cpi
        ),
    );

    let (calls, timed_ns) = *tally.lock().expect("tally");
    let per_run = calls / rounds;
    let call_ns = layers::source_ns(
        || {
            mix.traces(cfg.system.cpu.cores, cfg.slice_lines, cfg.seed)
                .into_iter()
                .map(|s| Box::new(s) as Box<dyn MissSource + Send>)
                .collect()
        },
        per_run,
    );
    let source_ns = call_ns * calls as f64;
    let per_round = untraced_ns as f64 / rounds as f64;
    let eval_ms = tracer.durations_ms("simulator.evaluate");
    let cal_s: Vec<f64> = tracer
        .durations_ms("simulator.calibrate")
        .iter()
        .map(|ms| ms / 1e3)
        .collect();
    report.layer(
        "workloads.next_event_ns",
        call_ns,
        format!(
            "ns per live MissStream::next_event, {per_run} calls (one run's worth) drained per pass; \
             in the traced runs {calls} wrapped calls read {:.1} ns each, two clock reads included",
            timed_ns as f64 / calls.max(1) as f64
        ),
    );
    report.layer(
        "simulator.ns_per_read",
        per_round / reference.reads as f64,
        format!(
            "untraced calibrate+evaluate: host ns per read over {} reads x {rounds} runs",
            reference.reads
        ),
    );
    report.layer(
        "simulator.source_share",
        source_ns / untraced_ns as f64,
        "next_event_ns x calls / untraced run time",
    );
    report.layer(
        "simulator.trace_overhead",
        traced_ns as f64 / untraced_ns as f64 - 1.0,
        format!("traced / untraced time over {rounds} runs each, minus 1"),
    );
    report.layer(
        "simulator.cell_ms_p50",
        median(&eval_ms),
        format!("evaluate(MemScale) over {} runs", eval_ms.len()),
    );
    report.layer(
        "simulator.cell_ms_p90",
        quantile(&eval_ms, 0.9),
        format!("evaluate(MemScale) over {} runs", eval_ms.len()),
    );
    report.layer(
        "simulator.reads",
        reference.reads as f64,
        "reads served per calibrate+evaluate",
    );
    report.layer(
        "simulator.writebacks",
        reference.writebacks as f64,
        "writebacks served per calibrate+evaluate",
    );
    report.layer(
        "simulator.calibrate_s",
        median(&cal_s),
        format!("median of {} Experiment::calibrate calls", cal_s.len()),
    );

    let n_epochs = epochs(cfg, memscale_run);
    let decide = layers::decide_us(cfg, memscale_run, exp.rest_w());
    report.layer(
        "core.epochs",
        n_epochs as f64,
        "governor epochs of the MemScale run (the baseline is unmanaged)",
    );
    report.layer(
        "core.decide_us",
        decide,
        format!(
            "median Policy::decide over {} calls on a MEM1 profile",
            layers::DECISIONS
        ),
    );
    report.layer(
        "core.governor_share",
        decide * n_epochs as f64 / (per_round / 1e3),
        format!(
            "decide_us x epochs / run time ({:.0} us): negligible when ~0",
            per_round / 1e3
        ),
    );

    // The MEM1 streams as the baseline draws them: each core's first
    // reads/cores events of its live generator.
    let per_core =
        usize::try_from(exp.baseline().counters.reads).unwrap_or(0) / cfg.system.cpu.cores;
    let streams: Vec<Vec<MissEvent>> = mix
        .traces(cfg.system.cpu.cores, cfg.slice_lines, cfg.seed)
        .into_iter()
        .map(|mut g| (0..per_core).map(|_| g.next_miss()).collect())
        .collect();
    let refs: Vec<&[MissEvent]> = streams.iter().map(Vec::as_slice).collect();
    let mc = layers::mc_standalone(cfg, &refs);
    report.layer(
        "mc.read_ns",
        mc.read_ns,
        format!(
            "standalone MemoryController::read, reads-only pass over {} MEM1 reads",
            mc.reads
        ),
    );
    report.layer(
        "mc.writeback_ns",
        mc.writeback_ns,
        format!(
            "time the {} MEM1 writebacks add to the reads-only pass, per writeback",
            mc.writebacks
        ),
    );
    tracer.finish(report, &ctx.spans_path())
}
