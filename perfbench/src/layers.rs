//! Single-layer measurements the traced runs add: a standalone memory
//! controller, the governor's decision, and journal commits.

use crate::stats::median;
use memscale::policies::{Policy, PolicyKind};
use memscale::profile::{AppSample, EpochProfile};
use memscale_mc::MemoryController;
use memscale_power::ActivitySummary;
use memscale_simulator::{RunResult, SimConfig};
use memscale_store::RecordLog;
use memscale_types::address::PhysAddr;
use memscale_types::freq::MemFreq;
use memscale_types::time::Picos;
use memscale_workloads::{MissEvent, MissSource};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::Path;
use std::time::Instant;

/// Host cost of the controller's two entry points.
#[derive(Debug, Clone, Copy)]
pub struct McCost {
    /// ns per `MemoryController::read`.
    pub read_ns: f64,
    /// ns a `MemoryController::writeback` adds, drains it causes included.
    pub writeback_ns: f64,
    /// Reads issued per pass.
    pub reads: u64,
    /// Writebacks issued per pass.
    pub writebacks: u64,
}

/// One controller call at a fixed arrival time: a writeback (`true`) or
/// a read of `addr`.
type Op = (Picos, PhysAddr, bool);

/// Feeds `streams` (one per core) through a standalone controller at
/// maximum frequency and measures its two entry points.
///
/// A first pass fixes the arrival times: each core issues its next event
/// `gap_instructions` CPU cycles after its previous read completed (CPI 1
/// between misses), so the controller sees the streams' addresses, row
/// locality and writeback mix under a closed-loop arrival pattern, without
/// the rest of the engine. Timed passes then replay that call sequence on
/// fresh controllers with one clock read per pass: reads alone give
/// `read_ns`; the difference made by adding the writebacks gives
/// `writeback_ns`. Each figure is the median of `PASSES` passes.
pub fn mc_standalone(cfg: &SimConfig, streams: &[&[MissEvent]]) -> McCost {
    const PASSES: usize = 5;
    let fresh = || {
        let mut mc = MemoryController::new(&cfg.system, MemFreq::MAX);
        mc.set_row_policy(cfg.row_policy);
        mc
    };
    let mut mc = fresh();
    let cycle_ps = cfg.system.cpu.cycle().as_ps();
    let mut next = vec![0usize; streams.len()];
    let mut heap: BinaryHeap<Reverse<(Picos, usize)>> = streams
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.is_empty())
        .map(|(c, s)| Reverse((Picos::from_ps(s[0].gap_instructions * cycle_ps), c)))
        .collect();
    let mut ops: Vec<Op> = Vec::new();
    while let Some(Reverse((t, c))) = heap.pop() {
        let ev = &streams[c][next[c]];
        next[c] += 1;
        if let Some(wb) = ev.writeback {
            mc.writeback(wb, t);
            ops.push((t, wb, true));
        }
        let done = mc.read(ev.addr, t).completion;
        ops.push((t, ev.addr, false));
        if let Some(following) = streams[c].get(next[c]) {
            let at = Picos::from_ps(done.as_ps() + following.gap_instructions * cycle_ps);
            heap.push(Reverse((at, c)));
        }
    }
    let writebacks = ops.iter().filter(|op| op.2).count() as u64;
    let reads = ops.len() as u64 - writebacks;
    let pass = |with_writebacks: bool| {
        let mut mc = fresh();
        let t = Instant::now();
        for &(at, addr, is_wb) in &ops {
            if !is_wb {
                std::hint::black_box(mc.read(addr, at));
            } else if with_writebacks {
                mc.writeback(addr, at);
            }
        }
        t.elapsed().as_secs_f64() * 1e9
    };
    let reads_only = median(&(0..PASSES).map(|_| pass(false)).collect::<Vec<_>>());
    let both = median(&(0..PASSES).map(|_| pass(true)).collect::<Vec<_>>());
    McCost {
        read_ns: reads_only / reads.max(1) as f64,
        writeback_ns: ((both - reads_only) / writebacks.max(1) as f64).max(0.0),
        reads,
        writebacks,
    }
}

/// ns per `next_event` of a miss source: `make` mints fresh sources, and
/// each of `PASSES` passes pulls up to `calls / sources` events from each
/// source in turn (fewer from a replay cursor that ends first) with one
/// clock read per pass; the figure is the median pass. The traced run's
/// wrapper reads the clock twice per call, which costs more than a replay
/// cursor's call itself; this measures the call alone.
pub fn source_ns(make: impl Fn() -> Vec<Box<dyn MissSource + Send>>, calls: u64) -> f64 {
    const PASSES: usize = 5;
    let samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let mut sources = make();
            let quota = calls / sources.len().max(1) as u64;
            let mut pulled = 0u64;
            let t = Instant::now();
            for src in &mut sources {
                for _ in 0..quota {
                    let Some(ev) = src.next_event() else { break };
                    std::hint::black_box(ev);
                    pulled += 1;
                }
            }
            t.elapsed().as_secs_f64() * 1e9 / pulled.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Decisions timed by [`decide_us`].
pub const DECISIONS: usize = 2_000;

/// Median host µs of one `Policy::decide` of the MemScale governor, on an
/// epoch profile built from `run`'s whole-run counters (per-core work, the
/// reads split evenly across cores, and the controller counters), over
/// [`DECISIONS`] decisions timed in batches of 50.
pub fn decide_us(cfg: &SimConfig, run: &RunResult, rest_w: f64) -> f64 {
    let cores = run.work.len().max(1) as u64;
    let profile = EpochProfile {
        window: run.duration,
        freq: MemFreq::MAX,
        apps: run
            .work
            .iter()
            .map(|&tic| AppSample {
                tic,
                tlm: run.counters.reads / cores,
            })
            .collect(),
        mc: run.counters,
        activity: ActivitySummary {
            window: run.duration,
            ..ActivitySummary::default()
        },
    };
    let mut policy = Policy::new(PolicyKind::MemScale, &cfg.system, cfg.governor);
    policy.set_rest_of_system_w(rest_w);
    let batches: Vec<f64> = (0..DECISIONS / 50)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..50 {
                std::hint::black_box(policy.decide(std::hint::black_box(&profile)));
            }
            t.elapsed().as_secs_f64() * 1e6 / 50.0
        })
        .collect();
    median(&batches)
}

/// Milliseconds of each `RecordLog::append_commit` (append plus fsync) of
/// `payloads`, cycled `commits` times, in a fresh log under `dir`.
///
/// # Errors
///
/// The store's failure to open or commit, as text.
pub fn commit_ms(dir: &Path, payloads: &[Vec<u8>], commits: usize) -> Result<Vec<f64>, String> {
    let path = dir.join("commit-probe.log");
    let (mut log, _) = RecordLog::open(&path, 1).map_err(|e| e.to_string())?;
    let mut out = Vec::with_capacity(commits);
    for payload in payloads.iter().cycle().take(commits) {
        let t = Instant::now();
        log.append_commit(payload).map_err(|e| e.to_string())?;
        out.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drop(log);
    let _ = std::fs::remove_file(&path);
    Ok(out)
}
