//! `serve_warm`: the sweep server's cache-hit path. An in-process
//! `SweepServer` with `SimulatorBackend` and a fresh `state_dir` (so the
//! journal is on) serves a closed loop of `CLIENTS` TCP clients that
//! resubmit `sweep_mid1` grid jobs drawn from a small seeded pool of
//! seeds. Set-up submits each distinct job once, cold; every timed job is
//! then answered from the cache.

use crate::host::{HostClock, Laps};
use crate::layers;
use crate::report::Report;
use crate::span::Tracer;
use crate::stats::{median, quantile, secs_since, Digest};
use crate::sweep::{job, prepare};
use crate::Ctx;
use memscale_serve::persist::JournalRecord;
use memscale_serve::wire::{decode_response, encode_job, Response};
use memscale_serve::{ServerConfig, SweepServer};
use memscale_simulator::{default_grid, replay_sequential, SimulatorBackend};
use memscale_types::config::MemGeneration;
use memscale_types::serve::{CellMetrics, JobSpec};
use memscale_workloads::rng::splitmix64;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Distinct jobs (seeds) in the pool.
const POOL: u64 = 3;
/// Closed-loop client connections (at most `nproc` on the reference box).
const CLIENTS: usize = 2;
/// Server set-ups (bind + cold pre-warm) per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Journal commits timed for `store.commit_ms_p50`.
const COMMITS: usize = 200;

/// The pool of job seeds a run draws from.
fn pool(seed: u64) -> Vec<u64> {
    (0..POOL)
        .map(|k| seed.wrapping_mul(POOL).wrapping_add(k))
        .collect()
}

/// A cell's metrics as their five `f64` bit patterns.
fn bits(m: &CellMetrics) -> [u64; 5] {
    [
        m.memory_savings.to_bits(),
        m.system_savings.to_bits(),
        m.cpi_increase_avg.to_bits(),
        m.cpi_increase_max.to_bits(),
        m.mean_frequency_mhz.to_bits(),
    ]
}

/// In-process results of every pool job: seed → cell label → metric bits.
type Expected = BTreeMap<u64, BTreeMap<String, [u64; 5]>>;

/// Computes every pool job's cells in-process: the same recording,
/// calibration and `evaluate_replay` the server runs, without the server.
fn expected(ctx: &Ctx, seeds: &[u64]) -> Result<Expected, String> {
    let grid = default_grid(MemGeneration::Ddr3);
    let mut out = Expected::new();
    for &seed in seeds {
        let p = prepare(
            &job("reference".into(), seed),
            &ctx.scratch.join(format!("ref-{seed}.trace")),
        )?;
        let mut cells = BTreeMap::new();
        for (spec, res) in replay_sequential(&p.exp, &p.trace, &grid) {
            let (run, cmp) = res.map_err(|e| format!("reference cell {}: {e}", spec.label))?;
            let m = CellMetrics {
                memory_savings: cmp.memory_savings,
                system_savings: cmp.system_savings,
                cpi_increase_avg: cmp.avg_cpi_increase(),
                cpi_increase_max: cmp.max_cpi_increase(),
                mean_frequency_mhz: run.mean_frequency_mhz(),
                p99_ms: None,
                slo_violations: None,
            };
            cells.insert(spec.policy.wire_name(), bits(&m));
        }
        out.insert(seed, cells);
    }
    Ok(out)
}

/// Client-side boundaries of one job and what its response carried.
#[derive(Debug, Default, Clone)]
struct JobRecord {
    id: String,
    sent: Option<Instant>,
    admitted: Option<Instant>,
    last_cell: Option<Instant>,
    done: Option<Instant>,
    cells: usize,
    cache_hits: u64,
    cache_misses: u64,
    /// Cells that failed or differ from the in-process result.
    bad_cells: usize,
    protocol_errors: usize,
    /// Transport failure or error response: the job did not complete.
    failed: bool,
}

impl JobRecord {
    fn total_ms(&self) -> f64 {
        match (self.sent, self.done) {
            (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64() * 1e3,
            _ => 0.0,
        }
    }
}

/// One closed-loop client connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Submits `spec` and consumes its response stream, checking every
    /// cell against `want`.
    fn submit(&mut self, spec: &JobSpec, want: &BTreeMap<String, [u64; 5]>) -> JobRecord {
        let mut rec = JobRecord {
            id: spec.id.clone(),
            ..JobRecord::default()
        };
        let mut line = encode_job(spec);
        line.push('\n');
        rec.sent = Some(Instant::now());
        if self.writer.write_all(line.as_bytes()).is_err() {
            rec.failed = true;
            return rec;
        }
        let mut expected_cells = None;
        let mut buf = String::new();
        loop {
            buf.clear();
            match self.reader.read_line(&mut buf) {
                Ok(0) | Err(_) => {
                    rec.failed = true;
                    return rec;
                }
                Ok(_) => {}
            }
            let now = Instant::now();
            let resp = match decode_response(buf.trim()) {
                Ok(r) => r,
                Err(_) => {
                    rec.protocol_errors += 1;
                    continue;
                }
            };
            if resp.id() != Some(spec.id.as_str()) {
                rec.protocol_errors += 1;
                if matches!(resp, Response::Done { .. } | Response::Error { .. }) {
                    rec.failed = true;
                    return rec;
                }
                continue;
            }
            match resp {
                Response::Admitted { cells, .. } => {
                    rec.admitted = Some(now);
                    expected_cells = Some(cells);
                }
                Response::Cell { outcome, .. } => {
                    rec.last_cell = Some(now);
                    rec.cells += 1;
                    let same = outcome
                        .result
                        .as_ref()
                        .is_ok_and(|m| want.get(&outcome.label) == Some(&bits(m)));
                    if !same {
                        rec.bad_cells += 1;
                    }
                }
                Response::Done { summary, .. } => {
                    rec.done = Some(now);
                    rec.cache_hits = summary.cache_hits;
                    rec.cache_misses = summary.cache_misses;
                    if expected_cells != Some(rec.cells)
                        || summary.cells != rec.cells
                        || rec.admitted.is_none()
                    {
                        rec.protocol_errors += 1;
                    }
                    return rec;
                }
                Response::Error { .. } => {
                    rec.failed = true;
                    return rec;
                }
            }
        }
    }
}

/// A running in-process server.
struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Server {
    fn start(ctx: &Ctx, state_dir: &Path) -> Result<Self, String> {
        let cfg = ServerConfig {
            threads: ctx.threads,
            state_dir: Some(state_dir.to_path_buf()),
            ..ServerConfig::default()
        };
        let server = SweepServer::bind("127.0.0.1:0", cfg, SimulatorBackend)
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || server.run_with_shutdown(&flag));
        Ok(Server {
            addr,
            shutdown,
            handle,
        })
    }

    fn stop(self) -> Result<(), String> {
        self.shutdown.store(true, Ordering::Release);
        match self.handle.join() {
            Ok(res) => res.map_err(|e| format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// Starts a server with a fresh state directory and submits every pool
/// job once, cold, over one connection.
fn setup(
    ctx: &Ctx,
    i: usize,
    seeds: &[u64],
    want: &Expected,
) -> Result<(Server, Vec<JobRecord>), String> {
    let state_dir = ctx.scratch.join(format!("state-{i}"));
    let server = Server::start(ctx, &state_dir)?;
    let mut client = Client::connect(server.addr)?;
    let cold = seeds
        .iter()
        .map(|&seed| client.submit(&job(format!("cold{i}-{seed}"), seed), &want[&seed]))
        .collect();
    Ok((server, cold))
}

/// Runs `CLIENTS` closed loops against `addr` until `seconds` pass. Each
/// client first sends one untimed job; the timed phase starts when every
/// client has had its answer. Returns the untimed and the timed jobs and
/// the timed phase's wall time.
fn closed_loop(
    ctx: &Ctx,
    addr: SocketAddr,
    seeds: &[u64],
    want: &Arc<Expected>,
) -> Result<(Vec<JobRecord>, Vec<JobRecord>, f64), String> {
    type ClientJobs = Result<(JobRecord, Vec<JobRecord>), String>;
    let start = Arc::new(std::sync::Barrier::new(CLIENTS + 1));
    let deadline = Duration::from_secs_f64(ctx.seconds);
    let handles: Vec<JoinHandle<ClientJobs>> = (0..CLIENTS)
        .map(|c| {
            let (seeds, want, start) = (seeds.to_vec(), Arc::clone(want), Arc::clone(&start));
            let mut rng = ctx.seed ^ (c as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407);
            std::thread::spawn(move || {
                let mut pick = |n: usize| {
                    let seed = seeds[(splitmix64(&mut rng) % seeds.len() as u64) as usize];
                    (job(format!("c{c}-j{n}"), seed), seed)
                };
                let mut client = Client::connect(addr);
                let warm = client.as_mut().ok().map(|client| {
                    let (spec, seed) = pick(0);
                    client.submit(&spec, &want[&seed])
                });
                // Every client reaches the barrier, even a failed one, so
                // the timed phase can never wait forever.
                start.wait();
                let mut client = client?;
                let warm = warm.expect("a connected client sent its warm-up job");
                let t0 = Instant::now();
                let mut records = Vec::new();
                while t0.elapsed() < deadline {
                    let (spec, seed) = pick(records.len() + 1);
                    records.push(client.submit(&spec, &want[&seed]));
                }
                Ok((warm, records))
            })
        })
        .collect();
    start.wait();
    let t0 = Instant::now();
    let (mut untimed, mut timed) = (Vec::new(), Vec::new());
    for h in handles {
        let (warm, records) = h
            .join()
            .map_err(|_| "client thread panicked".to_string())??;
        untimed.push(warm);
        timed.extend(records);
    }
    Ok((untimed, timed, secs_since(t0)))
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Runs the workload.
///
/// # Errors
///
/// A reference, bind, connect or client failure, as text. Failed jobs,
/// wrong cells and protocol errors are counted and checked.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    // Created first: job timestamps must not precede the tracer's clock.
    let mut tracer = Tracer::new();
    let seeds = pool(ctx.seed);
    // On a short-lived thread of its own: computed on the main thread, the
    // reference's freed trace buffers stayed resident and added a variable
    // 0-12 MB to the server's peak RSS.
    let want = std::thread::scope(|scope| {
        scope
            .spawn(|| expected(ctx, &seeds))
            .join()
            .map_err(|_| "reference thread panicked".to_string())
    })??;
    let want = Arc::new(want);
    let mut digest = Digest::default();
    for (seed, cells) in want.iter() {
        digest.bytes(&seed.to_le_bytes());
        for (label, b) in cells {
            digest.text(label);
            for v in b {
                digest.bytes(&v.to_le_bytes());
            }
        }
    }
    report.digest = digest.value();

    // Set-up is CPU-bound (the cold jobs simulate), so it is host-corrected
    // like the simulation workloads; the warm path is stall-bound and is not.
    let mut clock = HostClock::new(ctx.threads);
    let mut setups = Laps::default();
    let (started, lap) = clock.time(|| setup(ctx, 0, &seeds, &want));
    let (server, mut untimed) = started?;
    setups.push(lap);
    let journal = ctx.scratch.join("state-0").join("journal.log");
    let journal_before = file_len(&journal);

    let (warm, timed, wall_s) = closed_loop(ctx, server.addr, &seeds, &want)?;
    // The cold set-up jobs and the untimed warm-up jobs are checked like
    // the timed ones.
    untimed.extend(warm);
    let journal_after = file_len(&journal);
    server.stop()?;
    // Read before the extra set-ups below: their freed servers would leave
    // allocator-dependent garbage in the figure.
    let peak_rss = crate::status_mb("VmHWM:");

    // The remaining set-ups only add samples to `setup_s`.
    for i in 1..SETUPS {
        let (started, lap) = clock.time(|| setup(ctx, i, &seeds, &want));
        let (server, jobs) = started?;
        setups.push(lap);
        untimed.extend(jobs);
        server.stop()?;
    }

    let all = untimed.iter().chain(&timed);
    let (mut bad_cells, mut protocol_errors, mut failed) = (0usize, 0usize, 0u64);
    for r in all {
        bad_cells += r.bad_cells;
        protocol_errors += r.protocol_errors;
        failed += u64::from(r.failed || r.bad_cells > 0);
    }
    report.attempted += (untimed.len() + timed.len()) as u64;
    report.failed += failed;
    let cold_misses: u64 = untimed.iter().map(|r| r.cache_misses).sum();
    let (hits, misses) = timed.iter().fold((0u64, 0u64), |(h, m), r| {
        (h + r.cache_hits, m + r.cache_misses)
    });
    report.check(
        "cells_equal_in_process",
        bad_cells == 0,
        format!(
            "{} jobs x 16 cells compared as f64 bits with in-process evaluate_replay: {bad_cells} differ or failed",
            untimed.len() + timed.len()
        ),
    );
    report.check(
        "jobs_accounted",
        protocol_errors == 0 && failed == 0,
        format!(
            "{} submitted, {} completed, {failed} failed, {protocol_errors} protocol errors",
            untimed.len() + timed.len(),
            untimed.len() + timed.len() - failed as usize
        ),
    );
    report.check(
        "timed_jobs_hit_cache",
        misses == 0 && cold_misses > 0,
        format!("cold set-up misses {cold_misses}; timed-phase hits {hits}, misses {misses}"),
    );

    let ok: Vec<&JobRecord> = timed
        .iter()
        .filter(|r| !r.failed && r.done.is_some())
        .collect();
    let lat: Vec<f64> = ok.iter().map(|r| r.total_ms()).collect();
    let n = lat.len();
    if ctx.traced {
        for r in &ok {
            let (Some(sent), Some(done)) = (r.sent, r.done) else {
                continue;
            };
            let admitted = r.admitted.unwrap_or(sent);
            let last_cell = r.last_cell.unwrap_or(admitted);
            let job = tracer.record("serve.job", None, &r.id, sent, done);
            tracer.record("serve.admit", Some(job), &r.id, sent, admitted);
            tracer.record("serve.cells", Some(job), &r.id, admitted, last_cell);
            tracer.record("serve.done", Some(job), &r.id, last_cell, done);
        }
        let split = |name: &str| median(&tracer.durations_ms(name));
        let base = format!("client-side median over {n} warm jobs");
        report.layer(
            "serve.admit_ms_p50",
            split("serve.admit"),
            format!("job line sent -> `admitted` line; {base}"),
        );
        report.layer(
            "serve.cells_ms_p50",
            split("serve.cells"),
            format!("`admitted` -> last `cell` line; {base}"),
        );
        report.layer(
            "serve.done_ms_p50",
            split("serve.done"),
            format!("last `cell` -> `done` line; {base}"),
        );
        report.layer(
            "serve.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            format!(
                "{hits} hits of {} lookups (cells plus baseline) in the timed phase",
                hits + misses
            ),
        );
        report.layer(
            "serve.protocol_errors",
            protocol_errors as f64,
            format!("over {} jobs", untimed.len() + timed.len()),
        );
        report.layer(
            "rayon.threads",
            ctx.threads as f64,
            "server worker threads, min(nproc, 2)",
        );

        let grid: Vec<String> = default_grid(MemGeneration::Ddr3)
            .iter()
            .map(|s| s.policy.wire_name())
            .collect();
        let payloads = vec![
            JournalRecord::Admitted {
                id: "c0-j1".into(),
                fingerprint: u64::MAX,
                trace_crc: u32::MAX,
                cells: grid,
            }
            .encode(),
            JournalRecord::JobDone { id: "c0-j1".into() }.encode(),
        ];
        let commit_ms = layers::commit_ms(&ctx.scratch, &payloads, COMMITS)?;
        report.layer(
            "store.commit_ms_p50",
            median(&commit_ms),
            format!(
                "RecordLog::append_commit (append + fsync) of {} and {} byte journal records, median of {COMMITS}",
                payloads[0].len(),
                payloads[1].len()
            ),
        );
        report.layer(
            "store.journal_bytes_per_job",
            (journal_after - journal_before) as f64 / timed.len().max(1) as f64,
            format!("journal.log growth over {} timed jobs", timed.len()),
        );
        return tracer.finish(report, &ctx.spans_path());
    }

    report.e2e(
        "peak_rss_mb",
        peak_rss,
        "VmHWM after set-up and the warm phase on one server",
    );
    report.samples("setup_s", &setups.raw_s);
    report.samples("probe_ms", &clock.probes_ms);
    report.e2e(
        "setup_s",
        median(&setups.corrected_s),
        format!("host-corrected median of {SETUPS} set-ups: bind + {POOL} cold jobs"),
    );
    report.info(
        "setup_s_raw",
        median(&setups.raw_s),
        "s",
        "host-time median of the set-ups",
    );
    report.e2e(
        "throughput_per_s",
        n as f64 / wall_s,
        format!("jobs_per_s: {n} warm jobs / {wall_s:.3} s, closed loop, {CLIENTS} clients"),
    );
    report.e2e(
        "latency_ms_p50",
        median(&lat),
        format!(
            "job_ms_p50 over {n} warm jobs, host time (the path is stall-bound, not CPU-bound)"
        ),
    );
    report.info(
        "jobs_per_s",
        n as f64 / wall_s,
        "1/s",
        format!("{n} jobs / {wall_s:.3} s"),
    );
    report.info("job_ms_p50", median(&lat), "ms", format!("over {n} jobs"));
    report.info(
        "job_ms_p90",
        quantile(&lat, 0.9),
        "ms",
        format!("over {n} jobs, {} beyond it", n / 10),
    );
    report.info(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
        format!("{} of {} jobs", report.failed, report.attempted),
    );
    report.info(
        "cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        format!("{hits} of {} lookups", hits + misses),
    );
    Ok(())
}
