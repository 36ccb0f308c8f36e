//! The repository benchmark: three seeded workloads run in-process through
//! the crates' public functions, on the production (unaudited) build.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_mid1|live_mem1|serve_warm --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! is the separate traced run that reports per-layer metrics from spans the
//! benchmark records around its own calls. Either way the run checks that
//! the simulated outputs are correct, prints a human-readable report, and
//! ends with one JSON result line. It exits non-zero on a failed check or
//! when the simulator was compiled with the `audit` feature. See
//! `perfbench/README.md` for the workloads, metrics and predictions.

mod host;
mod layers;
mod live;
mod report;
mod serve;
mod span;
mod stats;
mod sweep;

use memscale::policies::PolicyKind;
use memscale_simulator::{SimConfig, Simulation};
use memscale_types::time::Picos;
use memscale_workloads::Mix;
use report::Report;
use std::path::{Path, PathBuf};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["sweep_mid1", "live_mem1", "serve_warm"];

/// Directory (relative to the working directory) for run-time files:
/// per-run scratch state, removed at exit, and the traced runs' span logs.
const OUT_DIR: &str = ".perfbench";

/// What a workload needs to know about the run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Worker threads for sweeps and the server: `min(nproc, 2)`.
    pub threads: usize,
    /// Private scratch directory of this run.
    pub scratch: PathBuf,
}

impl Ctx {
    /// Where a traced run writes its spans.
    pub fn spans_path(&self) -> PathBuf {
        Path::new(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", self.workload, self.seed))
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (String, u64, f64, bool) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds) {
        (Some(w), Some(s), Some(secs)) if WORKLOADS.contains(&w.as_str()) => (w, s, secs, traced),
        _ => usage(),
    }
}

/// Whether the `audit` feature is compiled into the simulator being
/// measured: only then does a `RunResult` carry (and `Debug`-print) an
/// `audit` field. Probed with a 50 µs run.
fn audit_compiled() -> bool {
    let cfg = SimConfig::default().with_duration(Picos::from_us(50));
    let mix = Mix::by_name("ILP1").expect("ILP1 is a Table 1 mix");
    let run = Simulation::new(&mix, PolicyKind::Baseline, &cfg)
        .and_then(|sim| sim.run_for(cfg.duration, 0.0))
        .expect("probe run");
    format!("{run:?}").contains(" audit: ")
}

/// The checkout's git revision, read from `.git` in the working directory
/// without leaving it; `unknown` outside a git checkout.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(name) => std::fs::read_to_string(Path::new(".git").join(name))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|packed| {
                        packed
                            .lines()
                            .find(|l| l.ends_with(name))
                            .map(|l| l.split(' ').next().unwrap_or_default().to_string())
                    })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.chars().take(12).collect()
    }
}

/// A memory figure of this process from `/proc/self/status` in MB:
/// `VmHWM` (peak resident set) or `VmRSS` (current).
pub fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let (workload, seed, seconds, traced) = parse_args();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let threads = nproc.min(2);
    // The rayon stand-in reads this on every parallel call; set before any.
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());

    let audit = audit_compiled();
    println!(
        "provenance {{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{},\"audit\":{audit},\"threads\":{threads},\"nproc\":{nproc},\"git\":\"{}\"}}",
        u8::from(traced),
        git_revision()
    );
    if audit {
        eprintln!(
            "error: the simulator under test was compiled with the `audit` feature; \
             the benchmark measures the production build only (build perfbench on its own, \
             never as part of a workspace that enables `memscale-simulator/audit`)"
        );
        std::process::exit(3);
    }

    let scratch = Path::new(OUT_DIR).join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("error: cannot create {}: {e}", scratch.display());
        std::process::exit(1);
    }
    let ctx = Ctx {
        workload: workload.clone(),
        seed,
        seconds,
        traced,
        threads,
        scratch: scratch.clone(),
    };
    let mut report = Report::default();
    let outcome = match workload.as_str() {
        "sweep_mid1" => sweep::run(&ctx, &mut report),
        "live_mem1" => live::run(&ctx, &mut report),
        _ => serve::run(&ctx, &mut report),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = outcome {
        eprintln!("error: {workload}: {e}");
        std::process::exit(1);
    }
    if traced {
        report.idle_layers(&workload);
    } else {
        let missing = report.missing_e2e();
        assert!(missing.is_empty(), "{workload} did not report {missing:?}");
    }
    report.print_human(traced);
    println!("{}", report.json(traced));
    if !report.correct() {
        std::process::exit(1);
    }
}
