//! What a run reports: the metric tables, the correctness checks, and the
//! human-readable and JSON renderings.

use std::collections::BTreeMap;

/// End-to-end metrics (untraced run), name and unit. Every workload
/// reports every one; `BENCHMARK.json` lists the same names.
///
/// On the CPU-bound workloads (`sweep_mid1`, `live_mem1`) the two timing
/// metrics are host-corrected (see [`crate::host`]); raw host times are
/// printed next to them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), name and unit. Every workload reports
/// every one; a layer a workload leaves idle reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.next_event_ns", "ns"),
    ("workloads.next_event_ns", "ns"),
    ("simulator.ns_per_read", "ns"),
    ("simulator.source_share", "ratio"),
    ("simulator.trace_overhead", "ratio"),
    ("simulator.cell_ms_p50", "ms"),
    ("simulator.cell_ms_p90", "ms"),
    ("simulator.reads", "count"),
    ("simulator.writebacks", "count"),
    ("core.epochs", "count"),
    ("core.decide_us", "us"),
    ("core.governor_share", "ratio"),
    ("rayon.parallel_efficiency", "ratio"),
    ("rayon.threads", "count"),
    ("trace.record_s", "s"),
    ("trace.encode_mb_per_s", "MB/s"),
    ("trace.decode_mb_per_s", "MB/s"),
    ("simulator.calibrate_s", "s"),
    ("mc.read_ns", "ns"),
    ("mc.writeback_ns", "ns"),
    ("serve.admit_ms_p50", "ms"),
    ("serve.cells_ms_p50", "ms"),
    ("serve.done_ms_p50", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.protocol_errors", "count"),
    ("store.commit_ms_p50", "ms"),
    ("store.journal_bytes_per_job", "bytes"),
];

/// One reported number with the base it was measured over.
#[derive(Debug, Clone)]
pub struct Value {
    /// The number as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// How it was measured, e.g. "median of 31 sweeps".
    pub basis: String,
}

/// One correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// Check name.
    pub name: &'static str,
    /// Whether it passed.
    pub ok: bool,
    /// What was compared.
    pub detail: String,
}

/// Everything a workload run produces.
#[derive(Debug, Default)]
pub struct Report {
    e2e: BTreeMap<&'static str, Value>,
    layers: BTreeMap<&'static str, Value>,
    /// Workload-specific figures printed for people (the issue-named
    /// end-to-end metrics, sample counts, failure fractions); never in the
    /// JSON result.
    info: Vec<(String, Value)>,
    checks: Vec<Check>,
    /// Raw timing samples, printed for people.
    samples: Vec<(String, Vec<f64>)>,
    /// Operations attempted (cells, runs or jobs).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Digest over every simulated statistic of the run.
    pub digest: u64,
}

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> (&'static str, &'static str) {
    *table
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

impl Report {
    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, basis: impl Into<String>) {
        let (name, unit) = unit_of(END_TO_END, name);
        self.e2e.insert(
            name,
            Value {
                value,
                unit: unit.into(),
                basis: basis.into(),
            },
        );
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, basis: impl Into<String>) {
        let (name, unit) = unit_of(PER_LAYER, name);
        self.layers.insert(
            name,
            Value {
                value,
                unit: unit.into(),
                basis: basis.into(),
            },
        );
    }

    /// Adds a figure printed for people only.
    pub fn info(&mut self, name: &str, value: f64, unit: &str, basis: impl Into<String>) {
        self.info.push((
            name.to_string(),
            Value {
                value,
                unit: unit.into(),
                basis: basis.into(),
            },
        ));
    }

    /// Keeps the raw samples behind a median, printed for people.
    pub fn samples(&mut self, name: &str, values: &[f64]) {
        self.samples.push((name.to_string(), values.to_vec()));
    }

    /// Records a correctness check.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// Prints the human-readable report (everything but the result line).
    pub fn print_human(&self, traced: bool) {
        for c in &self.checks {
            let verdict = if c.ok { "ok  " } else { "FAIL" };
            println!("check {verdict} {}: {}", c.name, c.detail);
        }
        println!("sim_digest {:016x}", self.digest);
        for (name, values) in &self.samples {
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!("samples {name} [{}]: {}", values.len(), shown.join(" "));
        }
        for (name, v) in &self.info {
            println!("info  {name} = {} {}  ({})", v.value, v.unit, v.basis);
        }
        let (kind, table) = if traced {
            ("layer", &self.layers)
        } else {
            ("e2e  ", &self.e2e)
        };
        for (name, v) in table {
            println!("{kind} {name} = {} {}  ({})", v.value, v.unit, v.basis);
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics of
    /// the run's kind, every declared one present.
    pub fn json(&self, traced: bool) -> String {
        let (declared, table) = if traced {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.e2e)
        };
        let metrics: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                let value = table.get(name).map_or(0.0, |v| v.value);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }

    /// Fills every declared per-layer metric the workload left unset with
    /// 0, marked idle.
    pub fn idle_layers(&mut self, workload: &str) {
        for (name, unit) in PER_LAYER {
            self.layers.entry(name).or_insert_with(|| Value {
                value: 0.0,
                unit: (*unit).into(),
                basis: format!("layer idle on {workload}"),
            });
        }
    }

    /// Names of declared end-to-end metrics the workload did not set.
    pub fn missing_e2e(&self) -> Vec<&'static str> {
        END_TO_END
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !self.e2e.contains_key(n))
            .collect()
    }
}
