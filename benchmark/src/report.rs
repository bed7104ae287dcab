//! Results as JSON (through `pmck_rt::json`) and as text: the record of
//! one run, the set of a whole suite, the span file, and `--compare`.

use std::path::{Path, PathBuf};

use pmck_rt::Json;

use crate::ladder::{Kind, Rung, Traced};
use crate::measure::{median, quantile_of, Latency, Untraced, QUIET, TAIL};
use crate::spec::{end_to_end, PER_LAYER};

/// Where results and span files go: `out/` beside this crate's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind a latency, or windows or set-ups behind a rate or time.
    pub samples: Option<usize>,
}

/// The record of one run of one workload.
#[derive(Debug, Clone)]
pub struct Record {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Seed of inputs and stacks.
    pub seed: u64,
    /// Whether every output was correct.
    pub correct: bool,
    /// Requests judged by the oracle.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// The metrics: end-to-end ones of an untraced run, per-layer ones
    /// of a traced run.
    pub metrics: Vec<Metric>,
    /// Counts that repeat exactly on the same seed and code.
    pub counts: Vec<(String, u64)>,
    /// Raw values behind the reported ones, for the curious.
    pub detail: Json,
}

fn push_latency(
    metrics: &mut Vec<Metric>,
    p50: &'static str,
    tail: &'static str,
    lat: &Option<Latency>,
) {
    if let Some(lat) = lat {
        for (name, value) in [(p50, lat.p50_ns), (tail, lat.tail_ns)] {
            metrics.push(Metric {
                name,
                value,
                unit: "ns",
                samples: Some(lat.samples),
            });
        }
    }
}

impl Record {
    /// The record of an untraced run: every end-to-end metric that can
    /// occur on the workload.
    pub fn of_untraced(u: &Untraced) -> Record {
        let plain = |name, value: f64, samples| Metric {
            name,
            value,
            unit: end_to_end(name).expect("a listed end-to-end metric").unit,
            samples,
        };
        let mut metrics = vec![
            plain("setup_s", median(&u.setups_s), Some(u.setups_s.len())),
            plain(
                "throughput_ops_s",
                quantile_of(&u.throughput, 1.0 - QUIET),
                Some(u.throughput.len()),
            ),
        ];
        if let Some(read) = &u.read {
            metrics.push(plain("read_iqm_ns", read.iqm_ns, Some(read.samples)));
        }
        push_latency(&mut metrics, "read_p50_ns", "read_p90_ns", &u.read);
        push_latency(&mut metrics, "write_p50_ns", "write_p90_ns", &u.write);
        push_latency(&mut metrics, "flush_p50_ns", "flush_p90_ns", &u.flush);
        metrics.push(plain("failed_ops_ratio", u.tally.failed_ratio(), None));
        if let Some(s) = u.recovery_s {
            metrics.push(plain("recovery_s", s, None));
        }
        if let Some(v) = u.durability_violations {
            metrics.push(plain("durability_violations", v as f64, None));
        }
        metrics.push(plain(
            "storage_overhead_ratio",
            u.storage_overhead_ratio,
            None,
        ));
        metrics.push(plain("peak_rss_mib", u.peak_rss_mib, None));
        let counts = vec![
            ("stream_hash".to_string(), u.stream_hash),
            ("prefix_reads".to_string(), u.mix.reads),
            ("prefix_writes".to_string(), u.mix.writes),
            ("prefix_write_sums".to_string(), u.mix.write_sums),
            ("prefix_flushes".to_string(), u.mix.flushes),
            ("failed".to_string(), u.tally.failed()),
            (
                "durability_violations".to_string(),
                u.durability_violations.unwrap_or(0),
            ),
        ];
        let p99 = |l: &Option<Latency>| l.as_ref().map_or(0.0, |l| l.upper_tail_ns);
        let floats = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::from(*x)).collect());
        let detail = Json::object()
            .with("setups_s", floats(&u.setups_s))
            .with("throughput_windows_ops_s", floats(&u.throughput))
            .with(
                "read_window_iqms_ns",
                floats(u.read.as_ref().map_or(&[], |l| &l.window_iqms_ns)),
            )
            .with("quiet_quantile", QUIET)
            .with("tail_quantile", TAIL)
            .with("read_p99_ns", p99(&u.read))
            .with("write_p99_ns", p99(&u.write))
            .with("flush_p99_ns", p99(&u.flush))
            .with("blocks", u.params.blocks)
            .with("window", u.params.window as u64)
            .with("errors", u.tally.errors)
            .with("mismatches", u.tally.mismatches)
            .with("backpressure_retries", u.tally.backpressure_retries);
        Record {
            workload: u.params.workload.name(),
            traced: false,
            seed: u.seed,
            correct: u.tally.failed() == 0 && u.durability_violations.unwrap_or(0) == 0,
            attempted: u.tally.attempted,
            failed: u.tally.failed(),
            metrics,
            counts,
            detail,
        }
    }

    /// The record of a traced run: every per-layer metric.
    pub fn of_traced(t: &Traced) -> Record {
        let metrics = PER_LAYER
            .iter()
            .map(|spec| Metric {
                name: spec.name,
                value: t
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == spec.name)
                    .map_or(0.0, |(_, v)| if v.is_finite() { *v } else { 0.0 }),
                unit: spec.unit,
                samples: None,
            })
            .collect();
        let mut counts = vec![
            ("stream_hash".to_string(), t.stream_hash),
            ("n_trace".to_string(), t.params.n_trace as u64),
            ("failed".to_string(), t.tally.failed()),
        ];
        let mut rungs = Json::object();
        for (rung, r) in &t.rungs {
            let name = rung.name();
            counts.push((format!("{name}.requests"), r.all.count));
            counts.push((format!("{name}.reads_clean"), r.read_clean.count));
            counts.push((
                format!("{name}.reads_rs_corrected"),
                r.read_rs_corrected.count,
            ));
            counts.push((format!("{name}.reads_vlew"), r.read_vlew.count));
            // Allocations of the service rung include its worker's,
            // which depend on when it parks.
            if *rung != Rung::Service {
                counts.push((format!("{name}.allocs"), r.allocs));
            }
            rungs.set(
                name,
                Json::object()
                    .with("requests", r.all.count)
                    .with("ns_per_op", r.ns_per_op())
                    .with("read_ns", r.read.mean_ns())
                    .with("write_ns", r.write.mean_ns())
                    .with("write_sum_ns", r.write_sum.mean_ns())
                    .with("flush_ns", r.flush.mean_ns())
                    .with("read_p50_ns", t.tracer.median_ns(*rung, Kind::Read))
                    .with("allocs_per_op", r.allocs as f64 / r.all.count.max(1) as f64)
                    .with("errors", r.tally.errors)
                    .with("mismatches", r.tally.mismatches),
            );
        }
        for name in [
            "workloads.distinct_blocks",
            "core.engine.eur_occupancy",
            "core.wearlevel.gap_moves",
            "core.patrol.steps",
            "core.iocrc.retransmissions",
            "core.pmem.fences",
            "cluster.degraded_reads",
            "cluster.read_repairs",
        ] {
            let v = t
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            counts.push((name.to_string(), v as u64));
        }
        Record {
            workload: t.params.workload.name(),
            traced: true,
            seed: t.seed,
            correct: t.tally.failed() == 0,
            attempted: t.tally.attempted,
            failed: t.tally.failed(),
            metrics,
            counts,
            detail: Json::object()
                .with("rungs", rungs)
                .with("lane_unsettled", t.lane_unsettled),
        }
    }

    /// The one-line result the benchmark contract asks for: exactly
    /// `correct`, `attempted`, `failed` and `metrics`, the latter
    /// restricted to the names `keep` accepts.
    pub fn result_line(&self, keep: impl Fn(&str) -> bool) -> String {
        let mut metrics = Json::object();
        for m in self.metrics.iter().filter(|m| keep(m.name)) {
            metrics.set(
                m.name,
                Json::object().with("value", m.value).with("unit", m.unit),
            );
        }
        Json::object()
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .dump()
    }

    /// The full record.
    pub fn to_json(&self) -> Json {
        let mut metrics = Json::object();
        for m in &self.metrics {
            let mut entry = Json::object().with("value", m.value).with("unit", m.unit);
            if let Some(n) = m.samples {
                entry.set("samples", n as u64);
            }
            metrics.set(m.name, entry);
        }
        let mut counts = Json::object();
        for (name, v) in &self.counts {
            counts.set(name.as_str(), *v);
        }
        Json::object()
            .with("workload", self.workload)
            .with("traced", self.traced)
            .with("seed", self.seed)
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .with("counts", counts)
            .with("detail", self.detail.clone())
    }

    /// Prints every metric by name with its unit.
    pub fn print(&self) {
        let stream = self
            .counts
            .iter()
            .find(|(n, _)| n == "stream_hash")
            .map_or(0, |(_, v)| *v);
        println!(
            "== {}{} seed {} stream {stream:#018x} attempted {} failed {} ==",
            self.workload,
            if self.traced { " (traced)" } else { "" },
            self.seed,
            self.attempted,
            self.failed,
        );
        for m in &self.metrics {
            let n = m.samples.map_or(String::new(), |n| format!("  n={n}"));
            println!("  {:<40} {:>18.6} {}{n}", m.name, m.value, m.unit);
        }
    }
}

/// The machine a result was measured on.
pub fn host_json() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim());
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::object()
        .with("hardware_threads", threads as u64)
        .with("cpu", model)
        .with("rustc", env!("PMCK_BENCH_RUSTC"))
}

/// Writes `json` to `path`, creating the directory.
///
/// # Errors
///
/// Any I/O error.
pub fn write_json(path: &Path, json: &Json) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, json.pretty() + "\n")
}

/// The span file of a traced run: one row per span, compact.
pub fn spans_json(t: &Traced) -> Json {
    let names = |v: Vec<&'static str>| Json::Arr(v.into_iter().map(Json::from).collect());
    let rung_id = |r: Rung| {
        Rung::ALL
            .iter()
            .position(|x| *x == r)
            .expect("a listed rung") as u64
    };
    let kind_id = |k: Kind| {
        Kind::ALL
            .iter()
            .position(|x| *x == k)
            .expect("a listed kind") as u64
    };
    let rows = t.tracer.spans.iter().map(|s| {
        Json::Arr(vec![
            Json::from(u64::from(s.req_id)),
            Json::from(rung_id(s.rung)),
            Json::from(kind_id(s.kind)),
            Json::from(s.start_ns),
            Json::from(s.end_ns),
            s.parent_rung.map_or(Json::Null, |r| Json::from(rung_id(r))),
        ])
    });
    Json::object()
        .with("workload", t.params.workload.name())
        .with("seed", t.seed)
        .with("n_trace", t.params.n_trace as u64)
        .with("rungs", names(Rung::ALL.iter().map(|r| r.name()).collect()))
        .with("kinds", names(Kind::ALL.iter().map(|k| k.name()).collect()))
        .with(
            "fields",
            names(vec![
                "req_id",
                "rung",
                "kind",
                "start_ns",
                "end_ns",
                "parent_rung",
            ]),
        )
        .with("spans", Json::Arr(rows.collect()))
}

/// Compares two result sets written by `--all`. Returns the lines that
/// describe a difference beyond a metric's bound, or in any count.
pub fn compare(a: &Json, b: &Json) -> Vec<String> {
    let mut out = Vec::new();
    let runs = |set: &Json| {
        set.get("runs")
            .and_then(Json::as_array)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    let key = |r: &Json| {
        (
            r.get("workload")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            r.get("traced").and_then(Json::as_bool).unwrap_or(false),
        )
    };
    let theirs = runs(b);
    for ra in runs(a) {
        let (workload, traced) = key(&ra);
        let tag = format!("{workload}{}", if traced { " (traced)" } else { "" });
        let Some(rb) = theirs.iter().find(|r| key(r) == key(&ra)) else {
            out.push(format!("{tag}: missing from the second set"));
            continue;
        };
        let entries = |r: &Json, field: &str| {
            r.get(field)
                .and_then(Json::as_object)
                .map(<[(String, Json)]>::to_vec)
                .unwrap_or_default()
        };
        for (name, va) in entries(&ra, "counts") {
            let vb = rb.get("counts").and_then(|c| c.get(&name)).cloned();
            if vb.as_ref() != Some(&va) {
                out.push(format!(
                    "{tag}: count {name} differs: {} vs {}",
                    va.dump(),
                    vb.map_or("none".into(), |v| v.dump())
                ));
            }
        }
        for (name, ma) in entries(&ra, "metrics") {
            let Some(spec) = end_to_end(&name) else {
                continue;
            };
            let value = |m: &Json| m.get("value").and_then(Json::as_f64);
            let (Some(x), Some(y)) = (
                value(&ma),
                rb.get("metrics").and_then(|m| m.get(&name)).and_then(value),
            ) else {
                out.push(format!("{tag}: metric {name} missing from the second set"));
                continue;
            };
            let differs = if spec.bound == 0.0 {
                x != y
            } else {
                (x - y).abs() > spec.bound * x.abs()
            };
            if differs {
                out.push(format!(
                    "{tag}: {name} differs beyond {}%: {x} vs {y} {}",
                    spec.bound * 100.0,
                    spec.unit
                ));
            }
        }
    }
    out
}
