//! Measurement plumbing shared by the four workloads: the timed job
//! loop, per-layer self time from the benchmark's own spans, summary
//! statistics, peak-RSS bookkeeping and the result line.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hamlet_obs::span::{drain_spans, set_tracing, SpanRecord};

/// Command-line options every workload receives.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The release `hamlet` CLI (only `serve_predict` runs it).
    pub hamlet: std::path::PathBuf,
    /// Scratch directory for CSV corpora and artifacts.
    pub work: std::path::PathBuf,
}

/// Each workload repeats its set-up at least this many times, and a
/// cheap set-up more often, until [`SETUP_BUDGET_S`] of set-up time or
/// [`MAX_SETUPS`] repeats: `setup_s` is the median, and the more
/// repeats, the less one disturbed repetition moves it.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 2.0;

/// Runs `setup` repeatedly (see [`MIN_SETUPS`]), recording each
/// repetition's wall time in `times`, and returns the last state. Every
/// earlier state is dropped before the next set-up starts.
pub fn repeat_setup<S>(
    times: &mut Series,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<S, String> {
    let mut spent = 0.0;
    loop {
        let (state, t) = timed(&mut setup);
        let state = state?;
        times.push(t);
        spent += t;
        let n = times.samples.len();
        if n >= MAX_SETUPS || (n >= MIN_SETUPS && spent >= SETUP_BUDGET_S) {
            return Ok(state);
        }
    }
}

/// Prefix of every span the benchmark opens itself. Spans the crates
/// open internally (when tracing is on) are ignored by the layer
/// accounting.
const BENCH_PREFIX: &str = "bench.";

/// The root span of one job; its self time is the unattributed time.
pub const JOB_SPAN: &str = "bench.job";

/// Runs `f` and returns its result with the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile (`q` in [0, 1]) of unsorted samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((v.len() as f64) * q).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of p50/p90/p99/p99.9 that still has at least ten samples
/// beyond it, with its value — `None` below twenty samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| xs.len() as f64 * (1.0 - p / 100.0) >= 10.0)
        .map(|p| (p, quantile(xs, p / 100.0)))
}

/// A named series of samples, summarised by its median.
#[derive(Debug, Clone, Default)]
pub struct Series {
    pub samples: Vec<f64>,
}

impl Series {
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
    }

    pub fn median(&self) -> f64 {
        median(&self.samples)
    }

    /// The fastest sample: the one other tenants of the machine slowed
    /// least. Interference only ever adds time, so across runs this is
    /// far steadier than the median (see "quiet" in workloads.json).
    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// `"p90 1.23 (n=40)"` or `"n=3"` when too few samples for a tail.
    pub fn describe_tail(&self, unit: &str) -> String {
        match tail(&self.samples) {
            Some((p, v)) => format!("p{p} {v:.6} {unit}, n={}", self.samples.len()),
            None => format!("n={}", self.samples.len()),
        }
    }
}

/// Per-key series, in insertion-independent (sorted) order.
#[derive(Debug, Clone, Default)]
pub struct SeriesMap(pub BTreeMap<String, Series>);

impl SeriesMap {
    pub fn push(&mut self, key: impl Into<String>, x: f64) {
        self.0.entry(key.into()).or_default().push(x);
    }

    pub fn median(&self, key: &str) -> Option<f64> {
        self.0.get(key).map(Series::median)
    }
}

/// What one job reports back to the loop.
#[derive(Debug, Default)]
pub struct JobOut {
    /// Wall time of the job's pipeline, output checks excluded.
    pub wall_s: f64,
    /// Wall-clock sub-phases worth reporting on their own
    /// (`joinall_s`, `factorize_s.walmart`, ...).
    pub parts: Vec<(String, f64)>,
    /// Exact counts (identical on every job of a seed).
    pub counts: Vec<(String, f64)>,
    /// Output checks performed and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check, for the log.
    pub failures: Vec<String>,
}

impl JobOut {
    pub fn part(&mut self, key: impl Into<String>, s: f64) {
        self.parts.push((key.into(), s));
    }

    pub fn count(&mut self, key: impl Into<String>, n: f64) {
        self.counts.push((key.into(), n));
    }

    /// Records one checked operation; a false `ok` is a failed one.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// Everything the batch loop measured.
#[derive(Debug, Default)]
pub struct BatchRun {
    pub setup: Series,
    /// Untraced job wall times.
    pub job: Series,
    /// Traced job wall times (trace mode only).
    pub traced_job: Series,
    /// Untraced sub-phase times by key.
    pub parts: SeriesMap,
    /// Per-layer self times of traced jobs, by metric key.
    pub layers: SeriesMap,
    /// Share of each traced job under no layer span.
    pub unattributed: Series,
    /// Counts from the first job.
    pub counts: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub peak_rss_mb: f64,
}

/// Repeats `setup` (see [`repeat_setup`]), resets the peak-RSS
/// watermark, then runs `job` back to back until `opts.seconds` have
/// passed. Each job times its own pipeline inside a [`JOB_SPAN`] (see
/// [`job_span`]) and checks its outputs after it. No warm-up job runs:
/// the gated `job_s` is the fastest job, which a cold first job never
/// is. In trace mode every other job runs with tracing on, so the same
/// run yields untraced `job_s` for the overhead comparison.
pub fn run_batch<S>(
    opts: &Opts,
    setup: impl FnMut() -> Result<S, String>,
    mut job: impl FnMut(&S) -> JobOut,
) -> Result<BatchRun, String> {
    let mut run = BatchRun::default();
    let state = repeat_setup(&mut run.setup, setup)?;
    reset_peak_rss();

    let started = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    for i in 0.. {
        let traced = opts.trace && i % 2 == 1;
        if traced {
            drain_spans();
            set_tracing(true);
        }
        let out = job(&state);
        let wall = out.wall_s;
        if traced {
            set_tracing(false);
            let records = drain_spans();
            let acct = account(&records);
            for (k, v) in acct.layers {
                run.layers.push(k, v);
            }
            if acct.job_s > 0.0 {
                run.unattributed.push(acct.job_self_s / acct.job_s);
            }
            run.traced_job.push(wall);
        } else {
            run.job.push(wall);
            for (k, v) in &out.parts {
                run.parts.push(k.clone(), *v);
            }
        }
        // Counts are exact: a job that disagrees with the first job is
        // a failed operation, not noise.
        if i == 0 {
            run.counts = out.counts.iter().cloned().collect();
        }
        for (k, v) in &out.counts {
            run.attempted += 1;
            if run.counts.get(k) != Some(v) {
                run.failed += 1;
                run.failures
                    .push(format!("count {k} changed between jobs: {v}"));
            }
        }
        run.attempted += out.attempted;
        run.failed += out.failed;
        run.failures.extend(out.failures);
        let enough =
            !run.job.samples.is_empty() && (!opts.trace || !run.traced_job.samples.is_empty());
        if started.elapsed() >= budget && enough {
            break;
        }
    }
    run.peak_rss_mb = peak_rss_mb(None).unwrap_or(0.0);
    Ok(run)
}

/// Output checks that must run inside a job (while its data is alive)
/// run under this span; their time is taken out of the job's.
pub const CHECK_SPAN: &str = "bench.check";

/// Runs an in-job output check, adding its wall time to `spent` so the
/// caller can subtract it from the job's.
pub fn in_job_check<T>(spent: &mut f64, f: impl FnOnce() -> T) -> T {
    let (out, t) = timed(|| {
        let _check = hamlet_obs::span!(CHECK_SPAN);
        f()
    });
    *spent += t;
    out
}

/// Runs one job's pipeline under the root [`JOB_SPAN`], timed.
pub fn job_span<T>(f: impl FnOnce() -> T) -> (T, f64) {
    timed(|| {
        let _job = hamlet_obs::span!(JOB_SPAN);
        f()
    })
}

/// Per-layer accounting of one traced job.
#[derive(Debug, Default)]
pub struct Accounting {
    /// Self time per metric key, seconds (`relational.materialize_s`
    /// summed over every span, plus `relational.materialize_s.<on>` per
    /// span detail).
    pub layers: BTreeMap<String, f64>,
    /// Wall time of the job span, in-job checks excluded.
    pub job_s: f64,
    /// Job span time covered by no other benchmark span.
    pub job_self_s: f64,
}

/// Metric key of a benchmark span: `bench.fs.forward` -> `fs.forward_s`.
fn layer_key(name: &str) -> Option<String> {
    name.strip_prefix(BENCH_PREFIX).map(|n| format!("{n}_s"))
}

/// The `on=<x>` attribute the benchmark attaches to per-plan and
/// per-star spans.
fn span_on(detail: &str) -> Option<&str> {
    detail.split(' ').find_map(|kv| kv.strip_prefix("on="))
}

/// Self time per benchmark span: its duration minus the time covered by
/// its direct benchmark-span children on the same thread. Spans the
/// crates open are skipped — their time stays with the benchmark span
/// around the public call.
pub fn account(records: &[SpanRecord]) -> Accounting {
    let mut acct = Accounting::default();
    let mut bench: Vec<&SpanRecord> = records
        .iter()
        .filter(|r| r.name.starts_with(BENCH_PREFIX))
        .collect();
    bench.sort_by(|a, b| {
        (a.thread, a.start_ns)
            .cmp(&(b.thread, b.start_ns))
            .then(b.duration_ns.cmp(&a.duration_ns))
    });
    // Stack walk per thread: each span's children are the spans that
    // start inside it before it ends, one nesting level down.
    let mut child_ns = vec![0u128; bench.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, r) in bench.iter().enumerate() {
        while let Some(&top) = stack.last() {
            let t = bench[top];
            let inside = t.thread == r.thread && r.start_ns < t.start_ns + t.duration_ns;
            if inside {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            child_ns[parent] += r.duration_ns;
        }
        stack.push(i);
    }
    for (i, r) in bench.iter().enumerate() {
        let self_s = r.duration_ns.saturating_sub(child_ns[i]) as f64 / 1e9;
        if r.name == CHECK_SPAN {
            acct.job_s -= r.duration_ns as f64 / 1e9;
            continue;
        }
        if r.name == JOB_SPAN {
            acct.job_s += r.duration_ns as f64 / 1e9;
            acct.job_self_s += self_s;
            continue;
        }
        let Some(key) = layer_key(r.name) else {
            continue;
        };
        if let Some(on) = span_on(&r.detail) {
            *acct.layers.entry(format!("{key}.{on}")).or_default() += self_s;
        }
        *acct.layers.entry(key).or_default() += self_s;
    }
    acct
}

/// Resets this process's `VmHWM` to its current RSS, so the peak that
/// follows is the measured phase's and not the set-up's. Best effort:
/// without `/proc` the peak covers the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of `pid` (this process when `None`), in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The final report of a run: the human-readable lines go first, the
/// JSON result line last.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Metrics in the result line (end-to-end or per-layer, by mode).
    pub metrics: Vec<Metric>,
    /// Extra `name value unit  (detail)` lines: the workload's own
    /// breakdown, tails, sample counts and ratios.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Prints the notes, every metric with its unit, and the JSON line.
    pub fn print(&self, opts: &Opts) {
        println!(
            "pipebench workload={} seed={} seconds={} trace={}",
            opts.workload, opts.seed, opts.seconds, opts.trace as u8
        );
        for n in &self.notes {
            println!("  {n}");
        }
        for f in self.failures.iter().take(20) {
            println!("  FAILED: {f}");
        }
        for m in &self.metrics {
            println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}
