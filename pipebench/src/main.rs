//! `pipebench` — the hamlet pipeline benchmark.
//!
//! ```text
//! pipebench --workload <fig7_select|train_families|csv_discover|serve_predict>
//!           --seed N --seconds S --trace 0|1 --hamlet PATH --work DIR
//! ```
//!
//! Each invocation runs one workload in this process: its set-up
//! (repeated; `setup_s` is the median), then jobs back to back for
//! `--seconds`.
//! Output checks count into `attempted`/`failed`. The last stdout line
//! is the JSON result: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Normally launched by `run.py`,
//! which builds this binary and the `hamlet` CLI and sets the thread
//! count and memory budget per workload.

mod csv;
mod fig7;
mod harness;
mod serve;
mod train;

use std::collections::BTreeMap;

use hamlet_fs::Method;
use hamlet_obs::CountingAlloc;

use harness::{BatchRun, Opts, Report};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

pub const WORKLOADS: [&str; 4] = [
    "fig7_select",
    "train_families",
    "csv_discover",
    "serve_predict",
];

/// End-to-end metrics, reported by every workload (`--trace 0`).
/// `job_s` is the fastest job's wall time for the batch workloads and
/// the median request latency at the fixed open-loop rate for
/// `serve_predict`; `throughput_per_s` is jobs per second (1 / `job_s`)
/// for the batch workloads and the best closed-loop window's requests
/// per second for `serve_predict`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("job_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
];

/// Every per-layer metric (`--trace 1`), in report order. A workload
/// that does not exercise a layer reports 0 for it.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let per_star = |m: &mut Vec<(String, &'static str)>, name: &str, unit: &'static str| {
        m.push((name.to_string(), unit));
        for star in train::STARS {
            m.push((format!("{name}.{star}"), unit));
        }
    };
    per_star(&mut m, "relational.materialize_s", "s");
    per_star(&mut m, "relational.wide_cells", "count");
    m.push(("relational.ingest_s".into(), "s"));
    m.push(("relational.ingest_mb_per_s".into(), "MB/s"));
    m.push(("relational.ingest_peak_alloc_mb".into(), "MB"));
    m.push(("discovery.discover_s".into(), "s"));
    m.push(("discovery.edges_found".into(), "count"));
    m.push(("discovery.fds_accepted".into(), "count"));
    m.push(("discovery.fd_accept_ratio".into(), "ratio"));
    m.push(("core.advise_s".into(), "s"));
    per_star(&mut m, "ml.dataset_build_s", "s");
    per_star(&mut m, "ml.nb_fit_s", "s");
    per_star(&mut m, "ml.eval_s", "s");
    for method in Method::ALL {
        for plan in fig7::PLANS {
            m.push((format!("fs.{}_s.{plan}", fig7::method_key(method)), "s"));
        }
    }
    for plan in fig7::PLANS {
        m.push((format!("fs.model_fits.{plan}"), "count"));
    }
    m.push(("fs.fits_per_s".into(), "1/s"));
    per_star(&mut m, "factorized.view_build_s", "s");
    per_star(&mut m, "factorized.nb_fit_s", "s");
    per_star(&mut m, "factorized.eval_s", "s");
    per_star(&mut m, "factorized.cells_avoided", "count");
    for t in [
        "cart_fit_s",
        "gbt_fit_s",
        "cart_factorized_fit_s",
        "gbt_factorized_fit_s",
    ] {
        per_star(&mut m, &format!("trees.{t}"), "s");
    }
    for (name, unit) in [
        ("serve.artifact_build_s", "s"),
        ("serve.artifact_save_s", "s"),
        ("serve.artifact_bytes", "bytes"),
        ("serve.artifact_load_s", "s"),
        ("serve.server_p50_us", "us"),
        ("serve.rejected", "count"),
        ("serve.errors", "count"),
        ("serve.generator_lag_us", "us"),
        ("trace.unattributed_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
        ("joinall_s", "s"),
        ("joinopt_s", "s"),
    ] {
        m.push((name.into(), unit));
    }
    per_star(&mut m, "materialize_s", "s");
    per_star(&mut m, "factorize_s", "s");
    for (name, unit) in [
        ("serve_p50_us", "us"),
        ("serve_p99_us", "us"),
        ("serve_max_rps", "1/s"),
    ] {
        m.push((name.into(), unit));
    }
    for ds in fig7::dataset_keys() {
        for method in Method::ALL {
            m.push((
                format!("ratio.fig7.{ds}.{}", fig7::method_key(method)),
                "ratio",
            ));
        }
    }
    for star in train::STARS {
        for fam in train::FAMILIES {
            m.push((format!("ratio.train.{star}.{fam}"), "ratio"));
        }
    }
    m
}

fn usage() -> String {
    format!(
        "usage: pipebench --workload <{}> --seed N --seconds S --trace 0|1 --hamlet PATH --work DIR",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}\n{}", usage()))?;
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
    };
    let workload = flag("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'\n{}", usage()));
    }
    let seed = flag("--seed")?
        .parse()
        .map_err(|_| "bad --seed".to_string())?;
    let seconds: f64 = flag("--seconds")?
        .parse()
        .map_err(|_| "bad --seconds".to_string())?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match flag("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace '{other}' (0 or 1)")),
    };
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        hamlet: flag("--hamlet")?.into(),
        work: flag("--work")?.into(),
    })
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    hamlet_obs::alloc::install_meter(&ALLOC);
    if let Err(e) = std::fs::create_dir_all(&opts.work) {
        eprintln!("error: creating {}: {e}", opts.work.display());
        std::process::exit(2);
    }
    let report = match opts.workload.as_str() {
        "fig7_select" => fig7::run(&opts).map(|r| batch_report(&opts, r)),
        "train_families" => train::run(&opts).map(|r| batch_report(&opts, r)),
        "csv_discover" => csv::run(&opts).map(|r| batch_report(&opts, r)),
        _ => serve::run(&opts).map(|r| serve_report(&opts, r)),
    };
    match report {
        Ok(r) => r.print(&opts),
        Err(e) => {
            eprintln!("error: {}: {e}", opts.workload);
            std::process::exit(1);
        }
    }
}

/// Fills the result line with the end-to-end metrics or, in trace
/// mode, with every per-layer metric (0 where `layer` has no value).
fn finish(opts: &Opts, report: &mut Report, e2e: [f64; 4], layer: impl Fn(&str) -> Option<f64>) {
    if opts.trace {
        for (name, unit) in per_layer() {
            report.metric(&name, layer(&name).unwrap_or(0.0), unit);
        }
    } else {
        for ((name, unit), v) in END_TO_END.iter().zip(e2e) {
            report.metric(name, v, unit);
        }
    }
    report.note(format!(
        "fail_frac {} ({} of {} operations failed)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
}

fn batch_report(opts: &Opts, run: BatchRun) -> Report {
    let mut r = Report {
        attempted: run.attempted,
        failed: run.failed,
        failures: run.failures.clone(),
        ..Report::default()
    };
    let job_s = run.job.min();
    r.note(format!(
        "setup_s {:.6} s ({})",
        run.setup.median(),
        run.setup.describe_tail("s")
    ));
    r.note(format!(
        "job_s {job_s:.6} s (fastest job; median {:.6} s, {})",
        run.job.median(),
        run.job.describe_tail("s")
    ));
    let part = |k: &str| run.parts.median(k);
    // The pipeline's named sub-timings of a job, with tails and sample counts.
    for (k, series) in &run.parts.0 {
        if ["joinall_s", "joinopt_s"].contains(&k.as_str())
            || k.starts_with("materialize_s")
            || k.starts_with("factorize_s")
        {
            r.note(format!(
                "{k} {:.6} s ({})",
                series.median(),
                series.describe_tail("s")
            ));
        }
    }
    // The paper's ratios with their bases: reported, never gated.
    let mut ratios: BTreeMap<String, f64> = BTreeMap::new();
    for ds in fig7::dataset_keys() {
        for m in Method::ALL {
            let mk = fig7::method_key(m);
            if let (Some(a), Some(o)) = (
                part(&format!("select_s.{ds}.{mk}.joinall")),
                part(&format!("select_s.{ds}.{mk}.joinopt")),
            ) {
                let ratio = a / o.max(1e-9);
                r.note(format!("Fig7B {ds}/{mk}: JoinAll/JoinOpt {ratio:.3}x (JoinAll {a:.6} s, JoinOpt {o:.6} s)"));
                ratios.insert(format!("ratio.fig7.{ds}.{mk}"), ratio);
            }
        }
    }
    for star in train::STARS {
        for fam in train::FAMILIES {
            if let (Some(f), Some(m)) = (
                part(&format!("family_s.{star}.{fam}.factorized")),
                part(&format!("family_s.{star}.{fam}.materialized")),
            ) {
                let ratio = f / m.max(1e-9);
                r.note(format!(
                    "{star}/{fam}: factorize/materialize {ratio:.3}x (factorized fit+eval {f:.6} s, materialized fit+eval {m:.6} s)"
                ));
                ratios.insert(format!("ratio.train.{star}.{fam}"), ratio);
            }
        }
    }
    for (k, v) in &run.counts {
        r.note(format!("count {k} {v}"));
    }
    let selection_s: f64 = run
        .parts
        .0
        .iter()
        .filter(|(k, _)| k.starts_with("select_s."))
        .map(|(_, s)| s.median())
        .sum();
    let fits = run
        .counts
        .get("fs.model_fits.joinall")
        .copied()
        .unwrap_or(0.0)
        + run
            .counts
            .get("fs.model_fits.joinopt")
            .copied()
            .unwrap_or(0.0);
    let layer = |name: &str| -> Option<f64> {
        match name {
            "trace.unattributed_frac" => Some(run.unattributed.median()),
            "trace.overhead_frac" => Some(run.traced_job.min() / job_s.max(1e-9) - 1.0),
            "fs.fits_per_s" if selection_s > 0.0 => Some(fits / selection_s),
            "relational.ingest_mb_per_s" => part("ingest_mb_per_s"),
            "relational.ingest_peak_alloc_mb" => part("ingest_peak_alloc_mb"),
            _ => run
                .layers
                .median(name)
                .or_else(|| run.counts.get(name).copied())
                .or_else(|| ratios.get(name).copied())
                .or_else(|| part(name)),
        }
    };
    let e2e = [
        run.setup.median(),
        job_s,
        run.peak_rss_mb,
        1.0 / job_s.max(1e-9),
    ];
    finish(opts, &mut r, e2e, layer);
    r
}

fn serve_report(opts: &Opts, run: serve::ServeRun) -> Report {
    let mut r = Report {
        attempted: run.attempted,
        failed: run.failed,
        failures: run.failures.clone(),
        ..Report::default()
    };
    let p50 = run.p50_us();
    r.note(format!(
        "setup_s {:.6} s ({})",
        run.setup.median(),
        run.setup.describe_tail("s")
    ));
    r.note(format!(
        "serve_p50_us {p50:.3} us, serve_p99_us {:.3} us ({}) at a fixed {:.0} req/s",
        run.p99_us(),
        run.latency_us.describe_tail("us"),
        run.open_rate
    ));
    r.note(format!(
        "serve_max_rps {:.1} req/s (closed loop, best of {} windows; median window {:.1} req/s)",
        run.max_rps,
        run.window_rps.samples.len(),
        run.window_rps.median()
    ));
    r.note(format!(
        "server-side p50 {:.3} us, generator lag p50 {:.3} us",
        run.server_p50_us,
        run.lag_us.median()
    ));
    let layer = |name: &str| -> Option<f64> {
        match name {
            "serve.server_p50_us" => Some(run.server_p50_us),
            "serve.rejected" => Some(run.rejected),
            "serve.errors" => Some(run.errors),
            "serve.generator_lag_us" => Some(run.lag_us.median()),
            "serve_p50_us" => Some(p50),
            "serve_p99_us" => Some(run.p99_us()),
            "serve_max_rps" => Some(run.max_rps),
            "trace.unattributed_frac" => Some(run.unattributed),
            "trace.overhead_frac" => Some(run.traced_latency_us.median() / p50.max(1e-9) - 1.0),
            _ => run.layers.median(name),
        }
    };
    let e2e = [run.setup.median(), p50 / 1e6, run.peak_rss_mb, run.max_rps];
    finish(opts, &mut r, e2e, layer);
    r
}
