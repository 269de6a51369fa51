//! `csv_discover`: a Walmart-shaped corpus exported as raw CSVs, then
//! mined for its star schema (`discover_dir`), loaded through the
//! discovered manifest under a memory budget (`Manifest::load_policy`),
//! advised, fitted factorized on the advised plan, and packaged as a
//! served artifact.

use std::path::{Path, PathBuf};

use hamlet_core::{advise, AdvisorConfig, AdvisorReport};
use hamlet_datagen::realistic::DatasetSpec;
use hamlet_discovery::{discover_dir, DiscoveryConfig};
use hamlet_factorized::{fit_factorized_nb, FactorizedView};
use hamlet_ml::classifier::zero_one_error;
use hamlet_ml::naive_bayes::NaiveBayes;
use hamlet_ml::split::HoldoutSplit;
use hamlet_ml::CodeSource;
use hamlet_obs::span;
use hamlet_relational::{write_csv, LoadPolicy, StarSchema};
use hamlet_serve::{artifact, build_artifact, ModelKind};

use crate::harness::{in_job_check, job_span, run_batch, timed, BatchRun, JobOut, Opts};

/// Scale of the exported star (~40 MB of CSV).
pub const SCALE: f64 = 2.0;

pub struct State {
    corpus: PathBuf,
    corpus_mb: f64,
    target: String,
    /// `(fk column, referenced file stem)` per declared join.
    declared_fks: Vec<(String, String)>,
    /// The advisor's `(fk, avoid)` verdicts over the generated star.
    declared_verdicts: Vec<(String, bool)>,
    seed: u64,
}

/// The advisor's per-join verdicts, FK-keyed (table names change case
/// in the CSV round trip; FK column names do not).
fn verdicts(report: &AdvisorReport) -> Vec<(String, bool)> {
    let mut v: Vec<(String, bool)> = report
        .joins
        .iter()
        .map(|j| (j.fk.clone(), j.avoid))
        .collect();
    v.sort();
    v
}

/// The advisor as the pipeline calls it: half the rows train.
fn advise_star(star: &StarSchema) -> Result<AdvisorReport, String> {
    advise(star, star.n_s() / 2, &AdvisorConfig::default()).map_err(|e| format!("advise: {e}"))
}

fn export(dir: &Path, seed: u64) -> Result<State, String> {
    let spec = DatasetSpec::walmart();
    let g = spec.generate(SCALE, seed);
    let declared_verdicts = verdicts(&advise_star(&g.star)?);
    let io = |e: std::io::Error| e.to_string();
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(io)?;
    let mut bytes = 0usize;
    let mut write = |stem: String, table: &hamlet_relational::Table| -> std::io::Result<()> {
        let text = write_csv(table, ',');
        bytes += text.len();
        std::fs::write(dir.join(format!("{stem}.csv")), text)
    };
    write(g.star.entity().name().to_lowercase(), g.star.entity()).map_err(io)?;
    for at in g.star.attributes() {
        write(at.table.name().to_lowercase(), &at.table).map_err(io)?;
    }
    Ok(State {
        corpus: dir.to_path_buf(),
        corpus_mb: bytes as f64 / 1e6,
        target: spec.target.to_string(),
        declared_fks: g
            .star
            .attributes()
            .iter()
            .map(|at| (at.fk.clone(), at.table.name().to_lowercase()))
            .collect(),
        declared_verdicts,
        seed,
    })
}

pub fn run(opts: &Opts) -> Result<BatchRun, String> {
    let dir = opts.work.join("corpus");
    run_batch(
        opts,
        || export(&dir, opts.seed).map_err(|e| format!("exporting the corpus: {e}")),
        |st| job(st, &opts.work),
    )
}

fn job(st: &State, work: &Path) -> JobOut {
    let mut out = JobOut::default();
    let artifact_path = work.join("walmart_nb.model");
    let mut check_s = 0.0;
    let (result, wall) = job_span(|| -> Result<(), String> {
        let cfg = DiscoveryConfig {
            target: Some(st.target.clone()),
            threads: hamlet_obs::env::resolved_threads(),
            ..DiscoveryConfig::default()
        };
        let d = {
            let _s = span!("bench.discovery.discover");
            discover_dir(&st.corpus, &cfg).map_err(|e| format!("discover_dir: {e}"))?
        };
        hamlet_obs::alloc::reset_peak();
        let (load, ingest_s) = timed(|| {
            let _s = span!("bench.relational.ingest");
            d.manifest.load_policy(&st.corpus, &LoadPolicy::default())
        });
        let load = load.map_err(|e| format!("load_policy: {e}"))?;
        if let Some(peak) = hamlet_obs::alloc::peak_bytes() {
            out.part("ingest_peak_alloc_mb", peak as f64 / 1e6);
        }
        out.part("ingest_mb_per_s", st.corpus_mb / ingest_s);
        let star = load.star;

        let report = {
            let _s = span!("bench.core.advise");
            advise_star(&star)?
        };
        let joined = report.plan().joined;
        let view = {
            let _s = span!("bench.factorized.view_build");
            FactorizedView::with_join_set(&star, &joined).map_err(|e| format!("view: {e}"))?
        };
        let split = HoldoutSplit::paper_protocol(star.n_s(), st.seed);
        let feats: Vec<usize> = (0..view.n_features()).collect();
        let model = {
            let _s = span!("bench.factorized.nb_fit");
            fit_factorized_nb(&view, &NaiveBayes::default(), &split.train, &feats)
                .map_err(|e| format!("fit_factorized_nb: {e}"))?
        };
        let error = {
            let _s = span!("bench.factorized.eval");
            zero_one_error(&model, &view, &split.test)
        };
        let built = {
            let _s = span!("bench.serve.artifact_build");
            build_artifact(
                &star,
                ModelKind::NaiveBayes,
                &AdvisorConfig::default(),
                "walmart",
            )
            .map_err(|e| format!("build_artifact: {e}"))?
        };
        {
            let _s = span!("bench.serve.artifact_save");
            artifact::save(&built.artifact, &artifact_path)
                .map_err(|e| format!("artifact::save: {e}"))?;
        }

        let accepted: Vec<_> = d.report.accepted_fks().collect();
        let n_fds = d.report.fds.len();
        let n_fds_ok = d.report.accepted_fds().count();
        out.count("discovery.edges_found", accepted.len() as f64);
        out.count("discovery.fds_accepted", n_fds_ok as f64);
        out.count(
            "discovery.fd_accept_ratio",
            n_fds_ok as f64 / n_fds.max(1) as f64,
        );
        out.count("factorized.cells_avoided", view.cells_avoided() as f64);
        out.check(error.is_finite() && error < 1.0, || {
            format!("factorized NB holdout error {error}")
        });
        for (fk, table) in &st.declared_fks {
            out.check(
                accepted
                    .iter()
                    .any(|e| &e.fk_column == fk && &e.key_table == table),
                || format!("declared FK {fk} -> {table} not recovered"),
            );
        }
        let found = verdicts(&report);
        out.check(found == st.declared_verdicts, || {
            format!(
                "advisor verdicts over the discovered star {found:?} != declared {:?}",
                st.declared_verdicts
            )
        });
        let reloaded = in_job_check(&mut check_s, || artifact::load(&artifact_path));
        out.check(
            reloaded.as_ref().is_ok_and(|a| *a == built.artifact),
            || {
                format!(
                    "saved artifact did not load back equal: {:?}",
                    reloaded.err()
                )
            },
        );
        if let Ok(meta) = std::fs::metadata(&artifact_path) {
            out.count("serve.artifact_bytes", meta.len() as f64);
        }
        Ok(())
    });
    out.wall_s = wall - check_s;
    if let Err(e) = result {
        out.check(false, || e);
    }
    out
}
