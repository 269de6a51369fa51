//! `fig7_select`: the paper's Figure 7 protocol over all seven synthetic
//! stars — advise, plan JoinAll and JoinOpt, materialize each plan, run
//! the four selection methods with Naive Bayes on one sweep engine per
//! plan, refit the selected subset and score it on the holdout.

use std::collections::BTreeMap;

use hamlet_core::planner::{plan, PlanKind};
use hamlet_core::rules::TrRule;
use hamlet_core::{advise, AdvisorConfig};
use hamlet_datagen::realistic::{DatasetSpec, GeneratedDataset};
use hamlet_fs::{Method, SelectionContext, SweepEngine};
use hamlet_ml::classifier::{Classifier, ErrorMetric};
use hamlet_ml::dataset::Dataset;
use hamlet_ml::naive_bayes::NaiveBayes;
use hamlet_ml::split::HoldoutSplit;
use hamlet_ml::suffstats::SweepFit;
use hamlet_obs::span;

use crate::harness::{in_job_check, job_span, run_batch, timed, BatchRun, JobOut, Opts};

/// Scale of every star (3–4 s per job on two cores).
pub const SCALE: f64 = 0.1;

pub const PLANS: [&str; 2] = ["joinall", "joinopt"];

/// Metric-key spelling of each method.
pub fn method_key(m: Method) -> &'static str {
    match m {
        Method::Forward => "forward",
        Method::Backward => "backward",
        Method::FilterMi => "mi",
        Method::FilterIgr => "igr",
    }
}

fn method_span(m: Method) -> &'static str {
    match m {
        Method::Forward => "bench.fs.forward",
        Method::Backward => "bench.fs.backward",
        Method::FilterMi => "bench.fs.mi",
        Method::FilterIgr => "bench.fs.igr",
    }
}

/// Lower-case dataset keys, in `DatasetSpec::all()` order.
pub fn dataset_keys() -> Vec<String> {
    DatasetSpec::all()
        .iter()
        .map(|s| s.name.to_lowercase())
        .collect()
}

pub struct State {
    stars: Vec<GeneratedDataset>,
    seed: u64,
}

/// What one selection produced; identical across the jobs of a run.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    features: Vec<usize>,
    test_error: f64,
}

pub fn run(opts: &Opts) -> Result<BatchRun, String> {
    let seed = opts.seed;
    let mut first: BTreeMap<String, Outcome> = BTreeMap::new();
    run_batch(
        opts,
        || {
            Ok(State {
                stars: DatasetSpec::all()
                    .iter()
                    .map(|s| s.generate(SCALE, seed))
                    .collect(),
                seed,
            })
        },
        |st| job(st, &mut first),
    )
}

fn job(st: &State, first: &mut BTreeMap<String, Outcome>) -> JobOut {
    let mut out = JobOut::default();
    let nb = NaiveBayes::default();
    let mut outcomes: Vec<(String, Outcome, bool)> = Vec::new();
    let mut fits = [0usize; 2];
    let mut wide_cells = 0usize;
    let mut halves = [0.0f64; 2];
    let mut selection_s: BTreeMap<String, f64> = BTreeMap::new();
    let mut check_s = 0.0;

    let ((), wall) = job_span(|| {
        for g in &st.stars {
            let ds = g.spec.name.to_lowercase();
            let star = &g.star;
            let split = HoldoutSplit::paper_protocol(star.n_s(), st.seed);
            let n_train = split.train.len();
            let plans = {
                let _s = span!("bench.core.advise");
                // The advisor's report is what an analyst reads; the
                // planner turns the TR rule into the two plans compared.
                let _report = advise(star, n_train, &AdvisorConfig::default());
                [
                    plan(star, PlanKind::JoinAll, &TrRule::default(), n_train),
                    plan(star, PlanKind::JoinOpt, &TrRule::default(), n_train),
                ]
            };
            for (p, jp) in plans.iter().enumerate() {
                let on = PLANS[p];
                let checked_before = check_s;
                let (_, half) = timed(|| {
                    let table = {
                        let _s = span!("bench.relational.materialize", on = on);
                        jp.materialize(star)
                    };
                    let Ok(table) = table else {
                        return;
                    };
                    wide_cells += table.n_rows() * table.schema().len();
                    let data = {
                        let _s = span!("bench.ml.dataset_build", on = on);
                        Dataset::from_table(&table)
                    };
                    drop(table);
                    let metric = ErrorMetric::for_classes(data.n_classes());
                    let candidates: Vec<usize> = (0..data.n_features()).collect();
                    let ctx = SelectionContext {
                        data: &data,
                        train: &split.train,
                        validation: &split.validation,
                        classifier: &nb,
                        metric,
                    };
                    let engine = SweepEngine::new(&ctx);
                    for m in Method::ALL {
                        let (sel, t) = timed(|| {
                            let _s = span!(method_span(m), on = on);
                            m.run_with(&engine, &candidates)
                        });
                        *selection_s
                            .entry(format!("{ds}.{}.{on}", method_key(m)))
                            .or_default() += t;
                        fits[p] += sel.model_fits;
                        let model = {
                            let _s = span!("bench.ml.nb_fit", on = on);
                            nb.fit_swept(engine.stats(), &sel.features, None)
                        };
                        let test_error = {
                            let _s = span!("bench.ml.eval", on = on);
                            metric.eval(&model, &data, &split.test)
                        };
                        // The cached-statistics fit must equal a fit from
                        // scratch on the selected columns.
                        let direct = in_job_check(&mut check_s, || {
                            nb.fit(&data, &split.train, &sel.features)
                        });
                        outcomes.push((
                            format!("{ds}/{on}/{}", method_key(m)),
                            Outcome {
                                features: sel.features,
                                test_error,
                            },
                            direct == model,
                        ));
                    }
                });
                halves[p] += half - (check_s - checked_before);
            }
        }
    });
    out.wall_s = wall - check_s;
    out.part("joinall_s", halves[0]);
    out.part("joinopt_s", halves[1]);
    for (k, t) in selection_s {
        out.part(format!("select_s.{k}"), t);
    }
    out.count("fs.model_fits.joinall", fits[0] as f64);
    out.count("fs.model_fits.joinopt", fits[1] as f64);
    out.count("relational.wide_cells", wide_cells as f64);
    out.check(outcomes.len() == st.stars.len() * 8, || {
        format!(
            "{} of {} selections ran",
            outcomes.len(),
            st.stars.len() * 8
        )
    });
    for (key, o, same_fit) in outcomes {
        out.check(same_fit, || {
            format!("{key}: fit_swept final model differs from NaiveBayes::fit")
        });
        let prev = first.entry(key.clone()).or_insert_with(|| o.clone());
        out.check(*prev == o, || {
            format!("{key}: selection or error changed between jobs of one run")
        });
    }
    out
}
