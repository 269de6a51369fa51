//! `train_families`: Naive Bayes, CART and GBT trained two ways on a
//! high-tuple-ratio star (Walmart) and a low one (Yelp) — materialize
//! the join then fit, or fit through a `FactorizedView` — and both
//! scored on the same holdout rows.

use hamlet_datagen::realistic::{DatasetSpec, GeneratedDataset};
use hamlet_factorized::{fit_factorized_nb, FactorizedView};
use hamlet_ml::classifier::{zero_one_error, Classifier, Model};
use hamlet_ml::dataset::Dataset;
use hamlet_ml::naive_bayes::NaiveBayes;
use hamlet_ml::split::HoldoutSplit;
use hamlet_ml::CodeSource;
use hamlet_obs::span;
use hamlet_trees::{fit_factorized_gbt, fit_factorized_tree, CartTree, Gbt};

use crate::harness::{job_span, run_batch, timed, BatchRun, JobOut, Opts};

/// Scale of both stars (about 1.5 s per star and path at one thread).
pub const SCALE: f64 = 0.5;

pub const STARS: [&str; 2] = ["walmart", "yelp"];
pub const FAMILIES: [&str; 3] = ["nb", "cart", "gbt"];

pub struct State {
    stars: Vec<GeneratedDataset>,
    splits: Vec<HoldoutSplit>,
}

pub fn run(opts: &Opts) -> Result<BatchRun, String> {
    let seed = opts.seed;
    run_batch(
        opts,
        || {
            let stars: Vec<GeneratedDataset> = [DatasetSpec::walmart(), DatasetSpec::yelp()]
                .iter()
                .map(|s| s.generate(SCALE, seed))
                .collect();
            let splits = stars
                .iter()
                .map(|g| HoldoutSplit::paper_protocol(g.star.n_s(), seed))
                .collect();
            Ok(State { stars, splits })
        },
        job,
    )
}

/// The three fitted models of one path, with their holdout errors.
struct Fitted {
    nb: hamlet_ml::NaiveBayesModel,
    cart: hamlet_trees::CartModel,
    gbt: hamlet_trees::GbtModel,
    errors: [f64; 3],
}

/// One training path over one star: fits each family, scores it on the
/// holdout, and times fit + eval under the family's key for the
/// factorize/materialize ratio.
struct TrainPath<'a, S> {
    out: &'a mut JobOut,
    on: &'a str,
    path: &'static str,
    source: &'a S,
    test: &'a [usize],
    eval_span: &'static str,
}

impl<S: CodeSource> TrainPath<'_, S> {
    fn fit<M: Model>(
        &mut self,
        family: &str,
        fit_span: &'static str,
        fit: impl FnOnce() -> Result<M, String>,
    ) -> Result<(M, f64), String> {
        let on = self.on;
        let (res, t) = timed(|| {
            let model = {
                let _s = span!(fit_span, on = on);
                fit()?
            };
            let err = {
                let _s = span!(self.eval_span, on = on);
                zero_one_error(&model, self.source, self.test)
            };
            Ok((model, err))
        });
        self.out
            .part(format!("family_s.{on}.{family}.{}", self.path), t);
        res
    }
}

fn materialized(
    out: &mut JobOut,
    g: &GeneratedDataset,
    split: &HoldoutSplit,
    on: &str,
) -> Result<Fitted, String> {
    let table = {
        let _s = span!("bench.relational.materialize", on = on);
        g.star.materialize_all().map_err(|e| e.to_string())?
    };
    out.count(
        format!("relational.wide_cells.{on}"),
        (table.n_rows() * table.schema().len()) as f64,
    );
    let data = {
        let _s = span!("bench.ml.dataset_build", on = on);
        Dataset::from_table(&table)
    };
    drop(table);
    let feats: Vec<usize> = (0..data.n_features()).collect();
    let train = &split.train;
    let mut p = TrainPath {
        out,
        on,
        path: "materialized",
        source: &data,
        test: &split.test,
        eval_span: "bench.ml.eval",
    };
    let (nb, e0) = p.fit("nb", "bench.ml.nb_fit", || {
        Ok(NaiveBayes::default().fit(&data, train, &feats))
    })?;
    let (cart, e1) = p.fit("cart", "bench.trees.cart_fit", || {
        Ok(CartTree::default().fit(&data, train, &feats))
    })?;
    let (gbt, e2) = p.fit("gbt", "bench.trees.gbt_fit", || {
        Ok(Gbt::default().fit(&data, train, &feats))
    })?;
    Ok(Fitted {
        nb,
        cart,
        gbt,
        errors: [e0, e1, e2],
    })
}

fn factorized(
    out: &mut JobOut,
    g: &GeneratedDataset,
    split: &HoldoutSplit,
    on: &str,
) -> Result<Fitted, String> {
    let view = {
        let _s = span!("bench.factorized.view_build", on = on);
        FactorizedView::new(&g.star).map_err(|e| e.to_string())?
    };
    out.count(
        format!("factorized.cells_avoided.{on}"),
        view.cells_avoided() as f64,
    );
    let feats: Vec<usize> = (0..view.n_features()).collect();
    let train = &split.train;
    let mut p = TrainPath {
        out,
        on,
        path: "factorized",
        source: &view,
        test: &split.test,
        eval_span: "bench.factorized.eval",
    };
    let (nb, e0) = p.fit("nb", "bench.factorized.nb_fit", || {
        fit_factorized_nb(&view, &NaiveBayes::default(), train, &feats).map_err(|e| e.to_string())
    })?;
    let (cart, e1) = p.fit("cart", "bench.trees.cart_factorized_fit", || {
        Ok(fit_factorized_tree(
            &view,
            &CartTree::default(),
            train,
            &feats,
        ))
    })?;
    let (gbt, e2) = p.fit("gbt", "bench.trees.gbt_factorized_fit", || {
        Ok(fit_factorized_gbt(&view, &Gbt::default(), train, &feats))
    })?;
    Ok(Fitted {
        nb,
        cart,
        gbt,
        errors: [e0, e1, e2],
    })
}

fn job(st: &State) -> JobOut {
    let mut out = JobOut::default();
    let mut pairs = Vec::new();
    let ((), wall) = job_span(|| {
        for (g, split) in st.stars.iter().zip(&st.splits) {
            let on = g.spec.name.to_lowercase();
            let (m, tm) = timed(|| materialized(&mut out, g, split, &on));
            let (f, tf) = timed(|| factorized(&mut out, g, split, &on));
            out.part(format!("materialize_s.{on}"), tm);
            out.part(format!("factorize_s.{on}"), tf);
            pairs.push((on, m, f));
        }
    });
    out.wall_s = wall;
    let sum = |out: &JobOut, prefix: &str| -> f64 {
        out.parts
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    };
    let (tm, tf) = (sum(&out, "materialize_s."), sum(&out, "factorize_s."));
    out.part("materialize_s", tm);
    out.part("factorize_s", tf);
    for key in ["relational.wide_cells", "factorized.cells_avoided"] {
        let total = out
            .counts
            .iter()
            .filter(|(k, _)| k.strip_prefix(key).is_some_and(|s| s.starts_with('.')))
            .map(|(_, v)| v)
            .sum();
        out.count(key, total);
    }
    for (on, m, f) in pairs {
        let (m, f) = match (m, f) {
            (Ok(m), Ok(f)) => (m, f),
            (Err(e), _) | (_, Err(e)) => {
                out.check(false, || format!("{on}: a training path failed: {e}"));
                continue;
            }
        };
        out.check(m.nb == f.nb, || {
            format!("{on}/nb: factorized model != materialized")
        });
        out.check(m.cart == f.cart, || {
            format!("{on}/cart: factorized model != materialized")
        });
        out.check(m.gbt == f.gbt, || {
            format!("{on}/gbt: factorized model != materialized")
        });
        for (i, fam) in FAMILIES.iter().enumerate() {
            out.check(m.errors[i] == f.errors[i], || {
                format!(
                    "{on}/{fam}: holdout error {} (materialized) vs {} (factorized)",
                    m.errors[i], f.errors[i]
                )
            });
        }
    }
    out
}
