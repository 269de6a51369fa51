//! Naive Bayes from pushed-down counts — no join, exact same model.
//!
//! Naive Bayes needs only `count(Y)` and `count(F, Y)` per feature. Over a
//! KFK join the FK functionally determines every foreign feature, so
//! foreign-feature counts factor through the FK:
//!
//! ```text
//! count(X_R = v, Y = y)  =  Σ_{fk : R.X_R[fk] = v}  count(FK = fk, Y = y)
//! ```
//!
//! `count(FK, Y)` is computed on the entity table alone (via
//! [`hamlet_relational::query::group_count`]) and then mapped through `R`
//! with one `O(n_R)` pass per foreign feature. Because the resulting
//! integer count tables are exactly those the materialized
//! `NaiveBayes::fit` ([`hamlet_ml::Classifier`]) accumulates row by row, the smoothed
//! log-probability arithmetic is identical and the assembled
//! [`NaiveBayesModel`] is **exactly equal** to the materialized one — not
//! merely close.

use hamlet_ml::{CodeSource, NaiveBayes, NaiveBayesModel};
use hamlet_relational::query::group_count;
use hamlet_relational::Result;

use crate::view::FactorizedView;

/// Fits naive Bayes over the star schema without materializing any join.
///
/// `rows` are entity-row positions (the same indices that drive the
/// materialized path) and `feats` are logical feature positions in the
/// view's layout. Returns a model exactly equal to
/// `NaiveBayes::fit(&materialized_dataset, rows, feats)`.
pub fn fit_factorized_nb(
    view: &FactorizedView<'_>,
    nb: &NaiveBayes,
    rows: &[usize],
    feats: &[usize],
) -> Result<NaiveBayesModel> {
    let _span = hamlet_obs::span!("factorized.nb_fit", rows = rows.len(), feats = feats.len());
    hamlet_obs::counter_add!("hamlet_nb_fits_total", 1);
    let n_classes = view.n_classes();
    let alpha = nb.smoothing;

    // count(Y) on S alone.
    let mut class_counts = vec![0u64; n_classes];
    for &r in rows {
        class_counts[view.label(r) as usize] += 1;
    }
    let total = rows.len() as f64 + alpha * n_classes as f64;
    let log_prior: Vec<f64> = class_counts
        .iter()
        .map(|&c| ((c as f64 + alpha) / total).ln())
        .collect();

    // count(FK, Y) on S alone, once per FK that serves a requested
    // foreign feature. Dense layout: [fk_code * n_classes + y].
    let mut fk_y_counts: Vec<Option<Vec<u64>>> = Vec::new();
    fk_y_counts.resize_with(view.fk_indices.len(), || None);
    for (i, fk) in view.fk_indices.iter().enumerate() {
        let needed = feats
            .iter()
            .any(|&f| view.keyed_codes(f).is_some_and(|k| k.key == i));
        if !needed {
            continue;
        }
        let sub = view
            .star()
            .entity()
            .project(&[fk.fk_name, view.target_name()])?
            .select_rows(rows);
        let mut dense = vec![0u64; fk_domain_size(view, i) * n_classes];
        for g in group_count(&sub, &[fk.fk_name, view.target_name()])? {
            dense[g.key[0] as usize * n_classes + g.key[1] as usize] = g.count;
        }
        fk_y_counts[i] = Some(dense);
    }

    // Per-feature conditional tables from counts; the float expression
    // mirrors the materialized fit exactly.
    let mut log_cond = Vec::with_capacity(feats.len());
    let mut domain_sizes = Vec::with_capacity(feats.len());
    for &f in feats {
        let d = view.feature_domain_size(f);
        let mut counts = vec![0u64; n_classes * d];
        match view.keyed_codes(f) {
            None => {
                // Entity feature (or FK-as-feature): count on S directly.
                for &r in rows {
                    let y = view.label(r) as usize;
                    let v = view.code(f, r) as usize;
                    counts[y * d + v] += 1;
                }
            }
            Some(k) => {
                let dense = fk_y_counts[k.key].as_ref().expect("counted above");
                // Map FK groups through R: one pass over the FK domain.
                for (fk_code, row) in k.rid_to_row.iter().enumerate() {
                    if *row == u32::MAX {
                        continue; // RID absent from R; nothing references it
                    }
                    let v = k.codes[*row as usize] as usize;
                    for y in 0..n_classes {
                        counts[y * d + v] += dense[fk_code * n_classes + y];
                    }
                }
            }
        }
        let mut table = vec![0f64; n_classes * d];
        for y in 0..n_classes {
            let denom = class_counts[y] as f64 + alpha * d as f64;
            for v in 0..d {
                table[y * d + v] = ((counts[y * d + v] as f64 + alpha) / denom).ln();
            }
        }
        log_cond.push(table);
        domain_sizes.push(d);
    }

    Ok(NaiveBayesModel::from_parts(
        feats.to_vec(),
        n_classes,
        log_prior,
        log_cond,
        domain_sizes,
    ))
}

/// Domain size of the `i`-th FK column (= RID domain size).
fn fk_domain_size(view: &FactorizedView<'_>, i: usize) -> usize {
    view.fk_indices[i].rid_to_row.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::tests::two_table_star;
    use hamlet_ml::{Classifier, Dataset, Model};

    #[test]
    fn exactly_equals_materialized_model() {
        let star = two_table_star();
        let view = FactorizedView::new(&star).unwrap();
        let mat = Dataset::from_table(&star.materialize_all().unwrap());
        let rows: Vec<usize> = (0..star.n_s()).collect();
        let feats: Vec<usize> = (0..mat.n_features()).collect();
        let nb = NaiveBayes::default();

        let m_mat = nb.fit(&mat, &rows, &feats);
        let m_fac = fit_factorized_nb(&view, &nb, &rows, &feats).unwrap();

        for r in 0..star.n_s() {
            let a = m_mat.log_posterior(&mat, r);
            let b = m_fac.log_posterior(&view, r);
            assert_eq!(a, b, "log-posterior differs at row {r}");
            assert_eq!(m_mat.predict_row(&mat, r), m_fac.predict_row(&mat, r));
        }
    }

    #[test]
    fn respects_row_and_feature_subsets() {
        let star = two_table_star();
        let view = FactorizedView::new(&star).unwrap();
        let mat = Dataset::from_table(&star.materialize_all().unwrap());
        let rows = vec![0usize, 2, 3, 5];
        let feats = vec![0usize, 3, 5]; // xs, a1 (joined), b1 (joined)
        let nb = NaiveBayes::new(0.5);

        let m_mat = nb.fit(&mat, &rows, &feats);
        let m_fac = fit_factorized_nb(&view, &nb, &rows, &feats).unwrap();
        for r in 0..star.n_s() {
            assert_eq!(m_mat.log_posterior(&mat, r), m_fac.log_posterior(&view, r));
        }
    }

    #[test]
    fn empty_feature_set_gives_prior_model() {
        let star = two_table_star();
        let view = FactorizedView::new(&star).unwrap();
        let rows: Vec<usize> = (0..star.n_s()).collect();
        let m = fit_factorized_nb(&view, &NaiveBayes::default(), &rows, &[]).unwrap();
        // Majority class of y = [0,1,1,0,1,0] is 0 (ties break low); here
        // 3 vs 3 -> class 0 wins the tie.
        for r in 0..star.n_s() {
            assert_eq!(m.predict_row(&view, r), 0);
        }
    }
}
