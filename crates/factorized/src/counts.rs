//! Pushed-down class-conditional count aggregates — the JoinBoost recipe.
//!
//! Tree split scoring (and naive Bayes fitting) over a star schema needs
//! `count(X = v, Y = y)` tables per feature, restricted to an arbitrary
//! subset of entity rows (a tree node). For a *foreign* feature `X_R`
//! living on attribute table `R`, that table never has to touch the
//! join output:
//!
//! ```text
//! count(X_R = v, Y = y | rows) = Σ_{fk : R.X_R[fk] = v} count(FK = fk, Y = y | rows)
//! ```
//!
//! The inner aggregate `count(FK, Y | rows)` is a group-by over the
//! entity table alone — one `O(|rows|)` scan — and the outer fold maps
//! it through `R` in `O(n_R)`. Peak extra allocation is the dense
//! `n_R × |D_Y|` FK histogram, independent of the join fanout, so the
//! factorized path never pays for the wide table it avoids.
//!
//! Because the counts are integers, any float expression computed from
//! them (Gini gains, NB log-probabilities) is **bitwise identical** to
//! the same expression over counts scanned off the materialized join.
//!
//! Large scans are morsel-parallel: rows split into at most
//! `HAMLET_THREADS` contiguous ranges (never finer than
//! [`hamlet_obs::resolved_morsel_rows`], so the per-worker dense
//! partials stay bounded at roughly one per thread), each range fills a
//! local table, and the locals merge **in morsel order**. Counts are
//! integers, so the merged table — and everything derived from it — is
//! bit-for-bit the sequential result at any `HAMLET_THREADS`. Kernels
//! consult [`hamlet_obs::parallel::in_parallel_region`] and degrade to
//! the sequential scan when the caller (a candidate sweep, a tree-node
//! fan-out) already runs inside a worker.

use hamlet_ml::CodeSource;
use hamlet_obs::parallel::{in_parallel_region, run_morsels};

use crate::view::FactorizedView;

/// Below this many rows the morsel fan-out costs more than the scan.
const PAR_THRESHOLD: usize = 1 << 16;

/// Effective worker count for a count scan: sequential when the input
/// is small or we are already inside a parallel region.
fn count_threads(n: usize) -> usize {
    if n < PAR_THRESHOLD || in_parallel_region() {
        1
    } else {
        hamlet_obs::env::resolved_threads().max(1)
    }
}

/// Morsel size that caps the number of live partial tables at roughly
/// `threads`: each partial is a full dense table, so finer morsels
/// would multiply peak allocation without adding parallelism.
fn bounded_morsel(n: usize, threads: usize) -> usize {
    hamlet_obs::resolved_morsel_rows().max(n.div_ceil(threads.max(1)))
}

/// Folds per-morsel tables into one, first morsel first — the fixed
/// merge order the determinism discipline requires.
fn merge_in_order(len: usize, partials: Vec<Vec<u64>>) -> Vec<u64> {
    let mut total = vec![0u64; len];
    for p in partials {
        for (t, v) in total.iter_mut().zip(p) {
            *t += v;
        }
    }
    total
}

/// The FK slot (position in the view's join set) that resolves feature
/// `f`, or `None` when `f` is a base (entity-table) feature.
pub fn foreign_fk(view: &FactorizedView<'_>, f: usize) -> Option<usize> {
    view.keyed_codes(f).map(|k| k.key)
}

/// Dense `count(FK = fk, Y = y | rows)` histogram for FK slot `fk`,
/// flattened as `[fk_code * n_classes + y]` over the FK's full domain
/// (including codes with no surviving attribute row). One pass over
/// `rows`; nothing touches the attribute table.
pub fn fk_class_counts(view: &FactorizedView<'_>, fk: usize, rows: &[usize]) -> Vec<u64> {
    let c = view.n_classes();
    let idx = &view.fk_indices[fk];
    let len = idx.rid_to_row.len() * c;
    let scan = |rows: &[usize]| {
        let mut dense = vec![0u64; len];
        for &r in rows {
            dense[idx.fk_codes[r] as usize * c + view.label(r) as usize] += 1;
        }
        dense
    };
    let threads = count_threads(rows.len());
    if threads <= 1 {
        return scan(rows);
    }
    let morsel = bounded_morsel(rows.len(), threads);
    let partials = run_morsels(rows.len(), morsel, threads, &|_, range| scan(&rows[range]));
    merge_in_order(len, partials)
}

/// Folds a dense FK histogram (from [`fk_class_counts`]) through the
/// attribute column backing foreign feature `f`, yielding the
/// class-conditional table flattened as `[y * d + v]` — the same layout
/// `hamlet_ml::suffstats::SuffStats::table` uses. FK codes with no
/// attribute row (open-domain dangling keys) contribute nothing, exactly
/// as they would be dropped by the inner join. Returns `None` when `f`
/// is not a foreign feature.
pub fn fold_through_fk(view: &FactorizedView<'_>, f: usize, dense: &[u64]) -> Option<Vec<u64>> {
    let k = view.keyed_codes(f)?;
    let d = view.feature_domain_size(f);
    let c = view.n_classes();
    let n_r = k.rid_to_row.len();
    let fold = |range: std::ops::Range<usize>| {
        let mut counts = vec![0u64; c * d];
        for fk_code in range {
            let row = k.rid_to_row[fk_code];
            if row == u32::MAX {
                continue;
            }
            let v = k.codes[row as usize] as usize;
            for y in 0..c {
                counts[y * d + v] += dense[fk_code * c + y];
            }
        }
        counts
    };
    let threads = count_threads(n_r);
    if threads <= 1 {
        return Some(fold(0..n_r));
    }
    let morsel = bounded_morsel(n_r, threads);
    let partials = run_morsels(n_r, morsel, threads, &|_, range| fold(range));
    Some(merge_in_order(c * d, partials))
}

/// Class-conditional counts `[y * d + v]` of feature `f` over `rows`,
/// computed without ever materializing a join: base features by a direct
/// entity scan, foreign features via [`fk_class_counts`] +
/// [`fold_through_fk`].
pub fn class_conditional_counts(view: &FactorizedView<'_>, f: usize, rows: &[usize]) -> Vec<u64> {
    match foreign_fk(view, f) {
        None => {
            let c = view.n_classes();
            let d = view.feature_domain_size(f);
            let scan = |rows: &[usize]| {
                let mut counts = vec![0u64; c * d];
                for &r in rows {
                    counts[view.label(r) as usize * d + view.code(f, r) as usize] += 1;
                }
                counts
            };
            let threads = count_threads(rows.len());
            if threads <= 1 {
                return scan(rows);
            }
            let morsel = bounded_morsel(rows.len(), threads);
            let partials = run_morsels(rows.len(), morsel, threads, &|_, range| scan(&rows[range]));
            merge_in_order(c * d, partials)
        }
        Some(fk) => {
            let dense = fk_class_counts(view, fk, rows);
            // Foreign features always have an origin, so the fold is
            // total here; an empty table is the benign fallback.
            fold_through_fk(view, f, &dense).unwrap_or_default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::tests::two_table_star;
    use hamlet_ml::dataset::Dataset;

    /// Oracle: scan the materialized join output for the same counts.
    fn materialized_counts(data: &Dataset, f: usize, rows: &[usize]) -> Vec<u64> {
        let c = data.n_classes();
        let d = data.feature(f).domain_size;
        let mut counts = vec![0u64; c * d];
        for &r in rows {
            counts[data.labels()[r] as usize * d + data.feature(f).codes[r] as usize] += 1;
        }
        counts
    }

    #[test]
    fn pushdown_matches_materialized_scan_on_every_feature_and_subset() {
        let star = two_table_star();
        let wide = star.materialize_all().unwrap();
        let data = Dataset::from_table(&wide);
        let view = FactorizedView::new(&star).unwrap();
        let n_s = star.n_s();
        let all: Vec<usize> = (0..n_s).collect();
        let evens: Vec<usize> = (0..n_s).step_by(2).collect();
        let tiny: Vec<usize> = vec![0];
        for rows in [&all, &evens, &tiny, &Vec::new()] {
            for f in 0..data.n_features() {
                assert_eq!(
                    class_conditional_counts(&view, f, rows),
                    materialized_counts(&data, f, rows),
                    "feature {f} over {} rows",
                    rows.len()
                );
            }
        }
    }

    #[test]
    fn fk_histogram_sums_to_rows() {
        let star = two_table_star();
        let view = FactorizedView::new(&star).unwrap();
        let rows: Vec<usize> = (0..star.n_s()).collect();
        for fk in 0..view.fk_indices.len() {
            let dense = fk_class_counts(&view, fk, &rows);
            assert_eq!(dense.iter().sum::<u64>(), rows.len() as u64);
        }
    }

    /// A star large enough (`> PAR_THRESHOLD` entity rows) that the
    /// morsel-parallel paths actually engage on multi-core runners; the
    /// naive sequential scans are the bit-for-bit oracle.
    #[test]
    fn large_scan_parallel_path_matches_naive() {
        use hamlet_relational::catalog::AttributeTable;
        use hamlet_relational::{Domain, TableBuilder};

        let n = super::PAR_THRESHOLD + 123;
        let n_r = 301;
        let rid = Domain::indexed("AID", n_r).shared();
        let a = TableBuilder::new("A")
            .primary_key("AID", rid.clone(), (0..n_r as u32).collect())
            .feature(
                "a1",
                Domain::indexed("a1", 7).shared(),
                (0..n_r as u32).map(|i| (i * 13 + 2) % 7).collect(),
            )
            .build()
            .unwrap();
        let s = TableBuilder::new("S")
            .primary_key(
                "SID",
                Domain::indexed("SID", n).shared(),
                (0..n as u32).collect(),
            )
            .target(
                "y",
                Domain::boolean("y").shared(),
                (0..n as u32).map(|i| (i * 7 + 1) % 2).collect(),
            )
            .feature(
                "xs",
                Domain::indexed("xs", 5).shared(),
                (0..n as u32).map(|i| (i * 11 + 3) % 5).collect(),
            )
            .foreign_key(
                "fk_a",
                "A",
                rid,
                (0..n as u32).map(|i| (i * 17 + 5) % n_r as u32).collect(),
            )
            .build()
            .unwrap();
        let star = hamlet_relational::StarSchema::new(
            s,
            vec![AttributeTable {
                fk: "fk_a".into(),
                table: a,
            }],
        )
        .unwrap();
        let view = FactorizedView::new(&star).unwrap();
        let rows: Vec<usize> = (0..n).collect();

        // FK histogram vs naive scan.
        let idx = &view.fk_indices[0];
        let mut want_fk = vec![0u64; idx.rid_to_row.len() * 2];
        for &r in &rows {
            want_fk[idx.fk_codes[r] as usize * 2 + view.label(r) as usize] += 1;
        }
        assert_eq!(fk_class_counts(&view, 0, &rows), want_fk);

        // Base and foreign class-conditional tables vs naive scans.
        for f in 0..view.n_features() {
            let d = view.feature_domain_size(f);
            let mut want = vec![0u64; 2 * d];
            for &r in &rows {
                want[view.label(r) as usize * d + view.code(f, r) as usize] += 1;
            }
            assert_eq!(
                class_conditional_counts(&view, f, &rows),
                want,
                "feature {f}"
            );
        }
    }

    #[test]
    fn base_features_report_no_fk() {
        let star = two_table_star();
        let view = FactorizedView::new(&star).unwrap();
        for f in 0..view.n_base_features() {
            assert!(foreign_fk(&view, f).is_none());
        }
        for f in view.n_base_features()..view.n_features() {
            assert!(foreign_fk(&view, f).is_some());
        }
    }
}
