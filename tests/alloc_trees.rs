//! Peak-allocation contract for factorized tree training, measured with
//! the real counting allocator (installed process-wide for this test
//! binary): growing a CART tree over the star must not allocate
//! anything that scales with the join — its working set is the per-node
//! `n_R x |D_Y|` FK histogram plus row partitions, so the peak *falls*
//! (or at worst stays flat) as fanout rises, while the materialized
//! path keeps paying for the full wide table. Boosting over the star
//! must not allocate anything per foreign feature: its train-position
//! frame holds the entity features and one attribute-row array per FK,
//! so its peak stays flat as the attribute tables widen.

use std::sync::Mutex;

use hamlet::experiments::factorized::fanout_star;
use hamlet::ml::classifier::Classifier;
use hamlet::ml::dataset::Dataset;
use hamlet::ml::split::HoldoutSplit;
use hamlet::ml::CodeSource;
use hamlet::obs::CountingAlloc;
use hamlet::trees::{fit_factorized_gbt, fit_factorized_tree, CartTree, Gbt};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The allocator's counters are process-wide, so the tests in this
/// binary run one at a time: each holds this lock throughout.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// Peak extra bytes allocated while running `f`, over the live baseline.
fn peak_delta<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOC.reset_peak();
    let before = ALLOC.current();
    let out = f();
    (out, ALLOC.peak().saturating_sub(before))
}

#[test]
fn factorized_tree_peak_allocation_does_not_scale_with_fanout() {
    let _serial = serialize();
    const N_S: usize = 20_000;
    const D_R: usize = 6;
    // Serial scoring so the measurement sees only the algorithm's own
    // allocations, not worker bookkeeping.
    let tree = CartTree {
        threads: Some(1),
        ..CartTree::default()
    };

    let mut fac_peaks = Vec::new();
    for ratio in [1usize, 10, 100] {
        let star = fanout_star(N_S, ratio, D_R, 42);
        let rows: Vec<usize> = (0..star.n_s()).collect();

        let (m_mat, mat_peak) = peak_delta(|| {
            let wide = star.materialize_all().unwrap();
            let data = Dataset::from_table(&wide);
            let feats: Vec<usize> = (0..data.n_features()).collect();
            tree.fit(&data, &rows, &feats)
        });
        let (m_fac, fac_peak) = peak_delta(|| {
            let view = hamlet::factorized::FactorizedView::new(&star).unwrap();
            let feats: Vec<usize> = (0..view.n_features()).collect();
            fit_factorized_tree(&view, &tree, &rows, &feats)
        });
        assert_eq!(m_mat, m_fac, "parity broke at ratio {ratio}");
        assert!(
            fac_peak < mat_peak,
            "ratio {ratio}: factorized peak {fac_peak} must undercut \
             materialized peak {mat_peak} (the wide table)"
        );
        fac_peaks.push(fac_peak);
    }

    // The join fanout grew 100x across the sweep; the factorized
    // working set must not follow it. Allow 25% jitter for allocator
    // rounding and Vec growth policies.
    let (first, last) = (fac_peaks[0], fac_peaks[2]);
    assert!(
        (last as f64) <= (first as f64) * 1.25,
        "factorized peak grew with fanout: ratio-1 peak {first} bytes, \
         ratio-100 peak {last} bytes"
    );
}

#[test]
fn factorized_gbt_peak_allocation_does_not_scale_with_foreign_features() {
    let _serial = serialize();
    const N_S: usize = 20_000;
    let gbt = Gbt {
        rounds: 2,
        threads: Some(1),
        ..Gbt::default()
    };
    let rows = HoldoutSplit::new(N_S, 0.5, 0.25, 7).train;

    let (mut fac_peaks, mut mat_peaks) = (Vec::new(), Vec::new());
    for d_r in [2usize, 8, 32] {
        let star = fanout_star(N_S, 10, d_r, 42);
        let (m_mat, mat_peak) = peak_delta(|| {
            let wide = star.materialize_all().unwrap();
            let data = Dataset::from_table(&wide);
            let feats: Vec<usize> = (0..data.n_features()).collect();
            gbt.fit(&data, &rows, &feats)
        });
        let (m_fac, fac_peak) = peak_delta(|| {
            let view = hamlet::factorized::FactorizedView::new(&star).unwrap();
            let feats: Vec<usize> = (0..view.n_features()).collect();
            fit_factorized_gbt(&view, &gbt, &rows, &feats)
        });
        assert_eq!(m_mat, m_fac, "parity broke at d_r {d_r}");
        fac_peaks.push(fac_peak);
        mat_peaks.push(mat_peak);
    }

    // 16x more foreign features: the materialized peak follows them
    // (wide table and gathered columns), the factorized one must not.
    assert!(
        mat_peaks[2] > mat_peaks[0] * 2,
        "materialized peak should grow with d_r: {mat_peaks:?}"
    );
    let (first, last) = (fac_peaks[0], fac_peaks[2]);
    assert!(
        (last as f64) <= (first as f64) * 1.25,
        "factorized GBT peak grew with foreign features: d_r-2 peak {first} \
         bytes, d_r-32 peak {last} bytes (all: {fac_peaks:?})"
    );
}
