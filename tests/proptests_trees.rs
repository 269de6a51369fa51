//! Property-based parity tests for the tree-learning subsystem: on
//! arbitrary star instances, factorized training (pushed-down count
//! aggregates, no join) must produce the *same object* — identical
//! splits, leaves, and predictions — as training on the materialized
//! join, and parallel split scoring must not depend on the thread
//! count. Training rows are also drawn as shuffled proper subsets, so
//! a mix-up between a train position and the entity row it stands for
//! cannot hide behind `train == 0..n`. A fixed star pins GBT's float
//! program bit for bit. Dirty corpora (seeded chaos faults) must never
//! panic tree training.

use proptest::prelude::*;

use hamlet::chaos::corrupt::{corrupt_corpus, ChaosPlan, Corpus, FaultKind, FileProfile};
use hamlet::factorized::FactorizedView;
use hamlet::ml::classifier::{Classifier, Model};
use hamlet::ml::dataset::Dataset;
use hamlet::ml::split::HoldoutSplit;
use hamlet::ml::CodeSource;
use hamlet::relational::{
    AttributeTable, DirtyPolicy, Domain, FkPolicy, LoadPolicy, Manifest, StarSchema, TableBuilder,
};
use hamlet::trees::{fit_factorized_gbt, fit_factorized_tree, CartTree, Gbt};

/// Strategy: a random one-attribute-table star — `n_r` attribute rows
/// with one foreign feature, `n_s` entity rows with an entity feature,
/// FKs, and ternary labels (mirrors `proptests_factorized.rs`).
fn star_instance() -> impl Strategy<Value = (usize, Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>)> {
    (2usize..10).prop_flat_map(|n_r| {
        (
            Just(n_r),
            proptest::collection::vec(0..5u32, n_r), // X_R per RID
            proptest::collection::vec(0..n_r as u32, 20..150), // FK codes
        )
            .prop_flat_map(|(n_r, xr, fks)| {
                let n_s = fks.len();
                (
                    Just(n_r),
                    Just(xr),
                    Just(fks),
                    proptest::collection::vec(0..3u32, n_s), // entity feature
                    proptest::collection::vec(0..3u32, n_s), // labels
                )
            })
    })
}

fn build_star(n_r: usize, xr: Vec<u32>, fks: Vec<u32>, xs: Vec<u32>, ys: Vec<u32>) -> StarSchema {
    let rid = Domain::indexed("RID", n_r).shared();
    let r = TableBuilder::new("R")
        .primary_key("RID", rid.clone(), (0..n_r as u32).collect())
        .feature("xr", Domain::indexed("xr", 5).shared(), xr)
        .build()
        .unwrap();
    let s = TableBuilder::new("S")
        .target("y", Domain::indexed("y", 3).shared(), ys)
        .feature("xs", Domain::indexed("xs", 3).shared(), xs)
        .foreign_key("fk", "R", rid, fks)
        .build()
        .unwrap();
    StarSchema::new(
        s,
        vec![AttributeTable {
            fk: "fk".into(),
            table: r,
        }],
    )
    .unwrap()
}

/// splitmix64: a fixed hash, so generated stars never depend on an RNG
/// implementation.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A star with one attribute table per entry of `n_rs` (`n_r` rows,
/// RIDs stored in reverse order, `D_R` foreign features each) and
/// `n_s` entity rows whose ternary label depends on the entity feature
/// and on the first foreign feature of every table, plus noise.
fn multi_table_star(seed: u64, n_s: usize, n_rs: &[usize]) -> StarSchema {
    const D_R: usize = 3;
    let h = |tag: u64, i: usize| mix(seed ^ (tag << 40) ^ i as u64);
    let mut tables = Vec::new();
    let mut s = TableBuilder::new("S");
    let xs: Vec<u32> = (0..n_s).map(|i| (h(1, i) % 3) as u32).collect();
    let mut ys: Vec<u32> = xs.iter().map(|&x| x * 2).collect();
    for (t, &n_r) in n_rs.iter().enumerate() {
        let t64 = t as u64 + 2;
        let rid = Domain::indexed(format!("RID{t}"), n_r).shared();
        let mut r = TableBuilder::new(format!("R{t}")).primary_key(
            &format!("RID{t}"),
            rid.clone(),
            (0..n_r as u32).rev().collect(),
        );
        let mut first = Vec::new();
        for j in 0..D_R {
            let codes: Vec<u32> = (0..n_r)
                .map(|i| (h(t64 * 16 + j as u64, i) % 4) as u32)
                .collect();
            if j == 0 {
                first = codes.clone();
            }
            let name = format!("r{t}_{j}");
            r = r.feature(&name, Domain::indexed(&name, 4).shared(), codes);
        }
        // The stored RID of attribute row `i` is `n_r - 1 - i`.
        let fks: Vec<u32> = (0..n_s)
            .map(|i| (h(t64 * 16 + 15, i) % n_r as u64) as u32)
            .collect();
        for (y, &fk) in ys.iter_mut().zip(&fks) {
            *y += first[n_r - 1 - fk as usize];
        }
        let fk_name = format!("fk{t}");
        s = s.foreign_key(&fk_name, &format!("R{t}"), rid, fks);
        tables.push(AttributeTable {
            fk: fk_name,
            table: r.build().unwrap(),
        });
    }
    let ys: Vec<u32> = ys
        .iter()
        .enumerate()
        .map(|(i, &y)| ((y as u64 + h(0, i) % 2) % 3) as u32)
        .collect();
    let s = s
        .target("y", Domain::indexed("y", 3).shared(), ys)
        .feature("xs", Domain::indexed("xs", 3).shared(), xs)
        .build()
        .unwrap();
    StarSchema::new(s, tables).unwrap()
}

/// CART and GBT on `view` equal their fits on `data` (the matching
/// materialized join), and both are the same at 1 and 8 threads.
fn assert_tree_parity(
    data: &Dataset,
    view: &FactorizedView<'_>,
    train: &[usize],
) -> TestCaseResult {
    let feats: Vec<usize> = (0..data.n_features()).collect();
    prop_assert_eq!(view.n_features(), data.n_features());
    let cart_1 = CartTree {
        threads: Some(1),
        ..CartTree::default()
    };
    let cart_8 = CartTree {
        threads: Some(8),
        ..CartTree::default()
    };
    let m_cart = cart_1.fit(data, train, &feats);
    prop_assert_eq!(&m_cart, &fit_factorized_tree(view, &cart_1, train, &feats));
    prop_assert_eq!(&m_cart, &cart_8.fit(data, train, &feats));
    prop_assert_eq!(&m_cart, &fit_factorized_tree(view, &cart_8, train, &feats));

    let gbt_1 = Gbt {
        rounds: 4,
        threads: Some(1),
        ..Gbt::default()
    };
    let gbt_8 = Gbt {
        rounds: 4,
        threads: Some(8),
        ..Gbt::default()
    };
    let m_gbt = gbt_1.fit(data, train, &feats);
    prop_assert_eq!(&m_gbt, &fit_factorized_gbt(view, &gbt_1, train, &feats));
    prop_assert_eq!(&m_gbt, &gbt_8.fit(data, train, &feats));
    prop_assert_eq!(&m_gbt, &fit_factorized_gbt(view, &gbt_8, train, &feats));
    for row in 0..data.n_examples() {
        prop_assert!(
            m_gbt.raw_score(data, row).to_bits() == m_gbt.raw_score(view, row).to_bits(),
            "row {} raw scores diverge",
            row
        );
    }
    Ok(())
}

proptest! {
    /// CART: the pushed-down class-conditional counts are the exact
    /// integers a scan of the join would produce, so the factorized
    /// tree is the *identical arena* — same splits, same leaves — and
    /// therefore predicts identically on every row.
    #[test]
    fn factorized_cart_is_bitwise_identical((n_r, xr, fks, xs, ys) in star_instance()) {
        let star = build_star(n_r, xr, fks, xs, ys);
        let wide = star.materialize_all().unwrap();
        let data = Dataset::from_table(&wide);
        let view = FactorizedView::new(&star).unwrap();
        let train: Vec<usize> = (0..star.n_s()).step_by(2).collect();
        let feats: Vec<usize> = (0..data.n_features()).collect();
        let tree = CartTree::default();
        let m_mat = tree.fit(&data, &train, &feats);
        let m_fac = fit_factorized_tree(&view, &tree, &train, &feats);
        prop_assert_eq!(&m_mat, &m_fac);
        for row in 0..star.n_s() {
            prop_assert_eq!(m_mat.predict_row(&data, row), m_fac.predict_row(&view, row));
        }
    }

    /// GBT: the factorized path scans the same train positions in the
    /// same order as the materialized one, so the float program — and
    /// thus every leaf value and raw score — is bitwise equal.
    #[test]
    fn factorized_gbt_is_bitwise_identical((n_r, xr, fks, xs, ys) in star_instance()) {
        let star = build_star(n_r, xr, fks, xs, ys);
        let wide = star.materialize_all().unwrap();
        let data = Dataset::from_table(&wide);
        let view = FactorizedView::new(&star).unwrap();
        let train: Vec<usize> = (0..star.n_s()).collect();
        let feats: Vec<usize> = (0..data.n_features()).collect();
        let gbt = Gbt { rounds: 4, ..Gbt::default() };
        let m_mat = gbt.fit(&data, &train, &feats);
        let m_fac = fit_factorized_gbt(&view, &gbt, &train, &feats);
        prop_assert_eq!(&m_mat, &m_fac);
        for row in 0..star.n_s() {
            prop_assert!(
                m_mat.raw_score(&data, row).to_bits() == m_fac.raw_score(&view, row).to_bits(),
                "row {} raw scores diverge", row
            );
        }
    }

    /// Thread invariance: split gains are computed in parallel chunks
    /// but reduced serially in feature order, so the fitted model is
    /// bitwise identical at 1 and 8 threads (`threads` is exactly what
    /// `HAMLET_THREADS` resolves into) — for CART and GBT both.
    #[test]
    fn tree_models_are_thread_count_invariant((n_r, xr, fks, xs, ys) in star_instance()) {
        let star = build_star(n_r, xr, fks, xs, ys);
        let wide = star.materialize_all().unwrap();
        let data = Dataset::from_table(&wide);
        let train: Vec<usize> = (0..star.n_s()).collect();
        let feats: Vec<usize> = (0..data.n_features()).collect();
        let cart_1 = CartTree { threads: Some(1), ..CartTree::default() };
        let cart_8 = CartTree { threads: Some(8), ..CartTree::default() };
        prop_assert_eq!(
            cart_1.fit(&data, &train, &feats),
            cart_8.fit(&data, &train, &feats)
        );
        let gbt_1 = Gbt { rounds: 3, threads: Some(1), ..Gbt::default() };
        let gbt_8 = Gbt { rounds: 3, threads: Some(8), ..Gbt::default() };
        prop_assert_eq!(
            gbt_1.fit(&data, &train, &feats),
            gbt_8.fit(&data, &train, &feats)
        );
    }
}

proptest! {
    /// Parity and thread invariance when the training rows are a
    /// shuffled proper subset of the entity rows (train position `p`
    /// is not entity row `p`).
    #[test]
    fn tree_parity_on_shuffled_train_subset(
        (n_r, xr, fks, xs, ys) in star_instance(),
        seed in 0u64..1000,
    ) {
        let star = build_star(n_r, xr, fks, xs, ys);
        let data = Dataset::from_table(&star.materialize_all().unwrap());
        let view = FactorizedView::new(&star).unwrap();
        let train = HoldoutSplit::new(star.n_s(), 0.5, 0.25, seed).train;
        prop_assert!(train.len() < star.n_s());
        assert_tree_parity(&data, &view, &train)?;
    }

    /// The same on a view that joins only some tables: the FK slots of
    /// the joined tables no longer match their table positions, and
    /// several foreign features share each FK.
    #[test]
    fn tree_parity_on_partial_join_set(
        seed in 0u64..10_000,
        n_s in 30usize..160,
        n_rs in proptest::collection::vec(2usize..12, 3),
        omit in 0usize..3,
    ) {
        let star = multi_table_star(seed, n_s, &n_rs);
        let join_set: Vec<usize> = (0..3).filter(|&t| t != omit).collect();
        let data = Dataset::from_table(&star.materialize(&join_set).unwrap());
        let view = FactorizedView::with_join_set(&star, &join_set).unwrap();
        let train = HoldoutSplit::new(n_s, 0.5, 0.25, seed).train;
        assert_tree_parity(&data, &view, &train)?;
    }
}

/// GBT's float program is pinned: on a fixed star with shuffled train
/// rows, every raw score — materialized and factorized — has exactly
/// the bits this learner has always produced. A refactor that reorders
/// any residual addition, or mixes up train positions and entity rows,
/// changes some of them.
#[test]
fn gbt_raw_score_bits_are_pinned() {
    const N_S: usize = 64;
    let star = multi_table_star(20_160_626, N_S, &[5, 9]);
    let data = Dataset::from_table(&star.materialize_all().unwrap());
    let view = FactorizedView::new(&star).unwrap();
    // A fixed shuffled proper subset: 40 of the 64 rows.
    let train: Vec<usize> = (0..40).map(|i| (i * 29 + 7) % N_S).collect();
    let feats: Vec<usize> = (0..data.n_features()).collect();
    let gbt = Gbt {
        threads: Some(1),
        ..Gbt::default()
    };
    let m_mat = gbt.fit(&data, &train, &feats);
    let m_fac = fit_factorized_gbt(&view, &gbt, &train, &feats);
    let bits =
        |score: &dyn Fn(usize) -> f64| (0..N_S).map(|r| score(r).to_bits()).collect::<Vec<u64>>();
    let mat = bits(&|r| m_mat.raw_score(&data, r));
    let fac = bits(&|r| m_fac.raw_score(&view, r));
    assert_eq!(mat, fac, "factorized raw scores drifted from materialized");
    let got: Vec<String> = mat.iter().map(|b| format!("{b:#018x}")).collect();
    assert!(
        mat == PINNED_GBT_BITS,
        "raw-score bits changed; now:\n{}",
        got.join(", ")
    );
}

/// `raw_score(row).to_bits()` for rows `0..64` of
/// [`gbt_raw_score_bits_are_pinned`]'s fit.
#[rustfmt::skip]
const PINNED_GBT_BITS: [u64; 64] = [
    0x3ff7741048da3966, 0x3ffed829ad4961dc, 0x3ff971cec9a1d803, 0xbfb5ffe044f2f927,
    0x3fef31598323e02e, 0x3fe1e2fbecb30509, 0x3febdbf91005afcb, 0x3ff1309003d9f5b1,
    0x3ff04a85cb9e72b6, 0x3ffb8160991eea2e, 0x3ff96a2e08dba516, 0x3ffa03eb8855b2d4,
    0x3feffc7b4f2fff7a, 0x3ffb0b895e78de9f, 0x3fe8ac61121622ac, 0x3ff5ea32332d5b4a,
    0x3ffb9dc1b6210320, 0x3fe68fb5011137cc, 0x3ff97ae74d90a00a, 0x3ff6a4c88a30c4b5,
    0x3ff472c3ebd0cb81, 0x3fd465754ba1bf84, 0x3fe518adbe3a56d8, 0x3ffbd3dbf8b0001c,
    0x3ff6c88163fe5a1a, 0x3ff5cc547436c645, 0x3ff089c9f85863c5, 0x3ff20771686e176b,
    0x3fe518adbe3a56d8, 0x3fd465754ba1bf84, 0x3fe8ac61121622ac, 0x40011ec1533503f1,
    0x3ff23b29e1c6fb02, 0x3ffa8f7e642288f8, 0x3ff0402e8f526c76, 0x3ff2c1f2851893e2,
    0x3ff1d5cea5890ce0, 0x3ff12fc90832171a, 0x3ff1b6a7317d1e2c, 0x3ff5ea32332d5b4a,
    0x3febdbf91005afcb, 0x3ff3aa0158551401, 0x3ff3aa0158551401, 0x3fec2bbf4ec45e82,
    0x3ff23b29e1c6fb02, 0x3ff4a064862b94e6, 0x3ff1ea2d6f5d8051, 0x3ff1309003d9f5b1,
    0x3ff75ae1f71d3da2, 0x3ffe3fa9914b819d, 0x3ff5ea32332d5b4a, 0x3ffa8f7e642288f8,
    0x3ff7eea72a0a75c8, 0x3fd371c49e22c89d, 0x3ff6a4c88a30c4b5, 0x3ffbe5573794757f,
    0x3fda49f2271df5fe, 0x3ff6a4c88a30c4b5, 0x3ff1f442dc75dd33, 0x3fffca4a6b6fa747,
    0x3ffe3fa9914b819d, 0x3ffe3fa9914b819d, 0x3ff6e65f3094b023, 0x3ffc3311b68968f8,
];

const MANIFEST: &str = "\
entity customers.csv
target Churn
numeric Age 8
fk EmployerID employers.csv closed

table employers.csv
key EmployerID
feature Country
";

/// A clean two-table star corpus: 60 customers over 6 employers
/// (mirrors `tests/chaos.rs`).
fn clean_corpus() -> Corpus {
    let mut corpus = Corpus::new();
    let mut customers = String::from("Churn,Age,EmployerID\n");
    for i in 0..60 {
        customers.push_str(&format!("{},{},e{}\n", i % 2, 20 + i % 30, i % 6));
    }
    let mut employers = String::from("EmployerID,Country\n");
    for e in 0..6 {
        employers.push_str(&format!("e{},c{}\n", e, e % 3));
    }
    corpus.insert("customers.csv".into(), customers);
    corpus.insert("employers.csv".into(), employers);
    corpus
}

fn chaos_plan(seed: u64, faults_per_file: usize) -> ChaosPlan {
    ChaosPlan {
        seed,
        faults_per_file,
        kinds: FaultKind::ALL.to_vec(),
        profiles: std::collections::BTreeMap::new(),
    }
    .with_profile(
        "customers.csv",
        FileProfile {
            numeric_cols: vec![1],
            pk_col: None,
            fk_cols: vec![2],
        },
    )
    .with_profile(
        "employers.csv",
        FileProfile {
            numeric_cols: vec![],
            pk_col: Some(0),
            fk_cols: vec![],
        },
    )
}

proptest! {
    /// Tree training over whatever survives a lenient load of a
    /// corrupted corpus never panics: either the load fails with a
    /// typed error, or CART and GBT both fit and predict in-range
    /// classes on every surviving row.
    #[test]
    fn tree_training_on_dirty_corpora_never_panics(
        seed in 0u64..100,
        faults in 1usize..6,
    ) {
        let (dirty, _) = corrupt_corpus(&clean_corpus(), &chaos_plan(seed, faults));
        let dir = std::env::temp_dir()
            .join("hamlet_trees_it")
            .join(format!("dirty_{seed}_{faults}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (file, text) in &dirty {
            std::fs::write(dir.join(file), text).unwrap();
        }
        std::fs::write(dir.join("schema.manifest"), MANIFEST).unwrap();
        let text = std::fs::read_to_string(dir.join("schema.manifest")).unwrap();
        let manifest = Manifest::parse(&text).unwrap();
        let policy = LoadPolicy {
            on_dirty: DirtyPolicy::Quarantine { max_bad_rows: 1000 },
            on_dangling_fk: FkPolicy::DropRow,
            ..LoadPolicy::default()
        };
        if let Ok(load) = manifest.load_policy(&dir, &policy) {
            if let Ok(wide) = load.star.materialize_all() {
                let data = Dataset::from_table(&wide);
                let rows: Vec<usize> = (0..data.n_examples()).collect();
                let feats: Vec<usize> = (0..data.n_features()).collect();
                let n_classes = data.n_classes() as u32;
                let cart = CartTree::default().fit(&data, &rows, &feats);
                let gbt = Gbt { rounds: 2, ..Gbt::default() }.fit(&data, &rows, &feats);
                for &r in &rows {
                    prop_assert!(cart.predict_row(&data, r) < n_classes.max(1));
                    prop_assert!(gbt.predict_row(&data, r) < n_classes.max(1));
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
