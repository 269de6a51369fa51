//! Gradient-boosted regression trees on ordinal class codes.
//!
//! The paper's multi-class targets are ordinal (star ratings, sales
//! levels) and its multi-class metric is RMSE on the codes, so boosting
//! is done in the natural space: least-squares regression trees on the
//! residual `y - F(x)`, with the fitted score mapped back to the
//! nearest class at prediction time (ties to the lower class — the
//! same lowest-index-wins rule every argmax in this workspace uses).
//!
//! Layout: each fit first builds a *train-position frame*. Position `p`
//! stands for entity row `rows[p]`; residuals and scores are
//! `n_train`-long arrays indexed by position, and every node is an
//! ascending run of positions in one per-fit permutation array, so each
//! split scan walks memory forward. Features the source stores directly
//! (every feature of a `Dataset`, the entity columns of a
//! `FactorizedView`) are gathered into one column per feature in train
//! order. Foreign features of a `FactorizedView` are never gathered: the
//! frame resolves each FK once per position into an attribute-row array
//! shared by all of that table's features
//! ([`CodeSource::keyed_codes`]) and reads codes from the small
//! attribute column. The factorized frame therefore allocates
//! `O(n_train × (d_S + k))` for `d_S` entity features and `k` FKs,
//! never a foreign column.
//!
//! Determinism discipline: unlike CART's integer count tables, the
//! split aggregates here are **float residual sums**, so summation
//! order matters. Each tree's root run is `0..n_train`, i.e. the order
//! of `rows`, and a split partitions its node's run stably, in place,
//! so every node's positions are a subsequence of that root order and
//! every per-value bucket receives the same addends in the same order
//! whatever the storage behind the codes. Materialized and factorized
//! GBT models are therefore bitwise identical, and split scoring
//! parallelism (chunked over candidate features, reduced in feature
//! order) cannot perturb them.

use hamlet_ml::classifier::{Classifier, Model};
use hamlet_ml::dataset::Dataset;
use hamlet_ml::CodeSource;
use hamlet_obs::env::EnvError;
use hamlet_obs::parallel::run_indexed;

use crate::cart::{check_arena, majority, TreeError, GAIN_TOL};

/// Default boosting rounds when `HAMLET_GBT_ROUNDS` is unset.
pub const DEFAULT_GBT_ROUNDS: usize = 20;

/// Gradient-boosted trees learner configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gbt {
    /// Boosting rounds (trees). See [`Gbt::from_env`] for the
    /// `HAMLET_GBT_ROUNDS` override.
    pub rounds: usize,
    /// Maximum depth of each regression tree.
    pub max_depth: usize,
    /// Nodes with fewer training rows become leaves.
    pub min_samples_split: usize,
    /// Shrinkage applied to every tree's contribution.
    pub learning_rate: f64,
    /// Worker count for split scoring; `None` resolves `HAMLET_THREADS`
    /// once per process. Bitwise-identical models at any value.
    pub threads: Option<usize>,
}

impl Default for Gbt {
    fn default() -> Self {
        Self {
            rounds: DEFAULT_GBT_ROUNDS,
            max_depth: 3,
            min_samples_split: 8,
            learning_rate: 0.3,
            threads: None,
        }
    }
}

impl Gbt {
    /// The default configuration with `rounds` taken from
    /// `HAMLET_GBT_ROUNDS` when set to a positive integer; an invalid
    /// value is journaled as a warning and the default is kept (the
    /// same non-strict policy as `HAMLET_THREADS`).
    pub fn from_env() -> Self {
        let rounds = rounds_setting(std::env::var_os(ROUNDS_VAR).as_deref()).unwrap_or_else(|e| {
            hamlet_obs::journal::record_warning(format!("{e}; using default"));
            DEFAULT_GBT_ROUNDS
        });
        Self {
            rounds,
            ..Self::default()
        }
    }
}

const ROUNDS_VAR: &str = "HAMLET_GBT_ROUNDS";

/// The rounds a raw `HAMLET_GBT_ROUNDS` value asks for: the default when
/// unset, the value when it is a positive integer (surrounding
/// whitespace allowed), an error naming the value otherwise.
fn rounds_setting(raw: Option<&std::ffi::OsStr>) -> Result<usize, EnvError> {
    let Some(raw) = raw else {
        return Ok(DEFAULT_GBT_ROUNDS);
    };
    match raw.to_str().map(|s| s.trim().parse::<usize>()) {
        Some(Ok(r)) if r > 0 => Ok(r),
        _ => Err(EnvError {
            key: ROUNDS_VAR.to_string(),
            value: raw.to_string_lossy().into_owned(),
            expected: "a positive integer".to_string(),
        }),
    }
}

/// One arena node of a regression tree; same children-before-parent
/// invariant as [`crate::cart::CartNode`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RegNode {
    /// Mean residual of the node's training rows.
    Leaf { value: f64 },
    /// Route left when `code(feature) == value`, right otherwise.
    Split {
        feature: usize,
        value: u32,
        left: u32,
        right: u32,
    },
}

/// One fitted regression tree of the ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct RegTree {
    pub(crate) nodes: Vec<RegNode>,
    pub(crate) root: u32,
}

impl RegTree {
    /// The arena, children-before-parents.
    pub fn nodes(&self) -> &[RegNode] {
        &self.nodes
    }

    /// Index of the root node.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Evaluates the tree on one row.
    fn eval<S: CodeSource>(&self, data: &S, row: usize) -> f64 {
        let mut at = self.root as usize;
        for _ in 0..=self.nodes.len() {
            match self.nodes.get(at) {
                Some(RegNode::Leaf { value }) => return *value,
                Some(RegNode::Split {
                    feature,
                    value,
                    left,
                    right,
                }) => {
                    at = if data.code(*feature, row) == *value {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
                None => return 0.0,
            }
        }
        0.0
    }
}

/// A fitted gradient-boosted ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct GbtModel {
    feats: Vec<usize>,
    n_classes: usize,
    base: f64,
    learning_rate: f64,
    trees: Vec<RegTree>,
}

impl GbtModel {
    /// Rebuilds a model from serialized parts, validating every tree's
    /// arena invariants plus finiteness of base, shrinkage, and leaf
    /// values.
    pub fn from_parts(
        feats: Vec<usize>,
        n_classes: usize,
        n_features: usize,
        base: f64,
        learning_rate: f64,
        trees: Vec<(Vec<RegNode>, u32)>,
    ) -> Result<Self, TreeError> {
        if !base.is_finite() || !learning_rate.is_finite() {
            return Err(TreeError::NonFiniteLeaf { node: 0 });
        }
        let mut built = Vec::with_capacity(trees.len());
        for (nodes, root) in trees {
            check_arena(
                nodes.iter().enumerate().filter_map(|(i, n)| match n {
                    RegNode::Leaf { .. } => None,
                    RegNode::Split {
                        feature,
                        left,
                        right,
                        ..
                    } => Some((i, *feature, *left, *right)),
                }),
                nodes.len(),
                root,
                n_features,
            )?;
            if let Some((node, _)) = nodes
                .iter()
                .enumerate()
                .find(|(_, n)| matches!(n, RegNode::Leaf { value } if !value.is_finite()))
            {
                return Err(TreeError::NonFiniteLeaf { node });
            }
            built.push(RegTree { nodes, root });
        }
        Ok(Self {
            feats,
            n_classes,
            base,
            learning_rate,
            trees: built,
        })
    }

    /// The fitted ensemble.
    pub fn trees(&self) -> &[RegTree] {
        &self.trees
    }

    /// The constant initial score (training-mean label).
    pub fn base(&self) -> f64 {
        self.base
    }

    /// The shrinkage the model was fitted with.
    pub fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    /// Number of target classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The raw boosted score `F(x)` before snapping to a class.
    pub fn raw_score<S: CodeSource>(&self, data: &S, row: usize) -> f64 {
        let mut f_val = self.base;
        for t in &self.trees {
            f_val += self.learning_rate * t.eval(data, row);
        }
        f_val
    }
}

impl Model for GbtModel {
    fn predict_row<S: CodeSource>(&self, data: &S, row: usize) -> u32 {
        let f_val = self.raw_score(data, row);
        // Nearest class under squared distance, lowest class on ties —
        // the rule the serving scorer reproduces from per-class scores.
        let mut best = 0u32;
        let mut best_score = f64::NEG_INFINITY;
        for y in 0..self.n_classes.max(1) {
            let d = f_val - y as f64;
            let score = -(d * d);
            if score > best_score {
                best_score = score;
                best = y as u32;
            }
        }
        best
    }

    fn features(&self) -> &[usize] {
        &self.feats
    }
}

/// Best one-vs-rest split of one feature for least squares: maximizes
/// `sum_l²/n_l + sum_r²/n_r` (variance reduction up to node constants).
/// Aggregates come in per-value; both paths filled them in identical
/// position order, so everything here is a pure function of identical
/// floats.
fn best_reg_split(
    cnt: &[u64],
    sum: &[f64],
    n: u64,
    total: f64,
    parent_score: f64,
) -> Option<(u32, f64)> {
    let mut best: Option<(u32, f64)> = None;
    for v in 0..cnt.len() {
        let n_left = cnt[v];
        if n_left == 0 || n_left == n {
            continue;
        }
        let n_right = n - n_left;
        let sum_l = sum[v];
        let sum_r = total - sum_l;
        let score = sum_l * sum_l / n_left as f64 + sum_r * sum_r / n_right as f64;
        let gain = score - parent_score;
        if best.is_none_or(|(_, g)| gain > g) {
            best = Some((v as u32, gain));
        }
    }
    best
}

/// The training rows of one fit, laid out by train position: position
/// `p` stands for entity row `rows[p]`, and every per-row array of the
/// fit is indexed by position. Built once per fit.
struct Frame<'s> {
    /// One column per entry of the fit's `feats`, in that order.
    cols: Vec<FrameCol<'s>>,
    /// Attribute-table row of every position, one array per FK key.
    attr_rows: Vec<Vec<u32>>,
}

struct FrameCol<'s> {
    feature: usize,
    domain: usize,
    codes: ColCodes<'s>,
}

enum ColCodes<'s> {
    /// Codes gathered in train order.
    Gathered(Vec<u32>),
    /// Codes read from the attribute column at `attr_rows[at][p]`.
    Keyed { at: usize, codes: &'s [u32] },
}

impl<'s> Frame<'s> {
    fn build<S: CodeSource>(src: &'s S, rows: &[usize], feats: &[usize]) -> Self {
        let mut frame = Self {
            cols: Vec::with_capacity(feats.len()),
            attr_rows: Vec::new(),
        };
        let mut keys = Vec::new();
        for &f in feats {
            let codes = match src.keyed_codes(f) {
                Some(k) => {
                    let at = match keys.iter().position(|&key| key == k.key) {
                        Some(at) => at,
                        None => {
                            keys.push(k.key);
                            frame.attr_rows.push(
                                rows.iter()
                                    .map(|&r| k.rid_to_row[k.fk_codes[r] as usize])
                                    .collect(),
                            );
                            keys.len() - 1
                        }
                    };
                    ColCodes::Keyed { at, codes: k.codes }
                }
                None => ColCodes::Gathered(rows.iter().map(|&r| src.code(f, r)).collect()),
            };
            frame.cols.push(FrameCol {
                feature: f,
                domain: src.feature_domain_size(f).max(1),
                codes,
            });
        }
        frame
    }

    /// Code of column `c` at position `p`.
    fn code(&self, c: usize, p: usize) -> u32 {
        match &self.cols[c].codes {
            ColCodes::Gathered(codes) => codes[p],
            ColCodes::Keyed { at, codes } => codes[self.attr_rows[*at][p] as usize],
        }
    }

    /// Row count and residual sum per value of column `c` over `pos`,
    /// each bucket accumulated in `pos` order.
    fn bucket_sums(&self, c: usize, pos: &[usize], residual: &[f64]) -> (Vec<u64>, Vec<f64>) {
        let d = self.cols[c].domain;
        let mut cnt = vec![0u64; d];
        let mut sum = vec![0.0f64; d];
        let mut add = |v: u32, p: usize| {
            let v = v as usize;
            if v < d {
                cnt[v] += 1;
                sum[v] += residual[p];
            }
        };
        // One loop per storage kind, so the match stays out of the scan.
        match &self.cols[c].codes {
            ColCodes::Gathered(codes) => {
                for &p in pos {
                    add(codes[p], p);
                }
            }
            ColCodes::Keyed { at, codes } => {
                let attr_rows = &self.attr_rows[*at];
                for &p in pos {
                    add(codes[attr_rows[p] as usize], p);
                }
            }
        }
        (cnt, sum)
    }
}

/// Grows one regression subtree over the ascending positions `pos`,
/// updating `scores` for every position that lands in a created leaf
/// (leaves are created in deterministic order, and each position
/// belongs to exactly one). Splits partition `pos` in place, using
/// `scratch` (at least as long as `pos`) for the right side.
#[allow(clippy::too_many_arguments)]
fn grow_reg(
    cfg: &Gbt,
    frame: &Frame<'_>,
    residual: &[f64],
    pos: &mut [usize],
    scratch: &mut [usize],
    depth: usize,
    threads: usize,
    nodes: &mut Vec<RegNode>,
    scores: &mut [f64],
) -> u32 {
    let n = pos.len() as u64;
    let mut total = 0.0;
    for &p in pos.iter() {
        total += residual[p];
    }
    let mean = if pos.is_empty() {
        0.0
    } else {
        total / pos.len() as f64
    };
    let leaf = |nodes: &mut Vec<RegNode>, scores: &mut [f64], pos: &[usize]| {
        nodes.push(RegNode::Leaf { value: mean });
        for &p in pos {
            scores[p] += cfg.learning_rate * mean;
        }
        (nodes.len() - 1) as u32
    };
    let n_cols = frame.cols.len();
    if depth >= cfg.max_depth || pos.len() < cfg.min_samples_split {
        return leaf(nodes, scores, pos);
    }

    let parent_score = if n == 0 {
        0.0
    } else {
        total * total / n as f64
    };
    let chunk = n_cols.div_ceil(threads.max(1)).max(1);
    let n_chunks = n_cols.div_ceil(chunk);
    let per_chunk = run_indexed(n_chunks, threads, &|ci| {
        let lo = ci * chunk;
        let hi = (lo + chunk).min(n_cols);
        (lo..hi)
            .map(|c| {
                let (cnt, sum) = frame.bucket_sums(c, pos, residual);
                best_reg_split(&cnt, &sum, n, total, parent_score).map(|(v, g)| (c, v, g))
            })
            .collect::<Vec<_>>()
    });
    let mut best: Option<(usize, u32, f64)> = None;
    for cand in per_chunk.into_iter().flatten().flatten() {
        if best.is_none_or(|(_, _, g)| cand.2 > g) {
            best = Some(cand);
        }
    }
    let Some((col, value, gain)) = best else {
        return leaf(nodes, scores, pos);
    };
    if gain <= GAIN_TOL {
        return leaf(nodes, scores, pos);
    }

    // A stable partition: both sides stay ascending.
    let (mut n_left, mut n_right) = (0, 0);
    for i in 0..pos.len() {
        let p = pos[i];
        if frame.code(col, p) == value {
            pos[n_left] = p;
            n_left += 1;
        } else {
            scratch[n_right] = p;
            n_right += 1;
        }
    }
    pos[n_left..].copy_from_slice(&scratch[..n_right]);
    if n_left == 0 || n_right == 0 {
        return leaf(nodes, scores, pos);
    }
    let (left_pos, right_pos) = pos.split_at_mut(n_left);
    let left = grow_reg(
        cfg,
        frame,
        residual,
        left_pos,
        scratch,
        depth + 1,
        threads,
        nodes,
        scores,
    );
    let right = grow_reg(
        cfg,
        frame,
        residual,
        right_pos,
        scratch,
        depth + 1,
        threads,
        nodes,
        scores,
    );
    nodes.push(RegNode::Split {
        feature: frame.cols[col].feature,
        value,
        left,
        right,
    });
    (nodes.len() - 1) as u32
}

impl Gbt {
    /// Fits over any [`CodeSource`]: hand it a `Dataset` for the
    /// materialized path or a `FactorizedView` for the
    /// zero-materialization path — both run the identical float
    /// program. Each entry of `rows` is one training sample, and its
    /// position in `rows` fixes the order residuals are summed in.
    pub fn fit_source<S: CodeSource + Sync>(
        &self,
        src: &S,
        rows: &[usize],
        feats: &[usize],
    ) -> GbtModel {
        let threads = self
            .threads
            .unwrap_or_else(hamlet_obs::env::resolved_threads);
        let n_classes = src.n_classes();

        if feats.is_empty() || rows.is_empty() {
            // Majority-class predictor, per the Classifier contract: a
            // constant base score equal to the majority class snaps to
            // exactly that class.
            let mut class_counts = vec![0u64; n_classes.max(1)];
            for &r in rows {
                let y = src.label(r) as usize;
                if y < class_counts.len() {
                    class_counts[y] += 1;
                }
            }
            return GbtModel {
                feats: feats.to_vec(),
                n_classes,
                base: majority(&class_counts) as f64,
                learning_rate: self.learning_rate,
                trees: Vec::new(),
            };
        }

        let frame = Frame::build(src, rows, feats);
        let mut total = 0.0;
        for &r in rows {
            total += src.label(r) as f64;
        }
        let base = total / rows.len() as f64;
        let mut scores = vec![base; rows.len()];
        let mut residual = vec![0.0f64; rows.len()];
        let mut pos = vec![0usize; rows.len()];
        let mut scratch = vec![0usize; rows.len()];
        let mut trees = Vec::with_capacity(self.rounds);
        for _ in 0..self.rounds {
            for ((res, &r), &s) in residual.iter_mut().zip(rows).zip(&scores) {
                *res = src.label(r) as f64 - s;
            }
            for (i, p) in pos.iter_mut().enumerate() {
                *p = i;
            }
            let mut nodes = Vec::new();
            let root = grow_reg(
                self,
                &frame,
                &residual,
                &mut pos,
                &mut scratch,
                0,
                threads,
                &mut nodes,
                &mut scores,
            );
            trees.push(RegTree { nodes, root });
        }
        GbtModel {
            feats: feats.to_vec(),
            n_classes,
            base,
            learning_rate: self.learning_rate,
            trees,
        }
    }
}

impl Classifier for Gbt {
    type Fitted = GbtModel;

    fn fit(&self, data: &Dataset, rows: &[usize], feats: &[usize]) -> GbtModel {
        self.fit_source(data, rows, feats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_ml::dataset::Feature;

    fn ordinal_data() -> Dataset {
        // y tracks x0 with a deterministic wobble from x1.
        let x0: Vec<u32> = (0..90).map(|i| i % 3).collect();
        let x1: Vec<u32> = (0..90).map(|i| (i * 7) % 4).collect();
        let y: Vec<u32> = x0
            .iter()
            .zip(&x1)
            .map(|(&a, &b)| (a + u32::from(b == 0)).min(3))
            .collect();
        Dataset::new(
            vec![
                Feature {
                    name: "x0".into(),
                    domain_size: 3,
                    codes: x0,
                },
                Feature {
                    name: "x1".into(),
                    domain_size: 4,
                    codes: x1,
                },
            ],
            y,
            4,
        )
    }

    #[test]
    fn fits_the_ordinal_signal() {
        let data = ordinal_data();
        let rows: Vec<usize> = (0..data.n_examples()).collect();
        let model = Gbt::default().fit(&data, &rows, &[0, 1]);
        let wrong = rows
            .iter()
            .filter(|&&r| model.predict_row(&data, r) != data.labels()[r])
            .count();
        assert!(
            wrong * 10 < rows.len(),
            "GBT should fit a deterministic ordinal signal, {wrong}/{} wrong",
            rows.len()
        );
    }

    #[test]
    fn empty_feats_is_majority_predictor() {
        let data = ordinal_data();
        let rows: Vec<usize> = (0..data.n_examples()).collect();
        let model = Gbt::default().fit(&data, &rows, &[]);
        assert!(model.trees().is_empty());
        let mut counts = vec![0u64; data.n_classes()];
        for &r in &rows {
            counts[data.labels()[r] as usize] += 1;
        }
        let maj = majority(&counts);
        for &r in &rows {
            assert_eq!(model.predict_row(&data, r), maj);
        }
    }

    #[test]
    fn thread_count_does_not_change_the_model() {
        let data = ordinal_data();
        let rows: Vec<usize> = (0..data.n_examples()).collect();
        let base = Gbt {
            threads: Some(1),
            ..Gbt::default()
        }
        .fit(&data, &rows, &[0, 1]);
        for t in [2, 8] {
            let m = Gbt {
                threads: Some(t),
                ..Gbt::default()
            }
            .fit(&data, &rows, &[0, 1]);
            assert_eq!(base, m, "model changed at {t} threads");
        }
    }

    #[test]
    fn prediction_snaps_to_nearest_class_ties_low() {
        let model = GbtModel {
            feats: vec![],
            n_classes: 3,
            base: 0.5, // exactly between classes 0 and 1
            learning_rate: 0.1,
            trees: vec![],
        };
        let data = ordinal_data();
        assert_eq!(model.predict_row(&data, 0), 0);
        let model_hi = GbtModel { base: 1.6, ..model };
        assert_eq!(model_hi.predict_row(&data, 0), 2);
    }

    #[test]
    fn from_parts_rejects_non_finite_leaves() {
        let trees = vec![(vec![RegNode::Leaf { value: f64::NAN }], 0u32)];
        assert!(matches!(
            GbtModel::from_parts(vec![0], 2, 1, 0.0, 0.1, trees),
            Err(TreeError::NonFiniteLeaf { .. })
        ));
        assert!(GbtModel::from_parts(
            vec![0],
            2,
            1,
            0.0,
            0.1,
            vec![(vec![RegNode::Leaf { value: 0.25 }], 0)]
        )
        .is_ok());
    }

    #[test]
    fn rounds_setting_accepts_positive_integers_only() {
        use std::ffi::OsStr;
        assert_eq!(rounds_setting(None), Ok(DEFAULT_GBT_ROUNDS));
        assert_eq!(rounds_setting(Some(OsStr::new("7"))), Ok(7));
        assert_eq!(rounds_setting(Some(OsStr::new(" 12 "))), Ok(12));
        for bad in ["0", "-3", "many", "", "2.5"] {
            let e = rounds_setting(Some(OsStr::new(bad))).unwrap_err();
            assert_eq!(e.key, "HAMLET_GBT_ROUNDS");
            assert_eq!(e.value, bad);
            assert!(e.to_string().contains("positive integer"), "{e}");
        }
    }

    #[cfg(unix)]
    #[test]
    fn rounds_setting_rejects_non_utf8() {
        use std::os::unix::ffi::OsStrExt;
        let raw = std::ffi::OsStr::from_bytes(&[0x37, 0x80]);
        let e = rounds_setting(Some(raw)).unwrap_err();
        assert!(e.value.starts_with('7'), "{e:?}");
    }
}
