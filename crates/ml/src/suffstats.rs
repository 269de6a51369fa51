//! Sufficient statistics shared across a feature-selection run.
//!
//! Naive Bayes over nominal features is decomposable: everything a fit
//! needs is the class histogram plus one class-conditional count table
//! per feature, and those tables do not depend on which *other* features
//! are in the subset (the same decomposability that powers
//! `crates/factorized` and [`crate::incremental`]). A greedy wrapper
//! evaluates O(k) candidate subsets per step over the same `(data,
//! train)` pair, so rescanning the training rows per candidate is pure
//! waste: [`SuffStats`] computes each per-feature table **once** per
//! selection run and assembles any candidate model from the cached
//! tables with zero row scans.
//!
//! The same count tables drive the filter scores: `I(F;Y)` and
//! `IGR(F;Y)` are functions of the (feature value × class) joint
//! histogram, reproduced here in exactly the summation order of
//! [`crate::info`] so cached scores are bit-for-bit equal to the
//! direct ones.
//!
//! [`SweepFit`] is how classifiers plug in: Naive Bayes assembles from
//! the tables, logistic regression warm-starts SGD from the parent
//! subset's weights, and anything else falls back to its ordinary
//! [`Classifier::fit`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::classifier::{Classifier, ErrorMetric};
use crate::dataset::Dataset;
use crate::info::entropy_of_counts;
use crate::logreg::LogisticRegression;
use crate::naive_bayes::{NaiveBayes, NaiveBayesModel};
use crate::tan::Tan;
use crate::tree::DecisionTree;

/// Class-conditional count tables over one `(data, train)` pair, built
/// lazily per feature and cached for the lifetime of the selection run.
///
/// The cache is immutable after construction in every observable way:
/// tables are computed at most once (thread-safe via [`OnceLock`], so
/// parallel candidate sweeps share them freely) and there is no
/// invalidation — a `SuffStats` borrows its `(data, train)` pair, so the
/// statistics cannot go stale while the cache is alive. New fold ⇒ new
/// `SuffStats`.
pub struct SuffStats<'a> {
    data: &'a Dataset,
    train: &'a [usize],
    /// `class_counts[y]` = training rows with label `y`.
    class_counts: Vec<u64>,
    /// When `train` is a contiguous range (the common full-table case),
    /// its bounds — table builds then take the gather-free blocked
    /// kernel over two contiguous `u32` slices instead of the
    /// double-gather row loop.
    train_range: Option<std::ops::Range<usize>>,
    /// Per feature, the flattened `n_classes × domain_size` count table
    /// `counts[y * d + v]`, built on first use.
    tables: Vec<OnceLock<Box<[u64]>>>,
    /// This cache's [`table`](Self::table) reads that were served from
    /// a built table, and those that built one (the process-wide
    /// `hamlet_suffstats_{hits,misses}_total` counters sum these over
    /// every cache).
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<'a> SuffStats<'a> {
    /// Prepares a statistics cache for one `(data, train)` pair. The
    /// class histogram is computed eagerly (one pass over the labels);
    /// per-feature tables are built on first use.
    pub fn new(data: &'a Dataset, train: &'a [usize]) -> Self {
        let labels = data.labels();
        let mut class_counts = vec![0u64; data.n_classes()];
        for &r in train {
            class_counts[labels[r] as usize] += 1;
        }
        Self {
            data,
            train,
            class_counts,
            train_range: crate::kernels::contiguous_range(train),
            tables: (0..data.n_features()).map(|_| OnceLock::new()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The dataset the statistics are over.
    pub fn data(&self) -> &'a Dataset {
        self.data
    }

    /// The training rows the statistics are over.
    pub fn train(&self) -> &'a [usize] {
        self.train
    }

    /// Training-label histogram.
    pub fn class_counts(&self) -> &[u64] {
        &self.class_counts
    }

    /// The class-conditional count table for feature `f`, flattened
    /// `[y * |D_F| + v]`, computing it on first call (one morsel-driven
    /// pass over the training rows through [`crate::kernels`]) and
    /// serving it from cache afterwards. Builds go parallel only for
    /// large inputs outside an existing parallel region — a build
    /// triggered from inside a candidate-sweep worker runs sequentially
    /// — and either way the counts are the row-loop's exactly.
    pub fn table(&self, f: usize) -> &[u64] {
        let mut missed = false;
        let table = self.tables[f].get_or_init(|| {
            missed = true;
            let started = Instant::now();
            let _span = hamlet_obs::span!("ml.suffstats_build", feature = f);
            let feature = self.data.feature(f);
            let d = feature.domain_size;
            let c = self.data.n_classes();
            let labels = self.data.labels();
            let threads = hamlet_obs::env::resolved_threads();
            let counts = match &self.train_range {
                Some(range) => crate::kernels::class_count_table(
                    c,
                    d,
                    &labels[range.clone()],
                    &feature.codes[range.clone()],
                    threads,
                ),
                None => crate::kernels::class_count_table_gather(
                    c,
                    d,
                    labels,
                    &feature.codes,
                    self.train,
                    threads,
                ),
            };
            hamlet_obs::counter_add!(
                "hamlet_suffstats_build_us_total",
                started.elapsed().as_micros() as u64
            );
            counts.into_boxed_slice()
        });
        if missed {
            self.misses.fetch_add(1, Ordering::Relaxed);
            hamlet_obs::counter_add!("hamlet_suffstats_misses_total", 1);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            hamlet_obs::counter_add!("hamlet_suffstats_hits_total", 1);
        }
        table
    }

    /// Pre-builds the count tables of `feats` across up to `threads`
    /// workers (one feature per worker; each inner build sees the
    /// parallel-region flag and scans sequentially). Later
    /// [`table`](Self::table) calls are all cache hits, so a selection
    /// run's statistics phase is one parallel pass instead of k lazy
    /// scans. Tables already built are skipped, and building a table
    /// twice is impossible — `OnceLock` keeps the first result — so
    /// warming is always safe and, once warm, free.
    pub fn warm(&self, feats: &[usize], threads: usize) {
        let cold: Vec<usize> = feats
            .iter()
            .copied()
            .filter(|&f| self.tables[f].get().is_none())
            .collect();
        if cold.is_empty() {
            return;
        }
        let _span = hamlet_obs::span!("ml.suffstats_warm", feats = cold.len());
        hamlet_obs::parallel::run_indexed(cold.len(), threads, &|i| {
            let _ = self.table(cold[i]);
        });
    }

    /// Assembles a Naive Bayes model for `feats` from the cached tables
    /// — zero training-row scans once the tables are warm, and
    /// bit-for-bit equal to [`NaiveBayes::fit`] on the same `(data,
    /// train, feats)` because the float recipe (same counts, same
    /// operations, same order) is identical.
    pub fn nb_model(&self, smoothing: f64, feats: &[usize]) -> NaiveBayesModel {
        let _span = hamlet_obs::span!("ml.nb_assemble", feats = feats.len());
        hamlet_obs::counter_add!("hamlet_nb_fits_total", 1);
        let n_classes = self.data.n_classes();
        let alpha = smoothing;
        let total = self.train.len() as f64 + alpha * n_classes as f64;
        let log_prior: Vec<f64> = self
            .class_counts
            .iter()
            .map(|&c| ((c as f64 + alpha) / total).ln())
            .collect();

        let mut log_cond = Vec::with_capacity(feats.len());
        let mut domain_sizes = Vec::with_capacity(feats.len());
        for &f in feats {
            let d = self.data.feature(f).domain_size;
            let counts = self.table(f);
            let mut table = vec![0f64; n_classes * d];
            for y in 0..n_classes {
                let denom = self.class_counts[y] as f64 + alpha * d as f64;
                for v in 0..d {
                    table[y * d + v] = ((counts[y * d + v] as f64 + alpha) / denom).ln();
                }
            }
            log_cond.push(table);
            domain_sizes.push(d);
        }

        NaiveBayesModel::from_parts(feats.to_vec(), n_classes, log_prior, log_cond, domain_sizes)
    }

    /// Smoothed log-priors, the same float recipe as [`NaiveBayes::fit`].
    fn log_prior_vec(&self, smoothing: f64) -> Vec<f64> {
        let total = self.train.len() as f64 + smoothing * self.data.n_classes() as f64;
        self.class_counts
            .iter()
            .map(|&c| ((c as f64 + smoothing) / total).ln())
            .collect()
    }

    /// Transposed smoothed log-conditional table of feature `f`,
    /// `[v * n_classes + y]` (entry values identical to the model's
    /// `[y * d + v]` table; only the layout differs, so a row's class
    /// scores read contiguous floats).
    fn log_table_t(&self, smoothing: f64, f: usize) -> Vec<f64> {
        let c = self.data.n_classes();
        let d = self.data.feature(f).domain_size;
        let counts = self.table(f);
        let mut t = vec![0f64; d * c];
        for y in 0..c {
            let denom = self.class_counts[y] as f64 + smoothing * d as f64;
            for v in 0..d {
                t[v * c + y] = ((counts[y * d + v] as f64 + smoothing) / denom).ln();
            }
        }
        t
    }

    /// Validation errors of every trial of one batched Naive Bayes
    /// sweep, in trial order — **bitwise identical** to assembling each
    /// trial's model with [`nb_model`](Self::nb_model) and scoring it
    /// with [`NaiveBayesModel::batch_error`], in one pass over `rows`
    /// instead of one pass per trial.
    ///
    /// Per row, each trial's class scores come from a cheap approximate
    /// sum of its addends: the parent's prefix sums plus suffix sums for
    /// [`Sweep::Add`] and [`Sweep::Drop`], one running sum in rank order
    /// for [`Sweep::Prefixes`] — O(k·c) per row for all k trials
    /// together, where replaying each trial's tail in its model's order
    /// is O(k²·c). The approximate argmax is then *certified*: every
    /// addend is a smoothed log-probability, so ≤ 0, and any two
    /// summation orders of the same `m` addends lie within a relative
    /// `2γ_m` of each other (see `certify_tol`). When the approximate
    /// top-1 beats the runner-up by more than that, the model's own
    /// addition order picks the same class; otherwise the trial is
    /// replayed exactly for that row, in ascending feature order. Trials
    /// whose approximate sum already *is* the model's order (a tail of
    /// at most one block, or a rank prefix that is still ascending) skip
    /// the check.
    ///
    /// Rows are scored in blocks of `BLOCK_ROWS` (512) across up to
    /// `threads` workers, each gathering its block's codes and counting
    /// integer losses (wrong predictions, or squared class-index
    /// differences) per trial. Integer sums do not depend on the order
    /// they are added in, so the result is the same at any worker count.
    pub fn nb_sweep_errors(
        &self,
        smoothing: f64,
        sweep: Sweep<'_>,
        rows: &[usize],
        metric: ErrorMetric,
        threads: usize,
    ) -> Vec<f64> {
        let n_trials = sweep.len();
        let mut span = hamlet_obs::span!(
            "ml.nb_sweep",
            shape = sweep.name(),
            trials = n_trials,
            rows = rows.len()
        );
        let c = self.data.n_classes();
        if n_trials == 0 || rows.is_empty() || c == 1 {
            // No rows: both metrics are 0.0. One class: every
            // prediction is class 0, the only label.
            return vec![0.0; n_trials];
        }
        let kernel = SweepKernel::new(self, smoothing, sweep, threads);
        let loss: Vec<u64> = (0..c * c)
            .map(|i| {
                let (truth, class) = ((i / c) as i64, (i % c) as i64);
                match metric {
                    ErrorMetric::ZeroOne => u64::from(truth != class),
                    ErrorMetric::Rmse => ((class - truth) * (class - truth)) as u64,
                }
            })
            .collect();
        let blocks = rows.len().div_ceil(BLOCK_ROWS);
        let parts = hamlet_obs::parallel::run_indexed(blocks, threads, &|b| {
            let block = &rows[b * BLOCK_ROWS..((b + 1) * BLOCK_ROWS).min(rows.len())];
            kernel.score_block(self.data, block, &loss)
        });
        let mut losses = vec![0u64; n_trials];
        let mut replays = 0u64;
        for (part, replayed) in parts {
            for (sum, l) in losses.iter_mut().zip(part) {
                *sum += l;
            }
            replays += replayed;
        }
        hamlet_obs::counter_add!("hamlet_nb_sweep_replays_total", replays);
        span.record("replays", replays);
        // Loss sums are exact integers in f64, so these are the floats
        // `batch_error` produces by adding the same losses row by row.
        let n = rows.len() as f64;
        losses
            .into_iter()
            .map(|l| match metric {
                ErrorMetric::ZeroOne => l as f64 / n,
                ErrorMetric::Rmse => (l as f64 / n).sqrt(),
            })
            .collect()
    }

    /// Marginal feature-value histogram of feature `f` (column sums of
    /// its count table).
    fn value_counts(&self, f: usize) -> Vec<u64> {
        let d = self.data.feature(f).domain_size;
        let table = self.table(f);
        let mut counts = vec![0u64; d];
        for (v, count) in counts.iter_mut().enumerate() {
            for y in 0..self.data.n_classes() {
                *count += table[y * d + v];
            }
        }
        counts
    }

    /// `I(F;Y)` in bits from the cached table — bit-for-bit equal to
    /// [`crate::info::mutual_information`] over the training rows (the
    /// integer histograms are identical and the float summation runs in
    /// the same order).
    pub fn mutual_information(&self, f: usize) -> f64 {
        if self.train.is_empty() {
            return 0.0;
        }
        let d = self.data.feature(f).domain_size;
        let n_classes = self.data.n_classes();
        let table = self.table(f);
        let a_counts = self.value_counts(f);
        let n = self.train.len() as f64;
        let mut mi = 0.0;
        for a in 0..d {
            if a_counts[a] == 0 {
                continue;
            }
            let pa = a_counts[a] as f64 / n;
            for b in 0..n_classes {
                let c = table[b * d + a];
                if c == 0 {
                    continue;
                }
                let pab = c as f64 / n;
                let pb = self.class_counts[b] as f64 / n;
                mi += pab * (pab / (pa * pb)).log2();
            }
        }
        mi.max(0.0)
    }

    /// `IGR(F;Y) = I(F;Y) / H(F)` from the cached table — bit-for-bit
    /// equal to [`crate::info::information_gain_ratio`] over the
    /// training rows.
    pub fn information_gain_ratio(&self, f: usize) -> f64 {
        let h_f = entropy_of_counts(&self.value_counts(f));
        if h_f <= 0.0 {
            return 0.0;
        }
        self.mutual_information(f) / h_f
    }
}

/// Index of the strictly greatest score — lowest index on ties, the
/// same rule as `predict_row`'s `scores[y] > scores[best]` scan, in a
/// branch-free form (mispredicted compares dominate the scoring loop
/// otherwise).
#[inline]
fn argmax(block: &[f64]) -> usize {
    argmax_by(block.len(), |y| block[y])
}

/// [`argmax`] of `score(y)` over `y < c`, for scores computed on the
/// fly rather than stored.
#[inline]
fn argmax_by(c: usize, score: impl Fn(usize) -> f64) -> usize {
    let mut best = 0usize;
    let mut best_val = score(0);
    for y in 1..c {
        let s = score(y);
        let better = s > best_val;
        best = if better { y } else { best };
        best_val = if better { s } else { best_val };
    }
    best
}

/// The shape of one batched sweep: which feature subsets its trials
/// score. Each trial's model sums its features' addends in ascending
/// feature order, whatever order the shape lists them in.
#[derive(Debug, Clone, Copy)]
pub enum Sweep<'s> {
    /// A forward step: trial `t` is `sort(parent ∪ {candidates[t]})`.
    /// `parent` may be in any order; no candidate may be in it.
    Add {
        /// The current subset.
        parent: &'s [usize],
        /// The features to try adding, one trial each.
        candidates: &'s [usize],
    },
    /// A backward step: trial `t` is `parent` without `parent[t]`.
    Drop {
        /// The current subset, sorted ascending.
        parent: &'s [usize],
    },
    /// A filter's cutoff tuning: trial `t` is `sort(ranked[..=t])`.
    Prefixes {
        /// Distinct features, best-ranked first.
        ranked: &'s [usize],
    },
}

impl Sweep<'_> {
    /// Number of trials.
    pub fn len(&self) -> usize {
        match self {
            Sweep::Add { candidates, .. } => candidates.len(),
            Sweep::Drop { parent } => parent.len(),
            Sweep::Prefixes { ranked } => ranked.len(),
        }
    }

    /// Whether the sweep has no trials.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The feature subset trial `t` scores, ascending.
    pub fn trial(&self, t: usize) -> Vec<usize> {
        let mut feats = match self {
            Sweep::Add { parent, candidates } => {
                let mut feats = parent.to_vec();
                feats.push(candidates[t]);
                feats
            }
            Sweep::Drop { parent } => {
                let mut feats = parent.to_vec();
                feats.remove(t);
                feats
            }
            Sweep::Prefixes { ranked } => ranked[..=t].to_vec(),
        };
        feats.sort_unstable();
        feats
    }

    fn name(&self) -> &'static str {
        match self {
            Sweep::Add { .. } => "add",
            Sweep::Drop { .. } => "drop",
            Sweep::Prefixes { .. } => "prefixes",
        }
    }
}

/// Validation rows per scoring block: a block's gathered codes
/// (`BLOCK_ROWS` × the sweep's columns, as `u32`) are the sweep's only
/// per-row scratch.
const BLOCK_ROWS: usize = 512;

/// Relative margin that certifies an approximate argmax over `m`
/// addends, all ≤ 0.
///
/// With all addends ≤ 0, `Σ|t| = |Σt|`, so every summation order lands
/// within `γ_m·|T|` of the real sum `T` (`γ_m = m·u/(1 − m·u)`, `u =
/// 2⁻⁵³`), and two orders within `2γ_m·|T| ≤ 2γ_m/(1 − γ_m)·|A|` of each
/// other, where `A` is the computed approximate sum. If the approximate
/// top-1 `a1` and runner-up `a2` satisfy `a1 − a2 > tol·(|a1| + |a2|)`,
/// the exact sums keep the top-1 strictly ahead of every other class,
/// so the exact argmax — lowest index on ties included — is the same
/// class. `2γ_m/(1 − γ_m) ≈ m·ε` (ε = 2u); `2(m + 2)·ε` covers it with
/// more than a factor of two to spare, including the rounding of the
/// check itself.
fn certify_tol(m: usize) -> f64 {
    2.0 * (m as f64 + 2.0) * f64::EPSILON
}

/// One sweep's scoring inputs: the columns it reads and how its trials
/// combine them.
struct SweepKernel {
    c: usize,
    prior: Vec<f64>,
    /// The feature behind each column.
    feats: Vec<usize>,
    /// Each column's transposed log table, `[v * c + y]`.
    tables: Vec<Vec<f64>>,
    plan: Plan,
}

impl SweepKernel {
    /// A first sweep over fresh statistics builds the columns' count
    /// tables across up to `threads` workers ([`SuffStats::warm`]).
    fn new(stats: &SuffStats<'_>, smoothing: f64, sweep: Sweep<'_>, threads: usize) -> Self {
        let (feats, plan) = match sweep {
            Sweep::Add { parent, candidates } => {
                let mut feats = parent.to_vec();
                feats.sort_unstable();
                let pos = candidates
                    .iter()
                    .map(|&f| feats.partition_point(|&s| s < f))
                    .collect();
                let k = feats.len();
                feats.extend_from_slice(candidates);
                (feats, Plan::Add { k, pos })
            }
            Sweep::Drop { parent } => {
                debug_assert!(parent.windows(2).all(|w| w[0] < w[1]));
                (parent.to_vec(), Plan::Drop { k: parent.len() })
            }
            Sweep::Prefixes { ranked } => {
                let mut by_feature: Vec<usize> = (0..ranked.len()).collect();
                by_feature.sort_unstable_by_key(|&j| ranked[j]);
                let ascending = 1 + ranked.windows(2).take_while(|w| w[0] < w[1]).count();
                (
                    ranked.to_vec(),
                    Plan::Prefixes {
                        by_feature,
                        ascending,
                    },
                )
            }
        };
        let prior = stats.log_prior_vec(smoothing);
        stats.warm(&feats, threads);
        let mut tables: Vec<Vec<f64>> = feats
            .iter()
            .map(|&f| stats.log_table_t(smoothing, f))
            .collect();
        if let Plan::Add { k: 0, .. } = plan {
            // An empty parent: every trial's score is `prior + table`,
            // one addition per class, done here once per table entry
            // instead of once per row (IEEE addition commutes bitwise).
            for table in &mut tables {
                for block in table.chunks_exact_mut(prior.len()) {
                    add_assign(block, &prior);
                }
            }
        }
        Self {
            c: stats.data.n_classes(),
            prior,
            tables,
            feats,
            plan,
        }
    }

    /// Per-trial loss sums over one block of rows, and the number of
    /// exact replays.
    fn score_block(&self, data: &Dataset, rows: &[usize], loss: &[u64]) -> (Vec<u64>, u64) {
        let c = self.c;
        let b = rows.len();
        // The rows are typically a shuffled permutation: gather each
        // column's codes for the block once (pre-scaled by `c` to index
        // the transposed tables), so scoring reads contiguous memory.
        let mut offs = vec![0u32; self.feats.len() * b];
        for (col, &f) in offs.chunks_exact_mut(b).zip(&self.feats) {
            let codes = &data.feature(f).codes;
            for (o, &r) in col.iter_mut().zip(rows) {
                *o = codes[r] * c as u32;
            }
        }
        let cols: Vec<(&[u32], &[f64])> = offs
            .chunks_exact(b)
            .zip(&self.tables)
            .map(|(o, table)| (o, table.as_slice()))
            .collect();
        let labels = data.labels();
        let mut sums = vec![0u64; self.plan.n_trials()];
        let mut scratch = RowScratch::new(&self.plan, c);
        let mut replays = 0u64;
        for (i, &r) in rows.iter().enumerate() {
            let truth = labels[r] as usize * c;
            let block = |j: usize| {
                let (offs, table) = cols[j];
                let o = offs[i] as usize;
                &table[o..][..c]
            };
            replays += self
                .plan
                .score_row(&self.prior, block, &mut scratch, |t, class| {
                    sums[t] += loss[truth + class];
                });
        }
        (sums, replays)
    }
}

/// How a sweep's trials combine one row's column blocks.
#[derive(Debug)]
enum Plan {
    /// Columns `0..k` are the sorted parent; column `k + t` is trial
    /// `t`'s candidate, which sorts in before parent column `pos[t]`.
    /// With no parent (`k == 0`), the candidate columns have the prior
    /// folded in.
    Add { k: usize, pos: Vec<usize> },
    /// Columns `0..k` are the sorted parent; trial `t` drops column `t`.
    Drop { k: usize },
    /// Column `t` is rank `t`; trial `t` sums columns `0..=t`.
    /// `by_feature` lists the columns in ascending feature order, and
    /// ranks `0..ascending` already are in it.
    Prefixes {
        by_feature: Vec<usize>,
        ascending: usize,
    },
}

/// Per-row sums, reused across the rows of a block.
struct RowScratch {
    /// `prefix[j]`: prior + parent columns `0..j`, left to right
    /// (for prefix sweeps, `prefix[0]` is the running sum).
    prefix: Vec<f64>,
    /// `suffix[j]`: parent columns `j..k`, right to left.
    suffix: Vec<f64>,
    /// One trial's class scores, when it is replayed.
    score: Vec<f64>,
}

impl RowScratch {
    fn new(plan: &Plan, c: usize) -> Self {
        let k = match plan {
            Plan::Add { k, .. } | Plan::Drop { k } => *k,
            Plan::Prefixes { .. } => 0,
        };
        Self {
            prefix: vec![0.0; (k + 1) * c],
            suffix: vec![0.0; k * c],
            score: vec![0.0; c],
        }
    }
}

impl Plan {
    fn n_trials(&self) -> usize {
        match self {
            Plan::Add { pos, .. } => pos.len(),
            Plan::Drop { k } => *k,
            Plan::Prefixes { by_feature, .. } => by_feature.len(),
        }
    }

    /// Scores one validation row for every trial: `block(j)` is column
    /// `j`'s `c` addends for the row. Calls `emit(t, class)` with the
    /// class trial `t`'s own model predicts, and returns how many trials
    /// the certification sent to an exact replay.
    fn score_row<'b>(
        &self,
        prior: &[f64],
        block: impl Fn(usize) -> &'b [f64],
        s: &mut RowScratch,
        mut emit: impl FnMut(usize, usize),
    ) -> u64 {
        let c = prior.len();
        let mut replays = 0u64;
        match self {
            Plan::Add { k, pos } => {
                let k = *k;
                if k == 0 {
                    // Each candidate's table has the prior folded in
                    // (`SweepKernel::new`): its block is the score.
                    for t in 0..pos.len() {
                        emit(t, argmax(block(t)));
                    }
                    return 0;
                }
                fill_prefix(&mut s.prefix, prior, &block, k);
                let lo = pos.iter().copied().min().unwrap_or(k);
                fill_suffix(&mut s.suffix, &block, lo, k, c);
                let tol = certify_tol(k + 2);
                for (t, &p) in pos.iter().enumerate() {
                    let head = &s.prefix[p * c..][..c];
                    let cand = block(k + t);
                    let tail = (p < k).then(|| &s.suffix[p * c..][..c]);
                    // A tail of at most one block: the model's own order.
                    let class = pick_class(
                        |y| {
                            let sum = head[y] + cand[y];
                            tail.map_or(sum, |tail| sum + tail[y])
                        },
                        p + 1 >= k,
                        tol,
                        &mut s.score[..c],
                        &mut replays,
                        |score| {
                            add_into(score, head, cand);
                            for j in p..k {
                                add_assign(score, block(j));
                            }
                        },
                    );
                    emit(t, class);
                }
            }
            Plan::Drop { k } => {
                let k = *k;
                fill_prefix(&mut s.prefix, prior, &block, k);
                fill_suffix(&mut s.suffix, &block, 1, k, c);
                let tol = certify_tol(k);
                for t in 0..k {
                    let head = &s.prefix[t * c..][..c];
                    let tail = (t + 1 < k).then(|| &s.suffix[(t + 1) * c..][..c]);
                    // A tail of at most one block: the model's own order.
                    let class = pick_class(
                        |y| tail.map_or(head[y], |tail| head[y] + tail[y]),
                        t + 2 >= k,
                        tol,
                        &mut s.score[..c],
                        &mut replays,
                        |score| {
                            add_into(score, head, block(t + 1));
                            for j in t + 2..k {
                                add_assign(score, block(j));
                            }
                        },
                    );
                    emit(t, class);
                }
            }
            Plan::Prefixes {
                by_feature,
                ascending,
            } => {
                s.prefix[..c].copy_from_slice(prior);
                for t in 0..by_feature.len() {
                    add_assign(&mut s.prefix[..c], block(t));
                    let run = &s.prefix[..c];
                    // A still-ascending prefix: the model's own order.
                    let class = pick_class(
                        |y| run[y],
                        t < *ascending,
                        certify_tol(t + 2),
                        &mut s.score[..c],
                        &mut replays,
                        |score| {
                            score.copy_from_slice(prior);
                            for &j in by_feature.iter().filter(|&&j| j <= t) {
                                add_assign(score, block(j));
                            }
                        },
                    );
                    emit(t, class);
                }
            }
        }
        replays
    }
}

/// `prefix[j]` = prior + columns `0..j`, in column order.
#[inline]
fn fill_prefix<'b>(
    prefix: &mut [f64],
    prior: &[f64],
    block: &impl Fn(usize) -> &'b [f64],
    k: usize,
) {
    let c = prior.len();
    prefix[..c].copy_from_slice(prior);
    for j in 0..k {
        let (done, rest) = prefix.split_at_mut((j + 1) * c);
        add_into(&mut rest[..c], &done[j * c..], block(j));
    }
}

/// `suffix[j]` = columns `j..k`, summed right to left, for `j` in
/// `lo..k`: every non-empty tail starts at `lo` or later.
#[inline]
fn fill_suffix<'b>(
    suffix: &mut [f64],
    block: &impl Fn(usize) -> &'b [f64],
    lo: usize,
    k: usize,
    c: usize,
) {
    if lo >= k {
        return;
    }
    suffix[(k - 1) * c..k * c].copy_from_slice(block(k - 1));
    for j in (lo..k - 1).rev() {
        let (this, next) = suffix.split_at_mut((j + 1) * c);
        add_into(&mut this[j * c..], block(j), &next[..c]);
    }
}

/// `out[y] = a[y] + b[y]`.
#[inline]
fn add_into(out: &mut [f64], a: &[f64], b: &[f64]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x + y;
    }
}

/// `out[y] += a[y]`.
#[inline]
fn add_assign(out: &mut [f64], a: &[f64]) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o += x;
    }
}

/// The class a trial's own model predicts, from its approximate class
/// scores `approx(y)`, `y < score.len()`, computed on the fly. When
/// `exact`, `approx` already sums in the model's order and its argmax is
/// the answer. Otherwise that argmax is kept when its margin over the
/// runner-up clears `tol` ([`certify_tol`]); if it does not, `replay`
/// writes the model's own sums into `score`, `replays` is incremented,
/// and their argmax is returned.
#[inline]
fn pick_class(
    approx: impl Fn(usize) -> f64,
    exact: bool,
    tol: f64,
    score: &mut [f64],
    replays: &mut u64,
    replay: impl FnOnce(&mut [f64]),
) -> usize {
    let c = score.len();
    if exact {
        return argmax_by(c, approx);
    }
    let (best, a1, a2) = top2(c, approx);
    if a1 - a2 > tol * (a1.abs() + a2.abs()) {
        return best;
    }
    replay(score);
    *replays += 1;
    argmax(score)
}

/// The argmax of `score(y)` over `y < c` (lowest index on ties), its
/// score, and the greatest score among the other classes (equal to the
/// top score on a tie, so a tie never certifies).
#[inline]
fn top2(c: usize, score: impl Fn(usize) -> f64) -> (usize, f64, f64) {
    let mut best = 0usize;
    let mut a1 = score(0);
    let mut a2 = f64::NEG_INFINITY;
    for y in 1..c {
        let s = score(y);
        let better = s > a1;
        let demoted = if better { a1 } else { s };
        a2 = if demoted > a2 { demoted } else { a2 };
        best = if better { y } else { best };
        a1 = if better { s } else { a1 };
    }
    (best, a1, a2)
}

impl std::fmt::Debug for SuffStats<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuffStats")
            .field("n_train", &self.train.len())
            .field("n_features", &self.tables.len())
            .field(
                "tables_built",
                &self.tables.iter().filter(|t| t.get().is_some()).count(),
            )
            .finish()
    }
}

/// Fitting through a [`SuffStats`] cache, with an optional warm-start
/// model from the parent subset of a greedy step.
///
/// The contract every implementation must keep: for the `(data, train)`
/// pair the statistics were built over, `fit_swept(stats, feats, warm)`
/// must predict like a classifier trained on that pair — and when the
/// classifier is deterministic-decomposable (Naive Bayes), the result is
/// **bit-for-bit equal** to [`Classifier::fit`], warm or not. Classifiers
/// with nothing to gain from the cache keep the provided default, which
/// simply delegates to their ordinary fit.
pub trait SweepFit: Classifier {
    /// Fits `feats` over the cache's `(data, train)` pair, optionally
    /// warm-starting from the parent subset's fitted model.
    fn fit_swept(
        &self,
        stats: &SuffStats<'_>,
        feats: &[usize],
        warm: Option<&Self::Fitted>,
    ) -> Self::Fitted {
        let _ = warm;
        self.fit(stats.data(), stats.train(), feats)
    }

    /// Scores a swept model on `rows` — the metric evaluation a wrapper
    /// performs once per candidate. Must return **exactly**
    /// `metric.eval(model, data, rows)`; the default does precisely
    /// that, and overrides may only change how fast the same floats are
    /// produced (Naive Bayes scores through
    /// [`NaiveBayesModel::batch_error`], which is bitwise identical but
    /// allocation-free).
    fn eval_swept(
        &self,
        model: &Self::Fitted,
        data: &Dataset,
        rows: &[usize],
        metric: ErrorMetric,
    ) -> f64 {
        metric.eval(model, data, rows)
    }

    /// Scores one entire sweep at once: the validation error of every
    /// trial of `sweep` ([`Sweep::trial`]), in trial order. Returning
    /// `None` (the default) means "no batched path" and the search
    /// falls back to one `fit_swept` + `eval_swept` per trial. An
    /// override must return errors **bitwise identical** to that
    /// fallback.
    fn sweep(
        &self,
        stats: &SuffStats<'_>,
        sweep: Sweep<'_>,
        rows: &[usize],
        metric: ErrorMetric,
        threads: usize,
    ) -> Option<Vec<f64>> {
        let _ = (stats, sweep, rows, metric, threads);
        None
    }
}

impl SweepFit for NaiveBayes {
    fn fit_swept(
        &self,
        stats: &SuffStats<'_>,
        feats: &[usize],
        _warm: Option<&NaiveBayesModel>,
    ) -> NaiveBayesModel {
        stats.nb_model(self.smoothing, feats)
    }

    fn eval_swept(
        &self,
        model: &NaiveBayesModel,
        data: &Dataset,
        rows: &[usize],
        metric: ErrorMetric,
    ) -> f64 {
        model.batch_error(data, rows, metric)
    }

    fn sweep(
        &self,
        stats: &SuffStats<'_>,
        sweep: Sweep<'_>,
        rows: &[usize],
        metric: ErrorMetric,
        threads: usize,
    ) -> Option<Vec<f64>> {
        Some(stats.nb_sweep_errors(self.smoothing, sweep, rows, metric, threads))
    }
}

impl SweepFit for LogisticRegression {
    fn fit_swept(
        &self,
        stats: &SuffStats<'_>,
        feats: &[usize],
        warm: Option<&Self::Fitted>,
    ) -> Self::Fitted {
        self.fit_source_warm(stats.data(), stats.train(), feats, warm)
    }
}

impl SweepFit for Tan {}

impl SweepFit for DecisionTree {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Feature;
    use crate::info::{information_gain_ratio, mutual_information};

    fn data() -> Dataset {
        let n = 240u32;
        let x0: Vec<u32> = (0..n).map(|i| i % 3).collect();
        let x1: Vec<u32> = (0..n).map(|i| (i * 7 + 1) % 5).collect();
        let x2: Vec<u32> = (0..n).map(|i| (i / 3) % 4).collect();
        let y: Vec<u32> = x0.iter().map(|&v| u32::from(v == 0)).collect();
        Dataset::new(
            vec![
                Feature {
                    name: "x0".into(),
                    domain_size: 3,
                    codes: x0,
                },
                Feature {
                    name: "x1".into(),
                    domain_size: 5,
                    codes: x1,
                },
                Feature {
                    name: "x2".into(),
                    domain_size: 4,
                    codes: x2,
                },
            ],
            y,
            2,
        )
    }

    #[test]
    fn nb_assembly_is_bit_for_bit_equal_to_direct_fit() {
        let d = data();
        let train: Vec<usize> = (0..160).step_by(2).collect();
        let stats = SuffStats::new(&d, &train);
        let nb = NaiveBayes::default();
        for feats in [vec![], vec![0], vec![1, 2], vec![0, 1, 2]] {
            let direct = nb.fit(&d, &train, &feats);
            let assembled = stats.nb_model(nb.smoothing, &feats);
            assert_eq!(direct, assembled, "feats {feats:?}");
            let swept = nb.fit_swept(&stats, &feats, None);
            assert_eq!(direct, swept);
        }
    }

    #[test]
    fn nb_assembly_matches_with_non_default_smoothing() {
        let d = data();
        let train: Vec<usize> = (3..200).collect();
        let stats = SuffStats::new(&d, &train);
        let nb = NaiveBayes::new(0.25);
        let direct = nb.fit(&d, &train, &[0, 2]);
        assert_eq!(direct, nb.fit_swept(&stats, &[0, 2], None));
    }

    #[test]
    fn cached_filter_scores_are_bit_for_bit_equal() {
        let d = data();
        let train: Vec<usize> = (0..240).filter(|r| r % 3 != 1).collect();
        let stats = SuffStats::new(&d, &train);
        for f in 0..d.n_features() {
            let feat = d.feature(f);
            let mi = mutual_information(&feat.codes, feat.domain_size, d.labels(), 2, &train);
            let igr = information_gain_ratio(&feat.codes, feat.domain_size, d.labels(), 2, &train);
            assert_eq!(stats.mutual_information(f), mi, "MI mismatch on {f}");
            assert_eq!(stats.information_gain_ratio(f), igr, "IGR mismatch on {f}");
        }
    }

    #[test]
    fn empty_train_set_scores_zero() {
        let d = data();
        let train: Vec<usize> = Vec::new();
        let stats = SuffStats::new(&d, &train);
        assert_eq!(stats.mutual_information(0), 0.0);
        assert_eq!(stats.information_gain_ratio(0), 0.0);
    }

    #[test]
    fn tables_are_built_once_and_shared_across_threads() {
        let d = data();
        let train: Vec<usize> = (0..240).collect();
        let stats = SuffStats::new(&d, &train);
        let counter = |name| hamlet_obs::metrics::counter(name).get();
        let (hits_before, misses_before) = (
            counter("hamlet_suffstats_hits_total"),
            counter("hamlet_suffstats_misses_total"),
        );
        let seen: Vec<&[u64]> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| (0..8).map(|_| stats.table(1)).collect::<Vec<_>>()))
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("reader thread"))
                .collect()
        });
        // This cache's own counts are exact whatever else runs: one
        // build, and the other 31 reads served from it.
        assert_eq!(stats.misses.load(Ordering::Relaxed), 1, "built once");
        assert_eq!(stats.hits.load(Ordering::Relaxed), 31);
        // The process-wide counters saw at least those (tests running
        // in parallel may add more).
        assert!(counter("hamlet_suffstats_misses_total") - misses_before >= 1);
        assert!(counter("hamlet_suffstats_hits_total") - hits_before >= 31);
        assert_eq!(seen.len(), 32);
        assert!(
            seen.iter().all(|&t| std::ptr::eq(t, stats.table(1))),
            "every reader must get the one cached table"
        );
        assert_eq!(stats.table(1), SuffStats::new(&d, &train).table(1));
    }

    #[test]
    fn batch_error_is_bitwise_equal_to_metric_eval() {
        let d = data();
        let train: Vec<usize> = (0..160).collect();
        let val: Vec<usize> = (160..240).collect();
        let nb = NaiveBayes::default();
        for feats in [vec![], vec![1], vec![0, 1, 2]] {
            let model = nb.fit(&d, &train, &feats);
            for metric in [ErrorMetric::ZeroOne, ErrorMetric::Rmse] {
                let slow = metric.eval(&model, &d, &val);
                let fast = nb.eval_swept(&model, &d, &val, metric);
                assert_eq!(slow.to_bits(), fast.to_bits(), "{metric:?} on {feats:?}");
            }
        }
    }

    #[test]
    fn sweep_errors_are_bitwise_equal_to_per_trial_scoring() {
        let d = data();
        let train: Vec<usize> = (0..160).collect();
        // Shuffled, repeated rows spanning three scoring blocks.
        let val: Vec<usize> = (0..1300).map(|i| (i * 7 + 160) % 240).collect();
        let stats = SuffStats::new(&d, &train);
        let sweeps = [
            Sweep::Add {
                parent: &[],
                candidates: &[0, 1, 2],
            },
            Sweep::Add {
                parent: &[1],
                candidates: &[0, 2],
            },
            Sweep::Add {
                parent: &[2, 0],
                candidates: &[1],
            },
            Sweep::Drop { parent: &[0, 1, 2] },
            Sweep::Prefixes { ranked: &[2, 0, 1] },
            Sweep::Prefixes { ranked: &[0, 2] },
        ];
        for metric in [ErrorMetric::ZeroOne, ErrorMetric::Rmse] {
            for threads in [1, 3] {
                for sweep in sweeps {
                    let errs = stats.nb_sweep_errors(0.5, sweep, &val, metric, threads);
                    assert_eq!(errs.len(), sweep.len());
                    for (t, err) in errs.iter().enumerate() {
                        let model = stats.nb_model(0.5, &sweep.trial(t));
                        let direct = metric.eval(&model, &d, &val);
                        assert_eq!(
                            direct.to_bits(),
                            err.to_bits(),
                            "{metric:?} {sweep:?} trial {t}"
                        );
                    }
                }
            }
        }
    }

    /// Scores one row of `plan` from hand-built addends and checks every
    /// trial against the model's recipe: copy the prior, add the trial's
    /// columns in `order(t)`, take the first strict maximum. Returns the
    /// kernel's replay count.
    fn check_row(
        plan: &Plan,
        prior: &[f64],
        cols: &[&[f64]],
        order: impl Fn(usize) -> Vec<usize>,
    ) -> u64 {
        let mut scratch = RowScratch::new(plan, prior.len());
        let mut got = vec![usize::MAX; plan.n_trials()];
        let replays = plan.score_row(
            prior,
            |j| cols[j],
            &mut scratch,
            |t, class| {
                got[t] = class;
            },
        );
        for (t, &class) in got.iter().enumerate() {
            let mut scores = prior.to_vec();
            for j in order(t) {
                for (s, &l) in scores.iter_mut().zip(cols[j]) {
                    *s += l;
                }
            }
            let mut best = 0;
            for y in 1..scores.len() {
                if scores[y] > scores[best] {
                    best = y;
                }
            }
            assert_eq!(class, best, "{plan:?} trial {t}: scores {scores:?}");
        }
        replays
    }

    #[test]
    fn certification_replays_when_rounding_could_flip_the_argmax() {
        let h = f64::EPSILON / 2.0; // 2^-53, half an ulp of 1.0
        let tiny: &[f64] = &[-h, 0.0];
        // Class 0 starts at -1 and takes three -2^-53 addends. In the
        // model's order each rounds away (ties to even), so its exact
        // score stays -1. Summed first, as a suffix, they make -3·2^-53,
        // and -1 - 3·2^-53 rounds to -1 - 2^-51. Class 1 scores -1 - 2^-52
        // (strictly behind class 0) or -1 (tied; the lower index wins):
        // either way the model picks class 0 while the approximate sums
        // put class 1 ahead by 2^-52. With a zero bound the kernel would
        // return class 1.
        for class1 in [-1.0 - f64::EPSILON, -1.0] {
            let prior = [-1.0, class1];
            // Drop: columns [x, b, c, e]; dropping x leaves a three-block
            // tail scored as prefix[0] + (b + (c + e)), dropping b a
            // two-block tail. Both must replay; the rest are exact.
            let cols = [&[0.0, 0.0], tiny, tiny, tiny];
            let drop = Plan::Drop { k: 4 };
            let replays = check_row(&drop, &prior, &cols, |t| {
                (0..4).filter(|&j| j != t).collect()
            });
            assert_eq!(replays, 2, "drop, class 1 at {class1}");
            // Add: parent [b, c, e], candidate x sorting in first:
            // (prefix[0] + x) + (b + (c + e)).
            let cols = [tiny, tiny, tiny, &[0.0, 0.0]];
            let add = Plan::Add { k: 3, pos: vec![0] };
            let replays = check_row(&add, &prior, &cols, |_| vec![3, 0, 1, 2]);
            assert_eq!(replays, 1, "add, class 1 at {class1}");
        }
        // Prefixes ranked in descending feature order: the running sum
        // adds -2^-52 first and then two -2^-53 (reaching -1 - 2^-51),
        // the model the two -2^-53 first (staying at -1) and then -2^-52.
        // Class 1 ties the exact -1 - 2^-52, so class 0 must win.
        let prior = [-1.0, -1.0 - f64::EPSILON];
        let cols = [&[-f64::EPSILON, 0.0], tiny, tiny];
        let prefixes = Plan::Prefixes {
            by_feature: vec![2, 1, 0],
            ascending: 1,
        };
        let replays = check_row(&prefixes, &prior, &cols, |t| (0..=t).rev().collect());
        assert_eq!(replays, 2, "both unsorted prefixes must replay");
    }

    #[test]
    fn certified_margins_skip_the_replay() {
        // Margins far above the bound: no trial replays, and the classes
        // are still the model's.
        let prior = [-0.7, -0.9, -2.0];
        let cols: [&[f64]; 4] = [
            &[-0.1, -1.5, -0.2],
            &[-2.0, -0.3, -0.1],
            &[-0.4, -0.4, -3.0],
            &[-1.0, -0.2, -0.6],
        ];
        let drop = Plan::Drop { k: 4 };
        assert_eq!(
            check_row(&drop, &prior, &cols, |t| (0..4)
                .filter(|&j| j != t)
                .collect()),
            0
        );
        let add = Plan::Add { k: 3, pos: vec![0] };
        assert_eq!(check_row(&add, &prior, &cols, |_| vec![3, 0, 1, 2]), 0);
    }

    #[test]
    fn warm_prebuilds_every_table_and_counts_match_lazy_builds() {
        let d = data();
        // Scattered train rows: the gather kernel path.
        let train: Vec<usize> = (0..240).filter(|r| r % 7 != 2).collect();
        let warmed = SuffStats::new(&d, &train);
        warmed.warm(&[0, 1, 2], 4);
        // Warming built all three tables, one miss each.
        assert_eq!(warmed.misses.load(Ordering::Relaxed), 3);
        assert_eq!(warmed.hits.load(Ordering::Relaxed), 0);
        let lazy = SuffStats::new(&d, &train);
        for f in 0..3 {
            assert_eq!(warmed.table(f), lazy.table(f), "feature {f}");
        }
        // The warmed cache served its three reads as hits; the lazy one
        // built a table per read.
        assert_eq!(warmed.misses.load(Ordering::Relaxed), 3);
        assert_eq!(warmed.hits.load(Ordering::Relaxed), 3);
        assert_eq!(lazy.misses.load(Ordering::Relaxed), 3);
        // Warming again skips the built tables without reading them.
        let first = warmed.table(0).as_ptr();
        warmed.warm(&[0, 1, 2], 4);
        assert_eq!(warmed.misses.load(Ordering::Relaxed), 3);
        assert_eq!(warmed.hits.load(Ordering::Relaxed), 4);
        assert!(std::ptr::eq(first, warmed.table(0).as_ptr()));
        // Contiguous train rows: the gather-free kernel path, same counts.
        let contiguous: Vec<usize> = (30..210).collect();
        let fast = SuffStats::new(&d, &contiguous);
        let mut naive = vec![0u64; 2 * d.feature(1).domain_size];
        let dim = d.feature(1).domain_size;
        for &r in &contiguous {
            naive[d.labels()[r] as usize * dim + d.feature(1).codes[r] as usize] += 1;
        }
        assert_eq!(fast.table(1), naive.as_slice());
    }

    #[test]
    fn logreg_sweep_fit_matches_cold_fit_without_warm_model() {
        let d = data();
        let train: Vec<usize> = (0..200).collect();
        let stats = SuffStats::new(&d, &train);
        let lr = LogisticRegression::l2(0.05).with_seed(9);
        let cold = lr.fit(&d, &train, &[0, 1]);
        let swept = lr.fit_swept(&stats, &[0, 1], None);
        assert_eq!(cold, swept, "no warm model ⇒ identical SGD trajectory");
    }
}
