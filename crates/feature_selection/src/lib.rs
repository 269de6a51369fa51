//! # hamlet-fs
//!
//! Feature selection methods for the SIGMOD 2016 "To Join or Not to Join?"
//! reproduction. The paper pairs each classifier with four explicit
//! methods plus the embedded L1/L2 approach (Secs 2.2, 5):
//!
//! * **wrappers** — [`forward_selection`] and [`backward_selection`]:
//!   sequential greedy search over subsets, scored by holdout validation
//!   error;
//! * **filters** — [`filter_selection`] with [`FilterScore::MutualInformation`]
//!   or [`FilterScore::InformationGainRatio`]: rank features by score,
//!   then tune the cutoff `k` on validation error "as a wrapper";
//! * **embedded** — [`embedded_l1`] / [`embedded_l2`]: L1/L2-regularized
//!   logistic regression whose vanished coefficient blocks constitute the
//!   implicit selection.
//!
//! All methods operate on index sets over a shared [`Dataset`]; nothing is
//! copied while searching, which is what makes the paper's runtime
//! comparison (JoinAll vs JoinOpt input width) meaningful.

use hamlet_ml::classifier::{Classifier, ErrorMetric};
use hamlet_ml::dataset::Dataset;
use hamlet_ml::info::{information_gain_ratio, mutual_information};
use hamlet_ml::logreg::LogisticRegression;
use hamlet_ml::suffstats::{SuffStats, Sweep, SweepFit};

/// Everything a selection method needs to score candidate subsets.
#[derive(Debug)]
pub struct SelectionContext<'a, C: Classifier> {
    /// The single-table dataset (post- or pre-join).
    pub data: &'a Dataset,
    /// Training rows.
    pub train: &'a [usize],
    /// Validation rows used for subset scoring.
    pub validation: &'a [usize],
    /// The learner to wrap.
    pub classifier: &'a C,
    /// Error metric (zero-one or RMSE per the paper's convention).
    pub metric: ErrorMetric,
}

// Manual impls: every field is a shared reference or `Copy`, and the
// derives would demand `C: Clone + Copy` for no reason.
impl<C: Classifier> Clone for SelectionContext<'_, C> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<C: Classifier> Copy for SelectionContext<'_, C> {}

impl<'a, C: Classifier> SelectionContext<'a, C> {
    /// Trains on the training rows with `feats` and returns the
    /// validation error.
    pub fn evaluate(&self, feats: &[usize]) -> f64 {
        hamlet_obs::counter_add!("hamlet_fs_evaluations_total", 1);
        let model = self.classifier.fit(self.data, self.train, feats);
        self.metric.eval(&model, self.data, self.validation)
    }
}

/// One accepted step of a greedy search, for post-hoc inspection of the
/// path a wrapper took (e.g. diagnosing the local optima Sec 5.1
/// observes for JoinAll's redundant inputs).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchStep {
    /// Feature position added (forward) or removed (backward).
    pub feature: usize,
    /// Validation error after the step.
    pub validation_error: f64,
}

/// Outcome of a feature selection run.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionResult {
    /// Selected feature positions (into the dataset), ascending.
    pub features: Vec<usize>,
    /// Validation error of the selected subset.
    pub validation_error: f64,
    /// Number of model fits performed — the unit the paper's runtime
    /// comparison counts (each fit costs time proportional to the number
    /// of candidate features).
    pub model_fits: usize,
    /// Accepted greedy steps, in order (empty for filters/embedded,
    /// whose "path" is the ranking).
    pub trace: Vec<SearchStep>,
}

impl SelectionResult {
    /// Names of the selected features.
    pub fn feature_names<'d>(&self, data: &'d Dataset) -> Vec<&'d str> {
        data.feature_names(&self.features)
    }
}

/// Minimum improvement in validation error for a greedy step to be kept.
const IMPROVEMENT_TOL: f64 = 1e-9;

/// Candidate-sweep engine: a [`SuffStats`] cache over the context's
/// `(data, train)` pair plus a worker count, shared by every selection
/// method run against the same fold.
///
/// Each greedy step's candidate sweep runs in parallel across scoped
/// threads ([`hamlet_obs::parallel::run_indexed`], following the
/// `HAMLET_THREADS` convention via
/// [`hamlet_obs::env::resolved_threads`]), then reduces **in candidate
/// index order** with exactly the serial scan's comparison chain — so
/// results, traces, and `model_fits` are bit-for-bit identical at any
/// thread count, and identical to the uncached serial implementations in
/// [`mod@reference`] for deterministic-decomposable classifiers (Naive
/// Bayes). Candidate fits warm-start from the current subset's model
/// where the classifier supports it ([`SweepFit`]); warm starts never
/// count toward `model_fits`, keeping the paper's fit accounting equal
/// to the reference path.
pub struct SweepEngine<'a, C: Classifier> {
    ctx: SelectionContext<'a, C>,
    stats: SuffStats<'a>,
    threads: usize,
}

impl<'a, C> SweepEngine<'a, C>
where
    C: SweepFit + Sync,
    C::Fitted: Sync,
{
    /// Builds the statistics cache for the context's `(data, train)`
    /// pair. Worker count comes from the once-per-process
    /// `HAMLET_THREADS` resolution.
    pub fn new(ctx: &SelectionContext<'a, C>) -> Self {
        Self {
            ctx: *ctx,
            stats: SuffStats::new(ctx.data, ctx.train),
            threads: hamlet_obs::env::resolved_threads(),
        }
    }

    /// Overrides the worker count (results do not depend on it).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker");
        self.threads = threads;
        self
    }

    /// The shared statistics cache (one per fold; reusable across
    /// methods and by final-model fits).
    pub fn stats(&self) -> &SuffStats<'a> {
        &self.stats
    }

    /// The selection context the engine sweeps over.
    pub fn context(&self) -> &SelectionContext<'a, C> {
        &self.ctx
    }

    /// Fits `feats` through the cache and returns the validation error.
    fn evaluate(&self, feats: &[usize], warm: Option<&C::Fitted>) -> f64 {
        hamlet_obs::counter_add!("hamlet_fs_evaluations_total", 1);
        let model = self.ctx.classifier.fit_swept(&self.stats, feats, warm);
        self.ctx
            .classifier
            .eval_swept(&model, self.ctx.data, self.ctx.validation, self.ctx.metric)
    }

    /// Fits the current subset as the warm-start parent of the next
    /// sweep (not counted as a candidate evaluation).
    fn fit_parent(&self, feats: &[usize]) -> C::Fitted {
        self.ctx.classifier.fit_swept(&self.stats, feats, None)
    }

    /// Validation error of an already-fitted model.
    fn eval_model(&self, model: &C::Fitted) -> f64 {
        hamlet_obs::counter_add!("hamlet_fs_evaluations_total", 1);
        self.ctx
            .classifier
            .eval_swept(model, self.ctx.data, self.ctx.validation, self.ctx.metric)
    }

    /// Errors of every trial of one sweep, in trial order: through the
    /// classifier's batched path when it has one ([`SweepFit::sweep`],
    /// one pass over the validation rows), else one fit + eval per
    /// trial across the worker pool, warm-started from `warm`. Both
    /// routes produce the same floats.
    fn sweep_errs(&self, sweep: Sweep<'_>, warm: Option<&C::Fitted>) -> Vec<f64> {
        if let Some(errs) = self.ctx.classifier.sweep(
            &self.stats,
            sweep,
            self.ctx.validation,
            self.ctx.metric,
            self.threads,
        ) {
            hamlet_obs::counter_add!("hamlet_fs_evaluations_total", errs.len() as u64);
            return errs;
        }
        hamlet_obs::parallel::run_indexed(sweep.len(), self.threads, &|t| {
            self.evaluate(&sweep.trial(t), warm)
        })
    }

    /// Greedy forward selection with parallel candidate sweeps; see
    /// [`forward_selection`].
    pub fn forward(&self, candidates: &[usize]) -> SelectionResult {
        let mut selected: Vec<usize> = Vec::new();
        let mut remaining: Vec<usize> = candidates.to_vec();
        let mut fits = 1usize;
        let mut trace: Vec<SearchStep> = Vec::new();
        let mut parent = self.fit_parent(&selected);
        let mut best_err = self.eval_model(&parent); // majority-class baseline

        loop {
            let sweep = Sweep::Add {
                parent: &selected,
                candidates: &remaining,
            };
            let errs = self.sweep_errs(sweep, Some(&parent));
            fits += errs.len();
            // Reduce in candidate index order: identical winner to the
            // serial scan regardless of which worker finished first.
            let mut best_step: Option<(usize, f64)> = None; // (position in remaining, err)
            for (i, &err) in errs.iter().enumerate() {
                if err + IMPROVEMENT_TOL < best_step.map_or(best_err, |(_, e)| e) {
                    best_step = Some((i, err));
                }
            }
            match best_step {
                Some((i, err)) if err + IMPROVEMENT_TOL < best_err => {
                    let f = remaining.swap_remove(i);
                    selected.push(f);
                    best_err = err;
                    trace.push(SearchStep {
                        feature: f,
                        validation_error: err,
                    });
                }
                _ => break,
            }
            if remaining.is_empty() {
                break;
            }
            parent = self.fit_parent(&selected);
        }

        selected.sort_unstable();
        SelectionResult {
            features: selected,
            validation_error: best_err,
            model_fits: fits,
            trace,
        }
    }

    /// Greedy backward selection with parallel candidate sweeps; see
    /// [`backward_selection`].
    pub fn backward(&self, candidates: &[usize]) -> SelectionResult {
        let mut selected: Vec<usize> = candidates.to_vec();
        selected.sort_unstable();
        let mut fits = 1usize;
        let mut trace: Vec<SearchStep> = Vec::new();
        let mut parent = self.fit_parent(&selected);
        let mut best_err = self.eval_model(&parent);

        while selected.len() > 1 {
            let errs = self.sweep_errs(Sweep::Drop { parent: &selected }, Some(&parent));
            fits += errs.len();
            let mut best_step: Option<(usize, f64)> = None;
            for (i, &err) in errs.iter().enumerate() {
                if err + IMPROVEMENT_TOL < best_step.map_or(best_err, |(_, e)| e) {
                    best_step = Some((i, err));
                }
            }
            match best_step {
                Some((i, err)) if err + IMPROVEMENT_TOL < best_err => {
                    let removed = selected.remove(i);
                    best_err = err;
                    trace.push(SearchStep {
                        feature: removed,
                        validation_error: err,
                    });
                    parent = self.fit_parent(&selected);
                }
                _ => break,
            }
        }

        SelectionResult {
            features: selected,
            validation_error: best_err,
            model_fits: fits,
            trace,
        }
    }

    /// Filter selection: ranks by cached scores, then scores every
    /// top-`k` prefix in one sweep; see [`filter_selection`].
    pub fn filter(&self, candidates: &[usize], score: FilterScore) -> SelectionResult {
        let mut ranked: Vec<(usize, f64)> = candidates
            .iter()
            .map(|&f| (f, score.score_cached(&self.stats, f)))
            .collect();
        // Descending by score; ties broken by feature position for determinism.
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));

        let order: Vec<usize> = ranked.iter().map(|&(f, _)| f).collect();
        let errs = self.sweep_errs(Sweep::Prefixes { ranked: &order }, None);
        let fits = errs.len();
        let mut best: Option<(usize, f64)> = None; // (k, err)
        for (i, &err) in errs.iter().enumerate() {
            if best.is_none_or(|(_, e)| err + IMPROVEMENT_TOL < e) {
                best = Some((i + 1, err));
            }
        }

        let (k, err) = best.unwrap_or((0, f64::INFINITY));
        let mut features = order[..k].to_vec();
        features.sort_unstable();
        SelectionResult {
            features,
            validation_error: err,
            model_fits: fits,
            trace: Vec::new(),
        }
    }

    /// Exhaustive subset search over all `2^k` masks, evaluated in
    /// parallel; see [`exhaustive_selection`].
    ///
    /// # Panics
    /// Panics if more than 20 candidates are given (2^20 fits is the
    /// sanity ceiling).
    pub fn exhaustive(&self, candidates: &[usize]) -> SelectionResult {
        assert!(
            candidates.len() <= 20,
            "exhaustive search over {} candidates is intractable",
            candidates.len()
        );
        let subset_of = |mask: usize| -> Vec<usize> {
            candidates
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask & (1 << i) != 0)
                .map(|(_, &f)| f)
                .collect()
        };
        let n_masks = 1usize << candidates.len();
        let errs = hamlet_obs::parallel::run_indexed(n_masks, self.threads, &|mask| {
            self.evaluate(&subset_of(mask), None)
        });
        // Reduce in mask order with the serial tie-break: strictly
        // better error, or equal error with fewer features.
        let mut best: Option<(usize, f64)> = None; // (mask, err)
        for (mask, &err) in errs.iter().enumerate() {
            let better = match &best {
                None => true,
                Some((b, e)) => {
                    err + IMPROVEMENT_TOL < *e
                        || ((err - e).abs() <= IMPROVEMENT_TOL
                            && mask.count_ones() < b.count_ones())
                }
            };
            if better {
                best = Some((mask, err));
            }
        }
        let (mask, validation_error) = best.expect("at least the empty subset was evaluated");
        SelectionResult {
            features: subset_of(mask),
            validation_error,
            model_fits: n_masks,
            trace: Vec::new(),
        }
    }
}

/// Sequential greedy **forward selection** (Sec 2.2): start from the empty
/// set; at each step add the candidate that most reduces validation error;
/// stop when no addition improves it.
///
/// Candidate sweeps run through a fresh [`SweepEngine`] (shared
/// statistics, parallel candidates, deterministic reduce); to reuse one
/// statistics cache across several methods on the same fold, build the
/// engine once and call its methods directly.
pub fn forward_selection<C>(ctx: &SelectionContext<'_, C>, candidates: &[usize]) -> SelectionResult
where
    C: SweepFit + Sync,
    C::Fitted: Sync,
{
    SweepEngine::new(ctx).forward(candidates)
}

/// Sequential greedy **backward selection** (Sec 2.2): start from the full
/// candidate set; at each step drop the feature whose removal most reduces
/// validation error; stop when no removal improves it.
pub fn backward_selection<C>(ctx: &SelectionContext<'_, C>, candidates: &[usize]) -> SelectionResult
where
    C: SweepFit + Sync,
    C::Fitted: Sync,
{
    SweepEngine::new(ctx).backward(candidates)
}

/// Scoring function for filter methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterScore {
    /// `I(F;Y)` — "tells us how much the knowledge of F reduces the
    /// entropy of Y" (Sec 2.2).
    MutualInformation,
    /// `IGR(F;Y) = I(F;Y)/H(F)` — "normalizes it by the feature's
    /// entropy" (Sec 2.2).
    InformationGainRatio,
}

impl FilterScore {
    /// Scores one feature against the labels over the training rows.
    pub fn score(self, data: &Dataset, train: &[usize], feat: usize) -> f64 {
        let f = data.feature(feat);
        match self {
            Self::MutualInformation => mutual_information(
                &f.codes,
                f.domain_size,
                data.labels(),
                data.n_classes(),
                train,
            ),
            Self::InformationGainRatio => information_gain_ratio(
                &f.codes,
                f.domain_size,
                data.labels(),
                data.n_classes(),
                train,
            ),
        }
    }

    /// [`FilterScore::score`] served from a [`SuffStats`] cache:
    /// bit-for-bit the same value, but the per-feature histogram and the
    /// class counts (identical across every feature scored in one filter
    /// pass) are computed once per `(fold, feature)` instead of per call.
    pub fn score_cached(self, stats: &SuffStats<'_>, feat: usize) -> f64 {
        match self {
            Self::MutualInformation => stats.mutual_information(feat),
            Self::InformationGainRatio => stats.information_gain_ratio(feat),
        }
    }

    /// Short name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            Self::MutualInformation => "MI",
            Self::InformationGainRatio => "IGR",
        }
    }
}

/// **Filter selection** (Sec 2.2): rank all candidates by `score` on the
/// training rows, then choose the top-`k` prefix whose validation error is
/// lowest ("the number of features filtered after ranking was actually
/// tuned using holdout validation as a wrapper", Sec 5.1).
pub fn filter_selection<C>(
    ctx: &SelectionContext<'_, C>,
    candidates: &[usize],
    score: FilterScore,
) -> SelectionResult
where
    C: SweepFit + Sync,
    C::Fitted: Sync,
{
    SweepEngine::new(ctx).filter(candidates, score)
}

/// **Embedded L1** (Secs 2.2, 5.3): trains L1-regularized logistic
/// regression on all candidates; the selection is the set of features
/// whose coefficient blocks did not vanish.
pub fn embedded_l1(
    data: &Dataset,
    train: &[usize],
    candidates: &[usize],
    lambda: f64,
    seed: u64,
) -> SelectionResult {
    let learner = LogisticRegression::l1(lambda).with_seed(seed);
    let model = learner.fit(data, train, candidates);
    let features = model.surviving_features(
        data,
        hamlet_ml::logreg::LogisticRegressionModel::DROP_TOLERANCE,
    );
    SelectionResult {
        features,
        validation_error: f64::NAN, // embedded methods do not hold out
        model_fits: 1,
        trace: Vec::new(),
    }
}

/// **Embedded L2**: trains L2-regularized logistic regression on all
/// candidates. L2 shrinks but does not vanish coefficients, so all
/// candidates survive; the regularization is the implicit selection.
pub fn embedded_l2(
    data: &Dataset,
    train: &[usize],
    candidates: &[usize],
    lambda: f64,
    seed: u64,
) -> SelectionResult {
    let learner = LogisticRegression::l2(lambda).with_seed(seed);
    let _model = learner.fit(data, train, candidates);
    SelectionResult {
        features: candidates.to_vec(),
        validation_error: f64::NAN,
        model_fits: 1,
        trace: Vec::new(),
    }
}

/// The paper's four explicit feature-selection methods (Sec 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Sequential greedy forward selection.
    Forward,
    /// Sequential greedy backward selection.
    Backward,
    /// Mutual-information filter with tuned cutoff.
    FilterMi,
    /// Information-gain-ratio filter with tuned cutoff.
    FilterIgr,
}

impl Method {
    /// All four methods, in the paper's presentation order.
    pub const ALL: [Method; 4] = [
        Method::Forward,
        Method::Backward,
        Method::FilterMi,
        Method::FilterIgr,
    ];

    /// Runs the method through a fresh [`SweepEngine`]. Callers running
    /// several methods over the same fold should build one engine and
    /// use [`Method::run_with`] so the statistics cache is shared.
    pub fn run<C>(self, ctx: &SelectionContext<'_, C>, candidates: &[usize]) -> SelectionResult
    where
        C: SweepFit + Sync,
        C::Fitted: Sync,
    {
        self.run_with(&SweepEngine::new(ctx), candidates)
    }

    /// Runs the method on an existing engine (shared statistics cache).
    pub fn run_with<C>(self, engine: &SweepEngine<'_, C>, candidates: &[usize]) -> SelectionResult
    where
        C: SweepFit + Sync,
        C::Fitted: Sync,
    {
        let _span = hamlet_obs::span!(
            "fs.method",
            name = self.name(),
            candidates = candidates.len()
        );
        match self {
            Method::Forward => engine.forward(candidates),
            Method::Backward => engine.backward(candidates),
            Method::FilterMi => engine.filter(candidates, FilterScore::MutualInformation),
            Method::FilterIgr => engine.filter(candidates, FilterScore::InformationGainRatio),
        }
    }

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Method::Forward => "Forward Selection",
            Method::Backward => "Backward Selection",
            Method::FilterMi => "MI Filter",
            Method::FilterIgr => "IGR Filter",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_ml::dataset::Feature;
    use hamlet_ml::naive_bayes::NaiveBayes;

    /// y determined by feature 0; features 1, 2 are noise with large
    /// domains.
    fn data() -> Dataset {
        let n = 400u32;
        let x0: Vec<u32> = (0..n).map(|i| i % 2).collect();
        let noise1: Vec<u32> = (0..n).map(|i| (i * 7 + 3) % 5).collect();
        let noise2: Vec<u32> = (0..n).map(|i| (i * 13 + 1) % 4).collect();
        let y = x0.clone();
        Dataset::new(
            vec![
                Feature {
                    name: "signal".into(),
                    domain_size: 2,
                    codes: x0,
                },
                Feature {
                    name: "noise1".into(),
                    domain_size: 5,
                    codes: noise1,
                },
                Feature {
                    name: "noise2".into(),
                    domain_size: 4,
                    codes: noise2,
                },
            ],
            y,
            2,
        )
    }

    fn ctx<'a>(
        d: &'a Dataset,
        nb: &'a NaiveBayes,
        rows: &'a [usize],
    ) -> SelectionContext<'a, NaiveBayes> {
        let half = rows.len() / 2;
        SelectionContext {
            data: d,
            train: &rows[..half],
            validation: &rows[half..],
            classifier: nb,
            metric: ErrorMetric::ZeroOne,
        }
    }

    #[test]
    fn forward_finds_signal() {
        let d = data();
        let nb = NaiveBayes::default();
        let rows: Vec<usize> = (0..400).collect();
        let c = ctx(&d, &nb, &rows);
        let r = forward_selection(&c, &[0, 1, 2]);
        assert!(r.features.contains(&0));
        assert_eq!(r.validation_error, 0.0);
        assert!(r.model_fits >= 4); // baseline + at least one sweep
    }

    #[test]
    fn forward_stops_when_no_improvement() {
        let d = data();
        let nb = NaiveBayes::default();
        let rows: Vec<usize> = (0..400).collect();
        let c = ctx(&d, &nb, &rows);
        let r = forward_selection(&c, &[0, 1, 2]);
        // Once the signal yields zero error, noise cannot improve further.
        assert_eq!(r.features, vec![0]);
    }

    #[test]
    fn backward_keeps_signal() {
        let d = data();
        let nb = NaiveBayes::default();
        let rows: Vec<usize> = (0..400).collect();
        let c = ctx(&d, &nb, &rows);
        let r = backward_selection(&c, &[0, 1, 2]);
        assert!(r.features.contains(&0));
        assert_eq!(r.validation_error, 0.0);
    }

    #[test]
    fn filters_rank_signal_first() {
        let d = data();
        let nb = NaiveBayes::default();
        let rows: Vec<usize> = (0..400).collect();
        let c = ctx(&d, &nb, &rows);
        for score in [
            FilterScore::MutualInformation,
            FilterScore::InformationGainRatio,
        ] {
            let r = filter_selection(&c, &[0, 1, 2], score);
            assert!(r.features.contains(&0), "{score:?} missed the signal");
            assert_eq!(r.validation_error, 0.0);
            assert_eq!(r.model_fits, 3); // one fit per candidate prefix
        }
    }

    #[test]
    fn filter_scores_ordering() {
        let d = data();
        let rows: Vec<usize> = (0..400).collect();
        let mi_signal = FilterScore::MutualInformation.score(&d, &rows, 0);
        let mi_noise = FilterScore::MutualInformation.score(&d, &rows, 1);
        assert!(mi_signal > mi_noise);
    }

    #[test]
    fn embedded_l1_drops_noise() {
        let d = data();
        let rows: Vec<usize> = (0..400).collect();
        let r = embedded_l1(&d, &rows, &[0, 1, 2], 0.02, 0);
        assert!(r.features.contains(&0));
        assert!(!r.features.contains(&1));
        assert!(!r.features.contains(&2));
    }

    #[test]
    fn embedded_l2_keeps_all() {
        let d = data();
        let rows: Vec<usize> = (0..400).collect();
        let r = embedded_l2(&d, &rows, &[0, 1, 2], 0.01, 0);
        assert_eq!(r.features, vec![0, 1, 2]);
    }

    #[test]
    fn method_dispatch_matches_direct_calls() {
        let d = data();
        let nb = NaiveBayes::default();
        let rows: Vec<usize> = (0..400).collect();
        let c = ctx(&d, &nb, &rows);
        let cands = [0usize, 1, 2];
        assert_eq!(
            Method::Forward.run(&c, &cands),
            forward_selection(&c, &cands)
        );
        assert_eq!(
            Method::FilterMi.run(&c, &cands),
            filter_selection(&c, &cands, FilterScore::MutualInformation)
        );
        assert_eq!(Method::ALL.len(), 4);
        assert_eq!(Method::Backward.name(), "Backward Selection");
    }

    #[test]
    fn result_feature_names() {
        let d = data();
        let r = SelectionResult {
            features: vec![0, 2],
            validation_error: 0.0,
            model_fits: 1,
            trace: Vec::new(),
        };
        assert_eq!(r.feature_names(&d), vec!["signal", "noise2"]);
    }

    #[test]
    fn empty_candidates_forward() {
        let d = data();
        let nb = NaiveBayes::default();
        let rows: Vec<usize> = (0..400).collect();
        let c = ctx(&d, &nb, &rows);
        let r = forward_selection(&c, &[]);
        assert!(r.features.is_empty());
        assert_eq!(r.model_fits, 1);
    }

    #[test]
    fn cart_sweeps_match_reference_and_are_thread_invariant() {
        // Trees ride the engine through their `SweepFit` impl (a
        // SuffStats-backed root table); the result must equal the
        // uncached serial reference and be identical at any thread
        // count.
        let d = data();
        let tree = hamlet_trees::CartTree::default();
        let rows: Vec<usize> = (0..400).collect();
        let half = rows.len() / 2;
        let c = SelectionContext {
            data: &d,
            train: &rows[..half],
            validation: &rows[half..],
            classifier: &tree,
            metric: ErrorMetric::ZeroOne,
        };
        let cands = [0usize, 1, 2];
        let serial = SweepEngine::new(&c).with_threads(1);
        let wide = SweepEngine::new(&c).with_threads(8);
        for (lhs, rhs, oracle) in [
            (
                serial.forward(&cands),
                wide.forward(&cands),
                reference::forward_selection(&c, &cands),
            ),
            (
                serial.backward(&cands),
                wide.backward(&cands),
                reference::backward_selection(&c, &cands),
            ),
        ] {
            assert_eq!(lhs, rhs, "thread-count changed a tree sweep");
            assert_eq!(lhs, oracle, "engine diverged from the reference");
        }
        assert!(serial.forward(&cands).features.contains(&0));
    }

    #[test]
    fn gbt_forward_selection_runs_through_engine() {
        let d = data();
        let gbt = hamlet_trees::Gbt {
            rounds: 5,
            ..hamlet_trees::Gbt::default()
        };
        let rows: Vec<usize> = (0..400).collect();
        let half = rows.len() / 2;
        let c = SelectionContext {
            data: &d,
            train: &rows[..half],
            validation: &rows[half..],
            classifier: &gbt,
            metric: ErrorMetric::ZeroOne,
        };
        let cands = [0usize, 1, 2];
        let r = SweepEngine::new(&c).with_threads(4).forward(&cands);
        assert_eq!(r, reference::forward_selection(&c, &cands));
        assert!(r.features.contains(&0));
        assert_eq!(r.validation_error, 0.0);
    }
}

/// Schema-driven pre-filtering of redundant features.
///
/// The paper's key observation generalized (Cor C.1): given an acyclic
/// set of FDs over the candidate features, every feature appearing in a
/// dependent set is *provably* redundant — it can be dropped before any
/// instance-level search, "using just the metadata". Join avoidance is
/// the special case where the FDs are `FK_i -> X_Ri`.
pub mod fd_prefilter {
    use hamlet_ml::dataset::Dataset;
    use hamlet_relational::fd::{is_acyclic, redundant_attributes, FunctionalDependency};

    /// Outcome of the pre-filter.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct PrefilterResult {
        /// Candidate positions that survive (determinants and
        /// FD-untouched features).
        pub kept: Vec<usize>,
        /// Candidate positions dropped as FD-redundant.
        pub dropped: Vec<usize>,
    }

    /// Drops every candidate that is a dependent of some FD in `fds`.
    ///
    /// # Panics
    /// Panics if `fds` is cyclic — redundancy of dependents is only
    /// guaranteed for acyclic sets (Def C.1).
    pub fn prefilter(
        data: &Dataset,
        candidates: &[usize],
        fds: &[FunctionalDependency],
    ) -> PrefilterResult {
        assert!(is_acyclic(fds), "FD set must be acyclic (Def C.1)");
        let redundant = redundant_attributes(fds);
        let mut kept = Vec::new();
        let mut dropped = Vec::new();
        for &c in candidates {
            if redundant.iter().any(|r| r == &data.feature(c).name) {
                dropped.push(c);
            } else {
                kept.push(c);
            }
        }
        PrefilterResult { kept, dropped }
    }
}

#[cfg(test)]
mod fd_prefilter_tests {
    use super::fd_prefilter::prefilter;
    use super::*;
    use hamlet_ml::dataset::Feature;
    use hamlet_ml::naive_bayes::NaiveBayes;
    use hamlet_relational::fd::FunctionalDependency;

    /// fk determines xr; y depends on xr (so on fk too).
    fn fd_data() -> Dataset {
        let n = 240u32;
        let fk: Vec<u32> = (0..n).map(|i| i % 12).collect();
        let xr: Vec<u32> = fk.iter().map(|&k| k % 3).collect();
        let y: Vec<u32> = xr.iter().map(|&v| u32::from(v == 0)).collect();
        Dataset::new(
            vec![
                Feature {
                    name: "fk".into(),
                    domain_size: 12,
                    codes: fk,
                },
                Feature {
                    name: "xr".into(),
                    domain_size: 3,
                    codes: xr,
                },
                Feature {
                    name: "noise".into(),
                    domain_size: 2,
                    codes: (0..n).map(|i| (i / 2) % 2).collect(),
                },
            ],
            y,
            2,
        )
    }

    #[test]
    fn prefilter_drops_dependents_only() {
        let d = fd_data();
        let fds = vec![FunctionalDependency::new(&["fk"], &["xr"])];
        let r = prefilter(&d, &[0, 1, 2], &fds);
        assert_eq!(r.kept, vec![0, 2]);
        assert_eq!(r.dropped, vec![1]);
    }

    #[test]
    fn prefiltered_search_matches_full_search_accuracy() {
        let d = fd_data();
        let nb = NaiveBayes::default();
        let rows: Vec<usize> = (0..240).collect();
        let half = rows.len() / 2;
        let ctx = SelectionContext {
            data: &d,
            train: &rows[..half],
            validation: &rows[half..],
            classifier: &nb,
            metric: ErrorMetric::ZeroOne,
        };
        let fds = vec![FunctionalDependency::new(&["fk"], &["xr"])];
        let pre = prefilter(&d, &[0, 1, 2], &fds);
        let full = forward_selection(&ctx, &[0, 1, 2]);
        let filtered = forward_selection(&ctx, &pre.kept);
        // The information-theoretic guarantee: dropping dependents cannot
        // cost validation accuracy (fk subsumes xr).
        assert!(filtered.validation_error <= full.validation_error + 1e-12);
        // And the filtered search does no more work.
        assert!(filtered.model_fits <= full.model_fits);
    }

    #[test]
    #[should_panic(expected = "acyclic")]
    fn cyclic_fds_panic() {
        let d = fd_data();
        let fds = vec![
            FunctionalDependency::new(&["fk"], &["xr"]),
            FunctionalDependency::new(&["xr"], &["fk"]),
        ];
        prefilter(&d, &[0, 1], &fds);
    }
}

/// **Exhaustive selection**: evaluates every subset of the candidates and
/// returns the validation-optimal one. Exponential — intended for small
/// candidate sets, as the gold standard the greedy wrappers approximate
/// ("these feature selection methods are not globally optimal", Sec 5.1).
///
/// # Panics
/// Panics if more than 20 candidates are given (2^20 fits is the sanity
/// ceiling).
pub fn exhaustive_selection<C>(
    ctx: &SelectionContext<'_, C>,
    candidates: &[usize],
) -> SelectionResult
where
    C: SweepFit + Sync,
    C::Fitted: Sync,
{
    SweepEngine::new(ctx).exhaustive(candidates)
}

/// The seed implementations: serial scans, one full `classifier.fit`
/// per candidate, no statistics cache, no warm starts.
///
/// Kept as the semantics oracle for the [`SweepEngine`] paths — the
/// parity proptests assert that every engine-backed method returns the
/// **identical** [`SelectionResult`] (features, errors, trace, and
/// `model_fits`) for Naive Bayes at any thread count — and as the
/// "uncached" arm of `BENCH_selection.json`.
pub mod reference {
    use super::*;

    /// Serial, uncached [`forward_selection`](super::forward_selection).
    pub fn forward_selection<C: Classifier>(
        ctx: &SelectionContext<'_, C>,
        candidates: &[usize],
    ) -> SelectionResult {
        let mut selected: Vec<usize> = Vec::new();
        let mut remaining: Vec<usize> = candidates.to_vec();
        let mut fits = 1usize;
        let mut trace: Vec<SearchStep> = Vec::new();
        let mut best_err = ctx.evaluate(&selected); // majority-class baseline

        loop {
            let mut best_step: Option<(usize, f64)> = None; // (position in remaining, err)
            for (i, &f) in remaining.iter().enumerate() {
                let mut trial = selected.clone();
                trial.push(f);
                trial.sort_unstable();
                let err = ctx.evaluate(&trial);
                fits += 1;
                if err + IMPROVEMENT_TOL < best_step.map_or(best_err, |(_, e)| e) {
                    best_step = Some((i, err));
                }
            }
            match best_step {
                Some((i, err)) if err + IMPROVEMENT_TOL < best_err => {
                    let f = remaining.swap_remove(i);
                    selected.push(f);
                    best_err = err;
                    trace.push(SearchStep {
                        feature: f,
                        validation_error: err,
                    });
                }
                _ => break,
            }
            if remaining.is_empty() {
                break;
            }
        }

        selected.sort_unstable();
        SelectionResult {
            features: selected,
            validation_error: best_err,
            model_fits: fits,
            trace,
        }
    }

    /// Serial, uncached [`backward_selection`](super::backward_selection).
    pub fn backward_selection<C: Classifier>(
        ctx: &SelectionContext<'_, C>,
        candidates: &[usize],
    ) -> SelectionResult {
        let mut selected: Vec<usize> = candidates.to_vec();
        selected.sort_unstable();
        let mut fits = 1usize;
        let mut trace: Vec<SearchStep> = Vec::new();
        let mut best_err = ctx.evaluate(&selected);

        while selected.len() > 1 {
            let mut best_step: Option<(usize, f64)> = None;
            for i in 0..selected.len() {
                let mut trial = selected.clone();
                trial.remove(i);
                let err = ctx.evaluate(&trial);
                fits += 1;
                if err + IMPROVEMENT_TOL < best_step.map_or(best_err, |(_, e)| e) {
                    best_step = Some((i, err));
                }
            }
            match best_step {
                Some((i, err)) if err + IMPROVEMENT_TOL < best_err => {
                    let removed = selected.remove(i);
                    best_err = err;
                    trace.push(SearchStep {
                        feature: removed,
                        validation_error: err,
                    });
                }
                _ => break,
            }
        }

        SelectionResult {
            features: selected,
            validation_error: best_err,
            model_fits: fits,
            trace,
        }
    }

    /// Serial, uncached [`filter_selection`](super::filter_selection):
    /// recomputes each feature's histogram (and the class counts) per
    /// score call.
    pub fn filter_selection<C: Classifier>(
        ctx: &SelectionContext<'_, C>,
        candidates: &[usize],
        score: FilterScore,
    ) -> SelectionResult {
        let mut ranked: Vec<(usize, f64)> = candidates
            .iter()
            .map(|&f| (f, score.score(ctx.data, ctx.train, f)))
            .collect();
        // Descending by score; ties broken by feature position for determinism.
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));

        let mut fits = 0usize;
        let mut best: Option<(usize, f64)> = None; // (k, err)
        for k in 1..=ranked.len() {
            let mut prefix: Vec<usize> = ranked[..k].iter().map(|&(f, _)| f).collect();
            prefix.sort_unstable();
            let err = ctx.evaluate(&prefix);
            fits += 1;
            if best.is_none_or(|(_, e)| err + IMPROVEMENT_TOL < e) {
                best = Some((k, err));
            }
        }

        let (k, err) = best.unwrap_or((0, f64::INFINITY));
        let mut features: Vec<usize> = ranked[..k].iter().map(|&(f, _)| f).collect();
        features.sort_unstable();
        SelectionResult {
            features,
            validation_error: err,
            model_fits: fits,
            trace: Vec::new(),
        }
    }

    /// Serial, uncached [`exhaustive_selection`](super::exhaustive_selection).
    ///
    /// # Panics
    /// Panics if more than 20 candidates are given.
    pub fn exhaustive_selection<C: Classifier>(
        ctx: &SelectionContext<'_, C>,
        candidates: &[usize],
    ) -> SelectionResult {
        assert!(
            candidates.len() <= 20,
            "exhaustive search over {} candidates is intractable",
            candidates.len()
        );
        let mut best: Option<(Vec<usize>, f64)> = None;
        let mut fits = 0usize;
        for mask in 0u32..(1 << candidates.len()) {
            let subset: Vec<usize> = candidates
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask & (1 << i) != 0)
                .map(|(_, &f)| f)
                .collect();
            let err = ctx.evaluate(&subset);
            fits += 1;
            let better = match &best {
                None => true,
                // Strictly better error, or equal error with fewer features
                // (prefer parsimony, deterministic tie-break).
                Some((b, e)) => {
                    err + IMPROVEMENT_TOL < *e
                        || ((err - e).abs() <= IMPROVEMENT_TOL && subset.len() < b.len())
                }
            };
            if better {
                best = Some((subset, err));
            }
        }
        let (features, validation_error) = best.expect("at least the empty subset was evaluated");
        SelectionResult {
            features,
            validation_error,
            model_fits: fits,
            trace: Vec::new(),
        }
    }

    /// Runs `method` through the serial, uncached implementations.
    pub fn run_method<C: Classifier>(
        method: Method,
        ctx: &SelectionContext<'_, C>,
        candidates: &[usize],
    ) -> SelectionResult {
        match method {
            Method::Forward => forward_selection(ctx, candidates),
            Method::Backward => backward_selection(ctx, candidates),
            Method::FilterMi => filter_selection(ctx, candidates, FilterScore::MutualInformation),
            Method::FilterIgr => {
                filter_selection(ctx, candidates, FilterScore::InformationGainRatio)
            }
        }
    }
}

#[cfg(test)]
mod exhaustive_tests {
    use super::*;
    use hamlet_ml::dataset::Feature;
    use hamlet_ml::naive_bayes::NaiveBayes;

    /// y = x0 XOR x1: forward selection cannot get started (neither
    /// feature helps alone) but exhaustive search finds the pair.
    /// (NB cannot represent XOR of two features either, so we add the
    /// XOR itself as a third "interaction" candidate; the point is the
    /// search behaviour, not the model class.)
    fn xor_with_interaction(n: usize) -> Dataset {
        let x0: Vec<u32> = (0..n as u32).map(|i| i % 2).collect();
        let x1: Vec<u32> = (0..n as u32).map(|i| (i / 2) % 2).collect();
        let inter: Vec<u32> = x0.iter().zip(&x1).map(|(&a, &b)| a * 2 + b).collect();
        let y: Vec<u32> = x0.iter().zip(&x1).map(|(&a, &b)| a ^ b).collect();
        Dataset::new(
            vec![
                Feature {
                    name: "x0".into(),
                    domain_size: 2,
                    codes: x0,
                },
                Feature {
                    name: "x1".into(),
                    domain_size: 2,
                    codes: x1,
                },
                Feature {
                    name: "pair".into(),
                    domain_size: 4,
                    codes: inter,
                },
            ],
            y,
            2,
        )
    }

    #[test]
    fn exhaustive_finds_global_optimum() {
        let d = xor_with_interaction(200);
        let nb = NaiveBayes::default();
        let rows: Vec<usize> = (0..200).collect();
        let ctx = SelectionContext {
            data: &d,
            train: &rows[..100],
            validation: &rows[100..],
            classifier: &nb,
            metric: ErrorMetric::ZeroOne,
        };
        let ex = exhaustive_selection(&ctx, &[0, 1, 2]);
        assert_eq!(ex.validation_error, 0.0);
        assert!(
            ex.features.contains(&2),
            "pair feature solves it: {:?}",
            ex.features
        );
        assert_eq!(ex.model_fits, 8);
        // Exhaustive is never worse than the greedy wrappers.
        let fwd = forward_selection(&ctx, &[0, 1, 2]);
        let bwd = backward_selection(&ctx, &[0, 1, 2]);
        assert!(ex.validation_error <= fwd.validation_error + 1e-12);
        assert!(ex.validation_error <= bwd.validation_error + 1e-12);
    }

    #[test]
    fn prefers_smaller_subsets_on_ties() {
        let d = xor_with_interaction(200);
        let nb = NaiveBayes::default();
        let rows: Vec<usize> = (0..200).collect();
        let ctx = SelectionContext {
            data: &d,
            train: &rows[..100],
            validation: &rows[100..],
            classifier: &nb,
            metric: ErrorMetric::ZeroOne,
        };
        let ex = exhaustive_selection(&ctx, &[0, 1, 2]);
        // {pair} alone reaches zero error; supersets tie but lose.
        assert_eq!(ex.features, vec![2]);
    }

    #[test]
    #[should_panic(expected = "intractable")]
    fn too_many_candidates_panics() {
        let d = xor_with_interaction(8);
        let nb = NaiveBayes::default();
        let rows: Vec<usize> = (0..8).collect();
        let ctx = SelectionContext {
            data: &d,
            train: &rows[..4],
            validation: &rows[4..],
            classifier: &nb,
            metric: ErrorMetric::ZeroOne,
        };
        let candidates: Vec<usize> = (0..21).collect();
        exhaustive_selection(&ctx, &candidates);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use hamlet_ml::dataset::Feature;
    use hamlet_ml::naive_bayes::NaiveBayes;

    #[test]
    fn forward_trace_records_accepted_steps() {
        let n = 400u32;
        // y = x0 exactly; x1 is a noisy copy. Forward selection must
        // accept at least the exact feature, and the trace mirrors the
        // accepted path.
        let x0: Vec<u32> = (0..n).map(|i| i % 2).collect();
        let x1: Vec<u32> = x0
            .iter()
            .enumerate()
            .map(|(i, &v)| if i % 10 == 0 { 1 - v } else { v })
            .collect();
        let y: Vec<u32> = x0.clone();
        let d = Dataset::new(
            vec![
                Feature {
                    name: "x0".into(),
                    domain_size: 2,
                    codes: x0,
                },
                Feature {
                    name: "x1".into(),
                    domain_size: 2,
                    codes: x1,
                },
            ],
            y,
            2,
        );
        let nb = NaiveBayes::default();
        let rows: Vec<usize> = (0..n as usize).collect();
        let ctx = SelectionContext {
            data: &d,
            train: &rows[..200],
            validation: &rows[200..],
            classifier: &nb,
            metric: ErrorMetric::ZeroOne,
        };
        let r = forward_selection(&ctx, &[0, 1]);
        assert_eq!(r.trace.len(), r.features.len());
        // Errors along the trace are non-increasing.
        for w in r.trace.windows(2) {
            assert!(w[1].validation_error <= w[0].validation_error + 1e-12);
        }
        // The last trace error equals the reported validation error.
        assert_eq!(r.trace.last().unwrap().validation_error, r.validation_error);
    }

    #[test]
    fn backward_trace_lists_removals() {
        let n = 400u32;
        let signal: Vec<u32> = (0..n).map(|i| i % 2).collect();
        let noise: Vec<u32> = (0..n).map(|i| (i * 13) % 7).collect();
        let d = Dataset::new(
            vec![
                Feature {
                    name: "s".into(),
                    domain_size: 2,
                    codes: signal.clone(),
                },
                Feature {
                    name: "noise".into(),
                    domain_size: 7,
                    codes: noise,
                },
            ],
            signal,
            2,
        );
        let nb = NaiveBayes::default();
        let rows: Vec<usize> = (0..n as usize).collect();
        let ctx = SelectionContext {
            data: &d,
            train: &rows[..200],
            validation: &rows[200..],
            classifier: &nb,
            metric: ErrorMetric::ZeroOne,
        };
        let r = backward_selection(&ctx, &[0, 1]);
        for step in &r.trace {
            assert!(
                !r.features.contains(&step.feature),
                "removed feature still selected"
            );
        }
    }
}
