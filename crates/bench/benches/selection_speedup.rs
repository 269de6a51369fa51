//! The sufficient-statistics engine's speedup claim: the four selection
//! methods with Naive Bayes, seed path (serial, one full row-scanning
//! fit per candidate subset) vs [`hamlet_fs::SweepEngine`] (cached count
//! tables, batched sweeps with certified O(k) scoring per row).
//!
//! Two JoinAll inputs: Walmart (14 features, short sweep tails) and
//! Yelp (40 features, where replaying each trial's tail would cost
//! O(k²) per row). Besides the criterion groups (bench scale, so
//! iterations stay tight), a release run self-times every method at
//! Fig-7 scale with `Instant` and emits `BENCH_selection.json` at the
//! repo root: wall-clock per dataset × method × {uncached serial,
//! cached serial, cached parallel} plus the headline speedup. `HAMLET_BENCH_QUICK=1` drops the emission to bench
//! scale with fewer reps (the CI smoke mode); emission is skipped under
//! `--test` (the shim runs bench bodies once, which would record
//! nonsense timings).

use std::path::Path;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use hamlet_bench::{walmart, yelp, BENCH_SEED};
use hamlet_core::planner::{plan, PlanKind};
use hamlet_core::rules::TrRule;
use hamlet_datagen::realistic::{DatasetSpec, GeneratedDataset};
use hamlet_experiments::{prepare_plan, PreparedPlan};
use hamlet_fs::{reference, Method, SelectionContext, SelectionResult, SweepEngine};
use hamlet_ml::naive_bayes::NaiveBayes;
use hamlet_obs::atomic_write;

/// JoinAll: the widest input (entity features + every FK + every
/// attribute table), i.e. the shape where candidate sweeps are most
/// expensive.
fn prepared_join_all(g: &GeneratedDataset) -> PreparedPlan {
    let n_train = g.star.n_s() / 2;
    let p = plan(&g.star, PlanKind::JoinAll, &TrRule::default(), n_train);
    prepare_plan(&g.star, p, BENCH_SEED).expect("synthetic star materializes")
}

fn ctx_of<'a>(p: &'a PreparedPlan, nb: &'a NaiveBayes) -> SelectionContext<'a, NaiveBayes> {
    SelectionContext {
        data: &p.data,
        train: &p.split.train,
        validation: &p.split.validation,
        classifier: nb,
        metric: p.metric,
    }
}

fn bench_selection_speedup(c: &mut Criterion) {
    let nb = NaiveBayes::default();
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut group = c.benchmark_group("selection_speedup");
    group.sample_size(10);
    for (name, g) in [("walmart", walmart()), ("yelp", yelp())] {
        let prepared = prepared_join_all(&g);
        let candidates: Vec<usize> = (0..prepared.data.n_features()).collect();
        let ctx = ctx_of(&prepared, &nb);
        for method in Method::ALL {
            let id = format!("{name}_{}", method.name());
            group.bench_function(format!("{id}_uncached_serial"), |b| {
                b.iter(|| black_box(reference::run_method(method, &ctx, &candidates)))
            });
            group.bench_function(format!("{id}_cached_serial"), |b| {
                b.iter(|| {
                    let engine = SweepEngine::new(&ctx).with_threads(1);
                    black_box(method.run_with(&engine, &candidates))
                })
            });
            group.bench_function(format!("{id}_cached_parallel"), |b| {
                b.iter(|| {
                    let engine = SweepEngine::new(&ctx).with_threads(threads);
                    black_box(method.run_with(&engine, &candidates))
                })
            });
        }
    }
    group.finish();
}

/// Median-of-runs wall-clock of `f`, in seconds, returning the last
/// result so the arms can be cross-checked for equality.
fn time_secs<F: FnMut() -> SelectionResult>(mut f: F, reps: usize) -> (f64, SelectionResult) {
    let mut out = None;
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            out = Some(black_box(f()));
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    (
        samples[samples.len() / 2],
        out.expect("at least one reptition ran"),
    )
}

/// Emit BENCH_selection.json at the repo root (hand-rolled JSON,
/// matching the other BENCH_*.json emitters).
fn emit_summary() {
    let quick = std::env::var("HAMLET_BENCH_QUICK").is_ok_and(|v| v == "1");
    // Fig-7 scale (HAMLET_SCALE default 0.1) for the committed numbers;
    // bench scale for the CI smoke run.
    let (scale, reps) = if quick { (0.01, 3) } else { (0.1, 3) };
    let nb = NaiveBayes::default();
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let mut entries = Vec::new();
    for spec in [DatasetSpec::walmart(), DatasetSpec::yelp()] {
        let prepared = prepared_join_all(&spec.generate(scale, BENCH_SEED));
        let ctx = ctx_of(&prepared, &nb);
        let candidates: Vec<usize> = (0..prepared.data.n_features()).collect();
        for method in Method::ALL {
            let (uncached_s, r_uncached) =
                time_secs(|| reference::run_method(method, &ctx, &candidates), reps);
            let (cached_serial_s, r_serial) = time_secs(
                || {
                    let engine = SweepEngine::new(&ctx).with_threads(1);
                    method.run_with(&engine, &candidates)
                },
                reps,
            );
            let (cached_parallel_s, r_parallel) = time_secs(
                || {
                    let engine = SweepEngine::new(&ctx).with_threads(threads);
                    method.run_with(&engine, &candidates)
                },
                reps,
            );
            assert_eq!(
                r_uncached,
                r_serial,
                "{} {}: cached path diverged",
                spec.name,
                method.name()
            );
            assert_eq!(
                r_uncached,
                r_parallel,
                "{} {}: parallel path diverged",
                spec.name,
                method.name()
            );
            entries.push(format!(
                "  {{\"dataset\": \"{} (scale {scale}, JoinAll)\", \"method\": \"{}\", \
                 \"candidates\": {}, \"n_train\": {}, \"model_fits\": {}, \
                 \"uncached_serial_s\": {:.4}, \"cached_serial_s\": {:.4}, \
                 \"cached_parallel_s\": {:.4}, \"speedup_cached_parallel\": {:.2}}}",
                spec.name,
                method.name(),
                candidates.len(),
                prepared.split.train.len(),
                r_uncached.model_fits,
                uncached_s,
                cached_serial_s,
                cached_parallel_s,
                uncached_s / cached_parallel_s,
            ));
        }
    }
    let doc = format!(
        "{{\n\"bench\": \"selection\",\n\
         \"classifier\": \"NaiveBayes\",\n\"model_family\": \"naive_bayes\",\n\
         \"threads\": {threads},\n\"results\": [\n{}\n]\n}}\n",
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_selection.json");
    if let Err(e) = atomic_write(Path::new(path), doc.as_bytes()) {
        eprintln!("BENCH_selection.json not written: {e}");
    } else {
        eprintln!("wrote {path}");
    }
}

fn bench_selection_and_emit(c: &mut Criterion) {
    bench_selection_speedup(c);
    if !std::env::args().any(|a| a == "--test") {
        emit_summary();
    }
}

criterion_group!(benches, bench_selection_and_emit);
criterion_main!(benches);
