//! Reduced-scale regeneration benches: one Criterion group per paper
//! table and figure. Each bench runs the same code path as the
//! corresponding `src/bin/` regeneration binary at a miniature scale, so
//! `cargo bench` both times the harness and smoke-tests every experiment.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fieldswap_datagen::{generate, generate_paper_splits, Domain};
use fieldswap_eval::{Arm, BoxStats, Harness, HarnessOptions};

fn bench_opts(seed: u64) -> HarnessOptions {
    HarnessOptions {
        n_samples: 1,
        n_trials: 1,
        pretrain_docs: 20,
        lexicon_docs: 30,
        neighbors: 8,
        test_cap: 20,
        epochs: 2,
        synth_ratio: 1.0,
        synthetic_cap: 100,
        seed,
        jobs: 1,
        train_jobs: 1,
        quantized: false,
    }
}

fn table1(c: &mut Criterion) {
    c.bench_function("tables/table1_dataset_stats", |b| {
        b.iter(|| {
            let (pool, test) = generate_paper_splits(Domain::Fara, 1);
            black_box((pool.schema.len(), pool.len(), test.len()))
        })
    });
}

fn table2(c: &mut Criterion) {
    c.bench_function("tables/table2_field_types", |b| {
        b.iter(|| {
            let mut hists = Vec::new();
            for d in Domain::EVAL {
                hists.push(d.generator().schema().type_histogram());
            }
            black_box(hists)
        })
    });
}

fn table3(c: &mut Criterion) {
    c.bench_function("tables/table3_synthetic_counts", |b| {
        let h = Harness::new(bench_opts(3));
        b.iter(|| {
            let f2f = h.count_synthetics(Domain::Earnings, 5, Arm::AutoFieldToField);
            let t2t = h.count_synthetics(Domain::Earnings, 5, Arm::AutoTypeToType);
            black_box((f2f, t2t))
        })
    });
}

fn table4(c: &mut Criterion) {
    c.bench_function("tables/table4_rare_fields", |b| {
        let h = Harness::new(bench_opts(4));
        b.iter(|| {
            let auto = h.run_single(Domain::Earnings, 5, Arm::AutoFieldToField, 0, 0);
            let expert = h.run_single(Domain::Earnings, 5, Arm::HumanExpert, 0, 0);
            black_box((auto.per_field_f1, expert.per_field_f1))
        })
    });
}

fn fig4(c: &mut Criterion) {
    c.bench_function("figures/fig4_macro_point", |b| {
        let h = Harness::new(bench_opts(5));
        b.iter(|| {
            let base = h.run_single(Domain::Fara, 5, Arm::Baseline, 0, 0);
            let swap = h.run_single(Domain::Fara, 5, Arm::AutoTypeToType, 0, 0);
            black_box(swap.macro_f1 - base.macro_f1)
        })
    });
}

fn fig5(c: &mut Criterion) {
    c.bench_function("figures/fig5_micro_point", |b| {
        let h = Harness::new(bench_opts(6));
        b.iter(|| {
            let base = h.run_single(Domain::Fara, 5, Arm::Baseline, 0, 0);
            let swap = h.run_single(Domain::Fara, 5, Arm::AutoFieldToField, 0, 0);
            black_box(swap.micro_f1 - base.micro_f1)
        })
    });
}

fn fig6(c: &mut Criterion) {
    c.bench_function("figures/fig6_boxstats", |b| {
        let h = Harness::new(bench_opts(7));
        let base = h.run_single(Domain::Earnings, 5, Arm::Baseline, 0, 0);
        let swap = h.run_single(Domain::Earnings, 5, Arm::AutoTypeToType, 0, 0);
        b.iter(|| {
            let deltas: Vec<f64> = base
                .per_field_f1
                .iter()
                .zip(&swap.per_field_f1)
                .filter_map(|(b, s)| Some(s.as_ref()? - b.as_ref()?))
                .collect();
            black_box(BoxStats::compute(&deltas))
        })
    });
}

fn corpus_generation(c: &mut Criterion) {
    c.bench_function("tables/corpus_generation_100docs", |b| {
        let mut i = 0;
        b.iter(|| {
            i += 1;
            black_box(generate(Domain::Brokerage, i, 100).len())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = table1, table2, table3, table4, fig4, fig5, fig6, corpus_generation
}
criterion_main!(benches);
