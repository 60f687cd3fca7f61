//! Component micro-benchmarks: the hot paths of every subsystem.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fieldswap_core::{augment_document, find_phrase_matches, FieldSwapConfig, PairStrategy};
use fieldswap_datagen::{generate, Domain};
use fieldswap_extract::{Extractor, InferScratch, Lexicon, TrainConfig};
use fieldswap_keyphrase::{ImportanceModel, ModelConfig};
use fieldswap_nn::sparsemax;
use fieldswap_ocr::LineDetector;

fn bench_geometry(c: &mut Criterion) {
    use fieldswap_docmodel::{off_axis_distance, Point};
    let pts: Vec<Point> = (0..256)
        .map(|i| Point::new((i * 37 % 1000) as f32, (i * 91 % 1400) as f32))
        .collect();
    c.bench_function("geometry/off_axis_256", |b| {
        b.iter(|| {
            let anchor = Point::new(500.0, 700.0);
            let mut sum = 0.0f32;
            for p in &pts {
                sum += off_axis_distance(anchor, *p);
            }
            black_box(sum)
        })
    });
}

fn bench_sparsemax(c: &mut Criterion) {
    let scores: Vec<f32> = (0..100)
        .map(|i| ((i * 37 % 100) as f32) / 50.0 - 1.0)
        .collect();
    c.bench_function("nn/sparsemax_100", |b| {
        b.iter(|| black_box(sparsemax(&scores)))
    });
}

fn bench_line_detection(c: &mut Criterion) {
    let corpus = generate(Domain::LoanPayments, 1, 4);
    let doc = corpus.documents[0].clone();
    let det = LineDetector::default();
    c.bench_function("ocr/line_detection", |b| {
        b.iter(|| black_box(det.detect(&doc)))
    });
}

fn bench_datagen(c: &mut Criterion) {
    c.bench_function("datagen/earnings_doc", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(generate(Domain::Earnings, i, 1))
        })
    });
}

fn oracle_config(domain: Domain, schema: &fieldswap_docmodel::Schema) -> FieldSwapConfig {
    let mut config = FieldSwapConfig::new(schema.len());
    for (name, phrases) in domain.generator().phrase_bank() {
        let id = schema.field_id(&name).unwrap();
        config.set_phrases(id, phrases);
    }
    config.set_pairs(PairStrategy::TypeToType.build(schema, &config));
    config
}

fn bench_phrase_matching(c: &mut Criterion) {
    let corpus = generate(Domain::Earnings, 2, 1);
    let doc = &corpus.documents[0];
    c.bench_function("core/phrase_match", |b| {
        b.iter(|| black_box(find_phrase_matches(doc, "base salary")))
    });
}

fn bench_augment(c: &mut Criterion) {
    let corpus = generate(Domain::Earnings, 3, 1);
    let config = oracle_config(Domain::Earnings, &corpus.schema);
    let doc = &corpus.documents[0];
    c.bench_function("core/augment_document_t2t", |b| {
        b.iter(|| black_box(augment_document(doc, &config)))
    });
}

fn bench_importance(c: &mut Criterion) {
    let corpus = generate(Domain::Invoices, 4, 20);
    let mut model = ImportanceModel::new(
        ModelConfig {
            neighbors: 24,
            epochs: 1,
            ..ModelConfig::tiny()
        },
        corpus.schema.len(),
        1,
    );
    model.train(&corpus, 1);
    let doc = corpus
        .documents
        .iter()
        .find(|d| !d.annotations.is_empty())
        .unwrap();
    let a = doc.annotations[0];
    c.bench_function("keyphrase/neighbor_importance", |b| {
        b.iter(|| black_box(model.neighbor_importance(doc, a.start, a.end)))
    });
}

fn bench_extractor(c: &mut Criterion) {
    let train = generate(Domain::Earnings, 5, 20);
    let ex = Extractor::train_on(
        &train.schema,
        Lexicon::empty(),
        &train,
        &[],
        &TrainConfig {
            epochs: 2,
            synth_ratio: 0.0,
            seed: 1,
            ..TrainConfig::default()
        },
    );
    let doc = &train.documents[0];
    // Freezing is one-time model preparation, not per-document work.
    let frozen = ex.freeze();
    let mut scratch = InferScratch::default();
    c.bench_function("extract/predict_doc", |b| {
        b.iter(|| black_box(frozen.predict(doc, &mut scratch)))
    });

    c.bench_function("extract/train_10docs_1epoch", |b| {
        let small =
            fieldswap_docmodel::Corpus::new(train.schema.clone(), train.documents[..10].to_vec());
        b.iter(|| {
            black_box(Extractor::train_on(
                &small.schema,
                Lexicon::empty(),
                &small,
                &[],
                &TrainConfig {
                    epochs: 1,
                    synth_ratio: 0.0,
                    seed: 2,
                    ..TrainConfig::default()
                },
            ))
        })
    });
}

criterion_group! {
    name = benches;
    // Training/augmentation iterations are expensive; 10 samples keeps
    // `cargo bench` to minutes while the micro ops still get stable
    // estimates.
    config = Criterion::default().sample_size(10);
    targets = bench_geometry,
    bench_sparsemax,
    bench_line_detection,
    bench_datagen,
    bench_phrase_matching,
    bench_augment,
    bench_importance,
    bench_extractor
}
criterion_main!(benches);
