//! Invariants of the experiment protocol (harness-level): determinism,
//! train/test separation, and metric sanity.

use fieldswap_datagen::{generate_paper_splits, Domain};
use fieldswap_eval::{Arm, Harness, HarnessOptions};

fn tiny_options(seed: u64) -> HarnessOptions {
    HarnessOptions {
        n_samples: 1,
        n_trials: 1,
        pretrain_docs: 25,
        lexicon_docs: 40,
        neighbors: 10,
        test_cap: 30,
        epochs: 2,
        synth_ratio: 1.0,
        synthetic_cap: 150,
        seed,
        jobs: 1,
        train_jobs: 1,
        quantized: false,
    }
}

#[test]
fn train_pool_and_test_set_are_disjoint() {
    for domain in [Domain::Fara, Domain::Brokerage] {
        let (pool, test) = generate_paper_splits(domain, 91);
        let pool_ids: std::collections::HashSet<&str> =
            pool.documents.iter().map(|d| d.id.as_str()).collect();
        // Ids collide by construction (same naming scheme), so compare
        // content: no test document may be byte-identical to a pool one.
        let mut identical = 0;
        for t in &test.documents {
            if pool
                .documents
                .iter()
                .any(|p| p.tokens == t.tokens && p.annotations == t.annotations)
            {
                identical += 1;
            }
        }
        assert_eq!(identical, 0, "{domain:?}: test leaked into pool");
        assert!(!pool_ids.is_empty());
    }
}

#[test]
fn repeated_harness_runs_are_identical() {
    let run = || {
        let h = Harness::new(tiny_options(7));
        h.run_single(Domain::Fara, 8, Arm::AutoTypeToType, 0, 0)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn different_master_seeds_differ() {
    let h1 = Harness::new(tiny_options(1));
    let h2 = Harness::new(tiny_options(2));
    let a = h1.run_single(Domain::Fara, 8, Arm::Baseline, 0, 0);
    let b = h2.run_single(Domain::Fara, 8, Arm::Baseline, 0, 0);
    // Same protocol, different data draws: results should not be equal.
    assert_ne!(a, b);
}

#[test]
fn metrics_are_bounded() {
    let h = Harness::new(tiny_options(3));
    for arm in [Arm::Baseline, Arm::AutoFieldToField] {
        let r = h.run_single(Domain::FccForms, 10, arm, 0, 0);
        assert!((0.0..=100.0).contains(&r.macro_f1));
        assert!((0.0..=100.0).contains(&r.micro_f1));
        for f in r.per_field_f1.iter().flatten() {
            assert!((0.0..=100.0).contains(f));
        }
    }
}

#[test]
fn trials_vary_only_training_randomness() {
    let h = Harness::new(tiny_options(4));
    let a = h.run_single(Domain::Fara, 8, Arm::Baseline, 0, 0);
    let b = h.run_single(Domain::Fara, 8, Arm::Baseline, 0, 1);
    // Same sample, same synthetics; different training shuffle.
    assert_eq!(a.n_synthetics, b.n_synthetics);
    assert_eq!(a.n_train_docs, b.n_train_docs);
}

#[test]
fn macro_f1_at_least_reacts_to_training_size() {
    // 2 docs vs 40 docs must show a visible gap on FCC forms.
    let h = Harness::new(tiny_options(5));
    let small = h.run_single(Domain::FccForms, 2, Arm::Baseline, 0, 0);
    let large = h.run_single(Domain::FccForms, 40, Arm::Baseline, 0, 0);
    assert!(
        large.macro_f1 > small.macro_f1 + 3.0,
        "size effect missing: {small:?} vs {large:?}"
    );
}
