//! The inference executor: a persistent worker pool with per-worker
//! [`InferScratch`] reuse and per-document panic isolation.
//!
//! Scratches are allocated once at startup and reused for every request,
//! so a warm server performs no per-request scratch allocation. The
//! scratch's own model-token check handles multi-model traffic: reusing
//! a scratch against a different model resets only its row cache.
//!
//! Panic isolation: every prediction runs under `catch_unwind` *inside*
//! the scratch lock, so a panicking decode (a model bug, or an injected
//! chaos fault) is caught before it can unwind through the mutex guard —
//! the mutex is never poisoned on this path. The panicked scratch is
//! replaced with a fresh [`InferScratch`] (its buffers may be mid-write,
//! so reuse would be unsound for correctness even though it is plain
//! data) and only the offending document's result becomes an error.
//! Should a scratch mutex be poisoned by some other path anyway, locking
//! recovers by swapping in a fresh scratch instead of panicking forever —
//! the pre-PR `.expect("scratch poisoned")` turned one panic into a
//! permanently dead executor.
//!
//! The [`WorkerPool`] broadcast protocol forbids overlapping batches, so
//! the pool sits behind a `Mutex` — concurrent batch requests serialize
//! on it. Single-document requests (the common online case) skip the
//! pool entirely and run on the connection thread with a round-robin
//! scratch, so they proceed concurrently with each other and with any
//! in-flight batch.

use crate::chaos::Chaos;
use fieldswap_docmodel::{Document, EntitySpan};
use fieldswap_extract::{FrozenModel, InferScratch};
use fieldswap_parallel::{effective_jobs, payload_text, WorkerPool};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Scored spans for one document: `(span, confidence)` pairs.
pub type ScoredSpans = Vec<(EntitySpan, f32)>;

/// One document's prediction outcome: spans, or the rendered panic
/// payload if the decode panicked. The executor never panics outward.
pub type PredictResult = Result<ScoredSpans, String>;

/// A persistent inference executor. One per server.
pub struct Executor {
    pool: Mutex<WorkerPool>,
    scratches: Vec<Mutex<InferScratch>>,
    rr: AtomicUsize,
    chaos: Option<Arc<Chaos>>,
}

impl Executor {
    /// An executor with `jobs` workers (0 = all cores, 1 = run inline).
    pub fn new(jobs: usize) -> Self {
        Self::with_chaos(jobs, None)
    }

    /// An executor with an optional fault-injection plan. `None` is the
    /// production configuration and runs the exact clean-path code.
    pub fn with_chaos(jobs: usize, chaos: Option<Arc<Chaos>>) -> Self {
        let jobs = effective_jobs(jobs);
        Self {
            pool: Mutex::new(WorkerPool::new(jobs)),
            scratches: (0..jobs)
                .map(|_| Mutex::new(InferScratch::default()))
                .collect(),
            rr: AtomicUsize::new(0),
            chaos,
        }
    }

    /// Number of workers (and scratches).
    pub fn jobs(&self) -> usize {
        self.scratches.len()
    }

    /// Locks scratch `i`, recovering from poisoning by replacing the
    /// scratch with a fresh one — a poisoned scratch must cost one
    /// warmup, never the executor.
    fn lock_scratch(&self, i: usize) -> MutexGuard<'_, InferScratch> {
        match self.scratches[i].lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                fieldswap_obs::counter_add("fieldswap_serve_scratch_replaced_total", 1);
                self.scratches[i].clear_poison();
                let mut guard = poisoned.into_inner();
                *guard = InferScratch::default();
                guard
            }
        }
    }

    /// One panic-isolated prediction on worker `worker`'s scratch.
    fn predict_guarded(&self, worker: usize, model: &FrozenModel, doc: &Document) -> PredictResult {
        let mut scratch = self.lock_scratch(worker);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(chaos) = &self.chaos {
                chaos.on_infer();
            }
            model.predict_scored(doc, &mut scratch)
        }));
        outcome.map_err(|payload| {
            // The scratch may be mid-write; replace it rather than trust
            // its invariants. The mutex itself was never poisoned — the
            // unwind stopped inside the guard's lifetime.
            *scratch = InferScratch::default();
            fieldswap_obs::counter_add("fieldswap_serve_panics_total", 1);
            let text = payload_text(payload);
            fieldswap_obs::warn!("inference panic on doc {:?}: {text}", doc.id);
            text
        })
    }

    /// Scored prediction for one document on the calling thread, using a
    /// round-robin scratch. No pool broadcast, so concurrent calls run
    /// truly in parallel across connection threads.
    pub fn predict_one(&self, model: &FrozenModel, doc: &Document) -> PredictResult {
        let i = self.rr.fetch_add(1, Ordering::Relaxed) % self.scratches.len();
        self.predict_guarded(i, model, doc)
    }

    /// Scored predictions for a batch, fanned over the worker pool with
    /// each worker reusing its own scratch. `models[i]` is the routed
    /// model for `docs[i]` — a mixed-domain batch is fine. A panicking
    /// document yields `Err` in its own slot; the rest of the batch
    /// completes normally.
    pub fn predict_batch(&self, models: &[&FrozenModel], docs: &[Document]) -> Vec<PredictResult> {
        assert_eq!(models.len(), docs.len());
        if docs.len() <= 1 {
            return docs
                .iter()
                .zip(models)
                .map(|(d, m)| self.predict_one(m, d))
                .collect();
        }
        let slots: Vec<Mutex<Option<PredictResult>>> =
            (0..docs.len()).map(|_| Mutex::new(None)).collect();
        {
            // Broadcasts must not overlap: hold the pool for the batch.
            // The closure below never unwinds (predict_guarded catches),
            // so the pool mutex cannot be poisoned by a decode panic;
            // recover anyway rather than add a new panic path.
            let pool = self
                .pool
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            pool.fill_slots(&slots, |worker, item| {
                self.predict_guarded(worker, models[item], &docs[item])
            });
        }
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .unwrap_or_else(|| Err("batch slot left unfilled".to_string()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::FaultPlan;
    use fieldswap_datagen::{generate, Domain};
    use fieldswap_extract::{Extractor, Lexicon, TrainConfig};

    fn train(domain: Domain, seed: u64, docs: usize) -> FrozenModel {
        let corpus = generate(domain, seed, docs);
        let lex = Lexicon::pretrain(&corpus.documents);
        Extractor::train_on(&corpus.schema, lex, &corpus, &[], &TrainConfig::tiny()).freeze()
    }

    #[test]
    fn batch_matches_serial_prediction_across_models() {
        let fara = train(Domain::Fara, 51, 12);
        let earn = train(Domain::Earnings, 52, 12);
        let mut docs = generate(Domain::Fara, 53, 4).documents;
        docs.extend(generate(Domain::Earnings, 54, 4).documents);
        let models: Vec<&FrozenModel> = (0..8).map(|i| if i < 4 { &fara } else { &earn }).collect();

        let ex = Executor::new(3);
        let batch = ex.predict_batch(&models, &docs);
        let mut scratch = InferScratch::default();
        for (i, (m, d)) in models.iter().zip(&docs).enumerate() {
            let serial = m.predict_scored(d, &mut scratch);
            assert_eq!(
                batch[i].as_ref().unwrap(),
                &serial,
                "batch drift on doc {i}"
            );
            // The single-doc fast path agrees too.
            assert_eq!(
                ex.predict_one(m, d).unwrap(),
                serial,
                "fast-path drift on doc {i}"
            );
        }
    }

    #[test]
    fn concurrent_single_doc_requests_are_consistent() {
        let frozen = train(Domain::Fara, 55, 12);
        let probe = generate(Domain::Fara, 56, 6).documents;
        let mut scratch = InferScratch::default();
        let expected: Vec<_> = probe
            .iter()
            .map(|d| frozen.predict_scored(d, &mut scratch))
            .collect();
        let ex = Executor::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for (d, want) in probe.iter().zip(&expected) {
                        assert_eq!(&ex.predict_one(&frozen, d).unwrap(), want);
                    }
                });
            }
        });
    }

    #[test]
    fn injected_panic_fails_one_doc_and_the_next_request_succeeds() {
        // Regression test for poisoned-mutex permanence: before this PR
        // a panic inside predict_scored poisoned the scratch mutex and
        // every later request panicked on `.expect("scratch poisoned")`.
        let frozen = train(Domain::Fara, 57, 12);
        let probe = generate(Domain::Fara, 58, 3).documents;
        let mut scratch = InferScratch::default();
        let expected: Vec<_> = probe
            .iter()
            .map(|d| frozen.predict_scored(d, &mut scratch))
            .collect();

        // One worker, so the panicked scratch is the only scratch: the
        // very next request must reuse (and have recovered) it.
        let chaos = Arc::new(Chaos::new(FaultPlan::parse("panic-doc=0").unwrap()));
        let ex = Executor::with_chaos(1, Some(chaos));
        let err = ex.predict_one(&frozen, &probe[0]).unwrap_err();
        assert!(err.contains("chaos"), "{err}");
        for (d, want) in probe.iter().zip(&expected) {
            assert_eq!(&ex.predict_one(&frozen, d).unwrap(), want);
        }
    }

    #[test]
    fn batch_with_panicking_doc_fails_only_that_slot() {
        let frozen = train(Domain::Fara, 59, 12);
        let docs = generate(Domain::Fara, 60, 5).documents;
        let models: Vec<&FrozenModel> = docs.iter().map(|_| &frozen).collect();
        let mut scratch = InferScratch::default();
        let expected: Vec<_> = docs
            .iter()
            .map(|d| frozen.predict_scored(d, &mut scratch))
            .collect();

        // Exactly one of the 5 docs panics (which slot depends on pool
        // scheduling, the count does not).
        let chaos = Arc::new(Chaos::new(FaultPlan::parse("panic-doc=2").unwrap()));
        let ex = Executor::with_chaos(2, Some(chaos));
        let batch = ex.predict_batch(&models, &docs);
        let failed = batch.iter().filter(|r| r.is_err()).count();
        assert_eq!(failed, 1, "{batch:?}");
        // The survivors are bitwise-correct, and a clean follow-up batch
        // is fully correct again.
        for (i, r) in batch.iter().enumerate() {
            if let Ok(spans) = r {
                assert_eq!(spans, &expected[i]);
            }
        }
        let clean = ex.predict_batch(&models, &docs);
        for (i, r) in clean.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap(), &expected[i], "post-panic drift on {i}");
        }
    }

    #[test]
    fn poisoned_scratch_mutex_is_replaced_not_fatal() {
        let frozen = train(Domain::Fara, 61, 12);
        let doc = generate(Domain::Fara, 62, 1).documents.remove(0);
        let mut scratch = InferScratch::default();
        let expected = frozen.predict_scored(&doc, &mut scratch);

        let ex = Executor::new(1);
        // Poison the only scratch mutex the hard way: panic while
        // holding its guard.
        let poison = catch_unwind(AssertUnwindSafe(|| {
            let _guard = ex.scratches[0].lock().unwrap();
            panic!("poison the scratch");
        }));
        assert!(poison.is_err());
        assert!(ex.scratches[0].is_poisoned());
        assert_eq!(ex.predict_one(&frozen, &doc).unwrap(), expected);
        assert!(!ex.scratches[0].is_poisoned());
    }
}
