//! The candidate-based importance model (paper Fig. 2).
//!
//! For a base-type candidate (e.g. the amount `$3,308.62`), the model:
//!
//! 1. encodes each of the `t` nearest neighboring tokens by concatenating a
//!    hashed **text embedding** and a quantized **relative-position
//!    embedding**, passed through a dense+ReLU projection;
//! 2. contextualizes neighbors with one **self-attention** layer;
//! 3. **max-pools** the contextualized neighbor encodings into a single
//!    *Neighborhood Encoding*;
//! 4. concatenates a **candidate position embedding** and applies a linear
//!    head producing one **binary logit per field** of the training
//!    schema.
//!
//! At transfer time only the intermediate encodings matter: the importance
//! score of neighbor `i` is `cosine(NeighborhoodEncoding, H_i)` where
//! `H_i` is that neighbor's contextualized encoding — exactly the
//! manipulation the paper performs on the model's intermediate outputs.

use crate::features::{cand_pos_id, rel_pos_id, text_id, CAND_POS_VOCAB, POS_VOCAB, TEXT_VOCAB};
use fieldswap_docmodel::{Corpus, Document, NeighborMetric};
use fieldswap_nn::{cosine_similarity, Adam, GradBuffer, Init, ParamStore, Tape};
use fieldswap_parallel::WorkerPool;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Gradient minibatch size of the training loop: candidates are processed
/// in fixed windows of this many, each forward/backward running against
/// the parameters as they stood at window start, with the per-candidate
/// gradients then merged in candidate order and applied as **one** Adam
/// step.
///
/// This is a **semantic constant**, not a tuning knob tied to
/// [`ModelConfig::train_jobs`]: the window is the same for every jobs
/// setting, so the gradient reduction tree — and therefore the trained
/// model — is bitwise-identical whether the window runs on one thread or
/// eight.
pub const TRAIN_BATCH: usize = 8;

/// Model hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct ModelConfig {
    /// Embedding/encoder width.
    pub dim: usize,
    /// Candidate-position embedding width.
    pub cand_dim: usize,
    /// Number of neighboring tokens per candidate (the paper uses 100).
    pub neighbors: usize,
    /// Training epochs over the pre-training corpus.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Max candidates sampled per document during training (cost control).
    pub max_candidates_per_doc: usize,
    /// Neighbor-selection metric (the paper uses off-axis distance; the
    /// Euclidean variant exists for the ablation bench).
    pub neighbor_metric: NeighborMetric,
    /// Worker threads for the forward/backward phase of each training
    /// window (0 = all cores, 1 = serial). Any value produces
    /// bitwise-identical models; >1 only changes wall-clock time.
    pub train_jobs: usize,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self {
            dim: 24,
            cand_dim: 8,
            neighbors: 100,
            epochs: 2,
            lr: 0.01,
            max_candidates_per_doc: 24,
            neighbor_metric: NeighborMetric::OffAxis,
            train_jobs: 1,
        }
    }
}

impl ModelConfig {
    /// A small, fast profile for unit tests.
    pub fn tiny() -> Self {
        Self {
            dim: 12,
            cand_dim: 4,
            neighbors: 16,
            epochs: 1,
            lr: 0.02,
            max_candidates_per_doc: 8,
            neighbor_metric: NeighborMetric::OffAxis,
            train_jobs: 1,
        }
    }
}

/// Per-window worker scratch: a tape (with its buffer pool) and a
/// detached gradient buffer, both grow-only across windows.
#[derive(Default)]
struct TrainSlot {
    tape: Tape,
    buf: GradBuffer,
    loss: Option<f32>,
}

/// Summary of one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean loss of the first epoch.
    pub first_epoch_loss: f32,
    /// Mean loss of the last epoch.
    pub last_epoch_loss: f32,
    /// Total candidate examples seen per epoch.
    pub examples_per_epoch: usize,
}

/// The trained importance model.
pub struct ImportanceModel {
    cfg: ModelConfig,
    params: ParamStore,
    emb_text: fieldswap_nn::ParamId,
    emb_pos: fieldswap_nn::ParamId,
    emb_cand: fieldswap_nn::ParamId,
    // The paper concatenates text and position embeddings before the
    // dense projection; `[T | P] @ W` is computed as
    // `T @ w_enc_text + P @ w_enc_pos`, which is the identical linear map
    // with the weight matrix split in half.
    w_enc_text: fieldswap_nn::ParamId,
    w_enc_pos: fieldswap_nn::ParamId,
    b_enc: fieldswap_nn::ParamId,
    wq: fieldswap_nn::ParamId,
    wk: fieldswap_nn::ParamId,
    wv: fieldswap_nn::ParamId,
    w_head: fieldswap_nn::ParamId,
    n_fields: usize,
}

/// One candidate's extracted features.
struct CandFeatures {
    text_ids: Vec<usize>,
    pos_ids: Vec<usize>,
    cand_pos: usize,
    /// Ids of the neighbor tokens, aligned with `text_ids`/`pos_ids`.
    neighbor_tokens: Vec<u32>,
}

impl ImportanceModel {
    /// Initializes an untrained model for a schema with `n_fields` output
    /// heads.
    pub fn new(cfg: ModelConfig, n_fields: usize, seed: u64) -> Self {
        let d = cfg.dim;
        let mut params = ParamStore::new(seed);
        let emb_text = params.tensor("emb_text", TEXT_VOCAB, d, Init::Uniform(0.2));
        let emb_pos = params.tensor("emb_pos", POS_VOCAB, d, Init::Uniform(0.2));
        let emb_cand = params.tensor("emb_cand", CAND_POS_VOCAB, cfg.cand_dim, Init::Uniform(0.2));
        let w_enc_text = params.tensor("w_enc_text", d, d, Init::Xavier);
        let w_enc_pos = params.tensor("w_enc_pos", d, d, Init::Xavier);
        let b_enc = params.tensor("b_enc", 1, d, Init::Zeros);
        let wq = params.tensor("wq", d, d, Init::Xavier);
        let wk = params.tensor("wk", d, d, Init::Xavier);
        let wv = params.tensor("wv", d, d, Init::Xavier);
        let w_head = params.tensor("w_head", d + cfg.cand_dim, n_fields, Init::Xavier);
        Self {
            cfg,
            params,
            emb_text,
            emb_pos,
            emb_cand,
            w_enc_text,
            w_enc_pos,
            b_enc,
            wq,
            wk,
            wv,
            w_head,
            n_fields,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    fn extract(&self, doc: &Document, start: u32, end: u32) -> CandFeatures {
        let center = doc.span_bbox(start, end).center();
        let neighbor_tokens =
            doc.neighbors_by_metric(start, end, self.cfg.neighbors, self.cfg.neighbor_metric);
        let mut text_ids = Vec::with_capacity(neighbor_tokens.len());
        let mut pos_ids = Vec::with_capacity(neighbor_tokens.len());
        for &t in &neighbor_tokens {
            let tok = &doc.tokens[t as usize];
            text_ids.push(text_id(&tok.text));
            pos_ids.push(rel_pos_id(center, tok.bbox.center()));
        }
        CandFeatures {
            text_ids,
            pos_ids,
            cand_pos: cand_pos_id(&doc.span_bbox(start, end)),
            neighbor_tokens,
        }
    }

    /// Runs the forward pass on `tape` (resetting it first), returning
    /// `(per-neighbor encoder output, neighborhood-encoding node, logits
    /// node)`. The per-neighbor node is the *pre-attention* encoding:
    /// self-attention mixes rows toward their mean, so the post-attention
    /// rows all resemble the pooled vector and carry no per-neighbor
    /// contrast; the encoder output is what distinguishes one neighbor
    /// from another.
    ///
    /// Reusing one tape across candidates recycles every intermediate
    /// tensor through the tape's buffer pool — the training loop reaches a
    /// steady state with no per-candidate allocation.
    fn forward_on(
        &self,
        tape: &mut Tape,
        f: &CandFeatures,
    ) -> Option<(
        fieldswap_nn::NodeId,
        fieldswap_nn::NodeId,
        fieldswap_nn::NodeId,
    )> {
        tape.reset();
        if f.text_ids.is_empty() {
            return None;
        }
        let d = self.cfg.dim;
        let te = tape.gather(&self.params, self.emb_text, &f.text_ids);
        let pe = tape.gather(&self.params, self.emb_pos, &f.pos_ids);
        let wt = tape.param(&self.params, self.w_enc_text);
        let wp = tape.param(&self.params, self.w_enc_pos);
        let be = tape.param(&self.params, self.b_enc);
        let ht = tape.matmul(te, wt);
        let hp = tape.matmul(pe, wp);
        let h = tape.add(ht, hp);
        let h = tape.add_row(h, be);
        let h = tape.relu(h);
        // Self-attention.
        let q = {
            let w = tape.param(&self.params, self.wq);
            tape.matmul(h, w)
        };
        let k = {
            let w = tape.param(&self.params, self.wk);
            tape.matmul(h, w)
        };
        let v = {
            let w = tape.param(&self.params, self.wv);
            tape.matmul(h, w)
        };
        let kt = tape.transpose(k);
        let scores = tape.matmul(q, kt);
        let scores = tape.scale(scores, 1.0 / (d as f32).sqrt());
        let att = tape.softmax(scores);
        let ctx = tape.matmul(att, v);
        // Neighborhood encoding.
        let pooled = tape.max_pool(ctx);
        // Candidate position embedding + head.
        let ce = tape.gather(&self.params, self.emb_cand, &[f.cand_pos]);
        let feat = tape.concat_cols(pooled, ce);
        let wh = tape.param(&self.params, self.w_head);
        let logits = tape.matmul(feat, wh);
        Some((h, pooled, logits))
    }

    /// Trains on `corpus` (the out-of-domain pre-training corpus).
    /// Candidates are the ground-truth field instances (positives for
    /// their field) plus base-type annotator spans that match no ground
    /// truth (all-zero targets).
    pub fn train(&mut self, corpus: &Corpus, seed: u64) -> TrainReport {
        assert_eq!(self.n_fields, corpus.schema.len(), "head/schema mismatch");
        let timing = fieldswap_obs::metrics_enabled();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut opt = Adam::new(self.cfg.lr);
        let mut first = 0.0f64;
        let mut last = 0.0f64;
        let mut per_epoch = 0usize;
        // Each slot holds a tape whose buffer pool recycles all
        // intermediate tensors and a detached gradient buffer; both reach
        // a steady state with no per-candidate allocation.
        let pool = WorkerPool::new(self.cfg.train_jobs);
        let mut slots: Vec<Mutex<TrainSlot>> = Vec::new();
        let worker_cands: Vec<AtomicU64> = (0..pool.jobs()).map(|_| AtomicU64::new(0)).collect();
        let mut obs_batches = 0u64;
        let mut merge_ms = 0.0f64;
        let mut cands: Vec<(usize, u32, u32, Vec<f32>)> = Vec::new();
        for epoch in 0..self.cfg.epochs {
            let mut order: Vec<usize> = (0..corpus.documents.len()).collect();
            order.shuffle(&mut rng);
            // Candidate sampling draws from the epoch rng stream in
            // shuffled document order, exactly as the per-document loop
            // did; forward/backward consume no randomness, so hoisting the
            // draws out of the hot loop is stream-neutral.
            cands.clear();
            for &di in &order {
                for (start, end, targets) in
                    self.training_candidates(&corpus.documents[di], &mut rng)
                {
                    cands.push((di, start, end, targets));
                }
            }
            let mut total = 0.0f64;
            let mut count = 0usize;
            for batch in cands.chunks(TRAIN_BATCH) {
                obs_batches += 1;
                while slots.len() < batch.len() {
                    slots.push(Mutex::new(TrainSlot::default()));
                }
                {
                    let this: &ImportanceModel = self;
                    let docs = &corpus.documents;
                    let worker_ref = &worker_cands;
                    pool.for_each_slot(&slots[..batch.len()], |worker, item, slot| {
                        worker_ref[worker].fetch_add(1, Ordering::Relaxed);
                        let (di, start, end, ref targets) = batch[item];
                        slot.loss = None;
                        slot.buf.clear();
                        let feats = this.extract(&docs[di], start, end);
                        let Some((_ctx, _pooled, logits)) = this.forward_on(&mut slot.tape, &feats)
                        else {
                            return;
                        };
                        let loss = slot.tape.bce_with_logits(logits, targets);
                        slot.loss = Some(slot.tape.value(loss).data()[0]);
                        slot.tape.backward_into(loss, &this.params, &mut slot.buf);
                    });
                }
                // Merge serially in candidate order, then take one Adam
                // step for the whole window.
                let merge_t0 = timing.then(std::time::Instant::now);
                let mut any = false;
                for slot in &mut slots[..batch.len()] {
                    let slot = slot.get_mut().expect("slot poisoned");
                    if let Some(l) = slot.loss {
                        total += f64::from(l);
                        count += 1;
                        slot.buf.merge_into(&mut self.params);
                        any = true;
                    }
                }
                if any {
                    opt.step(&mut self.params);
                }
                if let Some(t0) = merge_t0 {
                    merge_ms += t0.elapsed().as_secs_f64() * 1e3;
                }
            }
            let mean = if count > 0 { total / count as f64 } else { 0.0 };
            if epoch == 0 {
                first = mean;
            }
            last = mean;
            per_epoch = count;
        }
        if timing {
            fieldswap_obs::observe("fieldswap_nn_train_merge_ms", merge_ms);
            fieldswap_obs::counter_add("fieldswap_nn_train_batches_total", obs_batches);
            for (w, c) in worker_cands.iter().enumerate() {
                fieldswap_obs::counter_add(
                    &format!("fieldswap_nn_train_worker_cands_total{{worker=\"{w}\"}}"),
                    c.load(Ordering::Relaxed),
                );
            }
        }
        TrainReport {
            first_epoch_loss: first as f32,
            last_epoch_loss: last as f32,
            examples_per_epoch: per_epoch,
        }
    }

    /// Builds `(start, end, multi-hot target)` training candidates for one
    /// document: all ground-truth spans plus annotator spans that overlap
    /// no ground truth (sampled down to the configured budget).
    fn training_candidates(&self, doc: &Document, rng: &mut StdRng) -> Vec<(u32, u32, Vec<f32>)> {
        let mut out: Vec<(u32, u32, Vec<f32>)> = Vec::new();
        for a in &doc.annotations {
            let mut t = vec![0.0; self.n_fields];
            t[a.field as usize] = 1.0;
            out.push((a.start, a.end, t));
        }
        let mut negatives: Vec<(u32, u32)> = fieldswap_ocr::annotate_candidates(doc)
            .into_iter()
            .filter(|c| {
                !doc.annotations
                    .iter()
                    .any(|a| a.start < c.end && c.start < a.end)
            })
            .map(|c| (c.start, c.end))
            .collect();
        negatives.shuffle(rng);
        let neg_budget = self
            .cfg
            .max_candidates_per_doc
            .saturating_sub(out.len())
            .min(negatives.len());
        for (s, e) in negatives.into_iter().take(neg_budget) {
            out.push((s, e, vec![0.0; self.n_fields]));
        }
        out.shuffle(rng);
        out.truncate(self.cfg.max_candidates_per_doc);
        out
    }

    /// Computes, for the candidate span `[start, end)` of `doc`, each
    /// neighboring token's importance score: the cosine similarity between
    /// the Neighborhood Encoding and that neighbor's contextualized
    /// encoding. Returns `(token id, score)` pairs.
    pub fn neighbor_importance(&self, doc: &Document, start: u32, end: u32) -> Vec<(u32, f32)> {
        let mut tape = Tape::new();
        self.neighbor_importance_on(&mut tape, doc, start, end)
    }

    /// Like [`ImportanceModel::neighbor_importance`], but runs on a
    /// caller-held [`Tape`] so repeated scoring (e.g. the key-phrase
    /// inference loop) reuses one buffer pool instead of allocating a
    /// fresh graph per candidate. The tape is reset on entry.
    pub fn neighbor_importance_on(
        &self,
        tape: &mut Tape,
        doc: &Document,
        start: u32,
        end: u32,
    ) -> Vec<(u32, f32)> {
        let feats = self.extract(doc, start, end);
        let Some((enc, pooled, _logits)) = self.forward_on(tape, &feats) else {
            return Vec::new();
        };
        let pooled_v = tape.value(pooled).row(0);
        let ctx_v = tape.value(enc);
        feats
            .neighbor_tokens
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, cosine_similarity(pooled_v, ctx_v.row(i))))
            .collect()
    }

    /// Field logits for a candidate (used by tests and diagnostics).
    pub fn predict_logits(&self, doc: &Document, start: u32, end: u32) -> Vec<f32> {
        let feats = self.extract(doc, start, end);
        let mut tape = Tape::new();
        match self.forward_on(&mut tape, &feats) {
            Some((_, _, logits)) => tape.value(logits).row(0).to_vec(),
            None => vec![0.0; self.n_fields],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fieldswap_datagen::{generate, Domain};

    fn tiny_model_and_corpus() -> (ImportanceModel, Corpus) {
        let corpus = generate(Domain::Invoices, 42, 30);
        let model = ImportanceModel::new(ModelConfig::tiny(), corpus.schema.len(), 7);
        (model, corpus)
    }

    #[test]
    fn training_reduces_loss() {
        let (mut model, corpus) = tiny_model_and_corpus();
        let mut cfg = ModelConfig::tiny();
        cfg.epochs = 3;
        model.cfg = cfg;
        let report = model.train(&corpus, 1);
        assert!(report.examples_per_epoch > 50);
        assert!(
            report.last_epoch_loss < report.first_epoch_loss,
            "{report:?}"
        );
    }

    #[test]
    fn neighbor_importance_returns_scores_for_neighbors() {
        let (model, corpus) = tiny_model_and_corpus();
        let doc = corpus
            .documents
            .iter()
            .find(|d| !d.annotations.is_empty())
            .unwrap();
        let a = doc.annotations[0];
        let scores = model.neighbor_importance(doc, a.start, a.end);
        assert!(!scores.is_empty());
        assert!(scores.len() <= model.config().neighbors);
        for (t, s) in &scores {
            assert!((*t as usize) < doc.tokens.len());
            assert!((-1.0..=1.0).contains(s), "cosine out of range: {s}");
        }
        // The candidate's own tokens are not neighbors.
        assert!(scores.iter().all(|(t, _)| *t < a.start || *t >= a.end));
    }

    #[test]
    fn trained_model_scores_key_phrase_above_median() {
        // After training on invoices, the anchoring phrase tokens of a
        // money field should rank above the median neighbor.
        let corpus = generate(Domain::Invoices, 11, 120);
        let mut model = ImportanceModel::new(
            ModelConfig {
                epochs: 2,
                ..ModelConfig::tiny()
            },
            corpus.schema.len(),
            7,
        );
        model.train(&corpus, 3);
        let total_due = corpus.schema.field_id("total_due").unwrap();
        let mut wins = 0usize;
        let mut cases = 0usize;
        for doc in corpus.documents.iter().take(40) {
            let Some(a) = doc.spans_of(total_due).next().copied() else {
                continue;
            };
            let scores = model.neighbor_importance(doc, a.start, a.end);
            if scores.len() < 4 {
                continue;
            }
            let mut sorted: Vec<f32> = scores.iter().map(|(_, s)| *s).collect();
            sorted.sort_by(f32::total_cmp);
            let median = sorted[sorted.len() / 2];
            // Phrase tokens: any neighbor whose text is part of a
            // total-due synonym.
            let phrase_scores: Vec<f32> = scores
                .iter()
                .filter(|(t, _)| {
                    let txt = doc.tokens[*t as usize].lower();
                    ["total", "amount", "due", "balance"].contains(&txt.trim_end_matches(':'))
                })
                .map(|(_, s)| *s)
                .collect();
            if phrase_scores.is_empty() {
                continue;
            }
            cases += 1;
            let best_phrase = phrase_scores.iter().copied().fold(f32::MIN, f32::max);
            if best_phrase >= median {
                wins += 1;
            }
        }
        assert!(cases >= 10, "too few evaluable cases: {cases}");
        assert!(
            wins * 2 > cases,
            "phrase tokens should beat the median in most cases: {wins}/{cases}"
        );
    }

    #[test]
    fn predict_logits_has_field_arity() {
        let (model, corpus) = tiny_model_and_corpus();
        let doc = &corpus.documents[0];
        let a = doc.annotations[0];
        assert_eq!(
            model.predict_logits(doc, a.start, a.end).len(),
            corpus.schema.len()
        );
    }

    #[test]
    fn deterministic_given_seeds() {
        let corpus = generate(Domain::Invoices, 5, 10);
        let run = || {
            let mut m = ImportanceModel::new(ModelConfig::tiny(), corpus.schema.len(), 9);
            m.train(&corpus, 2);
            let d = &corpus.documents[0];
            let a = d.annotations[0];
            m.neighbor_importance(d, a.start, a.end)
        };
        assert_eq!(run(), run());
    }

    /// Every parameter scalar of the trained model, as raw f32 bits.
    fn param_bits(m: &ImportanceModel) -> Vec<u32> {
        m.params
            .values()
            .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn parallel_training_is_bitwise_identical_to_serial() {
        // `train_jobs` may only change wall-clock time: compare every
        // parameter scalar bit for bit, plus the loss report.
        let corpus = generate(Domain::Invoices, 6, 12);
        let run = |jobs: usize| {
            let cfg = ModelConfig {
                epochs: 2,
                train_jobs: jobs,
                ..ModelConfig::tiny()
            };
            let mut m = ImportanceModel::new(cfg, corpus.schema.len(), 9);
            let report = m.train(&corpus, 4);
            (report, param_bits(&m))
        };
        let serial = run(1);
        for jobs in [2, 3, 8] {
            let par = run(jobs);
            assert_eq!(serial.0, par.0, "train_jobs={jobs} report diverged");
            assert_eq!(serial.1, par.1, "train_jobs={jobs} params diverged");
        }
    }

    #[test]
    fn proptest_train_jobs_invariance() {
        // Random corpus sizes, epoch counts, seeds, and thread counts:
        // the trained parameters never depend on `train_jobs`.
        use proptest::prelude::*;
        use proptest::test_runner::{Config as PtConfig, TestRunner};
        let pool = generate(Domain::Earnings, 51, 10);
        let mut runner = TestRunner::new(PtConfig::with_cases(6));
        runner
            .run(
                &(2usize..=8, 1usize..=2, 0u64..=3, 2usize..=10),
                |(jobs, epochs, seed, n_docs)| {
                    let corpus =
                        Corpus::new(pool.schema.clone(), pool.documents[..n_docs].to_vec());
                    let run = |train_jobs: usize| {
                        let cfg = ModelConfig {
                            epochs,
                            train_jobs,
                            ..ModelConfig::tiny()
                        };
                        let mut m = ImportanceModel::new(cfg, corpus.schema.len(), 9);
                        m.train(&corpus, seed);
                        param_bits(&m)
                    };
                    prop_assert_eq!(run(1), run(jobs));
                    Ok(())
                },
            )
            .unwrap();
    }
}
