//! End-to-end extraction metrics: per-field precision/recall/F1 under
//! exact span matching, macro-F1 (mean over fields with test support —
//! the paper's headline metric, sensitive to rare fields), and micro-F1
//! (instance-weighted).

use fieldswap_docmodel::{Corpus, EntitySpan, FieldId};
use fieldswap_extract::{Extractor, FrozenModel, InferScratch};
use serde::{Deserialize, Serialize};

/// Counts and scores for one field.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FieldScore {
    /// Exact-match true positives.
    pub tp: usize,
    /// Predicted spans with no exact gold match.
    pub fp: usize,
    /// Gold spans with no exact predicted match.
    pub fn_: usize,
}

impl FieldScore {
    /// Precision in `[0, 1]`; 0 when nothing was predicted.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall in `[0, 1]`; 0 when there is no gold.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F1 in `[0, 1]`.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Gold support (number of gold instances).
    pub fn support(&self) -> usize {
        self.tp + self.fn_
    }
}

/// Aggregated evaluation over a test corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalResult {
    /// Per-field counts, indexed by field id.
    pub fields: Vec<FieldScore>,
}

impl EvalResult {
    /// Macro-F1 in points (0–100): the unweighted mean F1 over fields
    /// with gold support in the test set.
    pub fn macro_f1(&self) -> f64 {
        let supported: Vec<&FieldScore> = self.fields.iter().filter(|f| f.support() > 0).collect();
        if supported.is_empty() {
            return 0.0;
        }
        100.0 * supported.iter().map(|f| f.f1()).sum::<f64>() / supported.len() as f64
    }

    /// Micro-F1 in points (0–100): F1 of the pooled counts.
    pub fn micro_f1(&self) -> f64 {
        let total = self
            .fields
            .iter()
            .fold(FieldScore::default(), |a, f| FieldScore {
                tp: a.tp + f.tp,
                fp: a.fp + f.fp,
                fn_: a.fn_ + f.fn_,
            });
        100.0 * total.f1()
    }

    /// Per-field F1 in points, `None` for fields without test support.
    pub fn per_field_f1(&self) -> Vec<Option<f64>> {
        self.fields
            .iter()
            .map(|f| {
                if f.support() > 0 {
                    Some(100.0 * f.f1())
                } else {
                    None
                }
            })
            .collect()
    }
}

/// Maximum tolerated macro-F1 drift (in points) between the exact f32
/// frozen path and the int8-quantized one. Shared by the in-repo guard
/// test and the CI quantization gate.
pub const QUANT_MACRO_F1_EPSILON: f64 = 1.5;

/// Scores `predictions` against `gold` for a document, updating `fields`.
///
/// Matching is one-to-one: each gold span can be consumed by at most one
/// exactly-equal prediction. A span predicted twice therefore earns one
/// TP and one FP (not two TPs), and a duplicated gold span that is
/// predicted once still leaves one FN — `tp + fn_` always equals the
/// number of gold spans, keeping support honest.
pub fn score_document(gold: &[EntitySpan], predictions: &[EntitySpan], fields: &mut [FieldScore]) {
    let mut consumed = vec![false; gold.len()];
    for p in predictions {
        let hit = gold
            .iter()
            .enumerate()
            .position(|(j, g)| !consumed[j] && g == p);
        match hit {
            Some(j) => {
                consumed[j] = true;
                fields[p.field as usize].tp += 1;
            }
            None => fields[p.field as usize].fp += 1,
        }
    }
    for (j, g) in gold.iter().enumerate() {
        if !consumed[j] {
            fields[g.field as usize].fn_ += 1;
        }
    }
}

/// Evaluates a trained extractor end-to-end on `test` through the frozen
/// decoder, freezing once for the whole corpus; every prediction equals
/// [`Extractor::predict`] on the same document.
pub fn evaluate(extractor: &Extractor, test: &Corpus) -> EvalResult {
    evaluate_frozen(&extractor.freeze(), test)
}

/// Evaluates a [`FrozenModel`] end-to-end on `test`, reusing one
/// [`InferScratch`] (feature-row cache + Viterbi buffers) across the
/// corpus. When metrics are enabled, records the batch decode latency in
/// the `fieldswap_infer_batch_ms` histogram.
pub fn evaluate_frozen(frozen: &FrozenModel, test: &Corpus) -> EvalResult {
    let mut fields = vec![FieldScore::default(); test.schema.len()];
    let mut scratch = InferScratch::default();
    let metrics = fieldswap_obs::metrics_enabled();
    let t0 = std::time::Instant::now();
    for doc in &test.documents {
        let pred = frozen.predict(doc, &mut scratch);
        score_document(&doc.annotations, &pred, &mut fields);
    }
    if metrics {
        fieldswap_obs::counter_add("fieldswap_eval_docs_total", test.documents.len() as u64);
        fieldswap_obs::observe("fieldswap_infer_batch_ms", t0.elapsed().as_secs_f64() * 1e3);
    }
    EvalResult { fields }
}

/// Mean of a sample, `None` for empty input.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Which field ids have gold support anywhere in the corpus.
pub fn supported_fields(corpus: &Corpus) -> Vec<FieldId> {
    let mut out = Vec::new();
    for (id, _) in corpus.schema.iter() {
        if corpus.documents.iter().any(|d| d.has_field(id)) {
            out.push(id);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_score_math() {
        let s = FieldScore {
            tp: 3,
            fp: 1,
            fn_: 2,
        };
        assert!((s.precision() - 0.75).abs() < 1e-12);
        assert!((s.recall() - 0.6).abs() < 1e-12);
        let f1 = 2.0 * 0.75 * 0.6 / 1.35;
        assert!((s.f1() - f1).abs() < 1e-12);
        assert_eq!(s.support(), 5);
    }

    #[test]
    fn zero_cases() {
        let s = FieldScore::default();
        assert_eq!(s.precision(), 0.0);
        assert_eq!(s.recall(), 0.0);
        assert_eq!(s.f1(), 0.0);
    }

    #[test]
    fn score_document_counts() {
        let gold = vec![EntitySpan::new(0, 0, 2), EntitySpan::new(1, 3, 4)];
        let pred = vec![EntitySpan::new(0, 0, 2), EntitySpan::new(1, 5, 6)];
        let mut fields = vec![FieldScore::default(); 2];
        score_document(&gold, &pred, &mut fields);
        assert_eq!(
            fields[0],
            FieldScore {
                tp: 1,
                fp: 0,
                fn_: 0
            }
        );
        assert_eq!(
            fields[1],
            FieldScore {
                tp: 0,
                fp: 1,
                fn_: 1
            }
        );
    }

    #[test]
    fn duplicate_prediction_is_not_double_counted() {
        // One gold span, predicted twice: one TP consumes the gold, the
        // duplicate is an FP. (The old all-pairs matching gave 2 TPs
        // against 1 gold, inflating both support and recall.)
        let gold = vec![EntitySpan::new(0, 0, 2)];
        let pred = vec![EntitySpan::new(0, 0, 2), EntitySpan::new(0, 0, 2)];
        let mut fields = vec![FieldScore::default(); 1];
        score_document(&gold, &pred, &mut fields);
        assert_eq!(
            fields[0],
            FieldScore {
                tp: 1,
                fp: 1,
                fn_: 0
            }
        );
        assert_eq!(fields[0].support(), gold.len());
    }

    #[test]
    fn duplicate_gold_requires_matching_multiplicity() {
        // The same span annotated twice with one matching prediction:
        // one gold is consumed, the other is still missed.
        let gold = vec![EntitySpan::new(0, 0, 2), EntitySpan::new(0, 0, 2)];
        let pred = vec![EntitySpan::new(0, 0, 2)];
        let mut fields = vec![FieldScore::default(); 1];
        score_document(&gold, &pred, &mut fields);
        assert_eq!(
            fields[0],
            FieldScore {
                tp: 1,
                fp: 0,
                fn_: 1
            }
        );
        assert_eq!(fields[0].support(), gold.len());
    }

    #[test]
    fn duplicate_on_both_sides_pairs_off() {
        let gold = vec![EntitySpan::new(1, 4, 6), EntitySpan::new(1, 4, 6)];
        let pred = vec![EntitySpan::new(1, 4, 6), EntitySpan::new(1, 4, 6)];
        let mut fields = vec![FieldScore::default(); 2];
        score_document(&gold, &pred, &mut fields);
        assert_eq!(
            fields[1],
            FieldScore {
                tp: 2,
                fp: 0,
                fn_: 0
            }
        );
    }

    #[test]
    fn near_miss_is_both_fp_and_fn() {
        // Span boundary off by one: penalized on both sides (exact match).
        let gold = vec![EntitySpan::new(0, 0, 3)];
        let pred = vec![EntitySpan::new(0, 0, 2)];
        let mut fields = vec![FieldScore::default(); 1];
        score_document(&gold, &pred, &mut fields);
        assert_eq!(
            fields[0],
            FieldScore {
                tp: 0,
                fp: 1,
                fn_: 1
            }
        );
    }

    #[test]
    fn macro_ignores_unsupported_fields() {
        let r = EvalResult {
            fields: vec![
                FieldScore {
                    tp: 1,
                    fp: 0,
                    fn_: 0,
                }, // F1 = 1
                FieldScore::default(), // no support
                FieldScore {
                    tp: 0,
                    fp: 0,
                    fn_: 1,
                }, // F1 = 0
            ],
        };
        assert!((r.macro_f1() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn micro_pools_counts() {
        let r = EvalResult {
            fields: vec![
                FieldScore {
                    tp: 8,
                    fp: 2,
                    fn_: 0,
                },
                FieldScore {
                    tp: 0,
                    fp: 0,
                    fn_: 10,
                },
            ],
        };
        // p = 8/10, r = 8/18.
        let p: f64 = 0.8;
        let rc: f64 = 8.0 / 18.0;
        let f1 = 100.0 * 2.0 * p * rc / (p + rc);
        assert!((r.micro_f1() - f1).abs() < 1e-9);
    }

    #[test]
    fn macro_rewards_rare_fields_more_than_micro() {
        // A rare field improving lifts macro more than micro — the
        // paper's rationale for reporting macro (Section IV-C1).
        let before = EvalResult {
            fields: vec![
                FieldScore {
                    tp: 90,
                    fp: 5,
                    fn_: 5,
                }, // frequent, good
                FieldScore {
                    tp: 0,
                    fp: 0,
                    fn_: 2,
                }, // rare, broken
            ],
        };
        let after = EvalResult {
            fields: vec![
                FieldScore {
                    tp: 90,
                    fp: 5,
                    fn_: 5,
                },
                FieldScore {
                    tp: 2,
                    fp: 0,
                    fn_: 0,
                }, // rare fixed
            ],
        };
        let macro_gain = after.macro_f1() - before.macro_f1();
        let micro_gain = after.micro_f1() - before.micro_f1();
        assert!(macro_gain > micro_gain);
        assert!(macro_gain > 40.0);
    }

    #[test]
    fn per_field_f1_reports_option() {
        let r = EvalResult {
            fields: vec![
                FieldScore {
                    tp: 1,
                    fp: 0,
                    fn_: 0,
                },
                FieldScore::default(),
            ],
        };
        let per = r.per_field_f1();
        assert_eq!(per[0], Some(100.0));
        assert_eq!(per[1], None);
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
    }
}
