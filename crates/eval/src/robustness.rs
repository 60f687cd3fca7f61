//! Robustness evaluation mode: train clean, evaluate under attack.
//!
//! Mirrors the protocol of Xue et al. (*Robustness Evaluation of
//! Transformer-based Form Field Extractors via Form Attacks*, see
//! PAPERS.md): models are trained on **clean** data exactly as in the
//! main experiments — baseline and FieldSwap arms alike — then evaluated
//! both on the clean hold-out test set and on attacked variants of it
//! ([`fieldswap_core::attacks`]). The per-attack macro-F1 *degradation*
//! (clean minus attacked) is the robustness measurement: FieldSwap's
//! claim of reduced key-phrase memorization predicts smaller
//! degradations for the augmented arms.
//!
//! A robustness grid is the main grid with attacked test sets added to
//! the scoring step: its cells run through the same fan-out, cached-cell
//! step and checkpoint record as [`Harness::run_grid`], and score the one
//! model [`Harness::run_single`] would score. Everything the main grid
//! guarantees carries over:
//!
//! * **Bit-identity across worker counts** — attacked test corpora
//!   derive their randomness per document from the master seed, never
//!   from scheduling.
//! * **Crash resilience** — completed cells persist through the attached
//!   [`crate::checkpoint::CellCache`] under the `rob-<suite hash>-`
//!   family, so a resumed grid is byte-identical to an uninterrupted one
//!   and one suite's records never answer another's lookups.
//! * **Graceful failure** — a cell that panics twice is dropped and
//!   counted in `failed_cells`, never fatal to the grid.

use crate::checkpoint::CellCoords;
use crate::runner::{mean_over, mix_coords, Arm, Harness};
use fieldswap_core::AttackKind;
use fieldswap_datagen::Domain;
use serde::{Deserialize, Serialize};

/// One attack in a robustness suite: a kind from the taxonomy and the
/// strength in `[0, 1]` it runs at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackSpec {
    /// Which perturbation to apply.
    pub kind: AttackKind,
    /// Attack strength in `[0, 1]` (clamped by the attack engine).
    pub strength: f64,
}

impl AttackSpec {
    /// The full taxonomy at one strength — the default suite.
    pub fn full_suite(strength: f64) -> Vec<AttackSpec> {
        AttackKind::ALL
            .into_iter()
            .map(|kind| AttackSpec { kind, strength })
            .collect()
    }

    /// Parses a comma-separated list of attack names (the `--attacks`
    /// flag) at one strength. Empty input or the word `all` selects the
    /// full taxonomy; an unknown name reports itself and the valid names.
    pub fn parse_list(list: &str, strength: f64) -> Result<Vec<AttackSpec>, String> {
        let trimmed = list.trim();
        if trimmed.is_empty() || trimmed == "all" {
            return Ok(Self::full_suite(strength));
        }
        trimmed
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|name| {
                AttackKind::parse(name)
                    .map(|kind| AttackSpec { kind, strength })
                    .ok_or_else(|| {
                        format!(
                            "unknown attack {name:?}; valid: {}",
                            AttackKind::ALL
                                .iter()
                                .map(|k| k.name())
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    })
            })
            .collect()
    }
}

/// Fingerprints an attack suite — kinds and strengths, in order — so
/// robustness records cached for one `--attacks`/`--attack-strength`
/// combination can never satisfy a lookup for another.
pub fn attacks_fingerprint(attacks: &[AttackSpec]) -> u64 {
    let mut coords = Vec::with_capacity(attacks.len() * 2 + 1);
    coords.push(attacks.len() as u64);
    for a in attacks {
        coords.push(a.kind.index());
        coords.push(a.strength.to_bits());
    }
    mix_coords(0xA77A_C3ED_7E57_0003, &coords)
}

/// The checkpoint family of a suite's cells: `rob-<suite hash>-`.
pub(crate) fn checkpoint_family(attacks: &[AttackSpec]) -> String {
    format!("rob-{:016x}-", attacks_fingerprint(attacks))
}

/// The outcome of one robustness cell: the clean F1s plus the F1s under
/// each attack of the suite (parallel to the suite's order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessResult {
    /// Macro-F1 on the clean test set, in points.
    pub clean_macro_f1: f64,
    /// Micro-F1 on the clean test set, in points.
    pub clean_micro_f1: f64,
    /// Macro-F1 on each attacked test set, in suite order.
    pub attacked_macro_f1: Vec<f64>,
    /// Micro-F1 on each attacked test set, in suite order.
    pub attacked_micro_f1: Vec<f64>,
    /// Synthetic documents generated by FieldSwap for this cell.
    pub n_synthetics: usize,
}

/// Mean F1 under one attack at one `(domain, size, arm)` point, with the
/// degradation relative to the clean mean.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackSummary {
    /// Attack name ([`AttackKind::name`]).
    pub attack: String,
    /// Strength the attack ran at.
    pub strength: f64,
    /// Mean macro-F1 under the attack, in points.
    pub macro_f1: f64,
    /// Mean micro-F1 under the attack, in points.
    pub micro_f1: f64,
    /// Clean mean macro-F1 minus attacked mean macro-F1 (positive =
    /// the attack hurt).
    pub degradation: f64,
}

/// The aggregated robustness measurement at one `(domain, size, arm)`
/// point: clean means, per-attack means and degradations, and the raw
/// per-cell results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessPoint {
    /// Domain name (paper spelling).
    pub domain: String,
    /// Training set size.
    pub size: usize,
    /// Arm label.
    pub arm: String,
    /// Mean clean macro-F1 over all runs.
    pub clean_macro_f1: f64,
    /// Mean clean micro-F1 over all runs.
    pub clean_micro_f1: f64,
    /// Per-attack means and degradations, in suite order.
    pub attacks: Vec<AttackSummary>,
    /// Cells that panicked twice and were dropped from the averages.
    pub failed_cells: usize,
    /// All individual cell results.
    pub runs: Vec<RobustnessResult>,
}

impl Harness {
    /// Runs one robustness cell: trains and freezes exactly as
    /// [`Harness::run_single`] does (int8 when `quantized` is set), then
    /// scores the clean test set and each attacked variant with that one
    /// model. Computes live; [`run_robustness_grid`](Self::run_robustness_grid)
    /// adds the checkpoint cache.
    pub fn run_robustness_cell(
        &self,
        coords: CellCoords,
        attacks: &[AttackSpec],
    ) -> RobustnessResult {
        let (domain, size, arm, sample_idx, trial_idx) = coords;
        let _cell_span = fieldswap_obs::span_tagged("robustness_cell", || {
            vec![
                ("domain", domain.name().to_string()),
                ("size", size.to_string()),
                ("arm", arm.label().to_string()),
                ("sample", sample_idx.to_string()),
                ("trial", trial_idx.to_string()),
                ("attacks", attacks.len().to_string()),
            ]
        });
        let (clean, attacked, n_synthetics) = self.score_cell(coords, attacks);
        RobustnessResult {
            clean_macro_f1: clean.macro_f1(),
            clean_micro_f1: clean.micro_f1(),
            attacked_macro_f1: attacked.iter().map(|e| e.macro_f1()).collect(),
            attacked_micro_f1: attacked.iter().map(|e| e.micro_f1()).collect(),
            n_synthetics,
        }
    }

    /// Runs every `(domain, size, arm)` point of a robustness grid
    /// through the grid fan-out of [`Harness::run_grid`]: `n_samples x
    /// n_trials` cells per point, averaged, with per-attack degradations.
    /// Summaries come back in the order of `points`, bit-identical for
    /// every `jobs` setting and across checkpoint resumes; cells that
    /// panic twice are dropped and counted in their point's
    /// `failed_cells`.
    pub fn run_robustness_grid(
        &self,
        points: &[(Domain, usize, Arm)],
        attacks: &[AttackSpec],
    ) -> Vec<RobustnessPoint> {
        let cells = self.fan_out(points, &checkpoint_family(attacks), |coords| {
            self.run_robustness_cell(coords, attacks)
        });
        points
            .iter()
            .zip(cells)
            .map(|(&(domain, size, arm), (runs, failed_cells))| {
                let clean_macro_f1 = mean_over(&runs, |r| r.clean_macro_f1);
                let attacks = attacks
                    .iter()
                    .enumerate()
                    .map(|(j, spec)| {
                        let macro_f1 = mean_over(&runs, |r| r.attacked_macro_f1[j]);
                        AttackSummary {
                            attack: spec.kind.name().to_string(),
                            strength: spec.strength,
                            macro_f1,
                            micro_f1: mean_over(&runs, |r| r.attacked_micro_f1[j]),
                            degradation: clean_macro_f1 - macro_f1,
                        }
                    })
                    .collect();
                RobustnessPoint {
                    domain: domain.name().to_string(),
                    size,
                    arm: arm.label().to_string(),
                    clean_macro_f1,
                    clean_micro_f1: mean_over(&runs, |r| r.clean_micro_f1),
                    attacks,
                    failed_cells,
                    runs,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CellCache;
    use crate::runner::HarnessOptions;
    use fieldswap_docmodel::{BBox, Corpus, Document, EntitySpan, Token};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tiny_options() -> HarnessOptions {
        HarnessOptions {
            n_samples: 1,
            n_trials: 1,
            pretrain_docs: 30,
            lexicon_docs: 50,
            neighbors: 12,
            test_cap: 40,
            epochs: 3,
            synth_ratio: 2.0,
            synthetic_cap: 300,
            seed: 0x7E57,
            jobs: 1,
            train_jobs: 1,
            quantized: false,
        }
    }

    fn tiny_suite() -> Vec<AttackSpec> {
        vec![
            AttackSpec {
                kind: AttackKind::TokenDrop,
                strength: 0.5,
            },
            AttackSpec {
                kind: AttackKind::BoxJitter,
                strength: 0.5,
            },
        ]
    }

    /// The one-point robustness grid at (FARA, 10, baseline).
    fn fara_baseline(h: &Harness, attacks: &[AttackSpec]) -> RobustnessPoint {
        h.run_robustness_grid(&[(Domain::Fara, 10, Arm::Baseline)], attacks)
            .pop()
            .expect("one point in, one summary out")
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let d = std::env::temp_dir().join(format!(
            "fieldswap-rob-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn parse_list_accepts_names_and_rejects_unknowns() {
        let all = AttackSpec::parse_list("all", 0.5).unwrap();
        assert_eq!(all.len(), AttackKind::ALL.len());
        assert_eq!(AttackSpec::parse_list("", 0.5).unwrap(), all);
        let two = AttackSpec::parse_list("token-drop, box-jitter", 0.25).unwrap();
        assert_eq!(two.len(), 2);
        assert_eq!(two[0].kind, AttackKind::TokenDrop);
        assert_eq!(two[1].kind, AttackKind::BoxJitter);
        assert!((two[0].strength - 0.25).abs() < 1e-12);
        let err = AttackSpec::parse_list("token-drop,nope", 0.5).unwrap_err();
        assert!(err.contains("nope") && err.contains("token-drop"), "{err}");
    }

    #[test]
    fn robustness_cell_reports_clean_and_attacked_f1() {
        let suite = tiny_suite();
        // A cell where int8 scoring moves the F1.
        let coords = (Domain::LoanPayments, 10, Arm::Baseline, 0, 0);
        let (domain, size, arm, sample, trial) = coords;
        let mut plain_macro_f1 = Vec::new();
        for quantized in [false, true] {
            let mut opts = tiny_options();
            opts.quantized = quantized;
            let h = Harness::new(opts);
            let r = h.run_robustness_cell(coords, &suite);
            assert_eq!(r.attacked_macro_f1.len(), 2);
            assert_eq!(r.attacked_micro_f1.len(), 2);
            for f1 in r.attacked_macro_f1.iter().chain(&r.attacked_micro_f1) {
                assert!(f1.is_finite() && *f1 >= 0.0 && *f1 <= 100.0);
            }
            // The clean evaluation matches the plain experiment path
            // exactly: same training, same frozen (int8 when quantized)
            // model, same test set, same numbers.
            let plain = h.run_single(domain, size, arm, sample, trial);
            assert_eq!(r.clean_macro_f1, plain.macro_f1, "quantized {quantized}");
            assert_eq!(r.clean_micro_f1, plain.micro_f1, "quantized {quantized}");
            assert_eq!(r.n_synthetics, plain.n_synthetics);
            plain_macro_f1.push(plain.macro_f1);
        }
        assert_ne!(plain_macro_f1[0], plain_macro_f1[1], "int8 left F1 unmoved");
    }

    #[test]
    fn robustness_grid_is_bit_identical_across_worker_counts() {
        let suite = tiny_suite();
        let points = [
            (Domain::Fara, 10, Arm::Baseline),
            (Domain::Fara, 10, Arm::AutoTypeToType),
        ];
        let mut opts = tiny_options();
        opts.jobs = 1;
        let serial = Harness::new(opts).run_robustness_grid(&points, &suite);
        opts.jobs = 4;
        let parallel = Harness::new(opts).run_robustness_grid(&points, &suite);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn robustness_resume_is_byte_identical() {
        let suite = tiny_suite();
        let points = [(Domain::Fara, 10, Arm::Baseline)];
        let dir = temp_dir("resume");
        let opts = tiny_options();

        let mut first = Harness::new(opts);
        first.attach_checkpoint(CellCache::create(&dir, &opts).unwrap());
        let a = first.run_robustness_grid(&points, &suite);

        // A fresh harness resuming from the directory loads every cell
        // from disk (exact f64 round-trip) instead of recomputing.
        let mut resumed = Harness::new(opts);
        resumed.attach_checkpoint(CellCache::open(&dir, &opts).unwrap());
        let b = resumed.run_robustness_grid(&points, &suite);
        assert_eq!(a, b);

        // And a no-checkpoint harness computing live agrees too.
        let live = Harness::new(opts).run_robustness_grid(&points, &suite);
        assert_eq!(a, live);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn robustness_cells_share_the_failure_hook_and_record_failures_under_the_suite() {
        let suite = tiny_suite();
        let mut opts = tiny_options();
        opts.n_trials = 2;
        let clean = fara_baseline(&Harness::new(opts), &suite);
        assert_eq!(clean.failed_cells, 0);

        // A persistent panic is counted, and its failure record lands
        // under the suite's `rob-` stem, not among plain grid cells.
        let dir = temp_dir("failed");
        let mut h = Harness::new(opts);
        h.attach_checkpoint(CellCache::create(&dir, &opts).unwrap());
        h.fail_cell_for_tests((Domain::Fara, 10, Arm::Baseline, 0, 1), usize::MAX);
        let p = fara_baseline(&h, &suite);
        assert_eq!(p.failed_cells, 1);
        assert_eq!(p.runs, clean.runs[..1]);
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        let family = checkpoint_family(&suite);
        let failed: Vec<&String> = names
            .iter()
            .filter(|n| n.ends_with(".failed.json"))
            .collect();
        assert_eq!(failed.len(), 1, "{names:?}");
        assert!(failed[0].starts_with(&family), "{names:?}");
        assert!(failed[0].ends_with("-0-1.failed.json"), "{names:?}");
        std::fs::remove_dir_all(&dir).unwrap();

        // One transient panic is retried to the clean summary.
        let h = Harness::new(opts);
        h.fail_cell_for_tests((Domain::Fara, 10, Arm::Baseline, 0, 0), 1);
        assert_eq!(fara_baseline(&h, &suite), clean);
    }

    #[test]
    fn degradation_is_clean_minus_attacked() {
        let h = Harness::new(tiny_options());
        let suite = tiny_suite();
        let p = fara_baseline(&h, &suite);
        assert_eq!(p.attacks.len(), suite.len());
        for (j, a) in p.attacks.iter().enumerate() {
            assert_eq!(a.attack, suite[j].kind.name());
            assert!((a.degradation - (p.clean_macro_f1 - a.macro_f1)).abs() < 1e-12);
        }
        assert!(serde_json::to_string(&p).is_ok());
    }

    #[test]
    fn empty_attack_suite_degrades_to_a_clean_evaluation() {
        let mut opts = tiny_options();
        opts.n_trials = 2;
        let h = Harness::new(opts);
        let p = fara_baseline(&h, &[]);
        assert_eq!(p.failed_cells, 0);
        assert_eq!(p.runs.len(), 2);
        assert!(p.attacks.is_empty());
        assert!(p.clean_macro_f1.is_finite());
    }

    #[test]
    fn divergence_injection_completes_the_grid() {
        let opts = tiny_options();
        let h = Harness::new(opts);
        let coords = (Domain::Fara, 10, Arm::Baseline, 0, 0);
        h.diverge_cell_for_tests(coords);
        let p = h.run_point(Domain::Fara, 10, Arm::Baseline);
        assert_eq!(p.failed_cells, 0, "divergence must recover, not fail");
        assert_eq!(p.runs.len(), 1);
        assert!(p.macro_f1.is_finite());
        // The recovered cell trained through a perturbed epoch order, so
        // it may differ from a clean run — but it must be deterministic.
        let h2 = Harness::new(opts);
        h2.diverge_cell_for_tests(coords);
        assert_eq!(p, h2.run_point(Domain::Fara, 10, Arm::Baseline));
    }

    #[test]
    fn degenerate_documents_are_sanitized_at_ingestion_and_the_grid_completes() {
        let opts = tiny_options();
        let h = Harness::new(opts);
        // Build a corpus whose documents fail validate(): NaN boxes,
        // empty token texts, overlapping and out-of-range annotations.
        let schema = fieldswap_datagen::Domain::Fara.generator().schema();
        let dirty_doc = |id: usize| {
            let mut tokens = Vec::new();
            for t in 0..12 {
                let x = 10.0 * t as f32;
                let bbox = match t % 4 {
                    0 => BBox {
                        x0: f32::NAN,
                        y0: 0.0,
                        x1: x + 8.0,
                        y1: 12.0,
                    },
                    1 => BBox {
                        x0: x,
                        y0: 20.0,
                        x1: x - 50.0,
                        y1: 5.0,
                    },
                    _ => BBox {
                        x0: x,
                        y0: 40.0,
                        x1: x + 8.0,
                        y1: 52.0,
                    },
                };
                let text = if t % 5 == 0 { "" } else { "word" };
                tokens.push(Token {
                    text: text.to_string(),
                    bbox,
                });
            }
            Document {
                id: format!("dirty-{id}"),
                tokens,
                lines: Vec::new(),
                annotations: vec![
                    EntitySpan {
                        field: 0,
                        start: 2,
                        end: 4,
                    },
                    EntitySpan {
                        field: 1,
                        start: 3,
                        end: 3,
                    },
                    EntitySpan {
                        field: 1,
                        start: 10,
                        end: 99,
                    },
                ],
            }
        };
        let docs: Vec<Document> = (0..30).map(dirty_doc).collect();
        let pool = Corpus::new(schema.clone(), docs[..20].to_vec());
        let test = Corpus::new(schema, docs[20..].to_vec());
        for d in &pool.documents {
            assert!(d.validate().is_err(), "fixture must start invalid");
        }
        h.inject_domain_data_for_tests(Domain::Fara, pool, test);
        // The full cell — sampling, augmentation, training, evaluation —
        // completes without panicking on the repaired corpus.
        let r = h.run_single(Domain::Fara, 10, Arm::Baseline, 0, 0);
        assert!(r.macro_f1.is_finite());
        let data = h.domain_data(Domain::Fara);
        for d in data.0.documents.iter().chain(&data.1.documents) {
            assert!(d.validate().is_ok(), "ingestion must leave valid docs");
        }
    }
}
