#![warn(missing_docs)]

//! # fieldswap-core
//!
//! The paper's primary contribution: **FieldSwap**, a data augmentation
//! technique for form-like document extraction (Section II).
//!
//! Given a labeled example of a *source* field `S`, FieldSwap creates a
//! synthetic example for a *target* field `T` by replacing the key phrase
//! indicative of `S` in the document with a key phrase associated with `T`
//! and relabeling the `S` instances as `T`. The augmentation is governed by
//! two inputs (Section II):
//!
//! 1. the set of valid key phrases for each field ([`FieldSwapConfig`]);
//! 2. a list of source→target field pairs ([`PairStrategy`]):
//!    field-to-field, type-to-type, all-to-all, or a human-expert curated
//!    list.
//!
//! The engine operates at **document level** (Section II-C), so it is
//! agnostic to the extraction-model architecture. Following the paper's
//! deliberately simple implementation: one pair is swapped per synthetic
//! document, values are left unchanged, *all* matching source phrases are
//! replaced, all `S` instances are relabeled to `T`, and synthetics whose
//! text is unchanged by the replacement are discarded (this suppresses the
//! contradictory-pair hazard when two fields share a key phrase).
//!
//! ## Example
//! ```
//! use fieldswap_core::{FieldSwapConfig, PairStrategy, augment_corpus};
//! use fieldswap_datagen::{generate, Domain};
//!
//! let corpus = generate(Domain::Earnings, 7, 10);
//! // A config with oracle phrases (a human expert would supply these).
//! let mut config = FieldSwapConfig::new(corpus.schema.len());
//! for (name, phrases) in Domain::Earnings.generator().phrase_bank() {
//!     let id = corpus.schema.field_id(&name).unwrap();
//!     config.set_phrases(id, phrases);
//! }
//! config.set_pairs(PairStrategy::TypeToType.build(&corpus.schema, &config));
//! let (synthetics, stats) = augment_corpus(&corpus, &config);
//! assert_eq!(synthetics.len(), stats.generated);
//! ```

pub mod attacks;
pub mod config;
pub mod crossdomain;
pub mod engine;
pub mod mapping;
pub mod matcher;
pub mod valueswap;

pub use attacks::{attack_corpus, attack_document, AttackKind, STREAM_ATTACK};
pub use config::FieldSwapConfig;
pub use crossdomain::{augment_cross_domain, cross_pairs_by_type, CrossDomainSpec};
pub use engine::{
    augment_corpus, augment_corpus_with, augment_document, AugmentStats, EngineOptions, SwapPlan,
};
pub use mapping::PairStrategy;
pub use matcher::{find_phrase_matches, PhraseMatch};
pub use valueswap::{apply_value_swap, apply_value_swap_all, replace_range, ValueBank};
