#![warn(missing_docs)]

//! # fieldswap-extract
//!
//! The form-extraction backbone: a **sequence-labeling** model over OCR
//! tokens, standing in for the neural sequence labeler the paper
//! fine-tunes (Section IV-B, "Backbone form extraction model").
//!
//! The model is an averaged **structured perceptron** over a linear chain
//! of BIOES tags with Viterbi decoding. Its feature set mirrors the signal
//! families that make form extractors behave the way FieldSwap expects:
//!
//! * **lexical** features of the token itself (text, shape, affixes, value
//!   type flags);
//! * **key-phrase anchor** features: the text of the nearest tokens to the
//!   left on the same line, vertically above, and the closest neighbors by
//!   off-axis distance — these carry the field-identifying key phrases;
//! * **layout** features: absolute page-grid position and line index — the
//!   memorization-prone cues that small training sets overfit to and that
//!   FieldSwap regularizes against;
//! * **corpus** features from an unsupervised pre-training pass
//!   ([`lexicon::Lexicon`]): document-frequency buckets distinguishing
//!   stable template words (key phrases) from variable values.
//!
//! Base-type **gating** prunes the tag space per token (a word can never
//! be a money amount), and the paper's **schema constraints** are applied
//! only at inference (single-instance fields keep their best-scoring
//! span), matching Section II-C.

pub mod features;
pub mod infer;
pub mod lexicon;
pub mod model;
pub mod serialize;
pub mod tags;

pub use infer::{FrozenModel, InferScratch};
pub use lexicon::Lexicon;
pub use model::{Extractor, TrainConfig, TrainReport};
pub use serialize::ModelIoError;
pub use tags::TagSet;

// The parallel harness trains extractors on worker threads against a
// shared lexicon; keep both `Send + Sync`.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<Extractor>();
    assert_sync_send::<FrozenModel>();
    assert_sync_send::<Lexicon>();
};
