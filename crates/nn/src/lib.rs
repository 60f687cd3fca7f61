#![warn(missing_docs)]

//! # fieldswap-nn
//!
//! A minimal, dependency-free neural-network stack: dense 2-D tensors, a
//! tape-based reverse-mode autograd, the Adam optimizer, and the
//! *sparsemax* transformation (Martins & Astudillo, 2016) that the paper
//! applies to neighbor importance scores (Section II-A2).
//!
//! This crate is the substrate for the candidate-based importance model of
//! the paper's Fig. 2 (implemented in `fieldswap-keyphrase`): hashed text
//! embeddings and relative-position embeddings per neighbor, a
//! self-attention encoder, max-pooling into a *Neighborhood Encoding*, and a
//! binary field head. Everything here is deterministic given a seed.
//!
//! ## Example
//! ```
//! use fieldswap_nn::{Adam, Init, ParamStore, Tape, Tensor};
//!
//! let mut params = ParamStore::new(42);
//! let w = params.tensor("w", 2, 1, Init::Xavier);
//! let mut opt = Adam::new(0.1);
//! for _ in 0..200 {
//!     let mut tape = Tape::new();
//!     let x = tape.constant(Tensor::from_rows(vec![vec![1.0, 2.0]]));
//!     let wv = tape.param(&params, w);
//!     let y = tape.matmul(x, wv);
//!     let loss = tape.bce_with_logits(y, &[1.0]);
//!     tape.backward(loss, &mut params);
//!     opt.step(&mut params);
//! }
//! // After training, the logit should be strongly positive.
//! let mut tape = Tape::new();
//! let x = tape.constant(Tensor::from_rows(vec![vec![1.0, 2.0]]));
//! let wv = tape.param(&params, w);
//! let y = tape.matmul(x, wv);
//! assert!(tape.value(y).data()[0] > 1.0);
//! ```

pub mod optim;
pub mod sparsemax;
pub mod tape;
pub mod tensor;

pub use optim::Adam;
pub use sparsemax::sparsemax;
pub use tape::{GradBuffer, Init, NodeId, ParamId, ParamStore, Tape};
pub use tensor::Tensor;

/// Cosine similarity between two equal-length vectors. Returns 0 when
/// either vector is all-zero.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "cosine of different lengths");
    let mut dot = 0.0f32;
    let mut na = 0.0f32;
    let mut nb = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na.sqrt() * nb.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_identical_is_one() {
        let v = [1.0, 2.0, -3.0];
        assert!((cosine_similarity(&v, &v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_orthogonal_is_zero() {
        assert_eq!(cosine_similarity(&[1.0, 0.0], &[0.0, 5.0]), 0.0);
    }

    #[test]
    fn cosine_opposite_is_minus_one() {
        assert!((cosine_similarity(&[1.0, 1.0], &[-2.0, -2.0]) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }
}
