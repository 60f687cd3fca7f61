#![warn(missing_docs)]

//! # fieldswap-serve
//!
//! The online extraction service: long-running HTTP/JSON serving of
//! trained FieldSwap models on the frozen inference fast path.
//!
//! * [`registry`] — an immutable in-memory registry of
//!   [`FrozenModel`](fieldswap_extract::FrozenModel)s loaded from the
//!   `FSFROZN1` serialization format (f32 or int8), with template-match
//!   routing (lexicon overlap, in the spirit of form-template
//!   recognition services) and atomic hot reload.
//! * [`executor`] — a persistent `fieldswap-parallel` worker pool with
//!   per-worker `InferScratch` reuse: zero per-request scratch
//!   allocation once warm.
//! * [`server`] — the HTTP endpoints (`/v1/extract`, `/models`,
//!   `/reload`, `/metrics`, `/healthz`, `/quitquitquit`) built on the
//!   dependency-free server machinery in `fieldswap-obs`, instrumented
//!   with per-stage latency histograms and request/error counters, and
//!   hardened for overload: admission control with `503` + `Retry-After`
//!   shedding, per-request deadlines (`504`), panic isolation, and a
//!   `/reload` circuit breaker. A `/v1/extract` body is decoded in one
//!   pass, straight from JSON text into an [`ExtractRequest`].
//! * [`chaos`] — deterministic fault injection ([`FaultPlan`]) behind
//!   the hidden `serve --chaos` flag, driven by the chaos soak test
//!   (`tests/chaos_soak.rs`).
//!
//! The `fieldswap-serve` binary wraps this into `serve` / `train` /
//! `sample` subcommands (`--domain` is read by
//! [`Domain::parse`](fieldswap_datagen::Domain::parse)); `serve_bench`
//! loads a live server over real sockets and writes `BENCH_serve.json`.

pub mod chaos;
pub mod executor;
pub mod registry;
pub mod server;

pub use chaos::{Chaos, FaultPlan};
pub use executor::{Executor, PredictResult, ScoredSpans};
pub use registry::{match_score, ModelEntry, Registry, RegistrySnapshot, MODEL_EXT};
pub use server::{ExtractRequest, ServeConfig, ServeHandle};

use fieldswap_datagen::Domain;

/// The stable lowercase key a domain's model is registered under (file
/// stem of its `.fsm` in the model directory).
pub fn domain_key(domain: Domain) -> &'static str {
    match domain {
        Domain::Fara => "fara",
        Domain::FccForms => "fcc",
        Domain::Brokerage => "brokerage",
        Domain::Earnings => "earnings",
        Domain::LoanPayments => "loans",
        Domain::Invoices => "invoices",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_keys_round_trip() {
        for d in Domain::ALL {
            assert_eq!(Domain::parse(domain_key(d)), Some(d));
        }
        assert_eq!(Domain::parse("nope"), None);
    }
}
