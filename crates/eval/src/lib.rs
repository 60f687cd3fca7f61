#![warn(missing_docs)]

//! # fieldswap-eval
//!
//! The evaluation harness reproducing the paper's experimental protocol
//! (Section IV):
//!
//! * **Metrics** ([`metrics`]) — per-field precision/recall/F1 under exact
//!   span matching, plus macro- and micro-averaged F1.
//! * **Human expert** ([`expert`]) — curated FieldSwap configurations for
//!   the Earnings and Loan Payments domains: oracle key phrases (including
//!   phrases for rare fields absent from small training samples),
//!   exclusion of phrase-less fields, and pruned type-to-type pairs
//!   (Section III).
//! * **Runner** ([`runner`]) — one experiment = (domain, train size, arm,
//!   sample seed, trial seed): sample N documents from the pool, infer or
//!   load key phrases, build pairs, augment, train the backbone, evaluate
//!   on the fixed hold-out test set. The protocol layer repeats each point
//!   over 3 document samples x 3 training trials and averages (Section
//!   IV-B, "Evaluation").
//! * **Box-plot statistics** ([`boxplot`]) — quartiles, 1.5-IQR whiskers,
//!   and outliers for the per-field delta analysis of Fig. 6.
//! * **Parallelism** — the harness's `jobs` knob fans grids out over the
//!   scoped worker pool and exactly-once concurrent cache of
//!   [`fieldswap_parallel`], re-exported at this crate's root. Results are
//!   bit-identical to a serial run: every experiment's randomness derives
//!   purely from its `(domain, size, arm, sample, trial)` coordinates.
//!   Worker slots run under `catch_unwind` with one retry, so a poisoned
//!   cell degrades to a counted failure instead of killing the grid.
//! * **Checkpointing** ([`checkpoint`]) — per-cell JSON persistence keyed
//!   by grid coordinates plus an options fingerprint; a killed run
//!   resumed from its checkpoint directory produces byte-identical
//!   output to an uninterrupted one.
//! * **Robustness** ([`robustness`]) — the form-attack evaluation mode:
//!   train clean, evaluate on attacked test sets, report per-attack F1
//!   degradation. Its cells run through the grid's own fan-out, cell
//!   cache and scoring step, so it inherits the grid's parallelism,
//!   determinism, and checkpointing guarantees.

pub mod boxplot;
pub mod checkpoint;
pub mod expert;
pub mod metrics;
pub mod robustness;
pub mod runner;

pub use boxplot::BoxStats;
pub use checkpoint::{options_fingerprint, CellCache, CellCoords};
pub use expert::expert_config;
pub use fieldswap_parallel::{
    effective_jobs, par_map_indexed, par_try_map_indexed, OnceMap, SlotPanic,
};
pub use metrics::{evaluate, evaluate_frozen, EvalResult, FieldScore, QUANT_MACRO_F1_EPSILON};
pub use robustness::{
    attacks_fingerprint, AttackSpec, AttackSummary, RobustnessPoint, RobustnessResult,
};
pub use runner::{cell_seed, Arm, ExperimentResult, Harness, HarnessOptions, PointSummary};
