//! The averaged structured perceptron with Viterbi decoding.
//!
//! Emission scores hash `(feature, tag)` pairs into a fixed weight table;
//! transition scores live in a dense `n_tags x n_tags` table but only
//! legal BIOES transitions are ever visited. Training follows the classic
//! collins-perceptron recipe with lazy averaging; inference applies the
//! schema's single-instance constraint by keeping the best-scoring span
//! per field (Section II-C: constraints at inference time only).
//!
//! Training decodes through the same structure-of-arrays kernels as
//! inference ([`crate::infer`]'s emission-row step and permuted-layout
//! Viterbi). A run interns every feature it visits once into a *live row
//! table* — row `i`, column `c` holds `w[bucket(f_i, inv[c])]` — and each
//! document becomes flat `u32` row-id lists. Every weight update is
//! written through to all row entries whose `(feature, tag)` hashes to
//! the updated bucket (distinct pairs alias in the 2^20-bucket table), and
//! every transition update to the layout, so the rows stay bit-equal to
//! the hashed weights. The hashed `w`/`trans` tables and their averaging
//! accumulators stay the model of record: averaging, freezing and
//! serialization read only them. The trained model is bit-identical to
//! the naive hashed-gather trainer the tests keep as their oracle.

#[cfg(test)]
use crate::features::{extract, gate_allows, DocFeatures};
use crate::features::{extract_into, FeatureScratch, FlatFeatures};
use crate::infer::{DecodeBufs, DecodeLayout, InferScratch, RowCache};
use crate::lexicon::Lexicon;
use crate::tags::{TagId, TagSet};
use fieldswap_docmodel::{BaseType, Corpus, Document, EntitySpan, Schema};
use fieldswap_parallel::WorkerPool;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// log2 of the emission weight-table size (2^20 = ~1M buckets).
const WEIGHT_BITS: u32 = 20;
pub(crate) const WEIGHT_DIM: usize = 1 << WEIGHT_BITS;

/// Score used for impossible tags/paths.
pub(crate) const NEG: f32 = -1e30;

/// Speculation window of the training loop: each epoch's shuffled plan
/// is processed in windows of this many documents, decoded in parallel
/// against the weights as they stood at window start. The serial merge
/// then walks the window in plan order, consuming each speculative
/// decode as long as no update has touched the weights since window
/// start, and re-decoding with the current weights from the first
/// update onward — so the applied update sequence is exactly the
/// textbook online perceptron.
///
/// Both this window size and [`TrainConfig::train_jobs`] are therefore
/// pure performance knobs: the trained model is bitwise-identical for
/// every setting of either, and identical to the strictly serial
/// decode-update loop. Speculation pays off in proportion to decode
/// accuracy: a correctly predicted document triggers no update and
/// keeps the rest of its window's speculative decodes valid, so warm
/// epochs — where mispredictions are rare — parallelize almost fully.
pub const TRAIN_BATCH: usize = 8;

/// Training configuration.
///
/// Every epoch visits **all original documents once** plus
/// `synth_ratio x N` synthetic documents drawn round-robin from the
/// synthetic pool. The baseline (no synthetics) instead repeats its
/// originals `1 + synth_ratio` times per epoch, so both arms perform the
/// same number of weight updates — the reproduction of the paper's "train
/// both models for the same amount of time" control (Section IV-B).
///
/// The epoch is processed in speculative decode windows of
/// [`TRAIN_BATCH`] documents (see there for the determinism contract);
/// `train_jobs` only chooses how many threads decode each window and
/// never changes the trained model.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Synthetic documents per original document per epoch.
    pub synth_ratio: f32,
    /// Shuffle seed.
    pub seed: u64,
    /// How many divergence recoveries (restart-with-replay) to attempt
    /// when an epoch produces a non-finite loss before giving up and
    /// scrubbing the non-finite weights in place. See
    /// [`Extractor::train_report`].
    pub max_divergence_retries: u32,
    /// Worker threads for the decode phase of each training window
    /// (0 = all cores, 1 = serial). Any value produces bitwise-identical
    /// models; >1 only changes wall-clock time.
    pub train_jobs: usize,
    /// Test-only divergence injection: a bitmask of epoch indices whose
    /// loss is forced to `NaN` on their *first* attempt (recovery retries
    /// of the same epoch run clean). Leave `0` outside of tests.
    #[doc(hidden)]
    pub inject_nan_epoch_mask: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 8,
            synth_ratio: 2.0,
            seed: 0,
            max_divergence_retries: 2,
            train_jobs: 1,
            inject_nan_epoch_mask: 0,
        }
    }
}

impl TrainConfig {
    /// A fast profile for unit tests.
    pub fn tiny() -> Self {
        Self {
            epochs: 3,
            synth_ratio: 2.0,
            seed: 0,
            ..Self::default()
        }
    }
}

/// What happened during one [`Extractor::train_mixed`] run, including the
/// divergence-recovery path: how many epochs actually executed (replays
/// included), how many non-finite epoch losses were observed, and whether
/// the run ended cleanly or had to scrub weights after exhausting its
/// retry budget.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrainReport {
    /// Epochs executed, counting replayed epochs from recovery restarts.
    pub epochs_run: usize,
    /// Non-finite epoch losses observed.
    pub divergences: u32,
    /// Restart-with-replay recoveries performed.
    pub retries: u32,
    /// Whether the retry budget ran out and non-finite weights were
    /// scrubbed to zero instead of retrained.
    pub exhausted: bool,
    /// The (finite) loss of the last epoch, summed hinge margins.
    pub final_loss: f64,
}

/// Derives the recovery shuffle seed for a diverged epoch: the SplitMix64
/// finalizer over the base seed salted with the epoch and attempt number,
/// so every retry of every epoch perturbs the visiting order differently
/// and deterministically.
fn recovery_seed(seed: u64, epoch: u64, attempt: u64) -> u64 {
    let mut z = seed
        ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ attempt.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One training document interned into the live row table.
struct TrainDoc {
    /// Row id of every feature, token-major, in extraction order.
    rows: Vec<u32>,
    /// End offset into `rows` of each token's features.
    ends: Vec<u32>,
    /// Type-gate mask per token.
    gates: Vec<u8>,
    /// Gold tag per token.
    gold: Vec<TagId>,
}

/// Marks an empty alias-index slot and the end of an entry chain.
const NO_ENTRY: u32 = u32::MAX;

/// Bucket-to-entries index of the live row table: which row entries
/// (positions in the row buffer) each weight bucket feeds. An
/// open-addressed map from bucket to the head of its chain, with the
/// chains threaded through `next` (one link per row-buffer position).
/// Sized by the run's interned entries, not by the weight table.
#[derive(Default)]
struct AliasIndex {
    keys: Vec<u32>,
    /// Chain head per slot; [`NO_ENTRY`] marks an empty slot.
    heads: Vec<u32>,
    len: usize,
    /// `next[pos]`: the next entry fed by the same bucket as `pos`.
    next: Vec<u32>,
}

impl AliasIndex {
    /// The slot holding bucket `b`, or the empty slot where it belongs.
    #[inline]
    fn slot(&self, b: u32) -> usize {
        // Multiply-shift (Fibonacci) hashing: buckets are already mixed
        // hash outputs, so one multiply spreads them well enough.
        let mask = self.heads.len() - 1;
        let mut i = (u64::from(b).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        while self.heads[i] != NO_ENTRY && self.keys[i] != b {
            i = (i + 1) & mask;
        }
        i
    }

    /// Links row-buffer position `pos` into bucket `b`'s chain.
    fn push(&mut self, b: u32, pos: u32) {
        if (self.len + 1) * 4 > self.heads.len() * 3 {
            self.grow();
        }
        let i = self.slot(b);
        if self.heads[i] == NO_ENTRY {
            self.keys[i] = b;
            self.len += 1;
        }
        self.next[pos as usize] = self.heads[i];
        self.heads[i] = pos;
    }

    /// The first entry fed by bucket `b` ([`NO_ENTRY`] when none is).
    #[inline]
    fn head(&self, b: u32) -> u32 {
        if self.heads.is_empty() {
            return NO_ENTRY;
        }
        self.heads[self.slot(b)]
    }

    fn grow(&mut self) {
        let cap = (self.heads.len() * 2).max(1024);
        let keys = std::mem::replace(&mut self.keys, vec![0; cap]);
        let heads = std::mem::replace(&mut self.heads, vec![NO_ENTRY; cap]);
        for (k, h) in keys.into_iter().zip(heads) {
            if h != NO_ENTRY {
                let i = self.slot(k);
                self.keys[i] = k;
                self.heads[i] = h;
            }
        }
    }
}

/// The trainer's live row table: every feature a run visits, interned
/// once, each row holding that feature's current weight for every tag in
/// the decode layout's column order. [`LiveRows::write_through`] keeps it
/// equal to the hashed weights.
struct LiveRows {
    cache: RowCache,
    /// Feature id of each row.
    fids: Vec<u64>,
    alias: AliasIndex,
    /// Row entries stored by write-throughs.
    writes: u64,
    /// Write-throughs that stored into more than one entry (an aliased
    /// bucket).
    aliased_writes: u64,
}

impl LiveRows {
    fn new(stride: usize) -> Self {
        let mut cache = RowCache::default();
        cache.reset(stride);
        LiveRows {
            cache,
            fids: Vec::new(),
            alias: AliasIndex::default(),
            writes: 0,
            aliased_writes: 0,
        }
    }

    fn rows(&self) -> &[f32] {
        &self.cache.rows
    }

    /// The row of feature `fid`, interning it (filled from `w`) on first
    /// sight.
    fn row_of(&mut self, layout: &DecodeLayout, w: &[f32], fid: u64) -> u32 {
        let (idx, inserted) = self.cache.get_or_insert(fid);
        if inserted {
            self.fids.push(fid);
            self.alias.next.resize(self.cache.rows.len(), NO_ENTRY);
            let base = idx as usize * layout.stride();
            for (c, b) in layout.row_buckets(fid).enumerate() {
                self.cache.rows[base + c] = w[b];
                let pos = u32::try_from(base + c).expect("row table outgrew u32 positions");
                self.alias.push(b as u32, pos);
            }
        }
        idx
    }

    /// Interns one extracted document with its gold tags.
    fn intern(
        &mut self,
        layout: &DecodeLayout,
        w: &[f32],
        feats: &FlatFeatures,
        gold: Vec<TagId>,
    ) -> TrainDoc {
        let n = feats.n_tokens();
        let mut doc = TrainDoc {
            rows: Vec::new(),
            ends: Vec::with_capacity(n),
            gates: feats.gates().to_vec(),
            gold,
        };
        for t in 0..n {
            for &fid in feats.row(t) {
                doc.rows.push(self.row_of(layout, w, fid));
            }
            doc.ends.push(doc.rows.len() as u32);
        }
        doc
    }

    /// Stores `v`, the new value of weight bucket `b`, into every row
    /// entry that bucket feeds.
    #[inline]
    fn write_through(&mut self, b: usize, v: f32) {
        let mut pos = self.alias.head(b as u32);
        let mut stored = 0u64;
        while pos != NO_ENTRY {
            self.cache.rows[pos as usize] = v;
            stored += 1;
            pos = self.alias.next[pos as usize];
        }
        self.writes += stored;
        self.aliased_writes += u64::from(stored > 1);
    }

    /// Reloads every row entry from `w` (after the weights were reset or
    /// scrubbed outside the update path).
    fn resync(&mut self, w: &[f32]) {
        for (&b, &head) in self.alias.keys.iter().zip(&self.alias.heads) {
            let mut pos = head;
            while pos != NO_ENTRY {
                self.cache.rows[pos as usize] = w[b as usize];
                pos = self.alias.next[pos as usize];
            }
        }
    }
}

/// Decodes one interned document into `b.tags`: the emission-row step per
/// token, then the permuted-layout Viterbi.
fn decode(layout: &DecodeLayout, rows: &[f32], doc: &TrainDoc, b: &mut DecodeBufs) {
    let n = doc.ends.len();
    layout.reserve(b, n);
    let mut start = 0usize;
    for (t, (&end, &gate)) in doc.ends.iter().zip(&doc.gates).enumerate() {
        layout.emission_row(b, t, rows, &doc.rows[start..end as usize], gate);
        start = end as usize;
    }
    layout.viterbi(b, n);
}

/// Visits one epoch's plan against an extractor's weights. The epoch
/// schedule ([`Extractor::run_schedule`]) drives the trainer through this
/// seam, so the tests can drive the naive reference trainer through the
/// very same schedule.
trait EpochRunner {
    /// Decodes every `(is_synthetic, index)` entry of `plan` in order,
    /// updating `ex` on each misprediction; returns the summed margins.
    fn run_epoch(&mut self, ex: &mut Extractor, plan: &[(bool, usize)]) -> f64;
    /// Re-reads any derived state after `ex`'s weights were reset or
    /// scrubbed.
    fn resync(&mut self, ex: &Extractor);
}

/// Per-window working state of one plan entry during the parallel
/// decode phase of training. Slots are owned by the trainer and reused
/// across windows, so a warm slot decodes without allocating.
#[derive(Default)]
struct TrainSlot {
    /// Decode buffers; the decoded tags stay in `dec.tags` until the
    /// merge phase has replayed the entry.
    dec: DecodeBufs,
    /// Whether the decode disagreed with gold (an update is due).
    mispredicted: bool,
}

/// Reusable working memory for extracting one first-visit synthetic.
#[derive(Default)]
struct FeatSlot {
    scratch: FeatureScratch,
    feats: FlatFeatures,
    gold: Vec<TagId>,
}

/// Run-local counters, flushed to the metrics registry once per run.
#[derive(Default)]
struct TrainCounters {
    decodes: u64,
    updates: u64,
    synth_hits: u64,
    synth_misses: u64,
    batches: u64,
    replays: u64,
}

/// The production trainer: decodes through the shared layout over the
/// live row table, speculatively in parallel windows.
struct LiveTrainer<'a> {
    synthetics: &'a [&'a Document],
    layout: DecodeLayout,
    live: LiveRows,
    originals: Vec<TrainDoc>,
    /// Synthetics, interned on first visit.
    synth: Vec<Option<TrainDoc>>,
    /// Decode workers. With `train_jobs <= 1` the pool is threadless and
    /// every closure runs inline on this thread.
    pool: WorkerPool,
    /// One decode slot per window position; grow-only.
    slots: Vec<Mutex<TrainSlot>>,
    /// Extraction slots for a window's first-visit synthetics, plus the
    /// list of their indices.
    feat_slots: Vec<Mutex<FeatSlot>>,
    uncached: Vec<usize>,
    /// Decode buffers of the serial path and of merge-phase re-decodes.
    serial: DecodeBufs,
    /// Per-worker decode counts (utilization).
    worker_docs: Vec<AtomicU64>,
    /// Whether metrics are on (gates the clock reads).
    timing: bool,
    counters: TrainCounters,
}

impl<'a> LiveTrainer<'a> {
    /// Builds the layout and row table for `ex` and interns the
    /// originals, which every epoch visits.
    fn new(
        ex: &Extractor,
        originals: &[&Document],
        synthetics: &'a [&'a Document],
        train_jobs: usize,
    ) -> Self {
        let layout = DecodeLayout::new(&ex.tags, &ex.field_types, &ex.trans);
        let mut live = LiveRows::new(layout.stride());
        let mut scratch = FeatureScratch::default();
        let mut feats = FlatFeatures::default();
        let originals = originals
            .iter()
            .map(|d| {
                extract_into(d, &ex.lexicon, &mut scratch, &mut feats);
                live.intern(&layout, &ex.w, &feats, ex.tags.encode(d))
            })
            .collect();
        let pool = WorkerPool::new(train_jobs);
        let worker_docs = (0..pool.jobs()).map(|_| AtomicU64::new(0)).collect();
        LiveTrainer {
            synthetics,
            layout,
            live,
            originals,
            synth: (0..synthetics.len()).map(|_| None).collect(),
            pool,
            slots: Vec::new(),
            feat_slots: Vec::new(),
            uncached: Vec::new(),
            serial: DecodeBufs::default(),
            worker_docs,
            timing: fieldswap_obs::metrics_enabled(),
            counters: TrainCounters::default(),
        }
    }

    /// Flushes the run's counters in one batch, so the hot loop never
    /// takes the registry lock.
    fn flush_counters(&self, epochs: usize) {
        let c = &self.counters;
        fieldswap_obs::counter_add("fieldswap_train_epochs_total", epochs as u64);
        fieldswap_obs::counter_add("fieldswap_train_decodes_total", c.decodes);
        fieldswap_obs::counter_add("fieldswap_train_updates_total", c.updates);
        fieldswap_obs::counter_add("fieldswap_synth_feature_cache_hits_total", c.synth_hits);
        fieldswap_obs::counter_add("fieldswap_synth_feature_cache_misses_total", c.synth_misses);
        fieldswap_obs::counter_add("fieldswap_train_batches_total", c.batches);
        fieldswap_obs::counter_add("fieldswap_train_replayed_decodes_total", c.replays);
        fieldswap_obs::counter_add("fieldswap_train_rows_total", self.live.fids.len() as u64);
        fieldswap_obs::counter_add("fieldswap_train_row_writes_total", self.live.writes);
        for (w, docs) in self.worker_docs.iter().enumerate() {
            fieldswap_obs::counter_add(
                &format!("fieldswap_train_worker_docs_total{{worker=\"{w}\"}}"),
                docs.load(Ordering::Relaxed),
            );
        }
    }
}

fn doc_of<'d>(
    originals: &'d [TrainDoc],
    synth: &'d [Option<TrainDoc>],
    (is_synth, i): (bool, usize),
) -> &'d TrainDoc {
    if is_synth {
        synth[i].as_ref().expect("interned before decoding")
    } else {
        &originals[i]
    }
}

impl EpochRunner for LiveTrainer<'_> {
    fn run_epoch(&mut self, ex: &mut Extractor, plan: &[(bool, usize)]) -> f64 {
        let LiveTrainer {
            synthetics,
            layout,
            live,
            originals,
            synth,
            pool,
            slots,
            feat_slots,
            uncached,
            serial,
            worker_docs,
            timing,
            counters,
        } = self;
        counters.decodes += plan.len() as u64;
        let mut loss = 0.0f64;
        let mut merge_ms = 0.0f64;
        for window in plan.chunks(TRAIN_BATCH) {
            counters.batches += 1;
            // Intern this window's first-visit synthetics before the
            // decode phase, which only reads the row table: extract in
            // parallel, intern serially in window order.
            uncached.clear();
            for &(is_synth, i) in window {
                if !is_synth {
                    continue;
                }
                if synth[i].is_some() || uncached.contains(&i) {
                    counters.synth_hits += 1;
                } else {
                    uncached.push(i);
                    counters.synth_misses += 1;
                }
            }
            if !uncached.is_empty() {
                while feat_slots.len() < uncached.len() {
                    feat_slots.push(Mutex::new(FeatSlot::default()));
                }
                let (lexicon, tags, todo) = (&ex.lexicon, &ex.tags, &*uncached);
                pool.for_each_slot(&feat_slots[..todo.len()], |_, j, slot| {
                    let d = synthetics[todo[j]];
                    extract_into(d, lexicon, &mut slot.scratch, &mut slot.feats);
                    slot.gold = tags.encode(d);
                });
                for (slot, &i) in feat_slots.iter_mut().zip(todo) {
                    let slot = slot.get_mut().expect("slot poisoned");
                    let gold = std::mem::take(&mut slot.gold);
                    synth[i] = Some(live.intern(layout, &ex.w, &slot.feats, gold));
                }
            }
            // One-thread reference path: decode with the current weights
            // and update immediately — the textbook online perceptron.
            // The speculative path below reproduces exactly this update
            // sequence; running it on one thread would just decode twice.
            if pool.jobs() <= 1 {
                let merge_t0 = timing.then(Instant::now);
                worker_docs[0].fetch_add(window.len() as u64, Ordering::Relaxed);
                for &entry in window {
                    let doc = doc_of(originals, synth, entry);
                    decode(layout, live.rows(), doc, serial);
                    if serial.tags != doc.gold {
                        loss += ex.update(live, layout, doc, &serial.tags);
                        counters.updates += 1;
                    }
                }
                if let Some(t0) = merge_t0 {
                    merge_ms += t0.elapsed().as_secs_f64() * 1e3;
                }
                continue;
            }
            // Decode phase: every entry of the window is decoded against
            // the rows as they stood at window start, on whichever worker
            // claims it first. Nothing writes the rows during this phase.
            while slots.len() < window.len() {
                slots.push(Mutex::new(TrainSlot::default()));
            }
            {
                let (layout, rows, originals, synth) =
                    (&*layout, live.rows(), &*originals, &*synth);
                let worker_docs = &*worker_docs;
                pool.for_each_slot(&slots[..window.len()], |worker, item, slot| {
                    worker_docs[worker].fetch_add(1, Ordering::Relaxed);
                    let doc = doc_of(originals, synth, window[item]);
                    decode(layout, rows, doc, &mut slot.dec);
                    slot.mispredicted = slot.dec.tags != doc.gold;
                });
            }
            // Merge phase, serial and in plan order. A window's
            // speculative decode is valid exactly until the first weight
            // update inside the window; from that point on each document
            // is re-decoded over the written-through rows. The applied
            // update sequence is therefore identical to the one-thread
            // path above for every jobs setting.
            let merge_t0 = timing.then(Instant::now);
            let mut dirty = false;
            for (slot, &entry) in slots.iter_mut().zip(window) {
                let doc = doc_of(originals, synth, entry);
                if dirty {
                    counters.replays += 1;
                    decode(layout, live.rows(), doc, serial);
                    if serial.tags != doc.gold {
                        loss += ex.update(live, layout, doc, &serial.tags);
                        counters.updates += 1;
                    }
                } else {
                    let slot = slot.get_mut().expect("slot poisoned");
                    if slot.mispredicted {
                        loss += ex.update(live, layout, doc, &slot.dec.tags);
                        counters.updates += 1;
                        dirty = true;
                    }
                }
            }
            if let Some(t0) = merge_t0 {
                merge_ms += t0.elapsed().as_secs_f64() * 1e3;
            }
        }
        if *timing {
            fieldswap_obs::observe("fieldswap_train_merge_ms", merge_ms);
        }
        loss
    }

    fn resync(&mut self, ex: &Extractor) {
        self.live.resync(&ex.w);
        self.layout.load_trans(&ex.trans);
    }
}

/// The sequence-labeling extractor.
pub struct Extractor {
    tags: TagSet,
    /// Field base types, indexed by field id (for tag gating).
    field_types: Vec<BaseType>,
    /// Emission weights, hashed by (feature, tag).
    w: Vec<f32>,
    /// Lazy-averaging accumulator for `w`.
    w_acc: Vec<f64>,
    /// Transition weights `[prev * n_tags + next]`.
    trans: Vec<f32>,
    trans_acc: Vec<f64>,
    /// Update counter for averaging.
    step: u64,
    /// Whether `finalize_average` has been applied.
    averaged: bool,
    lexicon: Lexicon,
    /// Divergence-recovery statistics from the last training run.
    train_report: TrainReport,
}

#[inline]
pub(crate) fn bucket(feature: u64, tag: TagId) -> usize {
    // Mix the tag into the feature hash (splitmix-style finalizer).
    let mut z = feature ^ (u64::from(tag)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    (z as usize) & (WEIGHT_DIM - 1)
}

impl Extractor {
    /// An untrained extractor for `schema`, with `lexicon` providing the
    /// pre-trained document-frequency features.
    pub fn new(schema: &Schema, lexicon: Lexicon) -> Self {
        let tags = TagSet::new(schema.len());
        let n_tags = tags.len();
        Self {
            tags,
            field_types: schema.iter().map(|(_, f)| f.base_type).collect(),
            w: vec![0.0; WEIGHT_DIM],
            w_acc: vec![0.0; WEIGHT_DIM],
            trans: vec![0.0; n_tags * n_tags],
            trans_acc: vec![0.0; n_tags * n_tags],
            step: 0,
            averaged: false,
            lexicon: Lexicon::empty(),
            train_report: TrainReport::default(),
        }
        .with_lexicon(lexicon)
    }

    fn with_lexicon(mut self, lexicon: Lexicon) -> Self {
        self.lexicon = lexicon;
        self
    }

    /// The tag set in use.
    pub fn tag_set(&self) -> &TagSet {
        &self.tags
    }

    /// The raw internals [`crate::infer::FrozenModel::freeze`] snapshots:
    /// `(tags, field_types, emission weights, transitions, lexicon)`.
    pub(crate) fn frozen_parts(&self) -> (&TagSet, &[BaseType], &[f32], &[f32], &Lexicon) {
        (
            &self.tags,
            &self.field_types,
            &self.w,
            &self.trans,
            &self.lexicon,
        )
    }

    /// Divergence-recovery statistics from the last training run; an
    /// untrained extractor reports the default (empty) record.
    pub fn train_report(&self) -> &TrainReport {
        &self.train_report
    }

    /// Applies one perceptron update and returns the pre-update hinge
    /// margin over the touched cells (predicted score minus gold score
    /// under the weights as they stood before this update). The per-epoch
    /// sum is the divergence signal watched by
    /// [`Extractor::train_mixed`]: a healthy run keeps it finite, and a
    /// corrupted weight table surfaces as `NaN`/`inf` here.
    ///
    /// Buckets are hashed only at mispredicted tokens, and every changed
    /// weight is written through to `live` and every changed transition
    /// to `layout`, so the next decode sees exactly the hashed tables.
    fn update(
        &mut self,
        live: &mut LiveRows,
        layout: &mut DecodeLayout,
        doc: &TrainDoc,
        pred: &[TagId],
    ) -> f64 {
        self.step += 1;
        let n_tags = self.tags.len();
        let step = self.step as f64;
        let gold = &doc.gold;
        let mut margin = 0.0f64;
        let mut start = 0usize;
        for t in 0..gold.len() {
            let end = doc.ends[t] as usize;
            if gold[t] != pred[t] {
                for &r in &doc.rows[start..end] {
                    let f = live.fids[r as usize];
                    let bg = bucket(f, gold[t]);
                    let bp = bucket(f, pred[t]);
                    margin += f64::from(self.w[bp] - self.w[bg]);
                    self.w[bg] += 1.0;
                    self.w_acc[bg] += step;
                    live.write_through(bg, self.w[bg]);
                    self.w[bp] -= 1.0;
                    self.w_acc[bp] -= step;
                    live.write_through(bp, self.w[bp]);
                }
            }
            start = end;
            if t > 0 && (gold[t] != pred[t] || gold[t - 1] != pred[t - 1]) {
                let (g0, g1) = (gold[t - 1] as usize, gold[t] as usize);
                let (p0, p1) = (pred[t - 1] as usize, pred[t] as usize);
                let ig = g0 * n_tags + g1;
                let ip = p0 * n_tags + p1;
                margin += f64::from(self.trans[ip] - self.trans[ig]);
                self.trans[ig] += 1.0;
                self.trans_acc[ig] += step;
                self.trans[ip] -= 1.0;
                self.trans_acc[ip] -= step;
                layout.set_trans(g0, g1, self.trans[ig]);
                layout.set_trans(p0, p1, self.trans[ip]);
            }
        }
        margin
    }

    /// Resets the trainable state to its untrained zero point, keeping the
    /// tag set, lexicon, and any interned feature caches held by the
    /// caller. Used by the divergence-recovery restart.
    fn reset_weights(&mut self) {
        self.w.fill(0.0);
        self.w_acc.fill(0.0);
        self.trans.fill(0.0);
        self.trans_acc.fill(0.0);
        self.step = 0;
    }

    /// Replaces non-finite weights and accumulators with zero — the
    /// last-resort repair once the divergence retry budget is exhausted,
    /// keeping the run alive (degraded, counted, logged) instead of
    /// propagating `NaN` into every later score.
    fn scrub_non_finite(&mut self) {
        for v in self.w.iter_mut().chain(self.trans.iter_mut()) {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
        for v in self.w_acc.iter_mut().chain(self.trans_acc.iter_mut()) {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
    }

    /// Trains on a plain document list: every epoch visits every document
    /// once (shuffled). See [`Extractor::train_mixed`] for the
    /// originals-plus-synthetics protocol. Applies lazy weight averaging
    /// at the end; the extractor cannot be trained further afterwards.
    pub fn train(&mut self, docs: &[&Document], cfg: &TrainConfig) {
        self.train_mixed(docs, &[], cfg);
    }

    /// Trains with the update-equalized mixing protocol described on
    /// [`TrainConfig`].
    pub fn train_mixed(
        &mut self,
        originals: &[&Document],
        synthetics: &[&Document],
        cfg: &TrainConfig,
    ) {
        self.train_live(originals, synthetics, cfg);
    }

    /// [`Extractor::train_mixed`], returning the run's live row table
    /// for inspection.
    fn train_live(
        &mut self,
        originals: &[&Document],
        synthetics: &[&Document],
        cfg: &TrainConfig,
    ) -> Option<LiveRows> {
        assert!(!self.averaged, "extractor already finalized");
        if originals.is_empty() {
            self.finalize_average();
            return None;
        }
        let mut runner = LiveTrainer::new(self, originals, synthetics, cfg.train_jobs);
        self.train_report = self.run_schedule(originals.len(), synthetics.len(), cfg, &mut runner);
        if runner.timing {
            runner.flush_counters(cfg.epochs);
        }
        self.finalize_average();
        Some(runner.live)
    }

    /// The epoch schedule: builds each epoch's shuffled visiting plan and
    /// hands it to `runner`, watching the epoch loss for divergence.
    ///
    /// Divergence recovery (restart-with-replay): when an epoch's loss
    /// goes non-finite, reset the weights and replay training from epoch
    /// 0 drawing the *same* rng stream, then perturb only the diverged
    /// epoch's visiting order with an extra shuffle from a derived
    /// recovery seed. A clean run draws zero extra random numbers, so the
    /// hardened path is bit-identical to the plain trainer.
    fn run_schedule(
        &mut self,
        n: usize,
        n_synth: usize,
        cfg: &TrainConfig,
        runner: &mut impl EpochRunner,
    ) -> TrainReport {
        let timing = fieldswap_obs::metrics_enabled();
        let per_epoch_synths = if n_synth == 0 {
            0
        } else {
            ((cfg.synth_ratio * n as f32).round() as usize)
                .max(1)
                .min(n_synth * cfg.epochs)
        };
        // Baseline equalization: the same number of updates via repeated
        // passes over the originals.
        let extra_repeats = if n_synth == 0 {
            cfg.synth_ratio.round() as usize
        } else {
            0
        };
        // Rebuilt (same contents, same shuffle draws) per attempt.
        let mut plan: Vec<(bool, usize)> =
            Vec::with_capacity(n * (1 + extra_repeats) + per_epoch_synths);
        // Epoch -> retry attempt count.
        let mut overrides: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
        let mut report = TrainReport::default();

        'attempt: loop {
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let mut synth_order: Vec<usize> = (0..n_synth).collect();
            synth_order.shuffle(&mut rng);
            let mut synth_cursor = 0usize;

            for epoch in 0..cfg.epochs {
                let epoch_t0 = timing.then(Instant::now);
                plan.clear();
                for _ in 0..=extra_repeats {
                    plan.extend((0..n).map(|i| (false, i)));
                }
                for _ in 0..per_epoch_synths {
                    plan.push((true, synth_order[synth_cursor % synth_order.len().max(1)]));
                    synth_cursor += 1;
                }
                plan.shuffle(&mut rng);
                if let Some(&attempt) = overrides.get(&epoch) {
                    // This epoch diverged before: perturb its visiting
                    // order (main stream above already advanced normally,
                    // keeping every other epoch's draws untouched).
                    let mut recovery =
                        StdRng::seed_from_u64(recovery_seed(cfg.seed, epoch as u64, attempt));
                    plan.shuffle(&mut recovery);
                }
                let mut epoch_loss = runner.run_epoch(self, &plan);
                if epoch < 64
                    && (cfg.inject_nan_epoch_mask >> epoch) & 1 == 1
                    && !overrides.contains_key(&epoch)
                {
                    epoch_loss = f64::NAN;
                }
                if let Some(t0) = epoch_t0 {
                    fieldswap_obs::observe(
                        "fieldswap_train_epoch_ms",
                        t0.elapsed().as_secs_f64() * 1e3,
                    );
                }
                report.epochs_run += 1;
                report.final_loss = epoch_loss;
                if !epoch_loss.is_finite() {
                    report.divergences += 1;
                    fieldswap_obs::counter_add("fieldswap_train_divergences_total", 1);
                    if report.retries >= cfg.max_divergence_retries {
                        // Retry budget spent: repair in place and keep
                        // going so the surrounding grid completes.
                        report.exhausted = true;
                        report.final_loss = 0.0;
                        self.scrub_non_finite();
                        runner.resync(self);
                        fieldswap_obs::counter_add("fieldswap_train_divergence_exhausted_total", 1);
                        continue;
                    }
                    report.retries += 1;
                    *overrides.entry(epoch).or_insert(0) += 1;
                    fieldswap_obs::counter_add("fieldswap_train_divergence_retries_total", 1);
                    self.reset_weights();
                    runner.resync(self);
                    continue 'attempt;
                }
            }
            break;
        }
        report
    }

    /// Applies the perceptron averaging: `w_avg = w - acc / (step + 1)`.
    fn finalize_average(&mut self) {
        let denom = (self.step + 1) as f64;
        for (w, acc) in self.w.iter_mut().zip(&self.w_acc) {
            *w -= (acc / denom) as f32;
        }
        for (w, acc) in self.trans.iter_mut().zip(&self.trans_acc) {
            *w -= (acc / denom) as f32;
        }
        self.averaged = true;
    }

    /// Extracts entity spans from a document, applying the schema
    /// constraint that each field keeps only its best-scoring instance
    /// (fields in all five paper domains are single-instance).
    ///
    /// Decodes through the frozen path, freezing the model on every call;
    /// batch callers should [`Extractor::freeze`] once and reuse one
    /// [`InferScratch`].
    pub fn predict(&self, doc: &Document) -> Vec<EntitySpan> {
        self.freeze().predict(doc, &mut InferScratch::default())
    }

    /// Convenience: trains a fresh extractor on a corpus plus synthetic
    /// documents.
    pub fn train_on(
        schema: &Schema,
        lexicon: Lexicon,
        originals: &Corpus,
        synthetics: &[Document],
        cfg: &TrainConfig,
    ) -> Extractor {
        let mut ex = Extractor::new(schema, lexicon);
        let orig: Vec<&Document> = originals.documents.iter().collect();
        let synth: Vec<&Document> = synthetics.iter().collect();
        ex.train_mixed(&orig, &synth, cfg);
        ex
    }
}

/// The naive hashed-gather trainer the tests compare the live trainer
/// against: `extract` + `viterbi_reference` + an on-the-fly update, driven
/// through the same epoch schedule.
#[cfg(test)]
struct ReferenceTrainer<'a> {
    synthetics: &'a [&'a Document],
    originals: Vec<(DocFeatures, Vec<TagId>)>,
    synth: Vec<Option<(DocFeatures, Vec<TagId>)>>,
}

#[cfg(test)]
impl EpochRunner for ReferenceTrainer<'_> {
    fn run_epoch(&mut self, ex: &mut Extractor, plan: &[(bool, usize)]) -> f64 {
        let mut loss = 0.0f64;
        for &(is_synth, i) in plan {
            let (feats, gold) = if is_synth {
                let d = self.synthetics[i];
                &*self.synth[i].get_or_insert_with(|| (extract(d, &ex.lexicon), ex.tags.encode(d)))
            } else {
                &self.originals[i]
            };
            let pred = ex.viterbi_reference(feats);
            if pred != *gold {
                loss += ex.update_reference(feats, gold, &pred);
            }
        }
        loss
    }

    fn resync(&mut self, _: &Extractor) {}
}

#[cfg(test)]
impl Extractor {
    /// A finalized extractor over arbitrary tables, for tests that need
    /// models training would never produce.
    pub(crate) fn from_tables(
        field_types: Vec<BaseType>,
        w: Vec<f32>,
        trans: Vec<f32>,
        lexicon: Lexicon,
    ) -> Extractor {
        Extractor {
            tags: TagSet::new(field_types.len()),
            field_types,
            w,
            w_acc: Vec::new(),
            trans,
            trans_acc: Vec::new(),
            step: 0,
            averaged: true,
            lexicon,
            train_report: TrainReport::default(),
        }
    }

    /// [`Extractor::train_mixed`] through the naive reference trainer.
    fn train_reference(
        &mut self,
        originals: &[&Document],
        synthetics: &[&Document],
        cfg: &TrainConfig,
    ) {
        if !originals.is_empty() {
            let mut runner = ReferenceTrainer {
                synthetics,
                originals: originals
                    .iter()
                    .map(|d| (extract(d, &self.lexicon), self.tags.encode(d)))
                    .collect(),
                synth: (0..synthetics.len()).map(|_| None).collect(),
            };
            self.train_report =
                self.run_schedule(originals.len(), synthetics.len(), cfg, &mut runner);
        }
        self.finalize_average();
    }

    /// The perceptron update with buckets hashed on the fly and no row
    /// table to keep in sync.
    fn update_reference(&mut self, feats: &DocFeatures, gold: &[TagId], pred: &[TagId]) -> f64 {
        self.step += 1;
        let n_tags = self.tags.len();
        let step = self.step as f64;
        let mut margin = 0.0f64;
        for t in 0..gold.len() {
            if gold[t] != pred[t] {
                for &f in &feats.features[t] {
                    let bg = bucket(f, gold[t]);
                    let bp = bucket(f, pred[t]);
                    margin += f64::from(self.w[bp] - self.w[bg]);
                    self.w[bg] += 1.0;
                    self.w_acc[bg] += step;
                    self.w[bp] -= 1.0;
                    self.w_acc[bp] -= step;
                }
            }
            if t > 0 && (gold[t] != pred[t] || gold[t - 1] != pred[t - 1]) {
                let ig = gold[t - 1] as usize * n_tags + gold[t] as usize;
                let ip = pred[t - 1] as usize * n_tags + pred[t] as usize;
                margin += f64::from(self.trans[ip] - self.trans[ig]);
                self.trans[ig] += 1.0;
                self.trans_acc[ig] += step;
                self.trans[ip] -= 1.0;
                self.trans_acc[ip] -= step;
            }
        }
        margin
    }

    /// Whether `tag` is admissible for a token with gate `mask`.
    fn tag_allowed(&self, tag: TagId, mask: u8) -> bool {
        match self.tags.parts(tag) {
            None => true,
            Some((f, _)) => gate_allows(mask, self.field_types[f as usize]),
        }
    }

    /// On-the-fly emission score: hash every `(feature, tag)` pair.
    fn emission(&self, features: &[u64], tag: TagId) -> f32 {
        features.iter().map(|&f| self.w[bucket(f, tag)]).sum()
    }

    /// The naive Viterbi: nested backpointer vectors, fresh allocations
    /// per step, hashing on the fly. The oracle the property tests
    /// compare the structure-of-arrays decoder against.
    fn viterbi_reference(&self, feats: &DocFeatures) -> Vec<TagId> {
        let n = feats.features.len();
        let n_tags = self.tags.len();
        if n == 0 {
            return Vec::new();
        }
        let mut score = vec![NEG; n_tags];
        let mut back: Vec<Vec<u16>> = Vec::with_capacity(n);

        let emis = |t: usize, tag: TagId| -> f32 {
            if self.tag_allowed(tag, feats.gates[t]) {
                self.emission(&feats.features[t], tag)
            } else {
                NEG
            }
        };

        for tag in 0..n_tags as u16 {
            if self.tags.can_start(tag) {
                score[tag as usize] = emis(0, tag);
            }
        }
        back.push(vec![0; n_tags]);

        for t in 1..n {
            let mut next = vec![NEG; n_tags];
            let mut bp = vec![0u16; n_tags];
            for tag in 0..n_tags as u16 {
                let e = emis(t, tag);
                if e <= NEG {
                    continue;
                }
                let mut best = NEG;
                let mut best_prev = 0u16;
                for &prev in self.tags.prev_allowed(tag) {
                    let s = score[prev as usize];
                    if s <= NEG {
                        continue;
                    }
                    let cand = s + self.trans[prev as usize * n_tags + tag as usize];
                    if cand > best {
                        best = cand;
                        best_prev = prev;
                    }
                }
                if best > NEG {
                    next[tag as usize] = best + e;
                    bp[tag as usize] = best_prev;
                }
            }
            score = next;
            back.push(bp);
        }

        let mut best_tag = 0u16;
        let mut best = NEG;
        for tag in 0..n_tags as u16 {
            if self.tags.can_end(tag) && score[tag as usize] > best {
                best = score[tag as usize];
                best_tag = tag;
            }
        }
        let mut tags = vec![0u16; n];
        tags[n - 1] = best_tag;
        for t in (1..n).rev() {
            tags[t - 1] = back[t][tags[t] as usize];
        }
        tags
    }

    /// Naive prediction: the reference Viterbi plus the single-instance
    /// constraint scored by on-the-fly emissions (mean emission per span,
    /// the first span kept on ties).
    pub(crate) fn predict_reference(&self, doc: &Document) -> Vec<EntitySpan> {
        let feats = extract(doc, &self.lexicon);
        let spans = self.tags.decode(&self.viterbi_reference(&feats));
        let mut best: std::collections::HashMap<u16, (f32, EntitySpan)> =
            std::collections::HashMap::new();
        for s in spans {
            let mut score = 0.0f32;
            for t in s.start..s.end {
                let part = match (t == s.start, t + 1 == s.end) {
                    (true, true) => 3,  // S
                    (true, false) => 0, // B
                    (false, true) => 2, // E
                    (false, false) => 1,
                };
                let tag = self.tags.tag(s.field, part);
                score += self.emission(&feats.features[t as usize], tag);
            }
            score /= (s.end - s.start) as f32;
            match best.get(&s.field) {
                Some((b, _)) if *b >= score => {}
                _ => {
                    best.insert(s.field, (score, s));
                }
            }
        }
        let mut out: Vec<EntitySpan> = best.into_values().map(|(_, s)| s).collect();
        out.sort_by_key(|s| (s.start, s.end));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fieldswap_datagen::{generate, Domain};

    fn exact_match_rate(ex: &Extractor, test: &Corpus) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for d in &test.documents {
            let pred = ex.predict(d);
            for a in &d.annotations {
                total += 1;
                if pred.contains(a) {
                    correct += 1;
                }
            }
        }
        correct as f64 / total.max(1) as f64
    }

    #[test]
    fn learns_invoices_with_enough_data() {
        let train = generate(Domain::Invoices, 1, 120);
        let test = generate(Domain::Invoices, 2, 30);
        let lex = Lexicon::pretrain(&train.documents);
        let ex = Extractor::train_on(
            &train.schema,
            lex,
            &train,
            &[],
            &TrainConfig {
                epochs: 5,
                synth_ratio: 2.0,
                seed: 1,
                ..TrainConfig::default()
            },
        );
        let rate = exact_match_rate(&ex, &test);
        assert!(rate > 0.5, "exact-match rate too low: {rate}");
    }

    #[test]
    fn small_training_set_underperforms_large() {
        let pool = generate(Domain::Earnings, 3, 150);
        let test = generate(Domain::Earnings, 4, 30);
        let lex = Lexicon::pretrain(&pool.documents);
        let small = Corpus::new(pool.schema.clone(), pool.documents[..10].to_vec());
        let cfg = TrainConfig {
            epochs: 5,
            synth_ratio: 0.0,
            seed: 2,
            ..TrainConfig::default()
        };
        let ex_small = Extractor::train_on(&small.schema, lex.clone(), &small, &[], &cfg);
        let ex_large = Extractor::train_on(&pool.schema, lex, &pool, &[], &cfg);
        let r_small = exact_match_rate(&ex_small, &test);
        let r_large = exact_match_rate(&ex_large, &test);
        assert!(
            r_large > r_small,
            "150 docs ({r_large}) should beat 10 docs ({r_small})"
        );
    }

    #[test]
    fn predictions_are_valid_spans() {
        let train = generate(Domain::Fara, 5, 40);
        let lex = Lexicon::empty();
        let ex = Extractor::train_on(&train.schema, lex, &train, &[], &TrainConfig::tiny());
        for d in &train.documents[..10] {
            let pred = ex.predict(d);
            for s in &pred {
                assert!(s.end <= d.tokens.len() as u32);
                assert!((s.field as usize) < train.schema.len());
            }
            // Constraint: at most one span per field.
            let mut fields: Vec<u16> = pred.iter().map(|s| s.field).collect();
            fields.sort_unstable();
            let before = fields.len();
            fields.dedup();
            assert_eq!(fields.len(), before, "duplicate field instances");
        }
    }

    #[test]
    fn gating_blocks_impossible_tags() {
        let train = generate(Domain::Earnings, 7, 60);
        let lex = Lexicon::empty();
        let ex = Extractor::train_on(&train.schema, lex, &train, &[], &TrainConfig::tiny());
        let money_fields: Vec<u16> = train
            .schema
            .iter()
            .filter(|(_, f)| f.base_type == BaseType::Money)
            .map(|(id, _)| id)
            .collect();
        for d in &train.documents[..10] {
            for s in ex.predict(d) {
                if money_fields.contains(&s.field) {
                    // Every predicted money span must be numeric-ish.
                    for t in s.start..s.end {
                        let text = &d.tokens[t as usize].text;
                        assert!(
                            gate_allows(crate::features::type_gate(text), BaseType::Money),
                            "money field predicted over non-money token {text:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_training() {
        let train = generate(Domain::Fara, 9, 20);
        let run = || {
            let ex = Extractor::train_on(
                &train.schema,
                Lexicon::empty(),
                &train,
                &[],
                &TrainConfig::tiny(),
            );
            ex.predict(&train.documents[0])
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clean_training_reports_no_divergence() {
        let train = generate(Domain::Fara, 9, 20);
        let ex = Extractor::train_on(
            &train.schema,
            Lexicon::empty(),
            &train,
            &[],
            &TrainConfig::tiny(),
        );
        let r = ex.train_report();
        assert_eq!(r.epochs_run, 3);
        assert_eq!(r.divergences, 0);
        assert_eq!(r.retries, 0);
        assert!(!r.exhausted);
        assert!(r.final_loss.is_finite());
    }

    #[test]
    fn injected_divergence_recovers_deterministically() {
        let train = generate(Domain::Fara, 21, 20);
        let cfg = TrainConfig {
            inject_nan_epoch_mask: 0b10, // epoch 1 diverges on first attempt
            ..TrainConfig::tiny()
        };
        let run = || {
            let ex = Extractor::train_on(&train.schema, Lexicon::empty(), &train, &[], &cfg);
            let report = *ex.train_report();
            (report, ex.predict(&train.documents[0]))
        };
        let (report, pred) = run();
        assert_eq!(report.divergences, 1);
        assert_eq!(report.retries, 1);
        assert!(!report.exhausted);
        // Restart replays epochs 0 and 1, then runs 2: 3 + 1 extra.
        assert_eq!(report.epochs_run, 3 + 2);
        assert!(report.final_loss.is_finite());
        // The whole recovery path is seeded: a second run is identical.
        let (report2, pred2) = run();
        assert_eq!(report, report2);
        assert_eq!(pred, pred2);
        // The recovered model still works (produces valid spans).
        for s in &pred {
            assert!(s.end <= train.documents[0].tokens.len() as u32);
        }
    }

    #[test]
    fn exhausted_divergence_budget_is_graceful() {
        let train = generate(Domain::Fara, 22, 15);
        let cfg = TrainConfig {
            inject_nan_epoch_mask: 0b111, // every epoch's first attempt diverges
            max_divergence_retries: 1,
            ..TrainConfig::tiny()
        };
        let ex = Extractor::train_on(&train.schema, Lexicon::empty(), &train, &[], &cfg);
        let r = *ex.train_report();
        assert_eq!(r.retries, 1);
        assert!(r.exhausted);
        assert!(r.divergences >= 2);
        // No panic, and predictions contain no poison.
        let pred = ex.predict(&train.documents[0]);
        for s in &pred {
            assert!(s.end <= train.documents[0].tokens.len() as u32);
        }
    }

    #[test]
    fn divergence_guard_is_inert_on_clean_runs() {
        // The hardened trainer must be draw-for-draw identical to a run
        // with a huge retry budget (no recovery rng is consumed unless a
        // divergence actually happens).
        let train = generate(Domain::Earnings, 23, 15);
        let base = TrainConfig::tiny();
        let lots = TrainConfig {
            max_divergence_retries: 1000,
            ..TrainConfig::tiny()
        };
        let run = |cfg: &TrainConfig| {
            let ex = Extractor::train_on(&train.schema, Lexicon::empty(), &train, &[], cfg);
            train
                .documents
                .iter()
                .map(|d| ex.predict(d))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(&base), run(&lots));
    }

    #[test]
    fn empty_document_predicts_nothing() {
        let train = generate(Domain::Fara, 9, 10);
        let ex = Extractor::train_on(
            &train.schema,
            Lexicon::empty(),
            &train,
            &[],
            &TrainConfig::tiny(),
        );
        let empty = Document {
            id: "empty".into(),
            ..Default::default()
        };
        assert!(ex.predict(&empty).is_empty());
    }

    #[test]
    #[should_panic(expected = "already finalized")]
    fn double_train_panics() {
        let train = generate(Domain::Fara, 9, 5);
        let mut ex = Extractor::new(&train.schema, Lexicon::empty());
        let docs: Vec<&Document> = train.documents.iter().collect();
        ex.train(&docs, &TrainConfig::tiny());
        ex.train(&docs, &TrainConfig::tiny());
    }

    #[test]
    fn proptest_scratch_viterbi_matches_reference() {
        // The structure-of-arrays decoder over a live row table must
        // reproduce the naive reference decoder exactly — same tags, bit
        // for bit — across random weights, features, and gate masks,
        // including when one set of decode buffers is reused across
        // documents.
        use proptest::prelude::*;
        use proptest::test_runner::{Config, TestRunner};
        let schema = generate(Domain::Earnings, 1, 1).schema;
        let mut runner = TestRunner::new(Config::with_cases(48));
        runner
            .run(
                &(
                    // Two documents per case (buffer reuse), each up to 12
                    // tokens with up to 6 features.
                    proptest::collection::vec(
                        proptest::collection::vec(
                            (proptest::collection::vec(0u64..=u64::MAX, 1..6), 0u8..=255),
                            0..12,
                        ),
                        2,
                    ),
                    proptest::collection::vec(-2.0f32..2.0, 64),
                    proptest::collection::vec(-1.0f32..1.0, 32),
                ),
                |(docs, wvals, tvals)| {
                    let mut ex = Extractor::new(&schema, Lexicon::empty());
                    for (i, w) in ex.w.iter_mut().enumerate() {
                        *w = wvals[i % wvals.len()];
                    }
                    for (i, t) in ex.trans.iter_mut().enumerate() {
                        *t = tvals[i % tvals.len()];
                    }
                    let layout = DecodeLayout::new(&ex.tags, &ex.field_types, &ex.trans);
                    let mut live = LiveRows::new(layout.stride());
                    let mut bufs = DecodeBufs::default();
                    for tokens in &docs {
                        let feats = DocFeatures {
                            features: tokens.iter().map(|(fs, _)| fs.clone()).collect(),
                            gates: tokens.iter().map(|&(_, g)| g).collect(),
                        };
                        let reference = ex.viterbi_reference(&feats);
                        let mut doc = TrainDoc {
                            rows: Vec::new(),
                            ends: Vec::new(),
                            gates: feats.gates.clone(),
                            gold: vec![0; tokens.len()],
                        };
                        for fs in &feats.features {
                            for &f in fs {
                                doc.rows.push(live.row_of(&layout, &ex.w, f));
                            }
                            doc.ends.push(doc.rows.len() as u32);
                        }
                        decode(&layout, live.rows(), &doc, &mut bufs);
                        prop_assert_eq!(&bufs.tags, &reference);
                    }
                    Ok(())
                },
            )
            .unwrap();
    }

    #[test]
    fn augmentation_with_oracle_phrases_helps_rare_field() {
        // End-to-end sanity of the FieldSwap premise on a tiny scale:
        // with 15 training docs, rare fields have few examples; swapping
        // in type-to-type synthetics should not hurt and usually helps.
        use fieldswap_core::{augment_corpus, FieldSwapConfig, PairStrategy};
        let pool = generate(Domain::Earnings, 13, 15);
        let test = generate(Domain::Earnings, 14, 40);
        let lex = Lexicon::pretrain(&pool.documents);
        let mut config = FieldSwapConfig::new(pool.schema.len());
        for (name, phrases) in Domain::Earnings.generator().phrase_bank() {
            let id = pool.schema.field_id(&name).unwrap();
            config.set_phrases(id, phrases);
        }
        config.set_pairs(PairStrategy::TypeToType.build(&pool.schema, &config));
        let (synths, stats) = augment_corpus(&pool, &config);
        assert!(stats.generated > 0);
        let cfg = TrainConfig {
            epochs: 4,
            synth_ratio: 2.0,
            seed: 3,
            ..TrainConfig::default()
        };
        let base = Extractor::train_on(&pool.schema, lex.clone(), &pool, &[], &cfg);
        let aug = Extractor::train_on(&pool.schema, lex, &pool, &synths, &cfg);
        let r_base = exact_match_rate(&base, &test);
        let r_aug = exact_match_rate(&aug, &test);
        // Allow slack — this is a sanity check, not the experiment.
        assert!(
            r_aug + 0.05 >= r_base,
            "augmentation should be ~neutral or better: base {r_base} aug {r_aug}"
        );
    }

    #[test]
    fn parallel_training_is_bitwise_identical_to_serial() {
        // The whole determinism contract: `train_jobs` may only change
        // wall-clock time. Compare the *serialized* models — weights,
        // transitions, lexicon, everything — bit for bit.
        let train = generate(Domain::Earnings, 31, 20);
        let synths = generate(Domain::Earnings, 32, 15).documents;
        let run = |jobs: usize| {
            let ex = Extractor::train_on(
                &train.schema,
                Lexicon::pretrain(&train.documents),
                &train,
                &synths,
                &TrainConfig {
                    train_jobs: jobs,
                    ..TrainConfig::tiny()
                },
            );
            (*ex.train_report(), ex.freeze().to_bytes().unwrap())
        };
        let serial = run(1);
        for jobs in [2, 3, 8] {
            assert_eq!(serial, run(jobs), "train_jobs={jobs} diverged from serial");
        }
    }

    #[test]
    fn parallel_training_identity_survives_divergence_recovery() {
        // The restart-with-replay recovery path re-shuffles epochs with
        // override seeds; parallel decode must not perturb any of it.
        let train = generate(Domain::Fara, 33, 18);
        let run = |jobs: usize| {
            let cfg = TrainConfig {
                inject_nan_epoch_mask: 0b10,
                train_jobs: jobs,
                ..TrainConfig::tiny()
            };
            let ex = Extractor::train_on(&train.schema, Lexicon::empty(), &train, &[], &cfg);
            (*ex.train_report(), ex.freeze().to_bytes().unwrap())
        };
        let (report1, bytes1) = run(1);
        assert_eq!(report1.retries, 1);
        assert_eq!(report1.epochs_run, 3 + 2);
        let (report4, bytes4) = run(4);
        assert_eq!(report1, report4);
        assert_eq!(bytes1, bytes4);
    }

    #[test]
    fn proptest_train_jobs_invariance() {
        // Random corpora, epoch counts, synth ratios, seeds, and thread
        // counts: the trained model never depends on `train_jobs`.
        use proptest::prelude::*;
        use proptest::test_runner::{Config, TestRunner};
        let pool = generate(Domain::Fara, 41, 24);
        let synth_pool = generate(Domain::Fara, 42, 12).documents;
        let mut runner = TestRunner::new(Config::with_cases(12));
        runner
            .run(
                &(
                    2usize..=8,  // jobs
                    1usize..=3,  // epochs
                    0u8..=4,     // synth_ratio halves (0.0..=2.0)
                    0u64..=3,    // seed
                    3usize..=24, // corpus size
                ),
                |(jobs, epochs, ratio_halves, seed, n_docs)| {
                    let train = Corpus::new(pool.schema.clone(), pool.documents[..n_docs].to_vec());
                    let run = |train_jobs: usize| {
                        let ex = Extractor::train_on(
                            &train.schema,
                            Lexicon::empty(),
                            &train,
                            &synth_pool,
                            &TrainConfig {
                                epochs,
                                synth_ratio: ratio_halves as f32 * 0.5,
                                seed,
                                train_jobs,
                                ..TrainConfig::default()
                            },
                        );
                        ex.freeze().to_bytes().unwrap()
                    };
                    prop_assert_eq!(run(1), run(jobs));
                    Ok(())
                },
            )
            .unwrap();
    }

    /// FNV-1a (64-bit, canonical constants) of a model's FSFROZN1 bytes.
    fn model_digest(ex: &Extractor) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for &b in &ex.freeze().to_bytes().unwrap() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01B3);
        }
        h
    }

    /// A fixed Earnings cell with type-to-type synthetics from the
    /// generator's phrase bank.
    fn earnings_synthetic_cell(jobs: usize) -> Extractor {
        use fieldswap_core::{augment_corpus, FieldSwapConfig, PairStrategy};
        let pool = generate(Domain::Earnings, 61, 12);
        let mut config = FieldSwapConfig::new(pool.schema.len());
        for (name, phrases) in Domain::Earnings.generator().phrase_bank() {
            config.set_phrases(pool.schema.field_id(&name).unwrap(), phrases);
        }
        config.set_pairs(PairStrategy::TypeToType.build(&pool.schema, &config));
        let (mut synths, _) = augment_corpus(&pool, &config);
        synths.truncate(40);
        let cfg = TrainConfig {
            epochs: 3,
            seed: 5,
            train_jobs: jobs,
            ..TrainConfig::default()
        };
        let lex = Lexicon::pretrain(&pool.documents);
        Extractor::train_on(&pool.schema, lex, &pool, &synths, &cfg)
    }

    /// A fixed Loan baseline cell (no synthetics).
    fn loan_baseline_cell(jobs: usize) -> Extractor {
        let pool = generate(Domain::LoanPayments, 62, 15);
        let cfg = TrainConfig {
            epochs: 3,
            seed: 6,
            train_jobs: jobs,
            ..TrainConfig::default()
        };
        let lex = Lexicon::pretrain(&pool.documents);
        Extractor::train_on(&pool.schema, lex, &pool, &[], &cfg)
    }

    #[test]
    fn trained_model_digests_are_pinned() {
        // Cross-commit anchor: the `freeze().to_bytes()` bytes of two
        // fixed cells — the first with synthetics, the second a
        // baseline. The values were computed before FSFROZN1 became the
        // only model format, by the same, unchanged FSFROZN1 writer, so
        // they pin the trained tables across that change. Any drift in
        // decoding, update order or write-through shows up here.
        for jobs in [1, 4] {
            assert_eq!(
                model_digest(&earnings_synthetic_cell(jobs)),
                0x0f9e_92c4_1b47_a7fd,
                "earnings + synthetics, train_jobs={jobs}"
            );
            assert_eq!(
                model_digest(&loan_baseline_cell(jobs)),
                0x6942_3136_32e1_2d37,
                "loan baseline, train_jobs={jobs}"
            );
        }
    }

    #[test]
    fn proptest_live_trainer_matches_reference() {
        // The live-row trainer against the naive hashed-gather trainer
        // over the same epoch schedule: identical serialized models and
        // identical reports across random corpora, synthetic pools,
        // epochs, ratios, seeds and thread counts — with clean runs, one
        // injected divergence (reset + replay), and an exhausted retry
        // budget (reset, then scrub). Every run must also have written
        // through an aliased bucket, the case a per-entry write would
        // get wrong.
        use proptest::prelude::*;
        use proptest::test_runner::{Config, TestRunner};
        let pool = generate(Domain::Fara, 71, 16);
        let synth_pool = generate(Domain::Fara, 72, 10).documents;
        let lex = Lexicon::pretrain(&pool.documents);
        let mut modes = [0usize; 3];
        let mut runner = TestRunner::new(Config::with_cases(12));
        runner
            .run(
                &(
                    (
                        1usize..=8, // train_jobs
                        1usize..=3, // epochs
                        0u8..=4,    // synth_ratio halves (0.0..=2.0)
                        0u64..=7,   // seed
                    ),
                    (
                        4usize..=16, // originals
                        0usize..=10, // synthetics
                        0usize..=2,  // divergence mode
                    ),
                ),
                |((jobs, epochs, ratio_halves, seed), (n_docs, n_synth, mode))| {
                    modes[mode] += 1;
                    let (epochs, mask, retries) = match mode {
                        0 => (epochs, 0, 2),
                        1 => (epochs, 1 << (seed as usize % epochs), 2),
                        // Every first attempt diverges: epoch 0 spends
                        // the one retry, epoch 1 exhausts the budget.
                        _ => (epochs.max(2), u64::MAX, 1),
                    };
                    let cfg = TrainConfig {
                        epochs,
                        synth_ratio: f32::from(ratio_halves) * 0.5,
                        seed,
                        max_divergence_retries: retries,
                        train_jobs: jobs,
                        inject_nan_epoch_mask: mask,
                    };
                    let originals: Vec<&Document> = pool.documents[..n_docs].iter().collect();
                    let synthetics: Vec<&Document> = synth_pool[..n_synth].iter().collect();
                    let mut live = Extractor::new(&pool.schema, lex.clone());
                    let rows = live
                        .train_live(&originals, &synthetics, &cfg)
                        .expect("non-empty corpus");
                    let mut reference = Extractor::new(&pool.schema, lex.clone());
                    reference.train_reference(&originals, &synthetics, &cfg);
                    prop_assert_eq!(live.train_report(), reference.train_report());
                    prop_assert_eq!(mode == 2, live.train_report().exhausted);
                    prop_assert_eq!(mode != 0, live.train_report().retries > 0);
                    prop_assert!(
                        live.freeze().to_bytes().unwrap() == reference.freeze().to_bytes().unwrap()
                    );
                    prop_assert!(rows.aliased_writes > 0, "no aliased write-through");
                    Ok(())
                },
            )
            .unwrap();
        assert!(
            modes.iter().all(|&m| m > 0),
            "divergence modes hit: {modes:?}"
        );
    }
}
