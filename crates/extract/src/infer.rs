//! The structure-of-arrays decoder, shared by inference and training.
//!
//! Training and inference have different layout needs: the trainer wants
//! a mutable hashed weight table it can poke per update, while batch
//! inference wants immutable, cache-friendly tables it can stream. This
//! module freezes a trained [`Extractor`] into a [`FrozenModel`] — a
//! read-only snapshot rearranged for throughput — and decodes documents
//! against it with reusable [`InferScratch`] working memory (zero
//! per-document allocation once warm). The perceptron trainer decodes
//! through the same two steps ([`DecodeLayout::emission_row`] and
//! [`DecodeLayout::viterbi`]) over a live row table it keeps equal to its
//! hashed weights, so the crate has exactly one Viterbi.
//!
//! ## Layout
//!
//! *Struct-of-arrays emissions.* The model scores `(feature, tag)` pairs
//! by hashing each pair into the weight table. The decoder interns each
//! **distinct** feature id once into a row table: a contiguous
//! `n_tags`-wide row of that feature's weight for every tag. A token's
//! emission vector is then the sum of its features' rows — contiguous f32
//! adds the compiler vectorizes — instead of `n_features x n_tags`
//! scattered gathers. Because repeated features are the common case
//! (vocabulary, layout buckets), the hash-and-gather cost amortizes to
//! roughly once per distinct feature per corpus.
//!
//! *Column-permuted, row-major transitions.* Tags are stored in a
//! permuted column order `[O | B_* | S_* | I_* | E_*]`. Under BIOES
//! legality, a "boundary" previous tag (`O`, `E_f`, `S_f`) may precede
//! exactly the contiguous `[O | B_* | S_*]` block, and an "inside"
//! previous tag (`B_f`, `I_f`) may precede exactly `{I_f, E_f}` — two
//! scalar cells. The Viterbi max-plus inner loop therefore runs as one
//! dense vectorizable sweep per boundary predecessor over a row-major
//! transition block, with no legality branching and no `NEG` sentinels
//! inside the kernel.
//!
//! ## Exactness
//!
//! Decoding is **bitwise identical** to the naive hashed-gather Viterbi
//! the tests keep as their oracle (`viterbi_reference` in `model`):
//! emission sums add the same weights in the same order; predecessors are
//! visited in ascending original tag id (the reference tie-break order)
//! with the same strict-`>` comparison; and the permuted columns only
//! relocate where per-tag results are stored, never how they are
//! computed. The property tests in this file and in `model`, and the
//! `eval` crate's identity diffs, pin this down.
//!
//! [`FrozenModel::quantize`] additionally compresses the emission table
//! to int8 with per-row (fixed-width block) scale/zero-point — ~4x
//! smaller, dequantized on row-cache fill, guarded by an accuracy-delta
//! test rather than an identity claim.

use crate::features::{extract_into, gate_allows, FeatureScratch, FlatFeatures};
use crate::lexicon::Lexicon;
use crate::model::{bucket, Extractor, NEG, WEIGHT_DIM};
use crate::tags::{TagId, TagSet};
use fieldswap_docmodel::{BaseType, Document, EntitySpan};
use std::sync::atomic::{AtomicU64, Ordering};

/// Quantization block width: one `(min, scale)` pair per `QBLOCK`
/// consecutive weight-table buckets (the "row" of the per-row affine
/// scheme). 2^20 buckets / 64 = 16384 rows, 128 KiB of f32 metadata.
pub(crate) const QBLOCK: usize = 64;

/// Monotone id distinguishing frozen models, so a reused [`InferScratch`]
/// can detect that its feature-row cache belongs to a different model and
/// rebuild it. Ids start at 1; a fresh scratch holds 0 and always misses.
static NEXT_MODEL_TOKEN: AtomicU64 = AtomicU64::new(1);

/// The emission weight table of a frozen model.
#[derive(Clone)]
pub(crate) enum EmissionTable {
    /// Exact f32 weights (bit-identical to the trainer's table).
    F32(Vec<f32>),
    /// Per-block affine int8 quantization: `w ~ min[b/QBLOCK] +
    /// scale[b/QBLOCK] * q[b]`.
    Q8 {
        /// Quantized weights, one byte per bucket.
        q: Vec<u8>,
        /// Per-block minimum (the affine zero point).
        min: Vec<f32>,
        /// Per-block scale; 0 for constant blocks.
        scale: Vec<f32>,
    },
}

impl EmissionTable {
    #[inline]
    fn weight(&self, b: usize) -> f32 {
        match self {
            EmissionTable::F32(w) => w[b],
            EmissionTable::Q8 { q, min, scale } => {
                let blk = b / QBLOCK;
                min[blk] + scale[blk] * f32::from(q[b])
            }
        }
    }

    fn is_quantized(&self) -> bool {
        matches!(self, EmissionTable::Q8 { .. })
    }
}

/// How a previous tag participates in the transition structure.
enum PrevKind {
    /// `O`, `E_f`, `S_f`: may precede the whole `[O | B_* | S_*]` block.
    Boundary,
    /// `B_f` or `I_f` (field id attached): may precede `I_f` and `E_f`.
    Inside(usize),
}

#[inline]
fn prev_kind(p: usize) -> PrevKind {
    if p == 0 {
        return PrevKind::Boundary;
    }
    let f = (p - 1) / 4;
    match (p - 1) % 4 {
        0 | 1 => PrevKind::Inside(f), // B, I
        _ => PrevKind::Boundary,      // E, S
    }
}

/// The permuted tag layout both decoders run on: column permutation,
/// gate masks, and the transition scores in the shapes the Viterbi
/// kernels read. [`FrozenModel`] builds one at freeze time; the trainer
/// builds one per run and keeps it equal to its hashed transition table
/// through [`DecodeLayout::set_trans`].
pub(crate) struct DecodeLayout {
    n_tags: usize,
    /// Size of the `[O | B_* | S_*]` column block (`1 + 2 * n_fields`) —
    /// exactly the tags that may start a sequence, and exactly the legal
    /// successors of every boundary tag.
    n_bs: usize,
    /// `n_bs` rounded up to the 16-lane kernel width; `trans_bs` rows and
    /// the boundary Viterbi buffers use this stride so the max-plus
    /// kernel never runs a scalar tail. Pad lanes are write-only.
    n_bs_pad: usize,
    /// `n_tags` rounded up to the 16-lane kernel width; emission rows and
    /// the emission matrix use this stride. Pad lanes hold zeros and are
    /// never read.
    stride: usize,
    /// `perm[orig_tag] = column` in the permuted layout.
    perm: Vec<u16>,
    /// `inv[column] = orig_tag`.
    inv: Vec<u16>,
    /// Row-major boundary transition block: for boundary prev `p` (by
    /// original id), `trans_bs[p * n_bs_pad + col]` scores `p -> inv[col]`
    /// over the `[O | B_* | S_*]` columns. Rows of non-boundary prevs and
    /// pad columns are unused.
    trans_bs: Vec<f32>,
    /// `gate_cols[mask * n_tags + col]` — 1 when the type gate `mask`
    /// admits the tag stored in column `col`.
    gate_cols: Vec<u8>,
    /// Boundary predecessors in ascending original tag order:
    /// `trans_bs` row offsets and permuted column ids. Boundary tags are
    /// also exactly the tags that may end a sequence.
    bnd_offs: Vec<u32>,
    bnd_pcs: Vec<u32>,
    /// Inside predecessors in ascending original tag order (`B_0, I_0,
    /// B_1, I_1, ...`).
    ins_prevs: Vec<InsPrev>,
}

/// A precomputed inside predecessor (`B_f` or `I_f`): its permuted column
/// id, the two columns it can reach (`I_f`, `E_f`), and the two
/// transition scores.
struct InsPrev {
    pc: u32,
    ci: u32,
    ce: u32,
    ti: f32,
    te: f32,
}

/// Reusable working memory of [`DecodeLayout`]: the emission matrix, the
/// Viterbi state, and the decoded tag sequence. Grow-only, so a warm
/// buffer set decodes without allocating.
#[derive(Default)]
pub(crate) struct DecodeBufs {
    /// Emission matrix `[token * stride + col]`, permuted column order.
    e: Vec<f32>,
    /// Per-step staging of boundary predecessors (score, transition row
    /// offset, permuted column id), in ascending original tag order.
    bs_s: Vec<f32>,
    bs_off: Vec<u32>,
    bs_pc: Vec<u32>,
    score: Vec<f32>,
    next: Vec<f32>,
    /// Boundary-block Viterbi maxima (`n_bs_pad` wide; boundary prevs
    /// only ever reach the `[O | B_* | S_*]` columns).
    best_bs: Vec<f32>,
    bp_bs: Vec<u32>,
    /// Inside-block Viterbi maxima (indexed by column; only the `I_*` /
    /// `E_*` columns are ever written, by `B_f`/`I_f` prevs).
    best_ie: Vec<f32>,
    bp_ie: Vec<u32>,
    /// Backpointers `[token * n_tags + col]`, storing predecessor columns.
    back: Vec<u16>,
    /// The decoded tag sequence (original tag ids) of the last
    /// [`DecodeLayout::viterbi`] call.
    pub(crate) tags: Vec<TagId>,
}

impl DecodeLayout {
    /// Builds the layout for `tags`, gating columns by `field_types` and
    /// loading the `[prev * n_tags + next]` transition table `trans`.
    pub(crate) fn new(tags: &TagSet, field_types: &[BaseType], trans: &[f32]) -> DecodeLayout {
        let n_fields = tags.n_fields();
        let nt = tags.len();
        assert_eq!(trans.len(), nt * nt, "transition table size mismatch");
        let n_bs = 1 + 2 * n_fields;
        let mut perm = vec![0u16; nt];
        let mut inv = vec![0u16; nt];
        for (orig, p) in perm.iter_mut().enumerate() {
            let col = if orig == 0 {
                0
            } else {
                let f = (orig - 1) / 4;
                match (orig - 1) % 4 {
                    0 => 1 + f,                // B
                    3 => 1 + n_fields + f,     // S
                    1 => 1 + 2 * n_fields + f, // I
                    _ => 1 + 3 * n_fields + f, // E
                }
            };
            *p = col as u16;
            inv[col] = orig as u16;
        }
        let n_bs_pad = (n_bs + 15) & !15;
        let mut bnd_offs = Vec::new();
        let mut bnd_pcs = Vec::new();
        let mut ins_prevs = Vec::new();
        for (p, &pc) in perm.iter().enumerate() {
            match prev_kind(p) {
                PrevKind::Boundary => {
                    bnd_offs.push((p * n_bs_pad) as u32);
                    bnd_pcs.push(u32::from(pc));
                }
                PrevKind::Inside(f) => ins_prevs.push(InsPrev {
                    pc: u32::from(pc),
                    ci: (1 + 2 * n_fields + f) as u32,
                    ce: (1 + 3 * n_fields + f) as u32,
                    ti: 0.0,
                    te: 0.0,
                }),
            }
        }
        let mut gate_cols = vec![0u8; 256 * nt];
        for mask in 0..256usize {
            for orig in 0..nt {
                let ok = match tags.parts(orig as u16) {
                    None => true,
                    Some((f, _)) => gate_allows(mask as u8, field_types[f as usize]),
                };
                gate_cols[mask * nt + perm[orig] as usize] = u8::from(ok);
            }
        }
        let mut layout = DecodeLayout {
            n_tags: nt,
            n_bs,
            n_bs_pad,
            stride: (nt + 15) & !15,
            perm,
            inv,
            trans_bs: vec![0.0; nt * n_bs_pad],
            gate_cols,
            bnd_offs,
            bnd_pcs,
            ins_prevs,
        };
        layout.load_trans(trans);
        layout
    }

    /// Overwrites every transition score from the `[prev * n_tags + next]`
    /// table `trans`.
    pub(crate) fn load_trans(&mut self, trans: &[f32]) {
        let nt = self.n_tags;
        for p in 0..nt {
            for next in 0..nt {
                self.set_trans(p, next, trans[p * nt + next]);
            }
        }
    }

    /// Writes the score of the transition `prev -> next` (original tag
    /// ids) through to the kernel tables. Illegal BIOES transitions have
    /// no cell — the decoder never scores them — and are ignored.
    pub(crate) fn set_trans(&mut self, prev: usize, next: usize, v: f32) {
        match prev_kind(prev) {
            PrevKind::Boundary => {
                let col = self.perm[next] as usize;
                if col < self.n_bs {
                    self.trans_bs[prev * self.n_bs_pad + col] = v;
                }
            }
            PrevKind::Inside(f) => {
                let ip = &mut self.ins_prevs[2 * f + (prev - 1) % 4];
                if next == 1 + 4 * f + 1 {
                    ip.ti = v;
                } else if next == 1 + 4 * f + 2 {
                    ip.te = v;
                }
            }
        }
    }

    /// Width of one emission row (`n_tags` rounded up to the kernel
    /// width).
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// The weight-table buckets of feature `fid`'s emission row, one per
    /// column in permuted order — where a row table loads (and, in the
    /// trainer, writes through) each entry.
    #[inline]
    pub(crate) fn row_buckets(&self, fid: u64) -> impl Iterator<Item = usize> + '_ {
        self.inv.iter().map(move |&tag| bucket(fid, tag))
    }

    /// Sizes the emission matrix for an `n`-token document. Rows are
    /// overwritten by [`DecodeLayout::emission_row`], so the matrix only
    /// ever grows — no per-document zeroing.
    pub(crate) fn reserve(&self, b: &mut DecodeBufs, n: usize) {
        if b.e.len() < n * self.stride {
            b.e.resize(n * self.stride, 0.0);
        }
    }

    /// The emission-row step for token `t`: sums the interned rows `idxs`
    /// of `rows` with one register-resident sweep (the exact per-lane add
    /// order of the hashed gather-and-sum), then masks the columns the
    /// token's type gate blocks to `NEG`.
    #[inline]
    pub(crate) fn emission_row(
        &self,
        b: &mut DecodeBufs,
        t: usize,
        rows: &[f32],
        idxs: &[u32],
        gate: u8,
    ) {
        let erow = &mut b.e[t * self.stride..(t + 1) * self.stride];
        emit_sum(erow, rows, self.stride, idxs);
        let nt = self.n_tags;
        let adm = &self.gate_cols[gate as usize * nt..][..nt];
        for (v, &a) in erow.iter_mut().zip(adm) {
            // Branchless select keeps this loop vectorizable.
            *v = if a == 0 { NEG } else { *v };
        }
    }

    /// Viterbi over the first `n` rows of the emission matrix, writing
    /// the best legal tag sequence (original ids) into `b.tags`.
    /// Predecessors are visited in ascending original tag id — the
    /// reference tie-break order.
    pub(crate) fn viterbi(&self, b: &mut DecodeBufs, n: usize) {
        let DecodeBufs {
            e,
            bs_s,
            bs_off,
            bs_pc,
            score,
            next,
            best_bs,
            bp_bs,
            best_ie,
            bp_ie,
            back,
            tags,
        } = b;
        tags.clear();
        if n == 0 {
            return;
        }
        let nt = self.n_tags;
        let stride = self.stride;
        score.clear();
        score.resize(nt, NEG);
        next.clear();
        next.resize(nt, NEG);
        best_bs.clear();
        best_bs.resize(self.n_bs_pad, NEG);
        bp_bs.clear();
        bp_bs.resize(self.n_bs_pad, 0);
        best_ie.clear();
        best_ie.resize(nt, NEG);
        bp_ie.clear();
        bp_ie.resize(nt, 0);
        // `back` rows for t >= 1 are fully overwritten each step and row
        // 0 is never read, so the matrix only ever grows.
        if back.len() < n * nt {
            back.resize(n * nt, 0);
        }
        // Start: exactly the [O | B_* | S_*] block may begin a sequence.
        score[..self.n_bs].copy_from_slice(&e[..self.n_bs]);

        for t in 1..n {
            // Only the inside block's I/E columns are ever written.
            best_ie[self.n_bs..nt].fill(NEG);
            bp_ie[self.n_bs..nt].fill(0);
            bs_s.clear();
            bs_off.clear();
            bs_pc.clear();
            // Predecessor lists are precomputed in ascending original tag
            // order (the reference tie-break order); unreachable prevs
            // (score at the `NEG` floor) are skipped exactly as the
            // reference does.
            for (&off, &pc) in self.bnd_offs.iter().zip(&self.bnd_pcs) {
                let s = score[pc as usize];
                if s > NEG {
                    bs_s.push(s);
                    bs_off.push(off);
                    bs_pc.push(pc);
                }
            }
            for ip in &self.ins_prevs {
                let s = score[ip.pc as usize];
                if s <= NEG {
                    continue;
                }
                let cand = s + ip.ti;
                if cand > best_ie[ip.ci as usize] {
                    best_ie[ip.ci as usize] = cand;
                    bp_ie[ip.ci as usize] = ip.pc;
                }
                let cand = s + ip.te;
                if cand > best_ie[ip.ce as usize] {
                    best_ie[ip.ce as usize] = cand;
                    bp_ie[ip.ce as usize] = ip.pc;
                }
            }
            // Boundary and inside predecessors write disjoint column
            // sets, so hoisting the boundary group into one fused sweep
            // keeps each group's ascending-order tie-break intact.
            bs_sweep(best_bs, bp_bs, &self.trans_bs, bs_off, bs_s, bs_pc);
            let erow = &e[t * stride..t * stride + nt];
            let backrow = &mut back[t * nt..(t + 1) * nt];
            // Branchless combine (reference semantics: a gate-blocked
            // emission or unreachable column propagates NEG and leaves
            // the backpointer at column 0 = `O`).
            for c in 0..self.n_bs {
                let ev = erow[c];
                let dead = ev <= NEG || best_bs[c] <= NEG;
                next[c] = if dead { NEG } else { best_bs[c] + ev };
                backrow[c] = if dead { 0 } else { bp_bs[c] as u16 };
            }
            for c in self.n_bs..nt {
                let ev = erow[c];
                let dead = ev <= NEG || best_ie[c] <= NEG;
                next[c] = if dead { NEG } else { best_ie[c] + ev };
                backrow[c] = if dead { 0 } else { bp_ie[c] as u16 };
            }
            std::mem::swap(score, next);
        }

        // Best legal final tag: the boundary tags (`O`, `E_*`, `S_*`) are
        // exactly the tags that may end a sequence, scanned in ascending
        // original id.
        let mut best_col = 0usize;
        let mut best_sc = NEG;
        for &pc in &self.bnd_pcs {
            let sv = score[pc as usize];
            if sv > best_sc {
                best_sc = sv;
                best_col = pc as usize;
            }
        }
        tags.resize(n, 0);
        tags[n - 1] = self.inv[best_col];
        let mut cur_col = best_col;
        for t in (1..n).rev() {
            cur_col = back[t * nt + cur_col] as usize;
            tags[t - 1] = self.inv[cur_col];
        }
    }
}

/// An immutable, inference-optimized snapshot of a trained [`Extractor`].
///
/// Build one with [`FrozenModel::freeze`] (or [`Extractor::freeze`]),
/// optionally compress it with [`FrozenModel::quantize`], and decode
/// documents with [`FrozenModel::predict`]. See the module docs for the
/// layout and the exactness guarantee.
pub struct FrozenModel {
    /// Identity token for scratch cache invalidation.
    token: u64,
    tags: TagSet,
    field_types: Vec<BaseType>,
    n_fields: usize,
    layout: DecodeLayout,
    emissions: EmissionTable,
    /// Raw transition matrix `[prev * n_tags + next]` in original tag
    /// order, kept for serialization round-trips.
    trans_raw: Vec<f32>,
    lexicon: Lexicon,
}

/// Reusable working memory for [`FrozenModel::predict`]: feature
/// extraction buffers, the persistent feature-row cache, the emission
/// matrix, and the Viterbi state. One scratch serves any number of
/// documents; the row cache survives across documents (that is the point)
/// and is rebuilt automatically when used with a different model.
#[derive(Default)]
pub struct InferScratch {
    feats: FlatFeatures,
    fscratch: FeatureScratch,
    cache: RowCache,
    /// Interned row indices of the current token's features.
    row_idx: Vec<u32>,
    dec: DecodeBufs,
    /// Token of the model the row cache was built for (0 = none).
    model_token: u64,
}

/// Open-addressed map from feature id to an interned emission row.
/// Persistent across documents inside an [`InferScratch`], and across a
/// whole run inside the trainer.
#[derive(Default)]
pub(crate) struct RowCache {
    keys: Vec<u64>,
    /// Row index per slot; `u32::MAX` marks an empty slot.
    slots: Vec<u32>,
    mask: usize,
    len: usize,
    /// Interned rows, `stride` f32 each, in insertion order.
    pub(crate) rows: Vec<f32>,
    stride: usize,
}

impl RowCache {
    pub(crate) fn reset(&mut self, stride: usize) {
        self.stride = stride.max(1);
        self.len = 0;
        self.rows.clear();
        if self.slots.is_empty() {
            self.keys = vec![0; 1024];
            self.slots = vec![u32::MAX; 1024];
            self.mask = 1023;
        } else {
            self.slots.fill(u32::MAX);
        }
    }

    #[inline]
    fn hash(key: u64) -> usize {
        // SplitMix64-style finalizer; the FNV feature ids are decent but
        // this cheap avalanche protects the open addressing either way.
        let mut z = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (z ^ (z >> 29)) as usize
    }

    /// The row index for `key`, appending a fresh zeroed row when absent.
    /// Returns `(index, inserted)`; the caller fills a fresh row in place.
    #[inline]
    pub(crate) fn get_or_insert(&mut self, key: u64) -> (u32, bool) {
        if self.len * 4 >= (self.mask + 1) * 3 {
            self.grow();
        }
        let mut i = Self::hash(key) & self.mask;
        loop {
            let v = self.slots[i];
            if v == u32::MAX {
                let idx = self.len as u32;
                self.keys[i] = key;
                self.slots[i] = idx;
                self.len += 1;
                self.rows.resize(self.len * self.stride, 0.0);
                return (idx, true);
            }
            if self.keys[i] == key {
                return (v, false);
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let new_cap = ((self.mask + 1) * 2).max(1024);
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let old_slots = std::mem::replace(&mut self.slots, vec![u32::MAX; new_cap]);
        self.mask = new_cap - 1;
        for (k, v) in old_keys.into_iter().zip(old_slots) {
            if v != u32::MAX {
                let mut i = Self::hash(k) & self.mask;
                while self.slots[i] != u32::MAX {
                    i = (i + 1) & self.mask;
                }
                self.keys[i] = k;
                self.slots[i] = v;
            }
        }
    }
}

impl Extractor {
    /// Freezes the current weights into a [`FrozenModel`]. Equivalent to
    /// [`FrozenModel::freeze`].
    pub fn freeze(&self) -> FrozenModel {
        FrozenModel::freeze(self)
    }
}

impl FrozenModel {
    /// Snapshots a trained extractor into the frozen inference layout.
    pub fn freeze(ex: &Extractor) -> FrozenModel {
        let (tags, field_types, w, trans, lexicon) = ex.frozen_parts();
        fieldswap_obs::counter_add("fieldswap_infer_freeze_total", 1);
        Self::build(
            tags.clone(),
            field_types.to_vec(),
            EmissionTable::F32(w.to_vec()),
            trans.to_vec(),
            lexicon.clone(),
        )
    }

    pub(crate) fn build(
        tags: TagSet,
        field_types: Vec<BaseType>,
        emissions: EmissionTable,
        trans_raw: Vec<f32>,
        lexicon: Lexicon,
    ) -> FrozenModel {
        let layout = DecodeLayout::new(&tags, &field_types, &trans_raw);
        FrozenModel {
            token: NEXT_MODEL_TOKEN.fetch_add(1, Ordering::Relaxed),
            n_fields: tags.n_fields(),
            tags,
            field_types,
            layout,
            emissions,
            trans_raw,
            lexicon,
        }
    }

    /// A copy of this model with the emission table quantized to int8
    /// (per-[`QBLOCK`] affine min/scale). Quantizing an already-quantized
    /// model is an identity copy. Predictions are approximate — guarded
    /// by the accuracy-delta tests, not by the bitwise-identity claim.
    pub fn quantize(&self) -> FrozenModel {
        let emissions = match &self.emissions {
            EmissionTable::Q8 { .. } => self.emissions.clone(),
            EmissionTable::F32(w) => {
                let nblocks = w.len().div_ceil(QBLOCK);
                let mut q = vec![0u8; w.len()];
                let mut min = Vec::with_capacity(nblocks);
                let mut scale = Vec::with_capacity(nblocks);
                for (bi, chunk) in w.chunks(QBLOCK).enumerate() {
                    let lo = chunk.iter().copied().fold(f32::INFINITY, f32::min);
                    let hi = chunk.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let s = if hi > lo { (hi - lo) / 255.0 } else { 0.0 };
                    min.push(lo);
                    scale.push(s);
                    if s > 0.0 {
                        for (j, &v) in chunk.iter().enumerate() {
                            q[bi * QBLOCK + j] = ((v - lo) / s).round().clamp(0.0, 255.0) as u8;
                        }
                    }
                }
                EmissionTable::Q8 { q, min, scale }
            }
        };
        fieldswap_obs::counter_add("fieldswap_infer_quantize_total", 1);
        Self::build(
            self.tags.clone(),
            self.field_types.clone(),
            emissions,
            self.trans_raw.clone(),
            self.lexicon.clone(),
        )
    }

    /// Whether the emission table is int8-quantized.
    pub fn is_quantized(&self) -> bool {
        self.emissions.is_quantized()
    }

    /// The tag set in use.
    pub fn tag_set(&self) -> &TagSet {
        &self.tags
    }

    /// Number of schema fields.
    pub fn n_fields(&self) -> usize {
        self.n_fields
    }

    pub(crate) fn serial_parts(&self) -> (&[BaseType], &EmissionTable, &[f32], &Lexicon) {
        (
            &self.field_types,
            &self.emissions,
            &self.trans_raw,
            &self.lexicon,
        )
    }

    /// The DF lexicon the model was trained with (used by the serving
    /// layer for template-match routing).
    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }

    /// Extracts entity spans from `doc` with the frozen fast path,
    /// applying the same single-instance schema constraint as
    /// [`Extractor::predict`]. All working memory lives in `scratch`; a
    /// warm scratch allocates only the returned span vector.
    pub fn predict(&self, doc: &Document, scratch: &mut InferScratch) -> Vec<EntitySpan> {
        self.predict_scored(doc, scratch)
            .into_iter()
            .map(|(s, _)| s)
            .collect()
    }

    /// [`FrozenModel::predict`], but each retained span is paired with
    /// its mean-emission score — the margin the single-instance schema
    /// constraint already computes to pick the best span per field, and
    /// the confidence the serving layer reports. The spans themselves
    /// are exactly what `predict` returns (same arithmetic, same
    /// ordering); only the scores ride along.
    pub fn predict_scored(
        &self,
        doc: &Document,
        scratch: &mut InferScratch,
    ) -> Vec<(EntitySpan, f32)> {
        let InferScratch {
            feats,
            fscratch,
            cache,
            row_idx,
            dec,
            model_token,
        } = scratch;
        let layout = &self.layout;
        let stride = layout.stride();
        if *model_token != self.token {
            cache.reset(stride);
            *model_token = self.token;
        }
        extract_into(doc, &self.lexicon, fscratch, feats);
        let n = feats.n_tokens();
        if n == 0 {
            return Vec::new();
        }
        layout.reserve(dec, n);
        for t in 0..n {
            row_idx.clear();
            for &fid in feats.row(t) {
                let (idx, inserted) = cache.get_or_insert(fid);
                if inserted {
                    let row = &mut cache.rows[idx as usize * stride..][..stride];
                    for (slot, b) in row.iter_mut().zip(layout.row_buckets(fid)) {
                        *slot = self.emissions.weight(b);
                    }
                }
                row_idx.push(idx);
            }
            layout.emission_row(dec, t, &cache.rows, row_idx, feats.gate(t));
        }
        layout.viterbi(dec, n);
        let spans = self.tags.decode(&dec.tags);
        self.apply_schema_constraints(&dec.e, spans)
    }

    /// The single-instance schema constraint, scored from the emission
    /// matrix: each field keeps its span with the highest mean emission
    /// (the first one on ties). Returns each kept span with its winning
    /// mean-emission score.
    fn apply_schema_constraints(
        &self,
        e: &[f32],
        spans: Vec<EntitySpan>,
    ) -> Vec<(EntitySpan, f32)> {
        let mut best: Vec<Option<(f32, EntitySpan)>> = vec![None; self.n_fields];
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
                score +=
                    e[t as usize * self.layout.stride + self.layout.perm[tag as usize] as usize];
            }
            score /= (s.end - s.start) as f32;
            let slot = &mut best[s.field as usize];
            match slot {
                Some((b, _)) if *b >= score => {}
                _ => *slot = Some((score, s)),
            }
        }
        let mut out: Vec<(EntitySpan, f32)> =
            best.into_iter().flatten().map(|(sc, s)| (s, sc)).collect();
        out.sort_by_key(|(s, _)| (s.start, s.end));
        out
    }
}

/// Sums the interned emission rows `idxs` (each `stride` wide, packed in
/// `rows`) into `erow`, overwriting it. Per lane this is the exact f32
/// add sequence of the reference gather-and-sum — start from 0.0, add
/// each feature's weight in feature order — so the result is
/// bit-identical on every dispatch path. The wide variants keep the
/// accumulator group in registers across all rows and store once.
#[inline]
fn emit_sum(erow: &mut [f32], rows: &[f32], stride: usize, idxs: &[u32]) {
    // The wide kernels load rows unchecked; the row tables are filled by
    // two callers (inference and the trainer), so bound every index here.
    let rows_read = idxs.iter().max().map_or(0, |&ix| ix as usize + 1);
    assert!(
        rows_read * stride <= rows.len(),
        "emission row index out of range"
    );
    #[cfg(target_arch = "x86_64")]
    match simd_level() {
        // SAFETY: dispatch is gated on runtime feature detection, and the
        // assert above keeps every row the kernels load inside `rows`.
        3 => return unsafe { emit_sum_avx512(erow, rows, stride, idxs) },
        2 => return unsafe { emit_sum_avx2(erow, rows, stride, idxs) },
        _ => {}
    }
    emit_sum_scalar(erow, rows, stride, idxs);
}

#[inline]
fn emit_sum_scalar(erow: &mut [f32], rows: &[f32], stride: usize, idxs: &[u32]) {
    erow.fill(0.0);
    for &ix in idxs {
        let row = &rows[ix as usize * stride..][..stride];
        for (a, &r) in erow.iter_mut().zip(row) {
            *a += r;
        }
    }
}

/// The boundary Viterbi sweep: for every column of the `[O | B_* | S_*]`
/// block, the max over boundary predecessors `j` of
/// `ss[j] + trans[offs[j] + col]`, with `bp` recording the winning
/// predecessor's column id `pcs[j]`. Predecessors arrive in ascending
/// original tag order and are compared with strict `>`, so the earliest
/// wins ties — the reference order. Overwrites `best`/`bp`; columns no
/// predecessor reaches get `NEG`/0.
#[inline]
fn bs_sweep(
    best: &mut [f32],
    bp: &mut [u32],
    trans: &[f32],
    offs: &[u32],
    ss: &[f32],
    pcs: &[u32],
) {
    #[cfg(target_arch = "x86_64")]
    match simd_level() {
        // SAFETY: dispatch is gated on runtime feature detection.
        3 => return unsafe { bs_sweep_avx512(best, bp, trans, offs, ss, pcs) },
        2 => return unsafe { bs_sweep_avx2(best, bp, trans, offs, ss, pcs) },
        _ => {}
    }
    bs_sweep_scalar(best, bp, trans, offs, ss, pcs);
}

#[inline]
fn bs_sweep_scalar(
    best: &mut [f32],
    bp: &mut [u32],
    trans: &[f32],
    offs: &[u32],
    ss: &[f32],
    pcs: &[u32],
) {
    let w = best.len().min(bp.len());
    best[..w].fill(NEG);
    bp[..w].fill(0);
    for j in 0..ss.len().min(offs.len()).min(pcs.len()) {
        let s = ss[j];
        let p = pcs[j];
        let row = &trans[offs[j] as usize..][..w];
        for i in 0..w {
            let cand = s + row[i];
            if cand > best[i] {
                best[i] = cand;
                bp[i] = p;
            }
        }
    }
}

/// The vector tier the decode kernels dispatch to on this CPU:
/// `avx512f`, `avx2` or `scalar` (the baseline target, also every
/// non-x86-64 build).
pub fn simd_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    match simd_level() {
        3 => return "avx512f",
        2 => return "avx2",
        _ => {}
    }
    "scalar"
}

/// Runtime SIMD dispatch level, detected once: 1 = baseline (the default
/// x86-64 target only assumes SSE2), 2 = AVX2 (8-lane), 3 = AVX-512F
/// (16-lane). The explicit wide variants below exist because the hot
/// kernels are the decode bottleneck and the baseline autovectorization
/// is stuck at 4 lanes.
#[cfg(target_arch = "x86_64")]
#[inline]
fn simd_level() -> u8 {
    use std::sync::atomic::AtomicU8;
    static STATE: AtomicU8 = AtomicU8::new(0);
    match STATE.load(Ordering::Relaxed) {
        0 => {
            let lvl = if std::arch::is_x86_feature_detected!("avx512f") {
                3
            } else if std::arch::is_x86_feature_detected!("avx2") {
                2
            } else {
                1
            };
            STATE.store(lvl, Ordering::Relaxed);
            lvl
        }
        lvl => lvl,
    }
}

/// # Safety
/// Caller must ensure AVX2 is available and that every index in `idxs`
/// addresses a whole `stride`-wide row of `rows`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn emit_sum_avx2(erow: &mut [f32], rows: &[f32], stride: usize, idxs: &[u32]) {
    use core::arch::x86_64::*;
    let n = erow.len().min(stride);
    let mut g = 0;
    while g + 8 <= n {
        let mut acc = _mm256_setzero_ps();
        for &ix in idxs {
            // Adds stay in feature order per lane — never reassociated.
            acc = _mm256_add_ps(
                acc,
                _mm256_loadu_ps(rows.as_ptr().add(ix as usize * stride + g)),
            );
        }
        _mm256_storeu_ps(erow.as_mut_ptr().add(g), acc);
        g += 8;
    }
    while g < n {
        let mut acc = 0.0f32;
        for &ix in idxs {
            acc += *rows.get_unchecked(ix as usize * stride + g);
        }
        *erow.get_unchecked_mut(g) = acc;
        g += 1;
    }
}

/// # Safety
/// Caller must ensure AVX-512F is available and that every index in `idxs`
/// addresses a whole `stride`-wide row of `rows`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn emit_sum_avx512(erow: &mut [f32], rows: &[f32], stride: usize, idxs: &[u32]) {
    use core::arch::x86_64::*;
    let n = erow.len().min(stride);
    let mut g = 0;
    while g + 16 <= n {
        let mut acc = _mm512_setzero_ps();
        for &ix in idxs {
            // Adds stay in feature order per lane — never reassociated.
            acc = _mm512_add_ps(
                acc,
                _mm512_loadu_ps(rows.as_ptr().add(ix as usize * stride + g)),
            );
        }
        _mm512_storeu_ps(erow.as_mut_ptr().add(g), acc);
        g += 16;
    }
    while g < n {
        let mut acc = 0.0f32;
        for &ix in idxs {
            acc += *rows.get_unchecked(ix as usize * stride + g);
        }
        *erow.get_unchecked_mut(g) = acc;
        g += 1;
    }
}

/// # Safety
/// Caller must ensure AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn bs_sweep_avx2(
    best: &mut [f32],
    bp: &mut [u32],
    trans: &[f32],
    offs: &[u32],
    ss: &[f32],
    pcs: &[u32],
) {
    use core::arch::x86_64::*;
    let w = best.len().min(bp.len());
    let m = ss.len().min(offs.len()).min(pcs.len());
    let mut g = 0;
    while g + 8 <= w {
        let mut acc = _mm256_set1_ps(NEG);
        let mut win = _mm256_setzero_si256();
        for j in 0..m {
            let cand = _mm256_add_ps(
                _mm256_set1_ps(*ss.get_unchecked(j)),
                _mm256_loadu_ps(trans.as_ptr().add(*offs.get_unchecked(j) as usize + g)),
            );
            // Ordered, non-signaling GT: identical to the scalar `>` for
            // the finite operands this kernel ever sees.
            let k = _mm256_cmp_ps::<_CMP_GT_OQ>(cand, acc);
            acc = _mm256_blendv_ps(acc, cand, k);
            win = _mm256_blendv_epi8(
                win,
                _mm256_set1_epi32(*pcs.get_unchecked(j) as i32),
                _mm256_castps_si256(k),
            );
        }
        _mm256_storeu_ps(best.as_mut_ptr().add(g), acc);
        _mm256_storeu_si256(bp.as_mut_ptr().add(g) as *mut __m256i, win);
        g += 8;
    }
    while g < w {
        let mut acc = NEG;
        let mut win = 0u32;
        for j in 0..m {
            let cand =
                *ss.get_unchecked(j) + *trans.get_unchecked(*offs.get_unchecked(j) as usize + g);
            if cand > acc {
                acc = cand;
                win = *pcs.get_unchecked(j);
            }
        }
        *best.get_unchecked_mut(g) = acc;
        *bp.get_unchecked_mut(g) = win;
        g += 1;
    }
}

/// # Safety
/// Caller must ensure AVX-512F is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn bs_sweep_avx512(
    best: &mut [f32],
    bp: &mut [u32],
    trans: &[f32],
    offs: &[u32],
    ss: &[f32],
    pcs: &[u32],
) {
    use core::arch::x86_64::*;
    let w = best.len().min(bp.len());
    let m = ss.len().min(offs.len()).min(pcs.len());
    let mut g = 0;
    while g + 16 <= w {
        let mut acc = _mm512_set1_ps(NEG);
        let mut win = _mm512_setzero_si512();
        for j in 0..m {
            let cand = _mm512_add_ps(
                _mm512_set1_ps(*ss.get_unchecked(j)),
                _mm512_loadu_ps(trans.as_ptr().add(*offs.get_unchecked(j) as usize + g)),
            );
            // Ordered, non-signaling GT: identical to the scalar `>` for
            // the finite operands this kernel ever sees.
            let k = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(cand, acc);
            acc = _mm512_mask_blend_ps(k, acc, cand);
            win = _mm512_mask_blend_epi32(k, win, _mm512_set1_epi32(*pcs.get_unchecked(j) as i32));
        }
        _mm512_storeu_ps(best.as_mut_ptr().add(g), acc);
        _mm512_storeu_si512(bp.as_mut_ptr().add(g) as *mut __m512i, win);
        g += 16;
    }
    while g < w {
        let mut acc = NEG;
        let mut win = 0u32;
        for j in 0..m {
            let cand =
                *ss.get_unchecked(j) + *trans.get_unchecked(*offs.get_unchecked(j) as usize + g);
            if cand > acc {
                acc = cand;
                win = *pcs.get_unchecked(j);
            }
        }
        *best.get_unchecked_mut(g) = acc;
        *bp.get_unchecked_mut(g) = win;
        g += 1;
    }
}

// `WEIGHT_DIM` is re-exported for the quantization metadata sizing in
// `serialize`; keep the import used even when tests are compiled out.
const _: () = assert!(WEIGHT_DIM.is_multiple_of(QBLOCK));

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TrainConfig;
    use fieldswap_datagen::{generate, Domain};
    use fieldswap_docmodel::{BBox, Corpus, DocumentBuilder, Token};

    fn train_small(domain: Domain, seed: u64, n: usize) -> (Extractor, Corpus) {
        let pool = generate(domain, seed, n + 20);
        let train = Corpus::new(pool.schema.clone(), pool.documents[..n].to_vec());
        let test = Corpus::new(pool.schema.clone(), pool.documents[n..].to_vec());
        let lex = Lexicon::pretrain(&pool.documents);
        let ex = Extractor::train_on(&train.schema, lex, &train, &[], &TrainConfig::tiny());
        (ex, test)
    }

    #[test]
    fn predict_scored_spans_match_predict() {
        // The scored variant must be the same decode with scores riding
        // along: identical spans, identical order, finite scores.
        let (ex, test) = train_small(Domain::Earnings, 47, 20);
        let frozen = ex.freeze();
        let mut s1 = InferScratch::default();
        let mut s2 = InferScratch::default();
        for d in &test.documents {
            let plain = frozen.predict(d, &mut s1);
            let scored = frozen.predict_scored(d, &mut s2);
            let spans: Vec<EntitySpan> = scored.iter().map(|(s, _)| *s).collect();
            assert_eq!(plain, spans, "scored decode drift on {}", d.id);
            for (s, sc) in &scored {
                assert!(sc.is_finite(), "non-finite confidence on {} {s:?}", d.id);
            }
        }
    }

    #[test]
    fn frozen_matches_reference_on_trained_model() {
        for domain in [Domain::Earnings, Domain::Invoices] {
            let (ex, test) = train_small(domain, 41, 25);
            let frozen = ex.freeze();
            let mut is = InferScratch::default();
            for d in &test.documents {
                assert_eq!(
                    frozen.predict(d, &mut is),
                    ex.predict_reference(d),
                    "frozen drift on {domain:?} doc {}",
                    d.id
                );
            }
        }
    }

    #[test]
    fn degenerate_inputs_match_reference() {
        let (ex, _) = train_small(Domain::Fara, 43, 10);
        let frozen = ex.freeze();
        let mut is = InferScratch::default();

        // Empty document.
        let empty = Document {
            id: "empty".into(),
            ..Default::default()
        };
        assert_eq!(frozen.predict(&empty, &mut is), Vec::new());
        assert_eq!(
            frozen.predict(&empty, &mut is),
            ex.predict_reference(&empty)
        );

        // Single-token documents, including unknown-vocabulary tokens.
        for text in ["Registrant", "zzzqqqxxx", "$17.50", "...", "垂直"] {
            let mut b = DocumentBuilder::new("one");
            b.push_token(Token::new(text, BBox::new(10.0, 10.0, 80.0, 22.0)));
            let mut d = b.build();
            fieldswap_ocr::detect_lines(&mut d);
            assert_eq!(
                frozen.predict(&d, &mut is),
                ex.predict_reference(&d),
                "token {text:?}"
            );
        }

        // A document made entirely of unknown features (empty lexicon,
        // garbage vocabulary) still decodes identically.
        let mut b = DocumentBuilder::new("junk");
        for (i, w) in ["qqq", "%%%", "##", "zz9z", "!!"].iter().enumerate() {
            let x = 12.0 * i as f32;
            b.push_token(Token::new(*w, BBox::new(x, 0.0, x + 10.0, 10.0)));
        }
        let mut d = b.build();
        fieldswap_ocr::detect_lines(&mut d);
        assert_eq!(frozen.predict(&d, &mut is), ex.predict_reference(&d));
    }

    #[test]
    fn scratch_survives_model_switch() {
        // One scratch used across two different models must rebuild its
        // row cache, not serve stale rows.
        let (a, test_a) = train_small(Domain::Earnings, 47, 15);
        let (b, test_b) = train_small(Domain::Fara, 48, 15);
        let fa = a.freeze();
        let fb = b.freeze();
        let mut shared = InferScratch::default();
        for d in test_a.documents.iter().take(5) {
            assert_eq!(fa.predict(d, &mut shared), a.predict(d));
        }
        for d in test_b.documents.iter().take(5) {
            assert_eq!(fb.predict(d, &mut shared), b.predict(d));
        }
        for d in test_a.documents.iter().take(5) {
            assert_eq!(fa.predict(d, &mut shared), a.predict(d));
        }
    }

    #[test]
    fn quantized_model_stays_close_and_valid() {
        let (ex, test) = train_small(Domain::Earnings, 49, 30);
        let exact = ex.freeze();
        let q = exact.quantize();
        assert!(q.is_quantized());
        assert!(!exact.is_quantized());
        let mut is = InferScratch::default();
        let mut es = InferScratch::default();
        let mut agree = 0usize;
        let mut total = 0usize;
        for d in &test.documents {
            let qp = q.predict(d, &mut is);
            for s in &qp {
                assert!(s.end <= d.tokens.len() as u32);
                assert!((s.field as usize) < q.n_fields());
            }
            let fp = exact.predict(d, &mut es);
            total += fp.len().max(qp.len());
            agree += qp.iter().filter(|s| fp.contains(s)).count();
        }
        // int8 emissions are approximate, but on a trained model the
        // margins dwarf the quantization noise: predictions should agree
        // on the overwhelming majority of spans. (The macro-F1 epsilon
        // guard lives in the eval crate where the metric is defined.)
        assert!(
            agree * 10 >= total * 8,
            "quantized agreement too low: {agree}/{total}"
        );
    }

    #[test]
    fn quantize_is_idempotent() {
        let (ex, test) = train_small(Domain::Fara, 51, 10);
        let q1 = ex.freeze().quantize();
        let q2 = q1.quantize();
        let mut s1 = InferScratch::default();
        let mut s2 = InferScratch::default();
        for d in &test.documents {
            assert_eq!(q1.predict(d, &mut s1), q2.predict(d, &mut s2));
        }
    }

    #[test]
    fn kernels_match_scalar_reference() {
        // The dispatching kernels must equal their scalar counterparts
        // bit for bit on this machine, whatever path dispatch picks —
        // lengths straddling the 8- and 16-lane boundaries included.
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f32 / (1u64 << 53) as f32).mul_add(8.0, -4.0)
        };
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 47, 48, 93, 96] {
            for n_rows in [0usize, 1, 2, 5, 11, 40] {
                // emit_sum over `n_rows` interned rows of width `n`,
                // gathered in a shuffled, repeating index pattern.
                let stride = n;
                let pool = 7usize.min(n_rows.max(1));
                let rows: Vec<f32> = (0..pool * stride).map(|_| rnd()).collect();
                let idxs: Vec<u32> = (0..n_rows).map(|j| ((j * 5 + 2) % pool) as u32).collect();
                let mut out_a = vec![f32::NAN; n];
                let mut out_b = vec![f32::NAN; n];
                emit_sum(&mut out_a, &rows, stride, &idxs);
                emit_sum_scalar(&mut out_b, &rows, stride, &idxs);
                assert_eq!(out_a, out_b, "emit_sum n={n} rows={n_rows}");

                // bs_sweep over the same predecessor count, with rows at
                // staggered offsets into one shared transition buffer.
                let trans: Vec<f32> = (0..n_rows * stride.max(1) + n).map(|_| rnd()).collect();
                let offs: Vec<u32> = (0..n_rows)
                    .map(|j| (j * stride.max(1) / 2) as u32)
                    .collect();
                let ss: Vec<f32> = (0..n_rows).map(|_| rnd()).collect();
                let pcs: Vec<u32> = (0..n_rows).map(|j| (j * 3 + 1) as u32).collect();
                let mut best_a = vec![f32::NAN; n];
                let mut bp_a = vec![u32::MAX; n];
                let mut best_b = vec![f32::NAN; n];
                let mut bp_b = vec![u32::MAX; n];
                bs_sweep(&mut best_a, &mut bp_a, &trans, &offs, &ss, &pcs);
                bs_sweep_scalar(&mut best_b, &mut bp_b, &trans, &offs, &ss, &pcs);
                assert_eq!(best_a, best_b, "bs_sweep best n={n} rows={n_rows}");
                assert_eq!(bp_a, bp_b, "bs_sweep bp n={n} rows={n_rows}");
            }
        }
    }

    /// Builds a random-but-deterministic document from (word index, grid
    /// x, grid y) triples, with real line detection — so the proptest
    /// exercises the full feature extractor, gates included.
    fn doc_from_spec(spec: &[(u8, u8, u8)]) -> Document {
        const WORDS: &[&str] = &[
            "Total",
            "Amount",
            "Due",
            "$1,234.56",
            "$9.99",
            "01/02/2024",
            "42",
            "Invoice",
            "Date",
            "Gross",
            "Pay",
            "alpha",
            "beta-9",
            "...",
            "x",
            "Overtime",
        ];
        let mut b = DocumentBuilder::new("p");
        for &(w, gx, gy) in spec {
            let text = WORDS[w as usize % WORDS.len()];
            let x = f32::from(gx % 24) * 34.0;
            let y = f32::from(gy % 30) * 16.0;
            b.push_token(Token::new(
                text,
                BBox::new(x, y, x + 8.0 * text.len() as f32, y + 11.0),
            ));
        }
        let mut d = b.build();
        fieldswap_ocr::detect_lines(&mut d);
        d
    }

    #[test]
    fn proptest_frozen_bitwise_identical_to_reference() {
        // The headline guarantee: across random models (weights,
        // transitions) and random documents, the frozen f32 path decodes
        // to exactly the same spans as the naive hashed-gather oracle —
        // including with a single warm scratch reused across every case.
        use proptest::prelude::*;
        use proptest::test_runner::{Config, TestRunner};
        let schema = generate(Domain::Earnings, 1, 1).schema;
        let lexicon = {
            let corpus = generate(Domain::Earnings, 2, 40);
            Lexicon::pretrain(&corpus.documents)
        };
        let mut is = InferScratch::default();
        let mut runner = TestRunner::new(Config::with_cases(24));
        runner
            .run(
                &(
                    proptest::collection::vec(
                        proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255), 0..24),
                        2,
                    ),
                    proptest::collection::vec(-2.0f32..2.0, 64),
                    proptest::collection::vec(-1.0f32..1.0, 32),
                ),
                |(docs, wvals, tvals)| {
                    let n_tags = 1 + 4 * schema.len();
                    let ex = Extractor::from_tables(
                        schema.iter().map(|(_, f)| f.base_type).collect(),
                        (0..WEIGHT_DIM).map(|i| wvals[i % wvals.len()]).collect(),
                        (0..n_tags * n_tags)
                            .map(|i| tvals[i % tvals.len()])
                            .collect(),
                        lexicon.clone(),
                    );
                    let frozen = ex.freeze();
                    for spec in &docs {
                        let d = doc_from_spec(spec);
                        prop_assert_eq!(frozen.predict(&d, &mut is), ex.predict_reference(&d));
                    }
                    Ok(())
                },
            )
            .unwrap();
    }
}
