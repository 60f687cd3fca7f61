//! Per-token feature extraction for the sequence labeler.
//!
//! Features are hashed into `u64` ids; the model maps `(feature, tag)`
//! pairs into its weight table. The extractor pre-computes document-level
//! structure (line membership, left-neighbor chains, vertical alignment)
//! once, then emits each token's features.
//!
//! Hashing is incremental: [`FeatHash`] streams bytes through FNV-1a, so
//! composite features (`"g{gx}-{gy}"`, joined left phrases, …) are hashed
//! without materializing an intermediate `String`. The streamed bytes are
//! exactly the bytes the formatted strings would contain, so feature ids —
//! and therefore trained model weights — are unchanged.

use crate::lexicon::Lexicon;
use fieldswap_docmodel::{BaseType, Document};
use fieldswap_ocr::candidate_matches_type;

/// Bitmask of base types a token could plausibly belong to. Used to gate
/// the tag space per token: a word is never a money amount.
#[inline]
pub fn type_gate(text: &str) -> u8 {
    let mut mask = 0u8;
    // Address and String fields mix arbitrary tokens; always allowed.
    mask |= 1 << BaseType::Address as u8;
    mask |= 1 << BaseType::String as u8;
    let numeric_ish = text.chars().any(|c| c.is_ascii_digit());
    if candidate_matches_type(text, BaseType::Money) {
        mask |= 1 << BaseType::Money as u8;
    }
    if candidate_matches_type(text, BaseType::Date) || numeric_ish {
        mask |= 1 << BaseType::Date as u8;
    }
    if numeric_ish {
        mask |= 1 << BaseType::Number as u8;
        // Bare numbers also appear inside money columns without symbols.
        mask |= 1 << BaseType::Money as u8;
    }
    mask
}

/// Whether the gate `mask` admits `ty`.
#[inline]
pub fn gate_allows(mask: u8, ty: BaseType) -> bool {
    mask & (1 << ty as u8) != 0
}

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime (64-bit).
// NOTE: this prime is what the original implementation shipped with — it
// drops two hex zeros from the canonical 64-bit FNV prime 0x100_0000_01B3.
// It is pinned deliberately: every trained model's weight-table addresses
// depend on it, and the mixer in `bucket()` restores avalanche quality, so
// correcting it would invalidate artifacts for no measurable gain.
const FNV_PRIME: u64 = 0x1_0000_01B3;

/// Buffered FNV-1a over a byte slice — the oracle the incremental
/// [`FeatHash`] is tested against.
#[cfg(test)]
#[inline]
fn fnv1a(s: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for b in s {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Incremental FNV-1a feature hasher. `FeatHash::new(kind).str(p).id()`
/// hashes the same byte stream as hashing `[kind] ++ p.as_bytes()` at
/// once, so it is a drop-in, allocation-free replacement for building the
/// payload in a buffer first.
#[derive(Clone, Copy)]
struct FeatHash(u64);

impl FeatHash {
    #[inline]
    fn new(kind: u8) -> Self {
        let mut h = FNV_OFFSET;
        h ^= u64::from(kind);
        h = h.wrapping_mul(FNV_PRIME);
        FeatHash(h)
    }

    #[inline]
    fn bytes(mut self, s: &[u8]) -> Self {
        for b in s {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    #[inline]
    fn str(self, s: &str) -> Self {
        self.bytes(s.as_bytes())
    }

    /// Streams the decimal digits of `v` — the bytes `format!("{v}")`
    /// would produce.
    #[inline]
    fn dec(self, v: usize) -> Self {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        let mut v = v;
        loop {
            i -= 1;
            buf[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.bytes(&buf[i..])
    }

    #[inline]
    fn id(self) -> u64 {
        self.0
    }
}

/// Collapsed character-shape string (`"Abc-12"` → `"Xx-9"`), written into
/// `out` (cleared first) to avoid a per-token allocation.
fn shape_into(text: &str, out: &mut String) {
    out.clear();
    let mut last = '\0';
    for c in text.chars() {
        let s = if c.is_ascii_uppercase() {
            'X'
        } else if c.is_ascii_lowercase() {
            'x'
        } else if c.is_ascii_digit() {
            '9'
        } else {
            c
        };
        if s != last {
            out.push(s);
            last = s;
        }
    }
}

/// Per-token feature lists in nested form — the layout the naive test
/// oracles (`viterbi_reference`, the reference trainer) consume.
#[cfg(test)]
pub struct DocFeatures {
    /// `features[t]` — hashed feature ids for token `t`.
    pub features: Vec<Vec<u64>>,
    /// `gates[t]` — base-type bitmask for token `t`.
    pub gates: Vec<u8>,
}

/// Flat per-document feature table: every token's hashed feature ids in
/// one contiguous buffer plus `(offset, len)` spans. No per-token `Vec`,
/// fully reusable across documents.
#[derive(Default)]
pub struct FlatFeatures {
    ids: Vec<u64>,
    spans: Vec<(u32, u32)>,
    gates: Vec<u8>,
}

impl FlatFeatures {
    /// Number of tokens the table covers.
    pub fn n_tokens(&self) -> usize {
        self.spans.len()
    }

    /// The hashed feature ids of token `t`, in extraction order.
    #[inline]
    pub fn row(&self, t: usize) -> &[u64] {
        let (start, k) = self.spans[t];
        &self.ids[start as usize..start as usize + k as usize]
    }

    /// The base-type gate bitmask of token `t`.
    #[inline]
    pub fn gate(&self, t: usize) -> u8 {
        self.gates[t]
    }

    /// All gate bitmasks, indexed by token.
    pub fn gates(&self) -> &[u8] {
        &self.gates
    }

    fn clear(&mut self) {
        self.ids.clear();
        self.spans.clear();
        self.gates.clear();
    }
}

/// Reusable working memory for [`extract_into`]: document structure
/// buffers plus a string arena for normalized token texts. One scratch
/// serves any number of documents; a warm scratch allocates nothing for
/// documents no larger than the largest seen so far.
#[derive(Default)]
pub struct FeatureScratch {
    line_of: Vec<usize>,
    pos_in_line: Vec<usize>,
    above: Vec<Option<u32>>,
    /// Struct-of-arrays bbox copies (`x0`, `x1`, `y1`) for the
    /// nearest-above scan.
    gx0: Vec<f32>,
    gx1: Vec<f32>,
    gy1: Vec<f32>,
    /// Normalized token texts; slots (and their capacity) are reused.
    normed: Vec<String>,
    shape_buf: String,
    df_buf: String,
}

/// Extracts features for every token of `doc` into the nested
/// [`DocFeatures`] layout of the test oracles; the ids are identical to
/// [`extract_into`]'s flat table, row for row.
#[cfg(test)]
pub fn extract(doc: &Document, lexicon: &Lexicon) -> DocFeatures {
    let mut scratch = FeatureScratch::default();
    let mut flat = FlatFeatures::default();
    extract_into(doc, lexicon, &mut scratch, &mut flat);
    DocFeatures {
        features: (0..flat.n_tokens()).map(|t| flat.row(t).to_vec()).collect(),
        gates: flat.gates.clone(),
    }
}

/// Extracts features for every token of `doc` into `out`, reusing
/// `scratch` for all intermediate structure. This is the single source of
/// truth for the feature definitions; a warm `(scratch, out)` pair makes
/// extraction allocation-free.
pub fn extract_into(
    doc: &Document,
    lexicon: &Lexicon,
    scratch: &mut FeatureScratch,
    out: &mut FlatFeatures,
) {
    let FeatureScratch {
        line_of,
        pos_in_line,
        above,
        gx0,
        gx1,
        gy1,
        normed,
        shape_buf,
        df_buf,
    } = scratch;
    let n = doc.tokens.len();
    out.clear();
    // line_of[t] and position within line.
    line_of.clear();
    line_of.resize(n, usize::MAX);
    pos_in_line.clear();
    pos_in_line.resize(n, 0);
    for (li, line) in doc.lines.iter().enumerate() {
        for (pi, &t) in line.tokens.iter().enumerate() {
            line_of[t as usize] = li;
            pos_in_line[t as usize] = pi;
        }
    }
    // Nearest token vertically above each token (same column band).
    compute_above_into(doc, above, gx0, gx1, gy1);
    // Normalized token texts, computed once: the raw loop re-normalizes
    // each token every time it appears as someone's neighbor (~6-8x).
    if normed.len() < n {
        normed.resize_with(n, String::new);
    }
    for (t, tok) in doc.tokens.iter().enumerate() {
        crate::lexicon::norm_into(&tok.text, &mut normed[t]);
    }

    for t in 0..n {
        let tok = &doc.tokens[t];
        let text = tok.text.as_str();
        let lower = normed[t].as_str();
        let start = out.ids.len();
        let fs = &mut out.ids;
        fs.push(FeatHash::new(0).str("bias").id());
        fs.push(FeatHash::new(1).str(lower).id());
        shape_into(text, shape_buf);
        fs.push(FeatHash::new(2).str(shape_buf).id());
        // Affixes.
        if lower.len() >= 3 {
            fs.push(FeatHash::new(3).str(&lower[..3]).id());
            fs.push(FeatHash::new(4).str(&lower[lower.len() - 3..]).id());
        }
        // Value-type flags.
        let gate = type_gate(text);
        fs.push(FeatHash::new(5).str("gate").dec(gate as usize).id());
        // DF bucket from unsupervised pre-training.
        fs.push(
            FeatHash::new(6)
                .str("df")
                .dec(lexicon.df_bucket_into(text, df_buf) as usize)
                .id(),
        );

        // Same-line left context: the 3 nearest tokens to the left, plus
        // their joined text (the key-phrase anchor for kv rows).
        if line_of[t] != usize::MAX {
            let line = &doc.lines[line_of[t]];
            let p = pos_in_line[t];
            // Nearest-first token indices of up to 3 left neighbors.
            let mut left_idx = [0usize; 3];
            let mut left_cnt = 0usize;
            for k in 1..=3usize {
                if p >= k {
                    let lt = line.tokens[p - k] as usize;
                    fs.push(FeatHash::new(7 + k as u8).str(&normed[lt]).id());
                    left_idx[left_cnt] = lt;
                    left_cnt += 1;
                }
            }
            if left_cnt > 0 {
                // Joined phrase in reading order (leftmost first),
                // streamed word by word (== join(" ")).
                let mut h11 = FeatHash::new(11);
                let mut h12 = FeatHash::new(12);
                for (i, &lt) in left_idx[..left_cnt].iter().rev().enumerate() {
                    if i > 0 {
                        h11 = h11.str(" ");
                        h12 = h12.str(" ");
                    }
                    h11 = h11.str(&normed[lt]);
                    h12 = h12.str(&normed[lt]);
                }
                fs.push(h11.id());
                // Conjunction with the left phrase's DF bucket: phrase-like
                // left context is a strong anchor. The nearest left word is
                // the phrase's last word in reading order.
                let df = lexicon.df_bucket_into(&normed[left_idx[0]], df_buf);
                fs.push(h12.str("|df").dec(df as usize).id());
            }
            // Right neighbor on the line (values left of their labels in
            // some layouts).
            if p + 1 < line.tokens.len() {
                let rt = line.tokens[p + 1] as usize;
                fs.push(FeatHash::new(13).str(&normed[rt]).id());
            }
            // First token of the line (the row label in tables).
            let first = line.tokens[0] as usize;
            if first != t {
                fs.push(FeatHash::new(14).str(&normed[first]).id());
                // Row label + column bucket: the feature that reads a
                // table cell as (row phrase, column).
                let col = (tok.bbox.center().x / 125.0) as usize;
                fs.push(
                    FeatHash::new(15)
                        .str(&normed[first])
                        .str("|c")
                        .dec(col)
                        .id(),
                );
                // Row label bigram (e.g. "base salary").
                if line.tokens.len() > 1 && line.tokens[1] as usize != t {
                    let second = &normed[line.tokens[1] as usize];
                    fs.push(
                        FeatHash::new(22)
                            .str(&normed[first])
                            .str(" ")
                            .str(second)
                            .id(),
                    );
                }
            }
            // Line length bucket.
            fs.push(
                FeatHash::new(16)
                    .str("ll")
                    .dec(line.tokens.len().min(8))
                    .id(),
            );
        }

        // Vertically-above context (stacked label/value layouts and table
        // column headers).
        if let Some(a) = above[t] {
            fs.push(FeatHash::new(17).str(&normed[a as usize]).id());
            // Above + its left neighbor (two-word stacked labels).
            if line_of[a as usize] != usize::MAX {
                let aline = &doc.lines[line_of[a as usize]];
                let ap = pos_in_line[a as usize];
                if ap >= 1 {
                    let prev = &normed[aline.tokens[ap - 1] as usize];
                    fs.push(
                        FeatHash::new(18)
                            .str(prev)
                            .str(" ")
                            .str(&normed[a as usize])
                            .id(),
                    );
                }
            }
        }

        // Absolute layout: page-grid cell and line index bucket — the
        // memorization-prone features FieldSwap regularizes.
        let c = tok.bbox.center();
        let gx = (c.x / 125.0) as usize;
        let gy = (c.y / 100.0) as usize;
        fs.push(FeatHash::new(19).str("g").dec(gx).str("-").dec(gy).id());
        if line_of[t] != usize::MAX {
            fs.push(FeatHash::new(20).str("li").dec(line_of[t].min(30)).id());
        }
        fs.push(FeatHash::new(21).str("x").dec(gx).id());

        out.spans
            .push((start as u32, (out.ids.len() - start) as u32));
        out.gates.push(gate);
    }
}

/// For each token, the nearest token strictly above it whose x-extent
/// overlaps (a column-aligned predecessor).
///
/// Two passes over struct-of-arrays bbox copies: a branch-light min
/// reduction finds the smallest gap, then a first-match scan recovers the
/// winning index. The result equals the naive keep-first-strict-min scan
/// ([`compute_above_reference`]) exactly: the minimum of a set of finite
/// gaps is order-independent, and the first index attaining it is the one
/// the sequential scan would have kept.
fn compute_above_into(
    doc: &Document,
    above: &mut Vec<Option<u32>>,
    gx0: &mut Vec<f32>,
    gx1: &mut Vec<f32>,
    gy1: &mut Vec<f32>,
) {
    let n = doc.tokens.len();
    above.clear();
    above.resize(n, None);
    gx0.clear();
    gx1.clear();
    gy1.clear();
    gx0.extend(doc.tokens.iter().map(|t| t.bbox.x0));
    gx1.extend(doc.tokens.iter().map(|t| t.bbox.x1));
    gy1.extend(doc.tokens.iter().map(|t| t.bbox.y1));
    for (t, slot) in above.iter_mut().enumerate() {
        let tb = &doc.tokens[t].bbox;
        let (tx0, tx1, ty0) = (tb.x0, tb.x1, tb.y0);
        // Mask the token itself out of its own scan (a degenerate
        // zero-height box would otherwise match with gap 0).
        let saved = gy1[t];
        gy1[t] = f32::INFINITY;
        // Pass 1: smallest vertical gap among column-overlapping tokens
        // strictly above. Branchless selects (non-short-circuit `&`,
        // compare-and-choose instead of NaN-aware `f32::min` — no
        // operand here is ever NaN) with four independent accumulators
        // to break the min-latency chain.
        let (ys, xa, xb) = (&gy1[..n], &gx0[..n], &gx1[..n]);
        let mut m = [f32::INFINITY; 4];
        let mut o = 0;
        while o + 4 <= n {
            for (k, mk) in m.iter_mut().enumerate() {
                let i = o + k;
                let ok = (ys[i] <= ty0) & (xa[i] < tx1) & (tx0 < xb[i]);
                let cand = if ok { ty0 - ys[i] } else { f32::INFINITY };
                *mk = if cand < *mk { cand } else { *mk };
            }
            o += 4;
        }
        while o < n {
            let ok = (ys[o] <= ty0) & (xa[o] < tx1) & (tx0 < xb[o]);
            let cand = if ok { ty0 - ys[o] } else { f32::INFINITY };
            m[0] = if cand < m[0] { cand } else { m[0] };
            o += 1;
        }
        let mut best_dy = f32::INFINITY;
        for mk in m {
            best_dy = if mk < best_dy { mk } else { best_dy };
        }
        // Pass 2: the first index attaining the minimum gap.
        if best_dy < f32::INFINITY {
            for o in 0..n {
                if gy1[o] <= ty0 && gx0[o] < tx1 && tx0 < gx1[o] && ty0 - gy1[o] == best_dy {
                    *slot = Some(o as u32);
                    break;
                }
            }
        }
        gy1[t] = saved;
    }
}

/// The original all-pairs nearest-above scan, kept as the oracle for
/// [`compute_above_into`].
#[cfg(test)]
fn compute_above_reference(doc: &Document) -> Vec<Option<u32>> {
    let n = doc.tokens.len();
    let mut above = vec![None; n];
    for (t, slot) in above.iter_mut().enumerate() {
        let tb = &doc.tokens[t].bbox;
        let mut best: Option<(f32, u32)> = None;
        for o in 0..n {
            if o == t {
                continue;
            }
            let ob = &doc.tokens[o].bbox;
            // Strictly above with horizontal overlap.
            if ob.y1 <= tb.y0 && ob.x0 < tb.x1 && tb.x0 < ob.x1 {
                let dy = tb.y0 - ob.y1;
                if best.is_none_or(|(bd, _)| dy < bd) {
                    best = Some((dy, o as u32));
                }
            }
        }
        *slot = best.map(|(_, o)| o);
    }
    above
}

#[cfg(test)]
fn compute_above(doc: &Document) -> Vec<Option<u32>> {
    let mut out = Vec::new();
    let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
    compute_above_into(doc, &mut out, &mut a, &mut b, &mut c);
    assert_eq!(out, compute_above_reference(doc), "above-scan drift");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fieldswap_docmodel::{BBox, DocumentBuilder, Token};

    fn doc(rows: &[&str]) -> Document {
        let mut b = DocumentBuilder::new("t");
        for (r, row) in rows.iter().enumerate() {
            let mut x = 10.0;
            for w in row.split_whitespace() {
                let width = 8.0 * w.len() as f32;
                b.push_token(Token::new(
                    w,
                    BBox::new(x, 30.0 * r as f32, x + width, 30.0 * r as f32 + 12.0),
                ));
                x += width + 5.0;
            }
        }
        let mut d = b.build();
        fieldswap_ocr::detect_lines(&mut d);
        d
    }

    #[test]
    fn fnv1a_constants_pinned() {
        // The weight table addresses are a pure function of these hashes;
        // any drift silently invalidates every trained model. The prime is
        // intentionally the historical (non-canonical) one — see its
        // definition — so the vectors below are computed for it, not the
        // textbook FNV-1a vectors.
        assert_eq!(FNV_OFFSET, 0xCBF2_9CE4_8422_2325);
        assert_eq!(FNV_PRIME, 0x1_0000_01B3);
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0x1162_BB90_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x3FEF_AB5E_F739_67E8);
    }

    #[test]
    fn incremental_hasher_matches_buffered_fnv() {
        // FeatHash streams must equal hashing the formatted payload.
        for kind in [0u8, 7, 22, 255] {
            for payload in ["", "bias", "total due", "g3-12", "ll8", "x0"] {
                let mut buf = vec![kind];
                buf.extend_from_slice(payload.as_bytes());
                assert_eq!(
                    FeatHash::new(kind).str(payload).id(),
                    fnv1a(&buf),
                    "kind {kind} payload {payload:?}"
                );
            }
        }
        for v in [0usize, 9, 10, 123, 30, usize::MAX] {
            let formatted = format!("li{v}");
            let mut buf = vec![20u8];
            buf.extend_from_slice(formatted.as_bytes());
            assert_eq!(FeatHash::new(20).str("li").dec(v).id(), fnv1a(&buf));
        }
    }

    #[test]
    fn gate_masks() {
        assert!(gate_allows(type_gate("$5.00"), BaseType::Money));
        assert!(!gate_allows(type_gate("Amount"), BaseType::Money));
        assert!(gate_allows(type_gate("Amount"), BaseType::String));
        assert!(gate_allows(type_gate("Amount"), BaseType::Address));
        assert!(gate_allows(type_gate("01/02/2024"), BaseType::Date));
        assert!(gate_allows(type_gate("42"), BaseType::Number));
        assert!(!gate_allows(type_gate("word"), BaseType::Number));
    }

    #[test]
    fn features_nonempty_for_all_tokens() {
        let d = doc(&["Amount Due $5.00", "Date 01/02/2024"]);
        let f = extract(&d, &Lexicon::empty());
        assert_eq!(f.features.len(), d.tokens.len());
        assert!(f.features.iter().all(|fs| fs.len() >= 6));
    }

    #[test]
    fn left_context_features_differ_by_anchor() {
        // Same value token, different left phrases -> different feature
        // sets (this is what key-phrase swapping changes).
        let d1 = doc(&["Base Salary $5.00"]);
        let d2 = doc(&["Overtime Pay $5.00"]);
        let f1 = &extract(&d1, &Lexicon::empty()).features[2];
        let f2 = &extract(&d2, &Lexicon::empty()).features[2];
        assert_ne!(f1, f2);
        // But the lexical features of the token itself are shared.
        let shared: Vec<_> = f1.iter().filter(|x| f2.contains(x)).collect();
        assert!(!shared.is_empty());
    }

    #[test]
    fn above_feature_links_stacked_label() {
        let d = doc(&["Invoice Date", "01/02/2024"]);
        // Token 2 = the date, directly below "Invoice"(0)/"Date"(1).
        let above = compute_above(&d);
        assert!(above[2].is_some());
        let a = above[2].unwrap() as usize;
        assert!(a == 0 || a == 1);
    }

    #[test]
    fn above_ignores_non_overlapping_columns() {
        let mut b = DocumentBuilder::new("t");
        b.push_token(Token::new("Left", BBox::new(0.0, 0.0, 30.0, 12.0)));
        b.push_token(Token::new("Right", BBox::new(500.0, 30.0, 540.0, 42.0)));
        let d = b.build();
        let above = compute_above(&d);
        assert_eq!(above[1], None);
    }

    #[test]
    fn deterministic_hashes() {
        let d = doc(&["Total $9.99"]);
        let a = extract(&d, &Lexicon::empty());
        let b = extract(&d, &Lexicon::empty());
        assert_eq!(a.features, b.features);
    }

    #[test]
    fn flat_extraction_matches_nested_with_scratch_reuse() {
        // One warm (scratch, flat) pair across documents of varying size
        // must reproduce the nested extraction row for row — the identity
        // the frozen inference path relies on.
        let corpus = fieldswap_datagen::generate(fieldswap_datagen::Domain::Earnings, 11, 8);
        let lex = Lexicon::pretrain(&corpus.documents);
        let mut scratch = FeatureScratch::default();
        let mut flat = FlatFeatures::default();
        let mut docs: Vec<&Document> = corpus.documents.iter().collect();
        let small = doc(&["Total $9.99"]);
        docs.insert(3, &small); // shrink mid-stream: stale arena slots must not leak
        for d in docs {
            let nested = extract(d, &lex);
            extract_into(d, &lex, &mut scratch, &mut flat);
            assert_eq!(flat.n_tokens(), nested.features.len());
            assert_eq!(flat.gates(), &nested.gates[..]);
            for t in 0..flat.n_tokens() {
                assert_eq!(
                    flat.row(t),
                    &nested.features[t][..],
                    "token {t} of {}",
                    d.id
                );
            }
        }
    }

    #[test]
    fn df_bucket_changes_features() {
        let d = doc(&["Total $9.99"]);
        let empty = extract(&d, &Lexicon::empty());
        let corpus = fieldswap_datagen::generate(fieldswap_datagen::Domain::Invoices, 1, 50);
        let lex = Lexicon::pretrain(&corpus.documents);
        let trained = extract(&d, &lex);
        assert_ne!(empty.features[0], trained.features[0]);
    }
}
