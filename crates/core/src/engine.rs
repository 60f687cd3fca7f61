//! The document-level augmentation engine (Section II-C).
//!
//! For each document in the training data and each source→target pair
//! `(S, T)`: if the document contains a labeled instance of `S` *and* an
//! occurrence of one of `S`'s key phrases, then for every key phrase of `T`
//! we emit one synthetic document in which all matching `S` phrases are
//! replaced by that `T` phrase and all `S` instances are relabeled to `T`.
//! Synthetics whose token text is unchanged by the replacement are
//! discarded — the guard that suppresses contradictory same-phrase swaps.
//!
//! Augmentation runs in two phases. [`SwapPlan::new`] *plans*: it runs the
//! matcher, overlap resolution and the discard rule, and records each
//! surviving swap as a handful of integers. [`SwapPlan::build`] *builds*
//! one synthetic on demand. Callers that keep a subset (the experiment
//! harness's synthetic cap) or only count (Table III) build only what they
//! use; [`augment_corpus`] and [`augment_document`] plan, then build all.

use crate::config::FieldSwapConfig;
use crate::matcher::{DocMatcher, PhraseMatch};
use fieldswap_docmodel::{BBox, Corpus, Document, EntitySpan, FieldId, Token};
use std::borrow::Cow;
use std::ops::Range;

/// Engine behavior knobs. The defaults implement the paper exactly; the
/// alternatives exist for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Discard synthetics whose token text is unchanged by the swap
    /// (Section II-C — the guard against same-phrase contradictory
    /// swaps). Disabling this is the `discard_rule` ablation.
    pub discard_unchanged: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            discard_unchanged: true,
        }
    }
}

/// Counters describing one augmentation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AugmentStats {
    /// Synthetic documents produced.
    pub generated: usize,
    /// Candidates discarded because the replacement left the text
    /// unchanged (source phrase == target phrase).
    pub discarded_unchanged: usize,
    /// `(source, target)` pair applications that produced at least one
    /// synthetic.
    pub productive_pairs: usize,
    /// Matcher probes: individual `(pair, source phrase)` lookups.
    pub phrase_probes: usize,
    /// Matcher hits: phrase occurrences found across all probes
    /// (before overlap resolution).
    pub phrase_matches: usize,
    /// Pair applications skipped because the source or target field has no
    /// key phrases (e.g. inference produced none) — the graceful
    /// degradation path, never a panic.
    pub skipped_pairs_no_phrases: usize,
    /// Documents that failed [`Document::validate`] and were repaired by
    /// [`Document::sanitize`] before augmentation.
    pub sanitized_docs: usize,
}

impl AugmentStats {
    /// Publishes this run's counters to the `fieldswap-obs` registry
    /// (no-op unless metrics are enabled).
    fn report(&self) {
        if !fieldswap_obs::metrics_enabled() {
            return;
        }
        let attempts = self.generated + self.discarded_unchanged;
        fieldswap_obs::counter_add("fieldswap_swap_attempts_total", attempts as u64);
        fieldswap_obs::counter_add("fieldswap_swap_synthetics_total", self.generated as u64);
        fieldswap_obs::counter_add(
            "fieldswap_swap_discarded_unchanged_total",
            self.discarded_unchanged as u64,
        );
        fieldswap_obs::counter_add(
            "fieldswap_swap_productive_pairs_total",
            self.productive_pairs as u64,
        );
        fieldswap_obs::counter_add("fieldswap_matcher_probes_total", self.phrase_probes as u64);
        fieldswap_obs::counter_add("fieldswap_matcher_hits_total", self.phrase_matches as u64);
        fieldswap_obs::counter_add(
            "fieldswap_swap_skipped_pairs_no_phrases_total",
            self.skipped_pairs_no_phrases as u64,
        );
        fieldswap_obs::counter_add("fieldswap_sanitized_docs_total", self.sanitized_docs as u64);
    }
}

/// Augments a whole corpus: plans every swap with [`SwapPlan::new`] and
/// builds all of them. Synthetic documents do not include the originals;
/// train on the union (Fig. 3, step 3).
pub fn augment_corpus(corpus: &Corpus, config: &FieldSwapConfig) -> (Vec<Document>, AugmentStats) {
    augment_corpus_with(corpus, config, &EngineOptions::default())
}

/// [`augment_corpus`] with explicit engine options.
pub fn augment_corpus_with(
    corpus: &Corpus,
    config: &FieldSwapConfig,
    opts: &EngineOptions,
) -> (Vec<Document>, AugmentStats) {
    let plan = SwapPlan::new(corpus, config, opts);
    (plan.build_all(), plan.stats)
}

/// Generates all synthetic variants of one document under `config`.
pub fn augment_document(doc: &Document, config: &FieldSwapConfig) -> (Vec<Document>, AugmentStats) {
    let plan = SwapPlan::plan(std::slice::from_ref(doc), config, &EngineOptions::default());
    (plan.build_all(), plan.stats)
}

/// One planned synthetic: what [`SwapPlan::build`] needs to make it.
#[derive(Debug)]
struct PlannedSwap {
    /// Index into [`SwapPlan::docs`].
    doc: usize,
    source: FieldId,
    target: FieldId,
    /// Index into the target field's key phrases.
    phrase: usize,
    /// The resolved source-phrase occurrences, as a range of
    /// [`SwapPlan::matches`]; every target phrase of one `(doc, pair)`
    /// shares it.
    matches: Range<usize>,
}

/// Every synthetic FieldSwap would generate from a set of documents,
/// planned but not yet built. Planning runs the matcher, overlap
/// resolution and the discard rule, so [`len`](Self::len) and
/// [`stats`](Self::stats) are final; [`build`](Self::build) makes one
/// synthetic, identical to the one at the same index of
/// [`augment_corpus`]'s output.
#[derive(Debug)]
pub struct SwapPlan<'a> {
    /// The planned documents, in input order; degenerate ones are
    /// sanitized copies.
    docs: Vec<Cow<'a, Document>>,
    config: &'a FieldSwapConfig,
    /// Arena of resolved phrase occurrences shared by the planned swaps.
    matches: Vec<PhraseMatch>,
    swaps: Vec<PlannedSwap>,
    stats: AugmentStats,
}

impl<'a> SwapPlan<'a> {
    /// Plans every swap over `corpus` and publishes the run's counters.
    pub fn new(corpus: &'a Corpus, config: &'a FieldSwapConfig, opts: &EngineOptions) -> Self {
        let _span = fieldswap_obs::span("augment_corpus");
        let plan = Self::plan(&corpus.documents, config, opts);
        plan.stats.report();
        plan
    }

    fn plan(docs: &'a [Document], config: &'a FieldSwapConfig, opts: &EngineOptions) -> Self {
        let mut plan = Self {
            docs: Vec::with_capacity(docs.len()),
            config,
            matches: Vec::new(),
            swaps: Vec::new(),
            stats: AugmentStats::default(),
        };
        for doc in docs {
            plan.plan_document(doc, opts);
        }
        plan
    }

    fn plan_document(&mut self, doc: &'a Document, opts: &EngineOptions) {
        let config = self.config;
        let doc_index = self.docs.len();
        // Degenerate inputs (deserialized or attacked documents that
        // bypass `DocumentBuilder`) are repaired on a copy rather than
        // crashing the engine; valid documents are borrowed untouched.
        let doc: Cow<'a, Document> = if doc.validate().is_err() {
            let mut copy = doc.clone();
            copy.sanitize();
            self.stats.sanitized_docs += 1;
            Cow::Owned(copy)
        } else {
            Cow::Borrowed(doc)
        };
        // One matching context per document: token normalization and the
        // labeled set are shared by every (pair, phrase) probe below.
        let matcher = DocMatcher::new(&doc);
        for &(source, target) in config.pairs() {
            if !config.has_phrases(source) || !config.has_phrases(target) {
                // Zero inferred phrases for a field: skip the pair
                // (counted), never panic. The swap would be a no-op anyway.
                self.stats.skipped_pairs_no_phrases += 1;
                continue;
            }
            if !doc.has_field(source) {
                continue;
            }
            // The paper replaces "all matching source key phrases":
            // occurrences of different source phrases are all rewritten
            // in the same synthetic.
            let matches = resolve_matches(&matcher, config.phrases(source), &mut self.stats);
            if matches.is_empty() {
                continue;
            }
            let old_texts = match_texts(&doc, &matches);
            let start = self.matches.len();
            self.matches.extend_from_slice(&matches);
            let range = start..self.matches.len();
            let planned = self.swaps.len();
            for (pi, target_phrase) in config.phrases(target).iter().enumerate() {
                if discards(&old_texts, target_phrase, opts) {
                    self.stats.discarded_unchanged += 1;
                    continue;
                }
                self.swaps.push(PlannedSwap {
                    doc: doc_index,
                    source,
                    target,
                    phrase: pi,
                    matches: range.clone(),
                });
            }
            let produced = self.swaps.len() - planned;
            self.stats.generated += produced;
            if produced > 0 {
                self.stats.productive_pairs += 1;
            }
        }
        self.docs.push(doc);
    }

    /// Number of planned synthetics (equals `stats().generated`).
    pub fn len(&self) -> usize {
        self.swaps.len()
    }

    /// Whether the plan holds no synthetic.
    pub fn is_empty(&self) -> bool {
        self.swaps.is_empty()
    }

    /// The run's statistics, final at planning time.
    pub fn stats(&self) -> &AugmentStats {
        &self.stats
    }

    /// Builds synthetic `i` (planning order: document, pair, target
    /// phrase). Each call is independent, so any subset can be built in
    /// any order. Panics if `i >= len()`.
    pub fn build(&self, i: usize) -> Document {
        let s = &self.swaps[i];
        fieldswap_obs::counter_add("fieldswap_swap_built_total", 1);
        build_swap(
            &self.docs[s.doc],
            &self.matches[s.matches.clone()],
            s.source,
            s.target,
            &self.config.phrases(s.target)[s.phrase],
            s.phrase,
        )
    }

    /// Builds every planned synthetic, in planning order.
    pub fn build_all(&self) -> Vec<Document> {
        (0..self.len()).map(|i| self.build(i)).collect()
    }
}

/// The occurrences of `phrases` a swap rewrites: every match in the
/// matcher's document, sorted by start, with overlaps resolved — where
/// matches overlap (e.g. "base" inside "base salary"), the
/// earliest-starting, longest one is kept — so [`build_swap`] sees
/// disjoint, ordered spans. Probes and hits (before overlap resolution)
/// are counted into `stats`. Shared with the cross-domain extension
/// (`crate::crossdomain`).
pub(crate) fn resolve_matches(
    matcher: &DocMatcher<'_>,
    phrases: &[String],
    stats: &mut AugmentStats,
) -> Vec<PhraseMatch> {
    let mut matches: Vec<PhraseMatch> = Vec::new();
    for phrase in phrases {
        stats.phrase_probes += 1;
        matches.extend(matcher.find(phrase));
    }
    stats.phrase_matches += matches.len();
    matches.sort_by_key(|m| m.start);
    let mut out: Vec<PhraseMatch> = Vec::with_capacity(matches.len());
    for m in matches {
        match out.last_mut() {
            Some(last) if m.start < last.end => {
                // Overlap: prefer the longer occurrence.
                if m.end - m.start > last.end - last.start {
                    *last = m;
                }
            }
            _ => out.push(m),
        }
    }
    out
}

/// The normalized, space-joined text of each match — what the match
/// "already reads as" for the unchanged-swap guard in [`discards`].
pub(crate) fn match_texts(doc: &Document, matches: &[PhraseMatch]) -> Vec<String> {
    matches
        .iter()
        .map(|m| {
            let old: Vec<String> = (m.start..m.end)
                .map(|t| crate::config::normalize_phrase(&doc.tokens[t as usize].text))
                .collect();
            old.join(" ")
        })
        .collect()
}

/// The discard rule: whether swapping in `target_phrase` must not produce
/// a synthetic. `old_texts` is [`match_texts`] of the matches, computed
/// once per (document, pair) because it does not depend on the target
/// phrase. Shared with the cross-domain extension.
pub(crate) fn discards(old_texts: &[String], target_phrase: &str, opts: &EngineOptions) -> bool {
    // A whitespace-only target phrase (possible via a hand-written JSON
    // config that bypasses `set_phrases` normalization) would emit a
    // synthetic containing an empty-word token; discard the swap instead.
    if target_phrase.split_whitespace().next().is_none() {
        return true;
    }
    // Unchanged text: every match already reads as the target phrase.
    opts.discard_unchanged && old_texts.iter().all(|old| old == target_phrase)
}

/// Builds the synthetic document for a swap that passed [`discards`]:
/// replaces every match with `target_phrase` tokens, relabels `source`
/// annotations as `target`, and re-runs line detection. Shared with the
/// cross-domain extension.
pub(crate) fn build_swap(
    doc: &Document,
    matches: &[PhraseMatch],
    source: FieldId,
    target: FieldId,
    target_phrase: &str,
    phrase_index: usize,
) -> Document {
    let new_words: Vec<&str> = target_phrase.split_whitespace().collect();

    // Rebuild the token list, tracking the old→new index mapping so that
    // annotations (which never overlap matches) can be shifted.
    let mut tokens: Vec<Token> = Vec::with_capacity(doc.tokens.len());
    let mut index_map: Vec<Option<u32>> = vec![None; doc.tokens.len()];
    let mut next_match = 0usize;
    let mut i = 0u32;
    let n = doc.tokens.len() as u32;
    while i < n {
        if next_match < matches.len() && matches[next_match].start == i {
            let m = matches[next_match];
            next_match += 1;
            // Lay the replacement phrase out from the old occurrence's
            // top-left corner, estimating character width from the old
            // tokens so the new phrase sits in the same visual slot.
            let first = &doc.tokens[m.start as usize].bbox;
            let old_chars: usize = (m.start..m.end)
                .map(|t| doc.tokens[t as usize].text.chars().count())
                .sum();
            let old_width: f32 = doc.tokens[m.end as usize - 1].bbox.x1 - first.x0;
            let char_w = if old_chars > 0 {
                (old_width / old_chars as f32).clamp(4.0, 12.0)
            } else {
                7.0
            };
            let mut x = first.x0;
            for w in &new_words {
                let width = w.chars().count() as f32 * char_w;
                tokens.push(Token::new(*w, BBox::new(x, first.y0, x + width, first.y1)));
                x += width + char_w * 0.7;
            }
            i = m.end;
            continue;
        }
        index_map[i as usize] = Some(tokens.len() as u32);
        tokens.push(doc.tokens[i as usize].clone());
        i += 1;
    }

    // Shift and relabel annotations. Annotations never overlap matches
    // (the matcher excludes labeled tokens), so the whole span maps.
    let mut annotations = Vec::with_capacity(doc.annotations.len());
    for a in &doc.annotations {
        let Some(new_start) = index_map[a.start as usize] else {
            debug_assert!(false, "annotation overlapped a phrase match");
            continue;
        };
        let new_end = new_start + (a.end - a.start);
        let field = if a.field == source { target } else { a.field };
        annotations.push(EntitySpan::new(field, new_start, new_end));
    }
    annotations.sort_by_key(|a| (a.start, a.end));

    let mut synth = Document {
        id: format!("{}+swap{}-{}p{}", doc.id, source, target, phrase_index),
        tokens,
        lines: Vec::new(),
        annotations,
    };
    fieldswap_ocr::detect_lines(&mut synth);
    debug_assert!(synth.validate().is_ok());
    synth
}

#[cfg(test)]
mod tests {
    use super::*;
    use fieldswap_docmodel::{DocumentBuilder, Schema};

    /// A paystub-like snippet mirroring the paper's Fig. 1:
    /// "Base Salary  $3,308.62" with the amount labeled `current.salary`
    /// (field 0) and an "Overtime  $120.00" row labeled field 1.
    fn fig1_doc() -> Document {
        let mut b = DocumentBuilder::new("paystub");
        let push = |text: &str, x: f32, y: f32, b: &mut DocumentBuilder| {
            let w = 8.0 * text.len() as f32;
            b.push_token(Token::new(text, BBox::new(x, y, x + w, y + 12.0)));
        };
        push("Base", 10.0, 10.0, &mut b); // 0
        push("Salary", 60.0, 10.0, &mut b); // 1
        push("$3,308.62", 300.0, 10.0, &mut b); // 2
        push("Overtime", 10.0, 40.0, &mut b); // 3
        push("$120.00", 300.0, 40.0, &mut b); // 4
        b.push_annotation(EntitySpan::new(0, 2, 3)); // current.salary
        b.push_annotation(EntitySpan::new(1, 4, 5)); // current.overtime
        let mut d = b.build();
        fieldswap_ocr::detect_lines(&mut d);
        d
    }

    fn fig1_config() -> FieldSwapConfig {
        let mut c = FieldSwapConfig::new(2);
        c.set_phrases(0, vec!["Base Salary".into(), "Base".into()]);
        c.set_phrases(1, vec!["Overtime".into()]);
        c
    }

    #[test]
    fn field_to_field_swap_keeps_label() {
        // Fig. 1 bottom-left: replace "Base Salary" with "Base"; the
        // label on $3,308.62 stays current.salary.
        let doc = fig1_doc();
        let mut config = fig1_config();
        config.set_pairs(vec![(0, 0)]);
        let (synths, stats) = augment_document(&doc, &config);
        // Two target phrases: "base salary" (unchanged → discard) and
        // "base" (valid).
        assert_eq!(stats.generated, 1);
        assert_eq!(stats.discarded_unchanged, 1);
        let s = &synths[0];
        let text: Vec<&str> = s.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(text, vec!["base", "$3,308.62", "Overtime", "$120.00"]);
        let salary = s.annotations.iter().find(|a| a.field == 0).unwrap();
        assert_eq!(s.span_text(salary.start, salary.end), "$3,308.62");
    }

    #[test]
    fn cross_field_swap_relabels() {
        // Fig. 1 bottom-right: replace "Base Salary" with "Overtime" and
        // relabel $3,308.62 as current.overtime.
        let doc = fig1_doc();
        let mut config = fig1_config();
        config.set_pairs(vec![(0, 1)]);
        let (synths, stats) = augment_document(&doc, &config);
        assert_eq!(stats.generated, 1);
        let s = &synths[0];
        // Both money values are now labeled field 1.
        let fields: Vec<FieldId> = s.annotations.iter().map(|a| a.field).collect();
        assert_eq!(fields, vec![1, 1]);
        let texts: Vec<&str> = s.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["overtime", "$3,308.62", "Overtime", "$120.00"]);
    }

    #[test]
    fn no_source_instance_no_synthetic() {
        let mut doc = fig1_doc();
        doc.annotations.retain(|a| a.field != 0);
        let mut config = fig1_config();
        config.set_pairs(vec![(0, 1)]);
        let (synths, _) = augment_document(&doc, &config);
        assert!(synths.is_empty());
    }

    #[test]
    fn no_phrase_occurrence_no_synthetic() {
        // Source field labeled but its phrase absent from the page.
        let doc = fig1_doc();
        let mut config = FieldSwapConfig::new(2);
        config.set_phrases(0, vec!["Gross Pay".into()]);
        config.set_phrases(1, vec!["Overtime".into()]);
        config.set_pairs(vec![(0, 1)]);
        let (synths, _) = augment_document(&doc, &config);
        assert!(synths.is_empty());
    }

    #[test]
    fn same_phrase_swap_discarded() {
        // Contradictory-pair guard: if S and T share the phrase, the
        // synthetic text is unchanged and must be discarded.
        let doc = fig1_doc();
        let mut config = FieldSwapConfig::new(2);
        config.set_phrases(0, vec!["Overtime".into()]); // pretend
        config.set_phrases(1, vec!["Overtime".into()]);
        config.set_pairs(vec![(1, 0)]);
        let (synths, stats) = augment_document(&doc, &config);
        assert!(synths.is_empty());
        assert_eq!(stats.discarded_unchanged, 1);
    }

    #[test]
    fn replacement_preserves_geometry_slot() {
        let doc = fig1_doc();
        let mut config = fig1_config();
        config.set_pairs(vec![(0, 1)]);
        let (synths, _) = augment_document(&doc, &config);
        let s = &synths[0];
        // New phrase starts at the old phrase's top-left corner.
        assert_eq!(s.tokens[0].bbox.x0, doc.tokens[0].bbox.x0);
        assert_eq!(s.tokens[0].bbox.y0, doc.tokens[0].bbox.y0);
        // Value stays put.
        let v = s.annotations.iter().find(|a| a.start == 1).unwrap();
        assert_eq!(s.tokens[v.start as usize].bbox, doc.tokens[2].bbox);
    }

    #[test]
    fn longer_replacement_phrase_expands_tokens() {
        let doc = fig1_doc();
        let mut config = FieldSwapConfig::new(2);
        config.set_phrases(0, vec!["Base Salary".into()]);
        config.set_phrases(1, vec!["Paid Time Off".into()]);
        config.set_pairs(vec![(0, 1)]);
        let (synths, _) = augment_document(&doc, &config);
        let s = &synths[0];
        assert_eq!(s.tokens.len(), 6); // 3-word phrase replaces 2 words
        assert!(s.validate().is_ok());
        // Annotation indices shifted correctly.
        let salary = s
            .annotations
            .iter()
            .find(|a| a.field == 1 && a.start == 3)
            .unwrap();
        assert_eq!(s.span_text(salary.start, salary.end), "$3,308.62");
    }

    #[test]
    fn all_occurrences_replaced() {
        // Two "Base Salary" occurrences (e.g. a summary repeating a row).
        let mut b = DocumentBuilder::new("d");
        for (i, (t, x, y)) in [
            ("Base", 10.0, 10.0),
            ("Salary", 60.0, 10.0),
            ("$1.00", 300.0, 10.0),
            ("Base", 10.0, 40.0),
            ("Salary", 60.0, 40.0),
            ("$2.00", 300.0, 40.0),
        ]
        .iter()
        .enumerate()
        {
            let w = 8.0 * t.len() as f32;
            b.push_token(Token::new(*t, BBox::new(*x, *y, *x + w, *y + 12.0)));
            if i == 2 || i == 5 {
                b.push_annotation(EntitySpan::new(0, i as u32, i as u32 + 1));
            }
        }
        let mut doc = b.build();
        fieldswap_ocr::detect_lines(&mut doc);
        let mut config = FieldSwapConfig::new(2);
        config.set_phrases(0, vec!["Base Salary".into()]);
        config.set_phrases(1, vec!["Bonus".into()]);
        config.set_pairs(vec![(0, 1)]);
        let (synths, _) = augment_document(&doc, &config);
        let s = &synths[0];
        let bonus_count = s.tokens.iter().filter(|t| t.text == "bonus").count();
        assert_eq!(bonus_count, 2);
        assert!(s.annotations.iter().all(|a| a.field == 1));
    }

    #[test]
    fn one_synthetic_per_target_phrase() {
        let doc = fig1_doc();
        let mut config = FieldSwapConfig::new(2);
        config.set_phrases(0, vec!["Base Salary".into()]);
        config.set_phrases(
            1,
            vec!["Overtime".into(), "OT Pay".into(), "Extra Hours".into()],
        );
        config.set_pairs(vec![(0, 1)]);
        let (synths, stats) = augment_document(&doc, &config);
        assert_eq!(synths.len(), 3);
        assert_eq!(stats.generated, 3);
        // Distinct ids for downstream bookkeeping.
        let ids: std::collections::HashSet<_> = synths.iter().map(|s| s.id.clone()).collect();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn augment_corpus_aggregates() {
        let schema = Schema::new(
            "t",
            vec![
                fieldswap_docmodel::FieldDef::new("a", fieldswap_docmodel::BaseType::Money),
                fieldswap_docmodel::FieldDef::new("b", fieldswap_docmodel::BaseType::Money),
            ],
        );
        let corpus = Corpus::new(schema, vec![fig1_doc(), fig1_doc()]);
        let mut config = fig1_config();
        config.set_pairs(vec![(0, 1), (1, 0)]);
        let (synths, stats) = augment_corpus(&corpus, &config);
        assert_eq!(synths.len(), stats.generated);
        assert!(stats.generated >= 4, "got {stats:?}");
    }

    #[test]
    fn empty_replacement_phrase_is_discarded_not_asserted() {
        // `set_phrases` normalizes away whitespace-only phrases, but a
        // hand-written JSON config bypasses it; `from_json` must not let
        // such a phrase produce a synthetic with an empty-word token (or
        // trip a debug assertion).
        let doc = fig1_doc();
        let config = FieldSwapConfig::from_json(
            r#"{"phrases": [["base salary"], ["   "]], "pairs": [[0, 1]]}"#,
        )
        .unwrap();
        let (synths, stats) = augment_document(&doc, &config);
        assert!(synths.is_empty());
        assert_eq!(stats.generated, 0);
        assert_eq!(stats.discarded_unchanged, 1);
    }

    #[test]
    fn zero_phrase_pair_skipped_with_counter() {
        let doc = fig1_doc();
        let mut config = FieldSwapConfig::new(2);
        config.set_phrases(0, vec!["Base Salary".into()]);
        // Field 1 has no phrases (inference found none).
        config.set_pairs(vec![(0, 1), (1, 0)]);
        let (synths, stats) = augment_document(&doc, &config);
        assert!(synths.is_empty());
        assert_eq!(stats.skipped_pairs_no_phrases, 2);
        assert_eq!(stats.phrase_probes, 0);
    }

    #[test]
    fn degenerate_document_is_sanitized_not_a_panic() {
        let mut doc = fig1_doc();
        // Out-of-range annotation + empty token text: fails validate().
        doc.annotations.push(EntitySpan {
            field: 1,
            start: 3,
            end: 99,
        });
        doc.tokens[3].text.clear();
        let mut config = fig1_config();
        config.set_pairs(vec![(0, 1)]);
        let (synths, stats) = augment_document(&doc, &config);
        assert_eq!(stats.sanitized_docs, 1);
        for s in &synths {
            assert!(s.validate().is_ok());
        }
    }

    #[test]
    fn valid_documents_bypass_sanitize() {
        let doc = fig1_doc();
        let mut config = fig1_config();
        config.set_pairs(vec![(0, 1)]);
        let (_, stats) = augment_document(&doc, &config);
        assert_eq!(stats.sanitized_docs, 0);
    }

    #[test]
    fn plan_counts_without_building() {
        let doc = fig1_doc();
        let schema = Schema::new(
            "t",
            vec![
                fieldswap_docmodel::FieldDef::new("a", fieldswap_docmodel::BaseType::Money),
                fieldswap_docmodel::FieldDef::new("b", fieldswap_docmodel::BaseType::Money),
            ],
        );
        let corpus = Corpus::new(schema, vec![doc.clone(), doc]);
        let mut config = fig1_config();
        config.set_pairs(vec![(0, 0), (0, 1), (1, 0)]);
        let plan = SwapPlan::new(&corpus, &config, &EngineOptions::default());
        let (synths, stats) = augment_corpus(&corpus, &config);
        assert_eq!(plan.len(), synths.len());
        assert_eq!(plan.len(), plan.stats().generated);
        assert_eq!(plan.stats(), &stats);
        // Any single index builds the synthetic at that position.
        let last = plan.len() - 1;
        assert_eq!(plan.build(last), synths[last]);
        assert_eq!(plan.build(0), synths[0]);
    }

    #[test]
    fn proptest_capped_plan_builds_match_shuffled_augment_corpus() {
        // The harness's cap path: shuffle and truncate plan *indices*,
        // build the survivors. It must yield the same documents, in the
        // same order, as building everything and shuffling the documents
        // with the same draws — including from a sanitized document.
        use crate::PairStrategy;
        use proptest::prelude::*;
        use proptest::test_runner::{Config, TestRunner};
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        let domain = fieldswap_datagen::Domain::Earnings;
        let mut corpus = fieldswap_datagen::generate(domain, 11, 5);
        let mut degenerate = corpus.documents[1].clone();
        degenerate.id = "degenerate".into();
        degenerate.annotations.push(EntitySpan {
            field: 0,
            start: 0,
            end: 99_999,
        });
        assert!(degenerate.validate().is_err());
        corpus.documents.insert(2, degenerate);
        let mut base = FieldSwapConfig::new(corpus.schema.len());
        for (name, phrases) in domain.generator().phrase_bank() {
            base.set_phrases(corpus.schema.field_id(&name).unwrap(), phrases);
        }
        let arms: Vec<_> = [
            PairStrategy::FieldToField,
            PairStrategy::TypeToType,
            PairStrategy::AllToAll,
        ]
        .iter()
        .map(|strategy| {
            let mut config = base.clone();
            config.set_pairs(strategy.build(&corpus.schema, &config));
            let (all, stats) = augment_corpus(&corpus, &config);
            assert_eq!(stats.sanitized_docs, 1);
            assert!(all.iter().any(|d| d.id.starts_with("degenerate+")));
            (config, all, stats)
        })
        .collect();

        let mut runner = TestRunner::new(Config::with_cases(24));
        runner
            .run(
                &(0usize..arms.len(), 0u64..u64::MAX, 1usize..400),
                |(arm, seed, cap)| {
                    let (config, all, stats) = &arms[arm];
                    let plan = SwapPlan::new(&corpus, config, &EngineOptions::default());
                    prop_assert_eq!(plan.stats(), stats);
                    prop_assert_eq!(plan.len(), all.len());

                    let mut expected = all.clone();
                    expected.shuffle(&mut StdRng::seed_from_u64(seed));
                    expected.truncate(cap);
                    let mut kept: Vec<usize> = (0..plan.len()).collect();
                    kept.shuffle(&mut StdRng::seed_from_u64(seed));
                    kept.truncate(cap);
                    let built: Vec<Document> = kept.iter().map(|&k| plan.build(k)).collect();
                    prop_assert_eq!(built, expected);
                    Ok(())
                },
            )
            .unwrap();
    }

    #[test]
    fn overlap_resolution_prefers_longer_phrase() {
        // "Base" is a phrase of field 0 and also a prefix of "Base Salary".
        let doc = fig1_doc();
        let mut config = FieldSwapConfig::new(2);
        config.set_phrases(0, vec!["Base".into(), "Base Salary".into()]);
        config.set_phrases(1, vec!["Bonus".into()]);
        config.set_pairs(vec![(0, 1)]);
        let (synths, _) = augment_document(&doc, &config);
        let s = &synths[0];
        let texts: Vec<&str> = s.tokens.iter().map(|t| t.text.as_str()).collect();
        // The full "Base Salary" is replaced once, not "Base" alone
        // leaving a dangling "Salary".
        assert_eq!(texts, vec!["bonus", "$3,308.62", "Overtime", "$120.00"]);
    }
}
