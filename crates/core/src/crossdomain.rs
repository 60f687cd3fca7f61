//! Cross-document-type swapping — the paper's future-work question:
//! "Under what circumstances does swapping across document types help?"
//! (Section VI).
//!
//! The mechanism generalizes FieldSwap: a labeled instance of a *source*
//! field in document type A becomes a synthetic example of a *target*
//! field in document type B by replacing the A-field's key phrase with a
//! B-field key phrase and relabeling into B's schema. All other
//! annotations are dropped (they do not exist in B's schema), so the
//! synthetic document contributes exactly one field's worth of training
//! signal to the target domain.
//!
//! Pairs are restricted to matching base types, the same heuristic that
//! makes in-domain type-to-type swaps safe.

use crate::config::FieldSwapConfig;
use crate::engine::{
    build_swap, discards, match_texts, resolve_matches, AugmentStats, EngineOptions,
};
use crate::matcher::DocMatcher;
use fieldswap_docmodel::{Corpus, Document, FieldId, Schema};

/// A cross-domain augmentation specification.
#[derive(Debug)]
pub struct CrossDomainSpec<'a> {
    /// Key phrases for the source domain's fields (source schema ids).
    pub source_config: &'a FieldSwapConfig,
    /// Key phrases for the target domain's fields (target schema ids).
    pub target_config: &'a FieldSwapConfig,
    /// `(source field, target field)` pairs; ids live in their respective
    /// schemas.
    pub pairs: Vec<(FieldId, FieldId)>,
}

/// Builds all `(source, target)` pairs whose base types match and whose
/// fields have key phrases in their respective configs.
pub fn cross_pairs_by_type(
    source_schema: &Schema,
    target_schema: &Schema,
    source_config: &FieldSwapConfig,
    target_config: &FieldSwapConfig,
) -> Vec<(FieldId, FieldId)> {
    let mut pairs = Vec::new();
    for (s, sdef) in source_schema.iter() {
        if !source_config.has_phrases(s) {
            continue;
        }
        for (t, tdef) in target_schema.iter() {
            if sdef.base_type == tdef.base_type && target_config.has_phrases(t) {
                pairs.push((s, t));
            }
        }
    }
    pairs
}

/// Generates target-domain synthetic documents from a source-domain
/// corpus. The returned documents carry annotations in the **target**
/// schema's field-id space.
pub fn augment_cross_domain(
    source: &Corpus,
    spec: &CrossDomainSpec<'_>,
) -> (Vec<Document>, AugmentStats) {
    let opts = EngineOptions::default();
    let mut out = Vec::new();
    let mut stats = AugmentStats::default();
    for doc in &source.documents {
        let matcher = DocMatcher::new(doc);
        for &(s, t) in &spec.pairs {
            if !doc.has_field(s) {
                continue;
            }
            let matches = resolve_matches(&matcher, spec.source_config.phrases(s), &mut stats);
            if matches.is_empty() {
                continue;
            }

            // Project the document into the target schema: keep only the
            // source field's instances (they become the target field) and
            // drop everything else.
            let mut projected = doc.clone();
            projected.annotations.retain(|a| a.field == s);
            projected.id = format!("{}+cross", doc.id);

            let old_texts = match_texts(doc, &matches);
            let mut produced = false;
            for (pi, target_phrase) in spec.target_config.phrases(t).iter().enumerate() {
                if discards(&old_texts, target_phrase, &opts) {
                    stats.discarded_unchanged += 1;
                    continue;
                }
                out.push(build_swap(&projected, &matches, s, t, target_phrase, pi));
                stats.generated += 1;
                produced = true;
            }
            if produced {
                stats.productive_pairs += 1;
            }
        }
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fieldswap_docmodel::{BBox, BaseType, DocumentBuilder, EntitySpan, FieldDef, Token};

    fn invoice_doc() -> Document {
        let mut b = DocumentBuilder::new("inv-1");
        let put = |text: &str, x: f32, y: f32, b: &mut DocumentBuilder| {
            let w = 8.0 * text.len() as f32;
            b.push_token(Token::new(text, BBox::new(x, y, x + w, y + 12.0)));
        };
        put("Amount", 10.0, 10.0, &mut b); // 0
        put("Due", 70.0, 10.0, &mut b); // 1
        put("$512.00", 300.0, 10.0, &mut b); // 2
        put("Customer", 10.0, 40.0, &mut b); // 3
        put("Alice", 300.0, 40.0, &mut b); // 4
        b.push_annotation(EntitySpan::new(0, 2, 3)); // invoice: total_due
        b.push_annotation(EntitySpan::new(1, 4, 5)); // invoice: customer
        let mut d = b.build();
        fieldswap_ocr::detect_lines(&mut d);
        d
    }

    fn schemas() -> (Schema, Schema) {
        let source = Schema::new(
            "invoice",
            vec![
                FieldDef::new("total_due", BaseType::Money),
                FieldDef::new("customer", BaseType::String),
            ],
        );
        let target = Schema::new(
            "loan",
            vec![
                FieldDef::new("borrower", BaseType::String),
                FieldDef::new("payment_due", BaseType::Money),
            ],
        );
        (source, target)
    }

    fn configs() -> (FieldSwapConfig, FieldSwapConfig) {
        let mut src = FieldSwapConfig::new(2);
        src.set_phrases(0, vec!["Amount Due".into()]);
        src.set_phrases(1, vec!["Customer".into()]);
        let mut tgt = FieldSwapConfig::new(2);
        tgt.set_phrases(0, vec!["Borrower".into()]);
        tgt.set_phrases(1, vec!["Payment Due".into(), "Total Payment".into()]);
        (src, tgt)
    }

    #[test]
    fn pairs_respect_base_types() {
        let (ss, ts) = schemas();
        let (sc, tc) = configs();
        let pairs = cross_pairs_by_type(&ss, &ts, &sc, &tc);
        // money->money and string->string only.
        assert_eq!(pairs, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn cross_domain_synthetics_land_in_target_schema() {
        let (ss, ts) = schemas();
        let (sc, tc) = configs();
        let corpus = Corpus::new(ss.clone(), vec![invoice_doc()]);
        let spec = CrossDomainSpec {
            source_config: &sc,
            target_config: &tc,
            pairs: cross_pairs_by_type(&ss, &ts, &sc, &tc),
        };
        let (synths, stats) = augment_cross_domain(&corpus, &spec);
        // money pair yields 2 synthetics (two target phrases); string
        // pair yields 1.
        assert_eq!(stats.generated, 3);
        for s in &synths {
            assert!(s.validate().is_ok());
            // Exactly one annotation: the projected instance.
            assert_eq!(s.annotations.len(), 1);
            assert!((s.annotations[0].field as usize) < ts.len());
        }
        // The money synthetic reads "payment due $512.00".
        let money = synths.iter().find(|s| s.annotations[0].field == 1).unwrap();
        let text: Vec<&str> = money.tokens.iter().map(|t| t.text.as_str()).collect();
        assert!(text.contains(&"payment") || text.contains(&"total"));
        assert!(text.contains(&"$512.00"));
    }

    #[test]
    fn overlapping_source_phrases_resolve_like_in_domain_swaps() {
        // Two "Amount Due" lines, and a source phrase that is a prefix of
        // another. Every occurrence must be rewritten whole, exactly as
        // the in-domain engine does: no stray "Due", no untouched line.
        let mut b = DocumentBuilder::new("inv-2");
        for (text, x, y) in [
            ("Amount", 10.0, 10.0),
            ("Due", 70.0, 10.0),
            ("$512.00", 300.0, 10.0),
            ("Amount", 10.0, 40.0),
            ("Due", 70.0, 40.0),
            ("$9.00", 300.0, 40.0),
        ] {
            let w = 8.0 * text.len() as f32;
            b.push_token(Token::new(text, BBox::new(x, y, x + w, y + 12.0)));
        }
        b.push_annotation(EntitySpan::new(0, 2, 3));
        b.push_annotation(EntitySpan::new(0, 5, 6));
        let mut doc = b.build();
        fieldswap_ocr::detect_lines(&mut doc);
        let (ss, _ts) = schemas();
        let mut sc = FieldSwapConfig::new(2);
        sc.set_phrases(0, vec!["Amount".into(), "Amount Due".into()]);
        let mut tc = FieldSwapConfig::new(2);
        tc.set_phrases(1, vec!["Payment Total".into()]);
        let spec = CrossDomainSpec {
            source_config: &sc,
            target_config: &tc,
            pairs: vec![(0, 1)],
        };
        let (cross, _) = augment_cross_domain(&Corpus::new(ss, vec![doc.clone()]), &spec);
        let text = |d: &Document| {
            let words: Vec<&str> = d.tokens.iter().map(|t| t.text.as_str()).collect();
            words.join(" ")
        };
        assert_eq!(cross.len(), 1);
        assert_eq!(text(&cross[0]), "payment total $512.00 payment total $9.00");
        assert!(cross[0].validate().is_ok());
        assert_eq!(cross[0].annotations.len(), 2);

        let mut in_domain = sc.clone();
        in_domain.set_phrases(1, vec!["Payment Total".into()]);
        in_domain.set_pairs(vec![(0, 1)]);
        let (swapped, _) = crate::engine::augment_document(&doc, &in_domain);
        assert_eq!(text(&swapped[0]), text(&cross[0]));
    }

    #[test]
    fn no_phrase_match_no_cross_synthetic() {
        let (ss, _ts) = schemas();
        let (mut sc, tc) = configs();
        sc.set_phrases(0, vec!["Nonexistent Phrase".into()]);
        let corpus = Corpus::new(ss.clone(), vec![invoice_doc()]);
        let spec = CrossDomainSpec {
            source_config: &sc,
            target_config: &tc,
            pairs: vec![(0, 1)],
        };
        let (synths, _) = augment_cross_domain(&corpus, &spec);
        assert!(synths.is_empty());
    }

    #[test]
    fn cross_domain_with_generated_corpora() {
        use fieldswap_datagen::{generate, Domain};
        // Invoices -> Earnings: money fields transfer.
        let invoices = generate(Domain::Invoices, 5, 10);
        let earnings_schema = Domain::Earnings.generator().schema();
        let mut sc = FieldSwapConfig::new(invoices.schema.len());
        for (name, phrases) in Domain::Invoices.generator().phrase_bank() {
            let id = invoices.schema.field_id(&name).unwrap();
            sc.set_phrases(id, phrases);
        }
        let mut tc = FieldSwapConfig::new(earnings_schema.len());
        for (name, phrases) in Domain::Earnings.generator().phrase_bank() {
            let id = earnings_schema.field_id(&name).unwrap();
            tc.set_phrases(id, phrases);
        }
        let pairs = cross_pairs_by_type(&invoices.schema, &earnings_schema, &sc, &tc);
        assert!(!pairs.is_empty());
        let spec = CrossDomainSpec {
            source_config: &sc,
            target_config: &tc,
            pairs,
        };
        let (synths, stats) = augment_cross_domain(&invoices, &spec);
        assert!(stats.generated > 0);
        for s in synths.iter().take(20) {
            assert!(s.validate().is_ok());
            assert_eq!(s.annotations.len(), 1);
        }
    }
}
