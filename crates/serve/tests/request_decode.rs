//! The one-pass `/v1/extract` body decode against the value-tree decode.
//!
//! Random documents are written with escaped and non-ASCII text, extra
//! and duplicate keys, shuffled keys, random whitespace, and integral
//! numbers written as `3`, `3.0` or `3e0`. Both paths must give the same
//! request (and the documents written), every truncated body must be an
//! error on both, and an input with a single error must get the same
//! message from both.

use fieldswap_docmodel::{BBox, Document, EntitySpan, Line, Token};
use fieldswap_serve::ExtractRequest;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};
use std::fmt::Write as _;

/// The value-tree decode the streaming one must agree with.
fn tree_decode(text: &str) -> Result<ExtractRequest, serde::Error> {
    serde_json::from_str::<Value>(text).and_then(|v| ExtractRequest::from_value(&v))
}

const CHARS: [char; 16] = [
    'a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '中', '😀',
    '\u{2028}',
];

/// Keys that no decoded type reads.
const EXTRA_KEYS: [&str; 4] = ["extra", "ocr_conf", "_meta", "Id"];

fn text(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..6usize))
        .map(|_| *CHARS.choose(rng).unwrap())
        .collect()
}

fn coord(rng: &mut StdRng) -> f32 {
    if rng.gen_bool(0.5) {
        rng.gen_range(0..1000u32) as f32
    } else {
        rng.gen_range(0.0..1000.0f32)
    }
}

fn bbox(rng: &mut StdRng) -> BBox {
    BBox {
        x0: coord(rng),
        y0: coord(rng),
        x1: coord(rng),
        y1: coord(rng),
    }
}

fn document(rng: &mut StdRng) -> Document {
    Document {
        id: text(rng),
        tokens: (0..rng.gen_range(0..5usize))
            .map(|_| Token::new(text(rng), bbox(rng)))
            .collect(),
        lines: (0..rng.gen_range(0..3usize))
            .map(|_| Line {
                tokens: (0..rng.gen_range(1..4usize))
                    .map(|_| rng.gen_range(0..8u32))
                    .collect(),
                bbox: bbox(rng),
            })
            .collect(),
        annotations: (0..rng.gen_range(0..3usize))
            .map(|_| EntitySpan {
                field: rng.gen_range(0..20u16),
                start: rng.gen_range(0..4u32),
                end: rng.gen_range(4..8u32),
            })
            .collect(),
    }
}

/// Writes value trees as JSON text, choosing a different spelling of the
/// same value at every step.
struct Writer {
    rng: StdRng,
    out: String,
}

impl Writer {
    fn ws(&mut self) {
        for _ in 0..self.rng.gen_range(0..3usize) {
            let c = *[' ', '\n', '\t', '\r'].choose(&mut self.rng).unwrap();
            self.out.push(c);
        }
    }

    fn string(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            // JSON has no raw `"`, `\` or control character in a string.
            let must_escape = matches!(c, '"' | '\\') || c < ' ';
            if !must_escape && self.rng.gen_bool(0.6) {
                self.out.push(c);
                continue;
            }
            let short = match c {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '/' => Some("\\/"),
                '\n' => Some("\\n"),
                '\t' => Some("\\t"),
                _ => None,
            };
            match short {
                Some(esc) if self.rng.gen_bool(0.5) => self.out.push_str(esc),
                _ => {
                    // `\uXXXX`, as a surrogate pair past the BMP.
                    let upper = self.rng.gen_bool(0.5);
                    for unit in c.encode_utf16(&mut [0; 2]) {
                        if upper {
                            let _ = write!(self.out, "\\u{unit:04X}");
                        } else {
                            let _ = write!(self.out, "\\u{unit:04x}");
                        }
                    }
                }
            }
        }
        self.out.push('"');
    }

    /// A value no decoded type reads, for unknown and duplicate keys.
    fn junk(&mut self, depth: usize) {
        let kind = self.rng.gen_range(0..if depth > 1 { 5 } else { 7u32 });
        match kind {
            0 => self.out.push_str("null"),
            1 => self.out.push_str(if self.rng.gen_bool(0.5) {
                "true"
            } else {
                "false"
            }),
            2 => self.out.push_str("-12.5e-3"),
            3 => self.out.push_str("98765432109876543210"),
            4 => {
                let s = text(&mut self.rng);
                self.string(&s);
            }
            5 => {
                self.out.push('[');
                for i in 0..self.rng.gen_range(0..3usize) {
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.ws();
                    self.junk(depth + 1);
                    self.ws();
                }
                self.out.push(']');
            }
            _ => {
                self.out.push('{');
                for i in 0..self.rng.gen_range(0..3usize) {
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.ws();
                    let key = text(&mut self.rng);
                    self.string(&key);
                    self.ws();
                    self.out.push(':');
                    self.ws();
                    self.junk(depth + 1);
                    self.ws();
                }
                self.out.push('}');
            }
        }
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Int(n) => {
                let _ = match self.rng.gen_range(0..3u32) {
                    0 => write!(self.out, "{n}"),
                    1 => write!(self.out, "{n}.0"),
                    _ => write!(self.out, "{n}e0"),
                };
            }
            Value::Float(f) if f.fract() == 0.0 && self.rng.gen_bool(0.5) => {
                let _ = write!(self.out, "{}", *f as i64);
            }
            Value::Float(f) => {
                let _ = write!(self.out, "{f:?}");
            }
            Value::Str(s) => self.string(s),
            Value::Array(items) => {
                self.out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.ws();
                    self.value(item);
                    self.ws();
                }
                self.out.push(']');
            }
            Value::Object(fields) => {
                // Shuffled keys, unknown keys anywhere, and duplicates
                // after the key they repeat.
                let mut entries: Vec<(&str, Option<&Value>)> =
                    fields.iter().map(|(k, v)| (k.as_str(), Some(v))).collect();
                entries.shuffle(&mut self.rng);
                let mut i = 0;
                while i <= entries.len() {
                    if self.rng.gen_bool(0.15) {
                        let key = *EXTRA_KEYS.choose(&mut self.rng).unwrap();
                        entries.insert(i, (key, None));
                    }
                    if i < entries.len() && entries[i].1.is_some() && self.rng.gen_bool(0.15) {
                        let dup = self.rng.gen_range(i + 1..=entries.len());
                        entries.insert(dup, (entries[i].0, None));
                    }
                    i += 1;
                }
                self.out.push('{');
                for (i, (key, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.ws();
                    self.string(key);
                    self.ws();
                    self.out.push(':');
                    self.ws();
                    match v {
                        Some(v) => self.value(v),
                        None => self.junk(0),
                    }
                    self.ws();
                }
                self.out.push('}');
            }
            other => self.out.push_str(&serde_json::to_string(other).unwrap()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn streaming_decode_equals_tree_decode(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let docs: Vec<Document> = (0..rng.gen_range(1..3usize)).map(|_| document(&mut rng)).collect();
        let mut body = vec![(
            "documents".to_string(),
            Value::Array(docs.iter().map(Serialize::to_value).collect()),
        )];
        if rng.gen_bool(0.5) {
            body.push(("timeout_ms".into(), Value::Int(rng.gen_range(0..5000i64))));
        }
        if rng.gen_bool(0.5) {
            body.push(("model".into(), Value::Str(text(&mut rng))));
        }
        let mut w = Writer { rng, out: String::new() };
        w.ws();
        w.value(&Value::Object(body));
        let end = w.out.len();
        w.ws();
        let text = w.out;

        let streamed = serde_json::from_str::<ExtractRequest>(&text);
        let tree = tree_decode(&text);
        prop_assert!(streamed.is_ok(), "streamed {:?} on {}", streamed, text);
        prop_assert!(tree.is_ok(), "tree {:?} on {}", tree, text);
        let streamed = streamed.unwrap();
        prop_assert_eq!(streamed.documents.as_ref(), Some(&docs));
        prop_assert_eq!(&streamed, &tree.unwrap());

        for cut in (0..end).filter(|&k| text.is_char_boundary(k)) {
            let prefix = &text[..cut];
            prop_assert!(serde_json::from_str::<ExtractRequest>(prefix).is_err(), "streamed took {}", prefix);
            prop_assert!(tree_decode(prefix).is_err(), "tree took {}", prefix);
        }
    }
}

#[test]
fn a_single_error_gets_the_same_message_on_both_paths() {
    let doc = r#"{"id": "d", "tokens": [{"text": "a", "bbox": {"x0": 1, "y0": 2.5, "x1": 3.0, "y1": 4}}], "lines": [{"tokens": [0], "bbox": {"x0": 1, "y0": 2, "x1": 3, "y1": 4}}], "annotations": [{"field": 1, "start": 0, "end": 1}]}"#;
    let body = |doc: &str| format!(r#"{{"documents": [{doc}], "timeout_ms": 5}}"#);
    let valid = body(doc);
    assert_eq!(
        serde_json::from_str::<ExtractRequest>(&valid).unwrap(),
        tree_decode(&valid).unwrap()
    );
    let broken = [
        // Type errors.
        body(&doc.replace(r#""id": "d""#, r#""id": 5"#)),
        body(&doc.replace(r#""id": "d", "#, "")),
        body(&doc.replace(r#""text": "a""#, r#""text": ["a", {"b": null}]"#)),
        body(&doc.replace(r#""tokens": [0]"#, r#""tokens": {"0": 0}"#)),
        body(&doc.replace(r#""tokens": [0]"#, r#""tokens": [-1.0]"#)),
        body(&doc.replace(r#""tokens": [0]"#, r#""tokens": [1e10]"#)),
        body(&doc.replace(r#""field": 1"#, r#""field": 70000"#)),
        body(&doc.replace(r#""start": 0"#, r#""start": 0.5"#)),
        body(&doc.replace(r#""x0": 1,"#, r#""x0": "1","#)),
        body(&doc.replace(r#""annotations": ["#, r#""annotations": [null, "#)),
        r#"{"documents": null}"#.to_string(),
        r#"{"documents": {"id": "d"}}"#.to_string(),
        // Syntax errors.
        body(&doc.replace(r#""id": "d","#, r#""id": "d",,"#)),
        body(&doc.replace(r#""text": "a""#, r#""text": "a\x""#)),
        body(&doc.replace(r#""text": "a""#, r#""text": "\ud800A""#)),
        body(&doc.replace(r#""text""#, r#""te\q""#)),
        body(&doc.replace(r#""y1": 4}}]"#, r#""y1": 4e}}]"#)),
        body(&doc.replace(r#""start": 0"#, r#""start": 1.2.3"#)),
        body(&doc.replace(r#""start": 0"#, r#""start": 01"#)),
        body(&doc.replace(r#""y1": 4}}]"#, r#""y1": 4.}}]"#)),
        body(&doc.replace(r#""text": "a""#, "\"text\": \"a\u{1}\"")),
        body(&doc.replace(r#""text": "a""#, r#""text": "\u+041""#)),
        body(&doc.replace(r#""end": 1"#, r#""end": tru"#)),
        body(doc).replace(r#""timeout_ms": 5"#, r#""timeout_ms": nul"#),
        body(doc).replace(r#""timeout_ms": 5"#, r#""timeout_ms" 5"#),
        format!("{} x", body(doc)),
        body(doc)[..body(doc).len() - 1].to_string(),
    ];
    for text in &broken {
        let streamed = serde_json::from_str::<ExtractRequest>(text).unwrap_err();
        let tree = tree_decode(text).unwrap_err();
        assert_eq!(streamed.to_string(), tree.to_string(), "{text}");
    }
}
