//! Binary serialization of trained models: FSFROZN1, the one on-disk
//! format.
//!
//! A trained [`crate::Extractor`] is saved with
//! `extractor.freeze().to_bytes()` and loaded with
//! [`FrozenModel::from_bytes`]; the server's model registry reads the
//! same bytes. Trained models are plain weight tables, so the format is
//! a small length-prefixed little-endian layout, one section after the
//! other:
//!
//! | section | contents |
//! |---|---|
//! | magic header | `FSFROZN1` |
//! | field count | `u64` n, at most 4096 |
//! | field-type table | n `u8` base-type discriminants |
//! | emission header | `u64` variant: 0 = f32, 1 = int8 |
//! | emission weights | `u64` length (= `WEIGHT_DIM`), then the f32s; int8 stores block size, mins, scales and bytes instead |
//! | transition weights | `u64` length (= (1 + 4n)²), then the f32s |
//! | lexicon header | `u64` document count, `u64` entry count |
//! | lexicon entries | per entry a `u64` length, the UTF-8 token, a `u64` count |
//!
//! The reader checks each size before it allocates, and reports a
//! truncated or mis-sized section as [`ModelIoError::Format`] naming the
//! section. No external serialization crate is needed, and
//! round-tripping is exact (bit-identical predictions).

use crate::infer::{EmissionTable, FrozenModel, QBLOCK};
use crate::lexicon::Lexicon;
use crate::model::WEIGHT_DIM;
use crate::tags::TagSet;
use fieldswap_docmodel::BaseType;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"FSFROZN1";
const MAX_FIELDS: usize = 1 << 12;

/// Errors from model (de)serialization.
#[derive(Debug)]
pub enum ModelIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input is not a serialized model or is corrupt.
    Format(String),
}

impl From<io::Error> for ModelIoError {
    fn from(e: io::Error) -> Self {
        ModelIoError::Io(e)
    }
}

impl ModelIoError {
    /// Rewrites a mid-parse `UnexpectedEof` as a [`ModelIoError::Format`]
    /// naming the section being read: a truncated file is a corrupt
    /// *model*, not an environment fault, and callers matching on `Io`
    /// for retry logic must not see it. Genuine I/O errors pass through.
    fn eof_in_section(self, section: &str) -> Self {
        match self {
            ModelIoError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                ModelIoError::Format(format!("truncated model: unexpected EOF in {section}"))
            }
            other => other,
        }
    }
}

/// Runs a read closure, converting an `UnexpectedEof` into a `Format`
/// error that names `section`.
fn in_section<T>(
    section: &str,
    f: impl FnOnce() -> Result<T, ModelIoError>,
) -> Result<T, ModelIoError> {
    f().map_err(|e| e.eof_in_section(section))
}

impl std::fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelIoError::Io(e) => write!(f, "i/o error: {e}"),
            ModelIoError::Format(m) => write!(f, "bad model format: {m}"),
        }
    }
}

impl std::error::Error for ModelIoError {}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn write_f32s<W: Write>(w: &mut W, xs: &[f32]) -> io::Result<()> {
    write_u64(w, xs.len() as u64)?;
    for x in xs {
        w.write_all(&x.to_le_bytes())?;
    }
    Ok(())
}

fn read_f32s<R: Read>(r: &mut R) -> Result<Vec<f32>, ModelIoError> {
    let n = read_u64(r)? as usize;
    if n > 1 << 28 {
        return Err(ModelIoError::Format(format!("array too large: {n}")));
    }
    let mut out = Vec::with_capacity(n);
    let mut b = [0u8; 4];
    for _ in 0..n {
        r.read_exact(&mut b)?;
        out.push(f32::from_le_bytes(b));
    }
    Ok(out)
}

/// Maximum serialized string length in bytes, enforced symmetrically:
/// `write_string` refuses to emit what `read_string` would reject, so a
/// model that serializes successfully is always loadable.
const MAX_STRING_BYTES: usize = 1 << 20;

fn write_string<W: Write>(w: &mut W, s: &str, section: &str) -> Result<(), ModelIoError> {
    if s.len() > MAX_STRING_BYTES {
        return Err(ModelIoError::Format(format!(
            "string of {} bytes in {section} exceeds the {MAX_STRING_BYTES}-byte cap",
            s.len()
        )));
    }
    write_u64(w, s.len() as u64)?;
    Ok(w.write_all(s.as_bytes())?)
}

fn read_string<R: Read>(r: &mut R) -> Result<String, ModelIoError> {
    let n = read_u64(r)? as usize;
    if n > MAX_STRING_BYTES {
        return Err(ModelIoError::Format(format!("string too large: {n}")));
    }
    let mut b = vec![0u8; n];
    r.read_exact(&mut b)?;
    String::from_utf8(b).map_err(|e| ModelIoError::Format(e.to_string()))
}

impl FrozenModel {
    /// Serializes the frozen model (f32 or quantized) to a byte vector.
    /// Only the canonical tables are stored; the permuted inference
    /// layout is rebuilt on load, so round-tripping reproduces
    /// predictions exactly for both emission variants. Fails with
    /// [`ModelIoError::Format`] when a lexicon token exceeds the string
    /// cap the deserializer enforces.
    pub fn to_bytes(&self) -> Result<Vec<u8>, ModelIoError> {
        let (field_types, emissions, trans, lexicon) = self.serial_parts();
        let mut w: Vec<u8> = Vec::new();
        let out = &mut w;
        out.write_all(MAGIC)?;
        write_u64(out, field_types.len() as u64)?;
        let discr: Vec<u8> = field_types
            .iter()
            .map(|t| BaseType::ALL.iter().position(|x| x == t).unwrap() as u8)
            .collect();
        out.write_all(&discr)?;
        match emissions {
            EmissionTable::F32(weights) => {
                write_u64(out, 0)?;
                write_f32s(out, weights)?;
            }
            EmissionTable::Q8 { q, min, scale } => {
                write_u64(out, 1)?;
                write_u64(out, QBLOCK as u64)?;
                write_f32s(out, min)?;
                write_f32s(out, scale)?;
                write_u64(out, q.len() as u64)?;
                out.write_all(q)?;
            }
        }
        write_f32s(out, trans)?;
        write_u64(out, u64::from(lexicon.n_docs()))?;
        let entries = lexicon.entries();
        write_u64(out, entries.len() as u64)?;
        for (tok, count) in &entries {
            write_string(out, tok, "lexicon entries")?;
            write_u64(out, u64::from(*count))?;
        }
        Ok(w)
    }

    /// Deserializes a model previously produced by
    /// [`FrozenModel::to_bytes`], rebuilding the inference layout.
    pub fn from_bytes(bytes: &[u8]) -> Result<FrozenModel, ModelIoError> {
        let r = &mut { bytes };
        let mut magic = [0u8; 8];
        in_section("magic header", || Ok(r.read_exact(&mut magic)?))?;
        if &magic != MAGIC {
            return Err(ModelIoError::Format("bad frozen-model magic".into()));
        }
        let n_fields = in_section("field count", || Ok(read_u64(r)?))? as usize;
        if n_fields > MAX_FIELDS {
            return Err(ModelIoError::Format(format!(
                "field count {n_fields} exceeds {MAX_FIELDS}"
            )));
        }
        let mut discr = vec![0u8; n_fields];
        in_section("field-type table", || Ok(r.read_exact(&mut discr)?))?;
        if discr.iter().any(|&t| t as usize >= BaseType::ALL.len()) {
            return Err(ModelIoError::Format("bad base-type discriminant".into()));
        }
        let field_types: Vec<BaseType> = discr.iter().map(|&t| BaseType::ALL[t as usize]).collect();
        let variant = in_section("emission header", || Ok(read_u64(r)?))?;
        let emissions = match variant {
            0 => {
                let weights = in_section("emission weights", || read_f32s(r))?;
                if weights.len() != WEIGHT_DIM {
                    return Err(ModelIoError::Format(format!(
                        "emission weights: table size {} != {WEIGHT_DIM}",
                        weights.len()
                    )));
                }
                EmissionTable::F32(weights)
            }
            1 => {
                let block = in_section("quantization header", || Ok(read_u64(r)?))? as usize;
                if block != QBLOCK {
                    return Err(ModelIoError::Format(format!(
                        "quantization block {block} != {QBLOCK}"
                    )));
                }
                let min = in_section("quantization mins", || read_f32s(r))?;
                let scale = in_section("quantization scales", || read_f32s(r))?;
                let n = in_section("quantized weights", || Ok(read_u64(r)?))? as usize;
                if n != WEIGHT_DIM {
                    return Err(ModelIoError::Format(format!(
                        "quantized table size {n} != {WEIGHT_DIM}"
                    )));
                }
                let blocks = n.div_ceil(QBLOCK);
                if min.len() != blocks || scale.len() != blocks {
                    return Err(ModelIoError::Format("quantization metadata size".into()));
                }
                let mut q = vec![0u8; n];
                in_section("quantized weights", || Ok(r.read_exact(&mut q)?))?;
                EmissionTable::Q8 { q, min, scale }
            }
            v => {
                return Err(ModelIoError::Format(format!(
                    "unknown emission variant {v}"
                )))
            }
        };
        let transitions = in_section("transition weights", || read_f32s(r))?;
        let nt = 1 + 4 * n_fields;
        if transitions.len() != nt * nt {
            return Err(ModelIoError::Format(format!(
                "transition weights: table size {} != {}",
                transitions.len(),
                nt * nt
            )));
        }
        let lexicon_docs = in_section("lexicon header", || Ok(read_u64(r)?))? as u32;
        let n_entries = in_section("lexicon header", || Ok(read_u64(r)?))? as usize;
        if n_entries > 1 << 24 {
            return Err(ModelIoError::Format("lexicon too large".into()));
        }
        let mut entries = Vec::with_capacity(n_entries);
        in_section("lexicon entries", || {
            for _ in 0..n_entries {
                let tok = read_string(r)?;
                let count = read_u64(r)? as u32;
                entries.push((tok, count));
            }
            Ok(())
        })?;
        Ok(FrozenModel::build(
            TagSet::new(n_fields),
            field_types,
            emissions,
            transitions,
            Lexicon::from_raw(lexicon_docs, entries),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::InferScratch;
    use crate::model::{Extractor, TrainConfig};
    use fieldswap_datagen::{generate, Domain};

    fn tiny_model(seed: u64, lexicon: Lexicon) -> FrozenModel {
        let train = generate(Domain::Fara, seed, 5);
        Extractor::train_on(&train.schema, lexicon, &train, &[], &TrainConfig::tiny()).freeze()
    }

    fn expect_format(bytes: &[u8], section: &str) {
        match FrozenModel::from_bytes(bytes) {
            Err(ModelIoError::Format(msg)) => assert!(
                msg.contains(section),
                "expected section {section:?} in {msg:?}"
            ),
            Err(ModelIoError::Io(e)) => panic!("{section}: bare Io({e}) instead of Format"),
            Ok(_) => panic!("{section}: corrupt model accepted"),
        }
    }

    #[test]
    fn truncation_reports_format_with_section() {
        let train = generate(Domain::Fara, 11, 5);
        let frozen = tiny_model(11, Lexicon::pretrain(&train.documents));
        let bytes = frozen.to_bytes().unwrap();
        let n_fields = frozen.n_fields();
        let n_tags = frozen.tag_set().len();

        // Section boundaries in the layout (see the module docs).
        let after_magic = 8;
        let after_count = after_magic + 8;
        let after_types = after_count + n_fields;
        let after_variant = after_types + 8;
        let after_weights = after_variant + 8 + 4 * WEIGHT_DIM;
        let after_transitions = after_weights + 8 + 4 * n_tags * n_tags;
        let cases = [
            (3, "magic header"),
            (after_magic + 2, "field count"),
            (after_count + 1, "field-type table"),
            (after_types + 3, "emission header"),
            (after_variant + 5, "emission weights"),
            (after_variant + 1000, "emission weights"),
            (after_weights + 5, "transition weights"),
            (after_transitions + 7, "lexicon header"),
            (after_transitions + 12, "lexicon header"),
            (bytes.len() - 1, "lexicon entries"),
        ];
        for (cut, section) in cases {
            expect_format(&bytes[..cut], section);
        }

        // Round trip: the untruncated bytes still deserialize exactly.
        let back = FrozenModel::from_bytes(&bytes).unwrap();
        let probe = generate(Domain::Fara, 12, 3);
        let mut s1 = InferScratch::default();
        let mut s2 = InferScratch::default();
        for d in &probe.documents {
            assert_eq!(frozen.predict(d, &mut s1), back.predict(d, &mut s2));
        }
    }

    #[test]
    fn rejects_out_of_range_sizes() {
        // Each size check that guards a later index into the tables.
        let frozen = tiny_model(16, Lexicon::empty());
        let bytes = frozen.to_bytes().unwrap();
        let n_tags = frozen.tag_set().len();
        let after_variant = 8 + 8 + frozen.n_fields() + 8;
        let after_weights = after_variant + 8 + 4 * WEIGHT_DIM;

        // An emission table shorter than `WEIGHT_DIM`: feature buckets
        // would index past its end at the first prediction.
        let mut short = bytes[..after_variant].to_vec();
        write_f32s(&mut short, &[0.5; 16]).unwrap();
        short.extend_from_slice(&bytes[after_weights..]);
        expect_format(&short, "emission weights");

        // A transition table sized for a different tag set.
        let mut trans = bytes[..after_weights].to_vec();
        write_f32s(&mut trans, &vec![0.0; (n_tags + 4) * (n_tags + 4)]).unwrap();
        expect_format(&trans, "transition weights");

        // A field count above the cap, checked before any allocation.
        let mut fields = MAGIC.to_vec();
        write_u64(&mut fields, MAX_FIELDS as u64 + 1).unwrap();
        fields.extend_from_slice(&bytes[16..]);
        expect_format(&fields, "field count");
    }

    #[test]
    fn rejects_tampered_field_types() {
        let mut bytes = tiny_model(9, Lexicon::empty()).to_bytes().unwrap();
        // Corrupt a base-type discriminant (first byte after magic + the
        // u64 field count = offset 16).
        bytes[16] = 99;
        expect_format(&bytes, "base-type discriminant");
    }

    #[test]
    fn frozen_round_trip_preserves_predictions() {
        let train = generate(Domain::Earnings, 21, 20);
        let test = generate(Domain::Earnings, 22, 8);
        let lex = Lexicon::pretrain(&train.documents);
        let ex = Extractor::train_on(&train.schema, lex, &train, &[], &TrainConfig::tiny());
        let frozen = ex.freeze();
        let back = FrozenModel::from_bytes(&frozen.to_bytes().unwrap()).unwrap();
        assert!(!back.is_quantized());
        let mut s1 = InferScratch::default();
        let mut s2 = InferScratch::default();
        for d in &test.documents {
            let orig = frozen.predict(d, &mut s1);
            assert_eq!(orig, back.predict(d, &mut s2), "frozen drift on {}", d.id);
            // And the loaded frozen model still matches the extractor.
            assert_eq!(orig, ex.predict(d), "extractor drift on {}", d.id);
        }
    }

    #[test]
    fn quantized_round_trip_is_exact() {
        // Quantization is lossy, but serializing a quantized model is
        // not: the int8 table round-trips byte-for-byte, so predictions
        // are identical to the in-memory quantized model.
        let train = generate(Domain::Fara, 23, 15);
        let test = generate(Domain::Fara, 24, 8);
        let ex = Extractor::train_on(
            &train.schema,
            Lexicon::pretrain(&train.documents),
            &train,
            &[],
            &TrainConfig::tiny(),
        );
        let q = ex.freeze().quantize();
        let back = FrozenModel::from_bytes(&q.to_bytes().unwrap()).unwrap();
        assert!(back.is_quantized());
        let mut s1 = InferScratch::default();
        let mut s2 = InferScratch::default();
        for d in &test.documents {
            assert_eq!(q.predict(d, &mut s1), back.predict(d, &mut s2));
        }
    }

    #[test]
    fn frozen_rejects_garbage() {
        assert!(FrozenModel::from_bytes(b"not a model").is_err());
        assert!(FrozenModel::from_bytes(b"").is_err());
        // Truncations surface as Format errors naming a section.
        let bytes = tiny_model(25, Lexicon::empty()).to_bytes().unwrap();
        for cut in [3usize, 9, 20, bytes.len() / 2, bytes.len() - 1] {
            match FrozenModel::from_bytes(&bytes[..cut]) {
                Err(ModelIoError::Format(_)) => {}
                Err(other) => panic!("cut at {cut}: expected Format, got {other:?}"),
                Ok(_) => panic!("truncation at {cut} accepted"),
            }
        }
    }

    #[test]
    fn serialized_size_is_reasonable() {
        let bytes = tiny_model(10, Lexicon::empty()).to_bytes().unwrap();
        // 1M-bucket weight table of f32 dominates: ~4 MiB + small extras.
        assert!(bytes.len() > 4 << 20);
        assert!(bytes.len() < 8 << 20);
    }

    #[test]
    fn frozen_write_enforces_string_cap() {
        let train = generate(Domain::Fara, 15, 5);
        let big = Lexicon::from_raw(1, vec![("b".repeat(MAX_STRING_BYTES + 1), 1)]);
        let ex = Extractor::train_on(&train.schema, big, &train, &[], &TrainConfig::tiny());
        match ex.freeze().to_bytes() {
            Err(ModelIoError::Format(msg)) => assert!(msg.contains("lexicon entries"), "{msg}"),
            other => panic!("oversized frozen token accepted at write time: {other:?}"),
        }
        // At the cap it serializes and loads back.
        let ok = Lexicon::from_raw(1, vec![("b".repeat(MAX_STRING_BYTES), 1)]);
        let ex = Extractor::train_on(&train.schema, ok, &train, &[], &TrainConfig::tiny());
        let frozen = ex.freeze();
        let back = FrozenModel::from_bytes(&frozen.to_bytes().unwrap()).unwrap();
        let mut s1 = InferScratch::default();
        let mut s2 = InferScratch::default();
        for d in &train.documents {
            assert_eq!(frozen.predict(d, &mut s1), back.predict(d, &mut s2));
        }
    }
}
