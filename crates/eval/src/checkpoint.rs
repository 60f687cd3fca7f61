//! Per-cell result persistence for crash-resilient, resumable grids.
//!
//! A full-protocol grid is hours of compute made of thousands of
//! independent cells; losing the whole run to a crash at cell 2,993 is
//! unacceptable. This module stores each completed
//! `(domain, size, arm, sample, trial)` cell as one small JSON file in a
//! checkpoint directory, keyed by the grid coordinates *and* a
//! fingerprint of the [`HarnessOptions`] that produced it — a cache can
//! never leak results across protocols, seeds, or model sizes.
//!
//! Every cell kind shares one record type. A `family` prefix on the file
//! stem separates kinds whose results differ: plain grid cells use `""`,
//! and a robustness suite's cells use `rob-<suite hash>-` (see
//! [`crate::robustness::attacks_fingerprint`]), so a lookup under one
//! family never sees another's records.
//!
//! The write is atomic (temp file + rename in the same directory), so a
//! run killed mid-write leaves either the previous state or the complete
//! new record, never a torn file. Unreadable or corrupt records are
//! treated as misses: the worst a damaged cache can do is recompute.
//!
//! Failed cells (a worker that panicked twice, see
//! [`fieldswap_parallel::par_try_map_indexed`]) are recorded too — under a
//! distinct `.failed.json` suffix so they are *diagnostic only*: a
//! resumed run always re-attempts them rather than trusting a panic.
//!
//! Because every cell's randomness derives purely from its coordinates
//! (see [`crate::runner::cell_seed`]), a run resumed from a checkpoint
//! directory is byte-identical to an uninterrupted run: the cached cells
//! are the exact values the live cells would have produced.

use crate::runner::{mix_coords, Arm, HarnessOptions};
use fieldswap_datagen::Domain;
use serde::{Deserialize, Serialize, Value};
use std::io;
use std::path::{Path, PathBuf};

/// Record-format version; bumped whenever [`CellRecord`]'s shape or
/// semantics change, so stale caches read as misses instead of
/// mis-parsing.
const CELL_SCHEMA_VERSION: i64 = 2;

/// Fingerprints every option that can influence a cell's result.
///
/// `jobs` and `train_jobs` are deliberately excluded: results are
/// bit-identical for every worker count — each cell's randomness derives
/// purely from its grid coordinates, and the in-training fan-out keeps a
/// fixed reduction order (see `fieldswap_extract::TRAIN_BATCH`) — so a
/// grid checkpointed with `--jobs 8 --train-jobs 8` must resume cleanly
/// under `--jobs 1 --train-jobs 1` and vice versa. The float knob goes
/// in via `to_bits`, which distinguishes every representable value
/// without rounding surprises.
pub fn options_fingerprint(opts: &HarnessOptions) -> u64 {
    mix_coords(
        0xC3EC_4901_7E57_0001 ^ CELL_SCHEMA_VERSION as u64,
        &[
            opts.n_samples as u64,
            opts.n_trials as u64,
            opts.pretrain_docs as u64,
            opts.lexicon_docs as u64,
            opts.neighbors as u64,
            opts.test_cap as u64,
            opts.epochs as u64,
            opts.synth_ratio.to_bits() as u64,
            opts.synthetic_cap as u64,
            opts.seed,
            opts.quantized as u64,
        ],
    )
}

/// One persisted cell. Flat named-field struct (the vendored serde
/// derive's sweet spot); exactly one of `ok` / `panic` is set. `ok` holds
/// the result's serde value tree, so every cell kind shares this record.
///
/// `opts_hash` is hex text rather than a JSON number: the vendored JSON
/// layer stores integers as `i64`, and a 64-bit fingerprint can exceed
/// that range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CellRecord {
    schema_version: i64,
    opts_hash: String,
    domain: String,
    size: i64,
    arm: String,
    sample: i64,
    trial: i64,
    ok: Option<Value>,
    panic: Option<String>,
}

/// Grid coordinates of one cell, as the cache addresses them.
pub type CellCoords = (Domain, usize, Arm, usize, usize);

/// An on-disk cache of completed grid cells.
///
/// Multiple worker threads write concurrently without coordination: each
/// cell has its own file, and each write is a temp-file-plus-rename.
/// Write failures are reported through `fieldswap-obs` and otherwise
/// ignored — checkpointing is belt-and-braces, never a reason to lose
/// the in-memory run.
#[derive(Debug, Clone)]
pub struct CellCache {
    dir: PathBuf,
    opts_hash: u64,
}

impl CellCache {
    /// Opens (creating if needed) a checkpoint directory for runs with
    /// these options. This is the `--checkpoint-dir` entry point.
    pub fn create(dir: impl Into<PathBuf>, opts: &HarnessOptions) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            opts_hash: options_fingerprint(opts),
        })
    }

    /// Opens an *existing* checkpoint directory — the `--resume` entry
    /// point, where a missing directory means the user pointed at the
    /// wrong path and should hear about it rather than silently start a
    /// fresh run.
    pub fn open(dir: impl Into<PathBuf>, opts: &HarnessOptions) -> io::Result<Self> {
        let dir = dir.into();
        if !dir.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("checkpoint directory not found: {}", dir.display()),
            ));
        }
        Ok(Self {
            dir,
            opts_hash: options_fingerprint(opts),
        })
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The options fingerprint this cache validates records against.
    pub fn opts_hash(&self) -> u64 {
        self.opts_hash
    }

    /// The record path of a cell in `family`: `<family>cell-<options>-
    /// <coordinates>` plus `suffix` (`json`, or `failed.json`).
    fn path(&self, family: &str, coords: CellCoords, suffix: &str) -> PathBuf {
        let (domain, size, arm, sample, trial) = coords;
        self.dir.join(format!(
            "{family}cell-{:016x}-{}-{size}-{}-{sample}-{trial}.{suffix}",
            self.opts_hash,
            format!("{domain:?}").to_lowercase(),
            format!("{arm:?}").to_lowercase(),
        ))
    }

    fn record(&self, coords: CellCoords) -> CellRecord {
        let (domain, size, arm, sample, trial) = coords;
        CellRecord {
            schema_version: CELL_SCHEMA_VERSION,
            opts_hash: format!("{:016x}", self.opts_hash),
            domain: format!("{domain:?}").to_lowercase(),
            size: size as i64,
            arm: format!("{arm:?}").to_lowercase(),
            sample: sample as i64,
            trial: trial as i64,
            ok: None,
            panic: None,
        }
    }

    /// The cached result for a cell of `family`, if a valid success
    /// record exists. Anything else — no file, unparseable JSON, a schema
    /// or options mismatch, a failure record, a result of another
    /// shape — is a miss.
    pub fn load<T: Deserialize>(&self, family: &str, coords: CellCoords) -> Option<T> {
        let text = std::fs::read_to_string(self.path(family, coords, "json")).ok()?;
        let rec: CellRecord = serde_json::from_str(&text).ok()?;
        if rec.schema_version != CELL_SCHEMA_VERSION
            || rec.opts_hash != format!("{:016x}", self.opts_hash)
        {
            return None;
        }
        T::from_value(&rec.ok?).ok()
    }

    /// Persists a cell of `family`: a result, or the payload of a cell
    /// that panicked twice. Failure records are for post-mortem
    /// diagnosis only; [`load`](Self::load) never reads them.
    pub fn store(&self, family: &str, coords: CellCoords, outcome: Result<&dyn Serialize, &str>) {
        let mut rec = self.record(coords);
        let suffix = match outcome {
            Ok(result) => {
                rec.ok = Some(result.to_value());
                "json"
            }
            Err(payload) => {
                rec.panic = Some(payload.to_string());
                "failed.json"
            }
        };
        let path = self.path(family, coords, suffix);
        let json = match serde_json::to_string_pretty(&rec) {
            Ok(j) => j,
            Err(e) => {
                fieldswap_obs::warn!("checkpoint serialize failed: {e}");
                return;
            }
        };
        let tmp = path.with_extension("tmp");
        let wrote = std::fs::write(&tmp, json).and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = wrote {
            fieldswap_obs::warn!("checkpoint write failed for {}: {e}", path.display());
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::robustness::{checkpoint_family, AttackSpec, RobustnessResult};
    use crate::runner::ExperimentResult;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let d = std::env::temp_dir().join(format!(
            "fieldswap-ckpt-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_result() -> ExperimentResult {
        ExperimentResult {
            macro_f1: 61.25,
            micro_f1: 70.5,
            per_field_f1: vec![Some(81.0), None, Some(0.125)],
            n_synthetics: 42,
            n_train_docs: 10,
        }
    }

    /// A plain grid cell's cached result.
    fn load(cache: &CellCache, coords: CellCoords) -> Option<ExperimentResult> {
        cache.load("", coords)
    }

    const COORDS: CellCoords = (Domain::Fara, 10, Arm::Baseline, 0, 1);

    #[test]
    fn fingerprint_ignores_jobs_but_tracks_everything_else() {
        let base = HarnessOptions::quick();
        let mut jobs_differ = base;
        jobs_differ.jobs = 13;
        assert_eq!(
            options_fingerprint(&base),
            options_fingerprint(&jobs_differ),
            "jobs must not enter the fingerprint"
        );
        let mut train_jobs_differ = base;
        train_jobs_differ.train_jobs = 7;
        assert_eq!(
            options_fingerprint(&base),
            options_fingerprint(&train_jobs_differ),
            "train_jobs must not enter the fingerprint"
        );
        let variants = [
            |o: &mut HarnessOptions| o.n_samples += 1,
            |o: &mut HarnessOptions| o.n_trials += 1,
            |o: &mut HarnessOptions| o.pretrain_docs += 1,
            |o: &mut HarnessOptions| o.lexicon_docs += 1,
            |o: &mut HarnessOptions| o.neighbors += 1,
            |o: &mut HarnessOptions| o.test_cap += 1,
            |o: &mut HarnessOptions| o.epochs += 1,
            |o: &mut HarnessOptions| o.synth_ratio += 0.5,
            |o: &mut HarnessOptions| o.synthetic_cap += 1,
            |o: &mut HarnessOptions| o.seed ^= 1,
            |o: &mut HarnessOptions| o.quantized = !o.quantized,
        ];
        for (i, tweak) in variants.iter().enumerate() {
            let mut v = base;
            tweak(&mut v);
            assert_ne!(
                options_fingerprint(&base),
                options_fingerprint(&v),
                "variant {i} did not change the fingerprint"
            );
        }
    }

    #[test]
    fn store_and_load_roundtrip() {
        let dir = temp_dir("roundtrip");
        let cache = CellCache::create(&dir, &HarnessOptions::quick()).unwrap();
        assert_eq!(load(&cache, COORDS), None, "empty cache must miss");
        let r = sample_result();
        cache.store("", COORDS, Ok(&r));
        assert_eq!(load(&cache, COORDS), Some(r));
        // A neighboring cell is still a miss.
        assert_eq!(load(&cache, (Domain::Fara, 10, Arm::Baseline, 0, 0)), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn float_fields_roundtrip_exactly() {
        // The resume byte-identity guarantee hinges on exact f64
        // round-trips through the JSON layer.
        let dir = temp_dir("floats");
        let cache = CellCache::create(&dir, &HarnessOptions::quick()).unwrap();
        let r = ExperimentResult {
            macro_f1: 66.666_666_666_666_67,
            micro_f1: 0.1 + 0.2, // the classic non-representable sum
            per_field_f1: vec![Some(1.0 / 3.0)],
            n_synthetics: 0,
            n_train_docs: 1,
        };
        cache.store("", COORDS, Ok(&r));
        let back = load(&cache, COORDS).unwrap();
        assert_eq!(back.macro_f1.to_bits(), r.macro_f1.to_bits());
        assert_eq!(back.micro_f1.to_bits(), r.micro_f1.to_bits());
        assert_eq!(
            back.per_field_f1[0].unwrap().to_bits(),
            r.per_field_f1[0].unwrap().to_bits()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn different_options_do_not_share_cells() {
        let dir = temp_dir("opts");
        let quick = CellCache::create(&dir, &HarnessOptions::quick()).unwrap();
        quick.store("", COORDS, Ok(&sample_result()));
        let mut other_opts = HarnessOptions::quick();
        other_opts.seed ^= 0xDEAD;
        let other = CellCache::create(&dir, &other_opts).unwrap();
        assert_eq!(
            load(&other, COORDS),
            None,
            "a different protocol must never see this cache's cells"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_is_a_miss() {
        let dir = temp_dir("corrupt");
        let cache = CellCache::create(&dir, &HarnessOptions::quick()).unwrap();
        cache.store("", COORDS, Ok(&sample_result()));
        let path = cache.path("", COORDS, "json");
        std::fs::write(&path, "{ not json").unwrap();
        assert_eq!(load(&cache, COORDS), None);
        // Tampered options hash inside an otherwise valid record: miss.
        let mut rec = cache.record(COORDS);
        rec.opts_hash = "0000000000000000".into();
        rec.ok = Some(sample_result().to_value());
        std::fs::write(&path, serde_json::to_string(&rec).unwrap()).unwrap();
        assert_eq!(load(&cache, COORDS), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failure_records_are_diagnostic_only() {
        let dir = temp_dir("failed");
        let cache = CellCache::create(&dir, &HarnessOptions::quick()).unwrap();
        cache.store("", COORDS, Err("cell exploded"));
        assert_eq!(
            load(&cache, COORDS),
            None,
            "a recorded panic must not satisfy a resume lookup"
        );
        let text = std::fs::read_to_string(cache.path("", COORDS, "failed.json")).unwrap();
        assert!(text.contains("cell exploded"));
        // A later successful attempt coexists with the failure record.
        cache.store("", COORDS, Ok(&sample_result()));
        assert_eq!(load(&cache, COORDS), Some(sample_result()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn robustness_records_roundtrip_and_key_on_the_suite() {
        use fieldswap_core::AttackKind;
        let dir = temp_dir("rob");
        let cache = CellCache::create(&dir, &HarnessOptions::quick()).unwrap();
        let suite = [AttackSpec {
            kind: AttackKind::TokenDrop,
            strength: 0.5,
        }];
        let family = checkpoint_family(&suite);
        assert!(family.starts_with("rob-"), "{family}");
        let rob = |family: &str| cache.load::<RobustnessResult>(family, COORDS);
        assert_eq!(rob(&family), None);
        let r = RobustnessResult {
            clean_macro_f1: 61.0,
            clean_micro_f1: 70.5,
            attacked_macro_f1: vec![55.125],
            attacked_micro_f1: vec![60.25],
            n_synthetics: 9,
        };
        cache.store(&family, COORDS, Ok(&r));
        assert_eq!(rob(&family), Some(r.clone()));
        assert!(cache.path(&family, COORDS, "json").is_file());
        // A different strength is a different suite: miss, not a hit.
        let other = checkpoint_family(&[AttackSpec {
            kind: AttackKind::TokenDrop,
            strength: 0.75,
        }]);
        assert_ne!(family, other);
        assert_eq!(rob(&other), None);
        // A different kind too, and the empty suite differs from both.
        let kind_differs = checkpoint_family(&[AttackSpec {
            kind: AttackKind::BoxJitter,
            strength: 0.5,
        }]);
        assert_ne!(family, kind_differs);
        assert_ne!(family, checkpoint_family(&[]));
        // Robustness records never satisfy plain cell lookups, and plain
        // records never satisfy robustness lookups.
        assert_eq!(load(&cache, COORDS), None);
        let plain = (Domain::Fara, 10, Arm::Baseline, 0, 0);
        cache.store("", plain, Ok(&sample_result()));
        assert_eq!(cache.load::<RobustnessResult>(&family, plain), None);
        // Failure records land under the suite's stem too.
        cache.store(&family, plain, Err("cell exploded"));
        assert!(cache.path(&family, plain, "failed.json").is_file());
        assert_eq!(cache.load::<RobustnessResult>(&family, plain), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_requires_existing_directory() {
        let missing = std::env::temp_dir().join("fieldswap-ckpt-definitely-missing");
        let err = CellCache::open(&missing, &HarnessOptions::quick()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let dir = temp_dir("open");
        assert!(CellCache::open(&dir, &HarnessOptions::quick()).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
