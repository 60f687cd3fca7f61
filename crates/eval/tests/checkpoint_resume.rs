//! End-to-end crash/resume tests for the experiment grid.
//!
//! The contract under test: a grid that is interrupted (here: a cell
//! that dies mid-run) and later resumed from its checkpoint directory
//! produces **byte-identical** JSON to an uninterrupted run, and a cell
//! that fails persistently is isolated — counted and recorded on disk —
//! while every other cell completes.

use fieldswap_datagen::Domain;
use fieldswap_eval::{Arm, CellCache, Harness, HarnessOptions};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn tiny_options() -> HarnessOptions {
    HarnessOptions {
        n_samples: 1,
        n_trials: 2,
        pretrain_docs: 30,
        lexicon_docs: 50,
        neighbors: 12,
        test_cap: 40,
        epochs: 3,
        synth_ratio: 2.0,
        synthetic_cap: 300,
        seed: 0x7E57,
        jobs: 2,
        train_jobs: 1,
        quantized: false,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "fieldswap-resume-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

const POINTS: [(Domain, usize, Arm); 1] = [(Domain::Fara, 10, Arm::Baseline)];

#[test]
fn resumed_grid_is_byte_identical_to_uninterrupted() {
    let opts = tiny_options();

    // Reference: one uninterrupted run, no checkpointing at all.
    let uninterrupted = Harness::new(opts).run_grid(&POINTS);
    let expect = serde_json::to_string_pretty(&uninterrupted).unwrap();

    // "Crash": a checkpointed run where cell (sample 0, trial 1) dies on
    // every attempt — it is never persisted, but trial 0 is.
    let dir = temp_dir("identity");
    let mut crashed = Harness::new(opts);
    crashed.attach_checkpoint(CellCache::create(&dir, &opts).unwrap());
    crashed.fail_cell_for_tests((Domain::Fara, 10, Arm::Baseline, 0, 1), usize::MAX);
    let partial = crashed.run_grid(&POINTS);
    assert_eq!(partial[0].failed_cells, 1, "the dying cell must be counted");
    assert_eq!(partial[0].runs.len(), 1, "the healthy cell must complete");

    // Resume: a fresh harness over the same directory. The injection on
    // trial 0 proves the cache is actually consulted — a cache miss
    // would recompute that cell, hit the injected panic, and break the
    // byte-identity assertion below.
    let mut resumed = Harness::new(opts);
    resumed.attach_checkpoint(CellCache::open(&dir, &opts).unwrap());
    resumed.fail_cell_for_tests((Domain::Fara, 10, Arm::Baseline, 0, 0), usize::MAX);
    let full = resumed.run_grid(&POINTS);
    assert_eq!(full[0].failed_cells, 0);
    assert_eq!(
        serde_json::to_string_pretty(&full).unwrap(),
        expect,
        "resumed grid must be byte-identical to the uninterrupted run"
    );

    // Second resume: now *both* cells come from the cache, so even a
    // harness where every cell would panic reproduces the run.
    let mut cached = Harness::new(opts);
    cached.attach_checkpoint(CellCache::open(&dir, &opts).unwrap());
    cached.fail_cell_for_tests((Domain::Fara, 10, Arm::Baseline, 0, 0), usize::MAX);
    cached.fail_cell_for_tests((Domain::Fara, 10, Arm::Baseline, 0, 1), usize::MAX);
    assert_eq!(
        serde_json::to_string_pretty(&cached.run_grid(&POINTS)).unwrap(),
        expect
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_resumes_across_train_jobs_settings() {
    // `train_jobs` is a pure threading knob: it is excluded from the
    // options fingerprint, and training itself is bitwise-invariant to
    // it. A grid checkpointed serially must therefore (a) open cleanly
    // under a parallel-training harness, and (b) produce byte-identical
    // JSON whether the cells come from the cache or are recomputed with
    // `train_jobs: 4`.
    let serial_opts = tiny_options();
    let expect =
        serde_json::to_string_pretty(&Harness::new(serial_opts).run_grid(&POINTS)).unwrap();

    let dir = temp_dir("trainjobs");
    let mut writer = Harness::new(serial_opts);
    writer.attach_checkpoint(CellCache::create(&dir, &serial_opts).unwrap());
    writer.run_grid(&POINTS);

    let par_opts = HarnessOptions {
        train_jobs: 4,
        ..serial_opts
    };

    // Cache hit path: every cell served from the jobs=1 checkpoint.
    let mut cached = Harness::new(par_opts);
    cached.attach_checkpoint(CellCache::open(&dir, &par_opts).unwrap());
    cached.fail_cell_for_tests((Domain::Fara, 10, Arm::Baseline, 0, 0), usize::MAX);
    cached.fail_cell_for_tests((Domain::Fara, 10, Arm::Baseline, 0, 1), usize::MAX);
    assert_eq!(
        serde_json::to_string_pretty(&cached.run_grid(&POINTS)).unwrap(),
        expect,
        "jobs=1 checkpoint must resume byte-identically under train_jobs=4"
    );

    // Recompute path: the same cells computed fresh with parallel
    // training must also match, or mixing cached and fresh cells in one
    // resumed grid would silently produce inconsistent results.
    assert_eq!(
        serde_json::to_string_pretty(&Harness::new(par_opts).run_grid(&POINTS)).unwrap(),
        expect,
        "train_jobs=4 recompute must match the serial grid bit-for-bit"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn persistent_failure_is_recorded_on_disk_and_isolated() {
    let opts = tiny_options();
    let dir = temp_dir("failrec");
    let mut h = Harness::new(opts);
    h.attach_checkpoint(CellCache::create(&dir, &opts).unwrap());
    h.fail_cell_for_tests((Domain::Fara, 10, Arm::Baseline, 0, 0), usize::MAX);
    let grid = h.run_grid(&POINTS);
    assert_eq!(grid[0].failed_cells, 1);
    assert_eq!(grid[0].runs.len(), 1);

    // The failure left a diagnostic record; the success left a cell.
    let mut ok_files = 0;
    let mut failed_files = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if name.ends_with(".failed.json") {
            failed_files += 1;
            let text = std::fs::read_to_string(dir.join(&name)).unwrap();
            assert!(text.contains("injected failure"), "{text}");
        } else if name.ends_with(".json") {
            ok_files += 1;
        }
    }
    assert_eq!((ok_files, failed_files), (1, 1));

    // A resume re-attempts the failed cell (failure records are never
    // trusted) and completes the grid.
    let mut resumed = Harness::new(opts);
    resumed.attach_checkpoint(CellCache::open(&dir, &opts).unwrap());
    let full = resumed.run_grid(&POINTS);
    assert_eq!(full[0].failed_cells, 0);
    assert_eq!(full[0].runs.len(), 2);

    std::fs::remove_dir_all(&dir).unwrap();
}
