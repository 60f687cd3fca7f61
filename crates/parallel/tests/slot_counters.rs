//! The retry and failure counters of `par_try_map_indexed`.
//!
//! `fieldswap_grid_cells_{retried,failed}` live in the process-global
//! registry, and every slot that panics through the pool bumps them. In
//! the unit-test binary, sibling tests panic through the pool
//! concurrently, so a diff of the counters there races with them. This
//! binary holds this one test only: its process is the only writer of
//! those counters, so the diff is exact. Keep it a single-test binary.

use fieldswap_parallel::par_try_map_indexed;

#[test]
fn try_map_reports_retry_and_failure_counters() {
    fieldswap_obs::enable_metrics();
    let reg = fieldswap_obs::global().registry();
    let retried0 = reg.counter_value("fieldswap_grid_cells_retried");
    let failed0 = reg.counter_value("fieldswap_grid_cells_failed");
    let out = par_try_map_indexed(2, 1, |i| {
        if i == 0 {
            panic!("always");
        }
        i
    });
    assert!(out[0].is_err());
    assert_eq!(out[1], Ok(1));
    let retried1 = reg.counter_value("fieldswap_grid_cells_retried");
    let failed1 = reg.counter_value("fieldswap_grid_cells_failed");
    assert_eq!(retried1, retried0 + 1, "one first-attempt panic");
    assert_eq!(failed1, failed0 + 1, "one double failure");
}
