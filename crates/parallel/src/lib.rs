#![warn(missing_docs)]

//! # fieldswap-parallel
//!
//! Deterministic parallel execution primitives shared by the experiment
//! harness (grid fan-out) and the training hot loops (data-parallel
//! epochs). Everything here preserves one contract: **output is
//! bit-identical for every `jobs` setting**, because results land in
//! per-index slots and all order-sensitive reduction happens on the
//! caller's thread in index order.
//!
//! Three building blocks:
//!
//! * [`par_map_indexed`] / [`par_try_map_indexed`] — fan an index range
//!   out over a scoped worker set, collecting results *by index* so the
//!   output order (and hence every downstream aggregate) is independent
//!   of thread scheduling. The `try` variant isolates a panicking slot
//!   with `catch_unwind`, retries it once, and returns the captured
//!   panic payload instead of tearing the whole pool down — a multi-hour
//!   grid survives one poisoned cell;
//! * [`WorkerPool`] — a persistent pool for loops that dispatch many
//!   small batches (the per-epoch training loops): threads are spawned
//!   once per pool, then each [`WorkerPool::fill_slots`] broadcast costs
//!   two condvar round-trips instead of `jobs` thread spawns. With
//!   `jobs <= 1` every call degenerates to a plain serial loop on the
//!   caller's thread — no threads, no synchronization — so the serial
//!   path *is* the reference implementation the parallel path must match;
//! * [`OnceMap`] — a concurrent lazily-populated map whose values are
//!   initialized exactly once per key, with an initialization counter so
//!   tests can assert the exactly-once contract.
//!
//! `rayon` is not available in the offline build environment, so the
//! scoped pool is a small `std::thread::scope` worker set over an atomic
//! work index — a few dozen lines that cover everything the grid needs.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Resolves a `jobs` knob: `0` means "all available cores", anything
/// else is taken literally.
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        jobs
    }
}

/// A slot whose computation panicked on both the first attempt and the
/// retry: the grid cell is lost, but the captured payload lets the
/// caller account for it instead of crashing the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotPanic {
    /// The index passed to the worker closure.
    pub index: usize,
    /// The panic payload rendered as text (`&str` / `String` payloads
    /// verbatim, anything else a placeholder).
    pub payload: String,
}

/// Renders a `catch_unwind` payload as text.
fn payload_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one slot under `catch_unwind` with a single retry.
///
/// The retry is cheap insurance against transient faults; a
/// deterministic panic simply fails twice and is reported. Counter
/// `fieldswap_grid_cells_retried` ticks on every first-attempt panic,
/// `fieldswap_grid_cells_failed` when the retry also dies.
fn run_slot<U, F>(f: &F, i: usize) -> Result<U, SlotPanic>
where
    F: Fn(usize) -> U + Sync,
{
    match catch_unwind(AssertUnwindSafe(|| f(i))) {
        Ok(v) => Ok(v),
        Err(first) => {
            fieldswap_obs::counter_add("fieldswap_grid_cells_retried", 1);
            fieldswap_obs::warn!(
                "worker slot {i} panicked ({}); retrying once",
                payload_text(first)
            );
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(v) => Ok(v),
                Err(second) => {
                    fieldswap_obs::counter_add("fieldswap_grid_cells_failed", 1);
                    Err(SlotPanic {
                        index: i,
                        payload: payload_text(second),
                    })
                }
            }
        }
    }
}

/// Maps `f` over `0..n` using up to `jobs` worker threads (resolved via
/// [`effective_jobs`]), returning per-index outcomes in index order.
///
/// Work is distributed dynamically (an atomic cursor), so long cells
/// don't stall a fixed stripe, but each result lands in its own slot —
/// the output is bit-identical to the serial `(0..n).map(f)` whenever
/// `f` itself depends only on the index.
///
/// Each slot runs under [`catch_unwind`]: a panic is retried once, and a
/// second panic yields `Err(SlotPanic)` for that index while every other
/// slot completes normally. The pool itself never unwinds.
pub fn par_try_map_indexed<U, F>(n: usize, jobs: usize, f: F) -> Vec<Result<U, SlotPanic>>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let jobs = effective_jobs(jobs).min(n.max(1));
    if fieldswap_obs::metrics_enabled() {
        fieldswap_obs::gauge_set("fieldswap_worker_threads", jobs as f64);
    }
    if jobs <= 1 {
        return (0..n).map(|i| run_slot(&f, i)).collect();
    }
    // `Mutex<Option<..>>` slots rather than `OnceLock`: the mutex is
    // uncontended (each index is claimed by exactly one worker via the
    // cursor) and only demands `U: Send`, not `U: Sync`.
    let slots: Vec<Mutex<Option<Result<U, SlotPanic>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for w in 0..jobs {
            // Named threads so per-worker tracks in trace exports and
            // the `trace_report` utilization table are identifiable.
            std::thread::Builder::new()
                .name(format!("fieldswap-grid-{w}"))
                .spawn_scoped(scope, || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let value = run_slot(&f, i);
                    let prev = slots[i].lock().expect("slot poisoned").replace(value);
                    assert!(prev.is_none(), "slot {i} filled twice");
                })
                .expect("spawn grid worker");
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("all slots filled")
        })
        .collect()
}

/// Infallible wrapper over [`par_try_map_indexed`]: any slot that still
/// fails after its retry re-raises the captured panic on the caller's
/// thread. Callers that need per-cell degradation use the `try` variant.
pub fn par_map_indexed<U, F>(n: usize, jobs: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    par_try_map_indexed(n, jobs, f)
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|p| panic!("parallel slot {} panicked twice: {}", p.index, p.payload))
        })
        .collect()
}

/// The unit of work broadcast to pool workers: a borrowed closure that
/// the pool promises not to touch after the broadcast returns. Stored as
/// a raw wide pointer so the worker threads (which are `'static`) can
/// hold it; safety rests on [`WorkerPool::fill_slots`] blocking until
/// every worker has finished the generation.
#[derive(Clone, Copy)]
struct Task(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (the closure bound requires it) and the
// broadcast protocol guarantees the pointer is only dereferenced while
// the owning stack frame is alive.
unsafe impl Send for Task {}

struct PoolState {
    /// Monotonic broadcast counter; workers run one task per bump.
    generation: u64,
    /// The closure for the current generation, if one is in flight.
    task: Option<Task>,
    /// Workers still running the current generation.
    remaining: usize,
    /// Set once, on drop: workers exit their loop.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Wakes workers when a new generation (or shutdown) is posted.
    work_ready: Condvar,
    /// Wakes the broadcaster when the last worker finishes.
    work_done: Condvar,
}

/// A persistent worker pool for loops that dispatch many small parallel
/// batches — the per-epoch training loops, where spawning threads per
/// batch would cost more than the batch itself.
///
/// * `jobs <= 1`: no threads are spawned and every call runs the plain
///   serial loop on the caller's thread, so the serial path has zero
///   parallel machinery in it.
/// * `jobs > 1`: `jobs - 1` threads are spawned once; the caller's
///   thread participates as worker 0 in every broadcast. Work items are
///   claimed dynamically via an atomic cursor and results land in
///   per-item slots, so output is independent of scheduling.
///
/// Determinism contract: [`fill_slots`](Self::fill_slots) writes item
/// `i`'s result into slot `i` and nothing else; any order-sensitive
/// reduction over the slots is the caller's job and must be done in slot
/// order. Under that discipline the pool is invisible in the output.
pub struct WorkerPool {
    jobs: usize,
    shared: Option<Arc<PoolShared>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Creates a pool resolving `jobs` via [`effective_jobs`]. For a
    /// resolved value of 1 this is free: no threads, no allocation
    /// beyond the struct.
    pub fn new(jobs: usize) -> Self {
        let jobs = effective_jobs(jobs);
        if jobs <= 1 {
            return Self {
                jobs: 1,
                shared: None,
                handles: Vec::new(),
            };
        }
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                generation: 0,
                task: None,
                remaining: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
        });
        let handles = (1..jobs)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fieldswap-pool-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            jobs,
            shared: Some(shared),
            handles,
        }
    }

    /// Resolved worker count (including the caller's thread).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `f(worker, item, &mut slot[item])` for every
    /// `item in 0..slots.len()`, mutating each slot in place, and blocks
    /// until all items are done. `worker` is in `0..jobs` and is stable
    /// for the duration of one item — use it to index per-worker scratch.
    ///
    /// Slots are claimed via an atomic cursor, so scheduling varies run
    /// to run, but item `i` only ever touches slot `i`. The caller owns
    /// the slot storage and can reuse it across calls (grow-only, no
    /// per-batch allocation): each slot can hold its own scratch buffers
    /// that warm up over the run.
    pub fn for_each_slot<S, F>(&self, slots: &[Mutex<S>], f: F)
    where
        S: Send,
        F: Fn(usize, usize, &mut S) + Sync,
    {
        let n = slots.len();
        let Some(shared) = &self.shared else {
            for (i, slot) in slots.iter().enumerate() {
                f(0, i, &mut slot.lock().expect("slot poisoned"));
            }
            return;
        };
        if n == 0 {
            return;
        }
        let cursor = AtomicUsize::new(0);
        let run = |worker: usize| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            f(worker, i, &mut slots[i].lock().expect("slot poisoned"));
        };
        self.broadcast(shared, &run);
    }

    /// Runs `f(worker, item)` for every `item in 0..slots.len()`,
    /// storing each result in its slot, and blocks until all items are
    /// done. A thin wrapper over [`for_each_slot`](Self::for_each_slot)
    /// for callers whose items produce owned values.
    pub fn fill_slots<T, F>(&self, slots: &[Mutex<Option<T>>], f: F)
    where
        T: Send,
        F: Fn(usize, usize) -> T + Sync,
    {
        self.for_each_slot(slots, |worker, item, slot| *slot = Some(f(worker, item)));
    }

    /// The broadcast protocol: publish one borrowed closure to the
    /// workers, participate as worker 0, and block until every worker
    /// has finished the generation.
    fn broadcast(&self, shared: &Arc<PoolShared>, run: &(dyn Fn(usize) + Sync)) {
        // Publish the task. The borrow's lifetime is erased so the
        // 'static workers can hold it; we block below until every worker
        // is done with this generation, which keeps `run` alive.
        let ptr: *const (dyn Fn(usize) + Sync) = run;
        // SAFETY: only changes the trait object's lifetime bound; the
        // pointer is not dereferenced after `broadcast` returns.
        let task = Task(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(ptr)
        });
        {
            let mut state = shared.state.lock().expect("pool poisoned");
            debug_assert!(state.task.is_none(), "overlapping broadcasts");
            state.task = Some(task);
            state.generation += 1;
            state.remaining = self.jobs - 1;
            shared.work_ready.notify_all();
        }
        // The caller's thread is worker 0.
        run(0);
        let mut state = shared.state.lock().expect("pool poisoned");
        while state.remaining > 0 {
            state = shared.work_done.wait(state).expect("pool poisoned");
        }
        state.task = None;
    }
}

fn worker_loop(shared: &PoolShared, worker: usize) {
    let mut seen_generation = 0u64;
    loop {
        let task = {
            let mut state = shared.state.lock().expect("pool poisoned");
            loop {
                if state.shutdown {
                    return;
                }
                if state.generation > seen_generation {
                    seen_generation = state.generation;
                    break state.task.expect("generation without task");
                }
                state = shared.work_ready.wait(state).expect("pool poisoned");
            }
        };
        // SAFETY: `fill_slots` does not return (and thus the closure's
        // stack frame stays alive) until `remaining` drops to zero,
        // which only happens after this call completes.
        unsafe { (*task.0)(worker) };
        let mut state = shared.state.lock().expect("pool poisoned");
        state.remaining -= 1;
        if state.remaining == 0 {
            shared.work_done.notify_all();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            let mut state = shared.state.lock().expect("pool poisoned");
            state.shutdown = true;
            shared.work_ready.notify_all();
            drop(state);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A concurrent map whose entries are computed exactly once per key.
///
/// Readers that race on the same key block until the single in-flight
/// initialization finishes; readers on different keys initialize
/// concurrently. Values are handed out by clone — store an `Arc` for
/// anything heavy.
pub struct OnceMap<K, V> {
    cells: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    inits: AtomicUsize,
    /// When set, hits and misses are reported to the metrics registry as
    /// `fieldswap_cache_{hits,misses}_total{cache="<name>"}`.
    name: Option<&'static str>,
}

impl<K: std::hash::Hash + Eq + Clone, V: Clone> OnceMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self {
            cells: Mutex::new(HashMap::new()),
            inits: AtomicUsize::new(0),
            name: None,
        }
    }

    /// An empty map that reports cache hit/miss counters under `name`
    /// whenever metrics collection is enabled.
    pub fn named(name: &'static str) -> Self {
        Self {
            cells: Mutex::new(HashMap::new()),
            inits: AtomicUsize::new(0),
            name: Some(name),
        }
    }

    /// The value for `key`, computing it with `init` on first access.
    ///
    /// The map lock is held only to fetch the key's cell; `init` runs
    /// outside it, so distinct keys never serialize each other.
    pub fn get_or_init(&self, key: K, init: impl FnOnce() -> V) -> V {
        let cell = {
            let mut cells = self.cells.lock().expect("OnceMap poisoned");
            Arc::clone(
                cells
                    .entry(key)
                    .or_insert_with(|| Arc::new(OnceLock::new())),
            )
        };
        let mut ran_init = false;
        let value = cell
            .get_or_init(|| {
                self.inits.fetch_add(1, Ordering::Relaxed);
                ran_init = true;
                init()
            })
            .clone();
        if let Some(name) = self.name {
            if fieldswap_obs::metrics_enabled() {
                let kind = if ran_init { "misses" } else { "hits" };
                fieldswap_obs::counter_add(
                    &format!("fieldswap_cache_{kind}_total{{cache=\"{name}\"}}"),
                    1,
                );
            }
        }
        value
    }

    /// Number of initialized entries.
    pub fn len(&self) -> usize {
        let cells = self.cells.lock().expect("OnceMap poisoned");
        cells.values().filter(|c| c.get().is_some()).count()
    }

    /// Whether no entry has been initialized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many times an initializer has run — equals [`len`](Self::len)
    /// exactly when every entry was computed once.
    pub fn init_count(&self) -> usize {
        self.inits.load(Ordering::Relaxed)
    }
}

impl<K: std::hash::Hash + Eq + Clone, V: Clone> Default for OnceMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that panic through the pool: each bumps the
    /// process-global `fieldswap_grid_cells_{retried,failed}` counters
    /// (once metrics are on), which the counter test diffs. Held for the
    /// whole test; poisoning is ignored because a failed holder has
    /// already reported its own failure.
    static POOL_PANIC_LOCK: Mutex<()> = Mutex::new(());

    fn pool_panic_lock() -> std::sync::MutexGuard<'static, ()> {
        POOL_PANIC_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn par_map_matches_serial_output() {
        let serial: Vec<u64> = (0..57).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
        for jobs in [0, 1, 2, 4, 16] {
            let par = par_map_indexed(57, jobs, |i| (i as u64).wrapping_mul(0x9E37));
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        assert!(par_map_indexed(0, 4, |i| i).is_empty());
        assert_eq!(par_map_indexed(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn effective_jobs_resolves_zero() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }

    #[test]
    fn try_map_isolates_persistent_panic() {
        let _serial = pool_panic_lock();
        for jobs in [1, 4] {
            let out = par_try_map_indexed(6, jobs, |i| {
                if i == 3 {
                    panic!("cell {i} is poisoned");
                }
                i * 2
            });
            assert_eq!(out.len(), 6, "jobs={jobs}");
            for (i, r) in out.iter().enumerate() {
                if i == 3 {
                    let p = r.as_ref().unwrap_err();
                    assert_eq!(p.index, 3);
                    assert_eq!(p.payload, "cell 3 is poisoned");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 2, "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn try_map_retries_transient_panic_once() {
        let _serial = pool_panic_lock();
        // The slot panics only on its first attempt; the retry succeeds
        // and the caller sees a clean result.
        let attempts = AtomicUsize::new(0);
        let out = par_try_map_indexed(3, 1, |i| {
            if i == 1 && attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("transient");
            }
            i + 100
        });
        assert_eq!(
            out,
            vec![Ok(100), Ok(101), Ok(102)],
            "retry should recover the transient slot"
        );
        assert_eq!(attempts.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn try_map_reports_retry_and_failure_counters() {
        let _serial = pool_panic_lock();
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

    #[test]
    fn infallible_map_repanics_with_payload() {
        let _serial = pool_panic_lock();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_map_indexed(2, 1, |i| {
                if i == 1 {
                    panic!("boom");
                }
                i
            })
        }));
        let payload = payload_text(caught.unwrap_err());
        assert!(
            payload.contains("slot 1") && payload.contains("boom"),
            "payload: {payload}"
        );
    }

    #[test]
    fn named_once_map_reports_hit_miss_counters() {
        fieldswap_obs::enable_metrics();
        let reg = fieldswap_obs::global().registry();
        let hits0 = reg.counter_value("fieldswap_cache_hits_total{cache=\"test_cache\"}");
        let misses0 = reg.counter_value("fieldswap_cache_misses_total{cache=\"test_cache\"}");
        let map: OnceMap<u32, u32> = OnceMap::named("test_cache");
        assert_eq!(map.get_or_init(7, || 70), 70);
        assert_eq!(map.get_or_init(7, || unreachable!()), 70);
        let hits1 = reg.counter_value("fieldswap_cache_hits_total{cache=\"test_cache\"}");
        let misses1 = reg.counter_value("fieldswap_cache_misses_total{cache=\"test_cache\"}");
        assert_eq!(hits1, hits0 + 1);
        assert_eq!(misses1, misses0 + 1);
    }

    #[test]
    fn once_map_initializes_exactly_once_per_key() {
        let map: OnceMap<u32, u32> = OnceMap::new();
        let hits = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for key in 0..4 {
                        let v = map.get_or_init(key, || {
                            hits.fetch_add(1, Ordering::Relaxed);
                            key * 10
                        });
                        assert_eq!(v, key * 10);
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4, "one init per key");
        assert_eq!(map.init_count(), 4);
        assert_eq!(map.len(), 4);
    }

    #[test]
    fn worker_pool_serial_is_threadless() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.jobs(), 1);
        let slots: Vec<Mutex<Option<usize>>> = (0..5).map(|_| Mutex::new(None)).collect();
        pool.fill_slots(&slots, |worker, item| {
            assert_eq!(worker, 0);
            item * 3
        });
        let out: Vec<usize> = slots
            .iter()
            .map(|s| s.lock().unwrap().take().unwrap())
            .collect();
        assert_eq!(out, vec![0, 3, 6, 9, 12]);
    }

    #[test]
    fn worker_pool_fills_every_slot_once() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.jobs(), 4);
        let slots: Vec<Mutex<Option<(usize, usize)>>> = (0..33).map(|_| Mutex::new(None)).collect();
        // Many consecutive broadcasts through the same pool: results
        // must always land in the right slot with a valid worker index.
        for round in 0..10 {
            pool.fill_slots(&slots, |worker, item| {
                assert!(worker < 4);
                (item, item * 7 + round)
            });
            for (i, s) in slots.iter().enumerate() {
                let (item, v) = s.lock().unwrap().take().unwrap();
                assert_eq!(item, i);
                assert_eq!(v, i * 7 + round);
            }
        }
    }

    #[test]
    fn worker_pool_for_each_slot_mutates_in_place() {
        // Slots keep their identity across broadcasts: per-slot scratch
        // accumulates instead of being replaced.
        for jobs in [1, 4] {
            let pool = WorkerPool::new(jobs);
            let slots: Vec<Mutex<Vec<usize>>> = (0..9).map(|_| Mutex::new(Vec::new())).collect();
            for round in 0..3 {
                pool.for_each_slot(&slots, |_, item, scratch| scratch.push(item * 10 + round));
            }
            for (i, s) in slots.iter().enumerate() {
                assert_eq!(*s.lock().unwrap(), vec![i * 10, i * 10 + 1, i * 10 + 2]);
            }
        }
    }

    #[test]
    fn worker_pool_empty_batch_is_noop() {
        let pool = WorkerPool::new(3);
        let slots: Vec<Mutex<Option<u32>>> = Vec::new();
        pool.fill_slots(&slots, |_, _| unreachable!());
    }

    #[test]
    fn worker_pool_reduction_in_slot_order_is_jobs_invariant() {
        // The contract the training loops rely on: any fold over the
        // slots in index order gives the same result for every jobs
        // setting, including non-associative f32 accumulation.
        let items: Vec<f32> = (0..101).map(|i| (i as f32 * 0.37).sin() * 1e-3).collect();
        let fold = |jobs: usize| -> f32 {
            let pool = WorkerPool::new(jobs);
            let slots: Vec<Mutex<Option<f32>>> =
                (0..items.len()).map(|_| Mutex::new(None)).collect();
            pool.fill_slots(&slots, |_, i| items[i] * items[i] + 1e-7);
            let mut acc = 0.0f32;
            for s in &slots {
                acc += s.lock().unwrap().take().unwrap();
            }
            acc
        };
        let serial = fold(1);
        for jobs in [2, 3, 8] {
            assert_eq!(serial.to_bits(), fold(jobs).to_bits(), "jobs={jobs}");
        }
    }
}
