//! Deterministic fault injection for the serving stack.
//!
//! A [`FaultPlan`] is a seeded, declarative description of the faults to
//! inject — extra inference latency, forced worker panics on specific
//! global document indices, and corrupt model directories on `/reload`.
//! The plan is parsed from the hidden `fieldswap-serve serve --chaos
//! SPEC` flag and is **off by default**: a server built without a plan
//! runs the exact clean-path code, so chaos can never perturb production
//! behavior. The chaos soak (`tests/chaos_soak.rs`) drives a planned
//! server through a storm, with stalled writers holding half-written
//! requests open, and asserts the availability invariants.
//!
//! Determinism contract: every server-side decision is a pure function
//! of the plan and a global document counter ([`Chaos::on_infer`]
//! assigns each inferred document the next index), so a run injects
//! exactly the faults the spec names — `panic-doc=7` panics the worker
//! handling the 8th document, every time. Client-side jitter
//! ([`backoff_ms`]) derives from the plan seed the same way the
//! experiment harness derives per-cell seeds: splitmix over
//! `(seed, request, attempt)`.
//!
//! Spec grammar (comma-separated `key=value`, all keys optional):
//!
//! ```text
//! seed=U64            jitter seed (default 0)
//! delay-ms=U64        injected latency per inferred doc inside the window
//! panic-doc=N         force a worker panic on global doc index N (repeatable)
//! panic-every=K       force a worker panic on every K-th doc (doc K-1, 2K-1, …)
//! window-docs=N       faults apply only to the first N docs (0 = no limit)
//! corrupt-reloads=K   the next K /reload attempts see a corrupt model dir
//! ```

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

/// A parsed, declarative fault-injection plan. See the module docs for
/// the spec grammar.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for client backoff jitter and any future randomized faults.
    pub seed: u64,
    /// Injected latency per inferred document inside the fault window.
    pub delay_ms: u64,
    /// Global document indices whose inference is forced to panic.
    pub panic_docs: Vec<u64>,
    /// Panic on every K-th inferred document (0 = disabled).
    pub panic_every: u64,
    /// Faults apply only while the global doc counter is below this
    /// (0 = no window, faults run forever).
    pub window_docs: u64,
    /// How many upcoming `/reload` attempts see a corrupt directory.
    pub corrupt_reloads: u32,
}

impl FaultPlan {
    /// Parses a `--chaos` spec string. Empty spec is a valid all-off plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos spec item {part:?} is not key=value"))?;
            let num = |what: &str| -> Result<u64, String> {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("chaos {what}: bad value {value:?}"))
            };
            match key {
                "seed" => plan.seed = num("seed")?,
                "delay-ms" => plan.delay_ms = num("delay-ms")?,
                "panic-doc" => plan.panic_docs.push(num("panic-doc")?),
                "panic-every" => plan.panic_every = num("panic-every")?,
                "window-docs" => plan.window_docs = num("window-docs")?,
                "corrupt-reloads" => plan.corrupt_reloads = num("corrupt-reloads")? as u32,
                other => return Err(format!("unknown chaos key {other:?}")),
            }
        }
        plan.panic_docs.sort_unstable();
        Ok(plan)
    }
}

/// Live fault-injection state: the plan plus the global document
/// counter and the remaining corrupt-reload budget. One per server.
pub struct Chaos {
    plan: FaultPlan,
    docs: AtomicU64,
    corrupt_left: AtomicU32,
}

impl Chaos {
    /// Runtime state for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let corrupt_left = AtomicU32::new(plan.corrupt_reloads);
        Self {
            plan,
            docs: AtomicU64::new(0),
            corrupt_left,
        }
    }

    /// The plan this state executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Documents inferred so far (the global fault clock).
    pub fn docs_seen(&self) -> u64 {
        self.docs.load(Ordering::Relaxed)
    }

    /// Whether the fault window is over (always false for unwindowed
    /// plans).
    pub fn window_over(&self) -> bool {
        self.plan.window_docs > 0 && self.docs_seen() >= self.plan.window_docs
    }

    /// Called by the executor once per inferred document, inside the
    /// panic-isolated region: ticks the doc clock, injects the planned
    /// latency, and panics when this index is a planned panic. Counters
    /// `fieldswap_serve_chaos_injected_total{kind=…}` record every
    /// injection so harnesses can bound observed errors by injected
    /// faults.
    pub fn on_infer(&self) {
        let i = self.docs.fetch_add(1, Ordering::Relaxed);
        if self.plan.window_docs > 0 && i >= self.plan.window_docs {
            return;
        }
        if self.plan.delay_ms > 0 {
            fieldswap_obs::counter_add("fieldswap_serve_chaos_injected_total{kind=\"delay\"}", 1);
            std::thread::sleep(Duration::from_millis(self.plan.delay_ms));
        }
        let forced = self.plan.panic_docs.binary_search(&i).is_ok()
            || (self.plan.panic_every > 0 && (i + 1).is_multiple_of(self.plan.panic_every));
        if forced {
            fieldswap_obs::counter_add("fieldswap_serve_chaos_injected_total{kind=\"panic\"}", 1);
            panic!("chaos: injected worker panic on doc {i}");
        }
    }

    /// Called by `/reload`: returns true while the corrupt-reload
    /// budget lasts, consuming one unit per call.
    pub fn fail_reload(&self) -> bool {
        let injected = self
            .corrupt_left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
                left.checked_sub(1)
            })
            .is_ok();
        if injected {
            fieldswap_obs::counter_add(
                "fieldswap_serve_chaos_injected_total{kind=\"corrupt_reload\"}",
                1,
            );
        }
        injected
    }
}

/// Deterministic jittered backoff for clients honoring `Retry-After`:
/// a value in `[base_ms/2, base_ms]`, derived from
/// `(seed, request, attempt)` by splitmix64 so reruns back off
/// identically. `base_ms` of 0 stays 0.
pub fn backoff_ms(seed: u64, request: u64, attempt: u64, base_ms: u64) -> u64 {
    if base_ms == 0 {
        return 0;
    }
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(request.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(attempt.wrapping_mul(0x94d0_49bb_1331_11eb))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    base_ms / 2 + z % (base_ms / 2 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let plan = FaultPlan::parse(
            "seed=42,delay-ms=5,panic-doc=7,panic-doc=3,panic-every=10,\
             window-docs=100,corrupt-reloads=2",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.delay_ms, 5);
        assert_eq!(plan.panic_docs, vec![3, 7]); // sorted
        assert_eq!(plan.panic_every, 10);
        assert_eq!(plan.window_docs, 100);
        assert_eq!(plan.corrupt_reloads, 2);
    }

    #[test]
    fn empty_spec_is_all_off() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(FaultPlan::parse("delay-ms").is_err());
        assert!(FaultPlan::parse("delay-ms=abc").is_err());
        assert!(FaultPlan::parse("bogus-key=1").is_err());
        // Stalled clients are a load condition of the chaos soak, not a
        // server fault.
        assert!(FaultPlan::parse("stall-clients=1").is_err());
        assert!(FaultPlan::parse("stall-ms=100").is_err());
    }

    #[test]
    fn panic_schedule_is_deterministic() {
        let chaos =
            Chaos::new(FaultPlan::parse("panic-doc=1,panic-every=4,window-docs=8").unwrap());
        let mut panicked = Vec::new();
        for i in 0..12u64 {
            let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| chaos.on_infer()))
                .is_err();
            if hit {
                panicked.push(i);
            }
        }
        // panic-doc=1 plus every 4th (docs 3, 7), all within the window.
        assert_eq!(panicked, vec![1, 3, 7]);
        assert_eq!(chaos.docs_seen(), 12);
        assert!(chaos.window_over());
    }

    #[test]
    fn corrupt_reload_budget_is_consumed() {
        let chaos = Chaos::new(FaultPlan::parse("corrupt-reloads=2").unwrap());
        assert!(chaos.fail_reload());
        assert!(chaos.fail_reload());
        assert!(!chaos.fail_reload());
        assert!(!chaos.fail_reload());
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        for request in 0..50u64 {
            for attempt in 0..4u64 {
                let a = backoff_ms(7, request, attempt, 1000);
                let b = backoff_ms(7, request, attempt, 1000);
                assert_eq!(a, b);
                assert!((500..=1000).contains(&a), "{a}");
            }
        }
        assert_eq!(backoff_ms(7, 1, 1, 0), 0);
        // Different coordinates actually jitter.
        let distinct: std::collections::HashSet<u64> =
            (0..32).map(|r| backoff_ms(7, r, 0, 1000)).collect();
        assert!(distinct.len() > 4, "{distinct:?}");
    }
}
