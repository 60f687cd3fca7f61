//! Deterministic fault injection for the serving stack.
//!
//! A [`FaultPlan`] is a declarative description of the faults to
//! inject — extra inference latency, forced worker panics on specific
//! global document indices, and corrupt model directories on `/reload`.
//! The plan is parsed from the hidden `fieldswap-serve serve --chaos
//! SPEC` flag and is **off by default**: a server built without a plan
//! runs the exact clean-path code, so chaos can never perturb production
//! behavior. The chaos soak (`tests/chaos_soak.rs`) drives a planned
//! server through a storm, with stalled writers holding half-written
//! requests open, and asserts the availability invariants.
//!
//! Determinism contract: every decision is a pure function of the plan
//! and a global document counter ([`Chaos::on_infer`] assigns each
//! inferred document the next index), so a run injects exactly the
//! faults the spec names — `panic-doc=7` panics the worker handling the
//! 8th document, every time.
//!
//! Spec grammar (comma-separated `key=value`, all keys optional):
//!
//! ```text
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let plan = FaultPlan::parse(
            "delay-ms=5,panic-doc=7,panic-doc=3,panic-every=10,window-docs=100,corrupt-reloads=2",
        )
        .unwrap();
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
        // There is no seed: every fault is a pure function of the
        // document counter.
        assert!(FaultPlan::parse("seed=7").is_err());
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
        // panic-doc=1 plus every 4th (docs 3, 7) within the window; the
        // window stops doc 11's panic.
        assert_eq!(panicked, vec![1, 3, 7]);
    }

    #[test]
    fn corrupt_reload_budget_is_consumed() {
        let chaos = Chaos::new(FaultPlan::parse("corrupt-reloads=2").unwrap());
        assert!(chaos.fail_reload());
        assert!(chaos.fail_reload());
        assert!(!chaos.fail_reload());
        assert!(!chaos.fail_reload());
    }
}
