//! Named fault-injection sites for resilience testing.
//!
//! A *failpoint* is a named site in production code where a test can
//! force a failure: `panic_if_armed` panics there, `should_fire` lets
//! the site return its own typed error. Sites are compiled in only with
//! the `failpoints` cargo feature — without it every function here is a
//! constant no-op and the call sites cost nothing.
//!
//! The registry is process-global. Tests that arm sites must serialize
//! themselves (arm → exercise → disarm under a shared lock) because the
//! test harness runs tests concurrently; see `tests/failpoints_suite.rs`
//! at the workspace root for the pattern.
//!
//! Known sites in this workspace:
//!
//! | site                     | effect when armed                              |
//! |--------------------------|------------------------------------------------|
//! | `sim.batch_kernel`       | panics a compiled-kernel batch run             |
//! | `core.checkpoint_write`  | fails a synthesis checkpoint write             |
//! | `core.checkpoint_rename` | fails a checkpoint save after the tmp-file     |
//! |                          | fsync but before the atomic rename (simulated  |
//! |                          | crash at the worst moment)                     |
//! | `core.checkpoint_read`   | fails a checkpoint load with an `Io` error     |
//! | `serve.job_arm`          | panics while a `wbist serve` job attempt arms  |
//! |                          | its budget token                               |
//! | `serve.job_run`          | panics a `wbist serve` job body                |
//! | `netlist.bench_parse`    | fails a `.bench` parse with a `Parse` error    |

#[cfg(feature = "failpoints")]
mod imp {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};

    fn registry() -> &'static Mutex<HashMap<String, usize>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, usize>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// Arms `site` to fire on its next `times` evaluations.
    pub fn arm(site: &str, times: usize) {
        registry().lock().unwrap().insert(site.to_string(), times);
    }

    /// Disarms `site` (no-op if it was not armed).
    pub fn disarm(site: &str) {
        registry().lock().unwrap().remove(site);
    }

    /// Disarms every site.
    pub fn reset() {
        registry().lock().unwrap().clear();
    }

    /// Consumes one armed firing of `site`; `true` means the site must
    /// fail now.
    pub fn should_fire(site: &str) -> bool {
        let mut reg = registry().lock().unwrap();
        match reg.get_mut(site) {
            Some(0) | None => false,
            Some(n) => {
                *n -= 1;
                if *n == 0 {
                    reg.remove(site);
                }
                true
            }
        }
    }
}

#[cfg(not(feature = "failpoints"))]
mod imp {
    /// No-op without the `failpoints` feature.
    #[inline(always)]
    pub fn arm(_site: &str, _times: usize) {}

    /// No-op without the `failpoints` feature.
    #[inline(always)]
    pub fn disarm(_site: &str) {}

    /// No-op without the `failpoints` feature.
    #[inline(always)]
    pub fn reset() {}

    /// Always `false` without the `failpoints` feature.
    #[inline(always)]
    pub fn should_fire(_site: &str) -> bool {
        false
    }
}

pub use imp::{arm, disarm, reset, should_fire};

/// Panics at `site` when it is armed. The panic message names the site
/// so recovery paths (and their tests) can tell injected failures from
/// real ones.
#[inline]
pub fn panic_if_armed(site: &str) {
    if should_fire(site) {
        panic!("failpoint `{site}` fired");
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    #[test]
    fn armed_sites_fire_exactly_n_times() {
        // One test exercises the whole lifecycle: the registry is
        // process-global and the harness runs tests concurrently.
        reset();
        assert!(!should_fire("t.unarmed"));
        arm("t.site", 2);
        assert!(should_fire("t.site"));
        assert!(should_fire("t.site"));
        assert!(!should_fire("t.site"), "exhausted sites stop firing");
        arm("t.site", 1);
        disarm("t.site");
        assert!(!should_fire("t.site"), "disarm cancels pending firings");
        arm("t.panic", 1);
        let err = std::panic::catch_unwind(|| panic_if_armed("t.panic"));
        assert!(err.is_err());
        panic_if_armed("t.panic"); // exhausted: must not panic
        reset();
    }
}
