//! Run control: resource budgets and cooperative cancellation.
//!
//! Long synthesis runs over large fault lists must be *interruptible
//! without being lost*: a budget bounds the run, and exceeding it stops
//! every phase at the next safe point — leaving a valid partial result
//! instead of an aborted process. Two pieces implement this:
//!
//! * [`Budget`] — the declarative limits (wall-clock seconds, simulated
//!   fault-cycles, kept weight assignments);
//! * [`CancelToken`] — the shared runtime object every phase and both
//!   simulation kernels poll. It combines a deadline, a fault-cycle
//!   meter, and an `AtomicBool` for external cancellation.
//!
//! The token is checked *cooperatively*: the fault-simulation kernels
//! poll it once per simulated cycle per batch (charging the live
//! fault-cycles of that cycle), and the phase drivers in `wbist-core`
//! check it at phase boundaries. A tripped token never corrupts state:
//! each batch stops at a cycle boundary with its detected set intact, so
//! truncated results are always *prefixes* of the untruncated run's
//! work.
//!
//! The default token ([`CancelToken::unlimited`]) carries no state at
//! all — polling it is a single `Option` test — so phases that never use
//! budgets pay nothing.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Declarative resource limits for a run. All limits default to
/// unlimited; combine them freely.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Budget {
    /// Wall-clock limit in seconds, measured from token creation.
    pub wall_secs: Option<f64>,
    /// Limit on simulated fault-cycles (live machine bits × cycles — the
    /// deterministic `sim.fault_cycles` work measure).
    pub fault_cycles: Option<u64>,
    /// Limit on weight assignments kept in `Ω` by the synthesis phase.
    pub max_assignments: Option<usize>,
}

impl Budget {
    /// The unlimited budget.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Whether no limit is set at all.
    pub fn is_unlimited(&self) -> bool {
        self.wall_secs.is_none() && self.fault_cycles.is_none() && self.max_assignments.is_none()
    }

    /// Sets the wall-clock limit (builder style).
    pub fn wall_secs(mut self, secs: f64) -> Budget {
        self.wall_secs = Some(secs);
        self
    }

    /// Sets the fault-cycle limit (builder style).
    pub fn fault_cycles(mut self, cycles: u64) -> Budget {
        self.fault_cycles = Some(cycles);
        self
    }

    /// Sets the kept-assignment limit (builder style).
    pub fn max_assignments(mut self, n: usize) -> Budget {
        self.max_assignments = Some(n);
        self
    }
}

/// Why a run was truncated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncationReason {
    /// The wall-clock budget ran out.
    WallClock,
    /// The fault-cycle budget ran out.
    FaultCycles,
    /// The synthesis phase reached its kept-assignment limit.
    MaxAssignments,
    /// [`CancelToken::cancel`] was called externally.
    Cancelled,
    /// The run was preempted by a scheduler so its slot could be handed
    /// to other work; the preempted job is expected to persist a
    /// checkpoint and resume later (see `wbist serve`).
    Preempted,
}

impl TruncationReason {
    /// Stable numeric code, used in telemetry events.
    pub fn code(self) -> u64 {
        match self {
            TruncationReason::WallClock => 1,
            TruncationReason::FaultCycles => 2,
            TruncationReason::MaxAssignments => 3,
            TruncationReason::Cancelled => 4,
            TruncationReason::Preempted => 5,
        }
    }

    fn from_code(code: u8) -> Option<TruncationReason> {
        match code {
            1 => Some(TruncationReason::WallClock),
            2 => Some(TruncationReason::FaultCycles),
            3 => Some(TruncationReason::MaxAssignments),
            4 => Some(TruncationReason::Cancelled),
            5 => Some(TruncationReason::Preempted),
            _ => None,
        }
    }
}

impl std::fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TruncationReason::WallClock => "wall-clock budget exceeded",
            TruncationReason::FaultCycles => "fault-cycle budget exceeded",
            TruncationReason::MaxAssignments => "assignment budget exceeded",
            TruncationReason::Cancelled => "cancelled",
            TruncationReason::Preempted => "preempted for eviction",
        })
    }
}

#[derive(Debug)]
struct TokenInner {
    /// Set once when any limit trips; everything polls this first.
    tripped: AtomicBool,
    /// The [`TruncationReason::code`] of the first trip (0 = none).
    reason: AtomicU8,
    /// Wall-clock deadline, if a wall budget was set.
    deadline: Option<Instant>,
    /// Fault-cycle limit (`u64::MAX` when unlimited) and the meter.
    fault_cycle_limit: u64,
    fault_cycles: AtomicU64,
    /// Kept-assignment limit, enforced by the synthesis phase driver.
    max_assignments: Option<usize>,
}

/// Shared cancellation token. Clones share the same state; the default
/// token is unlimited and costs nothing to poll.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<TokenInner>>,
}

impl CancelToken {
    /// A token that never trips and carries no state.
    pub fn unlimited() -> CancelToken {
        CancelToken::default()
    }

    /// Arms a token for `budget`, starting the wall clock now. An
    /// unlimited budget still yields an armed token so that
    /// [`CancelToken::cancel`] works. A wall budget too large to
    /// represent as a deadline (`inf`, `f64::MAX`, or one that overflows
    /// `Instant`) could never trip, so it arms no deadline at all.
    pub fn for_budget(budget: &Budget) -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(TokenInner {
                tripped: AtomicBool::new(false),
                reason: AtomicU8::new(0),
                deadline: budget.wall_secs.and_then(|s| {
                    let wall = Duration::try_from_secs_f64(s.max(0.0)).ok()?;
                    Instant::now().checked_add(wall)
                }),
                fault_cycle_limit: budget.fault_cycles.unwrap_or(u64::MAX),
                fault_cycles: AtomicU64::new(0),
                max_assignments: budget.max_assignments,
            })),
        }
    }

    /// Whether this token can ever trip.
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// The kept-assignment limit, if any (enforced by phase drivers, not
    /// by the kernels).
    pub fn max_assignments(&self) -> Option<usize> {
        self.inner.as_ref().and_then(|i| i.max_assignments)
    }

    /// Fault-cycles charged so far.
    pub fn fault_cycles_spent(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.fault_cycles.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Trips the token externally (idempotent; the first reason wins).
    pub fn cancel(&self, reason: TruncationReason) {
        if let Some(inner) = &self.inner {
            inner.trip(reason);
        }
    }

    /// Charges `n` simulated fault-cycles against the budget, tripping
    /// the token when the limit is crossed. Called by the kernels once
    /// per cycle per batch.
    #[inline]
    pub fn charge_fault_cycles(&self, n: u64) {
        if let Some(inner) = &self.inner {
            if inner.fault_cycle_limit != u64::MAX {
                let spent = inner.fault_cycles.fetch_add(n, Ordering::Relaxed) + n;
                if spent > inner.fault_cycle_limit {
                    inner.trip(TruncationReason::FaultCycles);
                }
            }
        }
    }

    /// Polls the token: `Some(reason)` once any limit has tripped. Also
    /// checks the wall-clock deadline.
    #[inline]
    pub fn cancelled(&self) -> Option<TruncationReason> {
        let inner = self.inner.as_ref()?;
        if !inner.tripped.load(Ordering::Relaxed) {
            match inner.deadline {
                Some(deadline) if Instant::now() >= deadline => {
                    inner.trip(TruncationReason::WallClock);
                }
                _ => return None,
            }
        }
        TruncationReason::from_code(inner.reason.load(Ordering::Relaxed))
    }
}

impl TokenInner {
    fn trip(&self, reason: TruncationReason) {
        // First reason wins; `tripped` is published last so readers that
        // see it also see a non-zero reason.
        let _ = self.reason.compare_exchange(
            0,
            reason.code() as u8,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        self.tripped.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_token_never_trips() {
        let t = CancelToken::unlimited();
        assert!(!t.is_armed());
        t.charge_fault_cycles(u64::MAX / 2);
        assert_eq!(t.cancelled(), None);
        t.cancel(TruncationReason::Cancelled);
        assert_eq!(t.cancelled(), None, "unarmed tokens ignore cancel");
    }

    #[test]
    fn fault_cycle_budget_trips_once_exceeded() {
        let t = CancelToken::for_budget(&Budget::unlimited().fault_cycles(100));
        t.charge_fault_cycles(60);
        assert_eq!(t.cancelled(), None);
        t.charge_fault_cycles(40);
        assert_eq!(t.cancelled(), None, "limit itself is still within budget");
        t.charge_fault_cycles(1);
        assert_eq!(t.cancelled(), Some(TruncationReason::FaultCycles));
        assert_eq!(t.fault_cycles_spent(), 101);
    }

    #[test]
    fn expired_deadline_trips_as_wall_clock() {
        let t = CancelToken::for_budget(&Budget::unlimited().wall_secs(0.0));
        assert_eq!(t.cancelled(), Some(TruncationReason::WallClock));
    }

    #[test]
    fn unrepresentable_wall_budgets_arm_no_deadline() {
        for secs in [f64::INFINITY, f64::MAX, 1e19] {
            let t = CancelToken::for_budget(&Budget::unlimited().wall_secs(secs));
            assert!(t.is_armed(), "{secs}");
            assert_eq!(t.cancelled(), None, "{secs}");
            // The other limits still work on such a token.
            t.cancel(TruncationReason::Cancelled);
            assert_eq!(t.cancelled(), Some(TruncationReason::Cancelled), "{secs}");
        }
    }

    #[test]
    fn external_cancel_wins_and_is_sticky() {
        let t = CancelToken::for_budget(&Budget::unlimited());
        assert!(t.is_armed());
        assert_eq!(t.cancelled(), None);
        t.cancel(TruncationReason::Cancelled);
        assert_eq!(t.cancelled(), Some(TruncationReason::Cancelled));
        // Later trips cannot overwrite the first reason.
        t.cancel(TruncationReason::WallClock);
        assert_eq!(t.cancelled(), Some(TruncationReason::Cancelled));
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::for_budget(&Budget::unlimited().fault_cycles(10));
        let u = t.clone();
        u.charge_fault_cycles(11);
        assert_eq!(t.cancelled(), Some(TruncationReason::FaultCycles));
    }

    #[test]
    fn preemption_reason_round_trips() {
        assert_eq!(TruncationReason::Preempted.code(), 5);
        assert_eq!(
            TruncationReason::from_code(5),
            Some(TruncationReason::Preempted)
        );
        let t = CancelToken::for_budget(&Budget::unlimited());
        t.cancel(TruncationReason::Preempted);
        assert_eq!(t.cancelled(), Some(TruncationReason::Preempted));
    }

    #[test]
    fn budget_builders_compose() {
        let b = Budget::unlimited()
            .wall_secs(3.5)
            .fault_cycles(1000)
            .max_assignments(7);
        assert!(!b.is_unlimited());
        assert_eq!(b.wall_secs, Some(3.5));
        assert_eq!(b.fault_cycles, Some(1000));
        assert_eq!(b.max_assignments, Some(7));
        let t = CancelToken::for_budget(&b);
        assert_eq!(t.max_assignments(), Some(7));
    }
}
