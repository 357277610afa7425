//! The one worker pool shared by every parallel phase.
//!
//! Fault-simulation batches and session fault jobs fan out through a
//! single process-wide set of detached worker threads with a help-first
//! participation protocol, so a sim scatter nested inside a session job
//! shares the same workers instead of spawning its own:
//!
//! * A fan-out ([`scatter`]) publishes *tickets* — invitations to run
//!   one participant closure — on a global [`Injector`] queue (the
//!   crossbeam-style MPMC queue vendored under `crates/vendor`).
//! * The **caller always participates**: it runs the participant
//!   closure inline and self-schedules tasks off a lock-free atomic
//!   cursor until none remain. A fan-out therefore completes even if
//!   every pool worker is busy elsewhere — which is what makes nesting
//!   (a session job scattering sim batches) deadlock-free by
//!   construction.
//! * Pool workers that pick a ticket up join the same cursor; whoever
//!   claims task *i* writes result slot *i*. Results are merged in item
//!   index order, so **which** thread ran a task is unobservable:
//!   detections, Ω, and every deterministic counter are bit-identical
//!   at any worker count. Scheduling only moves wall-clock time and
//!   effort-space figures (`pool.tasks` / `pool.steals`).
//!
//! Steady-state task dispatch is allocation-free: claiming a task is
//! one `fetch_add` plus one uncontended slot lock, and each participant
//! pre-sizes its result buffer once. Ticket publication allocates a
//! constant number of objects per fan-out (one job header, plus queue
//! growth until warm), independent of the task count — the
//! counting-allocator test pins this.
//!
//! # Safety
//!
//! Tickets reference the fan-out's stack frame (the participant closure
//! borrows items, slots and cursor). The job header is an `Arc` whose
//! shared state outlives the frame, and the frame is protected by a
//! cancel-and-drain guard that runs even on unwind: it purges the
//! fan-out's unclaimed tickets from the queue, marks the job cancelled
//! under the job lock (a worker holding a ticket checks that flag under
//! the same lock *before* first touching the closure), and then blocks
//! until every active participant has returned. After the guard fires,
//! no thread can reach the dead frame.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use injector::{Injector, Steal};

/// One fan-out's shared header. The erased participant closure takes
/// `is_worker: bool` — `true` on pool workers, `false` on the caller —
/// so callers can attribute stolen work in effort telemetry.
struct Job {
    /// The participant closure, lifetime-erased; only dereferenced by a
    /// participant registered in `state.active` before `cancelled` was
    /// set (see the module-level safety argument).
    f: &'static (dyn Fn(bool) + Sync),
    state: Mutex<JobState>,
    done: Condvar,
}

// SAFETY: `f`'s lifetime erasure is sound because `run_participants`
// cancels and drains the job before the referenced frame dies.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

#[derive(Default)]
struct JobState {
    /// Participants currently inside the closure.
    active: usize,
    /// Set once the fan-out caller is done: late tickets are void.
    cancelled: bool,
    /// A participant panicked; the caller re-raises.
    panicked: bool,
}

struct Pool {
    queue: Injector<Arc<Job>>,
    /// Number of live worker threads; doubles as the parking lock.
    workers: Mutex<usize>,
    wake: Condvar,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        queue: Injector::new(),
        workers: Mutex::new(0),
        wake: Condvar::new(),
    })
}

/// Grows the pool to at least `want` workers. Workers are detached
/// daemon threads that live for the process; an idle worker parks on
/// the wake condvar and costs nothing.
fn ensure_workers(p: &'static Pool, want: usize) {
    let mut count = p.workers.lock().unwrap();
    while *count < want {
        std::thread::Builder::new()
            .name(format!("wbist-pool-{count}"))
            .spawn(move || worker_loop(p))
            .expect("spawn pool worker");
        *count += 1;
    }
}

fn worker_loop(p: &'static Pool) {
    loop {
        let job = loop {
            match p.queue.steal() {
                Steal::Success(job) => break job,
                Steal::Empty => {
                    let guard = p.workers.lock().unwrap();
                    if p.queue.is_empty() {
                        // Parking rechecks under the lock pushers notify
                        // under, so a push cannot slip between the check
                        // and the wait.
                        drop(p.wake.wait(guard).unwrap());
                    }
                }
            }
        };
        {
            let mut st = job.state.lock().unwrap();
            if st.cancelled {
                continue;
            }
            st.active += 1;
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (job.f)(true)));
        let mut st = job.state.lock().unwrap();
        st.active -= 1;
        if outcome.is_err() {
            st.panicked = true;
        }
        if st.active == 0 {
            job.done.notify_all();
        }
    }
}

/// Cancel-and-drain guard: no thread may reference the fan-out's stack
/// frame once this has run, panic or not.
struct Drain<'a> {
    pool: &'static Pool,
    job: &'a Arc<Job>,
}

impl Drop for Drain<'_> {
    fn drop(&mut self) {
        self.pool.queue.retain(|t| !Arc::ptr_eq(t, self.job));
        let mut st = self.job.state.lock().unwrap();
        st.cancelled = true;
        while st.active > 0 {
            st = self.job.done.wait(st).unwrap();
        }
    }
}

/// Runs `f` once inline (as `f(false)`) and offers up to `extra`
/// concurrent invocations `f(true)` to the pool workers. Returns after
/// every started invocation has finished; invocations whose ticket no
/// worker picked up in time are simply forfeited. Re-raises if any
/// participant panicked.
fn run_participants(extra: usize, f: &(dyn Fn(bool) + Sync)) {
    if extra == 0 {
        f(false);
        return;
    }
    let p = pool();
    ensure_workers(p, extra);
    let job = Arc::new(Job {
        // SAFETY: the Drain guard below cancels and drains before this
        // frame (and therefore `f`'s borrows) can die, even on unwind.
        f: unsafe {
            std::mem::transmute::<&(dyn Fn(bool) + Sync), &'static (dyn Fn(bool) + Sync)>(f)
        },
        state: Mutex::new(JobState::default()),
        done: Condvar::new(),
    });
    for _ in 0..extra {
        p.queue.push(job.clone());
    }
    {
        let _g = p.workers.lock().unwrap();
        p.wake.notify_all();
    }
    {
        let drain = Drain { pool: p, job: &job };
        f(false);
        drop(drain);
    }
    if job.state.lock().unwrap().panicked {
        panic!("wbist pool participant panicked");
    }
}

/// Effort accounting for one fan-out.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScatterStats {
    /// Tasks dispatched (the item count).
    pub tasks: u64,
    /// Tasks that ran on pool workers rather than the calling thread.
    pub stolen: u64,
}

/// Maps `work` over `items` on up to `threads` threads (the caller plus
/// `threads - 1` pool workers), returning results in item order plus
/// steal accounting. Each participant lazily builds one `state` value
/// (per-worker scratch) and reuses it across every task it claims.
///
/// `threads <= 1` (or a single item) runs everything inline on the
/// caller with no queue traffic — byte-identical to a plain loop.
pub fn scatter<I, R, S>(
    threads: usize,
    items: Vec<I>,
    state: impl Fn() -> S + Sync,
    work: impl Fn(I, &mut S) -> R + Sync,
) -> (Vec<R>, ScatterStats)
where
    I: Send,
    R: Send,
{
    let n = items.len();
    let stats = ScatterStats {
        tasks: n as u64,
        stolen: 0,
    };
    if threads <= 1 || n <= 1 {
        let mut s = state();
        let results = items.into_iter().map(|item| work(item, &mut s)).collect();
        return (results, stats);
    }
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let cursor = AtomicUsize::new(0);
    let stolen = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    let participant = |is_worker: bool| {
        let mut s: Option<S> = None;
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            if local.capacity() == 0 {
                local.reserve_exact(n);
            }
            let item = slots[i]
                .lock()
                .unwrap()
                .take()
                .expect("each task index is claimed exactly once");
            let s = s.get_or_insert_with(&state);
            local.push((i, work(item, s)));
        }
        if is_worker {
            stolen.fetch_add(local.len(), Ordering::Relaxed);
        }
        if !local.is_empty() {
            collected.lock().unwrap().append(&mut local);
        }
    };
    run_participants(threads - 1, &participant);
    let mut merged = collected.into_inner().unwrap();
    assert_eq!(merged.len(), n, "a scattered task went missing");
    merged.sort_unstable_by_key(|&(i, _)| i);
    (
        merged.into_iter().map(|(_, r)| r).collect(),
        ScatterStats {
            tasks: n as u64,
            stolen: stolen.into_inner() as u64,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_preserves_item_order() {
        for threads in [1usize, 2, 4, 8] {
            let items: Vec<usize> = (0..100).collect();
            let (out, stats) = scatter(threads, items, || (), |i, _| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
            assert_eq!(stats.tasks, 100);
            if threads == 1 {
                assert_eq!(stats.stolen, 0);
            }
        }
    }

    #[test]
    fn participant_state_is_reused_not_shared() {
        // Each participant's scratch counts the tasks it ran; the sum
        // over participants must equal the task count.
        let total = std::sync::atomic::AtomicUsize::new(0);
        let (out, _) = scatter(
            4,
            vec![(); 64],
            || 0usize,
            |_, s| {
                *s += 1;
                total.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(out.len(), 64);
        assert_eq!(total.into_inner(), 64);
    }

    #[test]
    fn nested_scatter_does_not_deadlock() {
        // A scattered task scattering again must complete even when the
        // pool is saturated: the help-first protocol means every level
        // is driven by its own caller.
        let items: Vec<usize> = (0..8).collect();
        let (out, _) = scatter(
            4,
            items,
            || (),
            |i, _| {
                let inner: Vec<usize> = (0..8).collect();
                let (sums, _) = scatter(4, inner, || (), |j, _| i * 10 + j);
                sums.iter().sum::<usize>()
            },
        );
        let expect: Vec<usize> = (0..8).map(|i| (0..8).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn worker_panic_propagates_to_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            scatter(
                4,
                (0..32).collect::<Vec<usize>>(),
                || (),
                |i, _| {
                    if i == 17 {
                        panic!("boom");
                    }
                    i
                },
            )
        });
        assert!(caught.is_err(), "task panic must reach the caller");
    }

    #[test]
    fn forfeited_tickets_do_not_leak_into_later_fanouts() {
        // A fan-out whose caller drains everything before any worker
        // wakes leaves no live tickets behind; the next fan-out still
        // sees a clean queue and completes.
        for _ in 0..50 {
            let (out, _) = scatter(8, vec![1usize; 4], || (), |v, _| v);
            assert_eq!(out, vec![1; 4]);
        }
    }
}
