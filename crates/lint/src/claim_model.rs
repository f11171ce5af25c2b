//! An exhaustive-interleaving model checker (a "mini-loom") for the
//! `AdaptationCache` per-slot claim/wait/release protocol in
//! `ust_core::prepare::get_or_adapt`.
//!
//! # Abstraction
//!
//! The checker does not run real threads. Each model thread is a small state
//! machine whose steps are the protocol's *critical sections*: every
//! lock-protected region of the real code (check-and-branch, publish,
//! panic-release) collapses to one atomic model step, which is sound because
//! no other thread can observe intermediate states of a region executed under
//! the shard mutex. The lock itself therefore vanishes from the model state —
//! what remains is the shared slot, the condvar wait-set, and each thread's
//! program counter:
//!
//! ```text
//! Lookup ── slot Ready ────────────────────────────▶ Done (cache hit)
//!    │ ──── slot InFlight ──▶ Waiting ──(notify)──▶ Lookup (retry loop)
//!    │ ──── slot Empty: claim (slot ≔ InFlight) ──▶ Adapt
//! Adapt ─── ok ──▶ Publish (slot ≔ Ready) ──▶ Notify ──▶ Done
//!    └───── panic ▶ PanicRelease (slot ≔ Empty) ──▶ PanicNotify ──▶ Dead
//! ```
//!
//! `Waiting` models `Condvar::wait`: joining the wait-set is atomic with the
//! in-flight check (exactly the real code, where the slot is re-examined and
//! `wait` is entered under one lock acquisition), and `notify_all` moves every
//! waiter back to `Lookup`. Spurious wakeups are deliberately *not* modelled:
//! the protocol must not rely on them, and proving liveness without them is
//! the stronger claim. `adapt()` runs outside the lock, so `Adapt` is its own
//! lock-free step that interleaves with everything.
//!
//! A *faulty* thread panics inside its adaptation closure (the
//! `ClaimGuard` unwind path); a faulty thread that never claims — because it
//! hit a `Ready` slot — completes normally, like the real closure that is
//! simply not invoked on a warm hit. The `Failed`-slot path is not modelled
//! separately: publishing an error is step-for-step the same protocol as
//! publishing a model, only the payload differs.
//!
//! # Checked properties
//!
//! Explored exhaustively over *all* interleavings of up to [`MAX_THREADS`]
//! threads (DFS over enabled steps; every maximal schedule is one leaf):
//!
//! * **exactly-once** — the adaptation closure never runs concurrently with
//!   itself, never re-runs after a success, and succeeds at most once;
//! * **no lost wakeup** — no reachable state has a thread parked in the
//!   wait-set with nobody left to notify it (deadlock freedom);
//! * **completion** — every non-faulty thread terminates holding the model,
//!   and the slot ends `Ready` iff some thread succeeded.
//!
//! # Mutations
//!
//! To show the checker is not vacuously green, [`Mutation`] re-introduces
//! three historic bugs; each must produce violations (asserted by tests):
//! [`Mutation::SplitCheckClaim`] (the pre-claim check-then-recompute race),
//! [`Mutation::SkipPublishNotify`] and [`Mutation::SkipPanicNotify`] (lost
//! wakeups on the success and unwind paths).

/// Upper bound on model threads. Three is enough to exercise every role
/// combination (claimant, waiter, late arrival) at once, and keeps the full
/// schedule space small enough to enumerate in milliseconds.
pub const MAX_THREADS: usize = 3;

/// Per-thread program counter over the protocol's atomic steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pc {
    /// Acquire the shard lock, branch on the slot (hit / wait / claim).
    Lookup,
    /// Parked in the condvar wait-set; only `notify_all` re-enables.
    Waiting,
    /// Passed the empty check; claims in a *separate* step (mutation only).
    Claim,
    /// Running the adaptation closure, outside the lock.
    Adapt,
    /// Acquire the lock, install `Ready`, release.
    Publish,
    /// `notify_all` after a successful publish.
    Notify,
    /// `ClaimGuard::drop`: acquire the lock, remove the claim, release.
    PanicRelease,
    /// `notify_all` from the guard's unwind path.
    PanicNotify,
    /// Returned with the model.
    Done,
    /// Unwound out of `get_or_adapt`.
    Dead,
}

/// The shared per-key slot, as other threads can observe it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Empty,
    InFlight,
    Ready,
}

/// A protocol variant: the faithful abstraction or a deliberately broken
/// mutant used to prove the checker catches real bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The protocol as implemented in `ust_core::prepare`.
    Faithful,
    /// The slot check and the claim happen under *separate* lock
    /// acquisitions — the classic check-then-recompute stampede the claim
    /// discipline replaced. Expected violation: concurrent/duplicate
    /// adaptation.
    SplitCheckClaim,
    /// The success path forgets `notify_all`. Expected violation: waiters
    /// deadlock (lost wakeup).
    SkipPublishNotify,
    /// The panic-unwind path forgets `notify_all`. Expected violation:
    /// waiters deadlock after a claimant dies.
    SkipPanicNotify,
}

/// One explored global state. Small and `Copy`-cheap on purpose: DFS clones
/// it at every branch.
#[derive(Debug, Clone)]
struct State {
    pc: [Pc; MAX_THREADS],
    got: [bool; MAX_THREADS],
    slot: SlotState,
    /// Times the adaptation closure started executing.
    started: u8,
    /// Times it unwound.
    panics: u8,
    /// Times it published a model.
    succeeded: u8,
}

/// Result of exploring one configuration's full schedule space.
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// Number of model threads.
    pub threads: usize,
    /// Bitmask of faulty threads (bit `t` = thread `t` panics in `adapt`).
    pub faulty_mask: u32,
    /// Protocol variant explored.
    pub mutation: Mutation,
    /// Maximal schedules (leaves of the interleaving tree) explored.
    pub schedules: u64,
    /// Property violations found, each with the schedule that triggers it
    /// (the recorded sample is capped; badly broken mutants would otherwise
    /// produce unbounded lists).
    pub violations: Vec<String>,
}

/// Cap on recorded violation strings; the count would otherwise be unbounded
/// for badly broken mutants.
const MAX_RECORDED: usize = 8;

impl ModelReport {
    /// Whether the full schedule space was explored without violations.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Exhaustively explores every interleaving of `threads` model threads
/// (`1..=MAX_THREADS`) with the given faulty set against `mutation`.
pub fn explore(threads: usize, faulty_mask: u32, mutation: Mutation) -> ModelReport {
    assert!(
        (1..=MAX_THREADS).contains(&threads),
        "model supports 1..={MAX_THREADS} threads"
    );
    let mut report = ModelReport {
        threads,
        faulty_mask,
        mutation,
        schedules: 0,
        violations: Vec::new(),
    };
    let state = State {
        pc: [Pc::Lookup; MAX_THREADS],
        got: [false; MAX_THREADS],
        slot: SlotState::Empty,
        started: 0,
        panics: 0,
        succeeded: 0,
    };
    let mut trace = Vec::new();
    dfs(&state, threads, faulty_mask, mutation, &mut trace, &mut report);
    report
}

/// Explores the *faithful* protocol over every faulty subset of every thread
/// count up to `max_threads`, in deterministic order.
pub fn verify_protocol(max_threads: usize) -> Vec<ModelReport> {
    let mut out = Vec::new();
    for threads in 1..=max_threads.min(MAX_THREADS) {
        for mask in 0..(1u32 << threads) {
            out.push(explore(threads, mask, Mutation::Faithful));
        }
    }
    out
}

fn enabled(state: &State, t: usize) -> bool {
    !matches!(state.pc[t], Pc::Waiting | Pc::Done | Pc::Dead)
}

fn dfs(
    state: &State,
    threads: usize,
    faulty_mask: u32,
    mutation: Mutation,
    trace: &mut Vec<usize>,
    report: &mut ModelReport,
) {
    // Safety property checked at *every* state, not just leaves: the
    // adaptation closure must never run concurrently with itself.
    let adapting = (0..threads).filter(|&t| state.pc[t] == Pc::Adapt).count();
    if adapting > 1 {
        report.schedules += 1;
        record(report, format!("concurrent adaptation ({adapting} threads) after {trace:?}"));
        return; // the branch is already broken; counting deeper leaves adds noise
    }

    let runnable: Vec<usize> = (0..threads).filter(|&t| enabled(state, t)).collect();
    if runnable.is_empty() {
        report.schedules += 1;
        check_terminal(state, threads, faulty_mask, trace, report);
        return;
    }
    for &t in &runnable {
        let mut next = state.clone();
        step(&mut next, t, faulty_mask, mutation);
        trace.push(t);
        dfs(&next, threads, faulty_mask, mutation, trace, report);
        trace.pop();
    }
}

/// Executes thread `t`'s next atomic step.
fn step(state: &mut State, t: usize, faulty_mask: u32, mutation: Mutation) {
    let faulty = faulty_mask & (1 << t) != 0;
    state.pc[t] = match state.pc[t] {
        Pc::Lookup => match state.slot {
            SlotState::Ready => {
                state.got[t] = true;
                Pc::Done
            }
            SlotState::InFlight => Pc::Waiting,
            SlotState::Empty => {
                if mutation == Mutation::SplitCheckClaim {
                    // Broken variant: the claim happens under a second lock
                    // acquisition, leaving a window for a racing claim.
                    Pc::Claim
                } else {
                    state.slot = SlotState::InFlight;
                    Pc::Adapt
                }
            }
        },
        Pc::Claim => {
            state.slot = SlotState::InFlight;
            Pc::Adapt
        }
        Pc::Adapt => {
            state.started += 1;
            if faulty {
                state.panics += 1;
                Pc::PanicRelease
            } else {
                Pc::Publish
            }
        }
        Pc::Publish => {
            state.slot = SlotState::Ready;
            state.succeeded += 1;
            state.got[t] = true;
            if mutation == Mutation::SkipPublishNotify {
                Pc::Done
            } else {
                Pc::Notify
            }
        }
        Pc::Notify => {
            wake_all(state);
            Pc::Done
        }
        Pc::PanicRelease => {
            // `ClaimGuard::drop` removes the slot entry unconditionally.
            state.slot = SlotState::Empty;
            if mutation == Mutation::SkipPanicNotify {
                Pc::Dead
            } else {
                Pc::PanicNotify
            }
        }
        Pc::PanicNotify => {
            wake_all(state);
            Pc::Dead
        }
        Pc::Waiting | Pc::Done | Pc::Dead => unreachable!("never scheduled"),
    };
}

fn wake_all(state: &mut State) {
    for pc in &mut state.pc {
        if *pc == Pc::Waiting {
            *pc = Pc::Lookup;
        }
    }
}

/// Asserts the terminal-state properties of one maximal schedule.
fn check_terminal(
    state: &State,
    threads: usize,
    faulty_mask: u32,
    trace: &[usize],
    report: &mut ModelReport,
) {
    let mut fail = |message: String| record(report, format!("{message} after {trace:?}"));

    if (0..threads).any(|t| state.pc[t] == Pc::Waiting) {
        fail("lost wakeup: thread(s) parked forever".to_string());
        return; // the remaining properties are meaningless in a wedged state
    }
    if state.succeeded > 1 {
        fail(format!("adaptation succeeded {} times (exactly-once violated)", state.succeeded));
    }
    if state.started != state.panics + state.succeeded {
        fail(format!(
            "{} adaptations started but {} completed (lost or duplicated work)",
            state.started,
            state.panics + state.succeeded
        ));
    }
    let any_healthy = (0..threads).any(|t| faulty_mask & (1 << t) == 0);
    if any_healthy && state.succeeded != 1 {
        fail(format!(
            "a healthy thread existed but the adaptation succeeded {} times",
            state.succeeded
        ));
    }
    let slot_matches = (state.slot == SlotState::Ready) == (state.succeeded == 1);
    if !slot_matches {
        fail(format!(
            "terminal slot {:?} inconsistent with {} successes",
            state.slot, state.succeeded
        ));
    }
    for t in 0..threads {
        let faulty = faulty_mask & (1 << t) != 0;
        match state.pc[t] {
            Pc::Done if !state.got[t] => {
                fail(format!("thread {t} returned without the model"));
            }
            Pc::Dead if !faulty => {
                fail(format!("healthy thread {t} unwound"));
            }
            Pc::Done | Pc::Dead => {}
            other => fail(format!("thread {t} finished in non-terminal state {other:?}")),
        }
    }
}

fn record(report: &mut ModelReport, message: String) {
    if report.violations.len() < MAX_RECORDED {
        report.violations.push(message);
    } else if report.violations.len() == MAX_RECORDED {
        report.violations.push("… further violations elided".to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_has_one_schedule_per_outcome() {
        let healthy = explore(1, 0b0, Mutation::Faithful);
        assert!(healthy.clean(), "{:?}", healthy.violations);
        assert_eq!(healthy.schedules, 1, "Lookup→Adapt→Publish→Notify is the only order");
        let faulty = explore(1, 0b1, Mutation::Faithful);
        assert!(faulty.clean(), "{:?}", faulty.violations);
        assert_eq!(faulty.schedules, 1);
    }

    #[test]
    fn faithful_protocol_is_clean_at_every_config() {
        for report in verify_protocol(MAX_THREADS) {
            assert!(
                report.clean(),
                "threads={} faulty={:#b}: {:?}",
                report.threads,
                report.faulty_mask,
                report.violations
            );
            assert!(report.schedules >= 1);
        }
    }

    #[test]
    fn split_check_claim_reintroduces_the_stampede() {
        let report = explore(2, 0b00, Mutation::SplitCheckClaim);
        assert!(!report.clean(), "the check-then-claim race must be caught");
        // The race shows up both as a duplicated success and, on other
        // schedules, as two threads inside the closure at once; the recorded
        // sample (capped at MAX_RECORDED) must contain at least one form.
        assert!(
            report.violations.iter().any(|v| v.contains("concurrent adaptation")
                || v.contains("exactly-once violated")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn missing_notifies_are_caught_as_lost_wakeups() {
        let publish = explore(2, 0b00, Mutation::SkipPublishNotify);
        assert!(
            publish.violations.iter().any(|v| v.contains("lost wakeup")),
            "{:?}",
            publish.violations
        );
        let panic = explore(2, 0b01, Mutation::SkipPanicNotify);
        assert!(
            panic.violations.iter().any(|v| v.contains("lost wakeup")),
            "{:?}",
            panic.violations
        );
    }
}
