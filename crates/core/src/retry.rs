//! Client-side retry/timeout/backoff, implemented once for every
//! interface layer.
//!
//! Real DAOS clients (and the POSIX/Ceph baselines) survive transient
//! faults — an engine that crashed and was excluded, an RPC that timed
//! out during a brownout — by retrying against a refreshed pool map with
//! exponential backoff.  This module is the single implementation of
//! that machinery: a [`RetryPolicy`] describing the bounds, a
//! [`RetryExec`] that applies it to any fallible operation returning a
//! cost [`Step`], and a [`Retriable`] classification trait implemented
//! by each layer's error type.
//!
//! Determinism: backoff jitter comes from a seeded
//! [`SplitMix64`](simkit::SplitMix64) stream owned by the executor, and
//! "time" spent waiting is charged as [`Step::delay`] *prepended to the
//! successful attempt's op chain* — the simulated schedule, and hence
//! the replay digest, depends only on the seed and the failure plan.
//! In this simulator a failed attempt surfaces synchronously from pool
//! state, so the per-op timeout is not a detection mechanism: it is the
//! simulated time the client spent waiting before declaring the attempt
//! dead, charged to the penalty delay.
//!
//! The retry loop counts attempts against `max_attempts` and returns the
//! failing match arm's own error on every exit path (no held-then-
//! unwrapped "last error"); the `unguarded-retry-loop` simlint rule
//! rejects unbounded `loop`/`while` retry constructs anywhere in the
//! workspace.

use simkit::{SimTime, SplitMix64, Step, Telemetry};

/// Classification of an error as transient (worth retrying) or terminal.
pub trait Retriable {
    /// True when a retry against refreshed state could succeed.
    fn is_retriable(&self) -> bool;
}

/// Bounds on the retry machinery.  [`RetryPolicy::none`] — a single
/// attempt, no waiting — is the default everywhere, so layers that never
/// configure a policy behave exactly as before.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per operation (first try included); minimum 1.
    pub max_attempts: u32,
    /// Simulated time a failed attempt costs before the client gives up
    /// on it (RPC timeout).
    pub op_timeout_ns: u64,
    /// Base backoff before retry `n` (doubles each retry).
    pub backoff_base_ns: u64,
    /// Ceiling on a single backoff wait.
    pub backoff_cap_ns: u64,
    /// Multiplicative jitter amplitude on each backoff (0.0 = none,
    /// 0.25 = uniform in `[0.75, 1.25]×`), drawn from the executor's
    /// seeded stream.
    pub jitter: f64,
    /// Consecutive failed attempts that open the circuit breaker; while
    /// open, each operation gets a single fail-fast probe and the first
    /// success closes it again.
    pub circuit_break_after: u32,
}

impl RetryPolicy {
    /// Single attempt, no timeout charge, no backoff: behaviourally
    /// identical to calling the operation directly.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            op_timeout_ns: 0,
            backoff_base_ns: 0,
            backoff_cap_ns: 0,
            jitter: 0.0,
            circuit_break_after: u32::MAX,
        }
    }

    /// True when this policy can never change an operation's behaviour.
    pub fn is_none(&self) -> bool {
        self.max_attempts <= 1
    }
}

impl Default for RetryPolicy {
    /// The faulted-scenario policy: 4 attempts, 2 ms op timeout, 250 µs
    /// base backoff capped at 4 ms with ±25 % jitter, circuit break
    /// after 8 consecutive failures.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            op_timeout_ns: 2_000_000,
            backoff_base_ns: 250_000,
            backoff_cap_ns: 4_000_000,
            jitter: 0.25,
            circuit_break_after: 8,
        }
    }
}

/// Counters accumulated by a [`RetryExec`] across operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Attempts issued (first tries included).
    pub attempts: u64,
    /// Re-issued attempts (attempts minus first tries).
    pub retries: u64,
    /// Failed attempts that charged the op timeout.
    pub timeouts: u64,
    /// Times the circuit breaker opened.
    pub circuit_opens: u64,
    /// Operations that exhausted their attempts on retriable errors.
    pub gave_up: u64,
}

impl RetryStats {
    /// Fold another executor's counters into this one (per-layer
    /// aggregation in reports).
    pub fn merge(&mut self, other: &RetryStats) {
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.circuit_opens += other.circuit_opens;
        self.gave_up += other.gave_up;
    }

    /// Publish the counters into a telemetry registry as `daos.retry.*`
    /// totals recorded at `at`.  The per-window *time series* of retry
    /// activity already flows through the engine's span-open counters
    /// (`span.retry.backoff`); this records the authoritative end-of-run
    /// totals — including circuit-breaker opens and exhausted ops, which
    /// never surface as spans — in the same registry the run report and
    /// SLO rules read.  No-op on a disabled registry.
    pub fn publish(&self, tel: &mut Telemetry, at: SimTime) {
        tel.add_counters(
            at,
            [
                ("daos.retry.attempts", self.attempts),
                ("daos.retry.retries", self.retries),
                ("daos.retry.timeouts", self.timeouts),
                ("daos.retry.circuit_opens", self.circuit_opens),
                ("daos.retry.gave_up", self.gave_up),
            ],
        );
    }
}

/// Applies a [`RetryPolicy`] to fallible operations, accumulating
/// [`RetryStats`] and the deterministic backoff stream.
#[derive(Debug, Clone)]
pub struct RetryExec {
    policy: RetryPolicy,
    rng: SplitMix64,
    stats: RetryStats,
    consecutive_failures: u32,
    circuit_open: bool,
}

impl RetryExec {
    /// Executor with `policy`; `seed` drives the backoff jitter stream.
    pub fn new(policy: RetryPolicy, seed: u64) -> RetryExec {
        RetryExec {
            policy,
            rng: SplitMix64::new(seed ^ 0x7e7a_11c3),
            stats: RetryStats::default(),
            consecutive_failures: 0,
            circuit_open: false,
        }
    }

    /// Passthrough executor ([`RetryPolicy::none`]).
    pub fn disabled() -> RetryExec {
        RetryExec::new(RetryPolicy::none(), 0)
    }

    /// The policy in effect.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Counters so far.
    pub fn stats(&self) -> &RetryStats {
        &self.stats
    }

    /// True while the circuit breaker is open (fail-fast probing).
    pub fn circuit_open(&self) -> bool {
        self.circuit_open
    }

    /// Backoff before retry number `retry` (1-based): jittered
    /// `min(cap, base × 2^(retry-1))`.
    fn backoff_ns(&mut self, retry: u32) -> u64 {
        let base = self.policy.backoff_base_ns;
        if base == 0 {
            return 0;
        }
        let exp = base
            .saturating_mul(1u64 << (retry - 1).min(32))
            .min(self.policy.backoff_cap_ns.max(base));
        (exp as f64 * self.rng.jitter(self.policy.jitter)) as u64
    }

    fn note_failure(&mut self) {
        self.consecutive_failures += 1;
        if !self.circuit_open && self.consecutive_failures >= self.policy.circuit_break_after {
            self.circuit_open = true;
            self.stats.circuit_opens += 1;
        }
    }

    fn note_success(&mut self) {
        self.consecutive_failures = 0;
        self.circuit_open = false;
    }

    /// Run `op` under the policy.  Retriable failures are re-attempted up
    /// to `max_attempts` times (one fail-fast probe while the circuit is
    /// open); each failed attempt charges the op timeout plus a jittered
    /// exponential backoff, prepended as a delay to the successful
    /// attempt's op chain.  Terminal errors and exhausted retries return
    /// the last error.
    pub fn run<T, E: Retriable>(
        &mut self,
        mut op: impl FnMut() -> Result<(T, Step), E>,
    ) -> Result<(T, Step), E> {
        let allowed = if self.circuit_open {
            1
        } else {
            self.policy.max_attempts.max(1)
        };
        let mut penalty_ns: u64 = 0;
        let mut attempt: u32 = 0;
        // Every exit path owns its error: the terminal return hands back
        // the match's own `e`, so there is no held-then-unwrapped
        // `last_err` and no panicking extraction on any path.
        loop {
            self.stats.attempts += 1;
            if attempt > 0 {
                self.stats.retries += 1;
            }
            match op() {
                Ok((value, step)) => {
                    self.note_success();
                    // Retried work is wrapped in a retry span carrying the
                    // attempt ordinal, so traces show the timeout/backoff
                    // penalty and the re-issued op under the originating
                    // span (retry storms become visible in the tree).
                    let step = if penalty_ns > 0 {
                        Step::span_attempt(
                            "retry",
                            "backoff",
                            0,
                            attempt,
                            Step::delay(SimTime::from_nanos(penalty_ns)).then(step),
                        )
                    } else {
                        step
                    };
                    return Ok((value, step));
                }
                Err(e) => {
                    self.note_failure();
                    if !e.is_retriable() {
                        return Err(e);
                    }
                    self.stats.timeouts += 1;
                    penalty_ns = penalty_ns
                        .saturating_add(self.policy.op_timeout_ns)
                        .saturating_add(self.backoff_ns(attempt + 1));
                    attempt += 1;
                    if attempt == allowed || self.circuit_open {
                        self.stats.gave_up += 1;
                        return Err(e);
                    }
                }
            }
        }
    }

    /// [`RetryExec::run`] for operations that return only a [`Step`].
    pub fn run_step<E: Retriable>(
        &mut self,
        mut op: impl FnMut() -> Result<Step, E>,
    ) -> Result<Step, E> {
        self.run(|| op().map(|s| ((), s))).map(|((), s)| s)
    }
}

impl Retriable for crate::DaosError {
    fn is_retriable(&self) -> bool {
        // BadChecksum is transient in principle — a scrub repair or a
        // rewrite may heal the extent between attempts — and when
        // nothing heals it the retry budget exhausts and the failure
        // surfaces loudly; bad bytes are never served either way.
        use crate::DaosError as E;
        match self {
            E::Timeout | E::TargetDown | E::BadChecksum | E::Retriable => true,
            E::NoSuchContainer
            | E::NoSuchObject
            | E::WrongObjectType
            | E::InvalidClass
            | E::Unavailable
            | E::NoSuchKey => false,
        }
    }
}

impl Retriable for cluster::posix::FsError {
    fn is_retriable(&self) -> bool {
        // `Unavailable` is the transient face of a POSIX-layer fault
        // (OST down, FUSE channel saturated); everything else is a
        // namespace/semantic error retries cannot fix.
        matches!(self, cluster::posix::FsError::Unavailable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Leaf;

    #[derive(Debug, PartialEq)]
    enum E {
        Transient,
        Fatal,
    }
    impl Retriable for E {
        fn is_retriable(&self) -> bool {
            matches!(self, E::Transient)
        }
    }

    fn flaky(failures: u32) -> impl FnMut() -> Result<(u32, Step), E> {
        let mut left = failures;
        move || {
            if left > 0 {
                left -= 1;
                Err(E::Transient)
            } else {
                Ok((7, Step::delay(SimTime(10))))
            }
        }
    }

    fn total_delay_ns(step: &Step) -> u64 {
        step.leaves()
            .map(|leaf| match leaf {
                Leaf::Delay(d) => d.as_nanos(),
                Leaf::Transfer { .. } => 0,
            })
            .sum()
    }

    #[test]
    fn none_policy_is_passthrough() {
        let mut x = RetryExec::disabled();
        assert_eq!(x.run(flaky(0)).unwrap().0, 7);
        assert_eq!(x.run(flaky(1)).unwrap_err(), E::Transient);
        assert_eq!(x.stats().retries, 0);
        assert_eq!(x.stats().attempts, 2);
    }

    #[test]
    fn retries_until_success_and_charges_penalty() {
        let mut x = RetryExec::new(RetryPolicy::default(), 42);
        let (v, step) = x.run(flaky(2)).unwrap();
        assert_eq!(v, 7);
        assert_eq!(x.stats().attempts, 3);
        assert_eq!(x.stats().retries, 2);
        assert_eq!(x.stats().timeouts, 2);
        assert_eq!(x.stats().gave_up, 0);
        // two failed attempts: 2 × op timeout + two backoffs ≥ base
        let penalty = total_delay_ns(&step) - 10;
        assert!(
            penalty >= 2 * 2_000_000 + 2 * (250_000 * 3 / 4),
            "{penalty}"
        );
    }

    #[test]
    fn exhaustion_returns_last_error_and_counts_gave_up() {
        let mut x = RetryExec::new(RetryPolicy::default(), 1);
        assert_eq!(x.run(flaky(100)).unwrap_err(), E::Transient);
        assert_eq!(x.stats().attempts, 4);
        assert_eq!(x.stats().gave_up, 1);
    }

    #[test]
    fn fatal_errors_short_circuit() {
        let mut x = RetryExec::new(RetryPolicy::default(), 1);
        let r: Result<(u32, Step), E> = x.run(|| Err(E::Fatal));
        assert_eq!(r.unwrap_err(), E::Fatal);
        assert_eq!(x.stats().attempts, 1);
        assert_eq!(x.stats().retries, 0);
    }

    #[test]
    fn circuit_opens_then_probes_then_closes() {
        let policy = RetryPolicy {
            max_attempts: 2,
            circuit_break_after: 4,
            ..RetryPolicy::default()
        };
        let mut x = RetryExec::new(policy, 9);
        // two operations × two failed attempts = 4 consecutive failures
        assert!(x.run(flaky(100)).is_err());
        assert!(x.run(flaky(100)).is_err());
        assert!(x.circuit_open());
        assert_eq!(x.stats().circuit_opens, 1);
        // while open: single fail-fast probe per operation
        let before = x.stats().attempts;
        assert!(x.run(flaky(100)).is_err());
        assert_eq!(x.stats().attempts, before + 1);
        // a success closes it
        assert_eq!(x.run(flaky(0)).unwrap().0, 7);
        assert!(!x.circuit_open());
        assert_eq!(x.stats().circuit_opens, 1, "no reopen without failures");
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let run = |seed| {
            let mut x = RetryExec::new(RetryPolicy::default(), seed);
            let (_, step) = x.run(flaky(3)).unwrap();
            total_delay_ns(&step)
        };
        assert_eq!(run(5), run(5), "same seed, same schedule");
        assert_ne!(run(5), run(6), "jitter streams differ by seed");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let mut x = RetryExec::new(policy, 0);
        assert_eq!(x.backoff_ns(1), 250_000);
        assert_eq!(x.backoff_ns(2), 500_000);
        assert_eq!(x.backoff_ns(3), 1_000_000);
        assert_eq!(x.backoff_ns(10), 4_000_000, "capped");
    }

    #[test]
    fn daos_error_classification() {
        use crate::DaosError;
        assert!(DaosError::Timeout.is_retriable());
        assert!(DaosError::TargetDown.is_retriable());
        assert!(DaosError::Retriable.is_retriable());
        assert!(
            DaosError::BadChecksum.is_retriable(),
            "a scrub repair may heal the extent between attempts"
        );
        assert!(!DaosError::Unavailable.is_retriable(), "data loss is final");
        assert!(!DaosError::NoSuchKey.is_retriable());
    }
}
