"""Reliability primitives: retry policy, fault injection, failure taxonomy.

The serving stack's robustness story lives in three places — the journal
design store (:mod:`repro.store.journal`), the supervised resolver
pool (:mod:`repro.serve.pool`) and the tier-by-tier degradation path in
:class:`repro.serve.Frontend` — but the *policies* they share live here:

:class:`RetryPolicy` / :func:`call_with_retry`
    Bounded attempts with deterministic exponential backoff and seeded
    jitter, plus an exception allowlist.  Store lock acquisition and the
    serve-tier fallback both consume this one policy type, so retry
    behaviour is configured in one place instead of inline constants.

:class:`FaultPlan` / :class:`FaultInjector`
    Deterministic, seedable chaos: I/O errors, lock timeouts, worker
    kills, torn journal writes, corrupt records and slow store operations
    are all *decided* by hashing ``(seed, site, context)`` — the same plan
    replays the same faults every run, which is what makes the chaos test
    suite and the CI chaos job reproducible instead of flaky.
"""

from repro.reliability.faults import FaultInjector, FaultPlan, InjectedCrash
from repro.reliability.retry import RetryError, RetryPolicy, call_with_retry

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "InjectedCrash",
    "RetryError",
    "RetryPolicy",
    "call_with_retry",
]
