//! Token-bucket rate limiting.

use crate::{SimDuration, SimTime};
use uc_invariant::{ensure, Contract, Violation};

/// A deterministic token bucket.
///
/// This is the mechanism behind the elastic SSD's *throughput budget* and
/// *IOPS budget* (Observation 4 of the paper): tokens refill at a constant
/// `rate` up to a `burst` capacity, and a request for `n` tokens is granted
/// at the earliest instant at which `n` tokens have accumulated. Grants are
/// committed in call order, so callers must invoke [`TokenBucket::reserve`]
/// with non-decreasing `now` values (the closed-loop drivers in
/// `uc-workload` guarantee this).
///
/// # Example
///
/// ```
/// use uc_sim::{SimDuration, SimTime, TokenBucket};
///
/// // 1000 tokens/s, burst of 100 tokens.
/// let mut tb = TokenBucket::new(100.0, 1000.0);
/// let g1 = tb.reserve(SimTime::ZERO, 100); // burst absorbed instantly
/// let g2 = tb.reserve(SimTime::ZERO, 100); // must wait for refill
/// assert_eq!(g1, SimTime::ZERO);
/// assert_eq!(g2, SimTime::ZERO + SimDuration::from_millis(100));
/// ```
#[derive(Debug, Clone)]
pub struct TokenBucket {
    pub(crate) burst: f64,
    pub(crate) rate_per_sec: f64,
    pub(crate) available: f64,
    pub(crate) last: SimTime,
    pub(crate) granted_total: u64,
}

impl TokenBucket {
    /// Creates a bucket that starts full.
    ///
    /// `burst` is the bucket capacity in tokens; `rate_per_sec` is the refill
    /// rate in tokens per second.
    ///
    /// # Panics
    ///
    /// Panics if `burst <= 0` or `rate_per_sec <= 0`, or either is non-finite.
    pub fn new(burst: f64, rate_per_sec: f64) -> Self {
        assert!(
            burst > 0.0 && burst.is_finite(),
            "token bucket burst must be positive and finite"
        );
        assert!(
            rate_per_sec > 0.0 && rate_per_sec.is_finite(),
            "token bucket rate must be positive and finite"
        );
        TokenBucket {
            burst,
            rate_per_sec,
            available: burst,
            last: SimTime::ZERO,
            granted_total: 0,
        }
    }

    /// The refill rate in tokens per second.
    pub fn rate(&self) -> f64 {
        self.rate_per_sec
    }

    /// The burst capacity in tokens.
    pub fn burst(&self) -> f64 {
        self.burst
    }

    /// Total tokens granted since construction or [`TokenBucket::reset`].
    pub fn granted_total(&self) -> u64 {
        self.granted_total
    }

    /// Changes the refill rate from `now` onward.
    ///
    /// Accrued tokens are first settled at the old rate. Used by provider
    /// throttle policies that flow-limit a tenant mid-run (Figure 3,
    /// ESSD-1's post-5.1 TB behaviour in the paper).
    pub fn set_rate(&mut self, now: SimTime, rate_per_sec: f64) {
        assert!(
            rate_per_sec > 0.0 && rate_per_sec.is_finite(),
            "token bucket rate must be positive and finite"
        );
        self.settle(now);
        self.rate_per_sec = rate_per_sec;
    }

    /// Grants `tokens` at the earliest possible instant `>= now`;
    /// returns that instant and debits the bucket.
    ///
    /// Requests larger than the burst capacity are granted at the instant
    /// the *full* amount has flowed (the bucket cannot hold it at once, so
    /// the grant time is paced by the refill rate alone).
    pub fn reserve(&mut self, now: SimTime, tokens: u64) -> SimTime {
        self.settle(now);
        self.granted_total += tokens;
        let need = tokens as f64;
        if need <= self.available {
            self.available -= need;
            return self.last;
        }
        let deficit = need - self.available;
        let wait = SimDuration::from_secs_f64(deficit / self.rate_per_sec);
        self.available = 0.0;
        let grant = self.last + wait;
        self.last = grant;

        // Contract hook (O(1)): a deferred grant drains the bucket exactly
        // — never below zero — and keeps the accrual clock at the grant.
        uc_invariant::enforce(|| {
            ensure!(
                self,
                "deferred-grant-drains-exactly",
                self.available == 0.0 && self.last == grant,
                "deferred grant left {} tokens, clock {:?} vs grant {:?}",
                self.available,
                self.last,
                grant
            );
            Ok(())
        });
        grant
    }

    /// The earliest instant at which `tokens` could be granted, without
    /// committing the grant.
    pub fn peek(&self, now: SimTime, tokens: u64) -> SimTime {
        let mut copy = self.clone();
        copy.reserve(now, tokens)
    }

    /// Refills the bucket to full and forgets grant history.
    pub fn reset(&mut self, now: SimTime) {
        self.available = self.burst;
        self.last = now;
        self.granted_total = 0;
    }

    /// Advances the accrual clock to `max(now, last)`.
    fn settle(&mut self, now: SimTime) {
        if now > self.last {
            let dt = (now - self.last).as_secs_f64();
            self.available = (self.available + dt * self.rate_per_sec).min(self.burst);
            self.last = now;
        }
        // Contract hook (O(1)): refill clamps at burst, never negative.
        uc_invariant::debug_check(self);
    }
}

/// Conservation audit for the token bucket: tokens never go negative,
/// never exceed the burst capacity, and the configuration stays sane. O(1).
impl Contract for TokenBucket {
    fn contract_name(&self) -> &'static str {
        "uc-sim/TokenBucket"
    }

    fn check(&self) -> Result<(), Violation> {
        ensure!(
            self,
            "burst-positive-finite",
            self.burst > 0.0 && self.burst.is_finite(),
            "burst is {}",
            self.burst
        );
        ensure!(
            self,
            "rate-positive-finite",
            self.rate_per_sec > 0.0 && self.rate_per_sec.is_finite(),
            "rate is {}",
            self.rate_per_sec
        );
        ensure!(
            self,
            "no-negative-balance",
            self.available >= 0.0,
            "available balance is {}",
            self.available
        );
        ensure!(
            self,
            "balance-within-burst",
            self.available <= self.burst,
            "available {} exceeds burst capacity {}",
            self.available,
            self.burst
        );
        ensure!(
            self,
            "balance-finite",
            self.available.is_finite(),
            "available balance is {}",
            self.available
        );
        Ok(())
    }
}

/// An indexed set of per-tenant token buckets.
///
/// A fleet places many tenants on shared devices, each with its own
/// throughput budget; this is the container that keeps those budgets
/// together so they can be reserved against by tenant index, snapshotted
/// as one unit at a checkpoint boundary, and audited as one conservation
/// contract (every bucket sane, and the set-level grant ledger equal to
/// the sum of per-bucket grants — a lost or double-counted grant is a
/// structural violation, not a silent drift).
#[derive(Debug, Clone, Default)]
pub struct BucketSet {
    pub(crate) buckets: Vec<TokenBucket>,
    pub(crate) granted_total: u64,
}

impl BucketSet {
    /// An empty set.
    pub fn new() -> Self {
        BucketSet::default()
    }

    /// Appends a bucket, returning its index.
    pub fn push(&mut self, bucket: TokenBucket) -> usize {
        self.buckets.push(bucket);
        self.buckets.len() - 1
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// `true` if the set holds no buckets.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// The bucket at `index`.
    pub fn get(&self, index: usize) -> &TokenBucket {
        &self.buckets[index]
    }

    /// Grants `tokens` from bucket `index` at the earliest instant
    /// `>= now` (see [`TokenBucket::reserve`]), updating the set-level
    /// grant ledger.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn reserve(&mut self, index: usize, now: SimTime, tokens: u64) -> SimTime {
        let grant = self.buckets[index].reserve(now, tokens);
        self.granted_total += tokens;
        // Contract hook (O(1) amortized over the touched bucket): the
        // set-level ledger and the touched bucket stay mutually sane.
        uc_invariant::enforce(|| self.buckets[index].check());
        grant
    }

    /// Every bucket, mutably, in index order — for callers that reserve
    /// against disjoint buckets from several threads at once (a fleet
    /// epoch lends each device the buckets of its residents).
    ///
    /// Grants made here bypass the set-level ledger: the caller must
    /// [`credit`](Self::credit) their total before the next audit, or
    /// [`check`](Contract::check) reports `grant-ledger-conservation`.
    pub fn buckets_mut(&mut self) -> &mut [TokenBucket] {
        &mut self.buckets
    }

    /// Adds `tokens` granted through [`buckets_mut`](Self::buckets_mut)
    /// to the set-level grant ledger.
    pub fn credit(&mut self, tokens: u64) {
        self.granted_total += tokens;
    }

    /// Total tokens granted across every bucket since construction or
    /// the last decode.
    pub fn granted_total(&self) -> u64 {
        self.granted_total
    }
}

/// Conservation audit for the bucket set: every member bucket upholds its
/// own contract, and the set-level grant ledger equals the sum of
/// per-bucket grants. O(buckets).
impl Contract for BucketSet {
    fn contract_name(&self) -> &'static str {
        "uc-sim/BucketSet"
    }

    fn check(&self) -> Result<(), Violation> {
        for bucket in &self.buckets {
            bucket.check()?;
        }
        let sum: u64 = self.buckets.iter().map(TokenBucket::granted_total).sum();
        ensure!(
            self,
            "grant-ledger-conservation",
            sum == self.granted_total,
            "per-bucket grants sum to {sum} but the set ledger holds {}",
            self.granted_total
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::thaw;
    use uc_persist::Persist;

    #[test]
    fn burst_is_granted_instantly() {
        let mut tb = TokenBucket::new(1000.0, 100.0);
        assert_eq!(tb.reserve(SimTime::ZERO, 1000), SimTime::ZERO);
    }

    #[test]
    fn sustained_rate_matches_refill() {
        // 1 MB/s; ask for 10 x 1 MB back to back: last grant at ~9 s
        // (the first MB rides the initial burst).
        let mut tb = TokenBucket::new(1e6, 1e6);
        let mut grant = SimTime::ZERO;
        for _ in 0..10 {
            grant = tb.reserve(SimTime::ZERO, 1_000_000);
        }
        let secs = grant.as_secs_f64();
        assert!((secs - 9.0).abs() < 1e-6, "grant at {secs}s");
    }

    #[test]
    fn oversized_request_is_paced_by_rate() {
        let mut tb = TokenBucket::new(100.0, 1000.0);
        // 1100 tokens: 100 from the burst + 1000 refilled over 1 s.
        let g = tb.reserve(SimTime::ZERO, 1100);
        assert!((g.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn idle_time_refills_up_to_burst() {
        let mut tb = TokenBucket::new(100.0, 100.0);
        tb.reserve(SimTime::ZERO, 100);
        // Wait 10 s: bucket refills but clamps at burst = 100.
        let later = SimTime::ZERO + SimDuration::from_secs(10);
        assert_eq!(tb.reserve(later, 100), later);
        let g = tb.reserve(later, 100);
        assert!(g > later, "second burst must wait");
    }

    #[test]
    fn set_rate_takes_effect_for_future_grants() {
        let mut tb = TokenBucket::new(1.0, 1000.0);
        tb.reserve(SimTime::ZERO, 1); // drain burst
        tb.set_rate(SimTime::ZERO, 10.0);
        let g = tb.reserve(SimTime::ZERO, 10);
        assert!((g.as_secs_f64() - 1.0).abs() < 1e-3, "10 tokens at 10/s");
    }

    #[test]
    fn peek_does_not_commit() {
        let tb = TokenBucket::new(100.0, 100.0);
        let p1 = tb.peek(SimTime::ZERO, 100);
        let p2 = tb.peek(SimTime::ZERO, 100);
        assert_eq!(p1, p2);
    }

    #[test]
    fn granted_total_accumulates() {
        let mut tb = TokenBucket::new(100.0, 100.0);
        tb.reserve(SimTime::ZERO, 40);
        tb.reserve(SimTime::ZERO, 2);
        assert_eq!(tb.granted_total(), 42);
        tb.reset(SimTime::ZERO);
        assert_eq!(tb.granted_total(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = TokenBucket::new(1.0, 0.0);
    }

    #[test]
    fn snapshot_restore_preserves_grant_schedule() {
        let mut a = TokenBucket::new(100.0, 1000.0);
        a.reserve(SimTime::ZERO, 80);
        a.set_rate(SimTime::ZERO + SimDuration::from_millis(1), 500.0);
        let mut b = thaw(&a);
        assert_eq!(b.to_bytes(), a.to_bytes(), "round trip is lossless");
        assert_eq!(b.rate(), a.rate());
        let now = SimTime::ZERO + SimDuration::from_millis(2);
        for tokens in [10, 200, 45] {
            assert_eq!(a.reserve(now, tokens), b.reserve(now, tokens));
        }
        assert_eq!(a.granted_total(), b.granted_total());
    }

    #[test]
    fn bucket_set_grants_independently_per_index() {
        let mut set = BucketSet::new();
        assert!(set.is_empty());
        let slow = set.push(TokenBucket::new(100.0, 100.0));
        let fast = set.push(TokenBucket::new(100.0, 100_000.0));
        assert_eq!((slow, fast, set.len()), (0, 1, 2));
        // Drain both bursts, then ask again: only the slow tenant waits.
        set.reserve(slow, SimTime::ZERO, 100);
        set.reserve(fast, SimTime::ZERO, 100);
        let g_slow = set.reserve(slow, SimTime::ZERO, 100);
        let g_fast = set.reserve(fast, SimTime::ZERO, 100);
        assert!(g_slow > g_fast, "budgets are isolated per tenant");
        assert_eq!(set.granted_total(), 400);
        assert_eq!(set.check(), Ok(()));
    }

    #[test]
    fn bucket_set_snapshot_restore_preserves_schedules_and_ledger() {
        let mut set = BucketSet::new();
        set.push(TokenBucket::new(50.0, 1000.0));
        set.push(TokenBucket::new(200.0, 500.0));
        set.reserve(0, SimTime::ZERO, 80);
        set.reserve(1, SimTime::ZERO, 150);
        let mut thawed = thaw(&set);
        assert_eq!(thawed.granted_total(), set.granted_total());
        assert_eq!(thawed.check(), Ok(()));
        let now = SimTime::ZERO + SimDuration::from_millis(3);
        for idx in [0usize, 1, 0] {
            assert_eq!(set.reserve(idx, now, 40), thawed.reserve(idx, now, 40));
        }
    }

    #[test]
    fn bucket_set_ledger_violation_is_reported() {
        let mut set = BucketSet::new();
        set.push(TokenBucket::new(10.0, 10.0));
        set.reserve(0, SimTime::ZERO, 5);
        // Corrupt the ledger the way a lost grant would.
        set.granted_total += 1;
        let v = set.check().unwrap_err();
        assert_eq!(v.invariant, "grant-ledger-conservation");
        assert_eq!(v.contract, "uc-sim/BucketSet");
    }

    #[test]
    fn direct_grants_must_be_credited_to_the_ledger() {
        let mut set = BucketSet::new();
        set.push(TokenBucket::new(100.0, 100.0));
        set.push(TokenBucket::new(100.0, 100.0));
        set.reserve(0, SimTime::ZERO, 10);
        // A grant through the disjoint view, credited: the audit holds.
        set.buckets_mut()[1].reserve(SimTime::ZERO, 30);
        set.credit(30);
        assert_eq!(set.check(), Ok(()));
        assert_eq!(set.granted_total(), 40);
        // The same grant with its credit dropped is caught.
        set.buckets_mut()[0].reserve(SimTime::ZERO, 20);
        let v = set.check().unwrap_err();
        assert_eq!(v.invariant, "grant-ledger-conservation");
        assert_eq!(v.contract, "uc-sim/BucketSet");
    }
}
