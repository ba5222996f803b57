//! [`Persist`] codecs for the simulation kernel's stateful types.
//!
//! These are the leaves of every device checkpoint: virtual-time values,
//! RNG state, resource timelines, token buckets and latency
//! distributions. Each live type is its own checkpoint: its codec writes
//! exactly the fields it holds, round-trips losslessly, and rejects
//! malformed bytes with a typed [`DecodeError`] — the foundation the
//! on-disk checkpoint format (`uc-persist` records) is built on.

use crate::{
    BucketSet, LatencyDist, ParallelResource, Resource, SimDuration, SimRng, SimTime, TokenBucket,
};
use uc_invariant::Contract;
use uc_persist::{ensure, persist_enum, persist_struct, DecodeError, Decoder, Encoder, Persist};

impl Persist for SimTime {
    fn encode(&self, w: &mut Encoder) {
        w.put_u64(self.as_nanos());
    }
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(SimTime::from_nanos(r.get_u64()?))
    }
}

impl Persist for SimDuration {
    fn encode(&self, w: &mut Encoder) {
        w.put_u64(self.as_nanos());
    }
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(SimDuration::from_nanos(r.get_u64()?))
    }
}

persist_struct! { SimRng { seed, state } }
persist_struct! {
    TokenBucket { burst, rate_per_sec, available, last, granted_total },
    check = check_bucket
}

/// A resource is the instant it becomes idle.
impl Persist for Resource {
    fn encode(&self, w: &mut Encoder) {
        self.busy_until.encode(w);
    }
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Resource {
            busy_until: SimTime::decode(r)?,
        })
    }
}

/// The servers' free-at instants in ascending order, as the station
/// holds them; the capacity is their count.
impl Persist for ParallelResource {
    fn encode(&self, w: &mut Encoder) {
        w.put_u64(self.servers.len() as u64);
        for t in &self.servers {
            t.encode(w);
        }
    }
    /// Empty pools fail typed; well-formed bytes listing the servers out
    /// of order are sorted, since equal stations only differ in order.
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let mut servers = Vec::<SimTime>::decode(r)?;
        ensure(!servers.is_empty(), "ParallelResourceSnapshot.servers")?;
        servers.sort_unstable();
        Ok(ParallelResource {
            capacity: servers.len(),
            servers: servers.into(),
        })
    }
}

/// The buckets in index order; the set-level ledger is their sum, so a
/// decoded set always satisfies its own conservation contract.
impl Persist for BucketSet {
    fn encode(&self, w: &mut Encoder) {
        self.buckets.encode(w);
    }
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let buckets = Vec::<TokenBucket>::decode(r)?;
        let granted_total = buckets
            .iter()
            .try_fold(0u64, |sum, b| sum.checked_add(b.granted_total))
            .ok_or(DecodeError::InvalidValue {
                what: "BucketSet.granted_total",
            })?;
        Ok(BucketSet {
            buckets,
            granted_total,
        })
    }
}

/// A decoded bucket passes its own [`Contract`]: sane configuration and
/// a finite balance within `[0, burst]`. The failed invariant names the
/// rejected value.
fn check_bucket(s: &TokenBucket) -> Result<(), DecodeError> {
    s.check()
        .map_err(|v| DecodeError::InvalidValue { what: v.invariant })
}

persist_enum! {
    LatencyDist {
        0 = Constant(v), 1 = Uniform { low, high }, 2 = Normal { mean, std_dev },
        3 = LogNormal { median, sigma }, 4 = BoundedPareto { scale, shape, cap },
        5 = Mixture { base, tail, tail_prob }
    },
    check = check_dist
}

/// A uniform range must not be empty: `sample` draws from `[low, high]`.
fn check_dist(d: &LatencyDist) -> Result<(), DecodeError> {
    ensure(
        !matches!(d, LatencyDist::Uniform { low, high } if low > high),
        "LatencyDist.Uniform",
    )
}

/// `value` encoded and decoded back, as a resumed run gets it.
#[cfg(test)]
pub(crate) fn thaw<T: Persist>(value: &T) -> T {
    T::from_bytes(&value.to_bytes()).expect("decodes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(value: T) -> T {
        let mut w = Encoder::new();
        value.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let back = T::decode(&mut r).expect("decodes");
        r.finish().expect("fully consumed");
        assert_eq!(back, value);
        back
    }

    #[test]
    fn time_types_round_trip() {
        round_trip(SimTime::from_nanos(123_456_789));
        round_trip(SimTime::MAX);
        round_trip(SimDuration::from_micros(42));
    }

    #[test]
    fn rng_round_trip_continues_the_stream() {
        let mut rng = SimRng::new(77);
        for _ in 0..13 {
            rng.next_u64();
        }
        let mut back = round_trip(rng.clone());
        assert_eq!(back.next_u64(), rng.next_u64());
    }

    #[test]
    fn resource_snapshots_round_trip() {
        let mut res = Resource::new();
        res.acquire(SimTime::ZERO, SimDuration::from_micros(9));
        assert_eq!(thaw(&res).free_at(), res.free_at());
        assert_eq!(thaw(&res).to_bytes(), res.to_bytes());

        let mut pool = ParallelResource::new(3);
        pool.acquire(SimTime::ZERO, SimDuration::from_micros(5));
        assert_eq!(thaw(&pool).to_bytes(), pool.to_bytes());
    }

    #[test]
    fn empty_server_pool_rejected() {
        let mut w = Encoder::new();
        Vec::<SimTime>::new().encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            ParallelResource::decode(&mut Decoder::new(&bytes)).map(|p| p.capacity()),
            Err(DecodeError::InvalidValue {
                what: "ParallelResourceSnapshot.servers"
            })
        );
    }

    #[test]
    fn token_bucket_round_trips_and_validates() {
        let mut bucket = TokenBucket::new(1000.0, 5e6);
        bucket.reserve(SimTime::ZERO, 300);
        assert_eq!(thaw(&bucket).to_bytes(), bucket.to_bytes());

        let mut bad = bucket.clone();
        bad.rate_per_sec = f64::NAN;
        let bytes = bad.to_bytes();
        assert_eq!(
            TokenBucket::decode(&mut Decoder::new(&bytes)).map(|b| b.rate()),
            Err(DecodeError::InvalidValue {
                what: "rate-positive-finite"
            })
        );
    }

    #[test]
    fn crafted_bucket_balances_fail_typed() {
        let bucket = TokenBucket::new(1000.0, 5e6);
        for (available, what) in [
            (f64::NAN, "no-negative-balance"),
            (-1.0, "no-negative-balance"),
            (1001.0, "balance-within-burst"),
        ] {
            let bytes = TokenBucket {
                available,
                ..bucket.clone()
            }
            .to_bytes();
            assert_eq!(
                TokenBucket::from_bytes(&bytes).map(|b| b.burst()),
                Err(DecodeError::InvalidValue { what }),
                "available = {available}"
            );
        }
    }

    #[test]
    fn bucket_set_ledger_overflow_is_typed() {
        let mut bucket = TokenBucket::new(10.0, 10.0);
        bucket.granted_total = u64::MAX;
        let bytes = vec![bucket.clone(), bucket].to_bytes();
        assert_eq!(
            BucketSet::from_bytes(&bytes).map(|s| s.len()),
            Err(DecodeError::InvalidValue {
                what: "BucketSet.granted_total"
            })
        );
    }

    #[test]
    fn every_dist_variant_round_trips() {
        let us = SimDuration::from_micros;
        for dist in [
            LatencyDist::constant(us(5)),
            LatencyDist::uniform(us(1), us(9)),
            LatencyDist::normal(us(50), us(5)),
            LatencyDist::lognormal(us(100), 0.4),
            LatencyDist::bounded_pareto(us(10), 1.5, us(10_000)),
            LatencyDist::lognormal(us(50), 0.25)
                .with_tail(LatencyDist::bounded_pareto(us(500), 1.2, us(5000)), 0.001),
        ] {
            round_trip(dist);
        }
    }

    #[test]
    fn nested_mixtures_are_bounded() {
        // Three levels of tails round-trip.
        let us = SimDuration::from_micros;
        let tail = |base: LatencyDist, prob| {
            base.with_tail(LatencyDist::bounded_pareto(us(500), 1.2, us(5000)), prob)
        };
        round_trip(tail(
            tail(tail(LatencyDist::lognormal(us(50), 0.25), 0.01), 0.001),
            0.0001,
        ));
        // A megabyte of `Mixture` tags fails typed instead of recursing
        // once per tag until the stack overflows.
        assert_eq!(
            LatencyDist::decode(&mut Decoder::new(&[5; 1 << 20])),
            Err(DecodeError::InvalidValue {
                what: "nesting depth"
            })
        );
    }

    #[test]
    fn crafted_uniform_ranges_fail_typed_or_sample() {
        let uniform = |low: u64, high: u64| {
            let mut w = Encoder::new();
            w.put_u8(1);
            w.put_u64(low);
            w.put_u64(high);
            w.into_bytes()
        };
        // An inverted range would panic in the first `sample`.
        assert_eq!(
            LatencyDist::from_bytes(&uniform(9, 3)),
            Err(DecodeError::InvalidValue {
                what: "LatencyDist.Uniform"
            })
        );
        // A range ending at the last nanosecond decodes: `sample`
        // saturates its exclusive end instead of overflowing.
        let open_ended = LatencyDist::from_bytes(&uniform(3, u64::MAX)).expect("decodes");
        let mut rng = SimRng::new(1);
        assert!(open_ended.sample(&mut rng) >= SimDuration::from_nanos(3));
        // An inverted range nested in a mixture fails the same way.
        let mut w = Encoder::new();
        w.put_u8(5);
        w.put_raw(&uniform(9, 3));
        w.put_raw(&uniform(3, u64::MAX));
        w.put_f64(0.5);
        assert_eq!(
            LatencyDist::from_bytes(&w.into_bytes()),
            Err(DecodeError::InvalidValue {
                what: "LatencyDist.Uniform"
            })
        );
    }

    #[test]
    fn unknown_dist_tag_is_typed() {
        assert_eq!(
            LatencyDist::decode(&mut Decoder::new(&[99])),
            Err(DecodeError::InvalidValue {
                what: "LatencyDist tag"
            })
        );
    }
}
