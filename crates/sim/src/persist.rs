//! [`Persist`] codecs for the simulation kernel's snapshot types.
//!
//! These are the leaves of every device checkpoint: virtual-time values,
//! RNG state, resource timelines, token buckets and latency
//! distributions. Each codec round-trips losslessly
//! (`decode(encode(x)) == x`) and rejects malformed bytes with a typed
//! [`DecodeError`] — the foundation the on-disk checkpoint format
//! (`uc-persist` records) is built on.

use crate::{
    LatencyDist, ParallelResourceSnapshot, RngSnapshot, SimDuration, SimRng, SimTime,
    TokenBucketSnapshot,
};
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

impl Persist for SimRng {
    fn encode(&self, w: &mut Encoder) {
        self.snapshot().encode(w);
    }
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(SimRng::restore(RngSnapshot::decode(r)?))
    }
}

persist_struct! { RngSnapshot { seed, state } }
persist_struct! { ParallelResourceSnapshot { servers }, check = check_servers }
persist_struct! {
    TokenBucketSnapshot { burst, rate_per_sec, available, last, granted_total },
    check = check_bucket
}

/// `ParallelResource::restore` requires at least one server; reject here
/// so decoding never yields a panic-on-use value.
fn check_servers(s: &ParallelResourceSnapshot) -> Result<(), DecodeError> {
    ensure(!s.servers.is_empty(), "ParallelResourceSnapshot.servers")
}

fn check_bucket(s: &TokenBucketSnapshot) -> Result<(), DecodeError> {
    ensure(
        s.burst > 0.0 && s.burst.is_finite(),
        "TokenBucketSnapshot.burst",
    )?;
    ensure(
        s.rate_per_sec > 0.0 && s.rate_per_sec.is_finite(),
        "TokenBucketSnapshot.rate_per_sec",
    )
}

persist_enum! {
    LatencyDist {
        0 = Constant(v), 1 = Uniform { low, high }, 2 = Normal { mean, std_dev },
        3 = LogNormal { median, sigma }, 4 = BoundedPareto { scale, shape, cap },
        5 = Mixture { base, tail, tail_prob }
    }
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
        round_trip(rng.snapshot());
        let mut w = Encoder::new();
        rng.encode(&mut w);
        let bytes = w.into_bytes();
        let mut back = SimRng::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(back.next_u64(), rng.next_u64());
    }

    #[test]
    fn resource_snapshots_round_trip() {
        let mut res = crate::Resource::new();
        res.acquire(SimTime::ZERO, SimDuration::from_micros(9));
        round_trip(res.snapshot());

        let mut pool = crate::ParallelResource::new(3);
        pool.acquire(SimTime::ZERO, SimDuration::from_micros(5));
        round_trip(pool.snapshot());
    }

    #[test]
    fn empty_server_pool_rejected() {
        let mut w = Encoder::new();
        Vec::<SimTime>::new().encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            ParallelResourceSnapshot::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue {
                what: "ParallelResourceSnapshot.servers"
            })
        );
    }

    #[test]
    fn token_bucket_round_trips_and_validates() {
        let mut bucket = crate::TokenBucket::new(1000.0, 5e6);
        bucket.reserve(SimTime::ZERO, 300);
        round_trip(bucket.snapshot());

        let mut bad = bucket.snapshot();
        bad.rate_per_sec = f64::NAN;
        let mut w = Encoder::new();
        bad.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            TokenBucketSnapshot::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue {
                what: "TokenBucketSnapshot.rate_per_sec"
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
    fn unknown_dist_tag_is_typed() {
        assert_eq!(
            LatencyDist::decode(&mut Decoder::new(&[99])),
            Err(DecodeError::InvalidValue {
                what: "LatencyDist tag"
            })
        );
    }
}
