//! [`Persist`] codecs for the network-layer snapshot types.

use crate::{HostStackSnapshot, NetConfig, NetPathSnapshot};
use uc_persist::{ensure, persist_struct, DecodeError};

persist_struct! { NetConfig { one_way, stream_bytes_per_sec, connections }, check = check_config }
persist_struct! { NetPathSnapshot { config, lanes } }
persist_struct! { HostStackSnapshot { per_io, workers } }

fn check_config(c: &NetConfig) -> Result<(), DecodeError> {
    ensure(
        c.stream_bytes_per_sec > 0.0 && c.stream_bytes_per_sec.is_finite(),
        "NetConfig.stream_bytes_per_sec",
    )?;
    ensure(c.connections != 0, "NetConfig.connections")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HostStack, NetPath};
    use uc_persist::{Decoder, Encoder, Persist};
    use uc_sim::{LatencyDist, SimDuration, SimRng, SimTime};

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(value: T) {
        let mut w = Encoder::new();
        value.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let back = T::decode(&mut r).expect("decodes");
        r.finish().expect("fully consumed");
        assert_eq!(back, value);
    }

    #[test]
    fn busy_path_and_stack_round_trip() {
        let mut rng = SimRng::new(5);
        let mut path = NetPath::new(NetConfig::intra_dc().with_connections(4));
        for _ in 0..8 {
            path.send(SimTime::ZERO, 500_000, &mut rng);
        }
        round_trip(path.snapshot());

        let mut stack = HostStack::new(2, LatencyDist::constant(SimDuration::from_micros(10)));
        stack.process(SimTime::ZERO, &mut rng);
        round_trip(stack.snapshot());
    }

    #[test]
    fn invalid_config_values_are_typed() {
        let mut snapshot = NetPath::new(NetConfig::intra_dc()).snapshot();
        snapshot.config.stream_bytes_per_sec = -1.0;
        let mut w = Encoder::new();
        snapshot.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            NetPathSnapshot::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue {
                what: "NetConfig.stream_bytes_per_sec"
            })
        );
    }
}
