//! [`Persist`] codecs for the network layer's stateful types.

use crate::{HostStack, NetConfig, NetPath};
use uc_persist::{ensure, persist_struct, DecodeError};

persist_struct! { NetConfig { one_way, stream_bytes_per_sec, connections }, check = check_config }
persist_struct! { NetPath { config, lanes } }
persist_struct! { HostStack { per_io, workers } }

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
    use uc_persist::Persist;
    use uc_sim::{LatencyDist, SimDuration, SimRng, SimTime};

    /// Asserts `value` decodes back from its bytes to the same bytes.
    fn round_trip<T: Persist>(value: T) {
        let bytes = value.to_bytes();
        assert_eq!(T::from_bytes(&bytes).expect("decodes").to_bytes(), bytes);
    }

    #[test]
    fn busy_path_and_stack_round_trip() {
        let mut rng = SimRng::new(5);
        let mut path = NetPath::new(NetConfig::intra_dc().with_connections(4));
        for _ in 0..8 {
            path.send(SimTime::ZERO, 500_000, &mut rng);
        }
        round_trip(path);

        let mut stack = HostStack::new(2, LatencyDist::constant(SimDuration::from_micros(10)));
        stack.process(SimTime::ZERO, &mut rng);
        round_trip(stack);
    }

    #[test]
    fn invalid_config_values_are_typed() {
        let mut path = NetPath::new(NetConfig::intra_dc());
        path.config.stream_bytes_per_sec = -1.0;
        assert_eq!(
            NetPath::from_bytes(&path.to_bytes()).map(drop),
            Err(DecodeError::InvalidValue {
                what: "NetConfig.stream_bytes_per_sec"
            })
        );
    }
}
