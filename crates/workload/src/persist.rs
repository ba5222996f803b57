//! [`Persist`] codecs for the workload layer: job specifications,
//! reports, and the paused jobs themselves.
//!
//! The two resumable jobs are their own durable checkpoints: with the
//! device's own persisted checkpoint, a paused [`ClosedLoopJob`] (written
//! as its [`DriverCheckpoint`]) or [`TraceReplayJob`] is everything a
//! crashed fig3 or trace process needs to continue exactly where it was
//! killed.

use crate::driver::{DriverCore, InflightIo};
use crate::{
    AccessPattern, ClosedLoopJob, DriverCheckpoint, JobLimit, JobReport, JobSpec, ReplayConfig,
    ReplayMode, TraceEntry, TraceReplayJob,
};
use uc_persist::{ensure, persist_enum, persist_struct, DecodeError, Decoder, Encoder, Persist};

persist_enum! {
    AccessPattern {
        0 = RandRead, 1 = RandWrite, 2 = SeqRead, 3 = SeqWrite, 4 = Mixed { write_ratio, random },
        5 = Hotspot { hot_fraction, hot_probability, write_ratio }
    }
}

persist_enum! { JobLimit { 0 = Ios(n), 1 = Bytes(n), 2 = Elapsed(d) } }

persist_struct! {
    JobSpec { pattern, io_size, queue_depth, span, limit, seed, throughput_window, start },
    check = check_spec
}
persist_struct! {
    JobReport {
        latency, read_latency, write_latency, throughput, write_throughput, ios, bytes, started_at,
        finished_at
    }
}
persist_struct! { InflightIo { completes, submitted, kind, len } }
persist_struct! { TraceEntry { at, kind, offset, len } }

fn check_spec(spec: &JobSpec) -> Result<(), DecodeError> {
    ensure(
        spec.io_size != 0 && spec.queue_depth != 0,
        "JobSpec io_size/queue_depth",
    )
}

persist_enum! { ReplayMode { 0 = OpenLoop, 1 = ClosedLoop { queue_depth } }, check = check_mode }

persist_struct! { ReplayConfig { mode, window, speed, ring }, check = check_replay }
persist_struct! { DriverCheckpoint { spec, span, stream, report, inflight, finished } }

/// A closed-loop job persists as its [`DriverCheckpoint`].
impl Persist for ClosedLoopJob {
    fn encode(&self, w: &mut Encoder) {
        self.checkpoint().encode(w);
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        DriverCheckpoint::decode(r).map(ClosedLoopJob::resume)
    }
}

/// A replay persists its config, position, report, in-flight requests in
/// canonical schedule order, and finished flag.
impl Persist for TraceReplayJob {
    fn encode(&self, w: &mut Encoder) {
        self.config.encode(w);
        self.position.encode(w);
        self.report.encode(w);
        self.core.inflight().encode(w);
        self.core.finished.encode(w);
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let config = ReplayConfig::decode(r)?;
        Ok(TraceReplayJob {
            position: usize::decode(r)?,
            report: JobReport::decode(r)?,
            core: DriverCore::resume(config.mode, config.ring, Vec::decode(r)?, bool::decode(r)?),
            config,
        })
    }
}

fn check_mode(mode: &ReplayMode) -> Result<(), DecodeError> {
    ensure(
        !matches!(mode, ReplayMode::ClosedLoop { queue_depth: 0 }),
        "ReplayMode queue_depth",
    )
}

fn check_replay(config: &ReplayConfig) -> Result<(), DecodeError> {
    ensure(
        config.speed.is_finite()
            && config.speed > 0.0
            && config.ring != 0
            && !config.window.is_zero(),
        "ReplayConfig window/speed/ring",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdev::TestDevice;
    use uc_blockdev::IoKind;
    use uc_sim::{SimDuration, SimTime};

    fn round_trip_driver(checkpoint: &DriverCheckpoint) -> DriverCheckpoint {
        let mut w = Encoder::new();
        checkpoint.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let back = DriverCheckpoint::decode(&mut r).unwrap();
        r.finish().unwrap();
        back
    }

    #[test]
    fn paused_driver_checkpoint_round_trips_and_continues() {
        let spec = JobSpec::new(
            AccessPattern::Mixed {
                write_ratio: 0.5,
                random: true,
            },
            4096,
            6,
        )
        .with_byte_limit(300 * 4096)
        .with_seed(123);
        let mut dev = TestDevice::new(9, 2);
        let mut job = ClosedLoopJob::start(&mut dev, &spec).unwrap();
        job.run_until(&mut dev, 80 * 4096).unwrap();
        let checkpoint = job.checkpoint();
        let back = round_trip_driver(&checkpoint);
        assert_eq!(back.spec, checkpoint.spec);
        assert_eq!(back.span, checkpoint.span);
        assert_eq!(back.inflight, checkpoint.inflight);
        assert_eq!(back.finished, checkpoint.finished);
        assert_eq!(back.report.ios, checkpoint.report.ios);
        assert_eq!(back.report.bytes, checkpoint.report.bytes);

        // The straight continuation and the decoded continuation finish
        // with byte-identical reports.
        let mut dev_b = TestDevice::new(9, 2);
        let mut dev_c = TestDevice::new(9, 2);
        // Devices are stateful; replay the prefix schedule into both by
        // resuming from equal checkpoints (the test device's relevant
        // state is entirely in the driver's virtual-time bookkeeping).
        let mut straight = ClosedLoopJob::resume(checkpoint);
        let mut decoded = ClosedLoopJob::resume(back);
        straight.run_until(&mut dev_b, u64::MAX).unwrap();
        decoded.run_until(&mut dev_c, u64::MAX).unwrap();
        assert_eq!(straight.report().ios, decoded.report().ios);
        assert_eq!(straight.report().finished_at, decoded.report().finished_at);
        assert_eq!(
            straight.report().latency.mean(),
            decoded.report().latency.mean()
        );
    }

    #[test]
    fn every_pattern_and_limit_round_trips() {
        let patterns = [
            AccessPattern::RandRead,
            AccessPattern::RandWrite,
            AccessPattern::SeqRead,
            AccessPattern::SeqWrite,
            AccessPattern::Mixed {
                write_ratio: 0.3,
                random: false,
            },
            AccessPattern::Hotspot {
                hot_fraction: 0.1,
                hot_probability: 0.9,
                write_ratio: 0.5,
            },
        ];
        for pattern in patterns {
            let mut w = Encoder::new();
            pattern.encode(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(
                AccessPattern::decode(&mut Decoder::new(&bytes)),
                Ok(pattern)
            );
        }
        for limit in [
            JobLimit::Ios(5),
            JobLimit::Bytes(1 << 30),
            JobLimit::Elapsed(SimDuration::from_millis(3)),
        ] {
            let mut w = Encoder::new();
            limit.encode(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(JobLimit::decode(&mut Decoder::new(&bytes)), Ok(limit));
        }
    }

    #[test]
    fn replay_checkpoint_round_trips_and_continues() {
        use crate::Trace;
        let trace = Trace::bursty_writes(4, 9, SimDuration::from_millis(1), 4096, 4 << 20, 11);
        let config = ReplayConfig::closed_loop(5).with_speed(2.0);
        let mut dev = TestDevice::new(9, 2);
        let mut job = TraceReplayJob::start(&dev, &trace, &config).unwrap();
        job.run_until(&mut dev, &trace, 15).unwrap();

        let mut w = Encoder::new();
        job.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let back = TraceReplayJob::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.config(), job.config());
        assert_eq!(back.position(), job.position());
        assert_eq!(back.core.inflight(), job.core.inflight());
        assert_eq!(back.is_finished(), job.is_finished());

        // The decoded continuation finishes byte-identically.
        let mut dev_a = TestDevice::new(9, 2);
        let mut dev_b = TestDevice::new(9, 2);
        let mut straight = job;
        let mut decoded = back;
        straight.run_until(&mut dev_a, &trace, usize::MAX).unwrap();
        decoded.run_until(&mut dev_b, &trace, usize::MAX).unwrap();
        assert_eq!(straight.report().ios, decoded.report().ios);
        assert_eq!(straight.report().finished_at, decoded.report().finished_at);
        assert_eq!(
            straight.report().latency.mean(),
            decoded.report().latency.mean()
        );
    }

    #[test]
    fn trace_entry_and_replay_config_round_trip() {
        use crate::ReplayMode;
        let entry = TraceEntry {
            at: SimTime::from_nanos(12345),
            kind: IoKind::Write,
            offset: 1 << 20,
            len: 8192,
        };
        let mut w = Encoder::new();
        entry.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(TraceEntry::decode(&mut Decoder::new(&bytes)), Ok(entry));

        for config in [
            ReplayConfig::open_loop(),
            ReplayConfig::closed_loop(7)
                .with_speed(12.5)
                .with_window(SimDuration::from_millis(7))
                .with_ring(3),
        ] {
            let mut w = Encoder::new();
            config.encode(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(ReplayConfig::decode(&mut Decoder::new(&bytes)), Ok(config));
        }
        // Corrupt configs are typed, not panics.
        let mut w = Encoder::new();
        ReplayConfig::open_loop().encode(&mut w);
        let mut bytes = w.into_bytes();
        // speed is the f64 after mode tag (1) + window (8).
        bytes[9..17].fill(0);
        assert!(matches!(
            ReplayConfig::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue { .. })
        ));
        let mut w = Encoder::new();
        w.put_u8(9); // unknown mode tag
        let bytes = w.into_bytes();
        assert!(matches!(
            ReplayMode::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue { .. })
        ));
    }

    #[test]
    fn invalid_spec_fields_are_typed() {
        let spec = JobSpec::new(AccessPattern::RandRead, 4096, 4);
        let mut w = Encoder::new();
        spec.encode(&mut w);
        let mut bytes = w.into_bytes();
        // io_size is the 4 bytes right after the 1-byte pattern tag.
        bytes[1..5].fill(0);
        assert!(matches!(
            JobSpec::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue {
                what: "JobSpec io_size/queue_depth"
            })
        ));
    }
}
