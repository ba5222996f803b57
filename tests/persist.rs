//! Facade-level tests of the on-disk checkpoint format: a table-driven
//! corruption sweep over every record codec, and round-trip property
//! tests on raw device checkpoints.
//!
//! The contract under test is the persistence layer's half of the
//! crash-resume story: *any* corrupted, truncated or
//! version-mismatched checkpoint file decodes to a **typed error** —
//! never a panic, never silently-wrong state — and every intact record
//! round-trips losslessly.

use proptest::prelude::*;
use std::path::PathBuf;
use unwritten_contract::blockdev::{CheckpointDevice, DeviceCheckpoint};
use unwritten_contract::core::devices::{payload_codecs, DeviceKind, DeviceRoster};
use unwritten_contract::core::experiments::fig3::{self, Fig3Config};
use unwritten_contract::core::experiments::trace::{self as trace_exp, TraceRunConfig};
use unwritten_contract::core::experiments::{
    Chain, DurableRecord, Fig3Checkpoint, SlicedChain, SlicedCheckpoint, Slicing,
    TraceRunCheckpoint,
};
use unwritten_contract::essd::{Essd, EssdCheckpoint, EssdConfig};
use unwritten_contract::persist::{DecodeError, Decoder, Encoder, Persist};
use unwritten_contract::prelude::*;
use unwritten_contract::ssd::SsdCheckpoint;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("uc-facade-persist-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A busy SSD checkpoint (write-buffer, prefetcher and FTL state all
/// populated).
fn busy_ssd() -> Ssd {
    let mut ssd = Ssd::new(SsdConfig::samsung_970_pro(256 << 20));
    let mut now = SimTime::ZERO;
    let mut state = 5u64;
    for _ in 0..64 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let off = (state % 2048) * 4096;
        let req = if state.is_multiple_of(3) {
            unwritten_contract::blockdev::IoRequest::read(off, 4096, now)
        } else {
            unwritten_contract::blockdev::IoRequest::write(off, 8192, now)
        };
        now = ssd.submit(&req).unwrap();
    }
    ssd
}

/// A busy ESSD checkpoint (network lanes, cluster nodes, token buckets).
fn busy_essd() -> Essd {
    let mut essd = Essd::new(EssdConfig::aws_io2(128 << 20));
    let mut now = SimTime::ZERO;
    for i in 0..32u64 {
        let off = (i % 100) * (1 << 20);
        now = essd
            .submit(&unwritten_contract::blockdev::IoRequest::write(
                off,
                1 << 20,
                now,
            ))
            .unwrap();
    }
    essd
}

/// `chain`'s checkpoint after its first step.
fn after_one_step<S: Slicing>(chain: &SlicedChain<'_, S>) -> SlicedCheckpoint<S> {
    let mut run = chain.start().unwrap();
    chain.advance(&mut run).unwrap();
    chain.checkpoint(&run)
}

/// A mid-run fig3 segment checkpoint.
fn fig3_checkpoint() -> Fig3Checkpoint {
    let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
    after_one_step(&fig3::chain(
        &roster,
        DeviceKind::Essd2,
        &Fig3Config::quick(),
        4,
    ))
}

/// A non-trivial `uc.trace.v1` trace.
fn sample_trace() -> unwritten_contract::workload::Trace {
    unwritten_contract::workload::Trace::bursty_writes(
        4,
        9,
        SimDuration::from_millis(1),
        8192,
        8 << 20,
        0x7ACE,
    )
}

/// A mid-run trace-phase checkpoint (device + paused replay driver).
fn trace_run_checkpoint(replay: ReplayConfig) -> TraceRunCheckpoint {
    let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
    let trace = sample_trace();
    let cfg = TraceRunConfig::open_loop(3).with_replay(replay);
    after_one_step(&trace_exp::chain(&roster, DeviceKind::Essd1, &trace, &cfg))
}

/// A populated `uc.obs.v1` telemetry record: counters, gauges and
/// histograms in the snapshot, plus a flight tail that has wrapped.
fn obs_report() -> unwritten_contract::obs::ObsReport {
    use unwritten_contract::obs::{FlightRecorder, MetricsRegistry, ObsReport};
    let mut reg = MetricsRegistry::new();
    let ios = reg.counter("ftl.host_pages_written");
    let depth = reg.gauge("essd.lane0.queue_depth");
    let lat = reg.hist("fleet.tenant_latency_ns");
    reg.add(ios, 4096);
    reg.set(depth, -3);
    for i in 1..=100u64 {
        reg.record(lat, SimDuration::from_micros(i));
    }
    let mut flight = FlightRecorder::new(4);
    for i in 0..6u64 {
        flight.record(
            SimTime::from_nanos(i * 100),
            format!("epoch-barrier e={i}"),
            i,
            i * 2,
        );
    }
    ObsReport::capture(&reg, &flight)
}

/// A mid-run fleet epoch checkpoint (placement after a rebalance,
/// per-tenant state and every pool device's checkpoint).
fn fleet_checkpoint() -> unwritten_contract::core::experiments::FleetCheckpoint {
    use unwritten_contract::core::experiments::{Chain, FleetChain, FleetRunConfig};
    let mut config = FleetRunConfig::new(12, 3);
    config.fleet = config
        .fleet
        .with_duration(SimDuration::from_millis(8))
        .with_epochs(4)
        .with_seed(0xF1EE7)
        .with_rebalance(RebalancePolicy::default());
    let chain = FleetChain::new(&config);
    let mut sim = chain.start().unwrap();
    for _ in 0..2 {
        chain.advance(&mut sim).unwrap();
    }
    chain.checkpoint(&sim)
}

/// `(len, crc32)` of a payload's bytes.
fn fingerprint(bytes: &[u8]) -> (usize, u32) {
    (bytes.len(), unwritten_contract::persist::crc32(bytes))
}

/// Golden bytes: every checkpoint codec writes exactly the payload it
/// wrote when these constants were captured. A round trip would still
/// pass if encode and decode drifted together (a reordered field list,
/// a widened integer); this test would not. Changing a constant here
/// means the on-disk format changed and its record kind tag must be
/// bumped.
#[test]
fn checkpoint_payload_bytes_are_pinned() {
    let device = |checkpoint: DeviceCheckpoint| {
        let mut w = Encoder::new();
        checkpoint.encode_into(&mut w).unwrap();
        fingerprint(w.as_bytes())
    };
    fn record<R: DurableRecord>(record: &R) -> (usize, u32) {
        let mut w = Encoder::new();
        record.encode_into(&mut w).unwrap();
        fingerprint(w.as_bytes())
    }
    let mut w = Encoder::new();
    obs_report().encode(&mut w);
    // Closed loop, the paused driver holds requests in flight.
    let closed = trace_run_checkpoint(ReplayConfig::closed_loop(4).with_ring(3));
    assert!(!closed.driver.inflight.is_empty());
    let actual = [
        ("ssd", device(CheckpointDevice::checkpoint(&busy_ssd()))),
        ("essd", device(CheckpointDevice::checkpoint(&busy_essd()))),
        (
            "trace-run",
            record(&trace_run_checkpoint(ReplayConfig::open_loop())),
        ),
        ("trace-run-closed", record(&closed)),
        ("obs", fingerprint(w.as_bytes())),
        ("fig3", record(&fig3_checkpoint())),
        ("fleet", record(&fleet_checkpoint())),
    ];
    let golden = [
        // Same layout and kind tag as before; the SSD write buffer now
        // prunes drained pages at every write's firmware instant, so its
        // `resident`/`pending` lists are shorter (was 1_255_113 bytes).
        // Checkpoints with the longer lists still restore and continue
        // identically (`restore_from_unpruned_buffer_continues_identically`
        // in uc-ssd).
        ("ssd", (1_254_633, 0x4e6e_261c)),
        ("essd", (23_576, 0xcfdf_d224)),
        ("trace-run", (112_391, 0xb326_ac94)),
        ("trace-run-closed", (112_483, 0x9f9f_f66b)),
        ("obs", (426, 0x785f_7f81)),
        ("fig3", (107_434, 0x1095_87f7)),
        ("fleet", (437_076, 0xc8c6_6983)),
    ];
    assert_eq!(actual, golden);
}

/// Asserts `value` encodes to exactly `hex` (spaces between fields are
/// ignored) and decodes back to itself, consuming every byte.
fn pin<T: Persist + PartialEq + std::fmt::Debug>(value: T, hex: &str) {
    let mut w = Encoder::new();
    value.encode(&mut w);
    let actual: String = w.as_bytes().iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(actual, hex.replace(' ', ""), "{value:?}");
    let mut r = Decoder::new(w.as_bytes());
    assert_eq!(T::decode(&mut r).as_ref(), Ok(&value));
    r.finish().expect("fully consumed");
}

/// Asserts `bytes` (an out-of-range tag, or a tag whose fields fail a
/// check) decodes to [`DecodeError::InvalidValue`].
fn rejects<T: Persist + std::fmt::Debug>(bytes: &[u8]) {
    let result = T::decode(&mut Decoder::new(bytes));
    assert!(
        matches!(result, Err(DecodeError::InvalidValue { .. })),
        "{} from {bytes:02x?}: {result:?}",
        std::any::type_name::<T>()
    );
}

/// Golden bytes of every tagged enum: one value of each variant, its
/// tag byte followed by its fields in order, and the first tag past the
/// last variant rejected typed. Changing a string here changes a
/// checkpoint or wire format.
#[test]
fn every_enum_variant_bytes_are_pinned() {
    use unwritten_contract::blockdev::{IoError, IoKind};
    use unwritten_contract::ftl::GcPolicy;
    use unwritten_contract::obs::{HistSummary, MetricValue};
    use unwritten_contract::serve::{BusyReason, ErrCode, LaneTarget};
    use unwritten_contract::workload::{AccessPattern, JobLimit, ReplayMode};
    const ONE: &str = "0100000000000000";
    const TWO: &str = "0200000000000000";
    const THREE: &str = "0300000000000000";
    // 0.25, 0.5 and 1.5 as little-endian IEEE-754 bit patterns.
    const QUARTER: &str = "000000000000d03f";
    const HALF: &str = "000000000000e03f";
    const ONE_HALF: &str = "000000000000f83f";
    let ns = SimDuration::from_nanos;

    pin(IoKind::Read, "00");
    pin(IoKind::Write, "01");
    rejects::<IoKind>(&[2]);

    pin(IoError::ZeroLength, "00");
    pin(
        IoError::Misaligned {
            offset: 1,
            len: 2,
            logical_block: 3,
        },
        &format!("01 {ONE} 02000000 03000000"),
    );
    pin(
        IoError::OutOfRange {
            end: 2,
            capacity: 3,
        },
        &format!("02 {TWO} {THREE}"),
    );
    pin(
        IoError::RingSaturated {
            ring: 6,
            refusals: 7,
        },
        "03 06000000 07000000",
    );
    rejects::<IoError>(&[4]);

    pin(BusyReason::RingFull, "00");
    pin(BusyReason::Overload, "01");
    rejects::<BusyReason>(&[2]);

    pin(LaneTarget::Device(1), "00 01000000");
    pin(LaneTarget::Tenant(2), "01 02000000");
    rejects::<LaneTarget>(&[2, 0, 0, 0, 0]);

    pin(ErrCode::Protocol, "00");
    pin(
        ErrCode::UnsupportedVersion {
            found: 1,
            supported: 2,
        },
        "01 0100 0200",
    );
    pin(ErrCode::UnknownSession, "02");
    pin(ErrCode::UnknownLane, "03");
    pin(ErrCode::Io, "04");
    rejects::<ErrCode>(&[5]);

    pin(MetricValue::Counter(1), &format!("00 {ONE}"));
    pin(MetricValue::Gauge(-1), "01 ffffffffffffffff");
    pin(
        MetricValue::Histogram(HistSummary {
            count: 1,
            sum_ns: (2 << 64) | 3,
            min_ns: 4,
            max_ns: 5,
            p50_ns: 6,
            p99_ns: 7,
            p999_ns: 8,
        }),
        &format!(
            "02 {ONE} {TWO} {THREE} 0400000000000000 0500000000000000 0600000000000000 \
             0700000000000000 0800000000000000"
        ),
    );
    rejects::<MetricValue>(&[3]);

    pin(LatencyDist::Constant(ns(1)), &format!("00 {ONE}"));
    pin(
        LatencyDist::Uniform {
            low: ns(1),
            high: ns(2),
        },
        &format!("01 {ONE} {TWO}"),
    );
    pin(
        LatencyDist::Normal {
            mean: ns(2),
            std_dev: ns(3),
        },
        &format!("02 {TWO} {THREE}"),
    );
    pin(
        LatencyDist::LogNormal {
            median: ns(1),
            sigma: 0.5,
        },
        &format!("03 {ONE} {HALF}"),
    );
    pin(
        LatencyDist::BoundedPareto {
            scale: ns(1),
            shape: 1.5,
            cap: ns(3),
        },
        &format!("04 {ONE} {ONE_HALF} {THREE}"),
    );
    pin(
        LatencyDist::Mixture {
            base: Box::new(LatencyDist::Constant(ns(1))),
            tail: Box::new(LatencyDist::Uniform {
                low: ns(2),
                high: ns(3),
            }),
            tail_prob: 0.25,
        },
        &format!("05 00 {ONE} 01 {TWO} {THREE} {QUARTER}"),
    );
    rejects::<LatencyDist>(&[6]);
    rejects::<LatencyDist>(&[5, 6]);

    pin(GcPolicy::Greedy, "00");
    pin(GcPolicy::CostBenefit, "01");
    pin(GcPolicy::Fifo, "02");
    rejects::<GcPolicy>(&[3]);

    pin(AccessPattern::RandRead, "00");
    pin(AccessPattern::RandWrite, "01");
    pin(AccessPattern::SeqRead, "02");
    pin(AccessPattern::SeqWrite, "03");
    pin(
        AccessPattern::Mixed {
            write_ratio: 0.5,
            random: true,
        },
        &format!("04 {HALF} 01"),
    );
    pin(
        AccessPattern::Hotspot {
            hot_fraction: 0.25,
            hot_probability: 0.5,
            write_ratio: 1.5,
        },
        &format!("05 {QUARTER} {HALF} {ONE_HALF}"),
    );
    rejects::<AccessPattern>(&[6]);

    pin(JobLimit::Ios(1), &format!("00 {ONE}"));
    pin(JobLimit::Bytes(2), &format!("01 {TWO}"));
    pin(JobLimit::Elapsed(ns(3)), &format!("02 {THREE}"));
    rejects::<JobLimit>(&[3]);

    pin(ReplayMode::OpenLoop, "00");
    pin(
        ReplayMode::ClosedLoop { queue_depth: 2 },
        &format!("01 {TWO}"),
    );
    rejects::<ReplayMode>(&[2]);
    // A closed loop must keep at least one request in flight.
    rejects::<ReplayMode>(&[1, 0, 0, 0, 0, 0, 0, 0, 0]);

    pin(DeviceKind::LocalSsd, "00");
    pin(DeviceKind::Essd1, "01");
    pin(DeviceKind::Essd2, "02");
    rejects::<DeviceKind>(&[3]);
}

/// How a checkpoint file decodes: through the device-checkpoint reader,
/// the fig3 reader, the trace-run reader, the binary-trace decoder, or
/// the `uc.obs.v1` telemetry reader.
enum Reader {
    Device,
    Fig3,
    TraceRun,
    Trace,
    Obs,
}

impl Reader {
    fn load(&self, path: &std::path::Path) -> Result<(), DecodeError> {
        match self {
            Reader::Device => DeviceCheckpoint::load_from(path, &payload_codecs()).map(|_| ()),
            Reader::Fig3 => Fig3Checkpoint::load_from(path).map(|_| ()),
            Reader::Obs => unwritten_contract::obs::ObsReport::load_from(path).map(|_| ()),
            Reader::TraceRun => TraceRunCheckpoint::load_from(path).map(|_| ()),
            // The in-memory decoder checks the envelope CRC before any
            // entry, so every byte-level mutation lands on the same
            // typed error the other record codecs report. (The
            // streaming `TraceReader` is corruption-swept in its own
            // unit tests.)
            Reader::Trace => {
                let bytes = std::fs::read(path).map_err(|e| DecodeError::Io {
                    path: path.display().to_string(),
                    message: e.to_string(),
                })?;
                unwritten_contract::trace::decode_trace(&bytes)
                    .map(|_| ())
                    .map_err(|e| match e {
                        unwritten_contract::trace::TraceFileError::Decode(e) => e,
                        unwritten_contract::trace::TraceFileError::Invalid(_) => {
                            DecodeError::InvalidValue {
                                what: "trace entries",
                            }
                        }
                    })
            }
        }
    }
}

/// The corruption table of the CI acceptance criterion: every mutation
/// of every snapshot codec's record file must decode to the matching
/// typed error — no panics, no silent acceptance.
#[test]
fn corruption_table_over_every_record_codec() {
    let dir = temp_dir("corruption-table");

    let ssd_path = dir.join("ssd.ckpt");
    CheckpointDevice::checkpoint(&busy_ssd())
        .save_to(&ssd_path)
        .unwrap();
    let essd_path = dir.join("essd.ckpt");
    CheckpointDevice::checkpoint(&busy_essd())
        .save_to(&essd_path)
        .unwrap();
    let fig3_path = dir.join("fig3.ckpt");
    fig3_checkpoint().save_to(&fig3_path).unwrap();
    let trace_run_path = dir.join("trace-run.ckpt");
    trace_run_checkpoint(ReplayConfig::open_loop())
        .save_to(&trace_run_path)
        .unwrap();
    let trace_path = dir.join("t.trace");
    unwritten_contract::trace::save_trace(&trace_path, &sample_trace()).unwrap();
    let obs_path = dir.join("telemetry.obs");
    obs_report().save_to(&obs_path).unwrap();

    let files: [(&str, PathBuf, Reader); 6] = [
        ("ssd", ssd_path, Reader::Device),
        ("essd", essd_path, Reader::Device),
        ("fig3", fig3_path, Reader::Fig3),
        ("trace-run", trace_run_path, Reader::TraceRun),
        ("trace", trace_path, Reader::Trace),
        ("obs", obs_path, Reader::Obs),
    ];

    for (codec, path, reader) in &files {
        let good = std::fs::read(path).unwrap();
        // Intact file decodes cleanly.
        reader
            .load(path)
            .unwrap_or_else(|e| panic!("{codec}: intact file must load: {e}"));

        type Mutation = (
            &'static str,
            Box<dyn Fn(&[u8]) -> Vec<u8>>,
            fn(&DecodeError) -> bool,
        );
        let mutations: Vec<Mutation> = vec![
            (
                "truncated to half",
                Box::new(|b: &[u8]| b[..b.len() / 2].to_vec()),
                |e| matches!(e, DecodeError::Truncated { .. }),
            ),
            (
                "truncated to 4 bytes",
                Box::new(|b: &[u8]| b[..4].to_vec()),
                |e| matches!(e, DecodeError::BadMagic),
            ),
            (
                "last byte cut",
                Box::new(|b: &[u8]| b[..b.len() - 1].to_vec()),
                |e| matches!(e, DecodeError::Truncated { .. }),
            ),
            (
                "truncated mid-record",
                Box::new(|b: &[u8]| {
                    // Cut inside the payload proper (not at an arbitrary
                    // byte count): 8 magic + 2 version + (8 + kind tag) +
                    // 8-byte payload length, then half the payload.
                    let kind_len = u64::from_le_bytes(b[10..18].try_into().unwrap()) as usize;
                    let payload_start = 26 + kind_len;
                    let payload_len =
                        u64::from_le_bytes(b[18 + kind_len..payload_start].try_into().unwrap())
                            as usize;
                    b[..payload_start + payload_len / 2].to_vec()
                }),
                |e| matches!(e, DecodeError::Truncated { .. }),
            ),
            (
                "flipped bit in the payload length field",
                Box::new(|b: &[u8]| {
                    let kind_len = u64::from_le_bytes(b[10..18].try_into().unwrap()) as usize;
                    let mut v = b.to_vec();
                    // MSB of the little-endian u64 payload length: the
                    // decoder now wants ~2^63 bytes it does not have.
                    v[25 + kind_len] ^= 0x80;
                    v
                }),
                |e| matches!(e, DecodeError::Truncated { .. }),
            ),
            (
                "flipped bit in the kind length field",
                Box::new(|b: &[u8]| {
                    let mut v = b.to_vec();
                    // MSB of the kind-tag length at bytes 10..18.
                    v[17] ^= 0x80;
                    v
                }),
                |e| matches!(e, DecodeError::Truncated { .. }),
            ),
            (
                "flipped payload bit",
                Box::new(|b: &[u8]| {
                    let mut v = b.to_vec();
                    let mid = v.len() / 2;
                    v[mid] ^= 0x20;
                    v
                }),
                |e| matches!(e, DecodeError::ChecksumMismatch { .. }),
            ),
            (
                "flipped checksum byte",
                Box::new(|b: &[u8]| {
                    let mut v = b.to_vec();
                    let last = v.len() - 1;
                    v[last] ^= 0x01;
                    v
                }),
                |e| matches!(e, DecodeError::ChecksumMismatch { .. }),
            ),
            (
                "wrong magic",
                Box::new(|b: &[u8]| {
                    let mut v = b.to_vec();
                    v[..8].copy_from_slice(b"NOTACKPT");
                    v
                }),
                |e| matches!(e, DecodeError::BadMagic),
            ),
            (
                "future format version",
                Box::new(|b: &[u8]| {
                    let mut v = b.to_vec();
                    // The version is the u16 right after the 8-byte magic.
                    v[8] = 0xFF;
                    v[9] = 0xFF;
                    v
                }),
                |e| matches!(e, DecodeError::UnsupportedVersion { found: 0xFFFF, .. }),
            ),
            (
                "trailing junk",
                Box::new(|b: &[u8]| {
                    let mut v = b.to_vec();
                    v.extend_from_slice(b"junk");
                    v
                }),
                |e| matches!(e, DecodeError::TrailingBytes { count: 4 }),
            ),
            ("empty file", Box::new(|_: &[u8]| Vec::new()), |e| {
                matches!(e, DecodeError::BadMagic)
            }),
        ];

        for (mutation, mutate, expected) in &mutations {
            std::fs::write(path, mutate(&good)).unwrap();
            let err = reader
                .load(path)
                .expect_err(&format!("{codec}: {mutation} must fail to decode"));
            assert!(
                expected(&err),
                "{codec}: {mutation} decoded to unexpected error {err:?}"
            );
        }

        // Restore the intact bytes; the file must load again (the sweep
        // itself must not be destructive).
        std::fs::write(path, &good).unwrap();
        reader.load(path).unwrap();
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// One sample frame per `uc.wire.v2` kind, with every field populated
/// (session token, lane and seq in the shared header included).
fn sample_wire_frames() -> Vec<unwritten_contract::serve::Frame> {
    use unwritten_contract::blockdev::{Completion, IoKind, IoRequest, SessionStats};
    use unwritten_contract::serve::{
        Body, BusyReason, ErrCode, Frame, FrameHeader, LaneAck, LaneTarget, WireStats, WIRE_VERSION,
    };
    let control = |seq: u64| FrameHeader {
        session: 7,
        lane: 0,
        seq,
    };
    let data = FrameHeader {
        session: 7,
        lane: 1,
        seq: 3,
    };
    vec![
        Frame::new(
            FrameHeader::connection(),
            Body::Open {
                version: WIRE_VERSION,
            },
        ),
        Frame::new(FrameHeader::connection(), Body::OpenOk { token: 7 }),
        Frame::new(
            control(0),
            Body::Resume {
                acks: vec![LaneAck { lane: 1, seq: 2 }],
            },
        ),
        Frame::new(
            control(0),
            Body::ResumeOk {
                lanes: 2,
                replay: vec![LaneAck { lane: 1, seq: 3 }],
            },
        ),
        Frame::new(
            control(1),
            Body::Attach {
                target: LaneTarget::Tenant(5),
            },
        ),
        Frame::new(
            control(1),
            Body::AttachOk {
                lane: 1,
                name: "ESSD-1".to_string(),
                capacity: 2 << 30,
                logical_block: 512,
            },
        ),
        Frame::new(
            data,
            Body::Submit {
                reqs: vec![
                    IoRequest::write(0, 4096, SimTime::from_nanos(10)),
                    IoRequest::read(8192, 4096, SimTime::from_nanos(20)),
                ],
            },
        ),
        Frame::new(
            data,
            Body::Completions {
                completions: vec![Completion {
                    index: 0,
                    kind: IoKind::Write,
                    len: 4096,
                    submitted: SimTime::from_nanos(10),
                    completes: SimTime::from_nanos(110),
                }],
            },
        ),
        Frame::new(data, Body::PushOk { accepted: 512 }),
        Frame::new(
            data,
            Body::Busy {
                reason: BusyReason::RingFull,
            },
        ),
        Frame::new(data, Body::Stats),
        Frame::new(
            data,
            Body::StatsOk {
                stats: WireStats {
                    stats: SessionStats {
                        ios: 9,
                        bytes: 9 << 12,
                        clamped: 1,
                        last_submit: SimTime::from_nanos(20),
                    },
                    queue_head: SimTime::from_nanos(120),
                },
            },
        ),
        Frame::new(control(2), Body::Metrics),
        Frame::new(
            control(2),
            Body::MetricsOk {
                // A populated live-telemetry pull: counter, (negative)
                // gauge and histogram rows all cross the wire.
                snapshot: obs_report().snapshot,
            },
        ),
        Frame::new(data, Body::Flush { epoch: 1 }),
        Frame::new(data, Body::FlushOk { epoch: 1 }),
        Frame::new(data, Body::LaneMoved { to_device: 1 }),
        Frame::new(control(2), Body::Close),
        Frame::new(control(2), Body::CloseOk),
        Frame::new(
            control(2),
            Body::Err {
                code: ErrCode::Io,
                io: Some(unwritten_contract::blockdev::IoError::ZeroLength),
                message: "zero-length request".to_string(),
            },
        ),
    ]
}

/// The corruption table extended to the served frontend: every
/// `uc.wire.v2` frame kind, corrupted any way a hostile or failing peer
/// can produce, decodes to a **typed** error — truncation mid-frame,
/// flipped payload bits, wrong magic, future envelope versions and
/// foreign kind tags all close the connection typed; none panic the
/// server.
#[test]
fn corruption_table_over_every_wire_frame_kind() {
    use unwritten_contract::serve::{Frame, ALL_KINDS};

    let frames = sample_wire_frames();
    // The sample set covers the whole protocol, by construction.
    let mut kinds: Vec<&str> = frames.iter().map(|f| f.kind()).collect();
    kinds.sort_unstable();
    let mut all = ALL_KINDS.to_vec();
    all.sort_unstable();
    assert_eq!(kinds, all, "sample frames must cover every wire kind");

    for frame in &frames {
        let good = frame.encode();
        let kind = frame.kind();

        // Intact frame round-trips off a stream, then clean EOF.
        let mut stream = std::io::Cursor::new(good.clone());
        let back = Frame::read_from(&mut stream).unwrap().unwrap();
        assert_eq!(&back, frame, "{kind}: intact frame must round-trip");
        assert_eq!(
            Frame::read_from(&mut stream).unwrap(),
            None,
            "{kind}: a frame boundary is a clean EOF"
        );

        // Every strict prefix is a typed mid-frame truncation.
        for cut in 1..good.len() {
            let mut stream = std::io::Cursor::new(good[..cut].to_vec());
            let err = Frame::read_from(&mut stream)
                .expect_err(&format!("{kind}: truncation at byte {cut} must fail"));
            assert!(
                matches!(err, DecodeError::Truncated { .. }),
                "{kind}: truncation at byte {cut} decoded to unexpected error {err:?}"
            );
        }

        // A flipped payload bit is a checksum mismatch. Flip inside the
        // kind/payload proper (not a length field, whose corruption the
        // truncation sweep above already covers as `Truncated`): the
        // kind tag starts right after 8 magic + 2 version + 8 kind-len.
        let mut flipped = good.clone();
        flipped[18] ^= 0x20;
        let mut stream = std::io::Cursor::new(flipped);
        assert!(
            matches!(
                Frame::read_from(&mut stream),
                Err(DecodeError::ChecksumMismatch { .. })
            ),
            "{kind}: flipped payload bit must be a checksum mismatch"
        );

        // Foreign bytes where the envelope should start.
        let mut alien = good.clone();
        alien[..8].copy_from_slice(b"NOTAWIRE");
        let mut stream = std::io::Cursor::new(alien);
        assert!(
            matches!(Frame::read_from(&mut stream), Err(DecodeError::BadMagic)),
            "{kind}: wrong magic must fail typed"
        );

        // A future envelope version bails before trusting any length.
        let mut future = good.clone();
        future[8] = 0xFF;
        future[9] = 0xFF;
        let mut stream = std::io::Cursor::new(future);
        assert!(
            matches!(
                Frame::read_from(&mut stream),
                Err(DecodeError::UnsupportedVersion { found: 0xFFFF, .. })
            ),
            "{kind}: future version must fail typed"
        );
    }

    // A valid envelope whose kind tag names no wire frame is typed too.
    let foreign = unwritten_contract::persist::encode_record("uc.wire.nope.v1", b"?");
    let mut stream = std::io::Cursor::new(foreign);
    assert!(matches!(
        Frame::read_from(&mut stream),
        Err(DecodeError::UnknownKind { .. })
    ));

    // Cross-version: a `uc.wire.v1` open frame (device index 2) is a
    // typed `UnknownKind` to the v2 decoder, the hook version negotiation
    // hangs off.
    let v1 = unwritten_contract::persist::encode_record("uc.wire.open.v1", &2u32.to_le_bytes());
    let mut stream = std::io::Cursor::new(v1);
    assert!(matches!(
        Frame::read_from(&mut stream),
        Err(DecodeError::UnknownKind { .. })
    ));
}

/// A record whose kind tag no reader knows dispatches to
/// `UnknownKind` — for both the device reader and the fig3 reader.
#[test]
fn unknown_record_kinds_are_typed() {
    let dir = temp_dir("unknown-kind");
    let path = dir.join("mystery.ckpt");
    unwritten_contract::persist::write_record_file(&path, "uc.mystery.v9", b"???").unwrap();
    assert!(matches!(
        DeviceCheckpoint::load_from(&path, &payload_codecs()),
        Err(DecodeError::UnknownKind { .. })
    ));
    assert!(matches!(
        Fig3Checkpoint::load_from(&path),
        Err(DecodeError::UnknownKind { .. })
    ));
    assert!(matches!(
        TraceRunCheckpoint::load_from(&path),
        Err(DecodeError::UnknownKind { .. })
    ));
    assert!(matches!(
        unwritten_contract::trace::load_trace(&path),
        Err(unwritten_contract::trace::TraceFileError::Decode(
            DecodeError::UnknownKind { .. }
        ))
    ));
    assert!(matches!(
        unwritten_contract::obs::ObsReport::load_from(&path),
        Err(DecodeError::UnknownKind { .. })
    ));

    // A device record whose *payload* tag is foreign also fails typed:
    // write a fig3 record and read it as a device checkpoint.
    let fig3_path = dir.join("fig3.ckpt");
    fig3_checkpoint().save_to(&fig3_path).unwrap();
    assert!(matches!(
        DeviceCheckpoint::load_from(&fig3_path, &payload_codecs()),
        Err(DecodeError::UnknownKind { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A loaded device checkpoint restores onto a roster-built device and
/// the restored device is indistinguishable from the original.
#[test]
fn loaded_device_checkpoint_restores_exactly() {
    let dir = temp_dir("device-restore");
    let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
    for kind in DeviceKind::ALL {
        let mut original = roster.build_checkpointable(kind, 42);
        let mut now = SimTime::ZERO;
        for i in 0..24u64 {
            let req = unwritten_contract::blockdev::IoRequest::write((i % 8) * 65536, 65536, now);
            now = original.submit(&req).unwrap();
        }
        let path = dir.join(format!("{}.ckpt", kind.slug()));
        original.checkpoint().save_to(&path).unwrap();

        let loaded = DeviceCheckpoint::load_from(&path, &payload_codecs()).unwrap();
        let mut restored = roster.build_checkpointable(kind, 42);
        restored.restore_from(loaded).unwrap();
        let req = unwritten_contract::blockdev::IoRequest::read(0, 65536, now);
        assert_eq!(restored.submit(&req), original.submit(&req), "{kind}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // `decode(encode(x)) == x` on raw SSD checkpoints, across random
    // traffic mixes (exercises buffer occupancy, prefetch state, FTL
    // mappings and RNG positions).
    #[test]
    fn ssd_checkpoint_encode_decode_round_trips(
        seed in 0u64..1_000_000,
        writes in 8usize..120,
    ) {
        let mut ssd = Ssd::with_seed(SsdConfig::samsung_970_pro(256 << 20), seed);
        let mut now = SimTime::ZERO;
        let mut state = seed | 1;
        for _ in 0..writes {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let off = (state % 2048) * 4096;
            let req = if state % 4 == 0 {
                unwritten_contract::blockdev::IoRequest::read(off, 4096, now)
            } else {
                unwritten_contract::blockdev::IoRequest::write(off, 8192, now)
            };
            now = ssd.submit(&req).unwrap();
        }
        let checkpoint = ssd.snapshot();
        let mut w = Encoder::new();
        checkpoint.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let back = SsdCheckpoint::decode(&mut r).unwrap();
        r.finish().unwrap();
        prop_assert_eq!(back, checkpoint);
    }

    // `decode(encode(x)) == x` on raw ESSD checkpoints, across random
    // traffic (exercises cluster lanes, token-bucket levels and the
    // jitter RNG mid-stream).
    #[test]
    fn essd_checkpoint_encode_decode_round_trips(
        seed in 0u64..1_000_000,
        ios in 4usize..48,
    ) {
        let mut essd = Essd::new(EssdConfig::alibaba_pl3(128 << 20).with_seed(seed));
        let mut now = SimTime::ZERO;
        let mut state = seed | 1;
        for _ in 0..ios {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let off = (state % 100) * (1 << 20);
            let req = if state % 3 == 0 {
                unwritten_contract::blockdev::IoRequest::read(off, 65536, now)
            } else {
                unwritten_contract::blockdev::IoRequest::write(off, 65536, now)
            };
            now = essd.submit(&req).unwrap();
        }
        let checkpoint = essd.snapshot();
        let mut w = Encoder::new();
        checkpoint.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let back = EssdCheckpoint::decode(&mut r).unwrap();
        r.finish().unwrap();
        prop_assert_eq!(back, checkpoint);
    }

    // Byte-level fuzz of the record envelope: random garbage never
    // panics the decoder — it always returns a typed error (or, with
    // astronomically small probability, a valid empty record).
    #[test]
    fn record_decoder_never_panics_on_garbage(
        bytes in proptest::collection::vec(0u8..255, 0..200),
    ) {
        let _ = unwritten_contract::persist::decode_record(&bytes);
    }

    // Random traces survive text → binary → text round trips
    // byte-identically: the `uc.trace.v1` codec neither reorders,
    // rewrites nor loses entries the text format can express.
    #[test]
    fn trace_text_binary_text_round_trips_byte_identically(
        raw in proptest::collection::vec(
            (0u64..1u64 << 40, any::<bool>(), 0u64..1u64 << 40, 1u32..1u32 << 24),
            0..100,
        ),
    ) {
        use unwritten_contract::blockdev::IoKind;
        use unwritten_contract::trace::{decode_trace, encode_trace};
        use unwritten_contract::workload::{Trace, TraceEntry};
        let entries: Vec<TraceEntry> = raw
            .into_iter()
            .map(|(at, write, offset, len)| TraceEntry {
                at: SimTime::from_nanos(at),
                kind: if write { IoKind::Write } else { IoKind::Read },
                offset,
                len,
            })
            .collect();
        let trace = Trace::from_entries(entries);
        let text = trace.to_text();
        let back = decode_trace(&encode_trace(&trace)).expect("binary round trip");
        prop_assert_eq!(&back, &trace);
        prop_assert_eq!(back.to_text(), text);
        // …and the text side re-parses to the same trace, closing the
        // text → binary → text → parse loop.
        prop_assert_eq!(text.parse::<Trace>().expect("text round trip"), trace);
    }
}

/// A record whose envelope is intact but whose plan no run could have
/// taken — empty or decreasing milestones, more steps done than planned,
/// a trace cut count that disagrees with its steps — fails typed on
/// decode instead of panicking mid-resume.
#[test]
fn impossible_plans_fail_typed_on_decode() {
    fn rejects<S: Slicing>(
        dir: &std::path::Path,
        mut record: SlicedCheckpoint<S>,
        mutate: impl Fn(&mut SlicedCheckpoint<S>),
    ) {
        mutate(&mut record);
        let path = dir.join(format!("{}.ckpt", record.key()));
        record.save_to(&path).unwrap();
        assert!(
            matches!(
                SlicedCheckpoint::<S>::load_from(&path),
                Err(DecodeError::InvalidValue { .. })
            ),
            "{}: {:?} / {} steps done must fail typed",
            S::RECORD_KIND,
            record.milestones,
            record.completed
        );
    }
    let dir = temp_dir("impossible-plans");
    let (fig3, trace) = (
        fig3_checkpoint(),
        trace_run_checkpoint(ReplayConfig::open_loop()),
    );
    // Empty milestones, with no step done and (trace) no cut.
    rejects(&dir, fig3.clone(), |r| {
        r.milestones.clear();
        r.completed = 0;
    });
    rejects(&dir, trace.clone(), |r| {
        r.milestones.clear();
        r.completed = 0;
        r.tail.clear();
    });
    // Decreasing milestones.
    rejects(&dir, fig3.clone(), |r| r.milestones.reverse());
    rejects(&dir, trace.clone(), |r| {
        r.milestones = vec![9, 3, 27];
    });
    // More steps done than the plan has.
    rejects(&dir, fig3, |r| r.completed = r.milestones.len() + 1);
    rejects(&dir, trace.clone(), |r| {
        r.completed = r.milestones.len() + 1;
        let cut = r.tail[0];
        r.tail.resize(r.completed, cut);
    });
    // A cut count that differs from the steps done.
    rejects(&dir, trace, |r| r.tail.clear());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drives `chain` freeze → disk → thaw at every boundary and returns its
/// result, calling `on_hop` with every record read back.
fn through_disk<S: Slicing>(
    chain: &SlicedChain<'_, S>,
    dir: &std::path::Path,
    mut on_hop: impl FnMut(&SlicedCheckpoint<S>),
) -> S::Output {
    assert!(chain.steps() > 1, "the run must actually hop through disk");
    let mut state = chain.start().unwrap();
    for step in 1..=chain.steps() {
        chain.advance(&mut state).unwrap();
        if step < chain.steps() {
            let path = dir.join(format!("{}.hop{step}.ckpt", chain.key()));
            chain.checkpoint(&state).save_to(&path).unwrap();
            let thawed = SlicedCheckpoint::<S>::load_from(&path).unwrap();
            on_hop(&thawed);
            state = chain.resume(thawed).unwrap();
        }
    }
    chain.finish(state)
}

/// Resume equivalence through the *file system*: a fig3 run and a
/// closed-loop trace replay with requests in flight, each driven through
/// on-disk checkpoints at every boundary, match their in-memory runs byte
/// for byte.
#[test]
fn fig3_resumed_through_disk_matches_memory() {
    use unwritten_contract::core::report::render_trace_report;
    let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
    let dir = temp_dir("disk-vs-memory");
    let kind = DeviceKind::LocalSsd;

    let cfg = Fig3Config::quick();
    let baseline = fig3::run(&roster, kind, &cfg).unwrap();
    let through_disk_fig3 = through_disk(&fig3::chain(&roster, kind, &cfg, 3), &dir, |_| ());
    assert_eq!(through_disk_fig3.time_series, baseline.time_series);
    assert_eq!(through_disk_fig3.volume_series, baseline.volume_series);

    let trace = sample_trace();
    let cfg = TraceRunConfig::open_loop(3).with_replay(ReplayConfig::closed_loop(4).with_ring(3));
    let in_memory =
        trace_exp::run_pipelined(&roster, &[kind], &trace, &cfg, &Executor::sequential()).unwrap();
    let mut in_flight = 0;
    let replayed = through_disk(&trace_exp::chain(&roster, kind, &trace, &cfg), &dir, |r| {
        in_flight += r.driver.inflight.len();
    });
    assert!(
        in_flight > 0,
        "the closed loop must hop with requests in flight"
    );
    assert_eq!(replayed.phases, in_memory[0].phases);
    assert_eq!(
        render_trace_report(&trace_exp::evaluate(vec![replayed])),
        render_trace_report(&trace_exp::evaluate(in_memory))
    );
    let _ = std::fs::remove_dir_all(&dir);
}
