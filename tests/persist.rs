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
use unwritten_contract::core::experiments::{DurableRecord, Fig3Checkpoint, SegmentedRun};
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

/// A mid-run fig3 segment checkpoint.
fn fig3_checkpoint() -> Fig3Checkpoint {
    let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
    let mut run = SegmentedRun::start(&roster, DeviceKind::Essd2, &Fig3Config::quick(), 4).unwrap();
    run.advance().unwrap();
    run.checkpoint()
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
fn trace_run_checkpoint(
    replay: ReplayConfig,
) -> unwritten_contract::core::experiments::TraceRunCheckpoint {
    use unwritten_contract::core::experiments::trace::{TraceRun, TraceRunConfig};
    let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
    let trace = sample_trace();
    let cfg = TraceRunConfig::open_loop(3).with_replay(replay);
    let mut run = TraceRun::start(&roster, DeviceKind::Essd1, &trace, &cfg).unwrap();
    run.advance(&trace).unwrap();
    run.checkpoint()
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
            Reader::TraceRun => {
                unwritten_contract::core::experiments::TraceRunCheckpoint::load_from(path)
                    .map(|_| ())
            }
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
        unwritten_contract::core::experiments::TraceRunCheckpoint::load_from(&path),
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

/// Resume equivalence through the *file system*: a fig3 run driven
/// through on-disk checkpoints at every boundary matches the in-memory
/// run byte for byte.
#[test]
fn fig3_resumed_through_disk_matches_memory() {
    let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
    let cfg = Fig3Config::quick();
    let dir = temp_dir("disk-vs-memory");
    let kind = DeviceKind::LocalSsd;

    let baseline = fig3::run(&roster, kind, &cfg).unwrap();

    let mut state = SegmentedRun::start(&roster, kind, &cfg, 3).unwrap();
    let mut hops = 0;
    loop {
        state.advance().unwrap();
        if state.is_finished() {
            break;
        }
        // Freeze → disk → thaw at every boundary.
        let path = dir.join(format!("hop{hops}.ckpt"));
        state.checkpoint().save_to(&path).unwrap();
        let thawed = Fig3Checkpoint::load_from(&path).unwrap();
        state = SegmentedRun::resume(&roster, thawed).unwrap();
        hops += 1;
    }
    assert!(hops > 0, "the run must actually hop through disk");
    let through_disk = state.into_result();
    assert_eq!(through_disk.time_series, baseline.time_series);
    assert_eq!(through_disk.volume_series, baseline.volume_series);
    let _ = std::fs::remove_dir_all(&dir);
}
