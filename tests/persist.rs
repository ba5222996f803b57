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
use std::path::{Path, PathBuf};
use std::sync::LazyLock;
use unwritten_contract::blockdev::{CheckpointDevice, DeviceCheckpoint};
use unwritten_contract::core::devices::{payload_codecs, DeviceKind, DeviceRoster};
use unwritten_contract::core::experiments::durable::{self, LoadError, Store};
use unwritten_contract::core::experiments::fig3::{self, Endurance, Fig3Config};
use unwritten_contract::core::experiments::trace::{self as trace_exp, Replay, TraceRunConfig};
use unwritten_contract::core::experiments::{
    Chain, FleetChain, FleetRunConfig, SlicedChain, SlicedRun, Slicing,
};
use unwritten_contract::essd::{Essd, EssdConfig};
use unwritten_contract::persist::{read_record_file, DecodeError, Decoder, Encoder, Persist};
use unwritten_contract::prelude::*;
use unwritten_contract::workload::Trace;

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

/// `chain`'s run after its first step.
fn after_one_step<S: Slicing>(chain: &SlicedChain<'_, S>) -> SlicedRun<S> {
    let mut run = chain.start().unwrap();
    chain.advance(&mut run).unwrap();
    run
}

/// The roster every checkpointed chain of this file runs on.
static ROSTER: LazyLock<DeviceRoster> =
    LazyLock::new(|| DeviceRoster::with_capacities(128 << 20, 128 << 20));
static FIG3: LazyLock<Fig3Config> = LazyLock::new(Fig3Config::quick);

/// The fig3 chain whose mid-run segment the golden and corruption
/// tests save.
fn fig3_chain() -> SlicedChain<'static, Endurance> {
    fig3::chain(&ROSTER, DeviceKind::Essd2, &FIG3, 4)
}

/// A non-trivial `uc.trace.v1` trace.
fn sample_trace() -> Trace {
    Trace::bursty_writes(4, 9, SimDuration::from_millis(1), 8192, 8 << 20, 0x7ACE)
}

static TRACE: LazyLock<Trace> = LazyLock::new(sample_trace);
static OPEN: LazyLock<TraceRunConfig> = LazyLock::new(|| TraceRunConfig::open_loop(3));
static CLOSED: LazyLock<TraceRunConfig> = LazyLock::new(|| {
    TraceRunConfig::open_loop(3).with_replay(ReplayConfig::closed_loop(4).with_ring(3))
});

/// A trace-phase chain on ESSD-1 (device + paused replay driver).
fn trace_chain(cfg: &'static TraceRunConfig) -> SlicedChain<'static, Replay> {
    trace_exp::chain(&ROSTER, DeviceKind::Essd1, &TRACE, cfg)
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

static FLEET: LazyLock<FleetRunConfig> = LazyLock::new(|| {
    let mut config = FleetRunConfig::new(12, 3);
    config.fleet = config
        .fleet
        .with_duration(SimDuration::from_millis(8))
        .with_epochs(4)
        .with_seed(0xF1EE7)
        .with_rebalance(RebalancePolicy::default());
    config
});

/// A mid-run fleet (placement after a rebalance, per-tenant state and
/// every pool device) of [`FLEET`]'s chain.
fn fleet_sim() -> FleetSim {
    let chain = FleetChain::new(&FLEET);
    let mut sim = chain.start().unwrap();
    for _ in 0..2 {
        chain.advance(&mut sim).unwrap();
    }
    sim
}

/// Saves `state` through a [`Store`] in `dir` and returns the file.
fn save<C: Chain>(chain: &C, state: &C::State, dir: &Path) -> PathBuf {
    Store::create(dir).unwrap().save(chain, state).unwrap()
}

/// The record payload a save of `state` writes.
fn saved_payload<C: Chain>(chain: &C, state: &C::State, tag: &str) -> Vec<u8> {
    let dir = temp_dir(tag);
    let payload = read_record_file(&save(chain, state, &dir), C::RECORD_KIND).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    payload
}

/// A load's typed decode error (`Ok(())` if it loaded).
///
/// # Panics
///
/// Panics if the record was refused as another plan or did not
/// restore: every record here is built under the loading chain's plan.
fn decoded<T>(loaded: Result<T, LoadError>) -> Result<(), DecodeError> {
    match loaded {
        Ok(_) => Ok(()),
        Err(LoadError::Decode(e)) => Err(e),
        Err(e) => panic!("expected a typed decode error, got: {e}"),
    }
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
    // A device row is what a durable save writes, the live device's own
    // encode, and a checkpoint it takes encodes to the same bytes.
    let device = |device: &dyn CheckpointDevice| {
        let mut live = Encoder::new();
        device.encode_checkpoint(&mut live);
        let mut taken = Encoder::new();
        let Ok(()) = device.checkpoint().encode_into(&mut taken);
        assert!(
            live.as_bytes() == taken.as_bytes(),
            "{}",
            device.info().name()
        );
        fingerprint(live.as_bytes())
    };
    let mut w = Encoder::new();
    obs_report().encode(&mut w);
    // Closed loop, the paused driver holds requests in flight: it has
    // submitted more entries than have completed.
    let (open, closed) = (trace_chain(&OPEN), trace_chain(&CLOSED));
    let closed_run = after_one_step(&closed);
    assert!(closed_run.job().position() as u64 > closed_run.job().report().ios);
    let fig3 = fig3_chain();
    let fleet = FleetChain::new(&FLEET);
    let actual = [
        ("ssd", device(&busy_ssd())),
        ("essd", device(&busy_essd())),
        (
            "trace-run",
            fingerprint(&saved_payload(&open, &after_one_step(&open), "pin-open")),
        ),
        (
            "trace-run-closed",
            fingerprint(&saved_payload(&closed, &closed_run, "pin-closed")),
        ),
        ("obs", fingerprint(w.as_bytes())),
        (
            "fig3",
            fingerprint(&saved_payload(&fig3, &after_one_step(&fig3), "pin-fig3")),
        ),
        (
            "fleet",
            fingerprint(&saved_payload(&fleet, &fleet_sim(), "pin-fleet")),
        ),
    ];
    let golden = [
        // Format v2 (`uc.ssd-checkpoint.v2`, `uc.essd-checkpoint.v2`):
        // FTL map entries are 32-bit, the counters nothing read (busy
        // time, fabric traffic, stack I/Os, buffer and prefetch hits) are
        // gone, and an ESSD's chunk lanes are one dense table in its
        // cluster. Every device-carrying row moved once; v1 read
        // 1_254_633, 23_576, 112_391, 112_483, 107_434 and 437_076 bytes.
        // The trace and fleet rows grew: the dense table persists lanes no
        // fragment has touched yet.
        //
        // `uc.trace-run.v2`: a phase cut's `u128` latency sum is written
        // high word first, like every other `u128`; the trace rows kept
        // their lengths (v1 CRCs 0x2c96_30ec and 0x9c23_0bb8).
        // `uc.fleet.v2`: the fleet state leads with its config, each
        // tenant persists its trace cursor's position instead of a
        // consumed-entry count, and each device's queue head sits beside
        // its checkpoint (v1: 438_092 bytes, 0x792f_64ce).
        ("ssd", (648_053, 0x7f66_29a2)),
        ("essd", (21_792, 0x1f41_c91a)),
        ("trace-run", (114_351, 0xddb2_75a3)),
        ("trace-run-closed", (114_443, 0x3e4d_2c92)),
        ("obs", (426, 0x785f_7f81)),
        ("fig3", (105_010, 0x0169_0311)),
        ("fleet", (438_613, 0x7bfb_ce38)),
    ];
    assert_eq!(actual, golden);
}

/// An `Ssd` behind a wrapper that implements only `checkpoint` and
/// `restore_from`, like perfbench's `Timed`: its `encode_checkpoint` is
/// the trait default.
struct CheckpointOnly(Ssd);

impl BlockDevice for CheckpointOnly {
    fn info(&self) -> DeviceInfo {
        self.0.info()
    }
    fn submit(&mut self, req: &IoRequest) -> unwritten_contract::blockdev::IoResult {
        self.0.submit(req)
    }
}

impl CheckpointDevice for CheckpointOnly {
    fn checkpoint(&self) -> DeviceCheckpoint {
        self.0.checkpoint()
    }
    fn restore_from(&mut self, checkpoint: DeviceCheckpoint) -> Result<(), CheckpointError> {
        self.0.restore_from(checkpoint)
    }
}

/// The default `encode_checkpoint` (checkpoint, then encode) writes the
/// same bytes as the `Ssd`'s in-place override, bare and boxed.
#[test]
fn default_encode_checkpoint_matches_the_in_place_override() {
    let ssd = busy_ssd();
    let mut own = Encoder::new();
    ssd.encode_checkpoint(&mut own);
    let mut bare = Encoder::new();
    CheckpointOnly(ssd.clone()).encode_checkpoint(&mut bare);
    let boxed: Box<dyn CheckpointDevice> = Box::new(CheckpointOnly(ssd));
    let mut through_box = Encoder::new();
    boxed.encode_checkpoint(&mut through_box);
    assert!(bare.as_bytes() == own.as_bytes());
    assert!(through_box.as_bytes() == own.as_bytes());
}

/// Golden bytes of a `uc.trace.v1` file: `save_trace` writes exactly
/// `encode_trace`'s record, envelope included, and that record has not
/// moved since these constants were captured.
#[test]
fn trace_file_bytes_are_pinned() {
    use unwritten_contract::trace::{encode_trace, save_trace};
    let dir = temp_dir("trace-file-pin");
    let path = dir.join("sample.trace");
    let trace = sample_trace();
    save_trace(&path, &trace).unwrap();
    let written = std::fs::read(&path).unwrap();
    assert_eq!(written, encode_trace(&trace));
    assert_eq!(fingerprint(&written), (805, 0x22d1_8f57));
    let _ = std::fs::remove_dir_all(&dir);
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
/// the fig3, trace-run or fleet chain's load, the binary-trace loader,
/// or the `uc.obs.v1` telemetry reader.
enum Reader {
    Device,
    Fig3,
    TraceRun,
    Fleet,
    Trace,
    Obs,
}

impl Reader {
    fn load(&self, path: &Path) -> Result<(), DecodeError> {
        match self {
            Reader::Device => DeviceCheckpoint::load_from(path, &payload_codecs()).map(|_| ()),
            Reader::Fig3 => decoded(durable::load(&fig3_chain(), path)),
            Reader::Obs => unwritten_contract::obs::ObsReport::load_from(path).map(|_| ()),
            Reader::TraceRun => decoded(durable::load(&trace_chain(&OPEN), path)),
            Reader::Fleet => decoded(durable::load(&FleetChain::new(&FLEET), path)),
            // The envelope CRC is checked before any entry, so every
            // byte-level mutation lands on the same typed error the
            // other record codecs report.
            Reader::Trace => unwritten_contract::trace::load_trace(path)
                .map(|_| ())
                .map_err(|e| match e {
                    unwritten_contract::trace::TraceFileError::Decode(e) => e,
                    unwritten_contract::trace::TraceFileError::Invalid(_) => {
                        DecodeError::InvalidValue {
                            what: "trace entries",
                        }
                    }
                }),
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
    let fig3 = fig3_chain();
    let fig3_path = save(&fig3, &after_one_step(&fig3), &dir);
    let trace_run = trace_chain(&OPEN);
    let trace_run_path = save(&trace_run, &after_one_step(&trace_run), &dir);
    let fleet_path = save(&FleetChain::new(&FLEET), &fleet_sim(), &dir);
    let trace_path = dir.join("t.trace");
    unwritten_contract::trace::save_trace(&trace_path, &sample_trace()).unwrap();
    let obs_path = dir.join("telemetry.obs");
    obs_report().save_to(&obs_path).unwrap();

    let files: [(&str, PathBuf, Reader); 7] = [
        ("ssd", ssd_path, Reader::Device),
        ("essd", essd_path, Reader::Device),
        ("fig3", fig3_path, Reader::Fig3),
        ("trace-run", trace_run_path, Reader::TraceRun),
        ("fleet", fleet_path, Reader::Fleet),
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
/// `UnknownKind` — for the device reader and every chain's load.
#[test]
fn unknown_record_kinds_are_typed() {
    let dir = temp_dir("unknown-kind");
    let path = dir.join("mystery.ckpt");
    unwritten_contract::persist::write_record_file(&path, "uc.mystery.v9", |w| w.put_raw(b"???"))
        .unwrap();
    assert!(matches!(
        DeviceCheckpoint::load_from(&path, &payload_codecs()),
        Err(DecodeError::UnknownKind { .. })
    ));
    for loaded in [
        decoded(durable::load(&fig3_chain(), &path)),
        decoded(durable::load(&trace_chain(&OPEN), &path)),
        decoded(durable::load(&FleetChain::new(&FLEET), &path)),
    ] {
        assert!(matches!(loaded, Err(DecodeError::UnknownKind { .. })));
    }
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
    let fig3 = fig3_chain();
    let fig3_path = save(&fig3, &after_one_step(&fig3), &dir);
    assert!(matches!(
        DeviceCheckpoint::load_from(&fig3_path, &payload_codecs()),
        Err(DecodeError::UnknownKind { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrites the record file at `path` with the one occurrence of `from`
/// in its payload replaced by `to` (same length), under a fresh CRC.
fn retag_payload(path: &std::path::Path, from: &str, to: &str) {
    use unwritten_contract::persist::{decode_record, write_record_file};
    assert_eq!(from.len(), to.len());
    let bytes = std::fs::read(path).unwrap();
    let (kind, payload) = decode_record(&bytes).unwrap();
    let mut payload = payload.to_vec();
    let at: Vec<usize> = payload
        .windows(from.len())
        .enumerate()
        .filter(|(_, w)| *w == from.as_bytes())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(at.len(), 1, "{from} occurs once in {kind}");
    payload[at[0]..at[0] + to.len()].copy_from_slice(to.as_bytes());
    write_record_file(path, kind, |w| w.put_raw(&payload)).unwrap();
}

/// A file from before the v2 device checkpoint format fails typed at its
/// embedded payload tag, both stand-alone and inside a fig3 record.
#[test]
fn v1_device_payloads_are_rejected_typed() {
    let dir = temp_dir("v1-payload");
    let v1 = || DecodeError::UnknownKind {
        found: "uc.ssd-checkpoint.v1".into(),
    };

    let device_path = dir.join("ssd.ckpt");
    CheckpointDevice::checkpoint(&busy_ssd())
        .save_to(&device_path)
        .unwrap();
    retag_payload(&device_path, "uc.ssd-checkpoint.v2", "uc.ssd-checkpoint.v1");
    assert_eq!(
        DeviceCheckpoint::load_from(&device_path, &payload_codecs()).err(),
        Some(v1())
    );

    let chain = fig3::chain(&ROSTER, DeviceKind::LocalSsd, &FIG3, 4);
    let fig3_path = save(&chain, &after_one_step(&chain), &dir);
    retag_payload(&fig3_path, "uc.ssd-checkpoint.v2", "uc.ssd-checkpoint.v1");
    assert_eq!(decoded(durable::load(&chain, &fig3_path)).err(), Some(v1()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrites the record file at `path` under the kind tag `kind`, its
/// payload unchanged.
fn retag_record(path: &std::path::Path, kind: &str) {
    use unwritten_contract::persist::{decode_record, write_record_file};
    let bytes = std::fs::read(path).unwrap();
    let payload = decode_record(&bytes).unwrap().1.to_vec();
    write_record_file(path, kind, |w| w.put_raw(&payload)).unwrap();
}

/// Files from before the `uc.fleet.v2` and `uc.trace-run.v2` formats fail
/// typed at their record kind.
#[test]
fn v1_fleet_and_trace_run_records_are_rejected_typed() {
    let dir = temp_dir("v1-records");
    let v1 = |kind: &str| Some(DecodeError::UnknownKind { found: kind.into() });

    let fleet = FleetChain::new(&FLEET);
    let fleet_path = save(&fleet, &fleet_sim(), &dir);
    retag_record(&fleet_path, "uc.fleet.v1");
    assert_eq!(
        decoded(durable::load(&fleet, &fleet_path)).err(),
        v1("uc.fleet.v1")
    );

    let trace_run = trace_chain(&OPEN);
    let trace_path = save(&trace_run, &after_one_step(&trace_run), &dir);
    retag_record(&trace_path, "uc.trace-run.v1");
    assert_eq!(
        decoded(durable::load(&trace_run, &trace_path)).err(),
        v1("uc.trace-run.v1")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crafted fleet-state bytes fail typed, never panicking: a cursor
/// instant that is not a finite non-negative number, a tenant or device
/// count that disagrees with the placement, and configs that tenant
/// synthesis or the epoch clock would panic on.
#[test]
fn crafted_fleet_state_bytes_are_typed() {
    use unwritten_contract::fleet::{FleetConfig, FleetState, ShapeMix};
    use unwritten_contract::sim::{SimRng, TokenBucket};
    let state = fleet_sim().state().clone();
    let good = state.to_bytes();
    let config = state.config.clone();
    // The state leads with its config, its epoch and its placement; the
    // tenant count follows, then tenant 0's cursor RNG and instant.
    let tenants_at = config.to_bytes().len() + 8 + state.placement.to_bytes().len();
    let t_at = tenants_at + 8 + SimRng::new(0).to_bytes().len();
    assert_eq!(FleetState::from_bytes(&good).unwrap().to_bytes(), good);
    let patched = |at: usize, with: &[u8]| {
        let mut bytes = good.clone();
        bytes[at..at + with.len()].copy_from_slice(with);
        bytes
    };
    let mut crafted = Vec::new();
    for t in [f64::NAN, -1.0, f64::INFINITY] {
        crafted.push(patched(t_at, &t.to_le_bytes()));
    }
    let mut extra = state.clone();
    extra.buckets.push(TokenBucket::new(4096.0, 1e6));
    crafted.push(extra.to_bytes());
    for broken in [
        FleetConfig {
            devices: config.devices + 1,
            ..config.clone()
        },
        FleetConfig {
            tenants: 0,
            ..config.clone()
        },
        FleetConfig {
            epochs: 0,
            ..config.clone()
        },
        FleetConfig {
            mix: ShapeMix {
                steady: 0,
                diurnal: 0,
                bursty: 0,
            },
            ..config.clone()
        },
    ] {
        crafted.push(patched(0, &broken.to_bytes()));
    }
    for bytes in &crafted {
        rejects::<FleetState>(bytes);
    }
}

/// A fleet record whose config and placement agree on a huge device
/// count, with the matching device count after them, fails typed at the
/// first missing device rather than sizing a vector by the claim. The
/// record is built under the loading chain's own plan (a fleet of that
/// many devices), so no plan refusal masks the decode check.
#[test]
fn huge_fleet_device_count_is_typed() {
    use unwritten_contract::core::experiments::fleet::fleet_fingerprint;
    use unwritten_contract::fleet::FleetConfig;
    let sim = fleet_sim();
    let huge = 1u64 << 40;
    let config = FleetRunConfig {
        fleet: FleetConfig {
            devices: huge as usize,
            ..sim.state().config.clone()
        },
        ..FLEET.clone()
    };
    let mut state = sim.state().to_bytes();
    // The config's device count follows its tenant count; the
    // placement's follows the epoch, its region span and its slots.
    let config_len = config.fleet.to_bytes().len();
    state[8..16].copy_from_slice(&huge.to_le_bytes());
    state[config_len + 24..config_len + 32].copy_from_slice(&huge.to_le_bytes());
    assert_eq!(state[..config_len], config.fleet.to_bytes());
    let mut w = Encoder::new();
    w.put_u32(fleet_fingerprint(&config));
    w.put_raw(&state);
    w.put_u64(huge);
    let result = decoded(FleetChain::new(&config).decode(Decoder::new(w.as_bytes())));
    assert!(
        matches!(result, Err(DecodeError::Truncated { .. })),
        "{result:?}"
    );
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

    // `encode(decode(encode(x))) == encode(x)` on raw SSD checkpoints,
    // across random traffic mixes (exercises buffer occupancy, prefetch
    // state, FTL mappings and RNG positions).
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
        let bytes = ssd.to_bytes();
        let back = Ssd::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    // `encode(decode(encode(x))) == encode(x)` on raw ESSD checkpoints,
    // across random traffic (exercises cluster lanes, token-bucket levels
    // and the jitter RNG mid-stream).
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
        let bytes = essd.to_bytes();
        let back = Essd::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.to_bytes(), bytes);
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

/// A record under the chain's own plan whose progress no run could
/// have made — more steps done than planned, a trace cut count that
/// disagrees with its steps — fails typed on load instead of panicking
/// mid-resume. Empty or decreasing milestones are another plan: refused
/// before the rest of the record is read.
#[test]
fn impossible_plans_fail_typed_on_decode() {
    use unwritten_contract::persist::write_record_file;
    /// Loads `payload` with the `u64` at `at` replaced by `with` (or
    /// the `cut` bytes there replaced by `with`'s eight).
    fn patched<S: Slicing>(
        chain: &SlicedChain<'_, S>,
        dir: &Path,
        payload: &[u8],
        at: usize,
        cut: usize,
        with: u64,
    ) -> Result<SlicedRun<S>, LoadError> {
        let mut bytes = payload[..at].to_vec();
        bytes.extend_from_slice(&with.to_le_bytes());
        bytes.extend_from_slice(&payload[at + cut..]);
        let path = dir.join(format!("{}.ckpt", chain.key()));
        write_record_file(&path, S::RECORD_KIND, |w| w.put_raw(&bytes)).unwrap();
        durable::load(chain, &path)
    }
    fn rejects<S: Slicing>(chain: &SlicedChain<'_, S>, dir: &Path, head_len: usize) {
        let payload = saved_payload(chain, &after_one_step(chain), "impossible-plan");
        let steps = chain.steps();
        // Kind, head, then the milestone count and values.
        let milestones_at = 1 + head_len;
        let completed_at = milestones_at + 8 + 8 * steps;
        assert!(patched(chain, dir, &payload, completed_at, 8, 1).is_ok());
        // More steps done than the plan has.
        assert_eq!(
            decoded(patched(
                chain,
                dir,
                &payload,
                completed_at,
                8,
                steps as u64 + 1
            )),
            Err(DecodeError::InvalidValue {
                what: "SlicedRun.completed"
            }),
            "{}",
            S::RECORD_KIND
        );
        // Empty milestones: the count drops to 0 and the values go.
        let empty = patched(chain, dir, &payload, milestones_at, 8 + 8 * steps, 0);
        assert!(matches!(empty, Err(LoadError::OtherPlan)));
        // Decreasing milestones: the last one first.
        let last = u64::from_le_bytes(payload[completed_at - 8..completed_at].try_into().unwrap());
        let decreasing = patched(chain, dir, &payload, milestones_at + 8, 8, last + 1);
        assert!(matches!(decreasing, Err(LoadError::OtherPlan)));
    }
    let dir = temp_dir("impossible-plans");
    let (fig3, trace) = (fig3_chain(), trace_chain(&OPEN));
    // fig3's head is (capacity, window); trace's the fingerprint.
    rejects(&fig3, &dir, 16);
    rejects(&trace, &dir, 4);
    // A cut count that differs from the steps done: two steps claimed,
    // one cut recorded.
    let payload = saved_payload(&trace, &after_one_step(&trace), "impossible-cuts");
    let completed_at = 1 + 4 + 8 + 8 * trace.steps();
    assert_eq!(
        decoded(patched(&trace, &dir, &payload, completed_at, 8, 2)),
        Err(DecodeError::InvalidValue {
            what: "SlicedRun.tail"
        })
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drives `chain` save → disk → load at every boundary and returns its
/// result, calling `on_hop` with every run read back.
fn through_disk<S: Slicing>(
    chain: &SlicedChain<'_, S>,
    dir: &Path,
    mut on_hop: impl FnMut(&SlicedRun<S>),
) -> S::Output {
    assert!(chain.steps() > 1, "the run must actually hop through disk");
    let store = Store::create(dir).unwrap();
    let mut state = chain.start().unwrap();
    for step in 1..=chain.steps() {
        chain.advance(&mut state).unwrap();
        if step < chain.steps() {
            let path = store.save(chain, &state).unwrap();
            state = durable::load(chain, &path).unwrap();
            on_hop(&state);
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
        in_flight += r.job().position() as u64 - r.job().report().ios;
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
