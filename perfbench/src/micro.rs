//! The isolated layer micro-suite.
//!
//! Each entry builds a fresh layer instance, warms it up, then times a
//! fixed number of calls; it repeats that [`REPS`] times and reports the
//! median host ns per call and the median heap allocations per call.

use crate::alloc;
use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;
use uc_blockdev::{BlockDevice, CheckpointDevice, Completion, IoRequest, SessionId, SharedDevice};
use uc_essd::{Essd, EssdConfig};
use uc_flash::FlashArray;
use uc_fleet::{Placement, ShapeMix, TenantSpec};
use uc_ftl::{Ftl, FtlConfig};
use uc_persist::Encoder;
use uc_serve::{Body, Frame, FrameHeader};
use uc_sim::{BucketSet, ParallelResource, Resource, SimDuration, SimTime, TokenBucket};
use uc_ssd::{Ssd, SsdConfig};
use uc_workload::TraceEntry;

/// Timed repetitions per entry.
const REPS: usize = 5;

/// One entry's result.
pub struct Micro {
    /// Metric name (`<layer>.<call>_ns...`).
    pub name: &'static str,
    /// Median host ns per op.
    pub ns_per_op: f64,
    /// Median heap allocations per op.
    pub allocs_per_op: f64,
}

/// A deterministic stream of pseudo-random values (an LCG): enough to
/// scatter offsets without pulling a layer's own RNG into the timing.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound
    }
}

/// Times `ops` calls of `op` on fresh `setup()` state after `ops / 10`
/// warm-up calls, `REPS` times; `per` divides each op (ns per entry,
/// per KiB, ...).
fn measure<S>(
    name: &'static str,
    ops: u64,
    per: f64,
    mut setup: impl FnMut() -> S,
    mut op: impl FnMut(&mut S, u64),
) -> Micro {
    let entry = Instant::now();
    let mut ns = Vec::with_capacity(REPS);
    let mut allocs = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut state = setup();
        for i in 0..ops / 10 {
            op(&mut state, i);
        }
        let before = alloc::thread();
        let started = Instant::now();
        for i in ops / 10..ops / 10 + ops {
            op(&mut state, i);
        }
        let elapsed = started.elapsed().as_nanos() as f64;
        allocs.push((alloc::thread() - before) as f64 / (ops as f64 * per));
        ns.push(elapsed / (ops as f64 * per));
        black_box(state);
    }
    eprintln!("micro {name}: {:.3} s", entry.elapsed().as_secs_f64());
    Micro {
        name,
        ns_per_op: median(&ns),
        allocs_per_op: median(&allocs),
    }
}

fn ssd_config(capacity: u64) -> SsdConfig {
    SsdConfig::samsung_970_pro(capacity)
}

fn ftl_config(capacity: u64) -> FtlConfig {
    ssd_config(capacity).ftl
}

/// An FTL of `capacity` bytes with every logical page written once, then
/// as many random overwrites again: garbage collection in steady state.
fn aged_ftl(capacity: u64) -> (Ftl, SimTime) {
    let mut ftl = Ftl::new(ftl_config(capacity));
    let pages = ftl.logical_pages();
    let mut now = SimTime::ZERO;
    for lpn in 0..pages {
        now = ftl.write_page(now, lpn);
    }
    let mut rng = Lcg(7);
    for _ in 0..pages {
        now = ftl.write_page(now, rng.next(pages));
    }
    (ftl, now)
}

/// A device at QD 1: each 4 KiB request is submitted when the previous
/// one completes, at a pseudo-random offset within `span` bytes.
struct Qd1<D> {
    device: D,
    now: SimTime,
    rng: Lcg,
    span_blocks: u64,
}

impl<D: BlockDevice> Qd1<D> {
    fn new(device: D, span: u64) -> Self {
        Qd1 {
            device,
            now: SimTime::ZERO,
            rng: Lcg(11),
            span_blocks: span / 4096,
        }
    }

    /// Writes the whole span sequentially in 128 KiB requests.
    fn filled(mut self) -> Self {
        for offset in (0..self.span_blocks * 4096).step_by(128 << 10) {
            let req = IoRequest::write(offset, 128 << 10, self.now);
            self.now = self.device.submit(&req).expect("fill write");
        }
        self
    }

    fn step(&mut self, write: bool) {
        let offset = self.rng.next(self.span_blocks) * 4096;
        let req = if write {
            IoRequest::write(offset, 4096, self.now)
        } else {
            IoRequest::read(offset, 4096, self.now)
        };
        self.now = self.device.submit(&req).expect("micro-suite submit");
    }
}

/// The arrival streams of one fleet_1024 device's residents.
fn fleet_device_streams() -> Vec<(u32, Vec<TraceEntry>)> {
    let (tenants, devices, capacity) = (1024usize, 32usize, 256u64 << 20);
    let slots = tenants.div_ceil(devices) + 1;
    let span = capacity / slots as u64 / 4096 * 4096;
    let placement = Placement::contiguous(tenants, devices, slots, span);
    placement
        .residents(0)
        .into_iter()
        .map(|t| {
            let spec = TenantSpec::synthesize(
                t,
                &ShapeMix::default_mix(),
                0xF1EE7,
                span,
                SimDuration::from_millis(1000),
                4096,
            );
            (t, spec.trace.generate().entries().to_vec())
        })
        .collect()
}

/// A 32-request Submit frame and its Completions frame.
fn frames() -> (Frame, Frame) {
    let header = FrameHeader {
        session: 0x5E55,
        lane: 1,
        seq: 42,
    };
    let reqs: Vec<IoRequest> = (0..32u64)
        .map(|i| IoRequest::write(i * 65536, 65536, SimTime::from_nanos(i * 1000)))
        .collect();
    let completions = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| Completion::of(i, r, r.submit_time + SimDuration::from_micros(80)))
        .collect();
    (
        Frame::new(header, Body::Submit { reqs }),
        Frame::new(header, Body::Completions { completions }),
    )
}

/// Runs the whole suite.
pub fn run() -> Vec<Micro> {
    let gib = 1u64 << 30;
    let mut out = vec![
        measure(
            "sim.resource_acquire_ns",
            1_000_000,
            1.0,
            Resource::new,
            |r, i| {
                black_box(r.acquire(SimTime::from_nanos(i * 100), SimDuration::from_nanos(150)));
            },
        ),
        measure(
            "sim.parallel_resource_acquire_ns",
            1_000_000,
            1.0,
            || ParallelResource::new(8),
            |r, i| {
                black_box(r.acquire(SimTime::from_nanos(i * 100), SimDuration::from_nanos(700)));
            },
        ),
        measure(
            "sim.token_reserve_ns",
            1_000_000,
            1.0,
            || TokenBucket::new(1e6, 4e9),
            |b, i| {
                black_box(b.reserve(SimTime::from_nanos(i * 1000), 4096));
            },
        ),
        measure(
            "sim.bucketset_reserve_ns",
            1_000_000,
            1.0,
            || {
                let mut set = BucketSet::new();
                for _ in 0..1024 {
                    set.push(TokenBucket::new(32768.0, 8e6));
                }
                set
            },
            |s, i| {
                black_box(s.reserve((i % 1024) as usize, SimTime::from_nanos(i * 1000), 4096));
            },
        ),
    ];
    let flash = || {
        let cfg = ftl_config(gib);
        FlashArray::new(cfg.geometry, cfg.timing)
    };
    out.push(measure("flash.program_ns", 500_000, 1.0, flash, |f, i| {
        let dies = f.geometry().total_dies() as u64;
        black_box(f.program_page(SimTime::from_nanos(i * 1000), (i % dies) as u32));
    }));
    out.push(measure(
        "flash.read_page_ns",
        500_000,
        1.0,
        flash,
        |f, i| {
            let dies = f.geometry().total_dies() as u64;
            black_box(f.read_page(SimTime::from_nanos(i * 1000), (i % dies) as u32));
        },
    ));
    out.push(measure(
        "ftl.write_page_clean_ns",
        100_000,
        1.0,
        || (Ftl::new(ftl_config(gib)), SimTime::ZERO),
        |(ftl, now), i| *now = ftl.write_page(*now, i),
    ));
    out.push(measure(
        "ftl.write_page_gc_ns",
        100_000,
        1.0,
        || (aged_ftl(128 << 20), Lcg(3)),
        |((ftl, now), rng), _| {
            let pages = ftl.logical_pages();
            *now = ftl.write_page(*now, rng.next(pages));
        },
    ));
    out.push(measure(
        "ftl.read_page_ns",
        200_000,
        1.0,
        || (aged_ftl(128 << 20), Lcg(5)),
        |((ftl, now), rng), _| {
            let pages = ftl.logical_pages();
            *now = ftl.read_page(*now, rng.next(pages));
        },
    ));
    let span = 64 << 20;
    out.push(measure(
        "ssd.submit_4k_write_ns",
        100_000,
        1.0,
        || Qd1::new(Ssd::new(ssd_config(gib)), span),
        |d, _| d.step(true),
    ));
    out.push(measure(
        "ssd.submit_4k_read_ns",
        100_000,
        1.0,
        || Qd1::new(Ssd::new(ssd_config(gib)), span).filled(),
        |d, _| d.step(false),
    ));
    out.push(measure(
        "essd.submit_4k_write_ns",
        100_000,
        1.0,
        || Qd1::new(Essd::new(EssdConfig::aws_io2(2 * gib)), span),
        |d, _| d.step(true),
    ));
    out.push(measure(
        "essd.submit_4k_read_ns",
        100_000,
        1.0,
        || Qd1::new(Essd::new(EssdConfig::aws_io2(2 * gib)), span).filled(),
        |d, _| d.step(false),
    ));
    out.push(measure(
        "blockdev.shared_submit_ns",
        100_000,
        1.0,
        || {
            let mut shared = SharedDevice::new(Essd::new(EssdConfig::aws_io2(2 * gib)));
            for _ in 0..32 {
                shared.open_session();
            }
            (shared, Lcg(13))
        },
        |(shared, rng), i| {
            let offset = rng.next(span / 4096) * 4096;
            let req = IoRequest::write(offset, 4096, SimTime::from_nanos(i * 2000));
            let session = SessionId::from_index((i % 32) as usize);
            black_box(shared.submit_shared(session, &req).expect("shared submit"));
        },
    ));
    let streams = fleet_device_streams();
    let entries: usize = streams.iter().map(|(_, s)| s.len()).sum();
    out.push(measure(
        "trace.merge_streams_ns_per_entry",
        10,
        entries as f64,
        || (),
        |_, _| {
            let views: Vec<(u32, &[TraceEntry])> =
                streams.iter().map(|(t, s)| (*t, s.as_slice())).collect();
            black_box(uc_trace::merge_streams(&views).expect("ordered streams"));
        },
    ));
    for (name, mut device) in [
        (
            "persist.essd_checkpoint_encode_ns_per_kib",
            Box::new(Essd::new(EssdConfig::aws_io2(2 * gib))) as Box<dyn CheckpointDevice>,
        ),
        (
            "persist.ssd_checkpoint_encode_ns_per_kib",
            Box::new(Ssd::new(ssd_config(gib))),
        ),
    ] {
        let mut now = SimTime::ZERO;
        let mut rng = Lcg(17);
        for _ in 0..20_000 {
            let req = IoRequest::write(rng.next(gib / 4096) * 4096, 4096, now);
            now = device.submit(&req).expect("aging write");
        }
        let checkpoint = device.checkpoint();
        let mut sized = Encoder::new();
        checkpoint
            .encode_into(&mut sized)
            .expect("roster devices persist");
        let kib = sized.as_bytes().len() as f64 / 1024.0;
        out.push(measure(
            name,
            20,
            kib,
            || (),
            |_, _| {
                let mut w = Encoder::new();
                checkpoint
                    .encode_into(&mut w)
                    .expect("roster devices persist");
                black_box(w.as_bytes().len());
            },
        ));
    }
    let (submit, completions) = frames();
    out.push(measure(
        "serve.frame_encode_ns",
        10_000,
        1.0,
        || (),
        |_, _| {
            black_box(submit.encode());
            black_box(completions.encode());
        },
    ));
    let bytes = [submit.encode(), completions.encode()];
    out.push(measure(
        "serve.frame_decode_ns",
        10_000,
        1.0,
        || (),
        |_, _| {
            for frame in &bytes {
                black_box(Frame::read_from(&mut frame.as_slice()).expect("valid frame"));
            }
        },
    ));
    out
}
