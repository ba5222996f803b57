//! Queue-pair API contract tests: batched submission, returned or
//! appended to a caller-owned completion queue, must reproduce the
//! request-at-a-time schedules exactly, and the parallel experiment
//! executor must produce byte-identical results at any width.

use proptest::prelude::*;
use unwritten_contract::blockdev::IoResult;
use unwritten_contract::core::experiments::{fig2, fig5, Executor, Fig2Config, Fig5Config};
use unwritten_contract::core::report::{render_fig2_grid, render_fig5};
use unwritten_contract::persist::Persist;
use unwritten_contract::prelude::*;

/// Builds the request sequence an op list encodes: 4 KiB-aligned,
/// in-range, with non-decreasing submit times.
fn requests_from_ops(ops: &[(u8, u64, u64)], capacity: u64) -> Vec<IoRequest> {
    let mut now = SimTime::ZERO;
    ops.iter()
        .map(|&(kind, slot, advance_ns)| {
            now += SimDuration::from_nanos(advance_ns);
            let len = 4096u32 << (kind % 3); // 4, 8 or 16 KiB
            let offset = (slot % (capacity / (64 << 10))) * (64 << 10);
            if kind % 2 == 0 {
                IoRequest::read(offset, len, now)
            } else {
                IoRequest::write(offset, len, now)
            }
        })
        .collect()
}

/// The chunkings every equivalence check drives: widths 1, 2, 4, ...
/// (capped at 64), which exercise both the singleton path and fat
/// doorbells.
fn chunks(reqs: &[IoRequest]) -> Vec<IoBatch> {
    let mut out = Vec::new();
    let mut cursor = 0usize;
    let mut width = 1usize;
    while cursor < reqs.len() {
        let end = (cursor + width).min(reqs.len());
        out.push(reqs[cursor..end].iter().copied().collect());
        cursor = end;
        width = (width * 2).min(64);
    }
    out
}

/// Asserts `submit_batch` and `submit_batch_into` both equal consecutive
/// `submit` calls on fresh instances of the same device, for every
/// chunking of the sequence. The `submit_batch_into` instance posts into
/// one reused queue that already holds an entry, so it must append.
fn assert_batch_equivalence<D: BlockDevice>(
    mut sequential: D,
    mut batched: D,
    mut appended: D,
    reqs: &[IoRequest],
) {
    let expected: Vec<SimTime> = reqs.iter().map(|r| sequential.submit(r).unwrap()).collect();
    let mut got = Vec::with_capacity(reqs.len());
    let sentinel = Completion::of(99, &IoRequest::read(0, 512, SimTime::ZERO), SimTime::ZERO);
    let mut queue = vec![sentinel];
    for batch in chunks(reqs) {
        for c in batched.submit_batch(&batch).unwrap() {
            got.push(c.completes);
        }
        let entry_len = queue.len();
        appended.submit_batch_into(&batch, &mut queue).unwrap();
        assert_eq!(queue.len(), entry_len + batch.len());
        for (i, c) in queue[entry_len..].iter().enumerate() {
            assert_eq!(c.index, i, "indices are batch-relative");
            assert_eq!(c.submitted, batch.requests()[i].submit_time);
        }
    }
    assert_eq!(got, expected);
    assert_eq!(queue[0], sentinel);
    let appended_at: Vec<SimTime> = queue[1..].iter().map(|c| c.completes).collect();
    assert_eq!(appended_at, expected);
}

/// A batch whose middle request is out of range fails through
/// `submit_batch_into`: the error comes back, the caller's queue is at
/// its entry length, and the device state equals sequential `submit` of
/// the valid prefix.
fn assert_failed_doorbell_keeps_queue<D, S>(
    mut prefix_only: D,
    mut failing: D,
    snapshot: impl Fn(&D) -> S,
) where
    D: BlockDevice,
    S: PartialEq + std::fmt::Debug,
{
    let capacity = failing.info().capacity();
    let t = SimTime::from_nanos(1_000);
    let prefix = [IoRequest::write(0, 8192, t), IoRequest::read(0, 4096, t)];
    let mut batch: IoBatch = prefix.iter().copied().collect();
    batch.push(IoRequest::read(capacity, 4096, t)); // out of range
    batch.push(IoRequest::write(8192, 4096, t));
    for req in &prefix {
        prefix_only.submit(req).unwrap();
    }
    let mut queue = vec![Completion::of(0, &prefix[0], t)];
    let err = failing.submit_batch_into(&batch, &mut queue).unwrap_err();
    assert!(matches!(err, IoError::OutOfRange { .. }), "{err}");
    assert_eq!(
        queue.len(),
        1,
        "a failed doorbell leaves the queue as it was"
    );
    assert_eq!(snapshot(&failing), snapshot(&prefix_only));
}

#[test]
fn failed_doorbell_restores_the_queue_on_ssd_and_essd() {
    let capacity = 256 << 20;
    assert_failed_doorbell_keeps_queue(
        Ssd::new(SsdConfig::samsung_970_pro(capacity)),
        Ssd::new(SsdConfig::samsung_970_pro(capacity)),
        Ssd::to_bytes,
    );
    for config in [
        EssdConfig::aws_io2(capacity),
        EssdConfig::alibaba_pl3(capacity),
    ] {
        assert_failed_doorbell_keeps_queue(
            Essd::new(config.clone()),
            Essd::new(config),
            Essd::to_bytes,
        );
    }
}

/// A device that overrides only `submit_batch` — as a timing wrapper that
/// brackets each doorbell does — and counts its calls.
struct BatchOnly {
    inner: Ssd,
    doorbells: usize,
}

impl BlockDevice for BatchOnly {
    fn info(&self) -> DeviceInfo {
        self.inner.info()
    }
    fn submit(&mut self, req: &IoRequest) -> IoResult {
        self.inner.submit(req)
    }
    fn submit_batch(&mut self, batch: &IoBatch) -> Result<Vec<Completion>, IoError> {
        self.doorbells += 1;
        self.inner.submit_batch(batch)
    }
}

#[test]
fn submit_batch_into_rings_a_submit_batch_only_device_once_per_doorbell() {
    let capacity = 256 << 20;
    let ops: Vec<(u8, u64, u64)> = (0..100u64)
        .map(|i| ((i % 6) as u8, i * 7, i * 900))
        .collect();
    let reqs = requests_from_ops(&ops, capacity);
    let batches = chunks(&reqs);
    let mut dev = BatchOnly {
        inner: Ssd::new(SsdConfig::samsung_970_pro(capacity)),
        doorbells: 0,
    };
    let mut queue = Vec::new();
    // Directly, through a `&mut` forward and through a boxed trait object.
    for (i, batch) in batches.iter().enumerate() {
        match i % 3 {
            0 => dev.submit_batch_into(batch, &mut queue),
            1 => BlockDevice::submit_batch_into(&mut &mut dev, batch, &mut queue),
            _ => {
                let mut boxed: Box<dyn BlockDevice + '_> = Box::new(&mut dev);
                boxed.submit_batch_into(batch, &mut queue)
            }
        }
        .unwrap();
        assert_eq!(dev.doorbells, i + 1);
    }
    assert_eq!(queue.len(), reqs.len());
    let mut sequential = Ssd::new(SsdConfig::samsung_970_pro(capacity));
    for (c, r) in queue.iter().zip(&reqs) {
        assert_eq!(c.completes, sequential.submit(r).unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ssd_batch_completions_match_sequential_submit(
        ops in proptest::collection::vec((0u8..6, 0u64..4096, 0u64..200_000), 1..120)
    ) {
        let capacity = 256 << 20;
        let reqs = requests_from_ops(&ops, capacity);
        assert_batch_equivalence(
            Ssd::new(SsdConfig::samsung_970_pro(capacity)),
            Ssd::new(SsdConfig::samsung_970_pro(capacity)),
            Ssd::new(SsdConfig::samsung_970_pro(capacity)),
            &reqs,
        );
    }

    #[test]
    fn essd_batch_completions_match_sequential_submit(
        ops in proptest::collection::vec((0u8..6, 0u64..4096, 0u64..200_000), 1..120)
    ) {
        let capacity = 256 << 20;
        let reqs = requests_from_ops(&ops, capacity);
        assert_batch_equivalence(
            Essd::new(EssdConfig::aws_io2(capacity)),
            Essd::new(EssdConfig::aws_io2(capacity)),
            Essd::new(EssdConfig::aws_io2(capacity)),
            &reqs,
        );
        assert_batch_equivalence(
            Essd::new(EssdConfig::alibaba_pl3(capacity)),
            Essd::new(EssdConfig::alibaba_pl3(capacity)),
            Essd::new(EssdConfig::alibaba_pl3(capacity)),
            &reqs,
        );
    }
}

// ---- parallel experiment determinism ----------------------------------

fn small_roster() -> DeviceRoster {
    DeviceRoster::with_capacities(128 << 20, 256 << 20)
}

#[test]
fn parallel_fig2_is_byte_identical_to_sequential() {
    let roster = small_roster();
    let cfg = Fig2Config {
        io_sizes: vec![4 << 10, 64 << 10],
        queue_depths: vec![1, 8],
        ios_per_cell: 300,
    };
    let ssd_seq =
        fig2::run_with(&roster, DeviceKind::LocalSsd, &cfg, &Executor::sequential()).unwrap();
    let ssd_par = fig2::run_with(
        &roster,
        DeviceKind::LocalSsd,
        &cfg,
        &Executor::with_threads(8),
    )
    .unwrap();
    let essd_seq =
        fig2::run_with(&roster, DeviceKind::Essd1, &cfg, &Executor::sequential()).unwrap();
    let essd_par =
        fig2::run_with(&roster, DeviceKind::Essd1, &cfg, &Executor::with_threads(3)).unwrap();
    assert_eq!(ssd_seq, ssd_par);
    assert_eq!(essd_seq, essd_par);
    // The rendered report — what the bench binaries print — is identical
    // down to the byte.
    for pattern in 0..4 {
        assert_eq!(
            render_fig2_grid(&essd_par, &ssd_par, pattern, true),
            render_fig2_grid(&essd_seq, &ssd_seq, pattern, true),
        );
    }
}

#[test]
fn parallel_fig5_is_byte_identical_to_sequential() {
    let roster = small_roster();
    let cfg = Fig5Config {
        write_ratios: vec![0.0, 0.5, 1.0],
        ios_per_cell: 400,
        ..Fig5Config::paper()
    };
    for kind in DeviceKind::ALL {
        let seq = fig5::run_with(&roster, kind, &cfg, &Executor::sequential()).unwrap();
        let par = fig5::run_with(&roster, kind, &cfg, &Executor::with_threads(5)).unwrap();
        assert_eq!(seq, par, "{kind}");
        assert_eq!(render_fig5(&seq), render_fig5(&par), "{kind}");
    }
}

#[test]
fn scaled_roster_keeps_contract_shapes() {
    // A 2x-scaled roster doubles every capacity but must preserve the
    // qualitative contract (Observation 4 shape at reduced cells).
    let roster = DeviceRoster::with_capacities(96 << 20, 128 << 20).with_scale(2);
    assert_eq!(roster.capacity_of(DeviceKind::LocalSsd), 192 << 20);
    let cfg = Fig5Config {
        write_ratios: vec![0.0, 0.5, 1.0],
        ios_per_cell: 400,
        ..Fig5Config::paper()
    };
    let ssd = fig5::run(&roster, DeviceKind::LocalSsd, &cfg).unwrap();
    let e1 = fig5::run(&roster, DeviceKind::Essd1, &cfg).unwrap();
    let verdict = unwritten_contract::core::contract::check_observation4(&ssd, &[&e1]);
    assert!(verdict.passed, "{verdict}");
}
