//! The invariant property suites: every core seam is driven with random
//! op sequences and audited with its [`Contract`] after every step.
//!
//! These are the machine-checked forms of the structural invariants behind
//! the paper's unwritten contract — L2P/P2L bijectivity and valid-count
//! conservation in the FTL, token/resource conservation in the simulation
//! kernel, freeze/thaw exactness at the `CheckpointDevice` seam, and trace
//! entry monotonicity plus replay schedule equivalence at the capture
//! seam. A violation anywhere is shrunk by the vendored proptest to a
//! minimal failing op sequence.
//!
//! The fault-injection tests at the bottom prove the suites have teeth: a
//! deterministic bug seeded into the FTL map update (behind the test-only
//! `fault-injection` feature) is caught and reported with a repro of at
//! most 10 ops.

use proptest::prelude::*;
use proptest::runner::find_minimal;
use proptest::test_runner::Config as RunnerConfig;
use unwritten_contract::essd::{Essd, EssdConfig};
use unwritten_contract::flash::{FlashGeometry, FlashTiming};
use unwritten_contract::ftl::{Ftl, FtlConfig, GcPolicy, MapFault};
use unwritten_contract::persist::Persist;
use unwritten_contract::prelude::*;
use unwritten_contract::sim::{ParallelResource, TokenBucket};
use unwritten_contract::ssd::{Ssd, SsdConfig};

// ---- uc-ftl: bijectivity + valid-count conservation -------------------

/// A GC-prone FTL small enough to audit after every op.
fn audit_ftl() -> Ftl {
    let g = FlashGeometry::new(2, 2, 1, 16, 64, 4096).unwrap();
    Ftl::new(
        FtlConfig::new(g, FlashTiming::mlc())
            .with_over_provisioning(0.2)
            .with_gc_policy(GcPolicy::Greedy),
    )
}

/// Applies one encoded op; writes dominate so GC keeps running.
fn apply_ftl_op(ftl: &mut Ftl, now: SimTime, sel: u8, slot: u64) -> SimTime {
    let lpn = slot % ftl.logical_pages();
    match sel % 4 {
        0 | 1 => ftl.write_page(now, lpn),
        2 => {
            ftl.trim(lpn);
            now
        }
        _ => ftl.read_page(now, lpn),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The full structural audit holds after every single map update, GC
    // move and trim of a random op sequence.
    #[test]
    fn ftl_contract_holds_after_every_op(
        ops in proptest::collection::vec((0u8..4, 0u64..1 << 20), 1..48)
    ) {
        let mut ftl = audit_ftl();
        let mut now = SimTime::ZERO;
        for &(sel, slot) in &ops {
            now = apply_ftl_op(&mut ftl, now, sel, slot);
            if let Err(v) = ftl.check() {
                return Err(TestCaseError::fail(v.to_string()));
            }
        }
        prop_assert_eq!(ftl.mapped_pages(), ftl.total_valid_pages());
    }

    // The audit also survives a checkpoint/restore cut at any point.
    #[test]
    fn ftl_contract_survives_checkpoint_cut(
        ops in proptest::collection::vec((0u8..4, 0u64..1 << 20), 1..48),
        cut in 0usize..48,
    ) {
        let cut = cut.min(ops.len());
        let mut ftl = audit_ftl();
        let mut now = SimTime::ZERO;
        for &(sel, slot) in &ops[..cut] {
            now = apply_ftl_op(&mut ftl, now, sel, slot);
        }
        let mut resumed = Ftl::from_bytes(&ftl.to_bytes()).expect("decodes");
        for &(sel, slot) in &ops[cut..] {
            now = apply_ftl_op(&mut resumed, now, sel, slot);
            if let Err(v) = resumed.check() {
                return Err(TestCaseError::fail(v.to_string()));
            }
        }
    }
}

// ---- uc-sim: token/resource conservation ------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Token conservation: the balance never goes negative and never
    // exceeds the burst, through grants, rate changes, resets and
    // snapshot/restore cuts.
    #[test]
    fn token_bucket_conserves_through_random_ops(
        burst in 1u64..100_000,
        rate in 1u64..1_000_000,
        ops in proptest::collection::vec((0u8..8, 0u64..1_000_000, 0u64..100_000), 1..64),
    ) {
        let mut bucket = TokenBucket::new(burst as f64, rate as f64);
        let mut now = SimTime::ZERO;
        for &(sel, advance_ns, amount) in &ops {
            now += SimDuration::from_nanos(advance_ns);
            match sel % 8 {
                0..=4 => { bucket.reserve(now, amount); }
                5 => bucket.set_rate(now, (amount + 1) as f64),
                6 => bucket.reset(now),
                _ => {
                    let frozen = bucket.to_bytes();
                    let thawed = TokenBucket::from_bytes(&frozen).expect("decodes");
                    prop_assert_eq!(thawed.to_bytes(), frozen);
                    bucket = thawed;
                }
            }
            if let Err(v) = bucket.check() {
                return Err(TestCaseError::fail(v.to_string()));
            }
        }
    }

    // Server-count conservation: the k-server station never leaks or
    // duplicates a server, and freeze/thaw is exact mid-sequence.
    #[test]
    fn parallel_resource_conserves_servers(
        servers in 1usize..9,
        ops in proptest::collection::vec((0u64..1_000_000, 1u64..1_000_000), 1..64),
        cut in 0usize..64,
    ) {
        let cut = cut.min(ops.len());
        let mut station = ParallelResource::new(servers);
        let mut now = SimTime::ZERO;
        for (i, &(advance_ns, service_ns)) in ops.iter().enumerate() {
            if i == cut {
                let frozen = station.to_bytes();
                let thawed = ParallelResource::from_bytes(&frozen).expect("decodes");
                prop_assert_eq!(thawed.to_bytes(), frozen);
                station = thawed;
            }
            now += SimDuration::from_nanos(advance_ns);
            station.acquire(now, SimDuration::from_nanos(service_ns));
            if let Err(v) = station.check() {
                return Err(TestCaseError::fail(v.to_string()));
            }
        }
        prop_assert_eq!(station.capacity(), servers);
    }
}

// ---- CheckpointDevice seam: freeze/thaw exactness ---------------------

/// Drives a QD1 closed loop of `(selector, slot)` ops (same encoding as
/// tests/checkpoint.rs) and returns every completion instant.
fn drive<D: BlockDevice>(dev: &mut D, ops: &[(u8, u64)], start: SimTime) -> Vec<SimTime> {
    let capacity = dev.info().capacity();
    let mut now = start;
    let mut completions = Vec::with_capacity(ops.len());
    for &(sel, slot) in ops {
        let len: u32 = match sel / 2 {
            0 => 4096,
            1 => 65536,
            _ => 262_144,
        };
        let offset = (slot % (capacity / len as u64)) * len as u64;
        let req = if sel % 2 == 0 {
            IoRequest::write(offset, len, now)
        } else {
            IoRequest::read(offset, len, now)
        };
        now = dev.submit(&req).expect("aligned in-range request");
        completions.push(now);
    }
    completions
}

/// The shared freeze/thaw property: the frozen checkpoint passes its
/// durability audit, and thawing it onto a fresh device is observationally
/// exact (same encoded state, same future completions).
fn freeze_thaw_is_exact<D, F>(build: F, ops: &[(u8, u64)], cut: usize)
where
    D: BlockDevice + CheckpointDevice + Persist,
    F: Fn() -> D,
{
    let cut = cut.min(ops.len());
    let mut original = build();
    let head = drive(&mut original, &ops[..cut], SimTime::ZERO);

    let frozen = original.checkpoint();
    frozen.check().expect("frozen checkpoint passes its audit");

    let mut thawed = build();
    thawed
        .restore_from(frozen)
        .expect("same-device restore succeeds");
    assert!(
        original.to_bytes() == thawed.to_bytes(),
        "thaw(freeze(d)) must be observationally exact"
    );
    // The suffix behaves identically on both, resuming at the cut clock.
    let t_cut = head.last().copied().unwrap_or(SimTime::ZERO);
    let a = drive(&mut original, &ops[cut..], t_cut);
    let b = drive(&mut thawed, &ops[cut..], t_cut);
    assert_eq!(a, b, "post-thaw completions must be identical");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn ssd_freeze_thaw_is_exact(
        ops in proptest::collection::vec((0u8..6, 0u64..1_000_000), 1..80),
        cut in 0usize..80,
    ) {
        freeze_thaw_is_exact(
            || Ssd::new(SsdConfig::samsung_970_pro(128 << 20)),
            &ops,
            cut,
        );
    }

    #[test]
    fn essd_freeze_thaw_is_exact(
        ops in proptest::collection::vec((0u8..6, 0u64..1_000_000), 1..80),
        cut in 0usize..80,
    ) {
        freeze_thaw_is_exact(
            || Essd::new(EssdConfig::alibaba_pl3(128 << 20)),
            &ops,
            cut,
        );
    }
}

// ---- uc-trace / uc-workload: monotonicity + replay equivalence --------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Entry monotonicity: a capture through the recorder is a valid trace
    // after every recorded request, and replaying the capture open-loop
    // against an identical fresh device reproduces the schedule exactly.
    #[test]
    fn capture_is_monotone_and_replay_is_equivalent(
        ops in proptest::collection::vec((0u8..6, 0u64..1_000_000, 0u64..200_000), 1..48)
    ) {
        let mut recorder = TraceRecorder::new(Ssd::new(SsdConfig::samsung_970_pro(128 << 20)));
        let capacity = recorder.info().capacity();
        let mut now = SimTime::ZERO;
        let mut completions = Vec::with_capacity(ops.len());
        for &(sel, slot, advance_ns) in &ops {
            now += SimDuration::from_nanos(advance_ns);
            let len: u32 = 4096 << (sel / 2 % 3);
            let offset = (slot % (capacity / len as u64)) * len as u64;
            let req = if sel % 2 == 0 {
                IoRequest::write(offset, len, now)
            } else {
                IoRequest::read(offset, len, now)
            };
            completions.push(recorder.submit(&req).expect("valid request"));
            if let Err(v) = recorder.trace().check() {
                return Err(TestCaseError::fail(v.to_string()));
            }
        }
        let trace = recorder.into_trace();
        prop_assert_eq!(trace.len(), ops.len());

        // Replay schedule equivalence: the same arrivals on an identical
        // fresh device complete at the same instants.
        let mut fresh = Ssd::new(SsdConfig::samsung_970_pro(128 << 20));
        let report = replay_with(&mut fresh, &trace, &ReplayConfig::open_loop())
            .expect("captured trace replays");
        prop_assert_eq!(report.ios, ops.len() as u64);
        let last = completions.iter().max().copied().unwrap();
        prop_assert_eq!(report.finished_at, last);
    }
}

// ---- fault injection: the suites have teeth ---------------------------

/// Runs `ops` against an FTL with `fault` armed and audits the result;
/// the closure shape `find_minimal` shrinks.
fn faulted_run(
    fault: MapFault,
    ops: &[(u8, u64)],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut ftl = audit_ftl();
    ftl.arm_fault(fault);
    let mut now = SimTime::ZERO;
    for &(sel, slot) in ops {
        now = apply_ftl_op(&mut ftl, now, sel, slot);
    }
    ftl.check()
        .map_err(|v| proptest::test_runner::TestCaseError::fail(v.to_string()))
}

/// Acceptance criterion: a seeded torn-map-update fault is caught by the
/// invariant machinery (the O(1) write hook in strict builds, the full
/// audit otherwise) with a shrunk repro of at most 10 ops.
#[test]
fn seeded_reverse_map_fault_is_caught_with_minimal_repro() {
    let strategy = proptest::collection::vec((0u8..4, 0u64..1 << 20), 1..40);
    let found = find_minimal(
        "seeded_reverse_map_fault",
        RunnerConfig::with_cases(32),
        &strategy,
        |ops: &Vec<(u8, u64)>| faulted_run(MapFault::DropReverseMapping, ops),
    )
    .expect("an armed map fault must be caught by the invariant suite");
    assert!(
        found.value.len() <= 10,
        "repro must shrink to <= 10 ops, got {} ({:?})",
        found.value.len(),
        found.value
    );
    // The minimal repro is the single faulted write.
    assert_eq!(
        found.value.len(),
        1,
        "one write op suffices: {:?}",
        found.value
    );
    assert!(found.value[0].0 % 4 <= 1, "the surviving op is a write");
}

/// Same teeth for the conservation audit: a skipped valid-count increment
/// (invisible to the O(1) round-trip hook) is caught by the full
/// [`Contract::check`] and shrunk to a single-write repro.
#[test]
fn seeded_valid_count_fault_is_caught_with_minimal_repro() {
    let strategy = proptest::collection::vec((0u8..4, 0u64..1 << 20), 1..40);
    let found = find_minimal(
        "seeded_valid_count_fault",
        RunnerConfig::with_cases(32),
        &strategy,
        |ops: &Vec<(u8, u64)>| faulted_run(MapFault::SkipValidCount, ops),
    )
    .expect("an armed conservation fault must be caught by the invariant suite");
    assert!(
        found.value.len() <= 10,
        "repro must shrink to <= 10 ops, got {} ({:?})",
        found.value.len(),
        found.value
    );
    assert!(
        found.message.contains("conservation") || found.message.contains("valid"),
        "failure names the conservation invariant: {}",
        found.message
    );
}

/// Determinism of the whole pipeline: the same seeded fault reports the
/// same minimal counterexample on every run.
#[test]
fn seeded_fault_repro_is_deterministic() {
    let strategy = proptest::collection::vec((0u8..4, 0u64..1 << 20), 1..40);
    let run = || {
        find_minimal(
            "seeded_fault_determinism",
            RunnerConfig::with_cases(16),
            &strategy,
            |ops: &Vec<(u8, u64)>| faulted_run(MapFault::DropReverseMapping, ops),
        )
        .expect("fault caught")
    };
    let first = run();
    let second = run();
    assert_eq!(first.value, second.value);
    assert_eq!(first.case, second.case);
    assert_eq!(first.shrink_steps, second.shrink_steps);
}
