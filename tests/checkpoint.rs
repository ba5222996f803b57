//! Property tests for the checkpoint/restore seam: freezing a device (and
//! the segmented fig3 runner) mid-run must be undetectable in every output.
//!
//! These are the workspace-level guarantees behind the segmented Figure 3
//! endurance run: `checkpoint → restore → continue` equals
//! `run-straight-through` on both device classes under randomized
//! workloads, and slicing the endurance timeline into any number of
//! segments leaves the figure byte-identical.

use proptest::prelude::*;
use unwritten_contract::core::experiments::durable;
use unwritten_contract::core::experiments::fig3::{self, Fig3Config};
use unwritten_contract::essd::{Essd, EssdConfig};
use unwritten_contract::persist::Persist;
use unwritten_contract::prelude::*;
use unwritten_contract::ssd::{Ssd, SsdConfig};

/// Drives a QD1 closed loop of `(selector, slot)` ops: the selector picks
/// direction and size, the slot an aligned offset. Returns every
/// completion instant plus the final clock.
fn drive<D: BlockDevice>(
    dev: &mut D,
    ops: &[(u8, u64)],
    start: SimTime,
) -> (Vec<SimTime>, SimTime) {
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
    (completions, now)
}

/// The shared checkpoint property: run `ops` straight through on one
/// device; run the prefix on another, freeze it, thaw onto a third, run
/// the suffix there. Completion instants and the final frozen state must
/// be identical.
fn checkpoint_cut_is_undetectable<D, F>(build: F, ops: &[(u8, u64)], cut: usize)
where
    D: BlockDevice + CheckpointDevice + Persist,
    F: Fn() -> D,
{
    let cut = cut.min(ops.len());
    let mut straight = build();
    let (all, _) = drive(&mut straight, ops, SimTime::ZERO);

    let mut prefix = build();
    let (head, t_cut) = drive(&mut prefix, &ops[..cut], SimTime::ZERO);
    assert_eq!(&all[..cut], &head[..], "prefix must already agree");
    let frozen = prefix.checkpoint();

    let mut resumed = build();
    resumed.restore_from(frozen).expect("same-device restore");
    let (tail, _) = drive(&mut resumed, &ops[cut..], t_cut);
    assert_eq!(&all[cut..], &tail[..], "continuation must be identical");
    assert!(
        straight.to_bytes() == resumed.to_bytes(),
        "final device states must be indistinguishable"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ssd_checkpoint_restore_continue_equals_straight(
        ops in proptest::collection::vec((0u8..6, 0u64..1_000_000), 1..160),
        cut in 0usize..160,
    ) {
        checkpoint_cut_is_undetectable(
            || Ssd::new(SsdConfig::samsung_970_pro(128 << 20)),
            &ops,
            cut,
        );
    }

    #[test]
    fn essd_checkpoint_restore_continue_equals_straight(
        ops in proptest::collection::vec((0u8..6, 0u64..1_000_000), 1..160),
        cut in 0usize..160,
    ) {
        checkpoint_cut_is_undetectable(
            || Essd::new(EssdConfig::alibaba_pl3(128 << 20)),
            &ops,
            cut,
        );
    }
}

/// The unsliced fig3 baseline, computed once per device kind.
fn unsliced_baseline(kind: DeviceKind) -> &'static fig3::Fig3Result {
    use std::sync::OnceLock;
    static CELLS: [OnceLock<fig3::Fig3Result>; 3] =
        [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    let index = DeviceKind::ALL.iter().position(|&k| k == kind).unwrap();
    CELLS[index].get_or_init(|| {
        let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
        fig3::run(&roster, kind, &Fig3Config::quick()).expect("fig3 baseline")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Acceptance property: segmented fig3 output is byte-identical to the
    // unsliced run for every `DeviceKind`, at any segment count.
    #[test]
    fn segmented_fig3_matches_unsliced_at_any_slicing(
        segments in 2usize..7,
        kind_index in 0usize..3,
    ) {
        let kind = DeviceKind::ALL[kind_index];
        let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
        let cfg = Fig3Config::quick();
        let sliced = durable::round_trip(&fig3::chain(&roster, kind, &cfg, segments))
            .expect("segmented fig3");
        let baseline = unsliced_baseline(kind);
        prop_assert_eq!(&sliced.time_series, &baseline.time_series);
        prop_assert_eq!(&sliced.volume_series, &baseline.volume_series);
        prop_assert_eq!(sliced.capacity, baseline.capacity);
    }
}

/// A fig3 run split across *threads* through the pipelined runner agrees
/// with the per-kind baselines (integration-level sanity on top of the
/// uc-core unit tests).
#[test]
fn pipelined_fig3_agrees_with_baselines() {
    let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
    let results = fig3::run_pipelined(
        &roster,
        &DeviceKind::ALL,
        &Fig3Config::quick(),
        3,
        &Executor::with_threads(3),
    )
    .expect("pipelined fig3");
    for (i, &kind) in DeviceKind::ALL.iter().enumerate() {
        let baseline = unsliced_baseline(kind);
        assert_eq!(results[i].time_series, baseline.time_series, "{kind}");
        assert_eq!(results[i].volume_series, baseline.volume_series, "{kind}");
    }
}
