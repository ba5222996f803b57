//! Fleet property suites: the multi-tenant seams driven with random
//! fleet definitions and audited against their contracts.
//!
//! Two observational equivalences are pinned:
//!
//! * **suffix equivalence** — freezing the whole fleet at *any* epoch
//!   boundary (fleet state + every device's checkpoint), thawing
//!   onto a fresh pool, and replaying the tail produces a final state
//!   byte-identical to an uninterrupted run — with and without
//!   checkpoint-seam migrations in the suffix;
//! * **work conservation** — rebalancing migrates *where* a tenant's
//!   work runs, never *how much* of it completes: per-tenant I/O and
//!   byte totals are identical with rebalancing on and off.
//!
//! The fault-injection test at the bottom proves the conservation
//! contract has teeth: a seeded migration bug that drops the migrant
//! (behind the test-only `fault-injection` feature) is caught by the
//! `every-tenant-placed` invariant at the next boundary audit.

use proptest::prelude::*;
use unwritten_contract::blockdev::SharedDevice;
use unwritten_contract::core::experiments::fleet as fleet_exp;
use unwritten_contract::core::report::render_fleet_report;
use unwritten_contract::essd::{Essd, EssdConfig};
use unwritten_contract::fleet::{FleetConfig, FleetDevice, FleetSim, FleetState, RebalancePolicy};
use unwritten_contract::persist::{crc32, Persist};
use unwritten_contract::sim::SimDuration;

/// A pool of small eSSDs, uniquely named (the checkpoint seam validates
/// names on thaw) and deterministically seeded.
fn pool(devices: usize, seed: u64) -> Vec<FleetDevice> {
    (0..devices)
        .map(|i| {
            let config = EssdConfig::alibaba_pl3(64 << 20)
                .with_name(format!("fleet-essd-{i}"))
                .with_seed(seed ^ i as u64);
            Box::new(Essd::new(config)) as FleetDevice
        })
        .collect()
}

/// A small fleet sized for per-case property runs.
fn config(tenants: usize, devices: usize, seed: u64, rebalance: bool) -> FleetConfig {
    let mut config = FleetConfig::new(tenants, devices)
        .with_duration(SimDuration::from_millis(10))
        .with_seed(seed);
    if rebalance {
        config = config.with_rebalance(RebalancePolicy::default());
    }
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Freeze at any epoch boundary, thaw onto a fresh pool, replay the
    // tail: the final state is byte-identical to an uninterrupted run.
    // `rebalance` folds checkpoint-seam migrations into both the prefix
    // and the suffix.
    #[test]
    fn fleet_resume_at_any_boundary_is_suffix_equivalent(
        tenants in 4usize..14,
        seed in 0u64..1_000,
        cut in 1usize..4,
        rebalance in 0u8..2,
    ) {
        let devices = 2;
        let cfg = config(tenants, devices, seed, rebalance == 1);

        let mut whole = FleetSim::new(cfg.clone(), pool(devices, seed));
        let whole_report = whole.run().expect("uninterrupted run");

        let mut prefix = FleetSim::new(cfg.clone(), pool(devices, seed));
        for _ in 0..cut {
            prefix.run_epoch().expect("prefix epoch");
        }
        let state = FleetState::from_bytes(&prefix.state().to_bytes()).expect("decodes");
        let frozen = prefix.checkpoint_devices();
        drop(prefix); // the "kill": nothing survives but state + checkpoints

        let thawed = pool(devices, seed)
            .into_iter()
            .zip(frozen)
            .map(|(mut device, (head, checkpoint))| {
                device.restore_from(checkpoint).expect("thaw");
                SharedDevice::with_queue_head(device, head)
            })
            .collect();
        let mut resumed = FleetSim::from_state(state, thawed);
        let resumed_report = resumed.run().expect("suffix run");

        prop_assert_eq!(&whole_report, &resumed_report);
        // The state's bytes are the strongest equality the fleet offers:
        // placement, cursor positions, budgets, full histograms, migrations.
        prop_assert_eq!(whole.state().to_bytes(), resumed.state().to_bytes());
        prop_assert!(whole_report.violations.is_empty(), "{:?}", whole_report.violations);
    }

    // Rebalancing moves work, it never loses or duplicates it: every
    // tenant completes exactly the same I/Os and bytes with migrations
    // as without (only placement and latency may differ).
    #[test]
    fn migration_is_work_conserving(
        tenants in 4usize..14,
        seed in 0u64..1_000,
    ) {
        let devices = 2;
        let mut pinned = FleetSim::new(config(tenants, devices, seed, false), pool(devices, seed));
        let mut moved = FleetSim::new(config(tenants, devices, seed, true), pool(devices, seed));
        let pinned_report = pinned.run().expect("pinned run");
        let moved_report = moved.run().expect("rebalanced run");

        prop_assert!(pinned_report.violations.is_empty());
        prop_assert!(moved_report.violations.is_empty());
        prop_assert!(pinned_report.migrations.is_empty());
        for (a, b) in pinned_report.per_tenant.iter().zip(&moved_report.per_tenant) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.ios, b.ios, "tenant {} i/o count drifted", a.id);
            prop_assert_eq!(a.bytes, b.bytes, "tenant {} byte count drifted", a.id);
        }
        for m in &moved_report.migrations {
            prop_assert!(m.from.0 != m.to.0, "a migration must change device");
            prop_assert!(m.completed_at >= m.frozen_at);
        }
    }
}

/// Acceptance criterion: the known-skewed fleet (heavy-tail tenants
/// concentrated by contiguous placement) actually migrates, and the
/// suffix-equivalence above therefore covers real migrations, not just
/// quiet fleets.
#[test]
fn skewed_fleet_migrates_and_the_record_fingerprints_the_freeze() {
    let cfg = config(12, 2, 7, true);
    let mut sim = FleetSim::new(cfg, pool(2, 7));
    let report = sim.run().expect("skewed fleet runs");
    assert!(
        !report.migrations.is_empty(),
        "expected the default policy to migrate: {:?}",
        report.fairness_per_epoch
    );
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    // The freeze fingerprint is the CRC of the source device's encoded
    // checkpoint: nonzero for persistable devices, and stable run-to-run.
    let mut again = FleetSim::new(config(12, 2, 7, true), pool(2, 7));
    let report2 = again.run().expect("second run");
    for (a, b) in report.migrations.iter().zip(&report2.migrations) {
        assert_ne!(a.freeze_crc, 0, "eSSD checkpoints carry a codec");
        assert_eq!(a.freeze_crc, b.freeze_crc, "freeze must be deterministic");
    }
}

/// A rebalancing fleet of 32 tenants on 4 devices (at least one
/// migration), run to completion.
fn rebalancing_fleet() -> FleetSim {
    let mut sim = FleetSim::new(
        config(32, 4, 11, true).with_duration(SimDuration::from_millis(20)),
        pool(4, 11),
    );
    sim.run().expect("rebalancing fleet runs");
    sim
}

/// Golden bytes for a whole rebalancing fleet: the encoded final
/// state, the rendered report and the `uc.obs.v1` telemetry record
/// are pinned as `(len, crc32)`. How the epoch loop schedules its devices
/// (one after another or in parallel) must not move any of them.
#[test]
fn rebalancing_fleet_outputs_are_pinned() {
    let sim = rebalancing_fleet();
    let report = sim.report();
    assert!(
        !report.migrations.is_empty(),
        "the pinned fleet must migrate"
    );
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    let fingerprint = |bytes: &[u8]| (bytes.len(), crc32(bytes));
    let rendered = render_fleet_report(&fleet_exp::evaluate(report));
    // A migration's `crc` fingerprints the frozen device checkpoint, so
    // it moves with the device checkpoint format; nothing else may. The
    // masked rows pin every other byte across such a format change.
    let mut state = sim.state().clone();
    let unmasked = state.to_bytes();
    for m in &mut state.migrations {
        m.freeze_crc = 0;
    }
    let actual = [
        ("snapshot", fingerprint(&unmasked)),
        ("snapshot-masked", fingerprint(&state.to_bytes())),
        ("report", fingerprint(rendered.as_bytes())),
        (
            "report-masked",
            fingerprint(mask_crcs(&rendered).as_bytes()),
        ),
        ("obs", fingerprint(&sim.obs_report().to_record_bytes())),
    ];
    // `uc.fleet.v2`: the state leads with its config and holds each
    // tenant's cursor position instead of a consumed-entry count; the
    // queue heads moved beside the device checkpoints. The state rows
    // moved once; `uc.fleet.v1` read 989_808 bytes (0xa8b56495, masked
    // 0xb384ede5).
    let golden = [
        ("snapshot", (991_097, 0x26021f3b)),
        ("snapshot-masked", (991_097, 0x8395cf44)),
        ("report", (1_001, 0x69bda510)),
        ("report-masked", (1_001, 0x65c547d3)),
        ("obs", (15_023, 0xb11504b9)),
    ];
    assert_eq!(actual, golden);
}

/// `report` with the hex digits of every `crc xxxxxxxx` replaced by `*`.
fn mask_crcs(report: &str) -> String {
    let mut out = String::with_capacity(report.len());
    let mut rest = report;
    while let Some(at) = rest.find("crc ") {
        let (head, tail) = rest.split_at(at + "crc ".len());
        out.push_str(head);
        let digits = tail.len().min(8);
        out.extend(std::iter::repeat_n('*', digits));
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

// ---- fault injection: the conservation contract has teeth -------------

/// A seeded migration bug — the migrant is dropped instead of re-homed —
/// is caught by the `every-tenant-placed` invariant of the placement
/// contract at the next epoch-boundary audit, and reported as a finding
/// rather than a panic (so operators see it in the run report).
#[test]
fn seeded_dropped_migrant_is_caught_by_tenant_conservation() {
    let cfg = config(12, 2, 7, true);
    let mut sim = FleetSim::new(cfg, pool(2, 7));
    sim.arm_migration_fault();
    let report = sim.run().expect("violations are findings, not I/O errors");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.contains("every-tenant-placed") && v.contains("uc-fleet/Placement")),
        "conservation contract missed the dropped tenant: {:?}",
        report.violations
    );
}
