//! The unwritten contract as checkable predicates.
//!
//! Each of the paper's four observations becomes a function from
//! experiment results to an [`ObservationResult`] with a pass/fail verdict
//! and human-readable evidence. [`check_all`] bundles them into a
//! [`ContractReport`].
//!
//! The checks are *shape* checks: they assert the qualitative claims the
//! paper makes (who wins, by roughly what factor, where knees fall), not
//! testbed-exact numbers.

use crate::devices::DeviceKind;
use crate::experiments::{Fig2Result, Fig3Result, Fig4Result, Fig5Result};
use std::fmt;
use thresholds::*;

/// The calibrated pass/fail thresholds of the four observation checks.
///
/// These are **calibrated, not derived**: each encodes where the paper's
/// qualitative claim ("tens of times", "much later", "no longer
/// sensitive") is separated from noise *for the calibrated roster at
/// simulation scale*. Recalibrating the roster (capacities, budgets,
/// network profile) means revisiting this module as a whole — the
/// constants live together so that a recalibration touches one place.
pub mod thresholds {
    /// Obs 1: the worst small-I/O (4 KiB, QD 1) ESSD/SSD latency gap must
    /// be at least this multiple. The paper reports "tens to a hundred
    /// times"; 10× is the floor below which the claim is no longer
    /// qualitatively true.
    pub const OBS1_MIN_SMALL_IO_GAP: f64 = 10.0;

    /// Obs 1: scaling I/Os up (largest size × deepest queue) must shrink
    /// the worst gap by at least this factor versus the small-I/O corner.
    /// The paper's grids collapse from tens-of-× to single digits; a 2×
    /// shrink is the weakest shape consistent with "the gap disappears as
    /// I/Os scale up".
    pub const OBS1_MIN_SCALE_UP_SHRINK: f64 = 2.0;

    /// Obs 1 (single-cell demos): a conservative floor on the 4 KiB/QD 1
    /// random-write gap used by the facade quickstart doctest and smoke
    /// tests that only measure one cell. Half of
    /// [`OBS1_MIN_SMALL_IO_GAP`] — one cell on a reduced-capacity roster
    /// is noisier than the full-grid worst case.
    pub const OBS1_SINGLE_CELL_GAP_FLOOR: f64 = 5.0;

    /// Obs 2: the local SSD's GC knee must appear by this multiple of its
    /// capacity. The paper measures 0.9×; the simulated FTL's gradual
    /// write-amplification ramp lands the half-throughput point later
    /// (`fig3` prints 1.45× at scale 1 and 1.55× at `--scale 16`), so
    /// accept up to 1.6× — still far from the ESSDs' 2.55× / never.
    pub const OBS2_MAX_SSD_KNEE: f64 = 1.6;

    /// Obs 2: an ESSD knee (if any) must appear at or after this capacity
    /// multiple to count as "much later" than the SSD's ~1× collapse.
    /// ESSD-1's provider throttle engages at 2.55× in the paper.
    pub const OBS2_MIN_ESSD_KNEE: f64 = 2.0;

    /// Obs 3: the pre-GC local SSD's random/sequential write gain must
    /// stay inside this band to count as pattern-indifferent. The band is
    /// asymmetric: the write buffer slightly favors random bursts.
    pub const OBS3_SSD_NEUTRAL_GAIN: (f64, f64) = (0.8, 1.3);

    /// Obs 3: an ESSD's best random/sequential gain must exceed this for
    /// a "clear random-write win". The paper reports 1.52× (ESSD-1) and
    /// 2.79× (ESSD-2); 1.3 separates the win from the SSD's neutral band.
    pub const OBS3_MIN_ESSD_GAIN: f64 = 1.3;

    /// Obs 4: coefficient of variation of an ESSD's total throughput
    /// across read/write mixes must stay below this for "deterministic,
    /// no longer sensitive to the access pattern". A budget-clamped
    /// device measures ≪ 0.05; 0.1 leaves headroom for short-run noise.
    pub const OBS4_MAX_ESSD_CV: f64 = 0.1;

    /// Obs 4: the local SSD's peak-to-trough throughput spread across
    /// mixes must exceed this fraction of its mean — the baseline really
    /// does move with the mix (read and write envelopes differ by ~2×).
    pub const OBS4_MIN_SSD_SPREAD: f64 = 0.15;

    /// Trace experiment: a replay phase whose mean latency exceeds the
    /// device's best phase by more than this factor is flagged as a
    /// burst-overdrive violation — the arrival pattern pushed the device
    /// past its budget (the queueing Implication 4 tells clients to
    /// smooth away). 3× separates real overdrive from the ~2× swing
    /// ordinary queue-depth variation produces.
    pub const TRACE_PHASE_LATENCY_BLOWUP: f64 = 3.0;

    /// Trace experiment: a phase whose last completion runs past the
    /// phase's nominal end by more than this fraction of the phase
    /// length is flagged as sustained saturation — the device is not
    /// absorbing the offered load in the phase it arrived. Transient
    /// spill-over from a burst at a phase edge stays well under half a
    /// phase.
    pub const TRACE_MAX_PHASE_LAG: f64 = 0.5;

    /// Fleet experiment: a tenant whose mean latency exceeds the fleet's
    /// mean of tenant means by more than this factor is flagged as a
    /// noisy-neighbor victim — its requests queue behind co-located
    /// tenants' bursts (latency is measured from the budget grant, so a
    /// tenant's *own* throttling can never trip this). 3× separates real
    /// interference from the spread heterogeneous arrival shapes produce
    /// on a healthy fleet.
    pub const FLEET_TENANT_LATENCY_BLOWUP: f64 = 3.0;

    /// Fleet experiment: an epoch whose Jain fairness index (over the
    /// tenants' inverse mean latencies) falls below this floor is
    /// flagged as a fairness collapse — service quality diverged so far
    /// across tenants that some device's residents are starving, the
    /// placement skew the rebalancer exists to drain. A healthy mixed
    /// fleet stays well above 0.5; one tenant taking everything scores
    /// `1/n`.
    pub const FLEET_MIN_FAIRNESS: f64 = 0.5;
}

/// Verdict and evidence for one observation.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservationResult {
    /// Observation number (1–4).
    pub id: u8,
    /// The paper's one-line statement.
    pub title: String,
    /// Whether the simulated devices uphold the observation.
    pub passed: bool,
    /// Supporting measurements, one line each.
    pub evidence: Vec<String>,
}

impl fmt::Display for ObservationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Observation #{}: {} — {}",
            self.id,
            self.title,
            if self.passed { "HOLDS" } else { "VIOLATED" }
        )?;
        for line in &self.evidence {
            writeln!(f, "  · {line}")?;
        }
        Ok(())
    }
}

/// All four observations together.
#[derive(Debug, Clone, PartialEq)]
pub struct ContractReport {
    /// Individual verdicts, in observation order.
    pub observations: Vec<ObservationResult>,
}

impl ContractReport {
    /// `true` if every observation holds.
    pub fn all_hold(&self) -> bool {
        self.observations.iter().all(|o| o.passed)
    }
}

impl fmt::Display for ContractReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== The Unwritten Contract of Cloud-based ESSDs ===")?;
        for o in &self.observations {
            write!(f, "{o}")?;
        }
        writeln!(
            f,
            "Contract {}",
            if self.all_hold() {
                "UPHELD: all four observations reproduced"
            } else {
                "NOT UPHELD: see violations above"
            }
        )
    }
}

fn fmt_gap(g: f64) -> String {
    format!("{g:.1}x")
}

/// Observation 1: *the latency of ESSDs is tens to a hundred times higher
/// than that of SSD when I/Os are not well scaled up*, the gap shrinking
/// as I/O size and queue depth grow, and smallest for random reads.
///
/// Expects Figure 2 results for the SSD and at least one ESSD (grids must
/// share dimensions).
pub fn check_observation1(ssd: &Fig2Result, essds: &[&Fig2Result]) -> ObservationResult {
    let mut evidence = Vec::new();
    let mut passed = !essds.is_empty();
    let last_q = ssd.queue_depths.len() - 1;
    let last_s = ssd.io_sizes.len() - 1;
    for essd in essds {
        // Gap at the smallest scale, per pattern (0 = rand write,
        // 2 = rand read, 3 = seq read).
        let gaps_small: Vec<f64> = (0..4)
            .map(|p| essd.gap_versus(ssd, p, false)[0][0])
            .collect();
        let gaps_big: Vec<f64> = (0..4)
            .map(|p| essd.gap_versus(ssd, p, false)[last_q][last_s])
            .collect();
        let worst_small = gaps_small.iter().cloned().fold(0.0, f64::max);
        let worst_big = gaps_big.iter().cloned().fold(0.0, f64::max);
        evidence.push(format!(
            "{}: 4K/QD1 gaps [rw {}, sw {}, rr {}, sr {}]; largest gap at full scale {}",
            essd.device,
            fmt_gap(gaps_small[0]),
            fmt_gap(gaps_small[1]),
            fmt_gap(gaps_small[2]),
            fmt_gap(gaps_small[3]),
            fmt_gap(worst_big),
        ));
        // (a) unscaled I/O pays a very large penalty;
        if worst_small < OBS1_MIN_SMALL_IO_GAP {
            passed = false;
            evidence.push(format!(
                "{}: VIOLATION: worst small-I/O gap only {}",
                essd.device,
                fmt_gap(worst_small)
            ));
        }
        // (b) scaling up shrinks the gap substantially;
        if worst_big > worst_small / OBS1_MIN_SCALE_UP_SHRINK {
            passed = false;
            evidence.push(format!(
                "{}: VIOLATION: scaling up did not shrink the gap ({} -> {})",
                essd.device,
                fmt_gap(worst_small),
                fmt_gap(worst_big)
            ));
        }
        // (c) the random-read gap is the smallest of the four patterns.
        let rr = gaps_small[2];
        if gaps_small
            .iter()
            .enumerate()
            .any(|(p, &g)| p != 2 && g < rr)
        {
            passed = false;
            evidence.push(format!(
                "{}: VIOLATION: random-read gap {} is not the smallest",
                essd.device,
                fmt_gap(rr)
            ));
        }
    }
    ObservationResult {
        id: 1,
        title: "ESSD latency is tens to a hundred times the SSD's when I/Os \
                are not scaled up"
            .to_string(),
        passed,
        evidence,
    }
}

/// Observation 2: *the performance impact of GC appears much later or even
/// disappears* on ESSDs, while the local SSD collapses near 1× capacity.
pub fn check_observation2(results: &[&Fig3Result]) -> ObservationResult {
    let mut evidence = Vec::new();
    let mut passed = true;
    let mut saw_ssd = false;
    for r in results {
        let knee = r.knee_multiple();
        match knee {
            Some(k) => evidence.push(format!(
                "{}: peak {:.2} GB/s, knee at {:.2}x capacity, tail {:.2} GB/s",
                r.device,
                r.peak_gbps(),
                k,
                r.tail_gbps()
            )),
            None => evidence.push(format!(
                "{}: peak {:.2} GB/s, sustained to end of run (no knee)",
                r.device,
                r.peak_gbps()
            )),
        }
        match r.device {
            DeviceKind::LocalSsd => {
                saw_ssd = true;
                match knee {
                    Some(k) if k <= OBS2_MAX_SSD_KNEE => {}
                    _ => {
                        passed = false;
                        evidence.push(format!(
                            "{}: VIOLATION: expected GC collapse near 1x capacity",
                            r.device
                        ));
                    }
                }
            }
            _ => {
                // ESSDs: knee absent, or far later than the SSD's.
                if let Some(k) = knee {
                    if k < OBS2_MIN_ESSD_KNEE {
                        passed = false;
                        evidence.push(format!(
                            "{}: VIOLATION: knee at {k:.2}x is not 'much later'",
                            r.device
                        ));
                    }
                }
            }
        }
    }
    if !saw_ssd {
        passed = false;
        evidence.push("VIOLATION: no local-SSD baseline provided".to_string());
    }
    ObservationResult {
        id: 2,
        title: "The performance impact of GC appears much later or even \
                disappears"
            .to_string(),
        passed,
        evidence,
    }
}

/// Observation 3: *random-write throughput outperforms sequential-write
/// throughput* on ESSDs (up to 1.52× / 2.79× in the paper), while the
/// pre-GC local SSD is pattern-indifferent.
pub fn check_observation3(results: &[&Fig4Result]) -> ObservationResult {
    let mut evidence = Vec::new();
    let mut passed = true;
    for r in results {
        let (gain, qd, size) = r.max_gain();
        evidence.push(format!(
            "{}: max random/sequential gain {:.2}x at QD{} / {} KiB",
            r.device,
            gain,
            qd,
            size >> 10
        ));
        match r.device {
            DeviceKind::LocalSsd => {
                if !(OBS3_SSD_NEUTRAL_GAIN.0..=OBS3_SSD_NEUTRAL_GAIN.1).contains(&gain) {
                    passed = false;
                    evidence.push(format!(
                        "{}: VIOLATION: pre-GC SSD should be pattern-neutral",
                        r.device
                    ));
                }
            }
            _ => {
                if gain < OBS3_MIN_ESSD_GAIN {
                    passed = false;
                    evidence.push(format!(
                        "{}: VIOLATION: expected a clear random-write win",
                        r.device
                    ));
                }
            }
        }
    }
    ObservationResult {
        id: 3,
        title: "Random-write throughput outperforms sequential-write \
                throughput on ESSDs"
            .to_string(),
        passed,
        evidence,
    }
}

/// Observation 4: *the maximum bandwidth is deterministic and no longer
/// sensitive to the access pattern* on ESSDs, while the local SSD's
/// envelope moves with the read/write mix.
pub fn check_observation4(ssd: &Fig5Result, essds: &[&Fig5Result]) -> ObservationResult {
    let mut evidence = Vec::new();
    let mut passed = true;
    for r in essds {
        evidence.push(format!(
            "{}: total throughput mean {:.2} GB/s, cv {:.3} across mixes",
            r.device,
            r.mean_total_gbps(),
            r.total_cv()
        ));
        if r.total_cv() > OBS4_MAX_ESSD_CV {
            passed = false;
            evidence.push(format!(
                "{}: VIOLATION: budget-clamped bandwidth should be flat",
                r.device
            ));
        }
    }
    evidence.push(format!(
        "{}: total throughput {:.2}..{:.2} GB/s (spread {:.0}% of mean)",
        ssd.device,
        uc_metrics::SummaryStats::from_samples(&ssd.total_gbps).min(),
        uc_metrics::SummaryStats::from_samples(&ssd.total_gbps).max(),
        ssd.total_spread() * 100.0
    ));
    if ssd.total_spread() < OBS4_MIN_SSD_SPREAD {
        passed = false;
        evidence.push("SSD: VIOLATION: local SSD bandwidth should vary with the mix".to_string());
    }
    ObservationResult {
        id: 4,
        title: "The maximum bandwidth is deterministic and no longer \
                sensitive to the access pattern"
            .to_string(),
        passed,
        evidence,
    }
}

/// Everything [`check_all`] consumes: per-device results for Figures 2–5.
#[derive(Debug, Clone)]
pub struct ContractInputs {
    /// Figure 2 for the local SSD.
    pub fig2_ssd: Fig2Result,
    /// Figure 2 for each ESSD.
    pub fig2_essds: Vec<Fig2Result>,
    /// Figure 3 for all devices (must include the local SSD).
    pub fig3: Vec<Fig3Result>,
    /// Figure 4 for all devices.
    pub fig4: Vec<Fig4Result>,
    /// Figure 5 for the local SSD.
    pub fig5_ssd: Fig5Result,
    /// Figure 5 for each ESSD.
    pub fig5_essds: Vec<Fig5Result>,
}

/// Checks all four observations.
pub fn check_all(inputs: &ContractInputs) -> ContractReport {
    let fig2_refs: Vec<&Fig2Result> = inputs.fig2_essds.iter().collect();
    let fig3_refs: Vec<&Fig3Result> = inputs.fig3.iter().collect();
    let fig4_refs: Vec<&Fig4Result> = inputs.fig4.iter().collect();
    let fig5_refs: Vec<&Fig5Result> = inputs.fig5_essds.iter().collect();
    ContractReport {
        observations: vec![
            check_observation1(&inputs.fig2_ssd, &fig2_refs),
            check_observation2(&fig3_refs),
            check_observation3(&fig4_refs),
            check_observation4(&inputs.fig5_ssd, &fig5_refs),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{LatencyCell, PatternGrid};
    use uc_sim::SimDuration;
    use uc_workload::AccessPattern;

    /// Builds a 2x2 grid where the device's latency scales by `grow` from
    /// the (4K, QD1) corner to the (256K, QD16) corner.
    fn synthetic_fig2(device: DeviceKind, base_us: u64, rr_us: u64, grow: u64) -> Fig2Result {
        let cell = |us: u64| LatencyCell {
            avg: SimDuration::from_micros(us),
            p999: SimDuration::from_micros(us * 3),
        };
        let grid = |us: u64| PatternGrid {
            pattern: AccessPattern::RandWrite,
            cells: vec![
                vec![cell(us), cell(us * grow)],
                vec![cell(us), cell(us * grow)],
            ],
        };
        Fig2Result {
            device,
            io_sizes: vec![4096, 262144],
            queue_depths: vec![1, 16],
            grids: vec![grid(base_us), grid(base_us), grid(rr_us), grid(base_us)],
        }
    }

    #[test]
    fn observation1_passes_on_paper_shape() {
        // SSD latency grows 10x with I/O size (transfer-bound); the ESSD
        // stays flat (network-bound): the gap collapses from 33x to 3.3x.
        let ssd = synthetic_fig2(DeviceKind::LocalSsd, 10, 50, 10);
        let essd = synthetic_fig2(DeviceKind::Essd1, 330, 470, 1);
        let res = check_observation1(&ssd, &[&essd]);
        assert!(res.passed, "{res}");
    }

    #[test]
    fn observation1_fails_when_gap_small() {
        let ssd = synthetic_fig2(DeviceKind::LocalSsd, 100, 100, 1);
        let essd = synthetic_fig2(DeviceKind::Essd1, 150, 140, 1);
        let res = check_observation1(&ssd, &[&essd]);
        assert!(!res.passed);
    }

    fn synthetic_fig3(device: DeviceKind, knee_at: Option<f64>) -> Fig3Result {
        let mut pts = Vec::new();
        for i in 0..300 {
            let x = i as f64 / 100.0; // 0..3x capacity
            let y = match knee_at {
                Some(k) if x > k => 0.2,
                _ => 2.7,
            };
            pts.push((x, y));
        }
        Fig3Result {
            device,
            capacity: 1 << 30,
            time_series: uc_metrics::Series::from_points("t", pts.clone()),
            volume_series: uc_metrics::Series::from_points("v", pts),
        }
    }

    #[test]
    fn observation2_passes_on_paper_shape() {
        let ssd = synthetic_fig3(DeviceKind::LocalSsd, Some(0.9));
        let e1 = synthetic_fig3(DeviceKind::Essd1, Some(2.55));
        let e2 = synthetic_fig3(DeviceKind::Essd2, None);
        let res = check_observation2(&[&ssd, &e1, &e2]);
        assert!(res.passed, "{res}");
    }

    #[test]
    fn observation2_fails_if_essd_collapses_early() {
        let ssd = synthetic_fig3(DeviceKind::LocalSsd, Some(0.9));
        let e1 = synthetic_fig3(DeviceKind::Essd1, Some(1.0));
        let res = check_observation2(&[&ssd, &e1]);
        assert!(!res.passed);
    }

    fn synthetic_fig4(device: DeviceKind, gain: f64) -> Fig4Result {
        Fig4Result {
            device,
            io_sizes: vec![4096],
            queue_depths: vec![32],
            rand_gbps: vec![vec![gain]],
            seq_gbps: vec![vec![1.0]],
        }
    }

    #[test]
    fn observation3_checks_gain_split() {
        let res = check_observation3(&[
            &synthetic_fig4(DeviceKind::LocalSsd, 1.0),
            &synthetic_fig4(DeviceKind::Essd1, 1.5),
            &synthetic_fig4(DeviceKind::Essd2, 2.8),
        ]);
        assert!(res.passed, "{res}");
        let res = check_observation3(&[&synthetic_fig4(DeviceKind::Essd1, 1.05)]);
        assert!(!res.passed);
    }

    fn synthetic_fig5(device: DeviceKind, totals: Vec<f64>) -> Fig5Result {
        Fig5Result {
            device,
            write_ratios: (0..totals.len()).map(|i| i as f64).collect(),
            write_gbps: vec![0.0; totals.len()],
            total_gbps: totals,
        }
    }

    #[test]
    fn observation4_checks_flat_versus_varying() {
        let ssd = synthetic_fig5(DeviceKind::LocalSsd, vec![3.5, 4.3, 2.5, 2.7]);
        let e1 = synthetic_fig5(DeviceKind::Essd1, vec![3.0, 3.01, 2.99, 3.0]);
        let res = check_observation4(&ssd, &[&e1]);
        assert!(res.passed, "{res}");

        let wobbly = synthetic_fig5(DeviceKind::Essd1, vec![3.0, 2.0, 1.0, 2.5]);
        let res = check_observation4(&ssd, &[&wobbly]);
        assert!(!res.passed);
    }

    #[test]
    fn report_display_mentions_verdicts() {
        let ssd = synthetic_fig5(DeviceKind::LocalSsd, vec![3.5, 2.5]);
        let e1 = synthetic_fig5(DeviceKind::Essd1, vec![3.0, 3.0]);
        let obs = check_observation4(&ssd, &[&e1]);
        let report = ContractReport {
            observations: vec![obs],
        };
        let text = report.to_string();
        assert!(text.contains("HOLDS"));
        assert!(text.contains("Unwritten Contract"));
        assert!(report.all_hold());
    }
}
