//! Figure 5: throughput under mixed read/write workloads.

use crate::devices::{DeviceKind, DeviceRoster};
use crate::experiments::Executor;
use uc_blockdev::IoError;
use uc_workload::{run_job, AccessPattern, JobSpec};

/// Workload parameters for the Figure 5 mix sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Config {
    /// Write ratios to sweep (paper: 0 % to 100 %).
    pub write_ratios: Vec<f64>,
    /// I/O size in bytes (large, to reach the bandwidth envelope).
    pub io_size: u32,
    /// Queue depth.
    pub queue_depth: usize,
    /// I/Os per measurement cell.
    pub ios_per_cell: u64,
}

impl Fig5Config {
    /// The paper's sweep: write ratio 0..100 in steps of 10, 128 KiB I/Os
    /// at QD 32.
    pub fn paper() -> Self {
        Fig5Config {
            write_ratios: (0..=10).map(|i| i as f64 / 10.0).collect(),
            io_size: 128 << 10,
            queue_depth: 32,
            ios_per_cell: 6_000,
        }
    }

    /// A reduced sweep for tests and smoke runs.
    pub fn quick() -> Self {
        Fig5Config {
            write_ratios: vec![0.0, 0.3, 0.5, 0.7, 1.0],
            ios_per_cell: 1_500,
            ..Fig5Config::paper()
        }
    }
}

/// Figure 5 results for one device.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Result {
    /// Which device was measured.
    pub device: DeviceKind,
    /// The write ratios swept.
    pub write_ratios: Vec<f64>,
    /// Total (read + write) throughput at each ratio, GB/s (solid lines).
    pub total_gbps: Vec<f64>,
    /// Write-only throughput at each ratio, GB/s (dashed lines).
    pub write_gbps: Vec<f64>,
}

impl Fig5Result {
    /// Coefficient of variation of the total throughput across ratios —
    /// near zero for a budget-clamped device (Observation 4).
    pub fn total_cv(&self) -> f64 {
        uc_metrics::SummaryStats::from_samples(&self.total_gbps).cv()
    }

    /// Peak-to-trough spread of the total throughput relative to its mean.
    pub fn total_spread(&self) -> f64 {
        uc_metrics::SummaryStats::from_samples(&self.total_gbps).relative_spread()
    }

    /// Mean total throughput across ratios, GB/s.
    pub fn mean_total_gbps(&self) -> f64 {
        uc_metrics::SummaryStats::from_samples(&self.total_gbps).mean()
    }
}

/// Runs the Figure 5 sweep on `kind` on the default (per-core) executor.
///
/// Ratio 0 runs pure random reads, ratio 1 pure random writes, matching
/// the paper's endpoints.
///
/// # Errors
///
/// Propagates the first I/O error from the device.
pub fn run(
    roster: &DeviceRoster,
    kind: DeviceKind,
    cfg: &Fig5Config,
) -> Result<Fig5Result, IoError> {
    run_with(roster, kind, cfg, &Executor::from_env())
}

/// Runs the Figure 5 sweep on `kind`, fanning the per-ratio cells out on
/// `exec`. Each cell builds its own seeded device
/// ([`DeviceRoster::build_seeded`]), so results are byte-identical for any
/// executor width.
///
/// # Errors
///
/// Propagates the first I/O error in deterministic (cell-order) priority
/// (the whole sweep still runs first; failing cells abort at their first
/// invalid submission, so a doomed sweep stays cheap).
pub fn run_with(
    roster: &DeviceRoster,
    kind: DeviceKind,
    cfg: &Fig5Config,
    exec: &Executor,
) -> Result<Fig5Result, IoError> {
    let cells: Vec<_> = cfg
        .write_ratios
        .iter()
        .enumerate()
        .map(|(i, &ratio)| {
            move || {
                let pattern = if ratio <= 0.0 {
                    AccessPattern::RandRead
                } else if ratio >= 1.0 {
                    AccessPattern::RandWrite
                } else {
                    AccessPattern::Mixed {
                        write_ratio: ratio,
                        random: true,
                    }
                };
                let mut dev = roster.build_seeded(kind, 0xF1650000 + i as u64);
                // Keep the written volume under half the capacity so device
                // GC stays out of the mix sweep (as in the paper's short
                // FIO runs).
                let write_frac = ratio.max(0.1);
                let max_ios = ((roster.capacity_of(kind) / 2) as f64
                    / (cfg.io_size as f64 * write_frac)) as u64;
                let spec = JobSpec::new(pattern, cfg.io_size, cfg.queue_depth)
                    .with_io_limit(cfg.ios_per_cell.min(max_ios.max(200)))
                    .with_seed(0x55 + i as u64);
                let report = run_job(dev.as_mut(), &spec)?;
                let secs = report.finished_at.as_secs_f64();
                let write = if secs > 0.0 {
                    report.write_throughput.total_bytes() as f64 / 1e9 / secs
                } else {
                    0.0
                };
                Ok::<(f64, f64), IoError>((report.throughput_gbps(), write))
            }
        })
        .collect();
    let measured: Result<Vec<(f64, f64)>, IoError> = exec.run(cells).into_iter().collect();
    let (total, write) = measured?.into_iter().unzip();
    Ok(Fig5Result {
        device: kind,
        write_ratios: cfg.write_ratios.clone(),
        total_gbps: total,
        write_gbps: write,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn essd_total_is_flat_at_budget() {
        let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
        let cfg = Fig5Config {
            write_ratios: vec![0.0, 0.5, 1.0],
            ios_per_cell: 1_000,
            ..Fig5Config::paper()
        };
        let r = run(&roster, DeviceKind::Essd1, &cfg).unwrap();
        assert!(
            r.total_cv() < 0.1,
            "budget-clamped device should be flat, cv {}",
            r.total_cv()
        );
        // Write share grows with the ratio.
        assert!(r.write_gbps[0] < 0.05);
        assert!(r.write_gbps[2] > r.write_gbps[1]);
    }

    #[test]
    fn ssd_total_varies_with_mix() {
        let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
        let cfg = Fig5Config {
            write_ratios: vec![0.0, 0.5, 1.0],
            ios_per_cell: 2_500,
            ..Fig5Config::paper()
        };
        let r = run(&roster, DeviceKind::LocalSsd, &cfg).unwrap();
        assert!(
            r.total_spread() > 0.15,
            "local SSD throughput should depend on the mix, spread {}",
            r.total_spread()
        );
    }
}
