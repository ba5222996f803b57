//! Figure 2: latency grids over access pattern × I/O size × queue depth.

use crate::devices::{DeviceKind, DeviceRoster};
use crate::experiments::Executor;
use uc_blockdev::IoError;
use uc_sim::SimDuration;
use uc_workload::{run_job, AccessPattern, JobSpec};

/// The four access patterns of Figure 2, in the paper's column order.
pub const FIG2_PATTERNS: [AccessPattern; 4] = [
    AccessPattern::RandWrite,
    AccessPattern::SeqWrite,
    AccessPattern::RandRead,
    AccessPattern::SeqRead,
];

/// Workload grid for the Figure 2 sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig2Config {
    /// I/O sizes in bytes (paper: 4 KiB to 256 KiB).
    pub io_sizes: Vec<u32>,
    /// Queue depths (paper: 1 to 16).
    pub queue_depths: Vec<usize>,
    /// I/Os per measurement cell (enough for a stable P99.9).
    pub ios_per_cell: u64,
}

impl Fig2Config {
    /// The paper's grid: sizes {4, 16, 64, 256} KiB, depths {1, 2, 4, 8,
    /// 16}, 20 000 I/Os per cell.
    pub fn paper() -> Self {
        Fig2Config {
            io_sizes: vec![4 << 10, 16 << 10, 64 << 10, 256 << 10],
            queue_depths: vec![1, 2, 4, 8, 16],
            ios_per_cell: 20_000,
        }
    }

    /// A reduced grid for tests and smoke runs (same sizes/depths, 2 000
    /// I/Os per cell).
    pub fn quick() -> Self {
        Fig2Config {
            ios_per_cell: 2_000,
            ..Fig2Config::paper()
        }
    }
}

/// One measurement cell: the paper reports the average and the P99.9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyCell {
    /// Average latency.
    pub avg: SimDuration,
    /// 99.9th-percentile latency.
    pub p999: SimDuration,
}

/// The latency grid of one access pattern: `cells[qd_index][size_index]`.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternGrid {
    /// The pattern this grid measured.
    pub pattern: AccessPattern,
    /// Cells indexed by `[queue_depth][io_size]` (same order as the
    /// config's vectors).
    pub cells: Vec<Vec<LatencyCell>>,
}

/// Figure 2 results for one device.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Result {
    /// Which device was measured.
    pub device: DeviceKind,
    /// The I/O sizes of the grid columns.
    pub io_sizes: Vec<u32>,
    /// The queue depths of the grid rows.
    pub queue_depths: Vec<usize>,
    /// One grid per pattern, in [`FIG2_PATTERNS`] order.
    pub grids: Vec<PatternGrid>,
}

impl Fig2Result {
    /// The cell for (`pattern_idx`, `qd_idx`, `size_idx`).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn cell(&self, pattern_idx: usize, qd_idx: usize, size_idx: usize) -> LatencyCell {
        self.grids[pattern_idx].cells[qd_idx][size_idx]
    }

    /// The ESSD/SSD latency-gap grid for one pattern: the multiple the
    /// paper prints at the top of each pixel. `p999` selects the tail
    /// metric instead of the average.
    ///
    /// # Panics
    ///
    /// Panics if the two results used different grids.
    pub fn gap_versus(&self, ssd: &Fig2Result, pattern_idx: usize, p999: bool) -> Vec<Vec<f64>> {
        assert_eq!(self.io_sizes, ssd.io_sizes, "grids must match");
        assert_eq!(self.queue_depths, ssd.queue_depths, "grids must match");
        self.grids[pattern_idx]
            .cells
            .iter()
            .zip(&ssd.grids[pattern_idx].cells)
            .map(|(er, sr)| {
                er.iter()
                    .zip(sr)
                    .map(|(e, s)| {
                        let (en, sn) = if p999 {
                            (e.p999.as_nanos(), s.p999.as_nanos())
                        } else {
                            (e.avg.as_nanos(), s.avg.as_nanos())
                        };
                        if sn == 0 {
                            f64::INFINITY
                        } else {
                            en as f64 / sn as f64
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

/// Runs the Figure 2 sweep for `kind` on the default (per-core) executor.
///
/// A fresh device is built per cell so buffer/FTL state cannot leak
/// between cells (the paper reboots its workloads per configuration too).
///
/// # Errors
///
/// Propagates the first I/O error (only possible with invalid custom
/// configs, e.g. I/O size exceeding the device capacity).
pub fn run(
    roster: &DeviceRoster,
    kind: DeviceKind,
    cfg: &Fig2Config,
) -> Result<Fig2Result, IoError> {
    run_with(roster, kind, cfg, &Executor::from_env())
}

/// Runs the Figure 2 sweep for `kind`, fanning the pattern × depth × size
/// cells out on `exec`.
///
/// Every cell is a self-contained job — it builds its own seeded device
/// ([`DeviceRoster::build_seeded`]) and runs one closed-loop
/// job — so results are byte-identical for any executor width.
///
/// # Errors
///
/// Propagates the first I/O error in deterministic (cell-order) priority.
/// The whole sweep still runs before the error surfaces — kept so the
/// returned error never depends on executor width; a failing cell aborts
/// at its first invalid submission, so a doomed sweep stays cheap.
pub fn run_with(
    roster: &DeviceRoster,
    kind: DeviceKind,
    cfg: &Fig2Config,
    exec: &Executor,
) -> Result<Fig2Result, IoError> {
    let mut cells = Vec::with_capacity(FIG2_PATTERNS.len() * cfg.queue_depths.len());
    for (pi, &pattern) in FIG2_PATTERNS.iter().enumerate() {
        for (qi, &qd) in cfg.queue_depths.iter().enumerate() {
            for (si, &size) in cfg.io_sizes.iter().enumerate() {
                cells.push(move || {
                    let mut dev = roster.build_seeded(
                        kind,
                        0xF1620000 + (pi as u64) * 1000 + (qi as u64) * 10 + si as u64,
                    );
                    // Cap the cell volume at half the device capacity: the
                    // paper's 20 k-I/O cells are a rounding error against a
                    // 1-2 TB device, and a latency cell must not age the FTL
                    // into garbage collection (that is Figure 3's job).
                    let max_ios = (roster.capacity_of(kind) / 2 / size as u64).max(100);
                    let spec = JobSpec::new(pattern, size, qd)
                        .with_io_limit(cfg.ios_per_cell.min(max_ios))
                        .with_seed(0x2B + si as u64);
                    let report = run_job(dev.as_mut(), &spec)?;
                    let (avg, p999) = report.headline_latency();
                    Ok(LatencyCell { avg, p999 })
                });
            }
        }
    }
    let mut measured = exec.run(cells).into_iter();

    let mut grids = Vec::with_capacity(FIG2_PATTERNS.len());
    for &pattern in FIG2_PATTERNS.iter() {
        let mut rows = Vec::with_capacity(cfg.queue_depths.len());
        for _ in &cfg.queue_depths {
            let row: Result<Vec<LatencyCell>, IoError> = cfg
                .io_sizes
                .iter()
                .map(|_| measured.next().unwrap())
                .collect();
            rows.push(row?);
        }
        grids.push(PatternGrid {
            pattern,
            cells: rows,
        });
    }
    Ok(Fig2Result {
        device: kind,
        io_sizes: cfg.io_sizes.clone(),
        queue_depths: cfg.queue_depths.clone(),
        grids,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> Fig2Config {
        Fig2Config {
            io_sizes: vec![4 << 10, 64 << 10],
            queue_depths: vec![1, 8],
            ios_per_cell: 300,
        }
    }

    #[test]
    fn grid_dimensions_match_config() {
        let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
        let r = run(&roster, DeviceKind::LocalSsd, &tiny_cfg()).unwrap();
        assert_eq!(r.grids.len(), 4);
        assert_eq!(r.grids[0].cells.len(), 2);
        assert_eq!(r.grids[0].cells[0].len(), 2);
        let c = r.cell(0, 0, 0);
        assert!(c.p999 >= c.avg);
    }

    #[test]
    fn gap_grid_shows_cloud_overhead() {
        let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
        let cfg = tiny_cfg();
        let ssd = run(&roster, DeviceKind::LocalSsd, &cfg).unwrap();
        let essd = run(&roster, DeviceKind::Essd1, &cfg).unwrap();
        // Random-write 4K QD1 gap (pattern 0): tens of x.
        let gaps = essd.gap_versus(&ssd, 0, false);
        assert!(
            gaps[0][0] > crate::contract::thresholds::OBS1_SINGLE_CELL_GAP_FLOOR,
            "small-write gap should be large, got {}",
            gaps[0][0]
        );
    }

    #[test]
    fn parallel_run_is_byte_identical_to_sequential() {
        let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
        let cfg = Fig2Config {
            io_sizes: vec![4 << 10, 64 << 10],
            queue_depths: vec![1, 8],
            ios_per_cell: 200,
        };
        let sequential =
            run_with(&roster, DeviceKind::Essd1, &cfg, &Executor::sequential()).unwrap();
        let parallel =
            run_with(&roster, DeviceKind::Essd1, &cfg, &Executor::with_threads(4)).unwrap();
        assert_eq!(sequential, parallel);
    }
}
