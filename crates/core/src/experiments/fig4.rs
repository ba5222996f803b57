//! Figure 4: random- versus sequential-write throughput and the
//! random/sequential gain.

use crate::devices::{DeviceKind, DeviceRoster};
use crate::experiments::Executor;
use uc_blockdev::IoError;
use uc_workload::{run_job, AccessPattern, JobSpec};

/// Workload grid for the Figure 4 sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig4Config {
    /// I/O sizes in bytes (paper: 4 KiB to 256 KiB).
    pub io_sizes: Vec<u32>,
    /// Queue depths (paper: 1 to 32).
    pub queue_depths: Vec<usize>,
    /// I/Os per measurement cell.
    pub ios_per_cell: u64,
}

impl Fig4Config {
    /// The paper's grid: sizes {4..256} KiB, depths {1..32}.
    pub fn paper() -> Self {
        Fig4Config {
            io_sizes: vec![
                4 << 10,
                8 << 10,
                16 << 10,
                32 << 10,
                64 << 10,
                128 << 10,
                256 << 10,
            ],
            queue_depths: vec![1, 2, 4, 8, 16, 32],
            ios_per_cell: 4_000,
        }
    }

    /// A reduced grid for tests and smoke runs.
    pub fn quick() -> Self {
        Fig4Config {
            io_sizes: vec![4 << 10, 32 << 10, 256 << 10],
            queue_depths: vec![1, 8, 32],
            ios_per_cell: 1_200,
        }
    }
}

/// Figure 4 results for one device.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Result {
    /// Which device was measured.
    pub device: DeviceKind,
    /// Grid columns (I/O sizes in bytes).
    pub io_sizes: Vec<u32>,
    /// Grid rows (queue depths).
    pub queue_depths: Vec<usize>,
    /// Random-write throughput in GB/s, `[qd][size]`.
    pub rand_gbps: Vec<Vec<f64>>,
    /// Sequential-write throughput in GB/s, `[qd][size]`.
    pub seq_gbps: Vec<Vec<f64>>,
}

impl Fig4Result {
    /// The random/sequential throughput gain, `[qd][size]` (the paper's
    /// blue lines; >1 means random writes win).
    pub fn gain(&self) -> Vec<Vec<f64>> {
        self.rand_gbps
            .iter()
            .zip(&self.seq_gbps)
            .map(|(rr, sr)| {
                rr.iter()
                    .zip(sr)
                    .map(|(r, s)| if *s > 0.0 { r / s } else { f64::INFINITY })
                    .collect()
            })
            .collect()
    }

    /// The largest gain in the grid and the `(queue_depth, io_size)` where
    /// it occurs.
    pub fn max_gain(&self) -> (f64, usize, u32) {
        let mut best = (0.0, self.queue_depths[0], self.io_sizes[0]);
        for (qi, row) in self.gain().iter().enumerate() {
            for (si, &g) in row.iter().enumerate() {
                if g.is_finite() && g > best.0 {
                    best = (g, self.queue_depths[qi], self.io_sizes[si]);
                }
            }
        }
        best
    }
}

/// Runs the Figure 4 sweep on `kind` on the default (per-core) executor.
///
/// Volumes stay well under the device capacity, matching the paper's
/// "when GC does not occur" framing for the local SSD.
///
/// # Errors
///
/// Propagates the first I/O error from the device.
pub fn run(
    roster: &DeviceRoster,
    kind: DeviceKind,
    cfg: &Fig4Config,
) -> Result<Fig4Result, IoError> {
    run_with(roster, kind, cfg, &Executor::from_env())
}

/// Runs the Figure 4 sweep on `kind`, fanning the (pattern, depth, size)
/// cells out on `exec`. Each cell builds its own seeded device
/// ([`DeviceRoster::build_seeded`]), so results are byte-identical for
/// any executor width.
///
/// # Errors
///
/// Propagates the first I/O error in deterministic (cell-order) priority
/// (the whole sweep still runs first; failing cells abort at their first
/// invalid submission, so a doomed sweep stays cheap).
pub fn run_with(
    roster: &DeviceRoster,
    kind: DeviceKind,
    cfg: &Fig4Config,
    exec: &Executor,
) -> Result<Fig4Result, IoError> {
    let mut cells = Vec::with_capacity(2 * cfg.queue_depths.len() * cfg.io_sizes.len());
    for &(pattern, salt_offset) in &[(AccessPattern::RandWrite, 0), (AccessPattern::SeqWrite, 50)] {
        for (qi, &qd) in cfg.queue_depths.iter().enumerate() {
            for (si, &size) in cfg.io_sizes.iter().enumerate() {
                let salt = (qi as u64) * 100 + si as u64 + salt_offset;
                cells.push(move || {
                    let mut dev = roster.build_seeded(kind, 0xF1640000 + salt);
                    // Enough I/Os for steady state at this depth, but
                    // bounded volume: the paper's cells never age the
                    // device into GC ("when GC does not occur"), so stay
                    // under half the capacity.
                    let ios = cfg
                        .ios_per_cell
                        .max(qd as u64 * 100)
                        .min((roster.capacity_of(kind) / 2 / size as u64).max(100));
                    let spec = JobSpec::new(pattern, size, qd)
                        .with_io_limit(ios)
                        .with_seed(0x46 + salt);
                    run_job(dev.as_mut(), &spec).map(|r| r.throughput_gbps())
                });
            }
        }
    }
    let mut measured = exec.run(cells).into_iter();
    let mut grid = || -> Result<Vec<Vec<f64>>, IoError> {
        cfg.queue_depths
            .iter()
            .map(|_| {
                cfg.io_sizes
                    .iter()
                    .map(|_| measured.next().unwrap())
                    .collect()
            })
            .collect()
    };
    let rand_gbps = grid()?;
    let seq_gbps = grid()?;
    Ok(Fig4Result {
        device: kind,
        io_sizes: cfg.io_sizes.clone(),
        queue_depths: cfg.queue_depths.clone(),
        rand_gbps,
        seq_gbps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn essd2_random_writes_win_big() {
        let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
        let cfg = Fig4Config {
            io_sizes: vec![64 << 10],
            queue_depths: vec![16],
            ios_per_cell: 800,
        };
        let r = run(&roster, DeviceKind::Essd2, &cfg).unwrap();
        let (gain, _, _) = r.max_gain();
        assert!(gain > 1.5, "ESSD-2 gain should be large, got {gain}");
    }

    #[test]
    fn ssd_gain_is_flat() {
        let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
        let cfg = Fig4Config {
            io_sizes: vec![64 << 10],
            queue_depths: vec![8],
            ios_per_cell: 800,
        };
        let r = run(&roster, DeviceKind::LocalSsd, &cfg).unwrap();
        let (gain, _, _) = r.max_gain();
        assert!(
            (0.8..1.25).contains(&gain),
            "pre-GC SSD should not care about write pattern, gain {gain}"
        );
    }
}
