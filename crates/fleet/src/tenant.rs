//! Tenant synthesis: deterministic per-tenant workloads and budgets.
//!
//! A fleet is populated from a single seed: every tenant's arrival shape,
//! rate, write mix, and token-bucket budget is a pure function of
//! `(fleet seed, tenant id)`, so the same [`FleetConfig`](crate::FleetConfig)
//! always describes the same population — on every run, every resume, and
//! every machine. A heavy-tailed rate draw (a small fraction of tenants
//! run several times hotter than the rest) gives the initial contiguous
//! placement a natural imbalance for the rebalancer to find.

use uc_sim::{SimDuration, SimRng};
use uc_trace::TraceSpec;

/// How many tenants of each arrival shape a fleet synthesizes, as integer
/// weights (tenant `id` cycles through the bands).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeMix {
    /// Weight of steady-rate tenants.
    pub steady: u32,
    /// Weight of diurnal (day/night swing) tenants.
    pub diurnal: u32,
    /// Weight of bursty ON/OFF tenants.
    pub bursty: u32,
}

impl ShapeMix {
    /// The default population: half steady, a quarter diurnal, a quarter
    /// bursty.
    pub fn default_mix() -> Self {
        ShapeMix {
            steady: 2,
            diurnal: 1,
            bursty: 1,
        }
    }

    /// Sum of the weights.
    ///
    /// # Panics
    ///
    /// Panics if every weight is zero.
    pub fn total(&self) -> u32 {
        let total = self.steady + self.diurnal + self.bursty;
        assert!(total > 0, "shape mix needs at least one non-zero weight");
        total
    }
}

impl Default for ShapeMix {
    fn default() -> Self {
        ShapeMix::default_mix()
    }
}

/// Fraction of tenants drawn hot, and how much hotter they run.
const HOT_FRACTION: f64 = 0.125;
const HOT_MULTIPLIER: f64 = 6.0;

/// One synthesized tenant: its trace generator and its budget.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// The tenant's id (its index in the fleet).
    pub id: u32,
    /// Generator for the tenant's arrival stream. Offsets are *relative*
    /// to the tenant's placement region (`span` = the region span); the
    /// interleaver shifts them to the region base at submit time.
    pub trace: TraceSpec,
    /// Token-bucket burst, in bytes.
    pub burst_bytes: f64,
    /// Token-bucket refill rate, in bytes per second.
    pub rate_bytes_per_sec: f64,
}

impl TenantSpec {
    /// Synthesizes tenant `id` of a fleet: shape from the mix band,
    /// rate/write-mix from a tenant-keyed RNG, budget at 1.25× the
    /// tenant's mean offered bytes/second (so bursts and diurnal crests
    /// overrun the budget and throttle, but the mean load clears it).
    pub fn synthesize(
        id: u32,
        mix: &ShapeMix,
        fleet_seed: u64,
        region_span: u64,
        duration: SimDuration,
        io_size: u32,
    ) -> Self {
        let mut rng = SimRng::new(
            fleet_seed ^ (0x7E4A_4700_0000_0000 | (id as u64).wrapping_mul(0x9E37_79B9)),
        );
        let mut iops = rng.range_u64(800, 1600) as f64;
        if rng.chance(HOT_FRACTION) {
            iops *= HOT_MULTIPLIER;
        }
        let band = id % mix.total();
        let shape = if band < mix.steady {
            TraceSpec::steady(iops)
        } else if band < mix.steady + mix.diurnal {
            // Crest at 1.5x the nominal rate (mean stays ~iops), one full
            // swing per half duration.
            TraceSpec::diurnal(iops * 0.5, iops * 1.5, duration.mul_f64(0.5))
        } else {
            // 25% duty cycle at 4x the nominal rate: mean stays ~iops but
            // each ON window overruns the budget.
            TraceSpec::bursty(
                SimDuration::from_millis(2),
                SimDuration::from_millis(6),
                iops * 4.0,
            )
        };
        let write_ratio = [1.0, 0.7, 0.5][rng.range_u64(0, 3) as usize];
        let trace = shape
            .with_duration(duration)
            .with_io_size(io_size)
            .with_write_ratio(write_ratio)
            .with_span(region_span)
            .with_seed(fleet_seed ^ (0x7E4A_0000_0000_0000 | id as u64));
        let mean_bytes_per_sec = trace.mean_iops() * io_size as f64;
        TenantSpec {
            id,
            trace,
            burst_bytes: 8.0 * io_size as f64,
            rate_bytes_per_sec: 1.25 * mean_bytes_per_sec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u32) -> TenantSpec {
        TenantSpec::synthesize(
            id,
            &ShapeMix::default_mix(),
            0xF1EE7,
            16 << 20,
            SimDuration::from_millis(100),
            4096,
        )
    }

    #[test]
    fn synthesis_is_deterministic_per_tenant() {
        assert_eq!(spec(7), spec(7));
        assert_ne!(spec(7), spec(8), "different tenants draw different specs");
        assert_eq!(spec(7).trace.generate(), spec(7).trace.generate());
    }

    #[test]
    fn mix_bands_cycle_through_shapes() {
        use uc_trace::ArrivalShape;
        // Default mix 2:1:1 — ids 0,1 steady, 2 diurnal, 3 bursty, repeat.
        assert!(matches!(spec(0).trace.shape, ArrivalShape::Steady { .. }));
        assert!(matches!(spec(1).trace.shape, ArrivalShape::Steady { .. }));
        assert!(matches!(spec(2).trace.shape, ArrivalShape::Diurnal { .. }));
        assert!(matches!(spec(3).trace.shape, ArrivalShape::OnOff { .. }));
        assert!(matches!(spec(4).trace.shape, ArrivalShape::Steady { .. }));
    }

    #[test]
    fn population_has_a_heavy_tail() {
        let rates: Vec<f64> = (0..256).map(|id| spec(id).trace.mean_iops()).collect();
        let hot = rates.iter().filter(|&&r| r >= 1600.0).count();
        // ~12.5% of 256 tenants; wide tolerance, determinism is the point.
        assert!((8..=64).contains(&hot), "{hot} hot tenants");
        let max = rates.iter().cloned().fold(0.0, f64::max);
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min > 3.0, "tail spread {min}..{max}");
    }

    #[test]
    fn budget_clears_mean_load_but_not_bursts() {
        for id in 0..16 {
            let s = spec(id);
            let mean = s.trace.mean_iops() * 4096.0;
            assert!(s.rate_bytes_per_sec > mean, "budget clears the mean");
            assert!(
                s.rate_bytes_per_sec < 2.0 * mean,
                "budget binds under bursts"
            );
        }
    }
}
