//! The four benchmark workloads and what one run of each ("unit")
//! measures.
//!
//! A unit is one complete, self-checking execution of a workload: set-up
//! (everything before the first simulated I/O) and the measured phase.
//! The driver in `main.rs` repeats units until the run's time is spent
//! and reports medians.

pub mod endurance;
pub mod fleet;
pub mod latency_grid;
pub mod serve;

use crate::timed::{sink, Sink};
use crate::{alloc, sys};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The seed at which every workload reproduces the matching `uc-core`
/// experiment exactly, so its output is compared with that experiment's.
pub const DEFAULT_SEED: u64 = 0;

/// Mixes the benchmark seed into one of the experiments' own base seeds.
/// At [`DEFAULT_SEED`] the base comes back unchanged.
pub fn derive(base: u64, seed: u64) -> u64 {
    base.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// fig3: 3x-capacity random writes on SSD, ESSD-1 and ESSD-2.
    Endurance,
    /// fig2: the 4 x 5 x 4 latency grid on all three devices.
    LatencyGrid,
    /// 1024 tenants on 32 shared eSSDs with rebalancing.
    Fleet1024,
    /// Trace replay through the served frontend over loopback TCP.
    ServeLoopback,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Endurance,
        Workload::LatencyGrid,
        Workload::Fleet1024,
        Workload::ServeLoopback,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Endurance => "endurance",
            Workload::LatencyGrid => "latency_grid",
            Workload::Fleet1024 => "fleet_1024",
            Workload::ServeLoopback => "serve_loopback",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs one unit, traced when `tracer` is given. `opts.check` adds
    /// the checks too costly for every unit; the caller compares every
    /// unit's output with the first's.
    pub fn run(self, opts: &Opts, tracer: Option<&Tracer>) -> Unit {
        match self {
            Workload::Endurance => endurance::run(opts, tracer),
            Workload::LatencyGrid => latency_grid::run(opts, tracer),
            Workload::Fleet1024 => fleet::run(opts, tracer),
            Workload::ServeLoopback => serve::run(opts, tracer),
        }
    }

    /// The matching `uc-core` experiment's output at [`DEFAULT_SEED`],
    /// rendered the way [`Unit::output`] is; `None` where there is no
    /// such experiment.
    pub fn reference(self) -> Option<String> {
        match self {
            Workload::Endurance => Some(endurance::reference()),
            Workload::LatencyGrid => Some(latency_grid::reference()),
            Workload::Fleet1024 => Some(fleet::reference()),
            Workload::ServeLoopback => None,
        }
    }
}

/// Per-unit options.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// The benchmark seed.
    pub seed: u64,
    /// Run the costly checks (the first unit of a run does).
    pub check: bool,
}

/// What one unit measured.
#[derive(Debug, Default)]
pub struct Unit {
    /// Host seconds before the first simulated I/O.
    pub setup_s: f64,
    /// Host wall seconds of the measured phase.
    pub wall_s: f64,
    /// Process CPU seconds of the measured phase.
    pub cpu_s: f64,
    /// Heap allocations of the measured phase.
    pub allocs: u64,
    /// Simulated I/Os completed.
    pub ios: u64,
    /// Host ns of each round trip into the system under test.
    pub rtt_ns: Vec<u64>,
    /// The simulated output, rendered; identical for identical seeds.
    pub output: String,
    /// Failed checks and errors, one line each.
    pub failures: Vec<String>,
    /// Requests refused (busy/shed) by the system under test.
    pub refused: u64,
}

impl Unit {
    /// Records the measured phase that `meter` started.
    pub fn finish(&mut self, meter: Meter) {
        self.wall_s = meter.wall.elapsed().as_secs_f64();
        self.cpu_s = (sys::process_cpu().saturating_sub(meter.cpu)).as_secs_f64();
        self.allocs = alloc::total() - meter.allocs;
    }

    /// Simulated I/Os per host wall-second of the measured phase.
    pub fn ios_per_s(&self) -> f64 {
        self.ios as f64 / self.wall_s.max(1e-9)
    }
}

/// The start of a measured phase.
pub struct Meter {
    wall: Instant,
    cpu: Duration,
    allocs: u64,
}

impl Meter {
    /// Starts measuring now.
    pub fn start() -> Meter {
        Meter {
            cpu: sys::process_cpu(),
            allocs: alloc::total(),
            wall: Instant::now(),
        }
    }
}

/// Everything a traced unit records: the device seams' timing sinks and
/// named per-layer values computed by the workloads.
pub struct Tracer {
    /// Per-request `Ssd::submit` timings (endurance and latency_grid).
    pub ssd: Sink,
    /// Per-request `Essd::submit` timings (endurance and latency_grid).
    pub essd: Sink,
    /// Per-request submits of fleet pool devices.
    pub fleet_device: Sink,
    /// Per-layer values and their units, by metric name.
    pub values: std::sync::Mutex<BTreeMap<&'static str, (f64, &'static str)>>,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Tracer {
        Tracer {
            ssd: sink(),
            essd: sink(),
            fleet_device: sink(),
            values: std::sync::Mutex::new(BTreeMap::new()),
        }
    }

    /// Records the per-layer value `name`, measured in `unit`.
    pub fn set(&self, name: &'static str, value: f64, unit: &'static str) {
        self.values
            .lock()
            .expect("tracer values lock poisoned by a panicking unit")
            .insert(name, (value, unit));
    }
}

/// The counters a device publishes through its `observe_into` seam.
pub struct Observed(uc_obs::MetricsRegistry);

impl Observed {
    /// Observes `device` now.
    pub fn of(device: &dyn uc_blockdev::BlockDevice) -> Observed {
        let mut reg = uc_obs::MetricsRegistry::new();
        device.observe_into("d", &mut reg);
        Observed(reg)
    }

    /// The counter `name` (0 if the device does not publish it).
    pub fn get(&self, name: &str) -> f64 {
        self.0.counter_by_name(&format!("d.{name}")).unwrap_or(0) as f64
    }
}
