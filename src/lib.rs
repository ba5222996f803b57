//! # unwritten-contract
//!
//! A full reproduction of *"The Unwritten Contract of Cloud-based Elastic
//! Solid-State Drives"* (DAC 2025) as a Rust workspace: a deterministic
//! simulation of the paper's three devices (a local NVMe SSD with a real
//! FTL, and two cloud elastic SSDs backed by a replicated, disaggregated
//! storage cluster), the FIO-like workload harness that characterizes
//! them, runners for every table and figure in the paper, and the
//! unwritten contract itself as a checkable artifact.
//!
//! This crate is the facade: it re-exports every workspace crate under one
//! roof and provides a [`prelude`] for the common types.
//!
//! ## Quick start
//!
//! ```
//! use unwritten_contract::prelude::*;
//!
//! // Build the paper's two device classes at simulation scale.
//! let mut ssd = Ssd::new(SsdConfig::samsung_970_pro(256 << 20));
//! let mut essd = Essd::new(EssdConfig::aws_io2(256 << 20));
//!
//! // Run the same FIO-style job on both.
//! let spec = JobSpec::new(AccessPattern::RandWrite, 4096, 1).with_io_limit(200);
//! let ssd_report = run_job(&mut ssd, &spec)?;
//! let essd_report = run_job(&mut essd, &spec)?;
//!
//! // Observation 1: the cloud device pays a large small-I/O penalty.
//! // (The calibrated floors live in `core::contract::thresholds`.)
//! use unwritten_contract::core::contract::thresholds::OBS1_SINGLE_CELL_GAP_FLOOR;
//! let gap = essd_report.latency.mean().as_micros_f64()
//!     / ssd_report.latency.mean().as_micros_f64();
//! assert!(gap > OBS1_SINGLE_CELL_GAP_FLOOR);
//! # Ok::<(), uc_blockdev::IoError>(())
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`persist`] | versioned binary checkpoint codec (magic, version, checksum records) |
//! | [`sim`] | virtual clock, RNG, distributions, resources, token buckets |
//! | [`metrics`] | latency histograms, throughput timelines, summary stats |
//! | [`blockdev`] | the `BlockDevice` abstraction, queue-pair batching (`IoBatch`/`Completion`), `CheckpointDevice` snapshot/restore seam |
//! | [`flash`] | NAND geometry/timing and die/channel scheduling |
//! | [`ftl`] | page-mapping FTL with garbage collection |
//! | [`invariant`] | the `Contract` trait, structured `Violation` reports, `strict-invariants` enforcement hooks |
//! | [`obs`] | deterministic telemetry: `MetricsRegistry`, flight recorder, `uc.obs.v1` snapshots, Prometheus rendering |
//! | [`ssd`] | the local-SSD device model (Samsung 970 Pro profile) |
//! | [`net`] | datacenter fabric + host stack model |
//! | [`cluster`] | chunked, replicated storage cluster |
//! | [`essd`] | the elastic-SSD device model (AWS io2 / Alibaba PL3) |
//! | [`workload`] | FIO-like jobs, queue-pair batched drivers, trace replay |
//! | [`trace`] | trace capture (`TraceRecorder`), the `uc.trace.v1` binary format, arrival-shape generators |
//! | [`fleet`] | multi-tenant fleets: placement, shared-device interleaving, interference metrics, checkpoint-seam rebalancing |
//! | [`serve`] | the served frontend: `uc.wire.v2` resumable multi-lane sessions, the single-thread readiness event loop (`serve_events`), the `ServePool` lanes with backpressure, the `WireClient`/`RemoteDevice` clients |
//! | [`core`] | experiments (parallel cell executor), contract checker, implication advisors |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use uc_blockdev as blockdev;
pub use uc_cluster as cluster;
pub use uc_core as core;
pub use uc_essd as essd;
pub use uc_flash as flash;
pub use uc_fleet as fleet;
pub use uc_ftl as ftl;
pub use uc_invariant as invariant;
pub use uc_metrics as metrics;
pub use uc_net as net;
pub use uc_obs as obs;
pub use uc_persist as persist;
pub use uc_serve as serve;
pub use uc_sim as sim;
pub use uc_ssd as ssd;
pub use uc_trace as trace;
pub use uc_workload as workload;

/// The types most programs need, in one import.
pub mod prelude {
    pub use uc_blockdev::{
        BlockDevice, CheckpointDevice, CheckpointError, Completion, DeviceCheckpoint, DeviceInfo,
        IoBatch, IoError, IoKind, IoRequest,
    };
    pub use uc_core::contract::{check_all, ContractInputs, ContractReport};
    pub use uc_core::devices::{DeviceKind, DeviceRoster};
    pub use uc_core::experiments::Executor;
    pub use uc_essd::{Essd, EssdConfig};
    pub use uc_fleet::{FleetConfig, FleetSim, RebalancePolicy, ShapeMix};
    pub use uc_invariant::{Contract, Violation};
    pub use uc_metrics::{LatencyHistogram, Series, SummaryStats, ThroughputTracker};
    pub use uc_obs::{FlightRecorder, MetricsRegistry, ObsReport, ObsSnapshot};
    pub use uc_sim::{LatencyDist, SimDuration, SimRng, SimTime};
    pub use uc_ssd::{Ssd, SsdConfig};
    pub use uc_trace::{TraceRecorder, TraceSpec};
    pub use uc_workload::{
        replay_with, run_job, AccessPattern, ClosedLoopJob, JobReport, JobSpec, ReplayConfig, Trace,
    };
}
