//! FIO-like workload generation and execution.
//!
//! The paper drives its devices with the FIO benchmark across four access
//! patterns, I/O sizes from 4 KiB to 256 KiB, queue depths 1–32, and mixed
//! read/write ratios. This crate is that harness for the simulated devices:
//!
//! * [`JobSpec`] — a declarative job description (pattern × size × depth ×
//!   stop condition),
//! * one resumable I/O driver core, fed by a request source:
//!   - [`run_job`] keeps `queue_depth` synthetic requests outstanding
//!     against any [`BlockDevice`](uc_blockdev::BlockDevice);
//!   - [`ClosedLoopJob`] is the same job as an object: pause at byte
//!     milestones, continue on another worker with a byte-identical
//!     schedule (the mechanism behind the segmented Figure 3 endurance
//!     run in `uc-core`);
//!   - [`TraceReplayJob`] / [`replay_with`] replay a [`Trace`] closed
//!     loop, or open loop (arrival-driven) for the burst/smoothing
//!     studies of Implication 4, pausing at entry milestones;
//!   - both jobs are their own checkpoints: a clone continues on another
//!     worker, and their [`Persist`](uc_persist::Persist) form (a
//!     closed-loop job's is its [`DriverCheckpoint`]) in another process,
//! * [`JobReport`] — latency histograms (overall and split by direction)
//!   plus throughput timelines.
//!
//! # Example
//!
//! ```
//! use uc_ssd::{Ssd, SsdConfig};
//! use uc_workload::{AccessPattern, JobSpec, run_job};
//!
//! let mut ssd = Ssd::new(SsdConfig::samsung_970_pro(256 << 20));
//! let spec = JobSpec::new(AccessPattern::RandRead, 4096, 4)
//!     .with_io_limit(1000);
//! let report = run_job(&mut ssd, &spec)?;
//! assert_eq!(report.ios, 1000);
//! assert!(report.latency.mean().as_micros_f64() > 0.0);
//! # Ok::<(), uc_blockdev::IoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod persist;
mod replay;
mod report;
mod shaper;
mod spec;
mod stream;
#[cfg(test)]
mod testdev;
mod trace;

pub use driver::{precondition, run_job, ClosedLoopJob, DriverCheckpoint, InflightIo, JobProgress};
pub use replay::{replay_with, ReplayConfig, ReplayError, ReplayMode, TraceReplayJob};
pub use report::JobReport;
pub use shaper::Shaper;
pub use spec::{AccessPattern, JobLimit, JobSpec};
pub use stream::AddressStream;
pub use trace::{validate_entries, ParseTraceError, Trace, TraceEntry, TraceError};
