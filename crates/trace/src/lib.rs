//! Trace capture & replay for the unwritten-contract stack.
//!
//! The experiments reproduce the paper with synthetic closed/open-loop
//! workloads, but the contract's sharpest edges — burst smoothing
//! (Implication 4), budget exhaustion under real tenant arrival patterns —
//! only show under *captured* traffic. This crate closes that loop:
//!
//! * **capture** ([`TraceRecorder`]) — a transparent
//!   [`BlockDevice`](uc_blockdev::BlockDevice) wrapper that records every
//!   request (and batch) crossing the seam, so any existing experiment can
//!   emit a [`Trace`] of exactly what it issued;
//! * **format** ([`save_trace`] / [`load_trace`], [`encode_trace`] /
//!   [`decode_trace`]) — a versioned binary trace format, one
//!   `uc-persist` record file per trace (kind tag [`TRACE_RECORD_KIND`]),
//!   with typed decode errors and the same entry validation as the text
//!   [`Trace`] format;
//! * **generators** ([`TraceSpec`]) — synthetic arrival shapes (steady,
//!   diurnal, bursty ON/OFF) parameterized like `uc-workload` job specs,
//!   materialized whole or streamed lazily through a resumable [`TraceCursor`];
//! * **interleaving** ([`merge_streams`] / [`validate_merged`]) — the
//!   deterministic multi-tenant merge the fleet simulation (`uc-fleet`)
//!   uses to put many tenants on one shared device: identical timestamps
//!   tie-break by tenant id, and a merged sequence with a non-monotone
//!   cross-tenant order is a typed error, never a panic.
//!
//! Replay itself lives in `uc-workload`
//! ([`replay_with`] / [`TraceReplayJob`]): batched through the
//! queue-pair API, timestamp-honouring with a `speed` factor, and
//! resumable under the PR-3 checkpoint contract. Because the replayer
//! only sees the `BlockDevice` seam, it drives remote devices too: point
//! it at a `uc-serve` session (`trace --remote`) and the same trace
//! replays over a real connection with an identical device-side
//! schedule.
//!
//! # Example: capture a run, replay it elsewhere
//!
//! ```
//! use uc_ssd::{Ssd, SsdConfig};
//! use uc_trace::TraceRecorder;
//! use uc_workload::{replay_with, run_job, AccessPattern, JobSpec, ReplayConfig};
//!
//! // Capture what a closed-loop job actually issues. The capture holds
//! // every *submitted* request — including the in-flight tail the
//! // driver had already queued when the 100-I/O limit fired.
//! let ssd = Ssd::new(SsdConfig::samsung_970_pro(256 << 20));
//! let mut recorder = TraceRecorder::new(ssd);
//! let spec = JobSpec::new(AccessPattern::RandWrite, 4096, 4).with_io_limit(100);
//! let live = run_job(&mut recorder, &spec)?;
//! let trace = recorder.into_trace();
//! assert!(trace.len() as u64 >= live.ios);
//!
//! // Replaying the capture on an identical fresh device re-executes the
//! // recorded submission timeline exactly.
//! let mut fresh = Ssd::new(SsdConfig::samsung_970_pro(256 << 20));
//! let replayed = replay_with(&mut fresh, &trace, &ReplayConfig::open_loop())
//!     .expect("captured traces replay cleanly");
//! assert_eq!(replayed.ios, trace.len() as u64);
//! assert!(replayed.finished_at >= live.finished_at);
//! # Ok::<(), uc_blockdev::IoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod format;
mod generate;
mod merge;
mod recorder;

pub use format::{
    decode_trace, encode_trace, load_trace, save_trace, TraceFileError, TRACE_RECORD_KIND,
};
pub use generate::{ArrivalShape, TraceCursor, TraceSpec};
pub use merge::{merge_streams, validate_merged, MergedEntry};
pub use recorder::TraceRecorder;

// The trace type and its replay drivers, re-exported so consumers of the
// capture/replay subsystem need only this crate.
pub use uc_workload::{
    replay_with, JobProgress, ReplayConfig, ReplayError, ReplayMode, Trace, TraceEntry, TraceError,
    TraceReplayJob,
};
