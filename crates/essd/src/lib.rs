//! Elastic solid-state drive (ESSD) model.
//!
//! The virtualized cloud block device of the paper: a
//! [`BlockDevice`](uc_blockdev::BlockDevice) whose
//! data path traverses the host software stack, the datacenter network and
//! a replicated storage cluster, and whose *performance envelope* is an
//! explicit per-tenant contract enforced by token buckets:
//!
//! * a **throughput budget** (bytes/second) — the same cap for any
//!   read/write mix, which is why the maximum bandwidth is deterministic
//!   (Observation 4),
//! * an optional **IOPS budget** with a size-dependent token cost — why the
//!   paper finds guaranteed IOPS "non-deterministic and closely related to
//!   the I/O size",
//! * an optional **throttle policy** — the provider-side flow limiting the
//!   paper hypothesizes behind ESSD-1's late throughput drop in Figure 3.
//!
//! Two calibrated profiles mirror the paper's devices:
//! [`EssdConfig::aws_io2`] (ESSD-1) and [`EssdConfig::alibaba_pl3`]
//! (ESSD-2).
//!
//! # Example
//!
//! ```
//! use uc_blockdev::{BlockDevice, IoRequest};
//! use uc_essd::{Essd, EssdConfig};
//! use uc_sim::SimTime;
//!
//! let mut essd = Essd::new(EssdConfig::aws_io2(1 << 30));
//! let done = essd.submit(&IoRequest::write(0, 4096, SimTime::ZERO))?;
//! // A small cloud write pays the network + stack overhead: hundreds of
//! // microseconds, not the ~10 us a local SSD takes (Observation 1).
//! assert!((done - SimTime::ZERO).as_micros_f64() > 100.0);
//! # Ok::<(), uc_blockdev::IoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod device;
mod persist;

pub use config::{EssdConfig, IopsBudget, ThrottlePolicy};
pub use device::{Essd, EssdStats};
