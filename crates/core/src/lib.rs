//! The Unwritten Contract of cloud-based elastic SSDs.
//!
//! This crate is the paper's primary contribution turned into a library:
//!
//! * [`experiments`] — runners that regenerate every table and figure of
//!   the paper's evaluation (Table I, Figures 2–5) against any
//!   [`BlockDevice`](uc_blockdev::BlockDevice), decomposed into
//!   independent cells and fanned out across cores by the shared
//!   [`Executor`] (parallel runs are
//!   byte-identical to sequential ones),
//! * [`contract`] — the four observations as *checkable predicates* over
//!   experiment results (thresholds centralized in
//!   [`contract::thresholds`]), bundled into a [`ContractReport`],
//! * [`implications`] — the five implications as actionable advisors
//!   (scale-up guidance, GC-mitigation reassessment, write-pattern choice,
//!   burst smoothing, I/O-reduction cost/benefit),
//! * [`report`] — plain-text rendering of grids, series and verdicts in
//!   the paper's layout,
//! * [`devices`] — the calibrated device roster of Table I,
//! * [`casestudy`] — the paper's stated future work: a leveled LSM engine
//!   versus its contract-aware in-place alternative.
//!
//! # Example
//!
//! ```no_run
//! use uc_core::contract::check_observation4;
//! use uc_core::devices::{DeviceKind, DeviceRoster};
//! use uc_core::experiments::{fig5, Fig5Config};
//!
//! let roster = DeviceRoster::scaled_default();
//! let cfg = Fig5Config::quick();
//! let ssd = fig5::run(&roster, DeviceKind::LocalSsd, &cfg)?;
//! let essd1 = fig5::run(&roster, DeviceKind::Essd1, &cfg)?;
//! let verdict = check_observation4(&ssd, &[&essd1]);
//! println!("{}", verdict);
//! # Ok::<(), uc_blockdev::IoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod casestudy;
pub mod contract;
pub mod devices;
pub mod experiments;
pub mod implications;
pub mod report;

pub use contract::{check_all, ContractReport, ObservationResult};
pub use devices::DeviceRoster;
pub use experiments::Executor;
