//! Deterministic discrete-event simulation kernel for the Unwritten Contract
//! framework.
//!
//! This crate provides the primitives every device model in the workspace is
//! built on:
//!
//! * [`SimTime`] / [`SimDuration`] — a nanosecond-resolution virtual clock,
//! * [`SimRng`] — a seedable, forkable random-number generator so every
//!   experiment is reproducible bit-for-bit,
//! * [`LatencyDist`] — latency distributions (constant, uniform, normal,
//!   log-normal, bounded Pareto, and tail mixtures) used to model service
//!   times and network jitter,
//! * [`Resource`] / [`ParallelResource`] — busy-until timelines modelling
//!   serialized and k-server stations (firmware pipelines, flash dies,
//!   storage-node service pools),
//! * [`TokenBucket`] / [`BucketSet`] — the rate-limiter used for
//!   elastic-SSD throughput and IOPS budgets, and the per-tenant set a
//!   fleet reserves against,
//! * [`Executor`] — the order-preserving parallel executor every
//!   multi-cell run (figure sweeps, segmented timelines, fleet epochs)
//!   schedules on.
//!
//! Every stateful primitive is its own checkpoint: it is `Clone`, and its
//! [`Persist`](uc_persist::Persist) codec writes exactly the state it
//! holds and decodes it back exactly — the bottom layer of the device
//! checkpoint/restore API (`uc-blockdev`'s `CheckpointDevice`) that lets
//! long endurance runs be sliced into resumable segments.
//!
//! # Example
//!
//! ```
//! use uc_sim::{Resource, SimDuration, SimTime, TokenBucket};
//!
//! // A serialized firmware pipeline that takes 2 us per command.
//! let mut firmware = Resource::new();
//! let t0 = SimTime::ZERO;
//! let (start, finish) = firmware.acquire(t0, SimDuration::from_micros(2));
//! assert_eq!(start, t0);
//! assert_eq!(finish, t0 + SimDuration::from_micros(2));
//!
//! // A 1 GB/s byte budget: the second 4 KiB grant is delayed.
//! let mut budget = TokenBucket::new(4096.0, 1e9);
//! let g1 = budget.reserve(t0, 4096);
//! let g2 = budget.reserve(t0, 4096);
//! assert_eq!(g1, t0);
//! assert!(g2 > t0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cos;
mod dist;
mod executor;
mod persist;
mod resource;
mod rng;
mod time;
mod token;

pub use dist::LatencyDist;
pub use executor::Executor;
pub use resource::{ParallelResource, Resource};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use token::{BucketSet, TokenBucket};
