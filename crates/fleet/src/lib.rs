//! Multi-tenant fleet simulation for the unwritten-contract stack.
//!
//! The paper measures one tenant on one elastic SSD; real eSSD deployments
//! multiplex *fleets* of tenants onto shared devices, where the contract's
//! sharp edges (budget exhaustion, burst interference) become noisy-
//! neighbor problems. This crate closes that gap:
//!
//! * **tenants** ([`TenantSpec`] / [`ShapeMix`]) — a deterministic
//!   population synthesized from one seed: steady/diurnal/bursty arrival
//!   shapes (`uc-trace` generators), heavy-tailed rates, and per-tenant
//!   token-bucket budgets;
//! * **placement** ([`Placement`]) — tenants occupy fixed capacity slots
//!   on shared devices, under a machine-checked *tenant conservation*
//!   contract (no tenant lost, duplicated, or double-placed across any
//!   migration);
//! * **interleaving** — per-device arrival streams merge through
//!   [`merge_streams`](uc_trace::merge_streams) (stable tenant-id
//!   tie-break) and drive the device through one shared queue-pair
//!   doorbell ([`SharedDevice`](uc_blockdev::SharedDevice));
//! * **metrics** ([`TenantMetrics`] / [`EpochStat`] / [`FleetReport`]) —
//!   per-tenant latency percentiles, throughput, budget-throttle counts,
//!   and per-epoch Jain fairness ([`jain_index`]) quantifying
//!   interference;
//! * **rebalancing** ([`RebalancePolicy`]) — hot-device detection from
//!   rolling epoch stats and tenant migration through the checkpoint
//!   seam: freeze the source state ([`CheckpointDevice`]), move the
//!   tenant's extent, and replay its deferred tail on the target;
//! * **resumability** ([`FleetState`]) — between epochs the live fleet
//!   holds its state as one persistable value: config, placement, each
//!   tenant's trace-cursor position, budgets, metrics and logs. Paired
//!   with the devices' own checkpoints by `uc-core`'s durable fleet
//!   experiment, a killed run resumes byte-identically.
//!
//! Everything is a pure function of ([`FleetConfig`], device pool): two
//! runs of the same fleet are byte-identical, which is what makes the
//! kill/resume and two-run CI identity gates meaningful.
//!
//! [`CheckpointDevice`]: uc_blockdev::CheckpointDevice

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod persist;
mod placement;
mod rebalance;
mod sim;
mod tenant;

pub use metrics::{jain_index, EpochStat, FleetReport, TenantMetrics, TenantSummary};
pub use placement::{MigrationAudit, MigrationRecord, Placement};
pub use rebalance::{PlannedMove, RebalancePolicy};
pub use sim::{FeedError, FleetConfig, FleetDevice, FleetSim, FleetState};
pub use tenant::{ShapeMix, TenantSpec};
