//! Experiment runners for every table and figure of the paper.
//!
//! Each submodule regenerates one artifact:
//!
//! | Module   | Paper artifact | What it measures |
//! |----------|----------------|------------------|
//! | [`table1`] | Table I      | max bandwidth, max IOPS, capacity per device |
//! | [`fig2`]   | Figure 2     | avg/P99.9 latency grids over pattern × size × depth |
//! | [`fig3`]   | Figure 3     | throughput timeline under 3× capacity of random writes |
//! | [`fig4`]   | Figure 4     | random- vs sequential-write throughput and gain |
//! | [`fig5`]   | Figure 5     | throughput across read/write mix ratios |
//!
//! Every runner builds a *fresh* device per measurement cell (no state
//! leakage between cells) and is deterministic for a given configuration.
//!
//! The grid runners (`table1`, `fig2`, `fig4`, `fig5`) decompose their
//! sweeps into self-contained cells and fan them out on the shared
//! [`Executor`] — by default one worker per core (`UC_THREADS` overrides).
//! Because each cell builds its own seeded device
//! ([`DeviceRoster::build_seeded`](crate::devices::DeviceRoster::build_seeded))
//! and carries its own virtual clock, parallel and sequential runs are
//! byte-identical; every runner also exposes a `run_with` variant taking
//! an explicit executor.
//!
//! `fig3` is different: each device's endurance run is one continuous
//! virtual timeline, so instead of independent cells it is sliced into
//! **resumable segments** through the checkpoint seam
//! ([`CheckpointDevice`](uc_blockdev::CheckpointDevice)) and driven by
//! the [`durable`] engine: one [`durable::Chain`] per timeline, whose
//! steps [`durable::run`] pipelines across workers
//! ([`Executor::run_chains`]) with byte-identical results at any thread
//! count — optionally persisting every step boundary into a
//! [`durable::Store`] a killed run resumes from.
//!
//! [`trace`] goes beyond the paper's own artifacts: it replays a
//! captured or generated block-I/O trace (see the `uc-trace` crate)
//! against every device and evaluates the contract phase by phase.
//!
//! Both timelines are one [`sliced`] run: a [`SlicedChain`] per device
//! that saves its live [`SlicedRun`] in place, with a small [`Slicing`]
//! impl per experiment ([`fig3::Endurance`], [`trace::Replay`]) supplying
//! the plan head, driver, tail and record kind.
//!
//! [`fleet`] scales the contract out: hundreds of tenants multiplexed
//! onto a shared eSSD pool (the `uc-fleet` crate), with per-tenant
//! interference findings, epoch fairness, checkpoint-seam rebalancing,
//! and — as one [`FleetChain`] of epochs — the same durable
//! kill-resume determinism bar.

pub mod durable;
pub mod executor;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fleet;
pub mod sliced;
pub mod table1;
pub mod trace;

pub use durable::{Chain, LoadError, RunError, Store};
pub use executor::Executor;
pub use fig2::{Fig2Config, Fig2Result, LatencyCell, PatternGrid};
pub use fig3::{Fig3Config, Fig3Result};
pub use fig4::{Fig4Config, Fig4Result};
pub use fig5::{Fig5Config, Fig5Result};
pub use fleet::{FleetChain, FleetContractReport, FleetFinding, FleetRunConfig};
pub use sliced::{SlicedChain, SlicedRun, Slicing};
pub use table1::{run as run_table1, Table1Row};
pub use trace::{
    PhaseStat, TraceContractReport, TraceRunConfig, TraceRunResult, TraceViolation,
    TraceViolationKind,
};
