//! Deterministic telemetry for the Unwritten Contract framework.
//!
//! Every layer of the stack — FTL, eSSD devices, fleet scheduler, serve
//! event loop — measures itself through this crate so that the numbers the
//! paper's observations hinge on (latency percentiles, throttle counts, GC
//! churn) come out of one registry, in one format, with one determinism
//! guarantee: **two same-seed runs render byte-identical snapshots**.
//!
//! Three pieces:
//!
//! * [`MetricsRegistry`] — named counters, gauges, and
//!   [`LatencyHistogram`](uc_metrics::LatencyHistogram)s. Registration
//!   returns copyable typed handles ([`CounterId`], [`GaugeId`], [`HistId`])
//!   so the hot path never re-hashes or re-formats a metric name.
//!   Names are hierarchical `subsystem.component.metric` strings and
//!   snapshots preserve registration order.
//! * [`FlightRecorder`] — a bounded ring of sim-time-stamped
//!   [`ObsEvent`]s. The last N interesting things that happened (GC
//!   victims, migration phases, contract violations) survive to a
//!   postmortem dump even when the run dies.
//! * [`ObsReport`] — snapshot + flight events, persisted as a `uc.obs.v1`
//!   record through the same checksummed envelope as every other artifact,
//!   and rendered as stable text, Prometheus text, or merged into bench
//!   JSON.
//!
//! # Example
//!
//! ```
//! use uc_obs::{FlightRecorder, MetricsRegistry, ObsReport};
//! use uc_sim::{SimDuration, SimTime};
//!
//! let mut reg = MetricsRegistry::new();
//! let ios = reg.counter("ssd.host.ios");
//! let lat = reg.hist("ssd.host.latency_ns");
//! reg.add(ios, 2);
//! reg.record(lat, SimDuration::from_micros(80));
//! reg.record(lat, SimDuration::from_micros(120));
//!
//! let mut flight = FlightRecorder::new(64);
//! flight.record(SimTime::from_nanos(5), "gc-start", 1, 0);
//!
//! let report = ObsReport::capture(&reg, &flight);
//! assert!(report.render_text().contains("ssd.host.ios 2"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flight;
mod registry;
mod report;
mod snapshot;

pub use flight::{FlightRecorder, ObsEvent};
pub use registry::{CounterId, GaugeId, HistId, MetricsRegistry};
pub use report::{ObsReport, OBS_RECORD_KIND};
pub use snapshot::{HistSummary, MetricValue, ObsSnapshot};
