//! The fleet simulation: N tenants interleaved onto a pool of shared
//! devices, epoch by epoch, with checkpoint-based rebalancing.
//!
//! Execution is *epoch-driven*: the arrival horizon is cut into equal
//! windows, and within each window every device independently merges its
//! residents' budget-granted arrival streams
//! ([`merge_streams`](uc_trace::merge_streams)) and drives them through
//! one shared queue-pair doorbell. Because devices share nothing within
//! a window, each runs as one cell on a [`uc_sim::Executor`] (width from
//! `UC_THREADS`, else one worker per core): the cell borrows only its own
//! device and its residents' run state and budget buckets, and returns a
//! small summary that the calling thread folds in device order. Epoch
//! boundaries are the fleet's only synchronization points — where
//! contracts are audited, interference is cut into [`EpochStat`]s, the
//! rebalancer plans, and (in the durable runner) the fleet's
//! [`FleetState`] and its devices' checkpoints persist as one record.
//!
//! Everything here is a pure function of [`FleetConfig`] and the device
//! pool: two runs of the same fleet produce byte-identical states,
//! reports and telemetry, at any executor width.

use crate::metrics::{jain_index, EpochStat, FleetReport, TenantMetrics, TenantSummary};
use crate::placement::{MigrationAudit, MigrationRecord, Placement};
use crate::rebalance::RebalancePolicy;
use crate::tenant::{ShapeMix, TenantSpec};
use std::collections::VecDeque;
use std::ops::Range;
use uc_blockdev::{
    CheckpointDevice, DeviceCheckpoint, IoBatch, IoError, IoRequest, SessionId, SharedDevice,
};
use uc_invariant::Contract;
use uc_metrics::LatencyHistogram;
use uc_obs::{CounterId, FlightRecorder, GaugeId, HistId, MetricsRegistry, ObsReport, ObsSnapshot};
use uc_persist::Encoder;
use uc_sim::{BucketSet, Executor, SimDuration, SimRng, SimTime, TokenBucket};
use uc_trace::{merge_streams, TraceSpec};
use uc_workload::TraceEntry;

/// A device that can serve a fleet: block I/O plus the checkpoint seam,
/// movable across the executor boundary.
pub type FleetDevice = Box<dyn CheckpointDevice + Send>;

/// Errors from feeding a fed-mode fleet ([`FleetSim::push_entries`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedError {
    /// The sim was built with [`FleetSim::new`], which synthesizes its
    /// own tenant traces — external entries are not accepted.
    NotFed,
    /// Every epoch has already run; there is nothing left to feed.
    Finished,
    /// No such tenant in the fleet.
    UnknownTenant {
        /// The offending tenant id.
        tenant: u32,
    },
    /// An entry's arrival instant regressed below the tenant's last
    /// pushed entry — fed streams must be monotone like generated ones.
    NonMonotone {
        /// The offending tenant id.
        tenant: u32,
    },
    /// An entry carried no bytes.
    ZeroLength {
        /// The offending tenant id.
        tenant: u32,
    },
    /// An entry reached past the tenant's region span.
    OutOfRegion {
        /// The offending tenant id.
        tenant: u32,
        /// First byte past the entry's range (`u64::MAX` if that
        /// overflows).
        end: u64,
        /// The per-tenant region span.
        span: u64,
    },
    /// An entry's offset or length is not a multiple of the pool's
    /// largest logical block.
    Misaligned {
        /// The offending tenant id.
        tenant: u32,
        /// The entry's region-relative offset.
        offset: u64,
        /// The entry's length.
        len: u32,
        /// The alignment every device in the pool accepts.
        align: u64,
    },
}

impl std::fmt::Display for FeedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedError::NotFed => write!(f, "fleet was not built in fed mode"),
            FeedError::Finished => write!(f, "fleet already finished"),
            FeedError::UnknownTenant { tenant } => write!(f, "unknown tenant {tenant}"),
            FeedError::NonMonotone { tenant } => {
                write!(f, "tenant {tenant}: pushed entries regress in time")
            }
            FeedError::ZeroLength { tenant } => write!(f, "tenant {tenant}: zero-length entry"),
            FeedError::OutOfRegion { tenant, end, span } => write!(
                f,
                "tenant {tenant}: entry reaches byte {end} past the {span}-byte region"
            ),
            FeedError::Misaligned {
                tenant,
                offset,
                len,
                align,
            } => write!(
                f,
                "tenant {tenant}: entry at offset {offset} length {len} not aligned to {align}-byte blocks"
            ),
        }
    }
}

impl std::error::Error for FeedError {}

/// Parameters of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of tenants.
    pub tenants: usize,
    /// Number of shared devices in the pool.
    pub devices: usize,
    /// Arrival-shape population mix.
    pub mix: ShapeMix,
    /// Arrival horizon per tenant.
    pub duration: SimDuration,
    /// Number of epochs the horizon is cut into (each ends with a
    /// contract audit and an optional rebalance).
    pub epochs: usize,
    /// Bytes per I/O.
    pub io_size: u32,
    /// Fleet seed: drives every tenant's synthesis.
    pub seed: u64,
    /// Rebalancing policy; `None` pins tenants to their initial homes.
    pub rebalance: Option<RebalancePolicy>,
}

impl FleetConfig {
    /// A fleet of `tenants` on `devices` with the default mix, a 200 ms
    /// horizon in 4 epochs, 4 KiB I/O, and no rebalancing.
    pub fn new(tenants: usize, devices: usize) -> Self {
        FleetConfig {
            tenants,
            devices,
            mix: ShapeMix::default_mix(),
            duration: SimDuration::from_millis(200),
            epochs: 4,
            io_size: 4096,
            seed: 0xF1EE7,
            rebalance: None,
        }
    }

    /// Replaces the shape mix.
    pub fn with_mix(mut self, mix: ShapeMix) -> Self {
        self.mix = mix;
        self
    }

    /// Replaces the arrival horizon.
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Replaces the epoch count.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Replaces the fleet seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables rebalancing under `policy`.
    pub fn with_rebalance(mut self, policy: RebalancePolicy) -> Self {
        self.rebalance = Some(policy);
        self
    }

    /// Synthesizes every tenant of this fleet in regions of `span` bytes.
    pub(crate) fn tenant_specs(&self, span: u64) -> Vec<TenantSpec> {
        let (mix, seed, duration, io_size) = (&self.mix, self.seed, self.duration, self.io_size);
        (0..self.tenants as u32)
            .map(|id| TenantSpec::synthesize(id, mix, seed, span, duration, io_size))
            .collect()
    }
}

/// Extent-copy chunk size during migration.
const COPY_CHUNK: u64 = 1 << 20;

/// Pre-registered telemetry handles for the fleet's hot paths.
///
/// Registered once at construction (and again, identically, on resume) so
/// every epoch's recording is index-indexed — no name formatting while
/// streams are being driven.
struct FleetObsIds {
    epochs: CounterId,
    ios: CounterId,
    bytes: CounterId,
    throttle_events: CounterId,
    throttled_ns: CounterId,
    migrations: CounterId,
    migration_bytes: CounterId,
    violations: CounterId,
    grant_wait: HistId,
    latency: HistId,
    fairness_milli: GaugeId,
}

impl FleetObsIds {
    fn register(obs: &mut MetricsRegistry) -> Self {
        FleetObsIds {
            epochs: obs.counter("fleet.epochs"),
            ios: obs.counter("fleet.ios"),
            bytes: obs.counter("fleet.bytes"),
            throttle_events: obs.counter("fleet.throttle_events"),
            throttled_ns: obs.counter("fleet.throttled_ns"),
            migrations: obs.counter("fleet.migrations"),
            migration_bytes: obs.counter("fleet.migration_bytes"),
            violations: obs.counter("fleet.violations"),
            grant_wait: obs.hist("fleet.grant_wait_ns"),
            latency: obs.hist("fleet.io_latency_ns"),
            fairness_milli: obs.gauge("fleet.last_fairness_milli"),
        }
    }
}

/// A fed tenant's pushed entries ([`FleetSim::push_entries`]), drained
/// as they are served.
#[derive(Clone, Default)]
struct Feed {
    queue: VecDeque<TraceEntry>,
    /// The last pushed arrival instant: later pushes may not regress
    /// below it.
    last: SimTime,
}

/// One tenant's run between epochs.
#[derive(Debug, Clone)]
pub(crate) struct TenantRun {
    /// The tenant's trace cursor position
    /// ([`TraceCursor::into_position`](uc_trace::TraceCursor::into_position)):
    /// its RNG and next arrival instant. A fed fleet never moves it.
    pub(crate) rng: SimRng,
    pub(crate) t: f64,
    pub(crate) floor: SimTime,
    pub(crate) written_high: u64,
    pub(crate) metrics: TenantMetrics,
}

/// Everything a [`FleetSim`] carries from one epoch boundary to the next
/// except its devices: the fleet's checkpoint is a clone of it, and its
/// [`Persist`](uc_persist::Persist) codec is the durable form.
///
/// Each tenant's arrivals are held as their trace cursor's position; the
/// tenant specs, and with them the rest of each cursor, are derived from
/// the config again when a sim is built on the state
/// ([`FleetSim::from_state`]). A fed fleet's pushed entries are not part
/// of it, so a fed fleet does not resume.
#[derive(Debug, Clone)]
pub struct FleetState {
    /// The fleet's configuration.
    pub config: FleetConfig,
    /// Completed epochs.
    pub epoch: usize,
    /// The tenant-to-slot assignment.
    pub placement: Placement,
    pub(crate) tenants: Vec<TenantRun>,
    /// Per-tenant budget state.
    pub buckets: BucketSet,
    /// Per-epoch cuts so far.
    pub epoch_stats: Vec<EpochStat>,
    /// Completed migrations so far.
    pub migrations: Vec<MigrationRecord>,
    /// Rendered contract violations found so far.
    pub violations: Vec<String>,
    /// Last completion instant observed so far.
    pub finished_at: SimTime,
}

/// A resident tenant lent to its home device's epoch cell: the cell
/// owns these borrows exclusively, so cells of different devices never
/// alias.
struct Resident<'a> {
    id: u32,
    /// Region base: added to region-relative trace offsets.
    base: u64,
    trace: &'a TraceSpec,
    run: &'a mut TenantRun,
    bucket: &'a mut TokenBucket,
    /// The tenant's pushed entries, in a fed fleet.
    feed: Option<&'a mut Feed>,
}

/// One resident's completed work in one epoch.
#[derive(Default)]
struct Tally {
    tenant: u32,
    bytes: u64,
    ios: u64,
    latency_ns: u128,
}

/// What one device's epoch cell hands back for the in-order fold.
#[derive(Default)]
struct DeviceEpoch {
    /// One entry per resident, in resident order.
    tallies: Vec<Tally>,
    bytes: u64,
    ios: u64,
    /// Budget tokens granted (to credit to the set-level ledger).
    granted: u64,
    throttle_events: u64,
    throttled_ns: u64,
    finished_at: SimTime,
    grant_wait: LatencyHistogram,
    latency: LatencyHistogram,
}

/// One device's share of an epoch: grant every resident's arrivals
/// before `cut` against its budget, merge the granted streams, ring one
/// shared doorbell, and fold the completions into the residents'
/// metrics.
fn run_device_epoch(
    device: &mut SharedDevice<FleetDevice>,
    mut residents: Vec<Resident<'_>>,
    cut: SimTime,
) -> Result<DeviceEpoch, IoError> {
    let mut out = DeviceEpoch {
        tallies: residents
            .iter()
            .map(|r| Tally {
                tenant: r.id,
                ..Tally::default()
            })
            .collect(),
        ..DeviceEpoch::default()
    };
    // Every resident's granted stream with region-absolute offsets, one
    // after another in one buffer; `ranges[i]` is resident `i`'s stream.
    // Streams are keyed by resident index: residents ascend by tenant id,
    // so the merge's `(arrival, key)` order is the `(arrival, tenant)`
    // order, and a merged entry's key indexes its resident directly.
    let mut granted: Vec<TraceEntry> = Vec::new();
    let mut ranges: Vec<Range<usize>> = Vec::with_capacity(residents.len());
    for r in residents.iter_mut() {
        let (run, feed) = (&mut *r.run, &mut r.feed);
        let mut arrivals = r.trace.cursor_at(run.rng.clone(), run.t);
        let start = granted.len();
        while let Some(entry) = match feed {
            Some(feed) => feed.queue.pop_front_if(|e| e.at < cut),
            None => arrivals.next_before(cut),
        } {
            let arrival = entry.at.max(run.floor);
            let grant = r.bucket.reserve(arrival, entry.len as u64);
            out.granted += entry.len as u64;
            // The hook `BucketSet::reserve` runs on the touched bucket.
            uc_invariant::enforce(|| r.bucket.check());
            // Grant latency: how long the budget made this entry wait
            // (zero for unthrottled entries, so the histogram covers the
            // whole population).
            let wait = grant.saturating_since(arrival);
            out.grant_wait.record(wait);
            if grant > arrival {
                run.metrics.throttle_events += 1;
                run.metrics.throttled += wait;
                out.throttle_events += 1;
                out.throttled_ns += wait.as_nanos();
            }
            granted.push(TraceEntry {
                at: grant,
                kind: entry.kind,
                offset: r.base + entry.offset,
                len: entry.len,
            });
        }
        (run.rng, run.t) = arrivals.into_position();
        ranges.push(start..granted.len());
    }
    let merged = {
        let refs: Vec<(u32, &[TraceEntry])> = ranges
            .into_iter()
            .enumerate()
            .map(|(i, range)| (i as u32, &granted[range]))
            .collect();
        merge_streams(&refs).expect("granted streams are monotone per tenant")
    };
    drop(granted);
    if merged.is_empty() {
        return Ok(out);
    }
    // One session per resident, one doorbell ring for the window.
    let sessions: Vec<SessionId> = residents.iter().map(|_| device.open_session()).collect();
    let mut batch = IoBatch::with_capacity(merged.len());
    let mut owners = Vec::with_capacity(merged.len());
    for m in &merged {
        batch.push(IoRequest {
            kind: m.entry.kind,
            offset: m.entry.offset,
            len: m.entry.len,
            submit_time: m.entry.at,
        });
        owners.push(sessions[m.tenant as usize]);
    }
    let mut completions = Vec::with_capacity(batch.len());
    device.submit_batch_shared(&owners, &mut batch, &mut completions)?;
    for (m, c) in merged.iter().zip(&completions) {
        let i = m.tenant as usize;
        let r = &mut residents[i];
        // Latency from the budget grant: the shared-queue clamp (waiting
        // behind other tenants) counts as interference.
        let lat = c.completes - m.entry.at;
        r.run.metrics.latency.record(lat);
        r.run.metrics.ios += 1;
        r.run.metrics.bytes += c.len as u64;
        out.latency.record(lat);
        if m.entry.kind.is_write() {
            r.run.written_high = r
                .run
                .written_high
                .max(m.entry.offset - r.base + c.len as u64);
        }
        let tally = &mut out.tallies[i];
        tally.bytes += c.len as u64;
        tally.ios += 1;
        tally.latency_ns += lat.as_nanos() as u128;
        out.bytes += c.len as u64;
        out.ios += 1;
        out.finished_at = out.finished_at.max(c.completes);
    }
    Ok(out)
}

/// A fleet's geometry on `pool` (see [`FleetSim::new`]): slots per
/// device, the per-tenant region span, and the alignment every device
/// accepts (its largest logical block).
fn geometry<'a>(
    config: &FleetConfig,
    pool: impl ExactSizeIterator<Item = &'a FleetDevice>,
) -> (usize, u64, u64) {
    assert!(config.tenants > 0, "fleet needs tenants");
    assert!(config.epochs > 0, "fleet needs at least one epoch");
    assert_eq!(pool.len(), config.devices, "pool size != config.devices");
    assert!(config.devices > 0, "fleet needs devices");
    let (mut min_cap, mut align) = (u64::MAX, 0);
    for d in pool {
        let info = d.info();
        assert!(
            (config.io_size as u64).is_multiple_of(info.logical_block() as u64),
            "io_size {} misaligned for {}",
            config.io_size,
            info.name()
        );
        min_cap = min_cap.min(info.capacity());
        align = align.max(info.logical_block() as u64);
    }
    let slots = config.tenants.div_ceil(config.devices) + 1;
    let region_span = (min_cap / slots as u64) / align * align;
    assert!(
        region_span >= config.io_size as u64,
        "devices too small: {region_span}-byte regions cannot hold one {}-byte i/o",
        config.io_size
    );
    (slots, region_span, align)
}

/// A live fleet: devices, tenants, budgets, placement, and the epoch
/// clock. Drive it with [`run`](FleetSim::run) or epoch by epoch with
/// [`run_epoch`](FleetSim::run_epoch) (the durable runner checkpoints
/// between epochs).
pub struct FleetSim {
    state: FleetState,
    /// Per-tenant specs, derived from the config.
    specs: Vec<TenantSpec>,
    devices: Vec<SharedDevice<FleetDevice>>,
    /// One per tenant in a fed fleet, none in a generated one.
    feeds: Vec<Feed>,
    /// The pool's largest logical block: every pushed entry's offset and
    /// length must be a multiple of it.
    align: u64,
    // Telemetry is observational state: it is excluded from the state's
    // and the report's identity and starts fresh on resume (the
    // determinism bar compares uninterrupted same-seed runs).
    obs: MetricsRegistry,
    flight: FlightRecorder,
    ids: FleetObsIds,
    executor: Executor,
    #[cfg(feature = "fault-injection")]
    drop_next_migrant: bool,
}

impl FleetSim {
    /// Builds a fresh fleet on `pool`, placing tenants contiguously.
    ///
    /// The pool's smallest device determines the per-tenant region span:
    /// each device is carved into `ceil(tenants/devices) + 1` slots (one
    /// spare as migration headroom).
    ///
    /// # Panics
    ///
    /// Panics if the pool size disagrees with the config, any count is
    /// zero, or the devices are too small to give every tenant a region
    /// of at least one I/O.
    pub fn new(config: FleetConfig, pool: Vec<FleetDevice>) -> Self {
        Self::with_mode(config, pool, false)
    }

    /// Builds a *fed* fleet: the geometry, placement, budgets, and
    /// per-tenant specs are identical to [`new`](FleetSim::new), but
    /// tenant traces start empty and are supplied by an external driver
    /// via [`push_entries`](FleetSim::push_entries) — the seam a served
    /// frontend uses to mount wire clients as tenants. A fed fleet whose
    /// pushed entries equal the generated ones produces a byte-identical
    /// report.
    pub fn new_fed(config: FleetConfig, pool: Vec<FleetDevice>) -> Self {
        Self::with_mode(config, pool, true)
    }

    fn with_mode(config: FleetConfig, pool: Vec<FleetDevice>, fed: bool) -> Self {
        let (slots, span, align) = geometry(&config, pool.iter());
        let specs = config.tenant_specs(span);
        let (mut tenants, mut buckets) = (Vec::with_capacity(specs.len()), BucketSet::new());
        for spec in &specs {
            buckets.push(TokenBucket::new(spec.burst_bytes, spec.rate_bytes_per_sec));
            let (rng, t) = spec.trace.cursor().into_position();
            tenants.push(TenantRun {
                rng,
                t,
                floor: SimTime::ZERO,
                written_high: 0,
                metrics: TenantMetrics::new(),
            });
        }
        let state = FleetState {
            placement: Placement::contiguous(config.tenants, config.devices, slots, span),
            config,
            epoch: 0,
            tenants,
            buckets,
            epoch_stats: Vec::new(),
            migrations: Vec::new(),
            violations: Vec::new(),
            finished_at: SimTime::ZERO,
        };
        let devices = pool.into_iter().map(SharedDevice::new).collect();
        let feeds = vec![Feed::default(); if fed { specs.len() } else { 0 }];
        Self::assemble(state, specs, devices, feeds, align)
    }

    /// Builds a fleet on `state` and `devices`, in pool order. To resume
    /// one, pass its [`state`](FleetSim::state) and the devices
    /// checkpointed with it ([`checkpoint_devices`](FleetSim::checkpoint_devices)),
    /// each thawed and wrapped with its queue head
    /// ([`SharedDevice::with_queue_head`]). The tenant specs are
    /// synthesized again from the state's config.
    ///
    /// # Panics
    ///
    /// Panics if the state's shape (tenant/device counts, region span)
    /// disagrees with the pool — resuming under a different fleet
    /// definition is a caller bug; the durable store fingerprints configs
    /// to prevent it.
    pub fn from_state(state: FleetState, devices: Vec<SharedDevice<FleetDevice>>) -> Self {
        let (_, span, align) = geometry(&state.config, devices.iter().map(SharedDevice::inner));
        let (placement, tenants, pool) = (&state.placement, state.config.tenants, devices.len());
        assert_eq!(placement.region_span(), span, "region span drift on resume");
        assert_eq!(placement.device_count(), pool, "device count drift");
        assert_eq!(placement.tenant_count(), tenants, "tenant count drift");
        assert_eq!(state.tenants.len(), tenants, "tenant count drift");
        assert_eq!(state.buckets.len(), tenants, "tenant count drift");
        let specs = state.config.tenant_specs(span);
        Self::assemble(state, specs, devices, Vec::new(), align)
    }

    /// A fleet whose `specs`, `feeds` and `align` are already derived.
    fn assemble(
        state: FleetState,
        specs: Vec<TenantSpec>,
        devices: Vec<SharedDevice<FleetDevice>>,
        feeds: Vec<Feed>,
        align: u64,
    ) -> Self {
        let mut obs = MetricsRegistry::new();
        let ids = FleetObsIds::register(&mut obs);
        FleetSim {
            state,
            specs,
            devices,
            feeds,
            align,
            obs,
            flight: FlightRecorder::default(),
            ids,
            executor: Executor::from_env(),
            #[cfg(feature = "fault-injection")]
            drop_next_migrant: false,
        }
    }

    /// Replaces the executor the epoch's device cells run on (tests pin
    /// the width here rather than through the process-wide environment).
    #[cfg(test)]
    pub(crate) fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// `true` once every epoch has run.
    pub fn is_finished(&self) -> bool {
        self.state.epoch >= self.state.config.epochs
    }

    /// The per-tenant region span, in bytes.
    pub fn region_span(&self) -> u64 {
        self.state.placement.region_span()
    }

    /// Appends externally supplied arrival entries to a fed tenant's
    /// stream (see [`new_fed`](FleetSim::new_fed)). Entries are taken in
    /// region-relative offsets, exactly like generated traces, and must
    /// keep the tenant's arrival axis monotone. Entries leave the
    /// tenant's queue as the epochs serve them.
    ///
    /// # Errors
    ///
    /// Typed [`FeedError`]s, checked in this order: rejects finished
    /// fleets, unknown tenants, non-fed fleets, time regressions, and
    /// entries the devices would refuse (zero-length, past the region
    /// span, or misaligned). On error nothing is appended.
    pub fn push_entries(&mut self, tenant: u32, entries: &[TraceEntry]) -> Result<(), FeedError> {
        if self.is_finished() {
            return Err(FeedError::Finished);
        }
        let (span, align) = (self.state.placement.region_span(), self.align);
        if tenant as usize >= self.state.tenants.len() {
            return Err(FeedError::UnknownTenant { tenant });
        }
        let Some(Feed { queue, last }) = self.feeds.get_mut(tenant as usize) else {
            return Err(FeedError::NotFed);
        };
        let mut floor = *last;
        for e in entries {
            if e.at < floor {
                return Err(FeedError::NonMonotone { tenant });
            }
            if e.len == 0 {
                return Err(FeedError::ZeroLength { tenant });
            }
            let end = e.offset.saturating_add(e.len as u64);
            if end > span {
                return Err(FeedError::OutOfRegion { tenant, end, span });
            }
            if !e.offset.is_multiple_of(align) || !(e.len as u64).is_multiple_of(align) {
                return Err(FeedError::Misaligned {
                    tenant,
                    offset: e.offset,
                    len: e.len,
                    align,
                });
            }
            floor = e.at;
        }
        queue.extend(entries);
        *last = floor;
        Ok(())
    }

    /// Arms a one-shot fault: the next migration "forgets" to re-home
    /// the migrant, so the tenant-conservation contract must report it
    /// at the following epoch boundary.
    #[cfg(feature = "fault-injection")]
    pub fn arm_migration_fault(&mut self) {
        self.drop_next_migrant = true;
    }

    /// Nominal end of epoch `e` on the arrival axis.
    fn window_end(&self, e: usize) -> SimTime {
        SimTime::from_nanos(
            (self.state.config.duration.as_nanos() as u128 * (e as u128 + 1)
                / self.state.config.epochs as u128) as u64,
        )
    }

    /// Runs the next epoch: merge, drive, audit, rebalance.
    ///
    /// Every device's grant loop, stream merge and doorbell run as one
    /// cell on the sim's executor (width from `UC_THREADS`, else one
    /// worker per core); the results fold in device order, so the
    /// outcome is identical at any width.
    ///
    /// # Errors
    ///
    /// Returns the lowest-numbered device's [`IoError`] (a
    /// placement/geometry bug; healthy fleets never hit one). The other
    /// devices' cells have run by then, so the sim is left part-way
    /// through the epoch and cannot be resumed: drop it, or restart from
    /// the last boundary's state and device checkpoints.
    ///
    /// # Panics
    ///
    /// Panics if the fleet already finished.
    pub fn run_epoch(&mut self) -> Result<(), IoError> {
        assert!(!self.is_finished(), "fleet already finished");
        let e = self.state.epoch;
        let cut = if e + 1 == self.state.config.epochs {
            SimTime::MAX // final epoch drains everything
        } else {
            self.window_end(e)
        };
        let n = self.state.tenants.len();
        // Lend each resident's run and budget to its home device's cell,
        // in ascending tenant id (the order `Placement::residents` gives).
        let mut groups: Vec<Vec<Resident<'_>>> = (0..self.devices.len())
            .map(|_| Vec::with_capacity(self.state.placement.slots_per_device()))
            .collect();
        let (placement, tenants) = (&self.state.placement, &mut self.state.tenants);
        let lent = tenants.iter_mut().zip(self.state.buckets.buckets_mut());
        let mut feeds = self.feeds.iter_mut();
        for (t, ((run, bucket), spec)) in lent.zip(&self.specs).enumerate() {
            let feed = feeds.next();
            if let Some((dev, slot)) = placement.home(t as u32) {
                groups[dev].push(Resident {
                    id: t as u32,
                    base: placement.base(slot),
                    trace: &spec.trace,
                    run,
                    bucket,
                    feed,
                });
            }
        }
        // One cell per device: each touches only its own device and
        // residents, so the executor may run them in any interleaving.
        let cells: Vec<_> = self
            .devices
            .iter_mut()
            .zip(groups)
            .map(|(device, residents)| move || run_device_epoch(device, residents, cut))
            .collect();
        let epochs = self
            .executor
            .run(cells)
            .into_iter()
            .collect::<Result<Vec<_>, IoError>>()?;
        // Fold in device order on this thread.
        let mut ep_bytes = vec![0u64; n];
        let mut ep_ios = vec![0u64; n];
        let mut ep_lat_ns = vec![0u128; n];
        let mut dev_bytes = Vec::with_capacity(epochs.len());
        for dev in &epochs {
            for tally in &dev.tallies {
                let t = tally.tenant as usize;
                ep_bytes[t] = tally.bytes;
                ep_ios[t] = tally.ios;
                ep_lat_ns[t] = tally.latency_ns;
            }
            dev_bytes.push(dev.bytes);
            self.state.buckets.credit(dev.granted);
            self.obs.add(self.ids.throttle_events, dev.throttle_events);
            self.obs.add(self.ids.throttled_ns, dev.throttled_ns);
            self.obs.add(self.ids.ios, dev.ios);
            self.obs.add(self.ids.bytes, dev.bytes);
            self.obs
                .hist_mut(self.ids.grant_wait)
                .merge(&dev.grant_wait);
            self.obs.hist_mut(self.ids.latency).merge(&dev.latency);
            self.state.finished_at = self.state.finished_at.max(dev.finished_at);
        }
        // Epoch cut: fairness over inverse mean latencies (equal service
        // quality -> 1.0; a tenant queueing behind a noisy neighbor drags
        // the index down). Budget self-throttling is excluded by
        // construction (latency is measured from the grant).
        let shares: Vec<f64> = (0..n)
            .filter(|&t| ep_ios[t] > 0)
            .map(|t| ep_ios[t] as f64 / ep_lat_ns[t] as f64)
            .collect();
        let fairness = jain_index(&shares);
        let epoch_ios: u64 = ep_ios.iter().sum();
        self.state.epoch_stats.push(EpochStat {
            tenant_bytes: ep_bytes,
            device_bytes: dev_bytes,
            fairness,
        });
        self.obs.inc(self.ids.epochs);
        // Fairness is an f64 in [0,1]; milli-units keep the snapshot
        // integer-only (truncation of a deterministic computation).
        self.obs
            .set(self.ids.fairness_milli, (fairness * 1000.0) as i64);
        self.flight
            .record(self.state.finished_at, "epoch-end", e as u64, epoch_ios);
        self.audit_boundary();
        if let Some(policy) = self.state.config.rebalance {
            if e + 1 < self.state.config.epochs {
                let stat = self.state.epoch_stats.last().expect("just pushed").clone();
                for mv in policy.plan(&stat, &self.state.placement) {
                    self.migrate(mv.tenant, mv.to)?;
                }
            }
        }
        self.state.epoch += 1;
        Ok(())
    }

    /// Collects boundary contract audits into the violations log (never
    /// panics — violations are findings, reported at the end).
    fn audit_boundary(&mut self) {
        let mut found = Vec::new();
        if let Err(v) = self.state.placement.check() {
            found.push(v.to_string());
        }
        if let Err(v) = self.state.buckets.check() {
            found.push(v.to_string());
        }
        for d in &self.devices {
            if let Err(v) = d.check() {
                found.push(v.to_string());
            }
        }
        for v in &found {
            self.record_violation(v);
        }
        self.state.violations.extend(found);
    }

    /// Puts a contract violation on the flight recorder so a postmortem
    /// dump's last events name the violating seam verbatim.
    fn record_violation(&mut self, rendered: &str) {
        self.obs.inc(self.ids.violations);
        self.flight.record(
            self.state.finished_at,
            format!("contract-violation: {rendered}"),
            self.state.epoch as u64,
            0,
        );
    }

    /// Migrates `tenant` to `to_device` through the checkpoint seam:
    /// freeze the source state (fingerprinted into the record), copy the
    /// tenant's written extent to its new region, and defer the tenant's
    /// tail to the copy's completion instant.
    fn migrate(&mut self, tenant: u32, to_device: usize) -> Result<(), IoError> {
        let placement = &self.state.placement;
        let (from_device, from_slot) = placement.home(tenant).expect("migrant has a home");
        let to_slot = match placement.free_slot(to_device) {
            Some(s) => s,
            None => return Ok(()), // plan raced headroom; skip, stay consistent
        };
        let boundary = self.window_end(self.state.epoch);
        // Freeze: encode the source device's complete state in place. The
        // fingerprint lands in the migration record, so two runs of the
        // same fleet prove they froze identical state.
        let frozen_at = self.devices[from_device].queue_head().max(boundary);
        let freeze_crc = {
            let mut frozen = Encoder::new();
            self.devices[from_device]
                .inner()
                .encode_checkpoint(&mut frozen);
            uc_persist::crc32(frozen.as_bytes())
        };
        self.flight.record(
            frozen_at,
            "migration-freeze",
            tenant as u64,
            from_device as u64,
        );
        #[cfg(feature = "fault-injection")]
        if self.drop_next_migrant {
            self.drop_next_migrant = false;
            // The injected bug: the migrant is dropped instead of
            // re-homed. The conservation contract must catch this at the
            // next boundary audit.
            self.state.placement.drop_tenant(tenant);
            return Ok(());
        }
        let src_base = self.state.placement.base(from_slot);
        let dst_base = self.state.placement.base(to_slot);
        let extent = self.state.tenants[tenant as usize].written_high;
        let mut completed_at = frozen_at;
        let mut copied = 0u64;
        if extent > 0 {
            // Read the written extent off the frozen source...
            let src = &mut self.devices[from_device];
            let session = src.open_session();
            let mut reads = IoBatch::new();
            let mut owners = Vec::new();
            let mut off = 0u64;
            while off < extent {
                let len = COPY_CHUNK.min(extent - off) as u32;
                reads.push(IoRequest::read(src_base + off, len, frozen_at));
                owners.push(session);
                off += len as u64;
                copied += len as u64;
            }
            let mut completions = Vec::with_capacity(reads.len());
            src.submit_batch_shared(&owners, &mut reads, &mut completions)?;
            let read_done = completions
                .iter()
                .fold(frozen_at, |acc, c| acc.max(c.completes));
            // ...and thaw it onto the target region.
            let dst = &mut self.devices[to_device];
            let session = dst.open_session();
            let start = dst.queue_head().max(read_done);
            let mut writes = IoBatch::new();
            let mut owners = Vec::new();
            let mut off = 0u64;
            while off < extent {
                let len = COPY_CHUNK.min(extent - off) as u32;
                writes.push(IoRequest::write(dst_base + off, len, start));
                owners.push(session);
                off += len as u64;
            }
            completions.clear();
            dst.submit_batch_shared(&owners, &mut writes, &mut completions)?;
            completed_at = completions
                .iter()
                .fold(start, |acc, c| acc.max(c.completes));
        }
        let before = self.state.placement.homes().to_vec();
        self.state.placement.migrate(tenant, to_device, to_slot);
        let audit_result = {
            let audit = MigrationAudit {
                tenant,
                before: &before,
                after: self.state.placement.homes(),
            };
            audit.check().and_then(|()| self.state.placement.check())
        };
        if let Err(v) = audit_result {
            let rendered = v.to_string();
            self.record_violation(&rendered);
            self.state.violations.push(rendered);
        }
        // Replay the tail: entries that arrived during the copy defer to
        // its completion.
        let run = &mut self.state.tenants[tenant as usize];
        run.floor = run.floor.max(completed_at);
        self.state.finished_at = self.state.finished_at.max(completed_at);
        self.obs.inc(self.ids.migrations);
        self.obs.add(self.ids.migration_bytes, copied);
        self.flight
            .record(completed_at, "migration-complete", tenant as u64, copied);
        self.state.migrations.push(MigrationRecord {
            epoch: self.state.epoch as u64,
            tenant,
            from: (from_device, from_slot),
            to: (to_device, to_slot),
            frozen_at,
            completed_at,
            bytes_copied: copied,
            freeze_crc,
        });
        Ok(())
    }

    /// Runs every remaining epoch and reports.
    ///
    /// # Errors
    ///
    /// Propagates the first device [`IoError`].
    pub fn run(&mut self) -> Result<FleetReport, IoError> {
        while !self.is_finished() {
            self.run_epoch()?;
        }
        Ok(self.report())
    }

    /// The report of everything run so far.
    pub fn report(&self) -> FleetReport {
        let state = &self.state;
        let per_tenant = state
            .tenants
            .iter()
            .enumerate()
            .map(|(t, run)| TenantSummary {
                id: t as u32,
                device: state.placement.home(t as u32).map_or(usize::MAX, |h| h.0),
                ios: run.metrics.ios,
                bytes: run.metrics.bytes,
                mean_latency: run.metrics.latency.mean(),
                p99_latency: run.metrics.latency.percentile(99.0),
                max_latency: run.metrics.latency.max(),
                throttle_events: run.metrics.throttle_events,
                throttled: run.metrics.throttled,
            })
            .collect::<Vec<_>>();
        FleetReport {
            tenants: state.config.tenants,
            devices: state.config.devices,
            epochs: state.epoch,
            fairness_per_epoch: state.epoch_stats.iter().map(|s| s.fairness).collect(),
            migrations: state.migrations.clone(),
            violations: state.violations.clone(),
            total_ios: per_tenant.iter().map(|t| t.ios).sum(),
            total_bytes: per_tenant.iter().map(|t| t.bytes).sum(),
            finished_at: state.finished_at,
            per_tenant,
        }
    }

    /// The fleet's state between epochs: clone it for an in-memory
    /// checkpoint (with [`checkpoint_devices`](Self::checkpoint_devices)),
    /// encode it for a durable one (with [`devices`](Self::devices)).
    pub fn state(&self) -> &FleetState {
        &self.state
    }

    /// The device pool, in pool order: a durable save encodes each
    /// device's queue head and checkpoint from here in place
    /// ([`CheckpointDevice::encode_checkpoint`]).
    pub fn devices(&self) -> &[SharedDevice<FleetDevice>] {
        &self.devices
    }

    /// Freezes every device in the pool, in pool order, each with its
    /// shared-queue head (the doorbell clamp floor a thawed device must
    /// resume with, see [`from_state`](Self::from_state)).
    pub fn checkpoint_devices(&self) -> Vec<(SimTime, DeviceCheckpoint)> {
        self.devices
            .iter()
            .map(|d| (d.queue_head(), d.inner().checkpoint()))
            .collect()
    }

    /// The per-tenant specs (for rendering: shape, budget).
    pub fn tenant_spec(&self, tenant: u32) -> &TenantSpec {
        &self.specs[tenant as usize]
    }

    /// Telemetry snapshot: fleet-level rows, the merged per-tenant latency
    /// distribution, then every device's internals (FTL/cluster counters)
    /// in roster order under `fleet.device{i}.…`.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        let mut reg = self.obs.clone();
        // Pool-level tenant latency: per-tenant histograms merged into one
        // (the aggregation seam `LatencyHistogram::merge` exists for).
        let mut merged = LatencyHistogram::new();
        for run in &self.state.tenants {
            merged.merge(&run.metrics.latency);
        }
        let id = reg.hist("fleet.tenant_latency_ns");
        *reg.hist_mut(id) = merged;
        for (i, dev) in self.devices.iter().enumerate() {
            dev.inner()
                .observe_into(&format!("fleet.device{i}"), &mut reg);
        }
        reg.snapshot()
    }

    /// Full telemetry report: [`obs_snapshot`](Self::obs_snapshot) plus
    /// the flight-recorder tail (dump this as `uc.obs.v1` on violation,
    /// crash-hook exit, or demand).
    pub fn obs_report(&self) -> ObsReport {
        ObsReport {
            snapshot: self.obs_snapshot(),
            events: self.flight.to_vec(),
            dropped_events: self.flight.dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_essd::{Essd, EssdConfig};
    use uc_persist::Persist;

    fn pool(devices: usize, capacity: u64, seed: u64) -> Vec<FleetDevice> {
        (0..devices)
            .map(|i| {
                let config = EssdConfig::alibaba_pl3(capacity)
                    .with_name(format!("fleet-essd-{i}"))
                    .with_seed(seed ^ i as u64);
                Box::new(Essd::new(config)) as FleetDevice
            })
            .collect()
    }

    fn small_config() -> FleetConfig {
        FleetConfig::new(12, 2).with_duration(SimDuration::from_millis(20))
    }

    /// Rebuilds `frozen`'s devices on a fresh pool and the fleet on them.
    fn thaw(state: FleetState, frozen: Vec<(SimTime, DeviceCheckpoint)>) -> FleetSim {
        let devices = pool(state.config.devices, 64 << 20, 7)
            .into_iter()
            .zip(frozen)
            .map(|(mut device, (head, checkpoint))| {
                device.restore_from(checkpoint).expect("thaws");
                SharedDevice::with_queue_head(device, head)
            })
            .collect();
        FleetSim::from_state(state, devices)
    }

    #[test]
    fn two_runs_are_byte_identical() {
        let mut a = FleetSim::new(small_config(), pool(2, 64 << 20, 7));
        let mut b = FleetSim::new(small_config(), pool(2, 64 << 20, 7));
        let ra = a.run().expect("fleet a runs");
        let rb = b.run().expect("fleet b runs");
        assert_eq!(ra, rb);
        assert_eq!(a.state().to_bytes(), b.state().to_bytes());
        assert!(ra.violations.is_empty(), "{:?}", ra.violations);
        assert!(ra.total_ios > 0);
        assert!(ra.min_fairness() > 0.0 && ra.min_fairness() <= 1.0);
    }

    #[test]
    fn fed_fleet_matches_generated_fleet_byte_for_byte() {
        let mut generated = FleetSim::new(small_config(), pool(2, 64 << 20, 7));
        let mut fed = FleetSim::new_fed(small_config(), pool(2, 64 << 20, 7));
        // Feed exactly the entries the generated fleet synthesized,
        // chunked to exercise incremental pushes.
        for t in 0..small_config().tenants as u32 {
            let entries = fed.tenant_spec(t).trace.generate().entries().to_vec();
            for chunk in entries.chunks(7) {
                fed.push_entries(t, chunk).expect("valid feed");
            }
        }
        let ra = generated.run().expect("generated runs");
        let rb = fed.run().expect("fed runs");
        assert_eq!(ra, rb);
        // A fed fleet's cursors never move: take the generated ones, then
        // compare everything.
        for (fed, generated) in fed.state.tenants.iter_mut().zip(&generated.state.tenants) {
            (fed.rng, fed.t) = (generated.rng.clone(), generated.t);
        }
        assert_eq!(state_bytes(&generated), state_bytes(&fed));
    }

    #[test]
    fn feed_errors_are_typed() {
        let mut generated = FleetSim::new(small_config(), pool(2, 64 << 20, 7));
        let entry = TraceEntry {
            at: SimTime::from_nanos(10),
            kind: uc_blockdev::IoKind::Write,
            offset: 0,
            len: 4096,
        };
        assert_eq!(generated.push_entries(0, &[entry]), Err(FeedError::NotFed));

        let mut fed = FleetSim::new_fed(small_config(), pool(2, 64 << 20, 7));
        assert_eq!(
            fed.push_entries(99, &[entry]),
            Err(FeedError::UnknownTenant { tenant: 99 })
        );
        let span = fed.region_span();
        assert_eq!(
            fed.push_entries(
                0,
                &[TraceEntry {
                    offset: span,
                    ..entry
                }]
            ),
            Err(FeedError::OutOfRegion {
                tenant: 0,
                end: span + 4096,
                span,
            })
        );
        fed.push_entries(0, &[entry]).expect("in-region feed");
        assert_eq!(
            fed.push_entries(
                0,
                &[TraceEntry {
                    at: SimTime::from_nanos(5),
                    ..entry
                }]
            ),
            Err(FeedError::NonMonotone { tenant: 0 })
        );
        fed.run().expect("fed fleet drains");
        assert_eq!(fed.push_entries(0, &[entry]), Err(FeedError::Finished));
    }

    #[test]
    fn crafted_feeds_are_refused_and_the_fleet_still_runs() {
        let mut fed = FleetSim::new_fed(small_config(), pool(2, 64 << 20, 7));
        let span = fed.region_span();
        let entry = TraceEntry {
            at: SimTime::from_nanos(10),
            kind: uc_blockdev::IoKind::Write,
            offset: 0,
            len: 4096,
        };
        let crafted = [
            (
                TraceEntry { len: 0, ..entry },
                FeedError::ZeroLength { tenant: 0 },
            ),
            (
                TraceEntry {
                    offset: 100,
                    len: 1000,
                    ..entry
                },
                FeedError::Misaligned {
                    tenant: 0,
                    offset: 100,
                    len: 1000,
                    align: 4096,
                },
            ),
            (
                TraceEntry {
                    offset: u64::MAX - 100,
                    ..entry
                },
                FeedError::OutOfRegion {
                    tenant: 0,
                    end: u64::MAX,
                    span,
                },
            ),
            (
                TraceEntry {
                    offset: u64::MAX - 4095,
                    ..entry
                },
                FeedError::OutOfRegion {
                    tenant: 0,
                    end: u64::MAX,
                    span,
                },
            ),
        ];
        for (bad, err) in crafted {
            // A refused push appends nothing, not even its valid prefix.
            assert_eq!(fed.push_entries(0, &[entry, bad]), Err(err));
        }
        fed.push_entries(0, &[entry]).expect("valid feed");
        let report = fed.run().expect("refused entries never reach a device");
        assert_eq!(report.total_ios, 1);
    }

    #[test]
    fn fed_queues_hold_only_unserved_entries() {
        let mut fed = FleetSim::new_fed(small_config(), pool(2, 64 << 20, 7));
        let mut pushed = 0;
        for t in 0..small_config().tenants as u32 {
            let trace = fed.tenant_spec(t).trace.generate();
            pushed += trace.len();
            fed.push_entries(t, trace.entries()).expect("valid feed");
        }
        fed.run_epoch().expect("epoch 0");
        let cut = fed.window_end(0);
        // Every entry granted in an epoch completes in it.
        let served = fed.report().total_ios as usize;
        let mut queued = 0;
        for feed in &fed.feeds {
            assert!(feed.queue.iter().all(|e| e.at >= cut), "served entry kept");
            queued += feed.queue.len();
        }
        assert!(served > 0 && queued > 0, "{served} served, {queued} queued");
        assert_eq!(served + queued, pushed);
    }

    #[test]
    fn skewed_fleet_rebalances_cleanly() {
        // All-steady mix plus heavy-tail hot tenants: contiguous
        // placement concentrates load, so the planner must fire.
        let config = small_config().with_rebalance(RebalancePolicy::default());
        let mut sim = FleetSim::new(config, pool(2, 64 << 20, 7));
        let report = sim.run().expect("fleet runs");
        assert!(
            !report.migrations.is_empty(),
            "no migration despite skew: {:?}",
            report.fairness_per_epoch
        );
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let mv = &report.migrations[0];
        assert_ne!(mv.from.0, mv.to.0, "migration must change device");
        assert!(mv.completed_at >= mv.frozen_at);
        assert!(mv.bytes_copied > 0, "hot tenant had written an extent");
    }

    #[test]
    fn kill_and_resume_is_byte_identical() {
        let config = small_config().with_rebalance(RebalancePolicy::default());
        // Straight-through reference run.
        let mut whole = FleetSim::new(config.clone(), pool(2, 64 << 20, 7));
        let whole_report = whole.run().expect("reference runs");

        // Interrupted run: stop after 2 epochs, freeze, thaw, finish.
        let mut first = FleetSim::new(config.clone(), pool(2, 64 << 20, 7));
        first.run_epoch().expect("epoch 0");
        first.run_epoch().expect("epoch 1");
        let state = FleetState::from_bytes(&first.state().to_bytes()).expect("decodes");
        let frozen = first.checkpoint_devices();
        drop(first); // the "kill"

        let mut resumed = thaw(state, frozen);
        assert_eq!(resumed.state().epoch, 2);
        let resumed_report = resumed.run().expect("resumed runs");

        assert_eq!(whole_report, resumed_report);
        assert_eq!(whole.state().to_bytes(), resumed.state().to_bytes());
    }

    /// Everything a fleet run exposes, as bytes: the encoded state,
    /// every device's queue head and encoded checkpoint, and the
    /// telemetry record.
    fn state_bytes(sim: &FleetSim) -> (Vec<u8>, Vec<Vec<u8>>, Vec<u8>) {
        let devices = sim
            .checkpoint_devices()
            .iter()
            .map(|(head, cp)| {
                let mut w = Encoder::new();
                head.encode(&mut w);
                let Ok(()) = cp.encode_into(&mut w);
                w.into_bytes()
            })
            .collect();
        (
            sim.state().to_bytes(),
            devices,
            sim.obs_report().to_record_bytes(),
        )
    }

    #[test]
    fn device_cells_are_thread_invariant_across_a_resume() {
        let config = FleetConfig::new(32, 4)
            .with_duration(SimDuration::from_millis(20))
            .with_rebalance(RebalancePolicy::default());
        let sequential = Executor::sequential();
        let parallel = Executor::with_threads(3);
        let mut outcomes = Vec::new();
        for (prefix, suffix) in [
            (sequential, sequential),
            (parallel, parallel),
            (sequential, parallel),
            (parallel, sequential),
        ] {
            let mut first =
                FleetSim::new(config.clone(), pool(4, 64 << 20, 7)).with_executor(prefix);
            first.run_epoch().expect("epoch 0");
            first.run_epoch().expect("epoch 1");
            let at_cut = state_bytes(&first);
            let state = first.state().clone();
            let frozen = first.checkpoint_devices();
            drop(first);
            let mut resumed = thaw(state, frozen).with_executor(suffix);
            let report = resumed.run().expect("resumed runs");
            assert!(!report.migrations.is_empty(), "the fleet must migrate");
            assert!(report.violations.is_empty(), "{:?}", report.violations);
            outcomes.push((at_cut, report, state_bytes(&resumed)));
        }
        for (i, outcome) in outcomes.iter().enumerate().skip(1) {
            assert!(*outcome == outcomes[0], "executor pairing {i} diverged");
        }
    }

    #[test]
    fn snapshot_roundtrips_through_persist() {
        let mut sim = FleetSim::new(small_config(), pool(2, 64 << 20, 7));
        sim.run_epoch().expect("epoch 0");
        let bytes = sim.state().to_bytes();
        let back = FleetState::from_bytes(&bytes).expect("decodes");
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn obs_reports_are_byte_identical_across_same_seed_runs() {
        let mut a = FleetSim::new(small_config(), pool(2, 64 << 20, 7));
        let mut b = FleetSim::new(small_config(), pool(2, 64 << 20, 7));
        a.run().expect("fleet a runs");
        b.run().expect("fleet b runs");
        let ra = a.obs_report();
        let rb = b.obs_report();
        assert_eq!(ra.render_text(), rb.render_text());
        assert_eq!(ra.to_record_bytes(), rb.to_record_bytes());
        // The instrumentation actually measured the run.
        assert!(ra.snapshot.counter("fleet.ios").unwrap() > 0);
        assert_eq!(ra.snapshot.counter("fleet.ios"), Some(a.report().total_ios));
        let lat = ra.snapshot.histogram("fleet.io_latency_ns").unwrap();
        assert_eq!(lat.count, a.report().total_ios);
        assert!(lat.p99_ns >= lat.p50_ns);
        // Merged per-tenant latency covers the same population.
        let merged = ra.snapshot.histogram("fleet.tenant_latency_ns").unwrap();
        assert_eq!(merged.count, lat.count);
        // Per-device internals came through the observe seam.
        assert!(
            ra.snapshot
                .counter("fleet.device0.cluster.bytes_written")
                .unwrap()
                > 0
        );
        // Every epoch left a flight event.
        assert_eq!(
            ra.events.iter().filter(|e| e.what == "epoch-end").count(),
            small_config().epochs
        );
    }

    #[test]
    fn migrations_leave_phase_events_on_the_flight_recorder() {
        let config = small_config().with_rebalance(RebalancePolicy::default());
        let mut sim = FleetSim::new(config, pool(2, 64 << 20, 7));
        let report = sim.run().expect("fleet runs");
        assert!(!report.migrations.is_empty());
        let obs = sim.obs_report();
        let freezes = obs
            .events
            .iter()
            .filter(|e| e.what == "migration-freeze")
            .count();
        let completes = obs
            .events
            .iter()
            .filter(|e| e.what == "migration-complete")
            .count();
        assert_eq!(freezes, report.migrations.len());
        assert_eq!(completes, report.migrations.len());
        assert_eq!(
            obs.snapshot.counter("fleet.migrations"),
            Some(report.migrations.len() as u64)
        );
    }

    #[test]
    #[cfg(feature = "fault-injection")]
    fn violation_dump_names_the_violating_seam() {
        let config = small_config().with_rebalance(RebalancePolicy::default());
        let mut sim = FleetSim::new(config, pool(2, 64 << 20, 7));
        sim.arm_migration_fault();
        let report = sim.run().expect("violations are findings");
        assert!(!report.violations.is_empty());
        let obs = sim.obs_report();
        // The flight tail must carry the violation verbatim — a postmortem
        // reader sees which contract fired without any other artifact.
        assert!(
            obs.events
                .iter()
                .any(|e| e.what.starts_with("contract-violation:")
                    && e.what.contains("every-tenant-placed")),
            "flight tail misses the violating seam: {:#?}",
            obs.events
        );
        assert!(obs.snapshot.counter("fleet.violations").unwrap() > 0);
    }

    #[test]
    #[cfg(feature = "fault-injection")]
    fn dropped_migrant_is_caught_by_the_conservation_contract() {
        let config = small_config().with_rebalance(RebalancePolicy::default());
        let mut sim = FleetSim::new(config, pool(2, 64 << 20, 7));
        sim.arm_migration_fault();
        let report = sim.run().expect("fleet runs; violations are findings");
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("every-tenant-placed")),
            "conservation contract missed the dropped tenant: {:?}",
            report.violations
        );
    }
}
