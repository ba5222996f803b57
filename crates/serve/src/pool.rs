//! The served device pool: shared lanes, admission control, rate limits.
//!
//! [`ServePool`] owns the device lanes a server exposes. Each lane wraps
//! one [`BlockDevice`] in a [`SharedDevice`]; every connection (or
//! in-process [`PoolDevice`]) opens a session on one lane and submits
//! batches through [`ServePool::submit`], which applies the three
//! protection mechanisms in order:
//!
//! 1. **ring bound** — a batch larger than the per-connection submission
//!    ring is refused with [`BusyReason::RingFull`] before admission;
//! 2. **overload shedding** — a batch arriving while `max_inflight`
//!    batches are already being serviced (including responses still being
//!    written back to slow clients) is refused with
//!    [`BusyReason::Overload`];
//! 3. **token-bucket rate limiting** — an optional per-session
//!    byte-rate budget ([`TokenBucket`]): a batch over budget is not
//!    refused but *delayed*, its submit instants shifted to the bucket's
//!    grant instant, exactly how the elastic devices themselves enforce
//!    their throughput budgets (Observation 4).
//!
//! Refusals are typed and issue no I/O — backpressure is never a silent
//! drop.
//!
//! **One lock.** Everything the pool guards — the lanes, the fleet
//! frontend and the telemetry registry — sits behind one mutex, taken
//! once per call and never held across a socket write: the event loop
//! writes responses after `submit` returns, so a slow client cannot
//! hold up another lane. The lock tolerates poison. A device that
//! panics inside a doorbell unwinds through its caller and releases
//! the batch's admission slot; later requests and read-outs proceed on
//! whatever state the panic left.
//!
//! **Fleet mode** ([`ServePool::new_fleet`]) mounts a fed
//! [`FleetSim`](uc_fleet::FleetSim) behind the same pool: wire clients
//! attach *tenant* lanes, push arrival entries
//! ([`tenant_push`](ServePool::tenant_push)) and flush epochs
//! ([`tenant_flush`](ServePool::tenant_flush)). An epoch runs only when
//! every tenant in the fleet has flushed it — the wire-facing form of
//! the fleet's epoch barrier — and completed rebalances surface as
//! typed moves for the server to translate into `LANE_MOVED` frames.

use crate::wire::BusyReason;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use uc_blockdev::{
    BlockDevice, Completion, DeviceInfo, IoBatch, IoError, IoRequest, IoResult, SessionId,
    SessionStats, SharedDevice,
};
use uc_fleet::{FeedError, FleetReport, FleetSim};
use uc_obs::{CounterId, GaugeId, HistId, MetricsRegistry, ObsReport, ObsSnapshot};
use uc_sim::{SimTime, TokenBucket};
use uc_workload::TraceEntry;

/// Tuning knobs of a [`ServePool`].
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Maximum requests per submit frame (the per-connection submission
    /// ring). Larger batches are refused with [`BusyReason::RingFull`].
    pub ring: usize,
    /// Maximum batches in flight across the whole pool (admission to
    /// response write-back). Arrivals above the ceiling are refused with
    /// [`BusyReason::Overload`].
    pub max_inflight: usize,
    /// Per-session byte-rate budget in bytes/second (burst = one
    /// second's worth). `None` disables rate limiting.
    pub rate: Option<f64>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            ring: 64,
            max_inflight: 1024,
            rate: None,
        }
    }
}

/// One session's handle on a pool lane.
#[derive(Debug)]
pub struct PoolSession {
    device: usize,
    session: SessionId,
    bucket: Option<TokenBucket>,
    throttled: u64,
}

impl PoolSession {
    /// The lane index the session is attached to.
    pub fn device(&self) -> usize {
        self.device
    }

    /// The lane-local session id.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// Batches this session has had delayed by its rate budget.
    pub fn throttled(&self) -> u64 {
        self.throttled
    }
}

/// Why [`ServePool::submit`] refused or failed a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// Backpressure: nothing was issued; the caller may retry.
    Busy(BusyReason),
    /// The device rejected a request (requests queued before the failing
    /// one have been applied, as with any batch submission).
    Io(IoError),
}

/// Decrements the pool's in-flight count when dropped.
///
/// [`ServePool::submit`] returns one guard per admitted batch. It shares
/// the pool's counter rather than borrowing the pool, so the event loop
/// can park it in a connection's state machine until the response bytes
/// have fully drained to the socket: a stalled reader keeps occupying
/// its admission slot, which is precisely what the overload ceiling
/// must see.
pub struct InflightGuard {
    inflight: Arc<AtomicUsize>,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

impl std::fmt::Debug for InflightGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InflightGuard")
            .field("inflight", &self.inflight.load(Ordering::Acquire))
            .finish()
    }
}

struct Lane {
    label: String,
    shared: SharedDevice<Box<dyn BlockDevice + Send>>,
}

/// Everything the pool's one lock guards.
struct PoolState {
    lanes: Vec<Lane>,
    fleet: Option<FleetFrontend>,
    obs: MetricsRegistry,
    /// Doorbell scratch [`ServePool::submit`] rebuilds and reuses for
    /// every batch: the batch shifted to the rate budget's grant...
    batch: IoBatch,
    /// ...and the issuing session of each batched request.
    owners: Vec<SessionId>,
}

/// Typed handles into the pool's registry for one lane.
#[derive(Debug, Clone, Copy)]
struct LaneObsIds {
    ios: CounterId,
    bytes: CounterId,
    batch_size: HistId,
    service: HistId,
    queue_depth: GaugeId,
}

/// Typed handles into the pool's registry, registered once at
/// construction so the hot path never allocates a metric name.
#[derive(Debug, Clone)]
struct PoolObsIds {
    batches: CounterId,
    ios: CounterId,
    bytes: CounterId,
    busy_ring_full: CounterId,
    shed_overload: CounterId,
    throttled: CounterId,
    inflight_peak: GaugeId,
    lanes: Vec<LaneObsIds>,
}

impl PoolObsIds {
    /// Registration order is the snapshot's row order: pool-level
    /// metrics first, then each lane's, in lane order — deterministic
    /// for any pool shape.
    fn register(obs: &mut MetricsRegistry, lanes: usize) -> Self {
        PoolObsIds {
            batches: obs.counter("serve.pool.batches"),
            ios: obs.counter("serve.pool.ios"),
            bytes: obs.counter("serve.pool.bytes"),
            busy_ring_full: obs.counter("serve.pool.busy_ring_full"),
            shed_overload: obs.counter("serve.pool.shed_overload"),
            throttled: obs.counter("serve.pool.throttled"),
            inflight_peak: obs.gauge("serve.pool.inflight_peak"),
            lanes: (0..lanes)
                .map(|i| LaneObsIds {
                    ios: obs.counter(&format!("serve.lane{i}.ios")),
                    bytes: obs.counter(&format!("serve.lane{i}.bytes")),
                    batch_size: obs.hist(&format!("serve.lane{i}.batch_size")),
                    service: obs.hist(&format!("serve.lane{i}.service_ns")),
                    queue_depth: obs.gauge(&format!("serve.lane{i}.queue_depth")),
                })
                .collect(),
        }
    }
}

/// Errors from the fleet-mode tenant seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetError {
    /// The pool is not serving a fleet.
    NotFleet,
    /// No such tenant.
    UnknownTenant,
    /// The tenant is already mounted on another lane.
    AlreadyAttached,
    /// A flush named an epoch that is not the fleet's next.
    EpochMismatch {
        /// The epoch the fleet will run next.
        expected: u64,
    },
    /// The feed seam refused the pushed entries.
    Feed(FeedError),
    /// The epoch run hit a device error (a placement/geometry bug).
    Io(IoError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::NotFleet => write!(f, "pool is not serving a fleet"),
            FleetError::UnknownTenant => write!(f, "unknown tenant"),
            FleetError::AlreadyAttached => write!(f, "tenant already attached"),
            FleetError::EpochMismatch { expected } => {
                write!(f, "flush out of order: fleet expects epoch {expected}")
            }
            FleetError::Feed(e) => write!(f, "{e}"),
            FleetError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// One completed rebalance move, as surfaced to the server for
/// `LANE_MOVED` framing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantMove {
    /// The migrated tenant.
    pub tenant: u32,
    /// Its new home device index.
    pub to_device: u32,
}

/// What [`ServePool::tenant_flush`] observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlushOutcome {
    /// Other tenants have not flushed this epoch yet; the caller's
    /// `FLUSH_OK` is owed once the barrier clears.
    Waiting,
    /// This flush completed the barrier and the epoch ran: every lane
    /// pending on `epoch` is owed its `FLUSH_OK` now (preceded by a
    /// `LANE_MOVED` for tenants in `moves`).
    EpochComplete {
        /// The epoch that ran.
        epoch: u64,
        /// Rebalance moves the epoch completed, in completion order.
        moves: Vec<TenantMove>,
    },
}

/// The wire-facing face of a fed [`FleetSim`]: attachment bookkeeping
/// plus the all-tenants flush barrier.
struct FleetFrontend {
    sim: FleetSim,
    attached: Vec<bool>,
    flushed: Vec<bool>,
    flushed_count: usize,
}

/// The set of device lanes one server exposes, plus (in fleet mode) the
/// tenant seam.
pub struct ServePool {
    state: Mutex<PoolState>,
    config: PoolConfig,
    /// Batches admitted and not yet released. Raised only under the
    /// lock; an [`InflightGuard`] lowers it wherever it drops.
    inflight: Arc<AtomicUsize>,
    oids: PoolObsIds,
}

/// One lane's slice of a [`ServeReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceLaneReport {
    /// Lane index.
    pub index: usize,
    /// The label the lane was registered under.
    pub label: String,
    /// The device's name.
    pub name: String,
    /// The device's capacity in bytes.
    pub capacity: u64,
    /// The lane's queue head (latest doorbelled instant).
    pub queue_head: SimTime,
    /// Every session's ledger, in open order.
    pub sessions: Vec<SessionStats>,
}

/// The device-side read-out of a serving run: per-lane session ledgers
/// plus the pool-level backpressure counters.
///
/// Equality is exact, which is what the loopback-determinism acceptance
/// bar compares: a replay through the server and the same replay
/// in-process must produce `==` (and byte-identical rendered) reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReport {
    /// One entry per lane, in lane order.
    pub devices: Vec<DeviceLaneReport>,
    /// Submit frames refused because they exceeded the ring.
    pub busy_ring_full: u64,
    /// Submit frames shed above the in-flight ceiling.
    pub shed_overload: u64,
    /// Batches delayed by a session's rate budget.
    pub throttled: u64,
}

impl ServeReport {
    /// Total requests served across every lane and session.
    pub fn total_ios(&self) -> u64 {
        self.devices
            .iter()
            .flat_map(|d| d.sessions.iter())
            .map(|s| s.ios)
            .sum()
    }

    /// Total bytes served across every lane and session.
    pub fn total_bytes(&self) -> u64 {
        self.devices
            .iter()
            .flat_map(|d| d.sessions.iter())
            .map(|s| s.bytes)
            .sum()
    }
}

impl ServePool {
    /// Builds a pool of `(label, device)` lanes under `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.ring` or `config.max_inflight` is zero, or a
    /// configured rate is not positive and finite.
    pub fn new(devices: Vec<(String, Box<dyn BlockDevice + Send>)>, config: PoolConfig) -> Self {
        assert!(config.ring > 0, "submission ring must be positive");
        assert!(
            config.max_inflight > 0,
            "in-flight ceiling must be positive"
        );
        if let Some(rate) = config.rate {
            assert!(
                rate > 0.0 && rate.is_finite(),
                "rate budget must be positive and finite"
            );
        }
        let lanes: Vec<Lane> = devices
            .into_iter()
            .map(|(label, dev)| Lane {
                label,
                shared: SharedDevice::new(dev),
            })
            .collect();
        let mut obs = MetricsRegistry::new();
        let oids = PoolObsIds::register(&mut obs, lanes.len());
        ServePool {
            state: Mutex::new(PoolState {
                lanes,
                fleet: None,
                obs,
                batch: IoBatch::new(),
                owners: Vec::new(),
            }),
            config,
            inflight: Arc::new(AtomicUsize::new(0)),
            oids,
        }
    }

    /// Takes the pool's one lock. A panic under it (a device panicking
    /// inside a doorbell) poisons the mutex; the state is taken back
    /// as the panic left it rather than failing every later caller.
    fn state(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Builds a fleet-mode pool: no device lanes, every wire lane is a
    /// tenant of `sim`, which must have been built with
    /// [`FleetSim::new_fed`] (external drivers supply the arrival
    /// streams).
    ///
    /// # Panics
    ///
    /// Panics on the same invalid `config` values as
    /// [`new`](ServePool::new).
    pub fn new_fleet(sim: FleetSim, config: PoolConfig) -> Self {
        let tenants = sim.state().config.tenants;
        let pool = ServePool::new(Vec::new(), config);
        pool.state().fleet = Some(FleetFrontend {
            sim,
            attached: vec![false; tenants],
            flushed: vec![false; tenants],
            flushed_count: 0,
        });
        pool
    }

    /// Number of tenants in fleet mode (0 otherwise).
    pub fn fleet_tenants(&self) -> usize {
        self.state().fleet.as_ref().map_or(0, |f| f.attached.len())
    }

    /// Mounts `tenant` as a wire lane: returns the lane's advertised
    /// facts — tenant-region name, region span as capacity, and the
    /// fleet's I/O size as the block granularity.
    ///
    /// # Errors
    ///
    /// [`FleetError::NotFleet`] / [`FleetError::UnknownTenant`] /
    /// [`FleetError::AlreadyAttached`].
    pub fn attach_tenant(&self, tenant: u32) -> Result<(String, u64, u32), FleetError> {
        let mut st = self.state();
        let f = st.fleet.as_mut().ok_or(FleetError::NotFleet)?;
        let slot = f
            .attached
            .get_mut(tenant as usize)
            .ok_or(FleetError::UnknownTenant)?;
        if *slot {
            return Err(FleetError::AlreadyAttached);
        }
        *slot = true;
        let span = f.sim.region_span();
        let io_size = f.sim.state().config.io_size;
        Ok((format!("tenant{tenant}@fleet"), span, io_size))
    }

    /// Appends pushed arrival entries to `tenant`'s stream; returns how
    /// many were accepted (all of them — the feed is transactional).
    ///
    /// # Errors
    ///
    /// [`FleetError::Feed`] with the seam's typed refusal.
    pub fn tenant_push(&self, tenant: u32, entries: &[TraceEntry]) -> Result<u64, FleetError> {
        self.state()
            .fleet
            .as_mut()
            .ok_or(FleetError::NotFleet)?
            .sim
            .push_entries(tenant, entries)
            .map_err(FleetError::Feed)?;
        Ok(entries.len() as u64)
    }

    /// Marks `tenant` flushed for `epoch`. When this flush is the last
    /// one the barrier was waiting on, the epoch runs and the outcome
    /// lists the rebalance moves it completed.
    ///
    /// # Errors
    ///
    /// [`FleetError::EpochMismatch`] for an out-of-order flush,
    /// [`FleetError::Io`] if the epoch run hit a device error.
    pub fn tenant_flush(&self, tenant: u32, epoch: u64) -> Result<FlushOutcome, FleetError> {
        let mut st = self.state();
        let f = st.fleet.as_mut().ok_or(FleetError::NotFleet)?;
        if tenant as usize >= f.attached.len() {
            return Err(FleetError::UnknownTenant);
        }
        let expected = f.sim.state().epoch as u64;
        if epoch != expected {
            return Err(FleetError::EpochMismatch { expected });
        }
        if !f.flushed[tenant as usize] {
            f.flushed[tenant as usize] = true;
            f.flushed_count += 1;
        }
        if f.flushed_count < f.flushed.len() {
            return Ok(FlushOutcome::Waiting);
        }
        f.sim.run_epoch().map_err(FleetError::Io)?;
        f.flushed.fill(false);
        f.flushed_count = 0;
        let moves = f
            .sim
            .state()
            .migrations
            .iter()
            .filter(|m| m.epoch == epoch)
            .map(|m| TenantMove {
                tenant: m.tenant,
                to_device: m.to.0 as u32,
            })
            .collect();
        Ok(FlushOutcome::EpochComplete { epoch, moves })
    }

    /// The fleet's report so far (`None` for a roster pool).
    pub fn fleet_report(&self) -> Option<FleetReport> {
        self.state().fleet.as_ref().map(|f| f.sim.report())
    }

    /// Number of device lanes.
    pub fn devices(&self) -> usize {
        self.oids.lanes.len()
    }

    /// Opens a session on lane `device`; `None` if the index is out of
    /// range.
    pub fn open(&self, device: usize) -> Option<(PoolSession, DeviceInfo)> {
        let mut st = self.state();
        let shared = &mut st.lanes.get_mut(device)?.shared;
        let session = shared.open_session();
        let info = shared.info();
        Some((
            PoolSession {
                device,
                session,
                bucket: self.config.rate.map(|r| TokenBucket::new(r, r)),
                throttled: 0,
            },
            info,
        ))
    }

    /// Submits one batch under `sess`, applying ring bound, overload
    /// shedding and the session's rate budget, in that order, and
    /// appends one [`Completion`] per request to the caller's queue
    /// `completions`, index-aligned with `reqs`.
    ///
    /// On success the returned [`InflightGuard`] holds the batch's
    /// admission slot; drop it once the completions have been delivered.
    /// Once `completions` and the pool's doorbell scratch have grown to
    /// the ring size, a doorbell allocates nothing.
    ///
    /// # Errors
    ///
    /// [`Rejection::Busy`] refusals issue no I/O. [`Rejection::Io`]
    /// propagates the device's typed error. Either way `completions` is
    /// left at its length on entry.
    pub fn submit(
        &self,
        sess: &mut PoolSession,
        reqs: &[IoRequest],
        completions: &mut Vec<Completion>,
    ) -> Result<InflightGuard, Rejection> {
        let oids = &self.oids;
        let mut st = self.state();
        let PoolState {
            lanes,
            obs,
            batch,
            owners,
            ..
        } = &mut *st;
        if reqs.len() > self.config.ring {
            obs.inc(oids.busy_ring_full);
            return Err(Rejection::Busy(BusyReason::RingFull));
        }
        // Admission: occupancy counts whole batches, admission-to-drop of
        // the guard. Only this lock raises the count, so a burst of
        // arrivals cannot overshoot the ceiling.
        let current = self.inflight.load(Ordering::Acquire);
        if current >= self.config.max_inflight {
            obs.inc(oids.shed_overload);
            return Err(Rejection::Busy(BusyReason::Overload));
        }
        self.inflight.fetch_add(1, Ordering::AcqRel);
        // Built before the device runs, so a panicking doorbell still
        // releases the slot as it unwinds.
        let guard = InflightGuard {
            inflight: Arc::clone(&self.inflight),
        };
        obs.set_max(oids.inflight_peak, (current + 1) as i64);

        // Rate budget: shift the whole batch to the bucket's grant
        // instant (relative spacing within the batch is preserved).
        let bytes: u64 = reqs.iter().map(|r| r.len as u64).sum();
        let mut delay_nanos = 0u64;
        if let (Some(bucket), Some(first)) = (sess.bucket.as_mut(), reqs.first()) {
            let grant = bucket.reserve(first.submit_time, bytes);
            delay_nanos = grant
                .as_nanos()
                .saturating_sub(first.submit_time.as_nanos());
            if delay_nanos > 0 {
                sess.throttled += 1;
                obs.inc(oids.throttled);
            }
        }

        let base = completions.len();
        batch.clear();
        for req in reqs {
            let mut shifted = *req;
            shifted.submit_time =
                SimTime::from_nanos(shifted.submit_time.as_nanos().saturating_add(delay_nanos));
            batch.push(shifted);
        }
        owners.clear();
        owners.resize(reqs.len(), sess.session);
        lanes[sess.device]
            .shared
            .submit_batch_shared(owners, batch, completions)
            .map_err(Rejection::Io)?;

        obs.inc(oids.batches);
        obs.add(oids.ios, reqs.len() as u64);
        obs.add(oids.bytes, bytes);
        let ids = &oids.lanes[sess.device];
        obs.add(ids.ios, reqs.len() as u64);
        obs.add(ids.bytes, bytes);
        obs.record_ns(ids.batch_size, reqs.len() as u64);
        obs.set_max(ids.queue_depth, reqs.len() as i64);
        for c in &completions[base..] {
            obs.record_ns(
                ids.service,
                c.completes.saturating_since(c.submitted).as_nanos(),
            );
        }
        Ok(guard)
    }

    /// Whether `sess` still names a live session on its lane — the
    /// sanity check the server runs before re-arming a resumed session's
    /// lanes onto the pool.
    pub fn validate_session(&self, sess: &PoolSession) -> bool {
        self.state()
            .lanes
            .get(sess.device)
            .is_some_and(|lane| lane.shared.has_session(sess.session))
    }

    /// The session's ledger and its lane's queue head.
    pub fn stats(&self, sess: &PoolSession) -> (SessionStats, SimTime) {
        let st = self.state();
        let shared = &st.lanes[sess.device].shared;
        (*shared.stats(sess.session), shared.queue_head())
    }

    /// The device-side report: every lane's session ledgers plus the
    /// pool-level backpressure counters.
    pub fn report(&self) -> ServeReport {
        let st = self.state();
        ServeReport {
            devices: st
                .lanes
                .iter()
                .enumerate()
                .map(|(index, lane)| {
                    let info = lane.shared.info();
                    DeviceLaneReport {
                        index,
                        label: lane.label.clone(),
                        name: info.name().to_string(),
                        capacity: info.capacity(),
                        queue_head: lane.shared.queue_head(),
                        sessions: lane.shared.session_stats().to_vec(),
                    }
                })
                .collect(),
            busy_ring_full: st.obs.counter_value(self.oids.busy_ring_full),
            shed_overload: st.obs.counter_value(self.oids.shed_overload),
            throttled: st.obs.counter_value(self.oids.throttled),
        }
    }

    /// A live telemetry snapshot: the pool's rows (pool counters,
    /// per-lane histograms) in registration order, then each lane's
    /// underlying device observed under `serve.device{i}.*`, then — in
    /// fleet mode — the fleet simulation's whole snapshot.
    /// Deterministic: same run, same bytes.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        Self::snapshot_of(&self.state())
    }

    fn snapshot_of(st: &PoolState) -> ObsSnapshot {
        let mut reg = st.obs.clone();
        for (i, lane) in st.lanes.iter().enumerate() {
            lane.shared
                .inner()
                .observe_into(&format!("serve.device{i}"), &mut reg);
        }
        let mut snap = reg.snapshot();
        if let Some(f) = &st.fleet {
            snap.extend_prefixed("", &f.sim.obs_snapshot());
        }
        snap
    }

    /// A full `uc.obs.v1` telemetry capture: the combined snapshot from
    /// [`ServePool::obs_snapshot`] plus, in fleet mode, the fleet
    /// simulation's flight-recorder tail (migration phases, contract
    /// violations).
    pub fn obs_report(&self) -> ObsReport {
        let st = self.state();
        let mut report = ObsReport {
            snapshot: Self::snapshot_of(&st),
            ..ObsReport::default()
        };
        if let Some(f) = &st.fleet {
            let fleet_report = f.sim.obs_report();
            report.events = fleet_report.events;
            report.dropped_events = fleet_report.dropped_events;
        }
        report
    }

    /// Service-latency percentiles merged across every lane — the
    /// summary `serve --bench-json` publishes.
    pub fn service_summary(&self) -> uc_obs::HistSummary {
        let st = self.state();
        let mut merged = uc_metrics::LatencyHistogram::new();
        for ids in &self.oids.lanes {
            merged.merge(st.obs.hist_value(ids.service));
        }
        uc_obs::HistSummary::of(&merged)
    }

    /// Opens a session on lane `device` wrapped as an in-process
    /// [`BlockDevice`] — the local twin of the remote client, used by
    /// `serve --inprocess` to produce the determinism baseline.
    pub fn device(&self, device: usize) -> Option<PoolDevice<'_>> {
        let (session, info) = self.open(device)?;
        Some(PoolDevice {
            pool: self,
            session,
            info,
            single: Vec::new(),
        })
    }
}

/// An in-process session on a [`ServePool`] lane, speaking the plain
/// [`BlockDevice`] interface.
///
/// Batches larger than the pool's ring are split at the ring boundary
/// (splitting never changes the schedule — every request carries its own
/// submit instant), and an overload refusal is retried after yielding,
/// so the adapter converges exactly like the network client's retry
/// path.
pub struct PoolDevice<'a> {
    pool: &'a ServePool,
    session: PoolSession,
    info: DeviceInfo,
    /// The completion queue of single-request [`BlockDevice::submit`]s.
    single: Vec<Completion>,
}

impl PoolDevice<'_> {
    /// The underlying pool session.
    pub fn session(&self) -> &PoolSession {
        &self.session
    }
}

/// Doorbells `reqs` (at most one ring) on `session`, yielding through
/// overload refusals, and appends their completions to `out`.
fn doorbell(
    pool: &ServePool,
    session: &mut PoolSession,
    reqs: &[IoRequest],
    out: &mut Vec<Completion>,
) -> Result<(), IoError> {
    loop {
        match pool.submit(session, reqs, out) {
            Ok(_guard) => return Ok(()),
            Err(Rejection::Busy(_)) => std::thread::yield_now(),
            Err(Rejection::Io(e)) => return Err(e),
        }
    }
}

impl BlockDevice for PoolDevice<'_> {
    fn info(&self) -> DeviceInfo {
        self.info.clone()
    }

    fn submit(&mut self, req: &IoRequest) -> IoResult {
        self.single.clear();
        doorbell(
            self.pool,
            &mut self.session,
            std::slice::from_ref(req),
            &mut self.single,
        )?;
        Ok(self.single[0].completes)
    }

    fn submit_batch(&mut self, batch: &IoBatch) -> Result<Vec<Completion>, IoError> {
        let mut out = Vec::with_capacity(batch.len());
        self.submit_batch_into(batch, &mut out)?;
        Ok(out)
    }

    fn submit_batch_into(
        &mut self,
        batch: &IoBatch,
        completions: &mut Vec<Completion>,
    ) -> Result<(), IoError> {
        let entry = completions.len();
        for (i, chunk) in batch.requests().chunks(self.pool.config.ring).enumerate() {
            let start = completions.len();
            if let Err(e) = doorbell(self.pool, &mut self.session, chunk, completions) {
                completions.truncate(entry);
                return Err(e);
            }
            let base = i * self.pool.config.ring;
            for c in &mut completions[start..] {
                c.index += base;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_sim::SimDuration;

    /// A fixed-latency device.
    struct Fixed;

    impl BlockDevice for Fixed {
        fn info(&self) -> DeviceInfo {
            DeviceInfo::new("fixed", 1 << 30, 512)
        }
        fn submit(&mut self, req: &IoRequest) -> IoResult {
            self.info().validate(req)?;
            Ok(req.submit_time + SimDuration::from_micros(10))
        }
    }

    /// A device 30 µs slow, and one that panics on a write at offset 0;
    /// otherwise both behave like [`Fixed`].
    struct Slow;
    struct PanicsAtZero;

    impl BlockDevice for Slow {
        fn info(&self) -> DeviceInfo {
            Fixed.info()
        }
        fn submit(&mut self, req: &IoRequest) -> IoResult {
            self.info().validate(req)?;
            Ok(req.submit_time + SimDuration::from_micros(30))
        }
    }

    impl BlockDevice for PanicsAtZero {
        fn info(&self) -> DeviceInfo {
            Fixed.info()
        }
        fn submit(&mut self, req: &IoRequest) -> IoResult {
            assert!(
                !(req.kind == uc_blockdev::IoKind::Write && req.offset == 0),
                "device fault"
            );
            Fixed.submit(req)
        }
    }

    /// A pool over `devices`, labelled by lane index.
    fn pool_of(devices: Vec<Box<dyn BlockDevice + Send>>, config: PoolConfig) -> ServePool {
        let lanes = devices
            .into_iter()
            .enumerate()
            .map(|(i, d)| (i.to_string(), d))
            .collect();
        ServePool::new(lanes, config)
    }

    fn pool(config: PoolConfig) -> ServePool {
        ServePool::new(
            vec![
                (
                    "a".to_string(),
                    Box::new(Fixed) as Box<dyn BlockDevice + Send>,
                ),
                ("b".to_string(), Box::new(Fixed)),
            ],
            config,
        )
    }

    fn at(nanos: u64) -> SimTime {
        SimTime::from_nanos(nanos)
    }

    /// One doorbell into a fresh completion queue.
    fn submit(
        pool: &ServePool,
        sess: &mut PoolSession,
        reqs: &[IoRequest],
    ) -> Result<(Vec<Completion>, InflightGuard), Rejection> {
        let mut completions = vec![Completion::of(9, &reqs[0], at(0))];
        let result = pool.submit(sess, reqs, &mut completions);
        let completions = completions.split_off(1);
        match result {
            Ok(guard) => Ok((completions, guard)),
            Err(e) => {
                assert!(completions.is_empty(), "a refused doorbell appends nothing");
                Err(e)
            }
        }
    }

    #[test]
    fn sessions_submit_and_account_per_lane() {
        let pool = pool(PoolConfig::default());
        let (mut s0, info) = pool.open(0).unwrap();
        let (mut s1, _) = pool.open(1).unwrap();
        assert_eq!(info.capacity(), 1 << 30);
        let reqs = [
            IoRequest::write(0, 4096, at(0)),
            IoRequest::read(4096, 512, at(5)),
        ];
        let (completions, guard) = submit(&pool, &mut s0, &reqs).unwrap();
        assert_eq!(completions.len(), 2);
        drop(guard);
        let (completions, guard) = submit(&pool, &mut s1, &reqs[..1]).unwrap();
        assert_eq!(completions.len(), 1);
        drop(guard);
        let report = pool.report();
        assert_eq!(report.devices.len(), 2);
        assert_eq!(report.devices[0].sessions[0].ios, 2);
        assert_eq!(report.devices[1].sessions[0].ios, 1);
        assert_eq!(report.total_ios(), 3);
        assert_eq!(report.total_bytes(), 4096 + 512 + 4096);
        assert_eq!(report.busy_ring_full, 0);
        assert_eq!(report.shed_overload, 0);
    }

    #[test]
    fn oversized_batches_are_refused_with_ring_full() {
        let pool = pool(PoolConfig {
            ring: 2,
            ..PoolConfig::default()
        });
        let (mut s, _) = pool.open(0).unwrap();
        let reqs = [
            IoRequest::write(0, 512, at(0)),
            IoRequest::write(512, 512, at(0)),
            IoRequest::write(1024, 512, at(0)),
        ];
        assert_eq!(
            submit(&pool, &mut s, &reqs).unwrap_err(),
            Rejection::Busy(BusyReason::RingFull)
        );
        assert_eq!(pool.report().busy_ring_full, 1);
        // Nothing was issued.
        assert_eq!(pool.report().total_ios(), 0);
    }

    #[test]
    fn arrivals_above_the_ceiling_are_shed() {
        let pool = pool(PoolConfig {
            max_inflight: 1,
            ..PoolConfig::default()
        });
        let (mut s, _) = pool.open(0).unwrap();
        let reqs = [IoRequest::write(0, 512, at(0))];
        let (_, guard) = submit(&pool, &mut s, &reqs).unwrap();
        // The first batch's guard is still alive: the next arrival sheds.
        assert_eq!(
            submit(&pool, &mut s, &reqs).unwrap_err(),
            Rejection::Busy(BusyReason::Overload)
        );
        assert_eq!(pool.report().shed_overload, 1);
        drop(guard);
        // Slot free again: the retry is admitted.
        let (_, guard) = submit(&pool, &mut s, &reqs).unwrap();
        drop(guard);
        assert_eq!(pool.report().total_ios(), 2);
    }

    #[test]
    fn rate_budget_delays_instead_of_refusing() {
        // 1 MB/s budget, 2 MB batch: granted ~1 s after the burst.
        let pool = pool(PoolConfig {
            rate: Some(1e6),
            ..PoolConfig::default()
        });
        let (mut s, _) = pool.open(0).unwrap();
        let reqs: Vec<IoRequest> = (0..4)
            .map(|i| IoRequest::write(i * (512 << 10), 512 << 10, at(0)))
            .collect();
        let (completions, guard) = submit(&pool, &mut s, &reqs).unwrap();
        drop(guard);
        // 2 MB against a 1 MB burst: 1 MB of deficit at 1 MB/s = 1 s.
        assert!(completions[0].submitted >= at(999_000_000));
        assert_eq!(s.throttled(), 1);
        assert_eq!(pool.report().throttled, 1);
    }

    #[test]
    fn device_errors_propagate_typed() {
        let pool = pool(PoolConfig::default());
        let (mut s, _) = pool.open(0).unwrap();
        let reqs = [IoRequest::write(1 << 40, 512, at(0))];
        assert!(matches!(
            submit(&pool, &mut s, &reqs),
            Err(Rejection::Io(IoError::OutOfRange { .. }))
        ));
        // The failed batch's admission slot was released with its guard.
        let ok = [IoRequest::write(0, 512, at(0))];
        assert!(submit(&pool, &mut s, &ok).is_ok());
    }

    #[test]
    fn unknown_lane_is_refused() {
        let pool = pool(PoolConfig::default());
        assert!(pool.open(2).is_none());
        assert!(pool.device(7).is_none());
    }

    #[test]
    fn owned_guards_hold_the_same_admission_slot() {
        // Guards parked away from the call that admitted them, as the
        // event loop parks them in a connection, keep their slots until
        // they drop.
        let pool = pool(PoolConfig {
            max_inflight: 2,
            ..PoolConfig::default()
        });
        let (mut s, _) = pool.open(0).unwrap();
        let reqs = [IoRequest::write(0, 512, at(0))];
        let overload = Rejection::Busy(BusyReason::Overload);
        let mut parked: Vec<InflightGuard> = (0..2)
            .map(|_| submit(&pool, &mut s, &reqs).unwrap().1)
            .collect();
        assert_eq!(submit(&pool, &mut s, &reqs).unwrap_err(), overload);
        parked.pop();
        parked.push(submit(&pool, &mut s, &reqs).unwrap().1);
        assert_eq!(submit(&pool, &mut s, &reqs).unwrap_err(), overload);
        parked.clear();
        let (_, guard) = submit(&pool, &mut s, &reqs).unwrap();
        assert_eq!(pool.report().total_ios(), 4);
        assert_eq!(pool.report().shed_overload, 2);
        assert!(pool.validate_session(&s));
        // A guard borrows nothing: it may outlive the pool that issued it.
        drop(pool);
        drop(guard);
    }

    #[test]
    fn fleet_mode_serves_tenants_behind_the_epoch_barrier() {
        use uc_essd::{Essd, EssdConfig};
        use uc_fleet::{FleetConfig, FleetDevice};

        let fleet_config =
            FleetConfig::new(3, 1).with_duration(uc_sim::SimDuration::from_millis(4));
        let devices: Vec<FleetDevice> = vec![Box::new(Essd::new(
            EssdConfig::alibaba_pl3(64 << 20).with_name("fleet-essd-0".to_string()),
        ))];
        let sim = FleetSim::new_fed(fleet_config, devices);
        let pool = ServePool::new_fleet(sim, PoolConfig::default());
        assert_eq!(pool.fleet_tenants(), 3);

        let (name, span, io_size) = pool.attach_tenant(0).unwrap();
        assert_eq!(name, "tenant0@fleet");
        assert!(span >= io_size as u64);
        assert_eq!(pool.attach_tenant(0), Err(FleetError::AlreadyAttached));
        assert_eq!(pool.attach_tenant(9), Err(FleetError::UnknownTenant));

        let entry = TraceEntry {
            at: at(10),
            kind: uc_blockdev::IoKind::Write,
            offset: 0,
            len: io_size,
        };
        assert_eq!(pool.tenant_push(0, &[entry]).unwrap(), 1);
        assert!(matches!(
            pool.tenant_push(
                0,
                &[TraceEntry {
                    offset: span,
                    ..entry
                }]
            ),
            Err(FleetError::Feed(uc_fleet::FeedError::OutOfRegion { .. }))
        ));

        // The barrier: the epoch runs only once every tenant flushed.
        assert_eq!(
            pool.tenant_flush(0, 1),
            Err(FleetError::EpochMismatch { expected: 0 })
        );
        assert_eq!(pool.tenant_flush(0, 0).unwrap(), FlushOutcome::Waiting);
        assert_eq!(pool.tenant_flush(1, 0).unwrap(), FlushOutcome::Waiting);
        match pool.tenant_flush(2, 0).unwrap() {
            FlushOutcome::EpochComplete { epoch: 0, moves } => assert!(moves.is_empty()),
            other => panic!("barrier did not clear: {other:?}"),
        }
        let report = pool.fleet_report().expect("fleet report");
        assert_eq!(report.epochs, 1);
        assert_eq!(report.total_ios, 1);

        // A roster pool has no tenant seam.
        let roster = super::tests::pool(PoolConfig::default());
        assert_eq!(roster.attach_tenant(0), Err(FleetError::NotFleet));
        assert!(roster.fleet_report().is_none());
    }

    #[test]
    fn obs_snapshot_mirrors_the_report_and_is_deterministic() {
        let drive = |pool: &ServePool| {
            let (mut s0, _) = pool.open(0).unwrap();
            let (mut s1, _) = pool.open(1).unwrap();
            for i in 0..4u64 {
                let reqs = [
                    IoRequest::write(i * 8192, 4096, at(i * 100)),
                    IoRequest::read(i * 8192, 512, at(i * 100 + 10)),
                ];
                let (_, g) = submit(pool, &mut s0, &reqs).unwrap();
                drop(g);
            }
            let (_, g) = submit(pool, &mut s1, &[IoRequest::write(0, 4096, at(9))]).unwrap();
            drop(g);
        };
        let a = pool(PoolConfig::default());
        drive(&a);
        let snap = a.obs_snapshot();
        assert_eq!(snap.counter("serve.pool.ios"), Some(a.report().total_ios()));
        assert_eq!(
            snap.counter("serve.pool.bytes"),
            Some(a.report().total_bytes())
        );
        assert_eq!(snap.counter("serve.lane1.ios"), Some(1));
        let svc = snap.histogram("serve.lane0.service_ns").unwrap();
        assert_eq!(svc.count, 8);
        assert!(svc.p99_ns >= svc.p50_ns);
        let sizes = snap.histogram("serve.lane0.batch_size").unwrap();
        assert_eq!((sizes.count, sizes.max_ns), (4, 2));

        // Same traffic on a twin pool: byte-identical snapshots.
        let b = pool(PoolConfig::default());
        drive(&b);
        assert_eq!(snap.render_text(), b.obs_snapshot().render_text());
        assert_eq!(
            snap.render_prometheus(),
            b.obs_snapshot().render_prometheus()
        );
    }

    #[test]
    fn a_panicking_device_does_not_take_the_pool_down() {
        let pool = pool_of(
            vec![Box::new(PanicsAtZero), Box::new(Fixed)],
            PoolConfig {
                max_inflight: 1,
                ..PoolConfig::default()
            },
        );
        let (mut s0, _) = pool.open(0).unwrap();
        let (mut s1, _) = pool.open(1).unwrap();
        let fault = [IoRequest::write(0, 512, at(0))];
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = submit(&pool, &mut s0, &fault);
        }));
        assert!(unwound.is_err(), "the device must have panicked");

        // The lock is not left unusable, and the panicking batch gave
        // back its only admission slot as it unwound.
        let ok = [IoRequest::write(4096, 512, at(10))];
        drop(submit(&pool, &mut s0, &ok).unwrap());
        drop(submit(&pool, &mut s1, &ok).unwrap());
        assert!(pool.validate_session(&s0));
        assert_eq!(pool.obs_snapshot().counter("serve.pool.ios"), Some(2));
        let report = pool.report();
        assert_eq!(report.devices[1].sessions[0].ios, 1);
        // The request that panicked in the device is in no ledger.
        assert_eq!(
            Some(report.total_ios()),
            pool.obs_snapshot().counter("serve.pool.ios")
        );
        assert_eq!(report.shed_overload, 0);
    }

    #[test]
    fn service_summary_merges_every_lane() {
        let pool = pool_of(vec![Box::new(Fixed), Box::new(Slow)], PoolConfig::default());
        let (mut s0, _) = pool.open(0).unwrap();
        let (mut s1, _) = pool.open(1).unwrap();
        for i in 0..3u64 {
            drop(
                submit(
                    &pool,
                    &mut s0,
                    &[IoRequest::write(i * 512, 512, at(i * 100))],
                )
                .unwrap(),
            );
        }
        for i in 0..2u64 {
            drop(
                submit(
                    &pool,
                    &mut s1,
                    &[IoRequest::read(i * 512, 512, at(i * 100))],
                )
                .unwrap(),
            );
        }
        let snap = pool.obs_snapshot();
        let lane = |i: usize| {
            snap.histogram(&format!("serve.lane{i}.service_ns"))
                .unwrap()
        };
        let (fast, slow) = (lane(0), lane(1));
        assert_eq!((fast.count, slow.count), (3, 2));
        assert!(slow.max_ns > fast.max_ns);
        let summary = pool.service_summary();
        assert_eq!(summary.count, fast.count + slow.count);
        assert_eq!(summary.max_ns, slow.max_ns);
    }

    #[test]
    fn pool_device_matches_direct_device_exactly() {
        // The in-process adapter is transparent: the same batch sequence
        // against a bare device produces identical completions.
        let pool = pool(PoolConfig {
            ring: 3, // force mid-batch splits
            ..PoolConfig::default()
        });
        let mut via_pool = pool.device(0).unwrap();
        let mut direct = Fixed;
        let batch: IoBatch = (0..8u64)
            .map(|i| IoRequest::write(i * 4096, 4096, at(i * 100)))
            .collect();
        let a = via_pool.submit_batch(&batch).unwrap();
        let b = direct.submit_batch(&batch).unwrap();
        assert_eq!(a, b);
        assert_eq!(via_pool.info().name(), "fixed");
        // Single-request path too.
        let req = IoRequest::read(0, 4096, at(10_000));
        assert_eq!(via_pool.submit(&req).unwrap(), direct.submit(&req).unwrap());
    }

    #[test]
    fn pool_device_doorbells_agree_through_either_method() {
        // `submit_batch_into` appends what `submit_batch` returns: the
        // same completions, and the same pool counters and telemetry.
        let config = PoolConfig {
            ring: 3,
            ..PoolConfig::default()
        };
        let (returned, appended) = (pool(config), pool(config));
        let mut a = returned.device(0).unwrap();
        let mut b = appended.device(0).unwrap();
        let mut queue = vec![Completion::of(7, &IoRequest::read(0, 512, at(0)), at(1))];
        for round in 0..4u64 {
            let batch: IoBatch = (0..=round * 2)
                .map(|i| IoRequest::write(i * 4096, 4096, at(round * 1000 + i)))
                .collect();
            let got = a.submit_batch(&batch).unwrap();
            let entry_len = queue.len();
            b.submit_batch_into(&batch, &mut queue).unwrap();
            assert_eq!(queue[entry_len..], got[..]);
        }
        let entry_len = queue.len();
        let bad: IoBatch = [
            IoRequest::read(0, 4096, at(9000)),
            IoRequest::read(1 << 40, 4096, at(9000)),
        ]
        .into_iter()
        .collect();
        assert!(a.submit_batch(&bad).is_err());
        assert!(b.submit_batch_into(&bad, &mut queue).is_err());
        assert_eq!(queue.len(), entry_len);
        assert_eq!(returned.report(), appended.report());
        assert_eq!(
            returned.obs_snapshot().render_prometheus(),
            appended.obs_snapshot().render_prometheus()
        );
    }
}
