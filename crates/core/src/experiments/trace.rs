//! The trace-driven contract experiment: replay one arrival history
//! against every device class and report, phase by phase, where the
//! unwritten contract was violated.
//!
//! Every other experiment drives the devices with synthetic closed- or
//! open-loop specs; this one replays a [`Trace`] — captured through
//! `uc-trace`'s recorder or generated from an arrival shape — so the
//! contract is evaluated under the arrival patterns real tenants
//! produce (the axis the paper's Implication 4 varies).
//!
//! Like fig3, a replay is one continuous virtual timeline per device, so
//! it is sliced into **resumable phases** (equal spans of scaled arrival
//! time, [`Replay`]'s [`Slicing`] of the shared [`sliced`](super::sliced)
//! run) and driven by the shared durable-run engine ([`durable`], via
//! [`chains`]); phase boundaries double as the reporting granularity. Determinism is the same contract fig3 pins:
//! round-trip, pipelined and kill-resumed runs all produce
//! byte-identical reports.
//!
//! The per-phase **violation report** checks two trace-level expectations
//! derived from the contract (thresholds in
//! [`thresholds`](crate::contract::thresholds)):
//!
//! * **latency blow-up** — a phase whose mean latency exceeds
//!   [`TRACE_PHASE_LATENCY_BLOWUP`] times the device's best phase means
//!   the arrival pattern overdrove the device (burst beyond the budget /
//!   GC debt), the behaviour Implication 4 tells clients to smooth away;
//! * **completion lag** — a phase whose last completion runs past its
//!   nominal end by more than [`TRACE_MAX_PHASE_LAG`] of the phase
//!   length means the device is not absorbing the offered load in the
//!   phase it arrived (sustained saturation, not just a transient spike).

use crate::contract::thresholds::{TRACE_MAX_PHASE_LAG, TRACE_PHASE_LATENCY_BLOWUP};
use crate::devices::{DeviceKind, DeviceRoster};
use crate::experiments::durable::{self, RunError};
use crate::experiments::sliced::{Device, SlicedChain, SlicedCheckpoint, Slicing};
use crate::experiments::Executor;
use uc_persist::{persist_struct, Encoder, Persist};
use uc_sim::{SimDuration, SimTime};
use uc_workload::{JobReport, ReplayConfig, ReplayError, Trace, TraceReplayJob};

/// Parameters of a trace experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRunConfig {
    /// How the trace is replayed (mode, throughput window, speed, ring).
    pub replay: ReplayConfig,
    /// Number of reporting phases the replay is sliced into (equal spans
    /// of scaled arrival time; also the resumable-segment granularity).
    pub phases: usize,
}

impl TraceRunConfig {
    /// An open-loop run sliced into `phases` phases (clamped to ≥ 1).
    pub fn open_loop(phases: usize) -> Self {
        TraceRunConfig {
            replay: ReplayConfig::open_loop(),
            phases: phases.max(1),
        }
    }

    /// Replaces the replay configuration.
    pub fn with_replay(mut self, replay: ReplayConfig) -> Self {
        self.replay = replay;
        self
    }
}

/// A stable identity for a trace's exact contents: the CRC-32 of its
/// canonical entry wire form (the same bytes `uc-trace` writes as the
/// `uc.trace.v1` payload). Resuming a checkpoint against a *different*
/// trace would silently corrupt the continuation; the fingerprint makes
/// that a detectable mismatch instead.
pub fn trace_fingerprint(trace: &Trace) -> u32 {
    let mut w = Encoder::new();
    w.put_u64(trace.len() as u64);
    for entry in trace.entries() {
        entry.encode(&mut w);
    }
    uc_persist::crc32(w.as_bytes())
}

/// A cumulative snapshot of the replay report at one phase boundary —
/// the difference of consecutive cuts yields the per-phase statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseCut {
    /// I/Os completed so far.
    pub ios: u64,
    /// Bytes completed so far.
    pub bytes: u64,
    /// Latency samples so far.
    pub lat_count: u64,
    /// Exact sum of latency samples so far, in nanoseconds (the
    /// histogram tracks this exactly, so per-phase means reconstructed
    /// from cut differences carry no truncation error).
    pub lat_sum_nanos: u128,
    /// Latest completion instant so far.
    pub finished_at: SimTime,
}

impl PhaseCut {
    fn of(report: &JobReport) -> PhaseCut {
        PhaseCut {
            ios: report.ios,
            bytes: report.bytes,
            lat_count: report.latency.count(),
            lat_sum_nanos: report.latency.sum_nanos(),
            finished_at: report.finished_at,
        }
    }
}

persist_struct! { PhaseCut { ios, bytes, lat_count, lat_sum_nanos, finished_at } }

/// Per-phase statistics of one device's replay.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Phase number (0-based).
    pub index: usize,
    /// Nominal end of the phase on the scaled arrival timeline.
    pub end: SimTime,
    /// Nominal phase length.
    pub duration: SimDuration,
    /// I/Os completed in this phase.
    pub ios: u64,
    /// Bytes completed in this phase.
    pub bytes: u64,
    /// Mean latency of this phase's I/Os.
    pub mean_latency: SimDuration,
    /// Throughput over the nominal phase length, in GB/s.
    pub gbps: f64,
    /// Latest completion instant at the phase cut.
    pub finished_at: SimTime,
}

impl PhaseStat {
    /// How far the last completion ran past the phase's nominal end.
    pub fn lag(&self) -> SimDuration {
        self.finished_at.saturating_since(self.end)
    }
}

/// One device's trace replay: the full report plus its per-phase slices.
#[derive(Debug, Clone)]
pub struct TraceRunResult {
    /// Which device was measured.
    pub device: DeviceKind,
    /// The complete replay report.
    pub report: JobReport,
    /// Per-phase statistics, in phase order.
    pub phases: Vec<PhaseStat>,
}

/// What a phase did wrong.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceViolationKind {
    /// Mean latency exceeded the device's best phase by this factor.
    LatencyBlowup {
        /// `phase mean / best phase mean`.
        factor: f64,
    },
    /// The phase's last completion ran this far past its nominal end.
    CompletionLag {
        /// The overrun.
        lag: SimDuration,
    },
}

/// One flagged phase of one device.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceViolation {
    /// The device that violated.
    pub device: DeviceKind,
    /// The offending phase (0-based).
    pub phase: usize,
    /// What went wrong.
    pub kind: TraceViolationKind,
}

/// The contract verdict of a trace experiment.
#[derive(Debug, Clone)]
pub struct TraceContractReport {
    /// Per-device results, in the order the experiment ran them.
    pub results: Vec<TraceRunResult>,
    /// Every flagged phase, in device-then-phase order.
    pub violations: Vec<TraceViolation>,
    /// Overall ESSD-versus-SSD mean-latency gaps (Observation 1's axis),
    /// present when the run included the local SSD.
    pub gaps: Vec<(DeviceKind, f64)>,
}

impl TraceContractReport {
    /// `true` if no phase of any device was flagged.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Evaluates the per-phase contract checks over a set of replay results.
///
/// Deterministic: the same results always produce the same report (the
/// CI trace smoke diffs two full runs byte for byte).
pub fn evaluate(results: Vec<TraceRunResult>) -> TraceContractReport {
    let mut violations = Vec::new();
    for result in &results {
        let best = result
            .phases
            .iter()
            .filter(|p| p.ios > 0)
            .map(|p| p.mean_latency)
            .min()
            .unwrap_or(SimDuration::ZERO);
        for phase in &result.phases {
            if phase.ios > 0 && !best.is_zero() {
                let factor = phase.mean_latency.as_nanos() as f64 / best.as_nanos() as f64;
                if factor > TRACE_PHASE_LATENCY_BLOWUP {
                    violations.push(TraceViolation {
                        device: result.device,
                        phase: phase.index,
                        kind: TraceViolationKind::LatencyBlowup { factor },
                    });
                }
            }
            let lag = phase.lag();
            if lag.as_nanos() as f64 > phase.duration.as_nanos() as f64 * TRACE_MAX_PHASE_LAG {
                violations.push(TraceViolation {
                    device: result.device,
                    phase: phase.index,
                    kind: TraceViolationKind::CompletionLag { lag },
                });
            }
        }
    }
    let gaps = match results.iter().find(|r| r.device == DeviceKind::LocalSsd) {
        Some(ssd) if !ssd.report.latency.mean().is_zero() => {
            let base = ssd.report.latency.mean().as_nanos() as f64;
            results
                .iter()
                .filter(|r| r.device != DeviceKind::LocalSsd)
                .map(|r| (r.device, r.report.latency.mean().as_nanos() as f64 / base))
                .collect()
        }
        _ => Vec::new(),
    };
    TraceContractReport {
        results,
        violations,
        gaps,
    }
}

/// The nominal phase length in nanoseconds: the scaled span (one past
/// the last scaled arrival, so the last entry falls inside the final
/// phase, or 1 ns for an empty trace) split into `cfg.phases` phases.
fn phase_nanos(trace: &Trace, cfg: &TraceRunConfig) -> u64 {
    let end = trace
        .entries()
        .last()
        .map(|e| cfg.replay.scaled(e.at).as_nanos() + 1)
        .unwrap_or(1);
    end.div_ceil(cfg.phases.max(1) as u64).max(1)
}

/// The trace experiment's [`Slicing`]: one replay paused at entry-index
/// milestones, equal spans of scaled arrival time. The plan head is the
/// [`trace_fingerprint`]; the tail is one [`PhaseCut`] per phase.
#[derive(Debug, Clone)]
pub struct Replay;

/// A paused trace replay between phases, persisted as
/// `trace-<slug>.seg<k>.ckpt`. The trace itself is not embedded; its
/// identity is pinned by the fingerprint.
pub type TraceRunCheckpoint = SlicedCheckpoint<Replay>;

impl Slicing for Replay {
    const RECORD_KIND: &'static str = "uc.trace-run.v2";
    const KEY_PREFIX: &'static str = "trace";
    const DEVICE_SEED: u64 = 0x7_2ACE_0000;
    type Context<'a> = (&'a Trace, &'a TraceRunConfig);
    type Head = u32;
    type Tail = Vec<PhaseCut>;
    type Job = TraceReplayJob;
    type Error = ReplayError;
    type Output = TraceRunResult;

    /// Validates the trace against the device; no I/O is issued yet.
    fn start(
        chain: &SlicedChain<'_, Self>,
        device: &mut Device,
    ) -> Result<TraceReplayJob, ReplayError> {
        let (trace, cfg) = chain.cx;
        TraceReplayJob::start(device, trace, &cfg.replay)
    }

    fn advance(
        chain: &SlicedChain<'_, Self>,
        job: &mut TraceReplayJob,
        device: &mut Device,
        target: u64,
        cuts: &mut Vec<PhaseCut>,
    ) -> Result<(), ReplayError> {
        let entries = usize::try_from(target).unwrap_or(usize::MAX);
        job.run_until(device, chain.cx.0, entries)?;
        cuts.push(PhaseCut::of(job.report()));
        Ok(())
    }

    fn resumes(chain: &SlicedChain<'_, Self>, job: &TraceReplayJob) -> bool {
        *job.config() == chain.cx.1.replay
    }

    fn tail_fits(cuts: &Vec<PhaseCut>, completed: usize) -> bool {
        cuts.len() == completed
    }

    /// Slices the full report into per-phase statistics.
    fn finish(
        chain: &SlicedChain<'_, Self>,
        cuts: Vec<PhaseCut>,
        job: TraceReplayJob,
    ) -> TraceRunResult {
        let (trace, cfg) = chain.cx;
        let phase = SimDuration::from_nanos(phase_nanos(trace, cfg));
        let phase_secs = phase.as_secs_f64();
        let mut phases = Vec::with_capacity(cuts.len());
        let mut prev = PhaseCut::default();
        for (index, cut) in cuts.iter().enumerate() {
            let ios = cut.ios - prev.ios;
            let bytes = cut.bytes - prev.bytes;
            let count = cut.lat_count - prev.lat_count;
            let mean_latency = if count == 0 {
                SimDuration::ZERO
            } else {
                let sum = cut.lat_sum_nanos - prev.lat_sum_nanos;
                SimDuration::from_nanos((sum / count as u128) as u64)
            };
            phases.push(PhaseStat {
                index,
                end: SimTime::ZERO + phase * (index as u64 + 1),
                duration: phase,
                ios,
                bytes,
                mean_latency,
                gbps: if phase_secs > 0.0 {
                    bytes as f64 / 1e9 / phase_secs
                } else {
                    0.0
                },
                finished_at: cut.finished_at,
            });
            prev = *cut;
        }
        TraceRunResult {
            device: chain.kind,
            report: job.into_report(),
            phases,
        }
    }
}

/// `kind`'s replay of `trace`, sliced into `cfg.phases` phases.
pub fn chain<'a>(
    roster: &'a DeviceRoster,
    kind: DeviceKind,
    trace: &'a Trace,
    cfg: &'a TraceRunConfig,
) -> SlicedChain<'a, Replay> {
    let phase = phase_nanos(trace, cfg);
    let entries = trace.entries();
    let milestones = (1..=cfg.phases.max(1) as u64)
        .map(|k| entries.partition_point(|e| cfg.replay.scaled(e.at).as_nanos() < phase * k) as u64)
        .collect();
    SlicedChain::new(
        roster,
        kind,
        (trace, cfg),
        trace_fingerprint(trace),
        milestones,
    )
}

/// One [`chain`] per device in `kinds`.
pub fn chains<'a>(
    roster: &'a DeviceRoster,
    kinds: &[DeviceKind],
    trace: &'a Trace,
    cfg: &'a TraceRunConfig,
) -> Vec<SlicedChain<'a, Replay>> {
    kinds
        .iter()
        .map(|&kind| chain(roster, kind, trace, cfg))
        .collect()
}

/// Replays the trace on several devices with their phase chains
/// pipelined across `exec`'s workers: phase `k` of one device runs
/// concurrently with phase `k-1` of another.
///
/// Results are returned in `kinds` order and are byte-identical to
/// [`durable::round_trip`]'s for every device, at any thread count. For
/// on-disk checkpoints, pass [`chains`] and a [`durable::Store`] to
/// [`durable::run`] instead.
///
/// # Errors
///
/// Propagates the first trace-validation or I/O error any device
/// reports.
pub fn run_pipelined(
    roster: &DeviceRoster,
    kinds: &[DeviceKind],
    trace: &Trace,
    cfg: &TraceRunConfig,
    exec: &Executor,
) -> Result<Vec<TraceRunResult>, ReplayError> {
    durable::run(&chains(roster, kinds, trace, cfg), exec, None).map_err(RunError::into_step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::durable::Chain;
    use crate::experiments::sliced::tests as shared;
    use crate::report::render_trace_report;

    fn roster() -> DeviceRoster {
        DeviceRoster::with_capacities(128 << 20, 128 << 20)
    }

    /// The reference replay: a freeze/thaw round trip at every phase.
    fn round_trip(
        roster: &DeviceRoster,
        kind: DeviceKind,
        trace: &Trace,
        cfg: &TraceRunConfig,
    ) -> TraceRunResult {
        durable::round_trip(&chain(roster, kind, trace, cfg)).unwrap()
    }

    /// What the shared tests compare: the phases and the mean latency.
    fn render(result: &TraceRunResult) -> String {
        format!("{:?} {:?}", result.phases, result.report.latency.mean())
    }

    /// A bursty trace sized for the 128 MiB test roster: 20 kIOPS bursts
    /// of 64 KiB writes, 25 % duty cycle.
    fn bursty_trace() -> Trace {
        // Hand-rolled (uc-core does not depend on uc-trace): 8 bursts of
        // 24 entries, 1 ms apart within the burst region.
        let mut entries = Vec::new();
        let mut rng = uc_sim::SimRng::new(0xBEE5);
        for burst in 0..8u64 {
            let start = SimTime::ZERO + SimDuration::from_millis(burst * 4);
            for i in 0..24u64 {
                entries.push(uc_workload::TraceEntry {
                    at: start + SimDuration::from_micros(40 * i),
                    kind: uc_blockdev::IoKind::Write,
                    offset: rng.range_u64(0, 1024) * 65536,
                    len: 65536,
                });
            }
        }
        Trace::from_entries(entries)
    }

    #[test]
    fn pipelined_and_sequential_match_for_every_kind() {
        let roster = roster();
        let trace = bursty_trace();
        let cfg = TraceRunConfig::open_loop(4)
            .with_replay(ReplayConfig::open_loop().with_window(SimDuration::from_millis(1)));
        let pipelined = run_pipelined(
            &roster,
            &DeviceKind::ALL,
            &trace,
            &cfg,
            &Executor::with_threads(3),
        )
        .unwrap();
        for (i, &kind) in DeviceKind::ALL.iter().enumerate() {
            let sequential = round_trip(&roster, kind, &trace, &cfg);
            assert_eq!(sequential.phases, pipelined[i].phases, "{kind}");
            assert_eq!(
                sequential.report.finished_at, pipelined[i].report.finished_at,
                "{kind}"
            );
            assert_eq!(
                sequential.report.latency.mean(),
                pipelined[i].report.latency.mean(),
                "{kind}"
            );
        }
        // The full rendered report is identical run-to-run (the CI bar).
        let a = render_trace_report(&evaluate(pipelined));
        let again = run_pipelined(
            &roster,
            &DeviceKind::ALL,
            &trace,
            &cfg,
            &Executor::sequential(),
        )
        .unwrap();
        assert_eq!(a, render_trace_report(&evaluate(again)));
    }

    #[test]
    fn early_covering_milestones_keep_sequential_and_pipelined_aligned() {
        // A short trace with far more phases than distinct arrival spans:
        // intermediate milestones equal the trace length, so the replay
        // driver finishes phases early. Sequential and pipelined runners
        // must still emit the same (full) number of PhaseStats.
        let roster = roster();
        let entries: Vec<uc_workload::TraceEntry> = (0..17u64)
            .map(|i| uc_workload::TraceEntry {
                at: SimTime::from_nanos(i),
                kind: uc_blockdev::IoKind::Write,
                offset: i * 65536,
                len: 65536,
            })
            .collect();
        let trace = Trace::from_entries(entries);
        let cfg = TraceRunConfig::open_loop(16);
        let sequential = round_trip(&roster, DeviceKind::LocalSsd, &trace, &cfg);
        let pipelined = run_pipelined(
            &roster,
            &[DeviceKind::LocalSsd],
            &trace,
            &cfg,
            &Executor::with_threads(2),
        )
        .unwrap();
        assert_eq!(sequential.phases.len(), 16);
        assert_eq!(sequential.phases, pipelined[0].phases);
        assert_eq!(
            sequential.report.finished_at,
            pipelined[0].report.finished_at
        );
    }

    #[test]
    fn phase_bookkeeping_sums_to_the_full_report() {
        let roster = roster();
        let trace = bursty_trace();
        let cfg = TraceRunConfig::open_loop(5);
        let result = round_trip(&roster, DeviceKind::Essd1, &trace, &cfg);
        assert_eq!(result.phases.len(), 5);
        let ios: u64 = result.phases.iter().map(|p| p.ios).sum();
        let bytes: u64 = result.phases.iter().map(|p| p.bytes).sum();
        assert_eq!(ios, result.report.ios);
        assert_eq!(bytes, result.report.bytes);
        assert_eq!(ios, trace.len() as u64, "open loop replays every entry");
        // Phase ends ascend by one phase length.
        for w in result.phases.windows(2) {
            assert_eq!(w[1].end.saturating_since(w[0].end), w[1].duration);
        }
    }

    #[test]
    fn fingerprint_pins_the_trace_identity() {
        let trace = bursty_trace();
        assert_eq!(trace_fingerprint(&trace), trace_fingerprint(&trace.clone()));
        let mut other = trace.entries().to_vec();
        other.pop();
        assert_ne!(
            trace_fingerprint(&trace),
            trace_fingerprint(&Trace::from_entries(other))
        );
    }

    #[test]
    #[should_panic(expected = "does not belong to this trace")]
    fn resume_against_a_different_trace_panics() {
        let roster = roster();
        let trace = bursty_trace();
        let cfg = TraceRunConfig::open_loop(3);
        let ssd = chain(&roster, DeviceKind::LocalSsd, &trace, &cfg);
        let mut state = ssd.start().unwrap();
        ssd.advance(&mut state).unwrap();
        let frozen = ssd.checkpoint(&state);
        let other = Trace::from_entries(trace.entries()[..10].to_vec());
        let _ = chain(&roster, DeviceKind::LocalSsd, &other, &cfg).resume(frozen);
    }

    #[test]
    fn checkpoint_file_round_trips_and_rejects_corruption() {
        let roster = roster();
        let trace = bursty_trace();
        let cfg = TraceRunConfig::open_loop(4);
        shared::file_round_trips_and_rejects_corruption(
            &chain(&roster, DeviceKind::Essd2, &trace, &cfg),
            2,
            render,
        );
    }

    #[test]
    fn killed_run_resumes_to_identical_results() {
        let roster = roster();
        let trace = bursty_trace();
        let cfg = TraceRunConfig::open_loop(4);
        let uninterrupted: Vec<String> = DeviceKind::ALL
            .iter()
            .map(|&kind| render(&round_trip(&roster, kind, &trace, &cfg)))
            .collect();
        shared::killed_run_resumes(
            &chains(&roster, &DeviceKind::ALL, &trace, &cfg),
            &uninterrupted,
            render,
        );
    }

    #[test]
    fn stale_plan_checkpoints_start_fresh() {
        // A checkpoint under a 3-phase plan must not hijack a 5-phase
        // resume.
        let roster = roster();
        let trace = bursty_trace();
        let (cfg3, cfg5) = (TraceRunConfig::open_loop(3), TraceRunConfig::open_loop(5));
        let plain = round_trip(&roster, DeviceKind::LocalSsd, &trace, &cfg5);
        shared::stale_plan_is_skipped(
            &chain(&roster, DeviceKind::LocalSsd, &trace, &cfg3),
            &chain(&roster, DeviceKind::LocalSsd, &trace, &cfg5),
            &render(&plain),
            render,
        );
    }

    #[test]
    fn open_loop_checkpoints_do_not_resume_a_closed_loop_run() {
        // The same trace and phase count give both plans the same
        // fingerprint and milestones: only the paused job's replay config
        // (`Slicing::resumes`) tells the open-loop checkpoint apart.
        let roster = roster();
        let trace = bursty_trace();
        let open = TraceRunConfig::open_loop(4);
        let closed = open.with_replay(ReplayConfig::closed_loop(4));
        let (stale, current) = (
            chain(&roster, DeviceKind::LocalSsd, &trace, &open),
            chain(&roster, DeviceKind::LocalSsd, &trace, &closed),
        );
        assert_eq!(stale.head, current.head);
        assert_eq!(stale.milestones, current.milestones);
        let plain = round_trip(&roster, DeviceKind::LocalSsd, &trace, &closed);
        assert_ne!(
            render(&plain),
            render(&round_trip(&roster, DeviceKind::LocalSsd, &trace, &open)),
            "the two modes must replay differently for the guard to show"
        );
        shared::stale_plan_is_skipped(&stale, &current, &render(&plain), render);
    }

    #[test]
    fn evaluation_flags_overdriven_phases() {
        // Two synthetic results: one clean, one with a 10x latency phase
        // and a phase whose completions lag a full phase length.
        let phase = SimDuration::from_millis(1);
        let mk = |index: usize, mean_us: u64, lag: SimDuration| PhaseStat {
            index,
            end: SimTime::ZERO + phase * (index as u64 + 1),
            duration: phase,
            ios: 10,
            bytes: 10 << 16,
            mean_latency: SimDuration::from_micros(mean_us),
            gbps: 0.5,
            finished_at: SimTime::ZERO + phase * (index as u64 + 1) + lag,
        };
        let clean = TraceRunResult {
            device: DeviceKind::Essd2,
            report: JobReport::empty(SimDuration::from_millis(1), SimTime::ZERO),
            phases: vec![mk(0, 100, SimDuration::ZERO), mk(1, 150, SimDuration::ZERO)],
        };
        let dirty = TraceRunResult {
            device: DeviceKind::LocalSsd,
            report: JobReport::empty(SimDuration::from_millis(1), SimTime::ZERO),
            phases: vec![mk(0, 100, SimDuration::ZERO), mk(1, 1000, phase)],
        };
        let report = evaluate(vec![clean, dirty]);
        assert!(!report.clean());
        assert_eq!(report.violations.len(), 2, "{:?}", report.violations);
        assert!(report.violations.iter().any(
            |v| matches!(v.kind, TraceViolationKind::LatencyBlowup { factor } if factor > 9.0)
        ));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v.kind, TraceViolationKind::CompletionLag { .. })));
        assert!(report.violations.iter().all(|v| v.phase == 1));
    }
}
