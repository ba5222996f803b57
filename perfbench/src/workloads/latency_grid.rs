//! `latency_grid`: the fig2 latency sweep, driven by the benchmark.
//!
//! 4 patterns x QD {1,2,4,8,16} x {4,16,64,256} KiB x 20 000 I/Os, one
//! fresh seeded device per cell, on SSD, ESSD-1 and ESSD-2: 240 cells
//! fanned out over a 2-thread executor. Device construction happens
//! inside the measured phase, as it does in `fig2::run_with`.

use super::{derive, Meter, Observed, Opts, Tracer, Unit};
use crate::stats::{mean, ratio};
use crate::timed::{Granularity, Timed};
use std::time::Instant;
use uc_blockdev::IoError;
use uc_core::contract::check_observation1;
use uc_core::devices::{DeviceKind, DeviceRoster};
use uc_core::experiments::fig2::{self, Fig2Config, Fig2Result, LatencyCell, PatternGrid};
use uc_core::experiments::Executor;
use uc_core::report::render_fig2_grid;
use uc_workload::{run_job, JobReport};

/// Executor width.
const THREADS: usize = 2;
/// SSD first: it is the baseline the ESSD grids are rendered against.
const KINDS: [DeviceKind; 3] = [DeviceKind::LocalSsd, DeviceKind::Essd1, DeviceKind::Essd2];

/// What one cell returns.
struct CellOut {
    cell: Result<LatencyCell, IoError>,
    ios: u64,
    wall_ns: u64,
    traced: Option<CellTrace>,
}

/// A traced cell's layer readings.
struct CellTrace {
    build_ns: u64,
    driver_ns: u64,
    submit_ns: u64,
    counts: Observed,
}

/// The output the fig2 binary prints.
fn render(ssd: &Fig2Result, essds: &[Fig2Result]) -> String {
    let mut out = String::new();
    for essd in essds {
        for (metric, p999) in [("Average", false), ("P99.9", true)] {
            out.push_str(&format!("==== {metric} latency of {} ====\n", essd.device));
            for pattern in 0..fig2::FIG2_PATTERNS.len() {
                out.push_str(&render_fig2_grid(essd, ssd, pattern, p999));
                out.push('\n');
            }
        }
    }
    out
}

/// `fig2::run_with` on the same roster and width, for each device.
pub fn reference() -> String {
    let roster = DeviceRoster::scaled_default();
    let exec = Executor::with_threads(THREADS);
    let results: Vec<Fig2Result> = KINDS
        .iter()
        .map(|&kind| fig2::run_with(&roster, kind, &Fig2Config::paper(), &exec).expect("fig2"))
        .collect();
    render(&results[0], &results[1..])
}

/// Runs one cell: build, drive, summarize.
fn cell(
    roster: &DeviceRoster,
    kind: DeviceKind,
    index: (usize, usize, usize),
    cfg: &Fig2Config,
    seed: u64,
    tracer: Option<&Tracer>,
) -> CellOut {
    let (pi, qi, si) = index;
    let started = Instant::now();
    let mut dev = roster.build_seeded(
        kind,
        derive(
            0xF162_0000 + pi as u64 * 1000 + qi as u64 * 10 + si as u64,
            seed,
        ),
    );
    let build_ns = started.elapsed().as_nanos() as u64;
    let size = cfg.io_sizes[si];
    // fig2's cap: a latency cell never ages the FTL into GC.
    let max_ios = (roster.capacity_of(kind) / 2 / size as u64).max(100);
    let spec = uc_workload::JobSpec::new(fig2::FIG2_PATTERNS[pi], size, cfg.queue_depths[qi])
        .with_io_limit(cfg.ios_per_cell.min(max_ios))
        .with_seed(derive(0x2B + si as u64, seed));
    let (report, traced) = match tracer {
        None => (run_job(dev.as_mut(), &spec), None),
        Some(t) => {
            let sink = if kind == DeviceKind::LocalSsd {
                &t.ssd
            } else {
                &t.essd
            };
            let mut timed = Timed::new(dev, Granularity::Request, sink);
            let driven = Instant::now();
            let report = run_job(&mut timed, &spec);
            let trace = CellTrace {
                build_ns,
                driver_ns: driven.elapsed().as_nanos() as u64,
                submit_ns: timed.samples().total_ns,
                counts: Observed::of(&timed),
            };
            (report, Some(trace))
        }
    };
    let ios = report.as_ref().map_or(0, |r: &JobReport| r.ios);
    CellOut {
        cell: report.map(|r| {
            let (avg, p999) = r.headline_latency();
            LatencyCell { avg, p999 }
        }),
        ios,
        wall_ns: started.elapsed().as_nanos() as u64,
        traced,
    }
}

/// Runs one latency_grid unit.
pub fn run(opts: &Opts, tracer: Option<&Tracer>) -> Unit {
    let roster = DeviceRoster::scaled_default();
    let cfg = Fig2Config::paper();
    let seed = opts.seed;
    let mut unit = Unit::default();

    // Set-up: what every cell pays before its first I/O — a fresh device
    // of each kind.
    let setup = Instant::now();
    for kind in KINDS {
        std::hint::black_box(roster.build_seeded(kind, derive(0xF162_0000, seed)));
    }
    unit.setup_s = setup.elapsed().as_secs_f64();

    let meter = Meter::start();
    let mut cells = Vec::new();
    for kind in KINDS {
        for pi in 0..fig2::FIG2_PATTERNS.len() {
            for qi in 0..cfg.queue_depths.len() {
                for si in 0..cfg.io_sizes.len() {
                    let (roster, cfg) = (&roster, &cfg);
                    cells.push(move || cell(roster, kind, (pi, qi, si), cfg, seed, tracer));
                }
            }
        }
    }
    let exec_started = Instant::now();
    let outs = Executor::with_threads(THREADS).run(cells);
    let exec_ns = exec_started.elapsed().as_nanos() as f64;
    let per_kind = fig2::FIG2_PATTERNS.len() * cfg.queue_depths.len() * cfg.io_sizes.len();
    let mut results = Vec::with_capacity(KINDS.len());
    for (kind, chunk) in KINDS.iter().zip(outs.chunks(per_kind)) {
        let mut measured = chunk.iter();
        let mut grids = Vec::with_capacity(fig2::FIG2_PATTERNS.len());
        for pattern in fig2::FIG2_PATTERNS {
            let mut rows = Vec::with_capacity(cfg.queue_depths.len());
            for _ in &cfg.queue_depths {
                let mut row = Vec::with_capacity(cfg.io_sizes.len());
                for _ in &cfg.io_sizes {
                    let out = measured.next().expect("one result per cell");
                    match out.cell {
                        Ok(c) => row.push(c),
                        Err(e) => unit.failures.push(format!("{kind} cell i/o error: {e}")),
                    }
                }
                rows.push(row);
            }
            grids.push(PatternGrid {
                pattern,
                cells: rows,
            });
        }
        results.push(Fig2Result {
            device: *kind,
            io_sizes: cfg.io_sizes.clone(),
            queue_depths: cfg.queue_depths.clone(),
            grids,
        });
    }
    unit.ios = outs.iter().map(|o| o.ios).sum();
    unit.finish(meter);
    unit.rtt_ns = outs.iter().map(|o| o.wall_ns).collect();

    if unit.failures.is_empty() {
        unit.output = render(&results[0], &results[1..]);
        let verdict = check_observation1(&results[0], &[&results[1], &results[2]]);
        if !verdict.passed {
            unit.failures
                .push(format!("observation 1 violated:\n{verdict}"));
        }
    }
    if let Some(t) = tracer {
        record_layers(t, &outs, per_kind, exec_ns);
    }
    unit
}

/// Per-layer values of a traced unit.
fn record_layers(t: &Tracer, outs: &[CellOut], per_kind: usize, exec_ns: f64) {
    let traced: Vec<&CellTrace> = outs.iter().filter_map(|o| o.traced.as_ref()).collect();
    let busy: u64 = outs.iter().map(|o| o.wall_ns).sum();
    t.set(
        "core.executor.utilization.latency_grid",
        busy as f64 / (THREADS as f64 * exec_ns),
        "ratio",
    );
    let builds: Vec<f64> = traced.iter().map(|c| c.build_ns as f64).collect();
    t.set("core.roster.build_ns", mean(&builds), "ns");
    let ios: u64 = outs.iter().map(|o| o.ios).sum();
    let self_ns: u64 = traced
        .iter()
        .map(|c| c.driver_ns.saturating_sub(c.submit_ns))
        .sum();
    t.set(
        "workload.driver_self_ns_per_io",
        ratio(self_ns as f64, ios as f64),
        "ns",
    );
    // The first `per_kind` cells are the SSD's.
    let ssd = &traced[..per_kind.min(traced.len())];
    let sum = |name: &str| ssd.iter().map(|c| c.counts.get(name)).sum::<f64>();
    t.set(
        "ssd.buffer_hit_ratio",
        ratio(sum("buffer.hits"), sum("host.reads")),
        "ratio",
    );
    t.set(
        "ssd.prefetch_useful_ratio",
        ratio(sum("prefetch.hits"), sum("prefetch.issued")),
        "ratio",
    );
}
