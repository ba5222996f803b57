//! The trace experiment: replay a captured or generated block-I/O trace
//! against every device class and print the per-phase contract report.
//!
//! Usage: `cargo run --release -p uc-bench --bin trace [--quick]
//! [--scale <mult>] [--shape bursty|steady|diurnal] [--speed <f>]
//! [--phases <n>] [--mode open|closed] [--trace <path>]
//! [--save-trace <path>]
//! [--checkpoint-dir <dir> [--resume] [--kill-after <n>]]`
//!
//! * `--quick` — a shorter generated trace for smoke tests.
//! * `--scale <mult>` — multiply device capacities (`UC_SCALE`
//!   fallback); the generated trace's offset span scales with them.
//! * `--shape` — the synthetic arrival shape when no `--trace` is given
//!   (default `bursty`, the paper's Implication 4 ON/OFF pattern).
//! * `--speed <f>` — replay acceleration: arrival instants are divided
//!   by `f` (default 1, the captured timing).
//! * `--phases <n>` — reporting phases / resumable segments (default 8).
//! * `--mode` — `open` (arrival-driven, default) or `closed` (QD 32).
//! * `--trace <path>` — replay this file instead of generating: binary
//!   `uc.trace.v1` records, falling back to the text format.
//! * `--save-trace <path>` — write the trace being replayed as a binary
//!   `uc.trace.v1` record file before running.
//! * `--checkpoint-dir <dir>` — persist the primed state and every
//!   phase boundary as `trace-<device>.seg<k>.ckpt`, one file per device;
//!   a killed run restarted with `--resume` continues from disk and
//!   prints a report byte-identical to an uninterrupted run (the trace
//!   CI smoke pins this).
//! * `--resume` — with `--checkpoint-dir`, continue from on-disk state.
//! * `--kill-after <n>` — crash-testing hook: exit 42 after the n-th
//!   checkpoint save.
//! * `--remote tcp:ADDR|uds:PATH` — client mode: instead of building
//!   local devices, open a session on a `serve` frontend and replay the
//!   generated trace over the wire (the replayer drives the
//!   [`RemoteDevice`](uc_serve::RemoteDevice) through the same
//!   [`BlockDevice`](uc_blockdev::BlockDevice) seam).
//!   `--remote-device <i>` picks the served lane (default 0); the trace
//!   seed is `0x7ACE + i` and the offset span is the lane's advertised
//!   capacity, so concurrent clients on distinct lanes stay
//!   deterministic. `--kill-conn-after <f>` kills the
//!   connection after `f` frame writes — the client reconnects and
//!   RESUMEs, and the replay must come out identical (the CI
//!   connection-churn smoke pins this).
//!
//! Exits nonzero if any phase violates the contract thresholds (local
//! mode), so the report doubles as a gate; remote mode exits 0 unless
//! the transport fails.

use uc_bench::{generated_trace, parse_count, parse_value, roster_from_args, DurableArgs};
use uc_core::devices::DeviceKind;
use uc_core::experiments::durable;
use uc_core::experiments::trace::{self as trace_exp, TraceRunConfig};
use uc_core::experiments::Executor;
use uc_core::report::render_trace_report;
use uc_sim::SimDuration;
use uc_trace::{load_trace, replay_with, save_trace, ReplayConfig, Trace};

/// Client mode: replay a generated trace against one lane of a `serve`
/// frontend, then print the device-side session ledger.
fn run_remote(args: &[String], endpoint: &str, shape: &str, quick: bool) {
    let endpoint = uc_serve::Endpoint::parse(endpoint).unwrap_or_else(|e| panic!("--remote: {e}"));
    let device: u32 = parse_value(args, "--remote-device")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--remote-device expects a lane index, got {v:?}"))
        })
        .unwrap_or(0);
    let mut dev = uc_serve::RemoteDevice::open(&endpoint, device)
        .unwrap_or_else(|e| panic!("cannot open lane {device} at {endpoint}: {e}"));
    if let Some(frames) = parse_count(args, "--kill-conn-after") {
        dev.set_kill_after(frames as u64);
    }
    let info = uc_blockdev::BlockDevice::info(&dev);
    eprintln!(
        "remote lane {device} at {endpoint}: {} ({} MiB)",
        info.name(),
        info.capacity() >> 20
    );
    // Seeded per lane so concurrent clients on distinct lanes generate
    // distinct (but individually deterministic) traffic.
    let trace = generated_trace(shape, quick, info.capacity(), 0x7ACE + device as u64);
    eprintln!(
        "trace: {} entries, {} MiB, {:.1} ms span",
        trace.len(),
        trace.total_bytes() >> 20,
        trace.duration().as_secs_f64() * 1e3
    );
    let report = replay_with(&mut dev, &trace, &ReplayConfig::open_loop()).expect("remote replay");
    println!(
        "remote replay: {} I/Os, {} MiB, mean lat {}, finished at {:.3} ms \
         ({} ring-full split(s), {} overload retries)",
        report.ios,
        report.bytes >> 20,
        uc_core::report::paper_duration(report.latency.mean()),
        report.finished_at.as_nanos() as f64 / 1e6,
        dev.ring_full_splits(),
        dev.overload_retries(),
    );
    if dev.resumes() > 0 {
        // Stderr, not stdout: the churn smoke diffs stdout between a
        // killed and an uninterrupted run.
        eprintln!("connection resumed {} time(s) mid-replay", dev.resumes());
    }
    let stats = dev.session_stats().expect("session stats");
    println!(
        "server ledger: {} I/Os, {} MiB, {} clamped, queue head at {:.3} ms",
        stats.stats.ios,
        stats.stats.bytes >> 20,
        stats.stats.clamped,
        stats.queue_head.as_nanos() as f64 / 1e6
    );
    assert_eq!(
        stats.stats.ios, report.ios,
        "server ledger disagrees with the client-side replay"
    );
    dev.close().expect("close session");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let shape = parse_value(&args, "--shape").unwrap_or_else(|| "bursty".to_string());
    if let Some(endpoint) = parse_value(&args, "--remote") {
        run_remote(&args, &endpoint, &shape, quick);
        return;
    }
    let phases = parse_count(&args, "--phases").unwrap_or(8);
    let durable_args = DurableArgs::from_args(&args);
    let speed = parse_value(&args, "--speed")
        .map(|v| {
            v.parse::<f64>()
                .unwrap_or_else(|_| panic!("--speed expects a number, got {v:?}"))
        })
        .unwrap_or(1.0);
    let mode = parse_value(&args, "--mode").unwrap_or_else(|| "open".to_string());
    let roster = roster_from_args(&args);

    let trace = match parse_value(&args, "--trace") {
        Some(path) => {
            let path = std::path::PathBuf::from(path);
            match load_trace(&path) {
                Ok(trace) => {
                    eprintln!("loaded binary trace {}", path.display());
                    trace
                }
                Err(binary_err) => {
                    // Interop: fall back to the text format.
                    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                        panic!("cannot read {}: {binary_err}; {e}", path.display())
                    });
                    let trace: Trace = text.parse().unwrap_or_else(|e| {
                        panic!(
                            "{} is neither a uc.trace.v1 record ({binary_err}) \
                             nor a text trace ({e})",
                            path.display()
                        )
                    });
                    eprintln!("loaded text trace {}", path.display());
                    trace
                }
            }
        }
        None => generated_trace(&shape, quick, roster.ssd_capacity(), 0x7ACE),
    };
    eprintln!(
        "trace: {} entries, {} MiB, {:.1} ms span",
        trace.len(),
        trace.total_bytes() >> 20,
        trace.duration().as_secs_f64() * 1e3
    );
    if let Some(path) = parse_value(&args, "--save-trace") {
        let path = std::path::PathBuf::from(path);
        save_trace(&path, &trace).expect("save trace");
        eprintln!("saved uc.trace.v1 record to {}", path.display());
    }

    // Report windows sized so each phase spans several of them.
    let scaled_nanos = (trace.duration().as_nanos() as f64 / speed).max(1.0) as u64;
    let window = SimDuration::from_nanos((scaled_nanos / (phases as u64 * 8).max(1)).max(1))
        .min(SimDuration::from_millis(10))
        .max(SimDuration::from_micros(100));
    let replay = match mode.as_str() {
        "open" => ReplayConfig::open_loop(),
        "closed" => ReplayConfig::closed_loop(32),
        other => panic!("--mode expects open|closed, got {other:?}"),
    }
    .with_window(window)
    .with_speed(speed);
    let cfg = TraceRunConfig::open_loop(phases).with_replay(replay);

    let exec = Executor::from_env();
    eprintln!(
        "replaying at speed {speed}x ({mode} loop) on {} device(s), {phases} phase(s), \
         {} worker(s)…",
        DeviceKind::ALL.len(),
        exec.threads()
    );
    let chains = trace_exp::chains(&roster, &DeviceKind::ALL, &trace, &cfg);
    let results = durable::run(&chains, &exec, durable_args.store().as_ref()).expect("trace run");

    let report = trace_exp::evaluate(results);
    print!("{}", render_trace_report(&report));
    println!(
        "Reference shapes: bursts that fit the budget keep every phase near the \
         best-phase latency; bursts beyond it flag LAT!/LAG! phases — the \
         smoothing case of Implication 4."
    );
    std::process::exit(if report.clean() { 0 } else { 1 });
}
