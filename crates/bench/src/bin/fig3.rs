//! Regenerates Figure 3: runtime throughput under sustained random writes
//! to 3× device capacity.
//!
//! Usage: `cargo run --release -p uc-bench --bin fig3 [--quick]
//! [--scale <mult>] [--segments <n>] [--verify-segmented]
//! [--checkpoint-dir <dir> [--resume] [--kill-after <n>]]`
//!
//! * `--quick` — shorter run (1.5× capacity) for smoke tests.
//! * `--scale <mult>` — multiply device capacities (`UC_SCALE` fallback).
//! * `--segments <n>` — slice each device's endurance timeline into `n`
//!   resumable checkpoint segments pipelined across cores (default 8;
//!   results are byte-identical at any value).
//! * `--verify-segmented` — also run each device through the
//!   freeze/thaw round trip at the same segment count and exit nonzero
//!   unless the rendered figures are byte-identical (the checkpoint
//!   seam's end-to-end check; used by CI).
//! * `--checkpoint-dir <dir>` — persist the primed state and every
//!   segment boundary into `<dir>` as `fig3-<device>.seg<k>.ckpt` record
//!   files, keeping one file per device. A killed run restarted with
//!   `--resume` continues from the newest valid checkpoint and renders
//!   figures byte-identical to an uninterrupted run (the crash-resume CI
//!   gate pins this).
//! * `--resume` — with `--checkpoint-dir`, continue from on-disk state.
//! * `--kill-after <n>` — crash-testing hook: terminate the process
//!   (exit 42) after the n-th checkpoint save, simulating a crash at a
//!   segment boundary. CI uses this to exercise `--resume`.
//! * `--bench-json <path>` — write a machine-readable benchmark record
//!   (wall clock, simulated bytes/sec, devices) for CI artifacts.

use uc_bench::{parse_count, parse_value, roster_from_args, BenchJson, DurableArgs};
use uc_core::devices::DeviceKind;
use uc_core::experiments::durable;
use uc_core::experiments::fig3::{self, Fig3Config};
use uc_core::experiments::Executor;
use uc_core::report::render_fig3;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let verify = args.iter().any(|a| a == "--verify-segmented");
    let segments = parse_count(&args, "--segments").unwrap_or(8);
    let durable_args = DurableArgs::from_args(&args);
    let bench_json = parse_value(&args, "--bench-json");
    let roster = roster_from_args(&args);
    let cfg = if quick {
        Fig3Config::quick()
    } else {
        Fig3Config::paper()
    };
    let exec = Executor::from_env();
    let started = std::time::Instant::now();

    eprintln!(
        "running {} endurance timelines as {segments} pipelined segment(s) on {} worker(s)…",
        DeviceKind::ALL.len(),
        exec.threads()
    );
    let chains = fig3::chains(&roster, &DeviceKind::ALL, &cfg, segments);
    let results = durable::run(&chains, &exec, durable_args.store().as_ref()).expect("fig3 run");
    let wall = started.elapsed().as_secs_f64();

    if let Some(path) = &bench_json {
        let simulated_bytes: f64 = results
            .iter()
            .map(|r| {
                r.volume_series
                    .points()
                    .last()
                    .map_or(0.0, |&(multiple, _)| multiple * r.capacity as f64)
            })
            .sum();
        BenchJson::new("fig3")
            .u64("devices", DeviceKind::ALL.len() as u64)
            .u64("segments", segments as u64)
            .u64("simulated_bytes", simulated_bytes as u64)
            .f64("wall_seconds", wall)
            .f64("simulated_bytes_per_sec", simulated_bytes / wall.max(1e-9))
            .opt_u64("peak_rss_bytes", uc_bench::peak_rss_bytes())
            .write_to(path)
            .expect("write bench json");
        eprintln!("wrote benchmark record to {path}");
    }

    let mut mismatches = 0;
    for (i, kind) in DeviceKind::ALL.into_iter().enumerate() {
        println!("==== {kind} ====");
        print!("{}", render_fig3(&results[i]));
        println!();
        if verify {
            eprintln!("verifying {kind} against the freeze/thaw round trip…");
            let reference = durable::round_trip(&fig3::chain(&roster, kind, &cfg, segments))
                .expect("fig3 round-trip run");
            if render_fig3(&reference) != render_fig3(&results[i]) {
                eprintln!("::error::{kind}: pipelined fig3 diverged from the round-trip run");
                mismatches += 1;
            }
        }
    }
    if verify {
        if mismatches > 0 {
            std::process::exit(1);
        }
        eprintln!(
            "pipelined-vs-round-trip equivalence holds for all {} devices",
            DeviceKind::ALL.len()
        );
    }
    println!(
        "Paper reference shapes: SSD collapses at ~0.9x capacity (2.7 -> 1.0 \
         -> 0.15 GB/s); ESSD-1 sustains to ~2.55x then flow-limits to ~0.3 \
         GB/s; ESSD-2 sustains to 3x."
    );
}
