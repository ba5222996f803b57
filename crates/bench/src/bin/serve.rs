//! The served frontend: expose a pool of simulated devices — or a whole
//! multi-tenant fleet — to real network clients over `uc.wire.v2`, with
//! one epoll event-loop thread driving every connection.
//!
//! Usage:
//!
//! * `serve --listen tcp:ADDR|uds:PATH [--devices <n>] [--sessions <n>]`
//!   — bind, print the bound endpoint to stderr (`serving at …`), drive
//!   connections through the event loop until exactly `--sessions`
//!   sessions have closed, then print the device-side report and exit 0.
//!   Clients are `trace --remote <endpoint> --remote-device <i>`; a
//!   client whose connection dies (or is killed with
//!   `--kill-conn-after`) reconnects and RESUMEs without perturbing the
//!   report.
//! * `serve --inprocess [--devices <n>] [--sessions <n>]` — the same
//!   pool, driven by in-process sessions replaying the same generated
//!   traces (session `i` targets lane `i % devices` with seed
//!   `0x7ACE + lane`). The report this mode prints is the baseline the
//!   CI serve smoke diffs a networked run against, byte for byte.
//! * `serve --fleet --listen … [--sessions <n>]` — fleet mode: the wire
//!   lanes are fleet *tenants*, not devices. The server hosts a fed
//!   [`FleetSim`] (same flags as the `fleet` binary: `--tenants`,
//!   `--devices`, `--epochs`, `--duration-ms`, `--seed`, `--shape-mix`,
//!   `--rebalance`, `--scale`); `--sessions` (default 4) `fleet
//!   --remote` clients attach tenant lanes, push arrival streams, and
//!   flush epoch barriers. The rendered fleet report is byte-identical
//!   to an in-process `fleet` run of the same flags — including when a
//!   client's connection is killed and resumed mid-epoch.
//! * `serve --connbench <n> [--devices <d>]` — concurrency measurement:
//!   bind an ephemeral endpoint, hold `n` client sessions open
//!   *simultaneously* against one serving thread, submit on each, and
//!   record the loop's peak connection count in the bench record (the
//!   "hundreds of connections, one thread" claim, measured).
//!
//! Common flags:
//!
//! * `--devices <n>` — device lanes (roster round-robin; default 3), or
//!   the fleet pool size in `--fleet` mode (default 8).
//! * `--sessions <n>` — sessions to serve/replay; default `--devices`
//!   (4 in fleet mode).
//! * `--scale <mult>` — multiply device capacities (`UC_SCALE`
//!   fallback).
//! * `--ring <n>` — per-doorbell submission ring (default 64, which
//!   admits the replayer's 32-entry doorbells unsplit).
//! * `--max-inflight <n>` — in-flight batch ceiling before overload
//!   shedding (default 1024).
//! * `--rate <bytes/s>` — per-session token-bucket rate budget.
//! * `--quick` / `--shape bursty|steady|diurnal` — the generated trace
//!   (in-process mode; remote clients pick their own).
//! * `--report <path>` — write the rendered report there instead of
//!   stdout.
//! * `--bench-json <path>` — machine-readable run record (includes
//!   `peak_connections`, `resumes`, `peak_rss_bytes`, the shed
//!   counters, the event loop's poll/dispatch/stall counts, and the
//!   pool-wide service-latency percentiles).
//! * `--metrics tcp:ADDR|uds:PATH` — serve live telemetry in Prometheus
//!   text exposition format on a second endpoint (one scrape per
//!   connection), next to the wire endpoint.
//! * `--obs-dump <path>` — after the run, persist the full `uc.obs.v1`
//!   telemetry record (metrics snapshot + flight-recorder tail). Two
//!   same-seed `--inprocess` runs dump byte-identical records — the CI
//!   obs-determinism step pins this.
//!
//! Overload shedding is a served result, not a failure: the binary
//! exits 0 even when `shed_overload` is positive.

use std::sync::Arc;
use uc_bench::{
    fleet_config_from_args, generated_trace, parse_count, parse_value, roster_from_args, BenchJson,
    DeviceKind,
};
use uc_core::experiments::fleet as fleet_exp;
use uc_core::report::{render_fleet_report, render_serve_report};
use uc_fleet::FleetSim;
use uc_serve::{
    serve_events, Endpoint, EventLoopStats, Listener, PoolConfig, RemoteDevice, ServePool,
};
use uc_sim::SimTime;
use uc_trace::{replay_with, ReplayConfig};

/// The connection-concurrency bench: `count` sessions held open at once
/// against one serving thread, each submitting a small batch while every
/// other connection stays live, so the loop's `peak_connections` is an
/// honest simultaneous count.
fn run_connbench(pool: &Arc<ServePool>, listen: &str, count: usize) -> EventLoopStats {
    let endpoint = Endpoint::parse(listen).unwrap_or_else(|e| panic!("--listen: {e}"));
    let listener =
        Listener::bind(&endpoint).unwrap_or_else(|e| panic!("cannot bind {endpoint}: {e}"));
    let bound = listener.local_endpoint().expect("local endpoint");
    let devices = pool.devices();
    let server = {
        let pool = Arc::clone(pool);
        std::thread::spawn(move || serve_events(&listener, &pool, count))
    };
    let barrier = Arc::new(std::sync::Barrier::new(count));
    let clients: Vec<_> = (0..count)
        .map(|i| {
            let bound = bound.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut dev = RemoteDevice::open(&bound, (i % devices) as u32)
                    .unwrap_or_else(|e| panic!("client {i} cannot open: {e}"));
                // Everyone holds their connection until the whole cohort
                // is attached — the peak is all of them at once.
                barrier.wait();
                let info = uc_blockdev::BlockDevice::info(&dev);
                let req = uc_blockdev::IoRequest::write(0, info.logical_block(), SimTime::ZERO);
                uc_blockdev::BlockDevice::submit(&mut dev, &req).expect("bench submit");
                barrier.wait();
                dev.close().expect("close");
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    server.join().expect("server thread").expect("serve events")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let inprocess = args.iter().any(|a| a == "--inprocess");
    let fleet = args.iter().any(|a| a == "--fleet");
    let connbench = parse_count(&args, "--connbench");
    let shape = parse_value(&args, "--shape").unwrap_or_else(|| "bursty".to_string());
    let devices = parse_count(&args, "--devices").unwrap_or(if fleet { 8 } else { 3 });
    let sessions = connbench
        .or_else(|| parse_count(&args, "--sessions"))
        .unwrap_or(if fleet { 4 } else { devices });
    let mut config = PoolConfig::default();
    if let Some(ring) = parse_count(&args, "--ring") {
        config.ring = ring;
    }
    if let Some(ceiling) = parse_count(&args, "--max-inflight") {
        config.max_inflight = ceiling;
    }
    if let Some(rate) = parse_value(&args, "--rate") {
        let parsed = rate
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("--rate expects bytes per second, got {rate:?}"));
        config.rate = Some(parsed);
    }
    assert!(
        !(fleet && (inprocess || connbench.is_some())),
        "--fleet serves tenant lanes over the network; combine it with --listen only"
    );

    let fleet_config = fleet.then(|| fleet_config_from_args(&args));
    let pool = match &fleet_config {
        Some(run) => {
            // The wire lanes are tenants of a *fed* fleet: geometry and
            // budgets identical to the in-process run, arrival streams
            // supplied by the remote clients.
            let sim = FleetSim::new_fed(run.fleet.clone(), fleet_exp::build_pool(run));
            Arc::new(ServePool::new_fleet(sim, config))
        }
        None => {
            // Lanes round-robin the paper's roster, labeled
            // deterministically so a networked run and the in-process
            // baseline render identically.
            let roster = roster_from_args(&args);
            let lanes: Vec<(String, _)> = (0..devices)
                .map(|i| {
                    let kind = DeviceKind::ALL[i % DeviceKind::ALL.len()];
                    (format!("lane{i}-{}", kind.label()), roster.build(kind))
                })
                .collect();
            Arc::new(ServePool::new(lanes, config))
        }
    };

    // The Prometheus endpoint scrapes the live pool from its own thread
    // for as long as the process runs.
    if let Some(listen) = parse_value(&args, "--metrics") {
        let endpoint = Endpoint::parse(&listen).unwrap_or_else(|e| panic!("--metrics: {e}"));
        let listener = Listener::bind(&endpoint)
            .unwrap_or_else(|e| panic!("cannot bind metrics endpoint {endpoint}: {e}"));
        let bound = listener.local_endpoint().expect("metrics endpoint");
        eprintln!("metrics at {bound}");
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || uc_serve::serve_metrics(&listener, &pool, usize::MAX));
    }

    let started = std::time::Instant::now();
    let mut stats = EventLoopStats::default();
    let mode = if let Some(count) = connbench {
        let listen = parse_value(&args, "--listen").unwrap_or_else(|| "tcp:127.0.0.1:0".into());
        eprintln!("connbench: {count} concurrent session(s) on one serving thread…");
        stats = run_connbench(&pool, &listen, count);
        assert_eq!(
            stats.peak_connections, count,
            "every bench session must be open at once"
        );
        "connbench"
    } else if inprocess {
        // The determinism baseline: session i replays the same generated
        // trace a remote client on lane i % devices would, sequentially
        // (lanes are independent, so sequential == concurrent).
        for i in 0..sessions {
            let lane = i % devices;
            let mut dev = pool.device(lane).expect("lane exists");
            let info = uc_blockdev::BlockDevice::info(&dev);
            let trace = generated_trace(&shape, quick, info.capacity(), 0x7ACE + lane as u64);
            let report = replay_with(&mut dev, &trace, &ReplayConfig::open_loop()).expect("replay");
            eprintln!(
                "session {i} on lane {lane}: {} I/Os, {} MiB, finished at {:.3} ms",
                report.ios,
                report.bytes >> 20,
                report.finished_at.as_nanos() as f64 / 1e6
            );
        }
        "inprocess"
    } else {
        let listen = parse_value(&args, "--listen")
            .unwrap_or_else(|| panic!("serve expects --listen tcp:ADDR|uds:PATH or --inprocess"));
        let endpoint = Endpoint::parse(&listen).unwrap_or_else(|e| panic!("--listen: {e}"));
        let listener =
            Listener::bind(&endpoint).unwrap_or_else(|e| panic!("cannot bind {endpoint}: {e}"));
        let bound = listener.local_endpoint().expect("local endpoint");
        if fleet {
            eprintln!(
                "serving {} fleet tenant(s) on {devices} device(s) at {bound}; \
                 waiting for {sessions} session(s)…",
                pool.fleet_tenants()
            );
        } else {
            eprintln!("serving {devices} lane(s) at {bound}; waiting for {sessions} session(s)…");
        }
        stats = serve_events(&listener, &pool, sessions).expect("serve events");
        if fleet {
            "fleet"
        } else {
            "network"
        }
    };
    let wall = started.elapsed();
    eprintln!(
        "event loop: {} accepted, {} peak, {} session(s), {} resume(s)",
        stats.connections_accepted, stats.peak_connections, stats.sessions_served, stats.resumes
    );

    let report = pool.report();
    let rendered = match pool.fleet_report() {
        // Fleet mode renders the *fleet* verdict — the byte-identity bar
        // against an in-process `fleet` run of the same flags.
        Some(fleet_report) => render_fleet_report(&fleet_exp::evaluate(fleet_report)),
        None => render_serve_report(&report),
    };
    match parse_value(&args, "--report") {
        Some(path) => {
            std::fs::write(&path, &rendered).expect("write report");
            eprintln!("report written to {path}");
        }
        None => print!("{rendered}"),
    }

    if let Some(path) = parse_value(&args, "--obs-dump") {
        pool.obs_report()
            .save_to(std::path::Path::new(&path))
            .expect("write obs dump");
        eprintln!("uc.obs.v1 telemetry written to {path}");
    }

    if let Some(path) = parse_value(&args, "--bench-json") {
        let service = pool.service_summary();
        BenchJson::new("serve")
            .str("mode", mode)
            .u64("devices", devices as u64)
            .u64("sessions", sessions as u64)
            .u64("total_ios", report.total_ios())
            .u64("total_bytes", report.total_bytes())
            .u64("busy_ring_full", report.busy_ring_full)
            .u64("shed_overload", report.shed_overload)
            .u64("throttled", report.throttled)
            .u64("connections_accepted", stats.connections_accepted)
            .u64("peak_connections", stats.peak_connections as u64)
            .u64("sessions_served", stats.sessions_served)
            .u64("resumes", stats.resumes)
            .u64("loop_polls", stats.polls)
            .u64("loop_dispatches", stats.dispatches)
            .u64("loop_frames", stats.frames)
            .u64("loop_read_stalls", stats.read_stalls)
            .u64("loop_write_stalls", stats.write_stalls)
            .u64("loop_replays", stats.replays)
            .u64("service_p50_ns", service.p50_ns)
            .u64("service_p99_ns", service.p99_ns)
            .u64("service_p999_ns", service.p999_ns)
            .u64("service_max_ns", service.max_ns)
            .f64("wall_seconds", wall.as_secs_f64())
            .opt_u64("peak_rss_bytes", uc_bench::peak_rss_bytes())
            .write_to(&path)
            .expect("write bench json");
        eprintln!("bench json written to {path}");
    }
    // Shedding and throttling are served outcomes, not failures.
}
