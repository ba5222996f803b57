//! The fleet experiment: hundreds of tenants multiplexed onto a shared
//! eSSD pool, with per-tenant interference metrics, epoch fairness, and
//! optional checkpoint-based rebalancing.
//!
//! Usage: `cargo run --release -p uc-bench --bin fleet [--tenants <n>]
//! [--devices <n>] [--shape-mix <s:d:b>] [--rebalance] [--epochs <n>]
//! [--duration-ms <n>] [--seed <n>] [--scale <mult>]
//! [--bench-json <path>]
//! [--checkpoint-dir <dir> [--resume] [--kill-after <n>]]`
//!
//! * `--tenants <n>` — fleet population (default 256).
//! * `--devices <n>` — shared eSSD pool size (default 8; alternating
//!   AWS io2 / Alibaba PL3 presets).
//! * `--shape-mix <s:d:b>` — steady:diurnal:bursty population ratio
//!   (default `2:1:1`).
//! * `--rebalance` — enable hot-device detection and checkpoint-seam
//!   tenant migration at epoch boundaries.
//! * `--epochs <n>` — epoch count (default 4; each boundary audits the
//!   conservation contracts and, durably, persists a checkpoint).
//! * `--duration-ms <n>` — per-tenant arrival horizon (default 200).
//! * `--seed <n>` — the fleet seed driving every tenant's synthesis.
//! * `--scale <mult>` — multiply per-device capacity (`UC_SCALE`
//!   fallback; 1 = 256 MiB per device).
//! * `--bench-json <path>` — write a machine-readable benchmark record
//!   (wall clock, simulated bytes/sec, tenants/devices, and the
//!   fleet-wide tenant-latency percentiles) for CI artifacts.
//! * `--obs-dump <path>` — persist the run's `uc.obs.v1` telemetry
//!   record (every metric plus the flight-recorder tail). Two same-seed
//!   runs dump byte-identical records — the CI obs-determinism step
//!   pins this. When the run records a contract violation the dump is
//!   written even without this flag (to `fleet-violation.obs`), and the
//!   flight tail — whose last events name the violating seam — is
//!   echoed to stderr.
//! * `--report <path>` — write the rendered fleet report there instead
//!   of stdout (the serve smoke diffs it against a `serve --fleet`
//!   run's report byte for byte).
//! * `--checkpoint-dir <dir>` — persist the primed fleet and every epoch
//!   boundary as `fleet.seg<k>.ckpt`, one file at a time; a killed run
//!   restarted with `--resume` continues from disk and prints a report
//!   byte-identical to an uninterrupted run (the fleet CI smoke pins
//!   this).
//! * `--resume` — with `--checkpoint-dir`, continue from on-disk state.
//! * `--kill-after <n>` — crash-testing hook: exit 42 after the n-th
//!   checkpoint save, first dumping the fleet's telemetry to
//!   `<dir>/crash.obs`.
//! * `--remote tcp:ADDR|uds:PATH` — client mode: instead of running the
//!   fleet in-process, attach this client's share of the tenants as
//!   `uc.wire.v2` lanes on a `serve --fleet` frontend, push each
//!   tenant's synthesized arrival stream over the wire, and flush every
//!   epoch barrier. `--clients <n>` / `--client-index <i>` partition the
//!   tenant population (tenant `t` belongs to client `t % n`); the
//!   *server* renders the fleet report, byte-identical to an in-process
//!   run of the same flags. `--kill-conn-after <f>` kills the connection
//!   after `f` frame writes to exercise reconnect-and-resume mid-run.
//!
//! Exits nonzero if the run recorded any contract violation (tenant
//! conservation, ledger conservation, queue-head monotonicity) — flagged
//! interference findings are measurements, not failures.

use uc_bench::{fleet_config_from_args, parse_count, parse_value, BenchJson, DurableArgs};
use uc_blockdev::IoRequest;
use uc_core::experiments::durable;
use uc_core::experiments::fleet::{FleetChain, FleetRunConfig};
use uc_core::experiments::Executor;
use uc_core::report::render_fleet_report;
use uc_fleet::TenantSpec;
use uc_serve::{Body, LaneTarget, WireClient};

/// Reads the value of `--flag <n>` as a non-negative integer (zero
/// allowed — client indices start at 0).
fn parse_index(args: &[String], flag: &str) -> Option<usize> {
    parse_value(args, flag).map(|v| {
        v.parse::<usize>()
            .unwrap_or_else(|_| panic!("{flag} expects a non-negative integer, got {v:?}"))
    })
}

/// How many trace entries one push frame carries (well under the wire's
/// per-frame request cap).
const PUSH_CHUNK: usize = 1024;

/// Client mode: attach this client's share of the tenants on a
/// `serve --fleet` frontend, push their synthesized arrival streams, and
/// flush every epoch barrier. The synthesis inputs are the same flags
/// the server built the fleet from; the region span and I/O size come
/// back on the wire in ATTACH_OK, so the pushed entries are exactly the
/// ones an in-process run would generate.
fn run_remote(args: &[String], endpoint: &str, config: &FleetRunConfig) {
    let endpoint = uc_serve::Endpoint::parse(endpoint).unwrap_or_else(|e| panic!("--remote: {e}"));
    let clients = parse_count(args, "--clients").unwrap_or(1);
    let index = parse_index(args, "--client-index").unwrap_or(0);
    assert!(
        index < clients,
        "--client-index {index} out of range for --clients {clients}"
    );
    // The server may still be binding when the clients launch.
    let mut client = None;
    for _ in 0..200 {
        match WireClient::connect(&endpoint) {
            Ok(c) => {
                client = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(50)),
        }
    }
    let mut client = client.unwrap_or_else(|| panic!("cannot reach serve --fleet at {endpoint}"));
    if let Some(frames) = parse_count(args, "--kill-conn-after") {
        client.set_kill_after(frames as u64);
    }
    let tenants: Vec<u32> = (index..config.fleet.tenants)
        .step_by(clients)
        .map(|t| t as u32)
        .collect();
    eprintln!(
        "fleet client {index}/{clients} at {endpoint}: {} tenant(s), session {}",
        tenants.len(),
        client.token()
    );
    let mut lanes = Vec::with_capacity(tenants.len());
    let mut pushed = 0u64;
    for &t in &tenants {
        let (lane, _name, span, io_size) = client
            .attach(LaneTarget::Tenant(t))
            .unwrap_or_else(|e| panic!("attach tenant {t}: {e}"));
        let spec = TenantSpec::synthesize(
            t,
            &config.fleet.mix,
            config.fleet.seed,
            span,
            config.fleet.duration,
            io_size,
        );
        let mut entries = spec.trace.cursor();
        loop {
            let reqs: Vec<IoRequest> = entries
                .by_ref()
                .take(PUSH_CHUNK)
                .map(|e| IoRequest {
                    kind: e.kind,
                    offset: e.offset,
                    len: e.len,
                    submit_time: e.at,
                })
                .collect();
            if reqs.is_empty() {
                break;
            }
            match client
                .call(lane, Body::Submit { reqs })
                .unwrap_or_else(|e| panic!("push tenant {t}: {e}"))
            {
                Body::PushOk { accepted } => pushed += accepted,
                Body::Err { message, .. } => panic!("push tenant {t} refused: {message}"),
                other => panic!("expected PUSH_OK for tenant {t}, got {other:?}"),
            }
        }
        lanes.push(lane);
    }
    let mut moved = 0usize;
    for epoch in 0..config.fleet.epochs as u64 {
        let moves = client
            .flush_epoch(&lanes, epoch)
            .unwrap_or_else(|e| panic!("flush epoch {epoch}: {e}"));
        moved += moves.iter().filter(|(_, to)| to.is_some()).count();
    }
    let resumes = client.resumes();
    client.close().expect("close session");
    eprintln!(
        "fleet client {index}/{clients}: pushed {pushed} entr(ies), \
         {} epoch(s) flushed, {moved} lane move(s), {resumes} resume(s)",
        config.fleet.epochs
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let durable_args = DurableArgs::from_args(&args);
    let config = fleet_config_from_args(&args);

    if let Some(endpoint) = parse_value(&args, "--remote") {
        run_remote(&args, &endpoint, &config);
        return;
    }

    let fleet = &config.fleet;
    eprintln!(
        "fleet: {} tenant(s) on {} shared device(s) ({} MiB each), {} epoch(s), \
         {:.0} ms horizon, rebalance {}…",
        fleet.tenants,
        fleet.devices,
        config.capacity >> 20,
        fleet.epochs,
        fleet.duration.as_secs_f64() * 1e3,
        if fleet.rebalance.is_some() {
            "on"
        } else {
            "off"
        }
    );
    let started = std::time::Instant::now();
    let verdict = durable::run(
        &[FleetChain::new(&config)],
        &Executor::sequential(),
        durable_args.store().as_ref(),
    )
    .expect("fleet run")
    .remove(0);
    let wall = started.elapsed().as_secs_f64();

    let rendered = render_fleet_report(&verdict);
    match parse_value(&args, "--report") {
        Some(path) => {
            std::fs::write(&path, &rendered).expect("write report");
            eprintln!("report written to {path}");
        }
        None => print!("{rendered}"),
    }
    println!(
        "Reference shapes: co-located bursty tenants drag epoch fairness and \
         flag latency blow-ups on their neighbors; rebalancing migrates the \
         busiest tenant off the hot device through the checkpoint seam."
    );
    eprintln!(
        "fleet wall time: {wall:.3}s ({:.1} simulated MiB/s)",
        verdict.report.total_bytes as f64 / (1 << 20) as f64 / wall.max(1e-9)
    );

    // The telemetry dump: on demand at the named path, and always on a
    // contract violation — the flight tail names the violating seam.
    let obs_dump = parse_value(&args, "--obs-dump");
    let violated = !verdict.report.violations.is_empty();
    if let Some(path) = obs_dump
        .clone()
        .or_else(|| violated.then(|| "fleet-violation.obs".to_string()))
    {
        verdict
            .obs
            .save_to(std::path::Path::new(&path))
            .expect("write obs dump");
        eprintln!("uc.obs.v1 telemetry written to {path}");
    }
    if violated {
        eprintln!(
            "flight tail ({} event(s), {} dropped):",
            verdict.obs.events.len(),
            verdict.obs.dropped_events
        );
        for e in verdict.obs.events.iter().rev().take(8).rev() {
            eprintln!("  {}", e.render());
        }
    }

    if let Some(path) = parse_value(&args, "--bench-json") {
        let latency = verdict.obs.snapshot.histogram("fleet.tenant_latency_ns");
        BenchJson::new("fleet")
            .u64("tenants", config.fleet.tenants as u64)
            .u64("devices", config.fleet.devices as u64)
            .u64("epochs", verdict.report.epochs as u64)
            .u64("total_ios", verdict.report.total_ios)
            .u64("total_bytes", verdict.report.total_bytes)
            .u64("latency_p50_ns", latency.map_or(0, |h| h.p50_ns))
            .u64("latency_p99_ns", latency.map_or(0, |h| h.p99_ns))
            .u64("latency_p999_ns", latency.map_or(0, |h| h.p999_ns))
            .u64("latency_max_ns", latency.map_or(0, |h| h.max_ns))
            .u64("migrations", verdict.report.migrations.len() as u64)
            .u64("violations", verdict.report.violations.len() as u64)
            .u64("findings", verdict.findings.len() as u64)
            .f64("min_fairness", verdict.report.min_fairness())
            .f64("wall_seconds", wall)
            .f64(
                "simulated_bytes_per_sec",
                verdict.report.total_bytes as f64 / wall.max(1e-9),
            )
            .opt_u64("peak_rss_bytes", uc_bench::peak_rss_bytes())
            .write_to(&path)
            .expect("write bench json");
        eprintln!("wrote benchmark record to {path}");
    }

    std::process::exit(if verdict.report.violations.is_empty() {
        0
    } else {
        1
    });
}
