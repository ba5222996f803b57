//! Facade-level acceptance tests for the observability stack: the
//! telemetry a run emits is *part of the run's deterministic output*,
//! not a best-effort side channel.
//!
//! Three bars are pinned:
//!
//! * **byte determinism** — two same-seed runs (served pool replay, and
//!   a full fleet simulation) capture `uc.obs.v1` reports that are
//!   byte-identical, both as rendered text and as framed record bytes
//!   (the CI obs-determinism step runs the same comparison through the
//!   `serve`/`fleet` binaries' `--obs-dump`);
//! * **live export equivalence** — a `uc.wire.metrics.v2` pull over a
//!   real socket returns the same rows a server-side snapshot shows,
//!   the Prometheus endpoint renders that same snapshot, and a scrape
//!   taken while the loop serves sees pool totals that only grow;
//! * **postmortem usefulness** — a seeded contract violation produces a
//!   flight dump (written to disk, read back through the checksummed
//!   record envelope) whose last events name the violating seam.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use unwritten_contract::core::report::render_serve_report;
use unwritten_contract::essd::{Essd, EssdConfig};
use unwritten_contract::fleet::{FleetConfig, FleetDevice, FleetSim, RebalancePolicy};
use unwritten_contract::obs::ObsReport;
use unwritten_contract::persist::crc32;
use unwritten_contract::prelude::*;
use unwritten_contract::serve::{
    serve_events, Endpoint, Listener, PoolConfig, RemoteDevice, ServePool, WireClient,
};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("uc-facade-obs-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The lanes the serve-path tests build: one per device class, in
/// roster order — the same construction `serve --inprocess` uses.
fn lanes() -> Vec<(String, Box<dyn BlockDevice + Send>)> {
    let roster = DeviceRoster::scaled_default();
    DeviceKind::ALL
        .into_iter()
        .enumerate()
        .map(|(i, kind)| (format!("lane{i}-{}", kind.label()), roster.build(kind)))
        .collect()
}

/// Per-lane replay traffic, seeded by lane.
fn lane_trace(lane: usize) -> Trace {
    Trace::bursty_writes(
        4,
        8,
        SimDuration::from_millis(1),
        4096,
        16 << 20,
        0x7ACE + lane as u64,
    )
}

/// A fresh pool with every lane driven by its trace, in lane order.
fn replayed_pool() -> ServePool {
    let pool = ServePool::new(lanes(), PoolConfig::default());
    for lane in 0..DeviceKind::ALL.len() {
        let mut dev = pool.device(lane).unwrap();
        replay_with(&mut dev, &lane_trace(lane), &ReplayConfig::open_loop()).unwrap();
    }
    pool
}

/// Drives every lane of a fresh pool with its trace and captures the
/// pool's full telemetry report.
fn replayed_pool_report() -> ObsReport {
    replayed_pool().obs_report()
}

/// A pool of small eSSDs for the fleet-path tests.
fn fleet_pool(devices: usize, seed: u64) -> Vec<FleetDevice> {
    (0..devices)
        .map(|i| {
            let config = EssdConfig::alibaba_pl3(64 << 20)
                .with_name(format!("fleet-essd-{i}"))
                .with_seed(seed ^ i as u64);
            Box::new(Essd::new(config)) as FleetDevice
        })
        .collect()
}

fn fleet_config(tenants: usize, devices: usize, seed: u64) -> FleetConfig {
    FleetConfig::new(tenants, devices)
        .with_duration(SimDuration::from_millis(10))
        .with_seed(seed)
        .with_rebalance(RebalancePolicy::default())
}

/// Runs a full fleet simulation and captures its telemetry.
fn fleet_report(seed: u64) -> ObsReport {
    let mut sim = FleetSim::new(fleet_config(10, 2, seed), fleet_pool(2, seed));
    sim.run().expect("fleet run");
    sim.obs_report()
}

/// Two identical served replays capture byte-identical `uc.obs.v1`
/// reports — rendered text and framed record bytes both.
#[test]
fn served_replay_telemetry_is_byte_deterministic() {
    let (a, b) = (replayed_pool_report(), replayed_pool_report());
    assert!(
        a.snapshot.counter("serve.pool.ios").unwrap() > 0,
        "the report must carry real traffic"
    );
    assert!(
        a.snapshot
            .histogram("serve.lane0.service_ns")
            .is_some_and(|h| h.count > 0),
        "per-lane service latency must be populated"
    );
    assert_eq!(a, b);
    assert_eq!(a.render_text(), b.render_text());
    assert_eq!(a.to_record_bytes(), b.to_record_bytes());
}

/// The served replay's telemetry record and rendered device report are
/// pinned as `(len, crc32)`: how the pool locks, counts or stores its
/// metrics must not move a byte of either.
#[test]
fn served_replay_telemetry_bytes_are_pinned() {
    let fingerprint = |bytes: &[u8]| (bytes.len(), crc32(bytes));
    let pool = replayed_pool();
    assert_eq!(
        fingerprint(&pool.obs_report().to_record_bytes()),
        (10_635, 3_920_545_668),
        "uc.obs.v1 record"
    );
    assert_eq!(
        fingerprint(render_serve_report(&pool.report()).as_bytes()),
        (669, 3_331_480_821),
        "rendered serve report"
    );
}

/// Two same-seed fleet simulations capture byte-identical telemetry —
/// including the flight-recorder tail (migration phases ride in it).
#[test]
fn fleet_telemetry_is_byte_deterministic() {
    let (a, b) = (fleet_report(0xF1EE7), fleet_report(0xF1EE7));
    assert!(
        a.snapshot.counter("fleet.ios").unwrap() > 0,
        "the report must carry real traffic"
    );
    assert!(
        a.snapshot
            .histogram("fleet.tenant_latency_ns")
            .is_some_and(|h| h.count > 0),
        "fleet-wide tenant latency must be populated"
    );
    assert_eq!(a, b);
    assert_eq!(a.to_record_bytes(), b.to_record_bytes());
    // A different seed genuinely changes the bytes — the comparison
    // above is not vacuous.
    assert_ne!(a.to_record_bytes(), fleet_report(0xBEEF).to_record_bytes());
}

/// A `uc.wire.metrics.v2` pull over a real socket returns the same rows
/// a server-side snapshot shows: remote observability is not a second,
/// subtly different bookkeeping path.
#[test]
fn wire_metrics_pull_matches_server_side_snapshot() {
    let pool = Arc::new(ServePool::new(lanes(), PoolConfig::default()));
    let listener = Listener::bind(&Endpoint::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
    let endpoint = listener.local_endpoint().unwrap();
    let server = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || serve_events(&listener, &pool, 2))
    };

    // Session 1: put traffic on lane 0, then pull metrics in-band.
    let mut dev = RemoteDevice::open(&endpoint, 0).unwrap();
    replay_with(&mut dev, &lane_trace(0), &ReplayConfig::open_loop()).unwrap();
    let pulled = dev.metrics().unwrap();
    dev.close().unwrap();

    // Session 2: a metrics-only observer session sees the same totals.
    let mut observer = WireClient::connect(&endpoint).unwrap();
    let observed = observer.metrics().unwrap();
    observer.close().unwrap();
    server.join().unwrap().unwrap();

    let server_side = pool.obs_snapshot();
    assert_eq!(
        pulled.counter("serve.pool.ios"),
        server_side.counter("serve.pool.ios")
    );
    assert_eq!(
        pulled.counter("serve.pool.ios"),
        Some(pool.report().total_ios())
    );
    assert_eq!(
        pulled.histogram("serve.lane0.service_ns").map(|h| h.count),
        server_side
            .histogram("serve.lane0.service_ns")
            .map(|h| h.count)
    );
    // The device's own internals crossed the wire too.
    assert_eq!(
        pulled.counter("serve.device0.ftl.host_pages_written"),
        server_side.counter("serve.device0.ftl.host_pages_written")
    );
    // The observer pulled after the replay session closed, so its view
    // contains the same pool totals.
    assert_eq!(
        observed.counter("serve.pool.ios"),
        server_side.counter("serve.pool.ios")
    );
    // The loop's own counters ride the pull (appended after the pool
    // rows) but stay out of the deterministic pool snapshot.
    assert!(observed.counter("serve.loop.polls").unwrap() > 0);
    assert_eq!(server_side.counter("serve.loop.polls"), None);
}

/// A scrape while the event loop serves takes the pool's lock from
/// another thread: every scrape sees pool totals that only grow, and the
/// served run still ends with the in-process replay's report.
#[test]
fn live_scrapes_while_serving_see_monotonic_totals() {
    let pool = Arc::new(ServePool::new(lanes(), PoolConfig::default()));
    let listener = Listener::bind(&Endpoint::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
    let endpoint = listener.local_endpoint().unwrap();
    let sessions = DeviceKind::ALL.len();
    let server = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || serve_events(&listener, &pool, sessions))
    };
    let done = Arc::new(AtomicBool::new(false));
    let scraper = {
        let (pool, done) = (Arc::clone(&pool), Arc::clone(&done));
        std::thread::spawn(move || {
            let mut seen = Vec::new();
            while !done.load(Ordering::Acquire) {
                seen.push(pool.obs_snapshot().counter("serve.pool.ios").unwrap());
                std::thread::yield_now();
            }
            seen
        })
    };

    let clients: Vec<_> = (0..sessions)
        .map(|lane| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || {
                let mut dev = RemoteDevice::open(&endpoint, lane as u32).unwrap();
                replay_with(&mut dev, &lane_trace(lane), &ReplayConfig::open_loop()).unwrap();
                dev.close().unwrap();
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    server.join().unwrap().unwrap();
    done.store(true, Ordering::Release);
    let seen = scraper.join().unwrap();

    assert!(!seen.is_empty(), "the scraper must have run");
    assert!(
        seen.windows(2).all(|w| w[0] <= w[1]),
        "serve.pool.ios went backwards between scrapes"
    );
    assert_eq!(
        render_serve_report(&pool.report()),
        render_serve_report(&replayed_pool().report())
    );
}

/// A seeded contract violation produces a flight dump — written to disk
/// through the `uc.obs.v1` record envelope and read back — whose last
/// events name the violating seam.
#[test]
fn seeded_violation_dump_names_the_violating_seam() {
    let dir = temp_dir("violation-dump");
    // 12 skewed tenants on 2 devices reliably migrate under the default
    // policy (the fleet suite pins this), so the armed fault fires.
    let seed = 7;
    let mut sim = FleetSim::new(fleet_config(12, 2, seed), fleet_pool(2, seed));
    sim.arm_migration_fault();
    let report = sim.run().expect("violations are findings, not errors");
    assert!(
        !report.violations.is_empty(),
        "the fault must trip a contract"
    );

    // Dump and reload through the checksummed record file — the same
    // artifact the crash hook and `--obs-dump` write.
    let path = dir.join("violation.obs");
    sim.obs_report().save_to(&path).unwrap();
    let dump = ObsReport::load_from(&path).unwrap();

    let tail: Vec<&str> = dump
        .events
        .iter()
        .rev()
        .take(8)
        .map(|e| e.what.as_str())
        .collect();
    assert!(
        tail.iter()
            .any(|w| w.starts_with("contract-violation:") && w.contains("every-tenant-placed")),
        "the dump's last events must name the violating seam: {tail:#?}"
    );
    assert!(dump.snapshot.counter("fleet.violations").unwrap() > 0);
    let _ = std::fs::remove_dir_all(&dir);
}
