//! Facade-level end-to-end tests of the served frontend: real sockets,
//! real threads, concurrent replay clients — all driven by the
//! single-thread `uc.wire.v2` event loop.
//!
//! The contract under test is the subsystem's acceptance bar: driving a
//! replay through a loopback server must produce a device-side report
//! **equal** (and byte-identically rendered) to the same replay run
//! in-process — *including* when the TCP connection is killed at an
//! arbitrary frame boundary and the client reconnects and RESUMEs. The
//! liveness properties ride along: a stalled client cannot block other
//! sessions, ring-full backpressure always converges, and an
//! overloaded pool sheds typed `BUSY` frames it later recovers from.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use unwritten_contract::core::report::render_serve_report;
use unwritten_contract::fleet::{FleetDevice, TenantSpec};
use unwritten_contract::prelude::*;
use unwritten_contract::serve::{
    serve_events, Body, BusyReason, Endpoint, Frame, FrameHeader, LaneTarget, Listener, PoolConfig,
    RemoteDevice, ServePool, ServeReport, WireClient, WIRE_VERSION,
};
use unwritten_contract::workload::TraceEntry;

/// The lanes both the server under test and the in-process baseline
/// build: one per device class, in roster order.
fn lanes() -> Vec<(String, Box<dyn BlockDevice + Send>)> {
    let roster = DeviceRoster::scaled_default();
    DeviceKind::ALL
        .into_iter()
        .enumerate()
        .map(|(i, kind)| (format!("lane{i}-{}", kind.label()), roster.build(kind)))
        .collect()
}

/// The per-lane replay trace: seeded by lane so concurrent clients make
/// distinct (but individually deterministic) traffic.
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

fn tcp_listener() -> (Listener, Endpoint) {
    let listener = Listener::bind(&Endpoint::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
    let endpoint = listener.local_endpoint().unwrap();
    (listener, endpoint)
}

/// A TCP loopback server, one concurrent replay client per lane: the
/// device-side report equals — and renders byte-identically to — the
/// same replays driven in-process. The network must not perturb the
/// simulated schedule.
#[test]
fn loopback_replay_matches_in_process_report() {
    let pool = Arc::new(ServePool::new(lanes(), PoolConfig::default()));
    let (listener, endpoint) = tcp_listener();
    let server = {
        let pool = Arc::clone(&pool);
        let sessions = DeviceKind::ALL.len();
        std::thread::spawn(move || serve_events(&listener, &pool, sessions))
    };

    let clients: Vec<_> = (0..DeviceKind::ALL.len())
        .map(|lane| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || {
                let mut dev = RemoteDevice::open(&endpoint, lane as u32).unwrap();
                let trace = lane_trace(lane);
                let report = replay_with(&mut dev, &trace, &ReplayConfig::open_loop()).unwrap();
                assert_eq!(report.ios as usize, trace.len(), "lane {lane}");
                dev.close().unwrap();
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    let stats = server.join().unwrap().unwrap();
    assert_eq!(stats.sessions_served as usize, DeviceKind::ALL.len());
    assert_eq!(stats.resumes, 0, "no connection was killed");
    let over_the_wire = pool.report();

    // The same replays, in-process on a fresh pool (lanes are
    // independent, so sequential == concurrent).
    let baseline_pool = ServePool::new(lanes(), PoolConfig::default());
    for lane in 0..DeviceKind::ALL.len() {
        let mut dev = baseline_pool.device(lane).unwrap();
        replay_with(&mut dev, &lane_trace(lane), &ReplayConfig::open_loop()).unwrap();
    }
    let in_process = baseline_pool.report();

    assert_eq!(over_the_wire, in_process);
    assert_eq!(
        render_serve_report(&over_the_wire),
        render_serve_report(&in_process)
    );
    assert_eq!(over_the_wire.busy_ring_full, 0);
    assert_eq!(over_the_wire.shed_overload, 0);
}

/// One session, many lanes: a single `WireClient` attaches every device
/// class and interleaves their submits over one connection — the pool
/// ledger comes out identical to the same submits driven in-process,
/// lane by lane.
#[test]
fn one_session_multiplexes_every_device_lane() {
    let pool = Arc::new(ServePool::new(lanes(), PoolConfig::default()));
    let (listener, endpoint) = tcp_listener();
    let server = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || serve_events(&listener, &pool, 1))
    };

    let mut client = WireClient::connect(&endpoint).unwrap();
    let traces: Vec<Trace> = (0..DeviceKind::ALL.len()).map(lane_trace).collect();
    let wire_lanes: Vec<u32> = (0..DeviceKind::ALL.len())
        .map(|d| {
            let (lane, _, capacity, _) = client.attach(LaneTarget::Device(d as u32)).unwrap();
            assert!(capacity > 0);
            lane
        })
        .collect();
    // Round-robin across lanes, one request at a time: the whole point
    // of multiplexing is that interleaving cannot perturb any lane's
    // deterministic schedule.
    let deepest = traces.iter().map(Trace::len).max().unwrap();
    for i in 0..deepest {
        for (d, trace) in traces.iter().enumerate() {
            let Some(e) = trace.entries().get(i) else {
                continue;
            };
            let req = match e.kind {
                unwritten_contract::blockdev::IoKind::Write => {
                    IoRequest::write(e.offset, e.len, e.at)
                }
                unwritten_contract::blockdev::IoKind::Read => {
                    IoRequest::read(e.offset, e.len, e.at)
                }
            };
            match client
                .call(wire_lanes[d], Body::Submit { reqs: vec![req] })
                .unwrap()
            {
                Body::Completions { completions } => assert_eq!(completions.len(), 1),
                other => panic!("lane {d}: expected COMPLETIONS, got {other:?}"),
            }
        }
    }
    client.close().unwrap();
    let stats = server.join().unwrap().unwrap();
    assert_eq!(stats.sessions_served, 1, "all lanes rode one session");
    assert_eq!(stats.connections_accepted, 1);

    // The same submits, in-process, one pool session per device in the
    // same attach order.
    let baseline_pool = ServePool::new(lanes(), PoolConfig::default());
    for (d, trace) in traces.iter().enumerate() {
        let mut dev = baseline_pool.device(d).unwrap();
        for e in trace.entries() {
            let req = match e.kind {
                unwritten_contract::blockdev::IoKind::Write => {
                    IoRequest::write(e.offset, e.len, e.at)
                }
                unwritten_contract::blockdev::IoKind::Read => {
                    IoRequest::read(e.offset, e.len, e.at)
                }
            };
            dev.submit(&req).unwrap();
        }
    }
    assert_eq!(pool.report(), baseline_pool.report());
}

/// A client that opens a session and then stalls holds its connection —
/// but not the pool: another session's full replay completes while the
/// slow client sits silent.
#[test]
fn stalled_client_does_not_block_other_sessions() {
    let pool = Arc::new(ServePool::new(lanes(), PoolConfig::default()));
    let (listener, endpoint) = tcp_listener();
    let server = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || serve_events(&listener, &pool, 2))
    };

    // The slow client: opens lane 0, then does nothing until told.
    let (release, released) = std::sync::mpsc::channel::<()>();
    let slow = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            let dev = RemoteDevice::open(&endpoint, 0).unwrap();
            released.recv().unwrap();
            dev.close().unwrap();
        })
    };

    // The fast client replays a full trace on lane 1 while the slow one
    // is still stalled mid-session.
    let mut dev = RemoteDevice::open(&endpoint, 1).unwrap();
    let trace = lane_trace(1);
    let report = replay_with(&mut dev, &trace, &ReplayConfig::open_loop()).unwrap();
    assert_eq!(report.ios as usize, trace.len());
    let stats = dev.session_stats().unwrap();
    assert_eq!(stats.stats.ios as usize, trace.len());
    dev.close().unwrap();

    release.send(()).unwrap();
    slow.join().unwrap();
    server.join().unwrap().unwrap();
    assert_eq!(pool.report().total_ios() as usize, trace.len());
}

/// A server ring smaller than the client's doorbells: every submit is
/// refused ring-full, the client splits until batches fit, and the
/// replay still lands every I/O — backpressure converges, with the
/// device-side ledger intact.
#[test]
fn ring_full_splits_converge_and_account_every_io() {
    let config = PoolConfig {
        ring: 4,
        ..Default::default()
    };
    let pool = Arc::new(ServePool::new(lanes(), config));
    let (listener, endpoint) = tcp_listener();
    let server = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || serve_events(&listener, &pool, 1))
    };

    // Three 16-wide same-instant bursts: the open-loop replayer
    // doorbells each burst whole, which the 4-slot server ring refuses.
    let entries: Vec<TraceEntry> = (0..48)
        .map(|i| TraceEntry {
            at: SimTime::from_nanos((i / 16) * 1_000_000),
            kind: unwritten_contract::blockdev::IoKind::Write,
            offset: (i % 16) * 8192,
            len: 4096,
        })
        .collect();
    let trace = Trace::from_entries(entries);

    let mut dev = RemoteDevice::open(&endpoint, 0).unwrap();
    let report = replay_with(&mut dev, &trace, &ReplayConfig::open_loop()).unwrap();
    assert_eq!(report.ios, 48);
    assert!(
        dev.ring_full_splits() > 0,
        "a 16-wide doorbell must have been refused by the 4-slot ring"
    );
    dev.close().unwrap();
    server.join().unwrap().unwrap();

    let report = pool.report();
    assert!(report.busy_ring_full > 0);
    assert_eq!(report.total_ios(), 48);
    assert_eq!(report.total_bytes(), 48 * 4096);
}

/// `RemoteDevice` keeps its own `submit_batch` doorbell (ring-full
/// splitting over the wire); `submit_batch_into` appends what it
/// returns. Through either method a client sees the same completions
/// and splits, the server the same accounting, and a rejected batch
/// leaves the caller's queue as it was.
#[test]
fn remote_doorbells_agree_through_either_method() {
    let run = |appending: bool| {
        let config = PoolConfig {
            ring: 4,
            ..Default::default()
        };
        let pool = Arc::new(ServePool::new(lanes(), config));
        let (listener, endpoint) = tcp_listener();
        let server = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || serve_events(&listener, &pool, 1))
        };
        let mut dev = RemoteDevice::open(&endpoint, 0).unwrap();
        let mut queue = Vec::new();
        for round in 0..4u64 {
            let at = SimTime::from_nanos(round * 1_000_000);
            let batch: IoBatch = (0..1 + round * 5)
                .map(|i| IoRequest::write(i * 8192, 4096, at))
                .collect();
            if appending {
                dev.submit_batch_into(&batch, &mut queue).unwrap();
            } else {
                queue.extend(dev.submit_batch(&batch).unwrap());
            }
        }
        let entry_len = queue.len();
        let at = SimTime::from_nanos(5_000_000);
        let bad: IoBatch = [
            IoRequest::read(0, 4096, at),
            IoRequest::read(1 << 50, 4096, at),
        ]
        .into_iter()
        .collect();
        if appending {
            assert!(dev.submit_batch_into(&bad, &mut queue).is_err());
        } else {
            assert!(dev.submit_batch(&bad).is_err());
        }
        assert_eq!(queue.len(), entry_len);
        let splits = dev.ring_full_splits();
        dev.close().unwrap();
        server.join().unwrap().unwrap();
        (queue, splits, pool.report())
    };
    let returned = run(false);
    assert!(returned.1 > 0, "the 4-slot ring must have split a doorbell");
    assert_eq!(run(true), returned);
}

/// One full churn run: a single-lane replay over TCP, optionally with
/// the connection killed after `kill` data-frame writes. Returns the
/// pool report, its rendering, the data frames the client wrote, and
/// the resumes it performed.
fn churn_run(kill: Option<u64>) -> (ServeReport, String, u64, u64) {
    let lane: Vec<(String, Box<dyn BlockDevice + Send>)> = vec![(
        "lane0-churn".to_string(),
        DeviceRoster::scaled_default().build(DeviceKind::LocalSsd),
    )];
    let pool = Arc::new(ServePool::new(lane, PoolConfig::default()));
    let (listener, endpoint) = tcp_listener();
    let server = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || serve_events(&listener, &pool, 1))
    };
    let mut dev = RemoteDevice::open(&endpoint, 0).unwrap();
    if let Some(frames) = kill {
        dev.set_kill_after(frames);
    }
    let trace = lane_trace(0);
    let report = replay_with(&mut dev, &trace, &ReplayConfig::open_loop()).unwrap();
    assert_eq!(report.ios as usize, trace.len());
    let frames = dev.frames_sent();
    let resumes = dev.resumes();
    dev.close().unwrap();
    server.join().unwrap().unwrap();
    let report = pool.report();
    let rendered = render_serve_report(&report);
    (report, rendered, frames, resumes)
}

/// The uninterrupted run every killed run is compared against, measured
/// once (also yields the frame count the kill points are drawn from).
fn churn_baseline() -> &'static (ServeReport, String, u64) {
    static BASELINE: OnceLock<(ServeReport, String, u64)> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let (report, rendered, frames, resumes) = churn_run(None);
        assert_eq!(resumes, 0);
        assert!(frames > 2, "the replay must span several frames");
        (report, rendered, frames)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The tentpole's determinism bar: kill the TCP connection after a
    // *random* number of frames — anywhere from the first attach to the
    // last submit — and the reconnect-and-RESUME replay must land a
    // pool report byte-identical to the uninterrupted run. (Killing on
    // the CLOSE frame is out of contract: a closed session is gone
    // server-side, by design.)
    #[test]
    fn a_killed_connection_resumes_to_a_byte_identical_report(kill_seed in any::<u64>()) {
        let (base_report, base_rendered, frames) = churn_baseline();
        // The kill counter arms *after* the attach, so `frames - 1` is
        // the last write that still belongs to the replay: every kill
        // point here severs the connection with submits outstanding.
        let kill = 1 + kill_seed % (frames - 1);
        let (report, rendered, _, resumes) = churn_run(Some(kill));
        prop_assert!(resumes >= 1, "the kill at frame {} must force a resume", kill);
        prop_assert_eq!(&report, base_report, "kill at frame {}", kill);
        prop_assert_eq!(&rendered, base_rendered, "kill at frame {}", kill);
    }
}

/// Overload shedding is typed and recoverable: with a one-batch
/// in-flight ceiling, a client that submits a huge batch and never
/// reads its completions parks the pool's only slot (the response
/// cannot drain into the dead socket buffer) — a second client's
/// submits are then refused with `BUSY(overload)`, and succeed again
/// once the stalled client finally drains.
#[test]
fn overload_shed_is_typed_and_the_pool_recovers() {
    const STALL_REQS: u64 = 32 * 1024;
    let sock = std::env::temp_dir().join(format!("uc-serve-overload-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    // A Unix socket's default buffers are far smaller than the ~1 MiB
    // completions response, so the stall is deterministic.
    let endpoint = Endpoint::parse(&format!("uds:{}", sock.display())).unwrap();
    let config = PoolConfig {
        ring: STALL_REQS as usize,
        max_inflight: 1,
        ..Default::default()
    };
    let pool = Arc::new(ServePool::new(lanes(), config));
    let listener = Listener::bind(&endpoint).unwrap();
    let server = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || serve_events(&listener, &pool, 2))
    };

    // The stalling client, hand-framed so it can *not* read: open,
    // attach, submit the huge batch, then leave the response parked.
    let mut stall_rx = endpoint.connect().unwrap();
    let mut stall_tx = stall_rx.try_clone_stream().unwrap();
    Frame::new(
        FrameHeader::connection(),
        Body::Open {
            version: WIRE_VERSION,
        },
    )
    .write_to(&mut stall_tx)
    .unwrap();
    let token = match Frame::read_from(&mut stall_rx).unwrap().unwrap().body {
        Body::OpenOk { token } => token,
        other => panic!("expected OPEN_OK, got {other:?}"),
    };
    let header = |lane: u32, seq: u64| FrameHeader {
        session: token,
        lane,
        seq,
    };
    Frame::new(
        header(0, 1),
        Body::Attach {
            target: LaneTarget::Device(0),
        },
    )
    .write_to(&mut stall_tx)
    .unwrap();
    let lane = match Frame::read_from(&mut stall_rx).unwrap().unwrap().body {
        Body::AttachOk { lane, .. } => lane,
        other => panic!("expected ATTACH_OK, got {other:?}"),
    };
    let reqs: Vec<IoRequest> = (0..STALL_REQS)
        .map(|i| IoRequest::write((i % 4096) * 4096, 4096, SimTime::from_nanos(i)))
        .collect();
    Frame::new(header(lane, 1), Body::Submit { reqs })
        .write_to(&mut stall_tx)
        .unwrap();

    // The probing client: poke with single-request submits until the
    // parked batch trips the in-flight ceiling.
    let mut probe = WireClient::connect(&endpoint).unwrap();
    let (probe_lane, ..) = probe.attach(LaneTarget::Device(0)).unwrap();
    let mut shed = false;
    for i in 0..500u64 {
        let req = IoRequest::write(0, 4096, SimTime::from_nanos(STALL_REQS + i));
        match probe
            .call(probe_lane, Body::Submit { reqs: vec![req] })
            .unwrap()
        {
            Body::Busy {
                reason: BusyReason::Overload,
            } => {
                shed = true;
                break;
            }
            Body::Completions { .. } => std::thread::sleep(std::time::Duration::from_millis(2)),
            other => panic!("expected COMPLETIONS or BUSY, got {other:?}"),
        }
    }
    assert!(shed, "the parked batch must trip the in-flight ceiling");

    // The stalled client drains its completions: the slot frees and the
    // probe's submits succeed again.
    match Frame::read_from(&mut stall_rx).unwrap().unwrap().body {
        Body::Completions { completions } => assert_eq!(completions.len() as u64, STALL_REQS),
        other => panic!("expected the parked COMPLETIONS, got {other:?}"),
    }
    let mut recovered = false;
    for i in 0..500u64 {
        let req = IoRequest::write(0, 4096, SimTime::from_nanos(2 * STALL_REQS + i));
        match probe
            .call(probe_lane, Body::Submit { reqs: vec![req] })
            .unwrap()
        {
            Body::Completions { .. } => {
                recovered = true;
                break;
            }
            Body::Busy { .. } => std::thread::sleep(std::time::Duration::from_millis(2)),
            other => panic!("expected COMPLETIONS or BUSY, got {other:?}"),
        }
    }
    assert!(recovered, "draining the stalled client must free the slot");

    probe.close().unwrap();
    Frame::new(header(0, 2), Body::Close)
        .write_to(&mut stall_tx)
        .unwrap();
    match Frame::read_from(&mut stall_rx).unwrap().unwrap().body {
        Body::CloseOk => {}
        other => panic!("expected CLOSE_OK, got {other:?}"),
    }
    server.join().unwrap().unwrap();
    assert!(pool.report().shed_overload >= 1);
    let _ = std::fs::remove_file(&sock);
}

/// Fleet tenants served as wire lanes: three multi-lane clients feed a
/// fed fleet over loopback — one of them killed and resumed mid-epoch —
/// and the server-side fleet report equals the same fleet generated and
/// run in-process.
#[test]
fn fleet_lanes_over_the_wire_match_the_in_process_fleet() {
    const TENANTS: usize = 6;
    const CLIENTS: usize = 3;
    const EPOCHS: usize = 2;
    let fleet_config = || {
        FleetConfig::new(TENANTS, 2)
            .with_duration(SimDuration::from_millis(20))
            .with_epochs(EPOCHS)
            .with_rebalance(RebalancePolicy::default())
    };
    let fleet_pool = || -> Vec<FleetDevice> {
        (0..2)
            .map(|i| {
                let config = EssdConfig::alibaba_pl3(64 << 20)
                    .with_name(format!("fleet-essd-{i}"))
                    .with_seed(7 ^ i as u64);
                Box::new(Essd::new(config)) as FleetDevice
            })
            .collect()
    };

    let in_process = FleetSim::new(fleet_config(), fleet_pool())
        .run()
        .expect("in-process fleet runs");

    let pool = Arc::new(ServePool::new_fleet(
        FleetSim::new_fed(fleet_config(), fleet_pool()),
        PoolConfig::default(),
    ));
    let (listener, endpoint) = tcp_listener();
    let server = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || serve_events(&listener, &pool, CLIENTS))
    };

    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let endpoint = endpoint.clone();
            let config = fleet_config();
            std::thread::spawn(move || {
                let mut client = WireClient::connect(&endpoint).unwrap();
                if i == 1 {
                    // One client loses its connection mid-stream; the
                    // resumed replay must not perturb the fleet.
                    client.set_kill_after(3);
                }
                let mut wire_lanes = Vec::new();
                for t in (i..TENANTS).step_by(CLIENTS) {
                    let (lane, _, span, io_size) =
                        client.attach(LaneTarget::Tenant(t as u32)).unwrap();
                    // The client synthesizes the tenant's trace from the
                    // advertised geometry — same spec the fleet would
                    // generate itself.
                    let spec = TenantSpec::synthesize(
                        t as u32,
                        &config.mix,
                        config.seed,
                        span,
                        config.duration,
                        io_size,
                    );
                    let trace = spec.trace.generate();
                    for chunk in trace.entries().chunks(512) {
                        let reqs: Vec<IoRequest> = chunk
                            .iter()
                            .map(|e| match e.kind {
                                unwritten_contract::blockdev::IoKind::Write => {
                                    IoRequest::write(e.offset, e.len, e.at)
                                }
                                unwritten_contract::blockdev::IoKind::Read => {
                                    IoRequest::read(e.offset, e.len, e.at)
                                }
                            })
                            .collect();
                        match client.call(lane, Body::Submit { reqs }).unwrap() {
                            Body::PushOk { .. } => {}
                            other => panic!("tenant {t}: expected PUSH_OK, got {other:?}"),
                        }
                    }
                    wire_lanes.push(lane);
                }
                for epoch in 0..EPOCHS as u64 {
                    client.flush_epoch(&wire_lanes, epoch).unwrap();
                }
                let resumes = client.resumes();
                client.close().unwrap();
                resumes
            })
        })
        .collect();
    let resumes: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
    let stats = server.join().unwrap().unwrap();
    assert!(resumes >= 1, "the killed client must have resumed");
    assert!(stats.resumes >= 1);
    assert_eq!(stats.sessions_served as usize, CLIENTS);

    assert_eq!(pool.fleet_report().unwrap(), in_process);
}
