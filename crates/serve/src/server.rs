//! The serving event loop: one thread, hundreds of connections.
//!
//! PR 8's server spent one thread per connection; this one is a single
//! readiness-driven loop over a [`Poller`]: non-blocking sockets, a
//! per-connection state machine for partial frame reads and writes, and
//! a session table that outlives connections. A connection is just a
//! *carrier* for a session — when it drops, the session parks (its
//! per-lane response caches intact), and a `RESUME` on a fresh
//! connection replays exactly the responses the client never
//! acknowledged.
//!
//! Admission guards behave exactly as in the threaded design: an
//! admitted batch's [`InflightGuard`] is parked in the connection
//! until the response bytes fully drain to the socket, so a stalled
//! reader still occupies its in-flight slot and the overload ceiling
//! sees it.
//!
//! Sequence discipline per lane (`next_seq` starts at 1):
//!
//! * `seq == next_seq` — new request: process, cache the encoded
//!   response under `seq`, advance;
//! * `seq == next_seq - 1` with the cache holding `seq` — duplicate of
//!   an unacknowledged request (a resume raced the response): resend
//!   the cached bytes, byte-identical;
//! * `seq` equal to an unanswered flush's seq — duplicate of a flush
//!   still parked on the epoch barrier: ignored; the barrier answers it
//!   once;
//! * anything else — protocol error; the connection closes (the session
//!   parks and may resume).

use crate::net::{Listener, Stream};
use crate::poll::Poller;
use crate::pool::{FleetError, FlushOutcome, InflightGuard, Rejection, ServePool};
use crate::wire::{
    is_v1_kind, recycle, Body, ErrCode, Frame, FrameHeader, LaneAck, LaneTarget, WireStats,
    CONTROL_LANE, KEPT_CAPACITY, WIRE_VERSION,
};
use std::io::{self, Read, Write};
use std::sync::Arc;
use uc_blockdev::{Completion, IoRequest};
use uc_persist::{decode_record, peek_record_len, DecodeError};
use uc_workload::TraceEntry;

/// The event loop's own counters, returned when it exits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventLoopStats {
    /// Connections accepted over the loop's lifetime.
    pub connections_accepted: u64,
    /// The most connections alive at once — the "one thread, N
    /// connections" claim, measured.
    pub peak_connections: usize,
    /// Sessions that reached an orderly `CLOSE`.
    pub sessions_served: u64,
    /// Successful `RESUME` handshakes.
    pub resumes: u64,
    /// Poller wait calls (loop iterations).
    pub polls: u64,
    /// Readiness events dispatched to connections or the listener.
    pub dispatches: u64,
    /// Complete frames decoded and handled.
    pub frames: u64,
    /// Reads that found a socket dry (`WouldBlock`). A short read ends a
    /// readiness event without this extra read, so this counts only
    /// wakeups whose bytes another read had already taken.
    pub read_stalls: u64,
    /// Writes parked on a full socket buffer (`WouldBlock`) — slow
    /// readers holding their admission slots.
    pub write_stalls: u64,
    /// Cached responses re-sent byte-identically: duplicate-seq resends
    /// plus resume replay-list entries.
    pub replays: u64,
}

impl EventLoopStats {
    /// Appends this loop's counters to `snapshot` as `serve.loop.*`
    /// rows — the shape the metrics frame and the bench JSON share.
    pub fn append_to(&self, snapshot: &mut uc_obs::ObsSnapshot) {
        use uc_obs::MetricValue;
        for (name, v) in [
            ("serve.loop.connections_accepted", self.connections_accepted),
            ("serve.loop.peak_connections", self.peak_connections as u64),
            ("serve.loop.sessions_served", self.sessions_served),
            ("serve.loop.resumes", self.resumes),
            ("serve.loop.polls", self.polls),
            ("serve.loop.dispatches", self.dispatches),
            ("serve.loop.frames", self.frames),
            ("serve.loop.read_stalls", self.read_stalls),
            ("serve.loop.write_stalls", self.write_stalls),
            ("serve.loop.replays", self.replays),
        ] {
            snapshot.push(name.to_string(), MetricValue::Counter(v));
        }
    }
}

const LISTENER_TOKEN: u64 = u64::MAX;
/// Per-readiness read budget: polling is level-triggered, so capping one
/// connection's drain keeps the loop fair under floods without losing
/// the wakeup.
const READ_BUDGET: usize = 256 << 10;
/// The read window a connection starts with; a read that fills it
/// doubles it, and it shrinks back to [`KEPT_CAPACITY`] once drained.
const READ_WINDOW: usize = 16 << 10;

enum LaneBackend {
    Control,
    Device(crate::pool::PoolSession),
    Tenant(u32),
}

/// Copyable shape of a lane's backend, so dispatch does not hold a
/// borrow of the session table across handler calls.
#[derive(Clone, Copy)]
enum BackendKind {
    Control,
    Device,
    Tenant(u32),
}

struct LaneSrv {
    backend: LaneBackend,
    next_seq: u64,
    cached: Cached,
    /// A flush parked on the epoch barrier: `(seq, epoch)`.
    pending_flush: Option<(u64, u64)>,
}

impl LaneSrv {
    fn new(backend: LaneBackend) -> Self {
        LaneSrv {
            backend,
            next_seq: 1,
            cached: Cached::default(),
            pending_flush: None,
        }
    }
}

/// The encoded bytes of a lane's last response (possibly several
/// frames, e.g. `LANE_MOVED` + `FLUSH_OK`), keyed by the request seq
/// they answer — the resume replay source. Each response re-encodes the
/// one buffer in place.
#[derive(Default)]
struct Cached {
    seq: Option<u64>,
    bytes: Vec<u8>,
}

impl Cached {
    /// Replaces the cache with what `encode` appends, answering `seq`.
    fn refill(&mut self, seq: u64, encode: impl FnOnce(&mut Vec<u8>)) {
        recycle(&mut self.bytes);
        encode(&mut self.bytes);
        self.seq = Some(seq);
    }
}

struct SessionSrv {
    token: u64,
    lanes: Vec<LaneSrv>,
    /// The connection currently carrying the session; `None` = parked.
    conn: Option<usize>,
    closed: bool,
}

/// One connection's state machine. It owns its read window and write
/// buffer for its whole life; neither is reallocated per frame.
struct Conn {
    stream: Box<dyn Stream>,
    /// The read window: `rbuf[..rlen]` arrived and is not yet framed,
    /// the rest is room for the next read.
    rbuf: Vec<u8>,
    rlen: usize,
    /// Encoded responses; `wbuf[..wpos]` already reached the kernel.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Admission slots held until `wbuf` fully drains.
    guards: Vec<InflightGuard>,
    session: Option<usize>,
    /// Close the connection once `wbuf` drains.
    closing: bool,
    write_interest: bool,
}

enum SeqCheck {
    Ignore,
    Resend,
    OutOfOrder,
    New,
}

struct EventLoop {
    pool: Arc<ServePool>,
    poller: Poller,
    conns: Vec<Option<Conn>>,
    sessions: Vec<SessionSrv>,
    stats: EventLoopStats,
    closed_sessions: usize,
    live_conns: usize,
    /// The completion queue every device-lane doorbell appends to.
    completions: Vec<Completion>,
}

/// Serves connections on `listener` until `sessions` wire sessions have
/// closed in an orderly way, driving every connection from this one
/// thread. Connection churn does not count against the target: a killed
/// connection parks its session, and the session's eventual `CLOSE`
/// (over any later connection) is what counts.
///
/// # Errors
///
/// Propagates fatal listener/poller errors. Per-connection I/O errors
/// only drop that connection.
pub fn serve_events(
    listener: &Listener,
    pool: &Arc<ServePool>,
    sessions: usize,
) -> io::Result<EventLoopStats> {
    let mut lp = EventLoop::new(listener, pool)?;
    let mut events = Vec::new();
    while lp.closed_sessions < sessions || lp.has_undelivered_bytes() {
        lp.turn(listener, &mut events)?;
    }
    Ok(lp.stats)
}

impl EventLoop {
    fn new(listener: &Listener, pool: &Arc<ServePool>) -> io::Result<EventLoop> {
        listener.set_nonblocking(true)?;
        let lp = EventLoop {
            pool: Arc::clone(pool),
            poller: Poller::new()?,
            conns: Vec::new(),
            sessions: Vec::new(),
            stats: EventLoopStats::default(),
            closed_sessions: 0,
            live_conns: 0,
            completions: Vec::new(),
        };
        lp.poller.add(listener.raw_fd(), LISTENER_TOKEN, false)?;
        Ok(lp)
    }

    /// One loop iteration: wait for readiness, dispatch it, flush writes.
    fn turn(
        &mut self,
        listener: &Listener,
        events: &mut Vec<crate::poll::Event>,
    ) -> io::Result<()> {
        self.poller.wait(events, 1000)?;
        self.stats.polls += 1;
        self.stats.dispatches += events.len() as u64;
        for ev in events.iter() {
            if ev.token == LISTENER_TOKEN {
                self.accept_ready(listener);
            } else if ev.readable {
                self.read_ready(ev.token as usize);
            }
        }
        self.flush_writes();
        Ok(())
    }

    fn has_undelivered_bytes(&self) -> bool {
        self.conns.iter().flatten().any(|c| c.wpos < c.wbuf.len())
    }

    fn accept_ready(&mut self, listener: &Listener) {
        loop {
            match listener.accept() {
                Ok(stream) => {
                    if stream.set_nonblocking_stream(true).is_err() {
                        continue;
                    }
                    let slot = self
                        .conns
                        .iter()
                        .position(Option::is_none)
                        .unwrap_or_else(|| {
                            self.conns.push(None);
                            self.conns.len() - 1
                        });
                    if self
                        .poller
                        .add(stream.raw_fd(), slot as u64, false)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns[slot] = Some(Conn {
                        stream,
                        rbuf: Vec::new(),
                        rlen: 0,
                        wbuf: Vec::new(),
                        wpos: 0,
                        guards: Vec::new(),
                        session: None,
                        closing: false,
                        write_interest: false,
                    });
                    self.live_conns += 1;
                    self.stats.connections_accepted += 1;
                    self.stats.peak_connections = self.stats.peak_connections.max(self.live_conns);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn read_ready(&mut self, ci: usize) {
        let Some(conn) = self.conns.get_mut(ci).and_then(Option::as_mut) else {
            return;
        };
        let mut total = 0;
        let dead = loop {
            if conn.rlen == conn.rbuf.len() {
                let grown = (conn.rbuf.len() * 2).max(READ_WINDOW);
                conn.rbuf.resize(grown, 0);
            }
            let room = conn.rbuf.len() - conn.rlen;
            match conn.stream.read(&mut conn.rbuf[conn.rlen..]) {
                Ok(0) => break true,
                Ok(n) => {
                    conn.rlen += n;
                    total += n;
                    // A short read took everything the socket held.
                    // Polling is level-triggered, so bytes that arrive
                    // later, and EOF, are reported again: no second read
                    // just to see `WouldBlock`.
                    if n < room || total >= READ_BUDGET {
                        break false;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.stats.read_stalls += 1;
                    break false;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break true,
            }
        };
        if dead {
            self.disconnect(ci);
            return;
        }
        self.process_frames(ci);
    }

    fn process_frames(&mut self, ci: usize) {
        let mut pos = 0;
        loop {
            let decoded = {
                let Some(conn) = self.conns.get_mut(ci).and_then(Option::as_mut) else {
                    return;
                };
                if conn.closing {
                    break;
                }
                match peek_record_len(&conn.rbuf[pos..conn.rlen]) {
                    Ok(None) => break,
                    Ok(Some(len)) => {
                        let record = &conn.rbuf[pos..pos + len];
                        pos += len;
                        decode_record(record)
                            .and_then(|(kind, payload)| Frame::from_parts(kind, payload))
                    }
                    Err(e) => Err(e),
                }
            };
            match decoded {
                Ok(frame) => {
                    self.stats.frames += 1;
                    self.handle_frame(ci, frame);
                }
                Err(DecodeError::UnknownKind { found }) if is_v1_kind(&found) => {
                    // Version negotiation: a v1 client is recognized by
                    // its kind tags and refused with a typed reject, not
                    // a generic decode failure.
                    self.send_err_close(
                        ci,
                        ErrCode::UnsupportedVersion {
                            found: 1,
                            supported: WIRE_VERSION,
                        },
                        "this server speaks uc.wire.v2; re-open with a v2 client",
                    );
                }
                Err(e) => {
                    self.send_err_close(ci, ErrCode::Protocol, &format!("bad frame: {e}"));
                }
            }
        }
        if let Some(conn) = self.conns.get_mut(ci).and_then(Option::as_mut) {
            conn.rbuf.copy_within(pos..conn.rlen, 0);
            conn.rlen -= pos;
            if conn.rbuf.len() > KEPT_CAPACITY && conn.rlen <= KEPT_CAPACITY {
                conn.rbuf.truncate(KEPT_CAPACITY);
                conn.rbuf.shrink_to_fit();
            }
        }
    }

    fn handle_frame(&mut self, ci: usize, frame: Frame) {
        let session_idx = self
            .conns
            .get(ci)
            .and_then(|c| c.as_ref())
            .and_then(|c| c.session);
        match session_idx {
            None => match frame.body {
                Body::Open { version } => {
                    if version != WIRE_VERSION {
                        self.send_err_close(
                            ci,
                            ErrCode::UnsupportedVersion {
                                found: version,
                                supported: WIRE_VERSION,
                            },
                            "unsupported protocol version",
                        );
                        return;
                    }
                    let token = self.sessions.len() as u64 + 1;
                    self.sessions.push(SessionSrv {
                        token,
                        lanes: vec![LaneSrv::new(LaneBackend::Control)],
                        conn: Some(ci),
                        closed: false,
                    });
                    let si = self.sessions.len() - 1;
                    if let Some(conn) = self.conns[ci].as_mut() {
                        conn.session = Some(si);
                    }
                    self.queue_frame(
                        ci,
                        &Frame::new(
                            FrameHeader {
                                session: token,
                                lane: CONTROL_LANE,
                                seq: 0,
                            },
                            Body::OpenOk { token },
                        ),
                    );
                }
                Body::Resume { acks } => self.handle_resume(ci, frame.header.session, &acks),
                _ => self.send_err_close(ci, ErrCode::Protocol, "expected OPEN or RESUME"),
            },
            Some(si) => self.handle_session_frame(ci, si, frame),
        }
    }

    fn handle_resume(&mut self, ci: usize, token: u64, acks: &[LaneAck]) {
        let Some(si) = self
            .sessions
            .iter()
            .position(|s| s.token == token && !s.closed)
        else {
            self.send_err_close(ci, ErrCode::UnknownSession, "no such session token");
            return;
        };
        // A resume while the old carrier is still registered evicts it:
        // the client owns the session, not the socket.
        if let Some(old) = self.sessions[si].conn.take() {
            if old != ci {
                self.disconnect(old);
            }
        }
        // Session-resume sanity: every device lane must still name a
        // live session on its pool lane.
        let valid = self.sessions[si].lanes.iter().all(|l| match &l.backend {
            LaneBackend::Device(psess) => self.pool.validate_session(psess),
            _ => true,
        });
        if !valid {
            self.send_err_close(ci, ErrCode::Protocol, "stale pool session on resume");
            return;
        }
        self.sessions[si].conn = Some(ci);
        if let Some(conn) = self.conns[ci].as_mut() {
            conn.session = Some(si);
        }
        self.stats.resumes += 1;
        let acked = |lane: u32| acks.iter().find(|a| a.lane == lane).map_or(0, |a| a.seq);
        let replay: Vec<LaneAck> = self.sessions[si]
            .lanes
            .iter()
            .enumerate()
            .filter_map(|(li, l)| {
                let seq = l.cached.seq.filter(|&cs| cs > acked(li as u32))?;
                Some(LaneAck {
                    lane: li as u32,
                    seq,
                })
            })
            .collect();
        let lanes = (self.sessions[si].lanes.len() - 1) as u32;
        self.queue_frame(
            ci,
            &Frame::new(
                FrameHeader {
                    session: token,
                    lane: CONTROL_LANE,
                    seq: 0,
                },
                Body::ResumeOk {
                    lanes,
                    replay: replay.clone(),
                },
            ),
        );
        for ack in replay {
            self.stats.replays += 1;
            self.queue_cached(ci, si, ack.lane as usize);
        }
    }

    fn handle_session_frame(&mut self, ci: usize, si: usize, frame: Frame) {
        let token = self.sessions[si].token;
        if frame.header.session != token {
            self.send_err_close(ci, ErrCode::Protocol, "frame for a foreign session");
            return;
        }
        let lane = frame.header.lane as usize;
        let seq = frame.header.seq;
        if lane >= self.sessions[si].lanes.len() {
            self.queue_frame(
                ci,
                &Frame::new(
                    frame.header,
                    Body::Err {
                        code: ErrCode::UnknownLane,
                        io: None,
                        message: format!("lane {lane} never attached"),
                    },
                ),
            );
            return;
        }
        let check = {
            let l = &mut self.sessions[si].lanes[lane];
            if l.pending_flush.is_some_and(|(ps, _)| ps == seq) {
                SeqCheck::Ignore
            } else if seq == l.next_seq - 1 {
                if l.cached.seq == Some(seq) {
                    SeqCheck::Resend
                } else {
                    SeqCheck::Ignore
                }
            } else if seq != l.next_seq {
                SeqCheck::OutOfOrder
            } else {
                l.next_seq += 1;
                SeqCheck::New
            }
        };
        match check {
            SeqCheck::Ignore => return,
            SeqCheck::Resend => {
                self.stats.replays += 1;
                self.queue_cached(ci, si, lane);
                return;
            }
            SeqCheck::OutOfOrder => {
                self.send_err_close(ci, ErrCode::Protocol, "lane sequence out of order");
                return;
            }
            SeqCheck::New => {}
        }
        let header = FrameHeader {
            session: token,
            lane: lane as u32,
            seq,
        };
        let backend = match &self.sessions[si].lanes[lane].backend {
            LaneBackend::Control => BackendKind::Control,
            LaneBackend::Device(_) => BackendKind::Device,
            LaneBackend::Tenant(t) => BackendKind::Tenant(*t),
        };
        match (backend, frame.body) {
            (BackendKind::Control, Body::Attach { target }) => {
                self.handle_attach(ci, si, header, target);
            }
            (BackendKind::Control, Body::Metrics) => {
                // Live pull: the pool's full snapshot plus this loop's own
                // counters, all integer-valued.
                let mut snapshot = self.pool.obs_snapshot();
                self.stats.append_to(&mut snapshot);
                self.respond_cached(
                    ci,
                    si,
                    lane,
                    seq,
                    &Frame::new(header, Body::MetricsOk { snapshot }),
                );
            }
            (BackendKind::Control, Body::Close) => {
                if !self.sessions[si].closed {
                    self.sessions[si].closed = true;
                    self.closed_sessions += 1;
                    self.stats.sessions_served += 1;
                }
                self.respond_cached(ci, si, lane, seq, &Frame::new(header, Body::CloseOk));
                if let Some(conn) = self.conns[ci].as_mut() {
                    conn.closing = true;
                }
            }
            (BackendKind::Device, Body::Submit { reqs }) => {
                self.handle_device_submit(ci, si, lane, header, &reqs);
            }
            (BackendKind::Device, Body::Stats) => {
                let (stats, queue_head) = {
                    let LaneBackend::Device(psess) = &self.sessions[si].lanes[lane].backend else {
                        unreachable!("backend kind matched Device");
                    };
                    self.pool.stats(psess)
                };
                self.respond_cached(
                    ci,
                    si,
                    lane,
                    seq,
                    &Frame::new(
                        header,
                        Body::StatsOk {
                            stats: WireStats { stats, queue_head },
                        },
                    ),
                );
            }
            (BackendKind::Tenant(t), Body::Submit { reqs }) => {
                let entries: Vec<TraceEntry> = reqs
                    .iter()
                    .map(|r| TraceEntry {
                        at: r.submit_time,
                        kind: r.kind,
                        offset: r.offset,
                        len: r.len,
                    })
                    .collect();
                let resp = match self.pool.tenant_push(t, &entries) {
                    Ok(accepted) => Frame::new(header, Body::PushOk { accepted }),
                    Err(e) => Frame::new(
                        header,
                        Body::Err {
                            code: ErrCode::Protocol,
                            io: None,
                            message: format!("push refused: {e}"),
                        },
                    ),
                };
                self.respond_cached(ci, si, lane, seq, &resp);
            }
            (BackendKind::Tenant(t), Body::Flush { epoch }) => {
                self.handle_tenant_flush(ci, si, lane, seq, t, epoch);
            }
            _ => self.send_err_close(ci, ErrCode::Protocol, "frame not valid on this lane"),
        }
    }

    fn handle_attach(&mut self, ci: usize, si: usize, header: FrameHeader, target: LaneTarget) {
        let attached = match target {
            LaneTarget::Device(i) => match self.pool.open(i as usize) {
                Some((psess, info)) => Ok((
                    LaneBackend::Device(psess),
                    info.name().to_string(),
                    info.capacity(),
                    info.logical_block(),
                )),
                None => Err(format!(
                    "device index {i} out of range ({} lanes)",
                    self.pool.devices()
                )),
            },
            LaneTarget::Tenant(t) => match self.pool.attach_tenant(t) {
                Ok((name, span, io_size)) => Ok((LaneBackend::Tenant(t), name, span, io_size)),
                Err(e) => Err(format!("tenant attach refused: {e}")),
            },
        };
        let resp = match attached {
            Ok((backend, name, capacity, logical_block)) => {
                self.sessions[si].lanes.push(LaneSrv::new(backend));
                let lane = (self.sessions[si].lanes.len() - 1) as u32;
                Frame::new(
                    header,
                    Body::AttachOk {
                        lane,
                        name,
                        capacity,
                        logical_block,
                    },
                )
            }
            Err(message) => Frame::new(
                header,
                Body::Err {
                    code: ErrCode::Protocol,
                    io: None,
                    message,
                },
            ),
        };
        self.respond_cached(ci, si, CONTROL_LANE as usize, header.seq, &resp);
    }

    fn handle_device_submit(
        &mut self,
        ci: usize,
        si: usize,
        lane: usize,
        header: FrameHeader,
        reqs: &[IoRequest],
    ) {
        let result = {
            let LaneBackend::Device(psess) = &mut self.sessions[si].lanes[lane].backend else {
                unreachable!("backend kind matched Device");
            };
            self.completions.clear();
            self.pool.submit(psess, reqs, &mut self.completions)
        };
        let body = match result {
            Ok(guard) => {
                if let Some(conn) = self.conns[ci].as_mut() {
                    conn.guards.push(guard);
                }
                Body::Completions {
                    completions: std::mem::take(&mut self.completions),
                }
            }
            Err(Rejection::Busy(reason)) => Body::Busy { reason },
            Err(Rejection::Io(e)) => Body::Err {
                code: ErrCode::Io,
                io: Some(e),
                message: format!("device rejected request: {e}"),
            },
        };
        let resp = Frame::new(header, body);
        self.respond_cached(ci, si, lane, header.seq, &resp);
        // The queue goes back to the loop for the next doorbell.
        if let Body::Completions { completions } = resp.body {
            self.completions = completions;
        }
    }

    fn handle_tenant_flush(
        &mut self,
        ci: usize,
        si: usize,
        lane: usize,
        seq: u64,
        tenant: u32,
        epoch: u64,
    ) {
        // Park the flush first so the barrier fan-out below answers this
        // lane uniformly with every other waiter.
        self.sessions[si].lanes[lane].pending_flush = Some((seq, epoch));
        let header = FrameHeader {
            session: self.sessions[si].token,
            lane: lane as u32,
            seq,
        };
        match self.pool.tenant_flush(tenant, epoch) {
            Ok(FlushOutcome::Waiting) => {}
            Ok(FlushOutcome::EpochComplete { epoch, moves }) => {
                // The epoch ran: answer every lane (across every session)
                // parked on it, in deterministic session-then-lane order.
                // Moved tenants get a typed LANE_MOVED ahead of their
                // FLUSH_OK, same lane and seq, cached as one replay unit.
                for si2 in 0..self.sessions.len() {
                    let token2 = self.sessions[si2].token;
                    let conn2 = self.sessions[si2].conn;
                    for li2 in 0..self.sessions[si2].lanes.len() {
                        let Some((pseq, pepoch)) = self.sessions[si2].lanes[li2].pending_flush
                        else {
                            continue;
                        };
                        if pepoch != epoch {
                            continue;
                        }
                        let header2 = FrameHeader {
                            session: token2,
                            lane: li2 as u32,
                            seq: pseq,
                        };
                        let moved = match &self.sessions[si2].lanes[li2].backend {
                            LaneBackend::Tenant(t2) => moves.iter().find(|m| m.tenant == *t2),
                            _ => None,
                        };
                        let l = &mut self.sessions[si2].lanes[li2];
                        l.pending_flush = None;
                        l.cached.refill(pseq, |bytes| {
                            if let Some(mv) = moved {
                                let to_device = mv.to_device;
                                Frame::new(header2, Body::LaneMoved { to_device })
                                    .encode_into(bytes);
                            }
                            Frame::new(header2, Body::FlushOk { epoch }).encode_into(bytes);
                        });
                        if let Some(c2) = conn2 {
                            self.queue_cached(c2, si2, li2);
                        }
                    }
                }
            }
            Err(FleetError::Io(e)) => {
                self.sessions[si].lanes[lane].pending_flush = None;
                self.respond_cached(
                    ci,
                    si,
                    lane,
                    seq,
                    &Frame::new(
                        header,
                        Body::Err {
                            code: ErrCode::Io,
                            io: Some(e),
                            message: "epoch run failed".to_string(),
                        },
                    ),
                );
            }
            Err(e) => {
                // Lane-scoped refusal (epoch mismatch etc.): the session
                // stays up.
                self.sessions[si].lanes[lane].pending_flush = None;
                self.respond_cached(
                    ci,
                    si,
                    lane,
                    seq,
                    &Frame::new(
                        header,
                        Body::Err {
                            code: ErrCode::Protocol,
                            io: None,
                            message: format!("flush refused: {e}"),
                        },
                    ),
                );
            }
        }
    }

    /// Re-encodes the lane's resume cache as `resp` and queues it to `ci`.
    fn respond_cached(&mut self, ci: usize, si: usize, lane: usize, seq: u64, resp: &Frame) {
        self.sessions[si].lanes[lane]
            .cached
            .refill(seq, |bytes| resp.encode_into(bytes));
        self.queue_cached(ci, si, lane);
    }

    /// Copies the lane's cached response bytes into `ci`'s write buffer.
    fn queue_cached(&mut self, ci: usize, si: usize, lane: usize) {
        if let Some(conn) = self.conns.get_mut(ci).and_then(Option::as_mut) {
            conn.wbuf
                .extend_from_slice(&self.sessions[si].lanes[lane].cached.bytes);
        }
    }

    fn queue_frame(&mut self, ci: usize, frame: &Frame) {
        if let Some(conn) = self.conns.get_mut(ci).and_then(Option::as_mut) {
            frame.encode_into(&mut conn.wbuf);
        }
    }

    /// Best-effort typed reject, then close once it drains.
    fn send_err_close(&mut self, ci: usize, code: ErrCode, message: &str) {
        let session = self
            .conns
            .get(ci)
            .and_then(|c| c.as_ref())
            .and_then(|c| c.session)
            .map_or(0, |si| self.sessions[si].token);
        self.queue_frame(
            ci,
            &Frame::new(
                FrameHeader {
                    session,
                    lane: CONTROL_LANE,
                    seq: 0,
                },
                Body::Err {
                    code,
                    io: None,
                    message: message.to_string(),
                },
            ),
        );
        if let Some(conn) = self.conns.get_mut(ci).and_then(Option::as_mut) {
            conn.closing = true;
        }
    }

    fn flush_writes(&mut self) {
        for ci in 0..self.conns.len() {
            self.try_write(ci);
        }
    }

    fn try_write(&mut self, ci: usize) {
        let mut dead = false;
        let mut modify = None;
        {
            let Some(conn) = self.conns.get_mut(ci).and_then(Option::as_mut) else {
                return;
            };
            while conn.wpos < conn.wbuf.len() {
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => conn.wpos += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        self.stats.write_stalls += 1;
                        break;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if !dead {
                if conn.wpos == conn.wbuf.len() {
                    recycle(&mut conn.wbuf);
                    conn.wpos = 0;
                    // Responses delivered to the kernel: the admission
                    // slots they were holding are released.
                    conn.guards.clear();
                    if conn.closing {
                        dead = true;
                    }
                }
                let want_write = conn.wpos < conn.wbuf.len();
                if !dead && want_write != conn.write_interest {
                    conn.write_interest = want_write;
                    modify = Some((conn.stream.raw_fd(), want_write));
                }
            }
        }
        if dead {
            self.disconnect(ci);
            return;
        }
        if let Some((fd, want_write)) = modify {
            let _ = self.poller.modify(fd, ci as u64, want_write);
        }
    }

    fn disconnect(&mut self, ci: usize) {
        let Some(conn) = self.conns.get_mut(ci).and_then(Option::take) else {
            return;
        };
        let _ = self.poller.remove(conn.stream.raw_fd());
        let _ = conn.stream.shutdown_both();
        self.live_conns -= 1;
        if let Some(si) = conn.session {
            if self.sessions[si].conn == Some(ci) {
                self.sessions[si].conn = None;
                // Zombie GC: a session that never attached a data lane
                // has nothing to resume — destroy it so a client killed
                // mid-handshake cannot park a session forever.
                if !self.sessions[si].closed && self.sessions[si].lanes.len() == 1 {
                    self.sessions[si].closed = true;
                }
            }
        }
        // `conn.guards` drop here: undelivered responses release their
        // admission slots with the connection.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Endpoint;
    use crate::pool::PoolConfig;
    use uc_blockdev::BlockDevice;
    use uc_ssd::{Ssd, SsdConfig};

    /// Opens a session and sends one control-lane `CLOSE` stamped `seq`;
    /// returns the reply read back, if any.
    fn open_then_close(endpoint: &Endpoint, seq: u64) -> Option<Frame> {
        let mut conn = endpoint.connect().unwrap();
        let open = Body::Open {
            version: WIRE_VERSION,
        };
        Frame::new(FrameHeader::connection(), open)
            .write_to(&mut conn)
            .unwrap();
        let open_ok = Frame::read_from(&mut conn).unwrap().expect("open-ok");
        let Body::OpenOk { token } = open_ok.body else {
            panic!("expected OPEN_OK, got {open_ok:?}");
        };
        let header = FrameHeader {
            session: token,
            lane: CONTROL_LANE,
            seq,
        };
        Frame::new(header, Body::Close).write_to(&mut conn).unwrap();
        Frame::read_from(&mut conn).ok().flatten()
    }

    #[test]
    fn v1_clients_are_rejected_with_a_typed_unsupported_version() {
        let pool = Arc::new(ServePool::new(
            vec![(
                "ssd".to_string(),
                Box::new(Ssd::new(SsdConfig::samsung_970_pro(64 << 20)))
                    as Box<dyn BlockDevice + Send>,
            )],
            PoolConfig::default(),
        ));
        let listener = Listener::bind(&Endpoint::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
        let endpoint = listener.local_endpoint().unwrap();
        let server = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || serve_events(&listener, &pool, 1))
        };

        // A legacy client speaks v1 straight at the v2 server (a
        // `uc.wire.open.v1` frame carrying device index 0) and gets a
        // typed reject, not a decode failure.
        let mut conn = endpoint.connect().unwrap();
        let open_v1 = uc_persist::encode_record("uc.wire.open.v1", &0u32.to_le_bytes());
        conn.write_all(&open_v1).unwrap();
        let reply = Frame::read_from(&mut conn).unwrap().expect("reject frame");
        match reply.body {
            Body::Err {
                code: ErrCode::UnsupportedVersion { found, supported },
                ..
            } => assert_eq!((found, supported), (1, WIRE_VERSION)),
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        // The server closes the connection after the reject.
        let mut rest = Vec::new();
        conn.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        drop(conn);

        // A proper v2 session lets the loop reach its target and exit.
        let close_ok = open_then_close(&endpoint, 1).expect("close-ok");
        assert_eq!(close_ok.body, Body::CloseOk);

        let stats = server.join().unwrap().unwrap();
        assert_eq!(stats.sessions_served, 1);
        assert_eq!(stats.connections_accepted, 2);
        assert_eq!(stats.resumes, 0);
    }

    #[test]
    fn a_max_seq_frame_gets_a_typed_close_and_the_loop_serves_on() {
        let pool = Arc::new(ServePool::new(
            vec![(
                "ssd".to_string(),
                Box::new(Ssd::new(SsdConfig::samsung_970_pro(64 << 20)))
                    as Box<dyn BlockDevice + Send>,
            )],
            PoolConfig::default(),
        ));
        let listener = Listener::bind(&Endpoint::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
        let endpoint = listener.local_endpoint().unwrap();
        let server = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || serve_events(&listener, &pool, 1))
        };

        let reply = open_then_close(&endpoint, u64::MAX).expect("a typed reject");
        assert!(
            matches!(
                reply.body,
                Body::Err {
                    code: ErrCode::Protocol,
                    ..
                }
            ),
            "{reply:?}"
        );
        let reply = open_then_close(&endpoint, 1).expect("close-ok");
        assert_eq!(reply.body, Body::CloseOk);

        let stats = server.join().expect("the loop did not panic").unwrap();
        assert_eq!(stats.sessions_served, 1);
    }

    #[test]
    fn a_huge_frame_does_not_pin_connection_buffers() {
        use std::sync::mpsc;

        let pool = Arc::new(ServePool::new(
            vec![(
                "ssd".to_string(),
                Box::new(Ssd::new(SsdConfig::samsung_970_pro(64 << 20)))
                    as Box<dyn BlockDevice + Send>,
            )],
            PoolConfig::default(),
        ));
        let listener = Listener::bind(&Endpoint::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
        let endpoint = listener.local_endpoint().unwrap();
        let (answered_tx, answered) = mpsc::channel();
        let (close_tx, close_rx) = mpsc::channel::<()>();
        let client = std::thread::spawn(move || {
            let mut client = crate::WireClient::connect(&endpoint).unwrap();
            let (lane, ..) = client.attach(LaneTarget::Device(0)).unwrap();
            // One submit frame of more than 1 MiB: far past the ring, so
            // the server reads it whole, then refuses it.
            let n = (1 << 20) / 21 + 1;
            let reqs = vec![IoRequest::write(0, 4096, uc_sim::SimTime::ZERO); n];
            let frame = Frame::new(
                FrameHeader::connection(),
                Body::Submit { reqs: reqs.clone() },
            );
            assert!(frame.encode().len() > 1 << 20);
            let reply = client.call(lane, Body::Submit { reqs }).unwrap();
            assert_eq!(
                reply,
                Body::Busy {
                    reason: crate::BusyReason::RingFull
                }
            );
            answered_tx.send(()).unwrap();
            close_rx.recv().unwrap();
            client.close().unwrap();
        });

        let mut lp = EventLoop::new(&listener, &pool).unwrap();
        let mut events = Vec::new();
        while answered.try_recv().is_err() {
            lp.turn(&listener, &mut events).unwrap();
        }
        let conn = lp
            .conns
            .iter()
            .flatten()
            .next()
            .expect("the client's connection");
        assert!(
            conn.rbuf.capacity() <= KEPT_CAPACITY && conn.wbuf.capacity() <= KEPT_CAPACITY,
            "an answered 1 MiB frame left {} B of read and {} B of write buffer",
            conn.rbuf.capacity(),
            conn.wbuf.capacity()
        );
        close_tx.send(()).unwrap();
        while lp.closed_sessions < 1 || lp.has_undelivered_bytes() {
            lp.turn(&listener, &mut events).unwrap();
        }
        client.join().unwrap();
    }
}
