//! The `uc.wire.v2` client: resumable multi-lane sessions, plus the
//! [`RemoteDevice`] adapter that keeps the [`BlockDevice`] seam.
//!
//! [`WireClient`] owns one wire session: the connection handshake
//! (`OPEN`/`OPEN_OK`), lane attachment, synchronous per-lane calls, and —
//! the point of v2 — *transparent reconnection*. Every request a client
//! sends stays parked per lane until its response arrives; if the
//! connection dies at any point, the client reconnects, presents its
//! session token and per-lane received-seq acks in `RESUME`, and the
//! exchange continues exactly once:
//!
//! * a lane listed in `RESUME_OK`'s replay list had its response cached
//!   server-side — the client must *not* resend (the bytes are already
//!   on the way, byte-identical);
//! * a lane not listed was never processed — the client resends its
//!   parked request under the same seq.
//!
//! [`RemoteDevice`] layers the [`BlockDevice`] interface on one device
//! lane. Backpressure is resolved *iteratively*: a ring-full refusal
//! splits the chunk in half on an explicit work queue (never the call
//! stack), and a single-request chunk that keeps being refused trips a
//! retry cap into the typed [`IoError::RingSaturated`] — a hostile or
//! misconfigured server can neither blow the stack nor spin the client
//! forever.
//!
//! A client owns one write buffer, one record buffer and its parked
//! request list for its whole life, so a round trip allocates only the
//! completion list it decodes.

use crate::net::{Endpoint, Stream};
use crate::wire::{
    recycle, Body, BusyReason, ErrCode, Frame, FrameHeader, LaneAck, LaneTarget, WireStats,
    CONTROL_LANE, WIRE_VERSION,
};
use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::time::Duration;
use uc_blockdev::{BlockDevice, Completion, DeviceInfo, IoBatch, IoError, IoRequest, IoResult};
use uc_persist::DecodeError;

/// How long the client backs off before resending an overload-shed
/// batch. Wall-clock, not simulated: overload is a property of the real
/// server process.
const OVERLOAD_BACKOFF: Duration = Duration::from_micros(200);

/// Reconnect attempts before a resume gives up (each preceded by a
/// short sleep; the server may be mid-restart of its accept path).
const RESUME_ATTEMPTS: u32 = 50;
const RESUME_BACKOFF: Duration = Duration::from_millis(2);

/// Ring-full refusals of a *single-request* chunk tolerated before the
/// client declares the ring saturated.
const RING_RETRY_CAP: u32 = 32;

fn proto_err(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// A connection's buffered read half.
type Reader = BufReader<Box<dyn Stream>>;

/// Connects to `endpoint` and runs the `OPEN`/`OPEN_OK` handshake,
/// returning the connection's reader and writer and the new session's
/// token.
///
/// A refusal or a malformed reply is [`io::ErrorKind::InvalidData`]; a
/// server that hangs up mid-handshake is
/// [`io::ErrorKind::UnexpectedEof`], which a reconnect may retry.
fn open_session(endpoint: &Endpoint) -> io::Result<(Reader, Box<dyn Stream>, u64)> {
    let stream = endpoint.connect()?;
    let mut writer = stream.try_clone_stream()?;
    let mut reader = BufReader::new(stream);
    let open = Body::Open {
        version: WIRE_VERSION,
    };
    Frame::new(FrameHeader::connection(), open).write_to(&mut writer)?;
    match Frame::read_from(&mut reader) {
        Ok(Some(Frame {
            body: Body::OpenOk { token },
            ..
        })) => Ok((reader, writer, token)),
        Ok(Some(Frame {
            body: Body::Err { code, message, .. },
            ..
        })) => Err(proto_err(format!(
            "server refused session ({code:?}): {message}"
        ))),
        Ok(Some(other)) => Err(proto_err(format!("expected OPEN_OK, got {}", other.kind()))),
        Ok(None) => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection during the handshake",
        )),
        Err(e) => Err(proto_err(format!("bad OPEN_OK frame: {e}"))),
    }
}

struct LaneCli {
    /// Seq the next request on this lane will carry (starts at 1).
    next_seq: u64,
    /// Highest response seq received — the ack presented in `RESUME`.
    last_received: u64,
    /// The request awaiting its response: `(seq, body)`. Encoded at send
    /// time so a resume under a fresh token re-frames it correctly.
    pending: Option<(u64, Body)>,
    /// The request list of the last answered submit, kept for the next
    /// one to fill.
    spare_reqs: Vec<IoRequest>,
}

impl LaneCli {
    fn new() -> Self {
        LaneCli {
            next_seq: 1,
            last_received: 0,
            pending: None,
            spare_reqs: Vec::new(),
        }
    }
}

/// One resumable `uc.wire.v2` session: the control lane plus any
/// attached device/tenant lanes, multiplexed over one connection that
/// may be replaced any number of times.
pub struct WireClient {
    endpoint: Endpoint,
    reader: Reader,
    writer: Box<dyn Stream>,
    token: u64,
    lanes: Vec<LaneCli>,
    /// The frame being sent, encoded in place.
    wbuf: Vec<u8>,
    /// The record being read, filled in place.
    rbuf: Vec<u8>,
    /// Test hook: shut the connection down after this many more
    /// data-frame writes (simulating a mid-stream kill).
    kill_after: Option<u64>,
    frames_sent: u64,
    resumes: u64,
}

impl WireClient {
    /// Connects to `endpoint` and opens a fresh session.
    ///
    /// # Errors
    ///
    /// Transport errors propagate; a refusal (version mismatch, ERR
    /// reply) comes back as [`io::ErrorKind::InvalidData`] with the
    /// server's message.
    pub fn connect(endpoint: &Endpoint) -> io::Result<WireClient> {
        let (reader, writer, token) = open_session(endpoint)?;
        Ok(WireClient {
            endpoint: endpoint.clone(),
            reader,
            writer,
            token,
            lanes: vec![LaneCli::new()],
            wbuf: Vec::new(),
            rbuf: Vec::new(),
            kill_after: None,
            frames_sent: 0,
            resumes: 0,
        })
    }

    /// The server-issued session token.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Successful resume handshakes this client has performed.
    pub fn resumes(&self) -> u64 {
        self.resumes
    }

    /// Data frames written so far (handshake frames excluded) — lets a
    /// test measure a run once, then pick a kill point inside it.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Test hook: kill the connection after `frames` more data-frame
    /// writes. The next exchange then exercises the reconnect-and-resume
    /// path; the hook fires once.
    pub fn set_kill_after(&mut self, frames: u64) {
        self.kill_after = Some(frames);
    }

    /// Attaches a data lane and returns `(lane, name, capacity,
    /// logical_block)` — capacity is the region span and `logical_block`
    /// the fleet I/O size for tenant lanes.
    ///
    /// # Errors
    ///
    /// A typed server refusal comes back as
    /// [`io::ErrorKind::InvalidData`].
    pub fn attach(&mut self, target: LaneTarget) -> io::Result<(u32, String, u64, u32)> {
        match self.call(CONTROL_LANE, Body::Attach { target })? {
            Body::AttachOk {
                lane,
                name,
                capacity,
                logical_block,
            } => {
                debug_assert_eq!(lane as usize, self.lanes.len(), "lane ids are dense");
                self.lanes.push(LaneCli::new());
                Ok((lane, name, capacity, logical_block))
            }
            Body::Err { message, .. } => Err(proto_err(format!("attach refused: {message}"))),
            other => Err(proto_err(format!("expected ATTACH_OK, got {other:?}"))),
        }
    }

    /// One synchronous exchange on `lane`: assigns the next seq, sends
    /// `body`, and reads until the matching response arrives — resuming
    /// transparently across any number of connection deaths in between.
    ///
    /// # Errors
    ///
    /// Unrecoverable transport failure (the server is gone) or a
    /// protocol violation.
    pub fn call(&mut self, lane: u32, body: Body) -> io::Result<Body> {
        let li = lane as usize;
        let seq = self.lanes[li].next_seq;
        self.lanes[li].next_seq += 1;
        self.lanes[li].pending = Some((seq, body));
        if self.send_pending(li).is_err() {
            self.reconnect()?;
        }
        let (got_lane, got_seq, resp) = self.read_response()?;
        if got_lane == lane && got_seq == seq {
            let l = &mut self.lanes[li];
            if let Some((_, Body::Submit { reqs })) = l.pending.take() {
                l.spare_reqs = reqs;
            }
            l.last_received = seq;
            return Ok(resp);
        }
        Err(proto_err(format!(
            "response for lane {got_lane} seq {got_seq} while awaiting lane {lane} seq {seq}: {resp:?}"
        )))
    }

    /// [`call`](WireClient::call) with a `SUBMIT` of `reqs`, built in the
    /// lane's kept request list.
    ///
    /// # Errors
    ///
    /// As [`call`](WireClient::call).
    fn call_submit(&mut self, lane: u32, reqs: &[IoRequest]) -> io::Result<Body> {
        let mut list = std::mem::take(&mut self.lanes[lane as usize].spare_reqs);
        list.clear();
        list.extend_from_slice(reqs);
        self.call(lane, Body::Submit { reqs: list })
    }

    /// Flushes `epoch` on every lane in `lanes` — all flush frames are
    /// *sent* before any `FLUSH_OK` is awaited, because the server's
    /// epoch barrier needs every tenant's flush before it answers anyone
    /// (a lane-at-a-time client sharing tenants would deadlock itself).
    ///
    /// Returns, per lane, the rebalance target if the epoch moved that
    /// lane's tenant (`LANE_MOVED`).
    ///
    /// # Errors
    ///
    /// As [`call`](WireClient::call); an epoch-mismatch refusal is
    /// [`io::ErrorKind::InvalidData`].
    pub fn flush_epoch(
        &mut self,
        lanes: &[u32],
        epoch: u64,
    ) -> io::Result<Vec<(u32, Option<u32>)>> {
        for &lane in lanes {
            let li = lane as usize;
            let seq = self.lanes[li].next_seq;
            self.lanes[li].next_seq += 1;
            self.lanes[li].pending = Some((seq, Body::Flush { epoch }));
        }
        for &lane in lanes {
            if self.send_pending(lane as usize).is_err() {
                // The resume resends every parked flush, including the
                // ones this loop never got to.
                self.reconnect()?;
                break;
            }
        }
        let mut moves: Vec<(u32, Option<u32>)> = lanes.iter().map(|&l| (l, None)).collect();
        let mut done = 0;
        while done < lanes.len() {
            let (lane, seq, resp) = self.read_response()?;
            let li = lane as usize;
            let pending_seq = self
                .lanes
                .get(li)
                .and_then(|l| l.pending.as_ref().map(|(s, _)| *s));
            if pending_seq != Some(seq) {
                return Err(proto_err(format!(
                    "unexpected frame on lane {lane} seq {seq} during flush: {resp:?}"
                )));
            }
            match resp {
                Body::LaneMoved { to_device } => {
                    // Recorded idempotently: a resume may replay it.
                    if let Some(entry) = moves.iter_mut().find(|(l, _)| *l == lane) {
                        entry.1 = Some(to_device);
                    }
                }
                Body::FlushOk { epoch: got } if got == epoch => {
                    self.lanes[li].pending = None;
                    self.lanes[li].last_received = seq;
                    done += 1;
                }
                Body::Err { message, .. } => {
                    return Err(proto_err(format!("flush refused: {message}")))
                }
                other => {
                    return Err(proto_err(format!(
                        "expected FLUSH_OK on lane {lane}, got {other:?}"
                    )))
                }
            }
        }
        Ok(moves)
    }

    /// Pulls the server's live telemetry snapshot over the control lane
    /// (`METRICS`/`METRICS_OK`): every pool counter, per-lane latency
    /// percentile, and event-loop counter the server exports.
    ///
    /// # Errors
    ///
    /// Transport errors propagate; a refusal comes back as
    /// [`io::ErrorKind::InvalidData`].
    pub fn metrics(&mut self) -> io::Result<uc_obs::ObsSnapshot> {
        match self.call(CONTROL_LANE, Body::Metrics)? {
            Body::MetricsOk { snapshot } => Ok(snapshot),
            Body::Err { message, .. } => Err(proto_err(format!("metrics refused: {message}"))),
            other => Err(proto_err(format!("expected METRICS_OK, got {other:?}"))),
        }
    }

    /// Closes the session cleanly (`CLOSE`/`CLOSE_OK`) and shuts the
    /// connection down.
    ///
    /// # Errors
    ///
    /// Propagates the transport error.
    pub fn close(mut self) -> io::Result<()> {
        match self.call(CONTROL_LANE, Body::Close)? {
            Body::CloseOk => {
                let _ = self.writer.shutdown_both();
                Ok(())
            }
            other => Err(proto_err(format!("expected CLOSE_OK, got {other:?}"))),
        }
    }

    /// Reads one frame, resuming on transport loss. Returns `(lane, seq,
    /// body)`.
    fn read_response(&mut self) -> io::Result<(u32, u64, Body)> {
        loop {
            let read = Frame::read_into(&mut self.reader, &mut self.rbuf);
            recycle(&mut self.rbuf);
            match read {
                Ok(Some(frame)) => {
                    return Ok((frame.header.lane, frame.header.seq, frame.body));
                }
                // A clean EOF or an I/O error mid-frame are both the
                // connection dying; everything else is corruption.
                Ok(None) | Err(DecodeError::Io { .. }) => self.reconnect()?,
                Err(e) => return Err(proto_err(format!("corrupt frame from server: {e}"))),
            }
        }
    }

    /// Encodes and sends lane `li`'s parked request under the current
    /// token.
    fn send_pending(&mut self, li: usize) -> io::Result<()> {
        // The body moves into the frame and back: nothing is cloned.
        let Some((seq, body)) = self.lanes[li].pending.take() else {
            return Ok(());
        };
        let header = FrameHeader {
            session: self.token,
            lane: li as u32,
            seq,
        };
        let frame = Frame::new(header, body);
        let mut bytes = std::mem::take(&mut self.wbuf);
        frame.encode_into(&mut bytes);
        self.lanes[li].pending = Some((seq, frame.body));
        let sent = self.send_bytes(&bytes);
        recycle(&mut bytes);
        self.wbuf = bytes;
        sent
    }

    fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        if self.kill_after == Some(0) {
            self.kill_after = None;
            let _ = self.writer.shutdown_both();
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "test hook: connection killed before frame write",
            ));
        }
        self.writer.write_all(bytes)?;
        self.writer.flush()?;
        self.frames_sent += 1;
        if let Some(left) = self.kill_after.as_mut() {
            *left -= 1;
            if *left == 0 {
                self.kill_after = None;
                // The frame may or may not have reached the server — the
                // resume protocol's replay list resolves which.
                let _ = self.writer.shutdown_both();
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "test hook: connection killed after frame write",
                ));
            }
        }
        Ok(())
    }

    /// Reconnects and resumes the session, retrying transient failures.
    fn reconnect(&mut self) -> io::Result<()> {
        let mut last = None;
        for _ in 0..RESUME_ATTEMPTS {
            std::thread::sleep(RESUME_BACKOFF);
            match self.try_resume() {
                Ok(()) => {
                    self.resumes += 1;
                    return Ok(());
                }
                // A protocol-level refusal will not get better with age.
                Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(e),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::TimedOut, "resume attempts exhausted")
        }))
    }

    fn try_resume(&mut self) -> io::Result<()> {
        let stream = self.endpoint.connect()?;
        let mut writer = stream.try_clone_stream()?;
        let mut reader = BufReader::new(stream);
        let acks: Vec<LaneAck> = self
            .lanes
            .iter()
            .enumerate()
            .map(|(li, l)| LaneAck {
                lane: li as u32,
                seq: l.last_received,
            })
            .collect();
        Frame::new(
            FrameHeader {
                session: self.token,
                lane: CONTROL_LANE,
                seq: 0,
            },
            Body::Resume { acks },
        )
        .write_to(&mut writer)?;
        let replay = match Frame::read_from(&mut reader) {
            Ok(Some(Frame {
                body: Body::ResumeOk { replay, .. },
                ..
            })) => replay,
            Ok(Some(Frame {
                body:
                    Body::Err {
                        code: ErrCode::UnknownSession,
                        message,
                        ..
                    },
                ..
            })) => {
                if self.lanes.len() == 1 {
                    // Nothing was ever attached: the server
                    // garbage-collects such sessions on disconnect, so
                    // start a fresh one. Only a control-lane request
                    // (the first attach) can be parked, and it renumbers
                    // from seq 1 under the new token. If the disconnect
                    // raced the attach and the server *did* process it,
                    // the session survived with a data lane and the
                    // `RESUME_OK` arm above already took it.
                    return self.fresh_open();
                }
                return Err(proto_err(format!("session not resumable: {message}")));
            }
            other => return Err(proto_err(format!("expected RESUME_OK, got {other:?}"))),
        };
        self.reader = reader;
        self.writer = writer;
        // Exactly-once: replayed lanes have their response already in
        // flight; every other parked request was never processed and is
        // resent under its original seq.
        for li in 0..self.lanes.len() {
            let replayed = replay.iter().any(|a| a.lane == li as u32);
            if self.lanes[li].pending.is_some() && !replayed {
                self.send_pending(li)?;
            }
        }
        Ok(())
    }

    /// Opens a brand-new session on a fresh connection — the fallback
    /// when the server no longer knows the old token and no data lane
    /// was ever established.
    fn fresh_open(&mut self) -> io::Result<()> {
        let (reader, writer, token) = open_session(&self.endpoint)?;
        self.token = token;
        self.reader = reader;
        self.writer = writer;
        let lane = &mut self.lanes[0];
        lane.last_received = 0;
        if let Some((_, body)) = lane.pending.take() {
            lane.next_seq = 2;
            lane.pending = Some((1, body));
        } else {
            lane.next_seq = 1;
        }
        self.send_pending(0)
    }
}

/// A served device lane speaking the plain [`BlockDevice`] interface,
/// with transparent reconnect underneath.
pub struct RemoteDevice {
    client: WireClient,
    lane: u32,
    info: DeviceInfo,
    ring_full_splits: u64,
    overload_retries: u64,
}

impl RemoteDevice {
    /// Connects to `endpoint`, opens a session, and attaches device lane
    /// `device`.
    ///
    /// # Errors
    ///
    /// As [`WireClient::connect`] / [`WireClient::attach`].
    pub fn open(endpoint: &Endpoint, device: u32) -> io::Result<RemoteDevice> {
        let mut client = WireClient::connect(endpoint)?;
        let (lane, name, capacity, logical_block) = client.attach(LaneTarget::Device(device))?;
        Ok(RemoteDevice {
            client,
            lane,
            info: DeviceInfo::new(name, capacity, logical_block),
            ring_full_splits: 0,
            overload_retries: 0,
        })
    }

    /// The session token the server issued.
    pub fn token(&self) -> u64 {
        self.client.token()
    }

    /// The wire lane this device rides.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Ring-full refusals this client resolved by splitting.
    pub fn ring_full_splits(&self) -> u64 {
        self.ring_full_splits
    }

    /// Overload sheds this client resolved by backing off.
    pub fn overload_retries(&self) -> u64 {
        self.overload_retries
    }

    /// Resume handshakes performed under this device.
    pub fn resumes(&self) -> u64 {
        self.client.resumes()
    }

    /// Data frames written so far (see [`WireClient::frames_sent`]).
    pub fn frames_sent(&self) -> u64 {
        self.client.frames_sent()
    }

    /// Test hook: kill the connection after `frames` more data-frame
    /// writes (see [`WireClient::set_kill_after`]).
    pub fn set_kill_after(&mut self, frames: u64) {
        self.client.set_kill_after(frames);
    }

    /// Pulls the server's live telemetry snapshot (see
    /// [`WireClient::metrics`]).
    ///
    /// # Errors
    ///
    /// As [`WireClient::metrics`].
    pub fn metrics(&mut self) -> io::Result<uc_obs::ObsSnapshot> {
        self.client.metrics()
    }

    /// Fetches the lane's server-side ledger.
    ///
    /// # Errors
    ///
    /// Transport errors propagate; protocol violations come back as
    /// [`io::ErrorKind::InvalidData`].
    pub fn session_stats(&mut self) -> io::Result<WireStats> {
        match self.client.call(self.lane, Body::Stats)? {
            Body::StatsOk { stats } => Ok(stats),
            Body::Err { message, .. } => Err(proto_err(format!("stats refused: {message}"))),
            other => Err(proto_err(format!("expected STATS_OK, got {other:?}"))),
        }
    }

    /// Closes the session cleanly.
    ///
    /// # Errors
    ///
    /// Propagates the transport error.
    pub fn close(self) -> io::Result<()> {
        self.client.close()
    }
}

impl RemoteDevice {
    /// Doorbells `reqs` through as many `SUBMIT` round trips as the
    /// server's backpressure needs, appending completions to `out` in
    /// submission order. On error `out` may hold a prefix of them.
    fn submit_requests(
        &mut self,
        reqs: &[IoRequest],
        out: &mut Vec<Completion>,
    ) -> Result<(), IoError> {
        // Iterative ring-full splitting: `next` is the chunk to send, as
        // `(start, len)`, and chunks still owed after it wait on an
        // explicit work queue, built at the first split. Chunks go
        // left-to-right, so completions come out in submission order; a
        // split sends the left half next and queues the right half at
        // the front. Depth is bounded by the queue, not the call stack.
        let mut queue: Option<VecDeque<(usize, usize)>> = None;
        let mut next = (!reqs.is_empty()).then_some((0, reqs.len()));
        let mut refusals: u32 = 0;
        while let Some((start, len)) = next {
            match self
                .client
                .call_submit(self.lane, &reqs[start..start + len])
                .unwrap_or_else(|e| panic!("connection lost beyond recovery: {e}"))
            {
                Body::Completions { mut completions } => {
                    for c in &mut completions {
                        c.index += start;
                    }
                    // An empty queue takes the decoded list as it is.
                    if out.is_empty() {
                        *out = completions;
                    } else {
                        out.extend_from_slice(&completions);
                    }
                    next = queue.as_mut().and_then(VecDeque::pop_front);
                }
                Body::Busy {
                    reason: BusyReason::RingFull,
                } => {
                    if len > 1 {
                        self.ring_full_splits += 1;
                        let mid = len / 2;
                        queue
                            .get_or_insert_with(VecDeque::new)
                            .push_front((start + mid, len - mid));
                        next = Some((start, mid));
                    } else {
                        // A 1-request chunk cannot split further; a ring
                        // that still refuses it is saturated (or lying).
                        refusals += 1;
                        if refusals > RING_RETRY_CAP {
                            return Err(IoError::RingSaturated { ring: 1, refusals });
                        }
                    }
                }
                Body::Busy {
                    reason: BusyReason::Overload,
                } => {
                    self.overload_retries += 1;
                    std::thread::sleep(OVERLOAD_BACKOFF);
                }
                Body::Err { io: Some(e), .. } => return Err(e),
                Body::Err {
                    io: None, message, ..
                } => panic!("server reported a protocol error: {message}"),
                other => panic!("unexpected frame mid-submit: {other:?}"),
            }
        }
        Ok(())
    }
}

impl BlockDevice for RemoteDevice {
    fn info(&self) -> DeviceInfo {
        self.info.clone()
    }

    fn submit(&mut self, req: &IoRequest) -> IoResult {
        let mut completions = Vec::new();
        self.submit_requests(std::slice::from_ref(req), &mut completions)?;
        Ok(completions[0].completes)
    }

    /// Returns the completion list decoded from the server's reply as
    /// it is, when the batch needed one round trip.
    fn submit_batch(&mut self, batch: &IoBatch) -> Result<Vec<Completion>, IoError> {
        let mut completions = Vec::new();
        self.submit_batch_into(batch, &mut completions)?;
        Ok(completions)
    }

    fn submit_batch_into(
        &mut self,
        batch: &IoBatch,
        completions: &mut Vec<Completion>,
    ) -> Result<(), IoError> {
        let entry = completions.len();
        let result = self.submit_requests(batch.requests(), completions);
        if result.is_err() {
            completions.truncate(entry);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Listener;
    use uc_sim::SimTime;

    /// A hostile server: honours the handshake and attach, then refuses
    /// every submit with ring-full forever.
    fn spawn_always_ring_full() -> (Endpoint, std::thread::JoinHandle<()>) {
        let listener = Listener::bind(&Endpoint::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
        let endpoint = listener.local_endpoint().unwrap();
        let handle = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let mut writer = conn.try_clone_stream().unwrap();
            loop {
                let frame = match Frame::read_from(&mut conn) {
                    Ok(Some(f)) => f,
                    _ => return,
                };
                let reply = match frame.body {
                    Body::Open { .. } => {
                        Frame::new(FrameHeader::connection(), Body::OpenOk { token: 1 })
                    }
                    Body::Attach { .. } => Frame::new(
                        frame.header,
                        Body::AttachOk {
                            lane: 1,
                            name: "liar".to_string(),
                            capacity: 1 << 30,
                            logical_block: 512,
                        },
                    ),
                    Body::Submit { .. } => Frame::new(
                        frame.header,
                        Body::Busy {
                            reason: BusyReason::RingFull,
                        },
                    ),
                    _ => return,
                };
                if reply.write_to(&mut writer).is_err() {
                    return;
                }
            }
        });
        (endpoint, handle)
    }

    /// A server that forgets sessions: it drops the first connection
    /// after reading the attach, answers every `RESUME` with
    /// `UnknownSession` and closes, hangs up on the first fresh `OPEN`
    /// before answering it, and exits once it has answered an attach.
    fn spawn_forgetful() -> (Endpoint, std::thread::JoinHandle<()>) {
        let listener = Listener::bind(&Endpoint::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
        let endpoint = listener.local_endpoint().unwrap();
        let handle = std::thread::spawn(move || {
            let mut opens = 0;
            loop {
                let mut conn = listener.accept().unwrap();
                let mut writer = conn.try_clone_stream().unwrap();
                while let Ok(Some(frame)) = Frame::read_from(&mut conn) {
                    let body = match frame.body {
                        Body::Open { .. } => {
                            opens += 1;
                            if opens == 2 {
                                break;
                            }
                            Body::OpenOk { token: opens }
                        }
                        Body::Resume { .. } => Body::Err {
                            code: ErrCode::UnknownSession,
                            io: None,
                            message: "forgotten".to_string(),
                        },
                        Body::Attach { .. } if opens == 1 => break,
                        _ => Body::AttachOk {
                            lane: 1,
                            name: "forgetful".to_string(),
                            capacity: 1 << 30,
                            logical_block: 512,
                        },
                    };
                    let (refused, answered) = (
                        matches!(body, Body::Err { .. }),
                        matches!(body, Body::AttachOk { .. }),
                    );
                    Frame::new(frame.header, body)
                        .write_to(&mut writer)
                        .unwrap();
                    if answered {
                        return;
                    }
                    if refused {
                        break;
                    }
                }
            }
        });
        (endpoint, handle)
    }

    #[test]
    fn a_hang_up_during_a_fresh_open_is_retried() {
        let (endpoint, server) = spawn_forgetful();
        let mut client = WireClient::connect(&endpoint).unwrap();
        let (lane, name, ..) = client.attach(LaneTarget::Device(0)).unwrap();
        assert_eq!((lane, name.as_str()), (1, "forgetful"));
        // Token 1 was forgotten, the open that would have issued 2 was
        // hung up on, and the retried open issued 3.
        assert_eq!(client.token(), 3);
        server.join().unwrap();
    }

    #[test]
    fn a_server_that_always_refuses_trips_ring_saturated() {
        let (endpoint, server) = spawn_always_ring_full();
        let mut device = RemoteDevice::open(&endpoint, 0).unwrap();
        // Two requests: the refusal splits them once, then each single
        // request keeps being refused until the retry cap trips — on the
        // work queue, not the call stack, so even a huge batch would not
        // recurse.
        let batch: IoBatch = (0..2u64)
            .map(|i| IoRequest::write(i * 4096, 4096, SimTime::from_nanos(i)))
            .collect();
        let err = device.submit_batch(&batch).unwrap_err();
        assert_eq!(
            err,
            IoError::RingSaturated {
                ring: 1,
                refusals: RING_RETRY_CAP + 1
            }
        );
        assert_eq!(device.ring_full_splits(), 1);
        drop(device);
        drop(server); // the hostile server thread exits on EOF
        let _ = endpoint;
    }
}
