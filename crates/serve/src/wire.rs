//! The `uc.wire.v2` frame vocabulary: multi-lane, resumable sessions.
//!
//! Every frame rides the `uc-persist` record envelope (8-byte magic,
//! format version, kind tag, payload, CRC-32), so corruption anywhere on
//! the connection — a truncated read, a flipped bit, a foreign kind tag —
//! decodes to a typed [`DecodeError`], never a panic.
//!
//! v2 collapses v1's ten flat frame shapes into one
//! [`Frame`] `{ header, body }`: every frame carries the same
//! [`FrameHeader`] (session token, lane id, per-lane sequence number),
//! and the [`Body`] says what it means. The header is what makes
//! sessions resumable: a reconnecting client presents its token and the
//! highest seq it has *received* per lane, and the server replays only
//! the responses past those acks.
//!
//! | kind tag                   | direction | lane    | body |
//! |----------------------------|-----------|---------|------|
//! | `uc.wire.open.v2`          | C → S     | —       | protocol version |
//! | `uc.wire.open-ok.v2`       | S → C     | —       | session token |
//! | `uc.wire.resume.v2`        | C → S     | —       | per-lane received-seq acks |
//! | `uc.wire.resume-ok.v2`     | S → C     | —       | lane count, replay list |
//! | `uc.wire.attach.v2`        | C → S     | control | device or tenant target |
//! | `uc.wire.attach-ok.v2`     | S → C     | control | name, capacity, logical block |
//! | `uc.wire.submit.v2`        | C → S     | data    | request list |
//! | `uc.wire.completions.v2`   | S → C     | device  | completion list |
//! | `uc.wire.push-ok.v2`       | S → C     | tenant  | accepted entry count |
//! | `uc.wire.busy.v2`          | S → C     | device  | backpressure reason |
//! | `uc.wire.stats.v2`         | C → S     | data    | (empty) |
//! | `uc.wire.stats-ok.v2`      | S → C     | data    | session ledger + queue head |
//! | `uc.wire.metrics.v2`       | C → S     | control | (empty) |
//! | `uc.wire.metrics-ok.v2`    | S → C     | control | live [`ObsSnapshot`] |
//! | `uc.wire.flush.v2`         | C → S     | tenant  | epoch index |
//! | `uc.wire.flush-ok.v2`      | S → C     | tenant  | epoch index |
//! | `uc.wire.lane-moved.v2`    | S → C     | tenant  | new home device |
//! | `uc.wire.close.v2`         | C → S     | control | (empty) |
//! | `uc.wire.close-ok.v2`      | S → C     | control | (empty) |
//! | `uc.wire.err.v2`           | S → C     | any     | [`ErrCode`], optional [`IoError`], message |
//!
//! The body table at the `wire_bodies!` invocation below is the byte
//! format: it names each [`Body`] variant's kind tag and field list, and
//! a frame's payload is its [`FrameHeader`] followed by the listed fields
//! in that order, each in its type's [`Persist`] form. [`Frame::kind`],
//! [`ALL_KINDS`], encode and decode are all generated from that one
//! table, so reordering a field list changes the bytes (the golden-bytes
//! test pins them).
//!
//! On a *device* lane a submit frame's request list is a doorbelled
//! batch (instants validated non-decreasing on decode, exactly as in
//! v1); on a *tenant* lane the same list carries the tenant's arrival
//! entries, answered with `push-ok`. Rebalancing surfaces as a typed
//! `lane-moved` frame ahead of the epoch's `flush-ok` instead of an
//! error.

use std::io::{Read, Write};
use uc_blockdev::{Completion, IoError, IoRequest, SessionStats};
use uc_obs::ObsSnapshot;
use uc_persist::{
    encode_record_into, ensure, persist_enum, persist_struct, read_record_into, DecodeError,
    Decoder, Encoder, Persist,
};
use uc_sim::SimTime;

/// The protocol version this module speaks, sent in `OPEN`.
pub const WIRE_VERSION: u16 = 2;

/// The control lane every session starts with: `ATTACH`, session-wide
/// `CLOSE`, and their replies ride lane 0; data lanes are numbered from
/// 1 in attach order.
pub const CONTROL_LANE: u32 = 0;

/// Why the server refused a submit frame (backpressure, not failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusyReason {
    /// The batch exceeded the per-connection submission ring; resubmit
    /// in smaller pieces.
    RingFull,
    /// The server is above its in-flight ceiling; back off and retry.
    Overload,
}

persist_enum! { BusyReason { 0 = RingFull, 1 = Overload } }

/// One session's server-side ledger as reported by a STATS exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireStats {
    /// The per-session ledger (ios, bytes, clamped, last submit).
    pub stats: SessionStats,
    /// The device's queue head (latest doorbelled instant across all
    /// sessions on the lane).
    pub queue_head: SimTime,
}

persist_struct! { WireStats { stats, queue_head } }

/// The shared prefix of every v2 frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// The server-issued session token (0 until `OPEN_OK` assigns one).
    pub session: u64,
    /// The lane the frame belongs to; [`CONTROL_LANE`] for session
    /// control, data lanes from 1.
    pub lane: u32,
    /// Per-lane sequence number. Requests number the client's stream,
    /// replies echo the request's seq; connection-level frames
    /// (`OPEN`/`RESUME` and their replies) carry 0.
    pub seq: u64,
}

persist_struct! { FrameHeader { session, lane, seq } }

impl FrameHeader {
    /// A connection-level header: no session yet, control lane, seq 0.
    pub fn connection() -> Self {
        FrameHeader {
            session: 0,
            lane: CONTROL_LANE,
            seq: 0,
        }
    }
}

/// One per-lane acknowledgement inside `RESUME`/`RESUME_OK`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneAck {
    /// The lane.
    pub lane: u32,
    /// In `RESUME`: the highest response seq the client has received on
    /// the lane. In `RESUME_OK`: the seq of the cached response the
    /// server is about to replay.
    pub seq: u64,
}

persist_struct! { LaneAck { lane, seq } }

/// What a data lane attaches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneTarget {
    /// A roster device lane (by pool index) — the v1-style block target.
    Device(u32),
    /// A fleet tenant (by tenant id) — the lane feeds the tenant's
    /// arrival stream and observes its epochs.
    Tenant(u32),
}

persist_enum! { LaneTarget { 0 = Device(index), 1 = Tenant(id) } }

/// The typed failure class of an `ERR` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// The peer broke the protocol (the message says how).
    Protocol,
    /// The client's `OPEN` offered a version this server does not speak.
    UnsupportedVersion {
        /// The version the client offered.
        found: u16,
        /// The version the server speaks.
        supported: u16,
    },
    /// `RESUME` named a token the server does not hold.
    UnknownSession,
    /// The frame named a lane the session never attached.
    UnknownLane,
    /// The device rejected a request; the frame's `io` field says why.
    Io,
}

persist_enum! {
    ErrCode {
        0 = Protocol, 1 = UnsupportedVersion { found, supported }, 2 = UnknownSession,
        3 = UnknownLane, 4 = Io
    }
}

/// The payload of one v2 frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// Client hello; must be the first frame on a fresh connection.
    Open {
        /// The protocol version the client speaks.
        version: u16,
    },
    /// The server's reply to [`Body::Open`]: the session is live.
    OpenOk {
        /// The token that names this session across reconnects.
        token: u64,
    },
    /// Client hello on a *re*connection: take over session `header.session`.
    Resume {
        /// Per-lane highest received response seqs.
        acks: Vec<LaneAck>,
    },
    /// The server's reply to [`Body::Resume`]: the session is re-armed.
    ResumeOk {
        /// Number of data lanes the session holds.
        lanes: u32,
        /// The cached responses the server will replay, in lane order.
        /// A pending request whose lane is *not* listed here was never
        /// processed and must be resent by the client.
        replay: Vec<LaneAck>,
    },
    /// Attach a new data lane (control lane).
    Attach {
        /// What the lane drives.
        target: LaneTarget,
    },
    /// The server's reply to [`Body::Attach`]: rides the control lane
    /// (echoing the attach's seq) and names the new data lane in `lane`.
    AttachOk {
        /// The id assigned to the new lane.
        lane: u32,
        /// Device or tenant-region name.
        name: String,
        /// Capacity (device) or region span (tenant), in bytes.
        capacity: u64,
        /// Logical block size in bytes.
        logical_block: u32,
    },
    /// A batch of requests on a data lane: a doorbelled I/O batch on a
    /// device lane, arrival entries on a tenant lane.
    Submit {
        /// The requests, submit instants non-decreasing.
        reqs: Vec<IoRequest>,
    },
    /// The completions of an accepted device-lane submit, index-aligned
    /// with its request list.
    Completions {
        /// One completion per request, in submission order.
        completions: Vec<Completion>,
    },
    /// A tenant lane accepted a pushed entry batch.
    PushOk {
        /// How many entries were appended to the tenant's stream.
        accepted: u64,
    },
    /// Backpressure: the submit frame was refused, nothing was issued.
    Busy {
        /// Why the frame was refused.
        reason: BusyReason,
    },
    /// Ask for the lane's server-side ledger.
    Stats,
    /// The server's reply to [`Body::Stats`].
    StatsOk {
        /// The ledger and the lane's queue head.
        stats: WireStats,
    },
    /// Pull the server's live telemetry (control lane): every pool
    /// counter, gauge, and latency percentile the server exports.
    Metrics,
    /// The server's reply to [`Body::Metrics`].
    MetricsOk {
        /// The live snapshot, in the server's registration order.
        snapshot: ObsSnapshot,
    },
    /// Tenant lane: all entries for `epoch` are pushed; run it when
    /// every tenant has flushed.
    Flush {
        /// The epoch index being flushed.
        epoch: u64,
    },
    /// The epoch ran; the tenant's entries up to its cut are on the
    /// device.
    FlushOk {
        /// The epoch index that ran.
        epoch: u64,
    },
    /// The epoch's rebalance moved this lane's tenant; subsequent
    /// entries land on the new home. Sent ahead of the same seq's
    /// `FlushOk`.
    LaneMoved {
        /// The tenant's new home device index.
        to_device: u32,
    },
    /// Orderly shutdown of the session (control lane).
    Close,
    /// The server's reply to [`Body::Close`]; the connection ends after
    /// this frame.
    CloseOk,
    /// A typed failure. The server closes the connection after sending
    /// one with code `Protocol`/`UnsupportedVersion`/`UnknownSession`;
    /// lane-scoped errors (`UnknownLane`, `Io`) leave the session up.
    Err {
        /// The failure class.
        code: ErrCode,
        /// The device error, when `code` is [`ErrCode::Io`].
        io: Option<IoError>,
        /// Human-readable diagnostic.
        message: String,
    },
}

/// One `uc.wire.v2` frame: shared header + typed body.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Session token, lane, sequence number.
    pub header: FrameHeader,
    /// What the frame means.
    pub body: Body,
}

/// Generates [`Frame::kind`], [`ALL_KINDS`] and the body codec from one
/// table of `Variant = "kind tag" { field, field: decoder, … }` entries.
///
/// A body's bytes are its listed fields in list order, each through its
/// own [`Persist`] impl. A field written `name: decoder` decodes through
/// `decoder(r)` instead, where its bytes need a check `Persist` cannot
/// make (a count cap, an ordering).
macro_rules! wire_bodies {
    (@field $r:ident) => { Persist::decode($r)? };
    (@field $r:ident $decode:expr) => { $decode($r)? };
    ($($variant:ident = $kind:literal { $($field:ident $(: $decode:expr)?),* }),+ $(,)?) => {
        /// Every `uc.wire.v2` kind tag, in protocol order (the corruption
        /// sweeps iterate this).
        pub const ALL_KINDS: [&str; 20] = [$($kind),+];

        impl Frame {
            /// The frame's `uc.wire.v2` kind tag.
            pub fn kind(&self) -> &'static str {
                match self.body {
                    $(Body::$variant { .. } => $kind,)+
                }
            }
        }

        fn encode_body(body: &Body, w: &mut Encoder) {
            match body {
                $(Body::$variant { $($field),* } => { $(Persist::encode($field, w);)* })+
            }
        }

        /// The body decoder of `kind`, or `None` for a foreign kind tag.
        #[allow(unused_variables)] // an empty body reads nothing from `r`
        fn body_decoder(kind: &str) -> Option<BodyDecoder> {
            Some(match kind {
                $($kind => |r| Ok(Body::$variant {
                    $($field: wire_bodies!(@field r $($decode)?),)*
                }),)+
                _ => return None,
            })
        }
    };
}

type BodyDecoder = fn(&mut Decoder<'_>) -> Result<Body, DecodeError>;

wire_bodies! {
    Open        = "uc.wire.open.v2"        { version },
    OpenOk      = "uc.wire.open-ok.v2"     { token },
    Resume      = "uc.wire.resume.v2"      { acks: |r| list(r, "resume ack count") },
    ResumeOk    = "uc.wire.resume-ok.v2"   { lanes, replay: |r| list(r, "resume ack count") },
    Attach      = "uc.wire.attach.v2"      { target },
    AttachOk    = "uc.wire.attach-ok.v2"   { lane, name, capacity, logical_block },
    Submit      = "uc.wire.submit.v2"      { reqs: requests },
    Completions = "uc.wire.completions.v2" {
        completions: |r| list(r, "completions frame entry count")
    },
    PushOk      = "uc.wire.push-ok.v2"     { accepted },
    Busy        = "uc.wire.busy.v2"        { reason },
    Stats       = "uc.wire.stats.v2"       {},
    StatsOk     = "uc.wire.stats-ok.v2"    { stats },
    Metrics     = "uc.wire.metrics.v2"     {},
    MetricsOk   = "uc.wire.metrics-ok.v2"  { snapshot },
    Flush       = "uc.wire.flush.v2"       { epoch },
    FlushOk     = "uc.wire.flush-ok.v2"    { epoch },
    LaneMoved   = "uc.wire.lane-moved.v2"  { to_device },
    Close       = "uc.wire.close.v2"       {},
    CloseOk     = "uc.wire.close-ok.v2"    {},
    Err         = "uc.wire.err.v2"         { code, io, message },
}

/// Decodes a list field. Its count is checked against
/// [`MAX_FRAME_REQUESTS`](crate::MAX_FRAME_REQUESTS) — rejected as
/// `what` — before anything is allocated, and [`Vec`]'s decode bounds
/// the capacity by the bytes actually present.
fn list<T: Persist>(r: &mut Decoder<'_>, what: &'static str) -> Result<Vec<T>, DecodeError> {
    ensure(r.clone().get_u64()? <= crate::MAX_FRAME_REQUESTS, what)?;
    Vec::decode(r)
}

/// A submit frame's request list: bounded, submit instants
/// non-decreasing.
fn requests(r: &mut Decoder<'_>) -> Result<Vec<IoRequest>, DecodeError> {
    let reqs: Vec<IoRequest> = list(r, "submit frame request count")?;
    let ordered = reqs
        .windows(2)
        .all(|w| w[0].submit_time <= w[1].submit_time);
    ensure(ordered, "submit frame request order")?;
    Ok(reqs)
}

/// The capacity a reused frame buffer may keep once it drains: one large
/// or hostile frame must not pin memory for the life of a connection.
pub(crate) const KEPT_CAPACITY: usize = 64 << 10;

/// Empties a reused frame buffer, shrinking it back to
/// [`KEPT_CAPACITY`] if one frame grew it past that.
pub(crate) fn recycle(buf: &mut Vec<u8>) {
    buf.clear();
    buf.shrink_to(KEPT_CAPACITY);
}

/// `true` for a legacy `uc.wire.v1` kind tag (`uc.wire.<kind>.v1`): the
/// server answers such a frame with a typed `UnsupportedVersion` reject
/// instead of a generic decode failure.
pub(crate) fn is_v1_kind(kind: &str) -> bool {
    kind.starts_with("uc.wire.") && kind.ends_with(".v1")
}

impl Frame {
    /// A frame under `header`.
    pub fn new(header: FrameHeader, body: Body) -> Self {
        Frame { header, body }
    }

    /// Encodes the frame as one complete `uc-persist` record.
    pub fn encode(&self) -> Vec<u8> {
        // Room for any frame without a list, string or snapshot (66 to
        // 109 bytes), so most frames encode in one allocation.
        let mut out = Vec::with_capacity(128);
        self.encode_into(&mut out);
        out
    }

    /// Appends the frame to `out` as one complete `uc-persist` record,
    /// the same bytes [`Frame::encode`] returns. A connection that
    /// clears and reuses `out` encodes without allocating.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_record_into(out, self.kind(), |w| {
            self.header.encode(w);
            encode_body(&self.body, w);
        });
    }

    /// Rebuilds a frame from a decoded record's kind tag and payload.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnknownKind`] for a foreign kind tag,
    /// [`DecodeError::InvalidValue`] / [`DecodeError::Truncated`] /
    /// [`DecodeError::TrailingBytes`] for a malformed payload.
    pub fn from_parts(kind: &str, payload: &[u8]) -> Result<Frame, DecodeError> {
        // The kind gate comes first: a foreign frame (a v1 client, say)
        // must surface as `UnknownKind` for version negotiation, not as
        // a truncation error from misreading its payload as a v2 header.
        let decode_body = body_decoder(kind).ok_or_else(|| DecodeError::UnknownKind {
            found: kind.to_string(),
        })?;
        let mut r = Decoder::new(payload);
        let header = FrameHeader::decode(&mut r)?;
        let body = decode_body(&mut r)?;
        r.finish()?;
        Ok(Frame { header, body })
    }

    /// Reads the next frame off `reader`.
    ///
    /// Returns `Ok(None)` on a clean end of stream (the peer closed the
    /// connection between frames).
    ///
    /// # Errors
    ///
    /// Any corruption — truncation mid-frame, a checksum mismatch, a
    /// foreign kind tag, a malformed payload — is a typed
    /// [`DecodeError`].
    pub fn read_from<R: Read + ?Sized>(reader: &mut R) -> Result<Option<Frame>, DecodeError> {
        Frame::read_into(reader, &mut Vec::new())
    }

    /// Reads the next frame off `reader` through `record`, a buffer the
    /// caller owns and reuses (see [`read_record_into`]); only the
    /// frame's own lists and strings are allocated.
    ///
    /// # Errors
    ///
    /// As [`Frame::read_from`].
    pub(crate) fn read_into<R: Read + ?Sized>(
        reader: &mut R,
        record: &mut Vec<u8>,
    ) -> Result<Option<Frame>, DecodeError> {
        match read_record_into(reader, record)? {
            None => Ok(None),
            Some((kind, payload)) => Frame::from_parts(kind, payload).map(Some),
        }
    }

    /// Writes the frame to `writer` as one record.
    ///
    /// # Errors
    ///
    /// Propagates the transport error.
    pub fn write_to<W: Write + ?Sized>(&self, writer: &mut W) -> std::io::Result<()> {
        writer.write_all(&self.encode())?;
        writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_blockdev::IoKind;

    fn at(nanos: u64) -> SimTime {
        SimTime::from_nanos(nanos)
    }

    fn hdr(session: u64, lane: u32, seq: u64) -> FrameHeader {
        FrameHeader { session, lane, seq }
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::new(FrameHeader::connection(), Body::Open { version: 2 }),
            Frame::new(FrameHeader::connection(), Body::OpenOk { token: 7 }),
            Frame::new(
                hdr(7, 0, 0),
                Body::Resume {
                    acks: vec![LaneAck { lane: 1, seq: 12 }, LaneAck { lane: 2, seq: 3 }],
                },
            ),
            Frame::new(
                hdr(7, 0, 0),
                Body::ResumeOk {
                    lanes: 2,
                    replay: vec![LaneAck { lane: 1, seq: 13 }],
                },
            ),
            Frame::new(
                hdr(7, 0, 1),
                Body::Attach {
                    target: LaneTarget::Device(2),
                },
            ),
            Frame::new(
                hdr(7, 0, 2),
                Body::Attach {
                    target: LaneTarget::Tenant(41),
                },
            ),
            Frame::new(
                hdr(7, 0, 1),
                Body::AttachOk {
                    lane: 1,
                    name: "essd (aws io2 class)".to_string(),
                    capacity: 2 << 30,
                    logical_block: 4096,
                },
            ),
            Frame::new(
                hdr(7, 1, 1),
                Body::Submit {
                    reqs: vec![
                        IoRequest::write(0, 65536, at(10)),
                        IoRequest::read(65536, 4096, at(10)),
                        IoRequest::write(131072, 4096, at(25)),
                    ],
                },
            ),
            Frame::new(
                hdr(7, 1, 1),
                Body::Completions {
                    completions: vec![Completion {
                        index: 0,
                        kind: IoKind::Write,
                        len: 65536,
                        submitted: at(10),
                        completes: at(90),
                    }],
                },
            ),
            Frame::new(hdr(7, 2, 4), Body::PushOk { accepted: 512 }),
            Frame::new(
                hdr(7, 1, 2),
                Body::Busy {
                    reason: BusyReason::RingFull,
                },
            ),
            Frame::new(
                hdr(7, 1, 3),
                Body::Busy {
                    reason: BusyReason::Overload,
                },
            ),
            Frame::new(hdr(7, 1, 4), Body::Stats),
            Frame::new(
                hdr(7, 1, 4),
                Body::StatsOk {
                    stats: WireStats {
                        stats: SessionStats {
                            ios: 3,
                            bytes: 73728,
                            clamped: 1,
                            last_submit: at(25),
                        },
                        queue_head: at(40),
                    },
                },
            ),
            Frame::new(hdr(7, 0, 5), Body::Metrics),
            Frame::new(
                hdr(7, 0, 5),
                Body::MetricsOk {
                    snapshot: {
                        use uc_obs::{HistSummary, MetricValue, ObsSnapshot};
                        let mut s = ObsSnapshot::default();
                        s.push("serve.pool.ios".to_string(), MetricValue::Counter(3));
                        s.push("serve.loop.polls".to_string(), MetricValue::Gauge(12));
                        s.push(
                            "serve.lane0.service_ns".to_string(),
                            MetricValue::Histogram(HistSummary {
                                count: 3,
                                sum_ns: 300,
                                min_ns: 80,
                                max_ns: 120,
                                p50_ns: 100,
                                p99_ns: 120,
                                p999_ns: 120,
                            }),
                        );
                        s
                    },
                },
            ),
            Frame::new(hdr(7, 2, 5), Body::Flush { epoch: 1 }),
            Frame::new(hdr(7, 2, 5), Body::FlushOk { epoch: 1 }),
            Frame::new(hdr(7, 2, 5), Body::LaneMoved { to_device: 3 }),
            Frame::new(hdr(7, 0, 3), Body::Close),
            Frame::new(hdr(7, 0, 3), Body::CloseOk),
            Frame::new(
                hdr(0, 0, 0),
                Body::Err {
                    code: ErrCode::UnsupportedVersion {
                        found: 1,
                        supported: 2,
                    },
                    io: None,
                    message: "speak uc.wire.v2".to_string(),
                },
            ),
            Frame::new(
                hdr(7, 0, 0),
                Body::Err {
                    code: ErrCode::UnknownSession,
                    io: None,
                    message: "no such token".to_string(),
                },
            ),
            Frame::new(
                hdr(7, 9, 1),
                Body::Err {
                    code: ErrCode::UnknownLane,
                    io: None,
                    message: "lane 9 never attached".to_string(),
                },
            ),
            Frame::new(
                hdr(7, 1, 5),
                Body::Err {
                    code: ErrCode::Io,
                    io: Some(IoError::Misaligned {
                        offset: 3,
                        len: 100,
                        logical_block: 4096,
                    }),
                    message: "device rejected request".to_string(),
                },
            ),
            Frame::new(
                hdr(7, 1, 6),
                Body::Err {
                    code: ErrCode::Io,
                    io: Some(IoError::RingSaturated {
                        ring: 1,
                        refusals: 32,
                    }),
                    message: String::new(),
                },
            ),
            Frame::new(
                hdr(7, 0, 0),
                Body::Err {
                    code: ErrCode::Protocol,
                    io: None,
                    message: "expected OPEN".to_string(),
                },
            ),
        ]
    }

    #[test]
    fn every_frame_round_trips_through_a_byte_stream() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for f in &frames {
            f.write_to(&mut stream).unwrap();
        }
        let mut reader = &stream[..];
        for expected in &frames {
            let got = Frame::read_from(&mut reader).unwrap().expect("frame");
            assert_eq!(&got, expected);
        }
        assert_eq!(Frame::read_from(&mut reader).unwrap(), None, "clean EOF");
    }

    /// Golden bytes: every sample frame encodes to exactly the bytes it
    /// encoded to when these `(len, crc32)` pairs were captured. A round
    /// trip alone would pass a codec that moved a field; this does not.
    /// The CRC covers the record up to its own trailing checksum: a CRC
    /// over a message followed by its CRC is the same for every message
    /// of one length, so hashing the whole record would pin only lengths.
    #[test]
    fn wire_bytes_are_pinned() {
        let actual: Vec<(&str, (usize, u32))> = sample_frames()
            .iter()
            .map(|f| {
                let bytes = f.encode();
                let body = &bytes[..bytes.len() - 4];
                (f.kind(), (bytes.len(), uc_persist::crc32(body)))
            })
            .collect();
        let golden = [
            ("uc.wire.open.v2", (67, 0x3181_9dae)),
            ("uc.wire.open-ok.v2", (76, 0x9a4b_acc4)),
            ("uc.wire.resume.v2", (99, 0x3a6d_f594)),
            ("uc.wire.resume-ok.v2", (94, 0x661d_14b5)),
            ("uc.wire.attach.v2", (72, 0xde9b_7ae0)),
            ("uc.wire.attach.v2", (72, 0x2902_17a1)),
            ("uc.wire.attach-ok.v2", (114, 0x5528_77c6)),
            ("uc.wire.submit.v2", (138, 0x95ab_289b)),
            ("uc.wire.completions.v2", (109, 0x5831_dfbe)),
            ("uc.wire.push-ok.v2", (76, 0x5abd_6771)),
            ("uc.wire.busy.v2", (66, 0x0cd1_3ba9)),
            ("uc.wire.busy.v2", (66, 0x6cad_1f7c)),
            ("uc.wire.stats.v2", (66, 0x67b8_6639)),
            ("uc.wire.stats-ok.v2", (109, 0x1102_62eb)),
            ("uc.wire.metrics.v2", (68, 0xa01c_33cc)),
            ("uc.wire.metrics-ok.v2", (238, 0x019b_20f4)),
            ("uc.wire.flush.v2", (74, 0x6e95_9052)),
            ("uc.wire.flush-ok.v2", (77, 0x0811_ea64)),
            ("uc.wire.lane-moved.v2", (75, 0xb4d1_41cd)),
            ("uc.wire.close.v2", (66, 0x6283_4617)),
            ("uc.wire.close-ok.v2", (69, 0x4e9c_2184)),
            ("uc.wire.err.v2", (94, 0x6de5_2b54)),
            ("uc.wire.err.v2", (87, 0x870a_c806)),
            ("uc.wire.err.v2", (95, 0x2714_90a8)),
            ("uc.wire.err.v2", (114, 0x27ee_8a1a)),
            ("uc.wire.err.v2", (83, 0x0e98_32d8)),
            ("uc.wire.err.v2", (87, 0x1014_6ee9)),
        ];
        assert_eq!(actual, golden);
    }

    #[test]
    fn encode_into_a_dirty_reused_buffer_matches_encode() {
        let mut buf = vec![0xA5; 4096];
        for f in sample_frames() {
            // Stale bytes ahead of the record stay; the record appended
            // after them is exactly `encode`'s.
            buf.truncate(3);
            f.encode_into(&mut buf);
            assert_eq!(buf[3..], f.encode()[..], "{}", f.kind());
        }
        assert_eq!(buf.capacity(), 4096, "no frame outgrew the reused buffer");
    }

    #[test]
    fn kinds_are_distinct_and_listed() {
        let frames = sample_frames();
        for kind in ALL_KINDS {
            assert!(frames.iter().any(|f| f.kind() == kind), "{kind} unsampled");
        }
        let mut kinds: Vec<&str> = ALL_KINDS.to_vec();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), ALL_KINDS.len());
    }

    #[test]
    fn v1_frames_are_foreign_to_v2_and_vice_versa() {
        // The version seam is the kind tag: a v1 open does not decode as
        // any v2 frame, so negotiation happens on typed UnknownKind, never
        // mis-parsed payloads; and no v2 kind is mistaken for a v1 one.
        let err = Frame::from_parts("uc.wire.open.v1", &[]).unwrap_err();
        assert!(matches!(err, DecodeError::UnknownKind { .. }));
        assert!(is_v1_kind("uc.wire.open.v1"));
        for kind in ALL_KINDS {
            assert!(!is_v1_kind(kind), "{kind} sniffed as v1");
        }
        assert!(!is_v1_kind("uc.trace.v1"));
    }

    #[test]
    fn time_travelling_submit_frames_are_rejected_on_decode() {
        // A hostile client encodes a batch whose submit instants regress;
        // the decoder must refuse it before it can reach an IoBatch.
        let mut w = Encoder::new();
        w.put_u64(7); // session
        w.put_u32(1); // lane
        w.put_u64(1); // seq
        w.put_u64(2); // count
        for t in [100u64, 50] {
            w.put_u8(1);
            w.put_u64(0);
            w.put_u32(4096);
            w.put_u64(t);
        }
        let err = Frame::from_parts("uc.wire.submit.v2", w.as_bytes()).unwrap_err();
        assert!(matches!(
            err,
            DecodeError::InvalidValue {
                what: "submit frame request order"
            }
        ));
    }

    #[test]
    fn hostile_counts_are_bounded() {
        for (kind, what) in [
            ("uc.wire.submit.v2", "submit frame request count"),
            ("uc.wire.completions.v2", "completions frame entry count"),
            ("uc.wire.resume.v2", "resume ack count"),
        ] {
            let mut w = Encoder::new();
            w.put_u64(7);
            w.put_u32(1);
            w.put_u64(1);
            w.put_u64(u64::MAX); // claimed count far past any real frame
            let err = Frame::from_parts(kind, w.as_bytes()).unwrap_err();
            assert_eq!(err, DecodeError::InvalidValue { what }, "{kind}");
        }
    }

    #[test]
    fn trailing_payload_bytes_are_typed() {
        let mut w = Encoder::new();
        w.put_u64(7);
        w.put_u32(0);
        w.put_u64(0);
        w.put_u16(2);
        w.put_u8(0xEE); // junk after the version
        let err = Frame::from_parts("uc.wire.open.v2", w.as_bytes()).unwrap_err();
        assert!(matches!(err, DecodeError::TrailingBytes { count: 1 }));
    }

    #[test]
    fn mid_frame_truncation_is_typed() {
        let bytes = Frame::new(hdr(7, 0, 3), Body::Close).encode();
        for cut in 1..bytes.len() {
            let mut reader = &bytes[..cut];
            let err = Frame::read_from(&mut reader).expect_err(&format!("cut at {cut} must fail"));
            assert!(
                matches!(
                    err,
                    DecodeError::Truncated { .. } | DecodeError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }
}
