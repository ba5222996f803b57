//! The served frontend: the eSSD pool behind real network connections.
//!
//! Every workload so far was generated in-process; the paper's contract,
//! though, is about how *tenants'* traffic meets elastic SSDs — over
//! connections, with slow clients, bursts, overload, and connections
//! that die mid-exchange. This crate exposes both the
//! [`SharedDevice`](uc_blockdev::SharedDevice) session seam and the
//! fleet tenant seam as a storage target, std-only (`std::net` TCP and
//! Unix-domain sockets, raw `epoll` behind a tiny wrapper) and unix only
//! (its poller and its `uds:` endpoints need a Unix platform):
//!
//! * **wire** ([`Frame`]) — the `uc.wire.v2` framing on the `uc-persist`
//!   record envelope (magic, version, kind tag, CRC-32). Every frame
//!   carries a [`FrameHeader`] — session token, lane id, sequence
//!   number — and a typed [`Body`]. Sessions are first-class resumable
//!   objects: OPEN issues a token, ATTACH mounts device or fleet-tenant
//!   lanes, and RESUME replays exactly the unacknowledged responses
//!   after a reconnect. `uc.wire.v1` clients are recognized by their
//!   kind tags and refused with a typed `UnsupportedVersion` error;
//! * **poll** ([`Poller`]) — readiness without dependencies: Linux
//!   `epoll` through a minimal FFI shim, `poll(2)` on other Unix systems;
//! * **pool** ([`ServePool`]) — the served backend: per-lane device
//!   sessions with a bounded submission ring, overload shedding above an
//!   in-flight ceiling, optional rate budgets, and — in fleet mode — the
//!   multi-tenant placement engine with epoch barriers and rebalance
//!   decisions surfaced per tenant;
//! * **server** ([`serve_events`]) — one serving thread drives every
//!   connection through an epoll event loop: non-blocking sockets,
//!   per-connection read/write buffers, partial-frame state machines. A
//!   stalled reader keeps its own admission slots parked but cannot
//!   block any other session;
//! * **client** ([`WireClient`], [`RemoteDevice`]) — the resumable
//!   multi-lane client. [`RemoteDevice`] keeps the
//!   [`BlockDevice`](uc_blockdev::BlockDevice) seam, so the trace
//!   replayer (`trace --remote`) is the load generator unchanged —
//!   ring-full refusals split iteratively (typed
//!   `RingSaturated` past the retry cap), overload backs off, and a dead
//!   connection resumes transparently.
//!
//! The acceptance bar is determinism *through failure*: kill the TCP
//! connection mid-replay, reconnect, and the resumed session must
//! produce a device-side report byte-identical to the uninterrupted run
//! — the replay list in RESUME_OK makes every response exactly-once.
//!
//! # Example: loopback serving
//!
//! ```
//! use std::sync::Arc;
//! use uc_blockdev::{BlockDevice, IoRequest};
//! use uc_serve::{Endpoint, Listener, PoolConfig, RemoteDevice, ServePool, serve_events};
//! use uc_sim::SimTime;
//! use uc_ssd::{Ssd, SsdConfig};
//!
//! let pool = Arc::new(ServePool::new(
//!     vec![("ssd".to_string(),
//!           Box::new(Ssd::new(SsdConfig::samsung_970_pro(256 << 20))) as _)],
//!     PoolConfig::default(),
//! ));
//! let listener = Listener::bind(&Endpoint::parse("tcp:127.0.0.1:0").unwrap())?;
//! let endpoint = listener.local_endpoint()?;
//! let server = {
//!     let pool = Arc::clone(&pool);
//!     std::thread::spawn(move || serve_events(&listener, &pool, 1))
//! };
//!
//! let mut dev = RemoteDevice::open(&endpoint, 0)?;
//! let done = dev.submit(&IoRequest::write(0, 4096, SimTime::ZERO)).unwrap();
//! assert!(done > SimTime::ZERO);
//! dev.close()?;
//! let stats = server.join().unwrap()?;
//! assert_eq!(stats.sessions_served, 1);
//! assert_eq!(pool.report().total_ios(), 1);
//! # Ok::<(), std::io::Error>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod metrics;
mod net;
mod poll;
mod pool;
mod server;
mod wire;

pub use client::{RemoteDevice, WireClient};
pub use metrics::serve_metrics;
pub use net::{Endpoint, Listener, Stream};
pub use poll::{Event, Poller};
pub use pool::{
    DeviceLaneReport, FleetError, FlushOutcome, InflightGuard, PoolConfig, PoolDevice, PoolSession,
    Rejection, ServePool, ServeReport, TenantMove,
};
pub use server::{serve_events, EventLoopStats};
pub use wire::{
    Body, BusyReason, ErrCode, Frame, FrameHeader, LaneAck, LaneTarget, WireStats, ALL_KINDS,
    CONTROL_LANE, WIRE_VERSION,
};

/// Upper bound on the request (and completion) count one frame may
/// claim, checked before any allocation: a hostile length field cannot
/// balloon server memory. Far above any real doorbell ring.
pub const MAX_FRAME_REQUESTS: u64 = 1 << 16;
