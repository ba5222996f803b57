//! Transport endpoints: TCP and Unix-domain listeners and streams.
//!
//! Everything here is `std::net` / `std::os::unix::net` — the server is
//! dependency-free by construction. [`Endpoint`] is the parsed form of
//! the `tcp:HOST:PORT` / `uds:PATH` addresses the binaries accept;
//! [`Listener`] and the [`Stream`] trait erase the TCP/UDS split so the
//! server and client speak one connection type.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

/// A bidirectional, cloneable connection (TCP or Unix-domain).
///
/// `try_clone_stream` yields an independently owned handle onto the same
/// connection, so one side can be wrapped in a buffered reader while the
/// other writes responses.
pub trait Stream: Read + Write + Send {
    /// An independently owned handle onto the same connection.
    ///
    /// # Errors
    ///
    /// Propagates the OS error.
    fn try_clone_stream(&self) -> io::Result<Box<dyn Stream>>;

    /// Shuts down both directions of the connection.
    ///
    /// # Errors
    ///
    /// Propagates the OS error.
    fn shutdown_both(&self) -> io::Result<()>;

    /// Switches the connection between blocking and non-blocking mode
    /// (the event loop runs every connection non-blocking).
    ///
    /// # Errors
    ///
    /// Propagates the OS error.
    fn set_nonblocking_stream(&self, nonblocking: bool) -> io::Result<()>;

    /// The raw fd, for poller registration.
    fn raw_fd(&self) -> std::os::fd::RawFd;
}

impl Stream for TcpStream {
    fn try_clone_stream(&self) -> io::Result<Box<dyn Stream>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn shutdown_both(&self) -> io::Result<()> {
        self.shutdown(std::net::Shutdown::Both)
    }

    fn set_nonblocking_stream(&self, nonblocking: bool) -> io::Result<()> {
        self.set_nonblocking(nonblocking)
    }

    fn raw_fd(&self) -> std::os::fd::RawFd {
        std::os::fd::AsRawFd::as_raw_fd(self)
    }
}

impl Stream for std::os::unix::net::UnixStream {
    fn try_clone_stream(&self) -> io::Result<Box<dyn Stream>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn shutdown_both(&self) -> io::Result<()> {
        self.shutdown(std::net::Shutdown::Both)
    }

    fn set_nonblocking_stream(&self, nonblocking: bool) -> io::Result<()> {
        self.set_nonblocking(nonblocking)
    }

    fn raw_fd(&self) -> std::os::fd::RawFd {
        std::os::fd::AsRawFd::as_raw_fd(self)
    }
}

/// A parsed server address: `tcp:HOST:PORT` or `uds:PATH`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address (`HOST:PORT`; port 0 binds an ephemeral port).
    Tcp(String),
    /// A Unix-domain socket path.
    Uds(PathBuf),
}

impl Endpoint {
    /// Parses `tcp:HOST:PORT` or `uds:PATH`.
    ///
    /// # Errors
    ///
    /// Returns a descriptive error for any other prefix.
    pub fn parse(spec: &str) -> Result<Endpoint, String> {
        if let Some(addr) = spec.strip_prefix("tcp:") {
            Ok(Endpoint::Tcp(addr.to_string()))
        } else if let Some(path) = spec.strip_prefix("uds:") {
            Ok(Endpoint::Uds(PathBuf::from(path)))
        } else {
            Err(format!(
                "endpoint must be tcp:HOST:PORT or uds:PATH, got {spec:?}"
            ))
        }
    }

    /// Connects to the endpoint. TCP connections disable Nagle's
    /// algorithm — the protocol is request/response and a delayed small
    /// frame would stall the whole exchange.
    ///
    /// # Errors
    ///
    /// Propagates the OS error; on non-Unix platforms, `uds:` endpoints
    /// are unsupported.
    pub fn connect(&self) -> io::Result<Box<dyn Stream>> {
        match self {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                Ok(Box::new(stream))
            }
            Endpoint::Uds(path) => Ok(Box::new(std::os::unix::net::UnixStream::connect(path)?)),
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            Endpoint::Uds(path) => write!(f, "uds:{}", path.display()),
        }
    }
}

/// A bound listener on an [`Endpoint`].
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener.
    Uds(std::os::unix::net::UnixListener),
}

impl Listener {
    /// Binds the endpoint. A stale Unix-socket file at the path is
    /// removed first (a previous server that died without unlinking must
    /// not wedge the address forever).
    ///
    /// # Errors
    ///
    /// Propagates the OS error; on non-Unix platforms, `uds:` endpoints
    /// are unsupported.
    pub fn bind(endpoint: &Endpoint) -> io::Result<Listener> {
        match endpoint {
            Endpoint::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr)?)),
            Endpoint::Uds(path) => {
                let _ = std::fs::remove_file(path);
                Ok(Listener::Uds(std::os::unix::net::UnixListener::bind(path)?))
            }
        }
    }

    /// The bound address — for TCP with port 0, the actual ephemeral
    /// port (tests bind `tcp:127.0.0.1:0` and connect to the result).
    ///
    /// # Errors
    ///
    /// Propagates the OS error.
    pub fn local_endpoint(&self) -> io::Result<Endpoint> {
        match self {
            Listener::Tcp(l) => Ok(Endpoint::Tcp(l.local_addr()?.to_string())),
            Listener::Uds(l) => {
                let addr = l.local_addr()?;
                Ok(Endpoint::Uds(
                    addr.as_pathname().map(PathBuf::from).unwrap_or_default(),
                ))
            }
        }
    }

    /// Switches the listener between blocking and non-blocking accepts
    /// (the event loop polls the listener like any other fd).
    ///
    /// # Errors
    ///
    /// Propagates the OS error.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
            Listener::Uds(l) => l.set_nonblocking(nonblocking),
        }
    }

    /// The raw fd, for poller registration.
    pub fn raw_fd(&self) -> std::os::fd::RawFd {
        use std::os::fd::AsRawFd;
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Uds(l) => l.as_raw_fd(),
        }
    }

    /// Accepts one connection (TCP connections get `TCP_NODELAY`).
    ///
    /// # Errors
    ///
    /// Propagates the OS error.
    pub fn accept(&self) -> io::Result<Box<dyn Stream>> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nodelay(true)?;
                Ok(Box::new(stream))
            }
            Listener::Uds(l) => {
                let (stream, _) = l.accept()?;
                Ok(Box::new(stream))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_parse_and_display() {
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:4000").unwrap(),
            Endpoint::Tcp("127.0.0.1:4000".to_string())
        );
        assert_eq!(
            Endpoint::parse("uds:/tmp/uc.sock").unwrap(),
            Endpoint::Uds(PathBuf::from("/tmp/uc.sock"))
        );
        assert_eq!(Endpoint::parse("tcp:h:1").unwrap().to_string(), "tcp:h:1");
        assert!(Endpoint::parse("http://x").is_err());
    }

    #[test]
    fn tcp_loopback_round_trips_bytes() {
        let listener = Listener::bind(&Endpoint::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
        let endpoint = listener.local_endpoint().unwrap();
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let mut buf = [0u8; 5];
            conn.read_exact(&mut buf).unwrap();
            conn.write_all(&buf).unwrap();
        });
        let mut client = endpoint.connect().unwrap();
        client.write_all(b"hello").unwrap();
        let mut echo = [0u8; 5];
        client.read_exact(&mut echo).unwrap();
        assert_eq!(&echo, b"hello");
        server.join().unwrap();
    }

    #[test]
    fn uds_loopback_round_trips_bytes_and_rebinds_over_stale_sockets() {
        let path = std::env::temp_dir().join(format!("uc-serve-net-{}.sock", std::process::id()));
        let endpoint = Endpoint::Uds(path.clone());
        for _ in 0..2 {
            // Second iteration rebinds over the file the first left behind.
            let listener = Listener::bind(&endpoint).unwrap();
            let server = std::thread::spawn(move || {
                let mut conn = listener.accept().unwrap();
                let mut buf = [0u8; 3];
                conn.read_exact(&mut buf).unwrap();
                conn.write_all(&buf).unwrap();
            });
            let mut client = endpoint.connect().unwrap();
            client.write_all(b"uds").unwrap();
            let mut echo = [0u8; 3];
            client.read_exact(&mut echo).unwrap();
            assert_eq!(&echo, b"uds");
            server.join().unwrap();
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cloned_streams_share_the_connection() {
        let listener = Listener::bind(&Endpoint::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
        let endpoint = listener.local_endpoint().unwrap();
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let mut buf = [0u8; 2];
            conn.read_exact(&mut buf).unwrap();
            conn.write_all(&buf).unwrap();
        });
        let client = endpoint.connect().unwrap();
        let mut reader = client.try_clone_stream().unwrap();
        let mut writer = client;
        writer.write_all(b"ab").unwrap();
        let mut echo = [0u8; 2];
        reader.read_exact(&mut echo).unwrap();
        assert_eq!(&echo, b"ab");
        server.join().unwrap();
        writer.shutdown_both().unwrap();
    }
}
