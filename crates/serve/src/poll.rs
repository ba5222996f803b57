//! A minimal std-only readiness poller: `epoll(7)` on Linux, `poll(2)`
//! elsewhere on unix. Test builds on Linux compile the `poll(2)` poller
//! too, and run the readiness tests against both.
//!
//! This is the only module in the crate allowed to use `unsafe` (the
//! raw syscall FFI); everything above it sees a safe, edge-free API:
//! register a fd under a `u64` token, ask for write-readiness only while
//! you have bytes queued, and [`Poller::wait`] fills a caller-owned
//! event buffer. Level-triggered semantics throughout — a fd stays
//! readable until drained, so the event loop can stop reading mid-frame
//! under fairness pressure without losing the wakeup.

use std::io;
use std::os::fd::RawFd;

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd has bytes to read (or a pending accept).
    pub readable: bool,
    /// The fd can take more bytes.
    pub writable: bool,
    /// The peer hung up or the fd errored; drain reads, then drop it.
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys {
    use super::Event;
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::c_int;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;

    // The kernel's struct epoll_event is packed on x86-64 (12 bytes).
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// The epoll instance.
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // SAFETY: epoll_create1 takes no pointers; a negative return
            // is an error, any other return is an owned fd.
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: EPOLLIN | if writable { EPOLLOUT } else { 0 },
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) })?;
            Ok(())
        }

        pub fn add(&self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, writable)
        }

        pub fn modify(&self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, writable)
        }

        pub fn remove(&self, fd: RawFd) -> io::Result<()> {
            // SAFETY: since Linux 2.6.9 the event pointer of DEL is
            // ignored; null is the documented idiom.
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, std::ptr::null_mut()) })?;
            Ok(())
        }

        pub fn wait(&self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            events.clear();
            let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
            let n = loop {
                // SAFETY: `buf` is a valid writable array of its stated
                // length; the kernel fills at most `maxevents` entries.
                match cvt(unsafe {
                    epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as c_int, timeout_ms)
                }) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for ev in &buf[..n] {
                let bits = ev.events;
                events.push(Event {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLHUP | EPOLLERR) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLHUP | EPOLLERR) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: epfd is an owned fd no one else closes.
            unsafe { close(self.epfd) };
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
use fallback as sys;

#[cfg(all(unix, any(test, not(target_os = "linux"))))]
#[allow(unsafe_code)]
mod fallback {
    use super::Event;
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_short, c_ulong};
    use std::sync::{Mutex, MutexGuard, PoisonError};

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// A `poll(2)`-backed stand-in with the same API as the epoll
    /// poller: the registration table lives in userspace.
    pub struct Poller {
        registered: Mutex<Vec<(RawFd, u64, bool)>>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                registered: Mutex::new(Vec::new()),
            })
        }

        /// The registration table; every update is one `Vec` call, so a
        /// poisoned lock holds no half-made entry.
        fn registered(&self) -> MutexGuard<'_, Vec<(RawFd, u64, bool)>> {
            self.registered
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
        }

        pub fn add(&self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
            self.registered().push((fd, token, writable));
            Ok(())
        }

        pub fn modify(&self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
            let mut reg = self.registered();
            match reg.iter_mut().find(|(f, _, _)| *f == fd) {
                Some(slot) => {
                    *slot = (fd, token, writable);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub fn remove(&self, fd: RawFd) -> io::Result<()> {
            self.registered().retain(|(f, _, _)| *f != fd);
            Ok(())
        }

        pub fn wait(&self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            events.clear();
            let reg = self.registered().clone();
            let mut fds: Vec<PollFd> = reg
                .iter()
                .map(|&(fd, _, writable)| PollFd {
                    fd,
                    events: POLLIN | if writable { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            loop {
                // SAFETY: `fds` is a valid writable array of its stated
                // length for the duration of the call.
                let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
                if n >= 0 {
                    break;
                }
                let e = io::Error::last_os_error();
                if e.kind() != io::ErrorKind::Interrupted {
                    return Err(e);
                }
            }
            for (pfd, &(_, token, _)) in fds.iter().zip(&reg) {
                let bits = pfd.revents;
                if bits != 0 {
                    events.push(Event {
                        token,
                        readable: bits & (POLLIN | POLLHUP | POLLERR) != 0,
                        writable: bits & POLLOUT != 0,
                        hangup: bits & (POLLHUP | POLLERR) != 0,
                    });
                }
            }
            Ok(())
        }
    }
}

/// A readiness poller: fds registered under `u64` tokens,
/// level-triggered read interest always on, write interest toggled by
/// the caller while its write buffer is nonempty.
pub struct Poller {
    inner: sys::Poller,
}

impl Poller {
    /// Creates the poller.
    ///
    /// # Errors
    ///
    /// Propagates the OS error.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            inner: sys::Poller::new()?,
        })
    }

    /// Registers `fd` under `token`, with write interest iff `writable`.
    ///
    /// # Errors
    ///
    /// Propagates the OS error (e.g. the fd is already registered).
    pub fn add(&self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
        self.inner.add(fd, token, writable)
    }

    /// Updates `fd`'s token and write interest.
    ///
    /// # Errors
    ///
    /// Propagates the OS error (e.g. the fd was never registered).
    pub fn modify(&self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
        self.inner.modify(fd, token, writable)
    }

    /// Deregisters `fd`. Must be called before the fd is closed.
    ///
    /// # Errors
    ///
    /// Propagates the OS error.
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        self.inner.remove(fd)
    }

    /// Blocks until at least one registered fd is ready (or `timeout_ms`
    /// elapses; `-1` blocks forever), filling `events`. `EINTR` is
    /// retried internally.
    ///
    /// # Errors
    ///
    /// Propagates the OS error.
    pub fn wait(&self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        self.inner.wait(events, timeout_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    /// Defines a test that drives a poller of type `$poller` through
    /// reads, level-triggered re-reports, write interest and hangup.
    macro_rules! readiness_test {
        ($name:ident, $poller:ty) => {
            #[test]
            fn $name() {
                let (mut a, mut b) = UnixStream::pair().unwrap();
                let poller = <$poller>::new().unwrap();
                poller.add(b.as_raw_fd(), 42, false).unwrap();
                let mut events = Vec::new();

                // Nothing to read yet: a zero-timeout wait reports no events.
                poller.wait(&mut events, 0).unwrap();
                assert!(events.iter().all(|e| e.token != 42));

                a.write_all(b"ping").unwrap();
                poller.wait(&mut events, 1000).unwrap();
                let ev = events.iter().find(|e| e.token == 42).expect("readable");
                assert!(ev.readable && !ev.hangup);

                // Level-triggered: still readable until drained.
                poller.wait(&mut events, 0).unwrap();
                assert!(events.iter().any(|e| e.token == 42 && e.readable));
                let mut buf = [0u8; 4];
                b.read_exact(&mut buf).unwrap();
                poller.wait(&mut events, 0).unwrap();
                assert!(events.iter().all(|e| e.token != 42));

                // Write interest: an idle socket is immediately writable.
                poller.modify(b.as_raw_fd(), 42, true).unwrap();
                poller.wait(&mut events, 1000).unwrap();
                assert!(events.iter().any(|e| e.token == 42 && e.writable));

                // Hangup: the peer closing surfaces as readable + hangup.
                drop(a);
                poller.wait(&mut events, 1000).unwrap();
                let ev = events.iter().find(|e| e.token == 42).expect("hup");
                assert!(ev.readable && ev.hangup);
                poller.remove(b.as_raw_fd()).unwrap();
            }
        };
    }

    readiness_test!(readiness_follows_the_byte_flow, Poller);
    #[cfg(target_os = "linux")]
    readiness_test!(
        poll_fallback_readiness_follows_the_byte_flow,
        fallback::Poller
    );
}
