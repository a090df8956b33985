//! A small, hand-rolled readiness poller (no external deps): epoll on
//! Linux, `poll(2)` on other Unix platforms — the minimal mio-style
//! surface the event-loop server needs.
//!
//! Registration is token-based: each file descriptor is registered with a
//! caller-chosen `u64` token and an interest set ([`Interest`]), and
//! [`Poller::wait`] reports `(token, readiness)` pairs. Interests are
//! *level-triggered*: a socket with unread bytes (or writable space, when
//! write interest is armed) keeps reporting ready, so a handler that
//! drains partially is re-driven on the next wait instead of stalling.
//! The server manages interest explicitly — read interest is dropped
//! while a session is backpressured, write interest is armed only while
//! an output buffer is non-empty — which is what makes an idle connection
//! genuinely free: no timer, no speculative read, no wakeup.
//!
//! Platform notes: on Linux this is `epoll_create1`/`epoll_ctl`/
//! `epoll_wait` declared directly against libc (std already links it; the
//! same technique as the server's `signal(2)` handler). `epoll_event` is
//! `repr(C, packed)` on x86-64 only — a kernel ABI quirk worth spelling
//! out because getting it wrong corrupts every second event. The module
//! exists on Unix only: off Unix, `Server::run` reports the platform
//! unsupported before any poller is built.

#![allow(unsafe_code)]

pub use sys::Poller;

/// What a registration wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd has bytes to read (or EOF to observe).
    pub readable: bool,
    /// The fd can accept writes.
    pub writable: bool,
    /// The peer hung up or the fd errored; the owner should read to EOF
    /// or close.
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::c_int;
    use std::time::Duration;

    // epoll_event carries a 32-bit mask and a 64-bit user datum. On
    // x86-64 the kernel ABI declares it packed (12 bytes, no padding);
    // every other architecture uses natural alignment (16 bytes).
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }
    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

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

    fn mask(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP;
        if interest.read {
            m |= EPOLLIN;
        }
        if interest.write {
            m |= EPOLLOUT;
        }
        m
    }

    /// The readiness poller: level-triggered, token-addressed, std-only.
    pub struct Poller {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        /// A poller sized for roughly `capacity` simultaneous registrations
        /// (a hint for the per-wait event buffer, not a limit).
        ///
        /// # Errors
        /// The underlying syscall error.
        pub fn new(capacity: usize) -> io::Result<Self> {
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Self {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; capacity.max(64)],
            })
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
        }

        /// Start watching `fd` under `token` with the given interest.
        ///
        /// # Errors
        /// The underlying syscall error (e.g. an already-registered fd).
        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        /// Change the interest set (and token) of a registered fd.
        ///
        /// # Errors
        /// The underlying syscall error (e.g. an unregistered fd).
        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        /// Stop watching `fd`. Must be called *before* closing the fd —
        /// epoll auto-deregisters on close, but only once every duplicate
        /// descriptor is gone, and relying on that invites stale events.
        ///
        /// # Errors
        /// The underlying syscall error.
        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
        }

        /// Block until at least one registered fd is ready or `timeout`
        /// elapses (`None` blocks indefinitely), appending readiness
        /// reports to `out`. A signal interruption returns `Ok` with no
        /// events.
        ///
        /// # Errors
        /// The underlying syscall error.
        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let ms: c_int = match timeout {
                None => -1,
                Some(d) => d.as_millis().min(i32::MAX as u128) as c_int,
            };
            // EINTR is surfaced as an empty wait (a plain timer tick);
            // the caller's loop comes straight back here.
            let n = match cvt(unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_int,
                    ms,
                )
            }) {
                Ok(n) => n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(()),
                Err(e) => return Err(e),
            };
            for ev in &self.buf[..n] {
                // Copy out of the (possibly packed) struct before use.
                let events = ev.events;
                let data = ev.data;
                out.push(Event {
                    token: data,
                    readable: events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: events & EPOLLOUT != 0,
                    hangup: events & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::{Event, Interest};
    use std::collections::BTreeMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_short};
    use std::time::Duration;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: c_int) -> c_int;
    }

    /// The readiness poller on Unix without epoll: `poll(2)`, O(n) per
    /// wait, fine for the connection counts a non-Linux dev box sees;
    /// production-scale serving targets Linux. Same contract as the epoll
    /// backend.
    pub struct Poller {
        registered: BTreeMap<RawFd, (u64, Interest)>,
    }

    impl Poller {
        /// A poller; `capacity` is only a hint, unused here.
        pub fn new(_capacity: usize) -> io::Result<Self> {
            Ok(Self {
                registered: BTreeMap::new(),
            })
        }

        /// Start watching `fd` under `token` with the given interest.
        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.registered.insert(fd, (token, interest));
            Ok(())
        }

        /// Change the interest set (and token) of a registered fd.
        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.registered.insert(fd, (token, interest));
            Ok(())
        }

        /// Stop watching `fd` (before closing it).
        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.registered.remove(&fd);
            Ok(())
        }

        /// Block until at least one registered fd is ready or `timeout`
        /// elapses, appending readiness reports to `out`; a signal
        /// interruption returns `Ok` with no events.
        ///
        /// # Errors
        /// The underlying syscall error.
        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let mut fds: Vec<PollFd> = self
                .registered
                .iter()
                .map(|(&fd, &(_, interest))| PollFd {
                    fd,
                    events: if interest.read { POLLIN } else { 0 }
                        | if interest.write { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            let ms: c_int = match timeout {
                None => -1,
                Some(d) => d.as_millis().min(i32::MAX as u128) as c_int,
            };
            let ret = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, ms) };
            if ret < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for pfd in &fds {
                if pfd.revents == 0 {
                    continue;
                }
                let (token, _) = self.registered[&pfd.fd];
                out.push(Event {
                    token,
                    readable: pfd.revents & (POLLIN | POLLHUP) != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    hangup: pfd.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    impl Interest {
        /// Read + write interest (the event loop builds its interest sets
        /// field by field; only these tests want the constant).
        const READ_WRITE: Interest = Interest {
            read: true,
            write: true,
        };
    }

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let a = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        a.set_nonblocking(true).expect("nonblocking");
        b.set_nonblocking(true).expect("nonblocking");
        (a, b)
    }

    #[test]
    fn reports_readable_when_bytes_arrive_and_idle_otherwise() {
        let (mut a, b) = pair();
        let mut poller = Poller::new(8).expect("poller");
        poller
            .register(b.as_raw_fd(), 7, Interest::READ)
            .expect("register");
        // Idle: a short wait returns no events.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert!(events.is_empty(), "idle fd produced events: {events:?}");
        // Bytes arrive: readable under the registered token.
        a.write_all(b"x").expect("write");
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
    }

    #[test]
    fn write_interest_is_level_triggered_and_modifiable() {
        let (a, mut b) = pair();
        let mut poller = Poller::new(8).expect("poller");
        poller
            .register(b.as_raw_fd(), 1, Interest::READ_WRITE)
            .expect("register");
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .expect("wait");
        assert!(
            events.iter().any(|e| e.token == 1 && e.writable),
            "fresh socket should be writable: {events:?}"
        );
        // Drop write interest: an idle socket goes quiet again.
        poller
            .modify(b.as_raw_fd(), 1, Interest::READ)
            .expect("modify");
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert!(events.is_empty(), "read-only idle fd woke: {events:?}");
        // EOF reports as readable (read() will observe 0).
        drop(a);
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .expect("wait");
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        let mut sink = [0u8; 8];
        assert_eq!(b.read(&mut sink).expect("eof read"), 0);
    }

    #[test]
    fn deregistered_fds_stop_reporting() {
        let (mut a, b) = pair();
        let mut poller = Poller::new(8).expect("poller");
        poller
            .register(b.as_raw_fd(), 3, Interest::READ)
            .expect("register");
        poller.deregister(b.as_raw_fd()).expect("deregister");
        a.write_all(b"x").expect("write");
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .expect("wait");
        assert!(events.is_empty(), "deregistered fd woke: {events:?}");
    }
}
