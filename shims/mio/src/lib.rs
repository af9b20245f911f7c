//! Offline stand-in for `mio`.
//!
//! Implements the subset the `flips-net` event loop uses: a [`Poll`] /
//! [`Registry`] pair over Linux `epoll`, [`Token`]-keyed registration of
//! anything [`AsRawFd`], [`Interest`] flags, and an [`Events`] buffer.
//! Unlike upstream mio this shim is **level-triggered** (no `EPOLLET`):
//! every consumer in this workspace drains its sockets to `WouldBlock`
//! on each readiness callback, and level triggering removes the whole
//! missed-edge class of bugs for no throughput cost at this scale.
//!
//! On non-Linux targets the shim degrades to a portable stub that
//! reports every registered token as ready after a short sleep — a
//! correct (if busy) schedule for the readiness loops built on it, so
//! the workspace still builds and tests off-Linux.

use std::io;
use std::os::unix::io::AsRawFd;
use std::time::Duration;

/// An opaque registration key, echoed back on every readiness event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub usize);

/// Readiness interest: readable, writable, or both (combine with `|`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// Interest in read readiness.
    pub const READABLE: Interest = Interest(0b01);
    /// Interest in write readiness.
    pub const WRITABLE: Interest = Interest(0b10);

    /// Whether read readiness is requested.
    pub fn is_readable(self) -> bool {
        self.0 & 0b01 != 0
    }

    /// Whether write readiness is requested.
    pub fn is_writable(self) -> bool {
        self.0 & 0b10 != 0
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        Interest(self.0 | rhs.0)
    }
}

/// One readiness event: which token, and what it is ready for.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    token: Token,
    readable: bool,
    writable: bool,
    closed: bool,
}

impl Event {
    /// The token the ready source was registered with.
    pub fn token(&self) -> Token {
        self.token
    }

    /// Whether the source is ready for reading (includes hangup/error —
    /// a read will surface the condition instead of blocking).
    pub fn is_readable(&self) -> bool {
        self.readable || self.closed
    }

    /// Whether the source is ready for writing.
    pub fn is_writable(&self) -> bool {
        self.writable
    }

    /// Whether the peer hung up or the source errored.
    pub fn is_closed(&self) -> bool {
        self.closed
    }
}

/// A reusable buffer of readiness events filled by [`Poll::poll`].
#[derive(Debug)]
pub struct Events {
    events: Vec<Event>,
    capacity: usize,
}

impl Events {
    /// A buffer receiving at most `capacity` events per poll.
    pub fn with_capacity(capacity: usize) -> Self {
        Events { events: Vec::with_capacity(capacity), capacity: capacity.max(1) }
    }

    /// The events the last poll produced.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.events.iter()
    }

    /// Whether the last poll produced no events (timeout).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events the last poll produced.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

impl<'a> IntoIterator for &'a Events {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use super::*;
    use std::os::unix::io::RawFd;

    // Raw epoll bindings. The std runtime already links libc, so
    // declaring the symbols is enough — no crates.io `libc` needed in
    // this offline workspace.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    const EPOLL_CLOEXEC: i32 = 0x80000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// Shared registration surface of a [`Poll`] (Linux: an epoll fd).
    #[derive(Debug)]
    pub struct Registry {
        epfd: RawFd,
    }

    impl Registry {
        fn epoll_mask(interest: Interest) -> u32 {
            let mut mask = EPOLLRDHUP;
            if interest.is_readable() {
                mask |= EPOLLIN;
            }
            if interest.is_writable() {
                mask |= EPOLLOUT;
            }
            mask
        }

        fn ctl(&self, op: i32, fd: RawFd, mask: u32, token: Token) -> io::Result<()> {
            let mut ev = EpollEvent { events: mask, data: token.0 as u64 };
            // SAFETY: `epoll_ctl` reads one `EpollEvent` through the
            // pointer (ignored for `EPOLL_CTL_DEL`) and keeps no
            // reference to it after returning; `ev` is a live, properly
            // initialized `#[repr(C)]` value with the kernel's
            // `struct epoll_event` layout for this call's duration. Bad
            // fds come back as an error code, not undefined behavior.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Registers `source` for `interest`, keyed by `token`.
        pub fn register(
            &self,
            source: &impl AsRawFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, source.as_raw_fd(), Self::epoll_mask(interest), token)
        }

        /// Replaces an existing registration's interest (and token).
        pub fn reregister(
            &self,
            source: &impl AsRawFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, source.as_raw_fd(), Self::epoll_mask(interest), token)
        }

        /// Removes a registration.
        pub fn deregister(&self, source: &impl AsRawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, source.as_raw_fd(), 0, Token(0))
        }
    }

    /// The readiness selector: wraps one epoll instance.
    #[derive(Debug)]
    pub struct Poll {
        registry: Registry,
    }

    impl Poll {
        /// A fresh selector.
        ///
        /// # Errors
        ///
        /// Surfaces `epoll_create1` failure (fd exhaustion).
        pub fn new() -> io::Result<Poll> {
            // SAFETY: `epoll_create1` takes only a flags word and touches
            // no caller memory; failure is reported as a negative return,
            // checked below.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poll { registry: Registry { epfd } })
        }

        /// The registration surface.
        pub fn registry(&self) -> &Registry {
            &self.registry
        }

        /// Blocks until at least one registered source is ready or the
        /// timeout elapses (`None` = wait indefinitely), filling
        /// `events`. Spurious empty wake-ups are surfaced as an empty
        /// buffer, like upstream mio.
        ///
        /// # Errors
        ///
        /// Surfaces `epoll_wait` failure (other than `EINTR`, which
        /// reads as an empty poll).
        pub fn poll(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
            events.events.clear();
            let timeout_ms: i32 = match timeout {
                None => -1,
                Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
            };
            let mut raw = vec![EpollEvent { events: 0, data: 0 }; events.capacity];
            // SAFETY: `raw` is a live, initialized buffer of `raw.len()`
            // `EpollEvent`s (at least one: `Events` clamps its capacity),
            // exclusively borrowed for the call, and `maxevents` is that
            // length, so the kernel writes at most `raw.len()` entries
            // into it. The return value `n` (≤ `maxevents`) bounds the
            // slice read below; a negative `n` is handled before it.
            let n = unsafe {
                epoll_wait(self.registry.epfd, raw.as_mut_ptr(), raw.len() as i32, timeout_ms)
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for ev in &raw[..n as usize] {
                let mask = ev.events;
                events.events.push(Event {
                    token: Token(ev.data as usize),
                    readable: mask & EPOLLIN != 0,
                    writable: mask & EPOLLOUT != 0,
                    closed: mask & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poll {
        fn drop(&mut self) {
            // SAFETY: `epfd` came from `epoll_create1` in `Poll::new`, is
            // owned by this `Poll` alone (the `Registry` handed out by
            // reference cannot outlive it) and is closed exactly once,
            // here; `close` touches no caller memory.
            unsafe { close(self.registry.epfd) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::*;
    use std::sync::Mutex;

    /// Portable stub registry: remembers registrations.
    #[derive(Debug)]
    pub struct Registry {
        registered: Mutex<Vec<(i32, Token, Interest)>>,
    }

    impl Registry {
        /// Registers `source` for `interest`, keyed by `token`.
        pub fn register(
            &self,
            source: &impl AsRawFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            self.registered.lock().unwrap().push((source.as_raw_fd(), token, interest));
            Ok(())
        }

        /// Replaces an existing registration's interest (and token).
        pub fn reregister(
            &self,
            source: &impl AsRawFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            let fd = source.as_raw_fd();
            let mut reg = self.registered.lock().unwrap();
            reg.retain(|(f, _, _)| *f != fd);
            reg.push((fd, token, interest));
            Ok(())
        }

        /// Removes a registration.
        pub fn deregister(&self, source: &impl AsRawFd) -> io::Result<()> {
            let fd = source.as_raw_fd();
            self.registered.lock().unwrap().retain(|(f, _, _)| *f != fd);
            Ok(())
        }
    }

    /// Portable stub selector: reports every registration ready after a
    /// short sleep (a correct, if busy, readiness schedule).
    #[derive(Debug)]
    pub struct Poll {
        registry: Registry,
    }

    impl Poll {
        /// A fresh selector.
        pub fn new() -> io::Result<Poll> {
            Ok(Poll { registry: Registry { registered: Mutex::new(Vec::new()) } })
        }

        /// The registration surface.
        pub fn registry(&self) -> &Registry {
            &self.registry
        }

        /// Reports every registered source ready after a short sleep.
        pub fn poll(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
            events.events.clear();
            let nap = timeout.unwrap_or(Duration::from_millis(10)).min(Duration::from_millis(10));
            std::thread::sleep(nap);
            for (_, token, interest) in self.registry.registered.lock().unwrap().iter() {
                events.events.push(Event {
                    token: *token,
                    readable: interest.is_readable(),
                    writable: interest.is_writable(),
                    closed: false,
                });
                if events.events.len() >= events.capacity {
                    break;
                }
            }
            Ok(())
        }
    }
}

pub use sys::{Poll, Registry};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn tcp_pair() -> Option<(TcpStream, TcpStream)> {
        let listener = TcpListener::bind("127.0.0.1:0").ok()?;
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();
        server.set_nonblocking(true).unwrap();
        Some((client, server))
    }

    #[test]
    fn read_readiness_fires_when_bytes_arrive() {
        let Some((mut client, server)) = tcp_pair() else { return };
        let mut poll = Poll::new().unwrap();
        poll.registry().register(&server, Token(7), Interest::READABLE).unwrap();
        let mut events = Events::with_capacity(8);

        // Nothing written yet: a short poll times out empty.
        poll.poll(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty(), "spurious readiness on an idle socket");

        client.write_all(b"ping").unwrap();
        poll.poll(&mut events, Some(Duration::from_millis(1000))).unwrap();
        let ev = events.iter().find(|e| e.token() == Token(7)).expect("readiness event");
        assert!(ev.is_readable());
    }

    #[test]
    fn write_interest_reports_writable_and_reregister_narrows_it() {
        let Some((client, _server)) = tcp_pair() else { return };
        let mut poll = Poll::new().unwrap();
        poll.registry()
            .register(&client, Token(3), Interest::READABLE | Interest::WRITABLE)
            .unwrap();
        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::from_millis(1000))).unwrap();
        let ev = events.iter().find(|e| e.token() == Token(3)).expect("event");
        assert!(ev.is_writable(), "an idle socket has send-buffer space");

        // Narrow to read interest: writability must stop reporting.
        poll.registry().reregister(&client, Token(3), Interest::READABLE).unwrap();
        poll.poll(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(
            events.iter().all(|e| !e.is_writable()),
            "writable event after write interest was dropped"
        );
    }

    #[test]
    fn deregistered_sources_stop_reporting() {
        let Some((mut client, mut server)) = tcp_pair() else { return };
        let mut poll = Poll::new().unwrap();
        poll.registry().register(&server, Token(1), Interest::READABLE).unwrap();
        client.write_all(b"x").unwrap();
        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::from_millis(1000))).unwrap();
        assert!(!events.is_empty());
        let mut buf = [0u8; 8];
        let _ = server.read(&mut buf);

        poll.registry().deregister(&server).unwrap();
        client.write_all(b"y").unwrap();
        poll.poll(&mut events, Some(Duration::from_millis(20))).unwrap();
        assert!(events.iter().all(|e| e.token() != Token(1)), "deregistered socket still reported");
    }

    #[test]
    fn peer_hangup_reads_as_readable_and_closed() {
        let Some((client, server)) = tcp_pair() else { return };
        let mut poll = Poll::new().unwrap();
        poll.registry().register(&server, Token(9), Interest::READABLE).unwrap();
        drop(client);
        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::from_millis(1000))).unwrap();
        let ev = events.iter().find(|e| e.token() == Token(9)).expect("hangup event");
        assert!(ev.is_readable(), "hangup must wake a reader so it can observe EOF");
        assert!(ev.is_closed());
    }

    #[test]
    fn interest_flags_combine() {
        let both = Interest::READABLE | Interest::WRITABLE;
        assert!(both.is_readable() && both.is_writable());
        assert!(!Interest::READABLE.is_writable());
        assert!(!Interest::WRITABLE.is_readable());
    }
}
