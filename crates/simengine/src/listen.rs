//! The accept, drain and join path shared by every networked component.
//!
//! Both network planes — the `dt-serve` planner daemon and the
//! `dt-preprocess` data plane — serve blocking sessions, one thread per
//! connection. A [`Listener`] owns everything around the session body:
//!
//! * **Accept.** One thread blocks in `accept` and calls the plane's
//!   `open` hook with the connection's index, counted from 0 over accepted
//!   connections. The hook returns the session thread's name and its body.
//!   An accept error (`EMFILE` under a flood of idle connections, say) is
//!   skipped after a short fixed pause; it uses up no index, so session
//!   seeds derived from the index never shift.
//! * **Reap.** The listener keeps a clone of every live session's socket
//!   and its join handle, and joins finished sessions as it accepts.
//! * **Stop.** A [`Stop`] is a flag plus a self-connect that wakes the
//!   accept thread. A session may hold a clone, to read it or to trigger
//!   it (the daemon's wire `Shutdown` request).
//! * **Drain.** Once stopped, the accept thread shuts down the half of
//!   every live socket the plane chose — the read half, so in-flight
//!   replies still go out, or both — and joins every session.
//! * **Panic.** A body that unwinds is caught on its session thread, and
//!   the socket is shut down both ways, so the peer sees EOF at once and
//!   not at the drain. [`Listener::join`] reports that a session panicked.
//!
//! Dropping a [`Listener`] stops and joins it, so an early return that
//! drops one releases its thread and its port.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How long the accept loop pauses after an accept error before it
/// accepts again: long enough for sessions to release descriptors, short
/// against any client's connect timeout.
const ACCEPT_RETRY_PAUSE: Duration = Duration::from_millis(10);

/// The stop handle of one listener: a flag, and the listener's address
/// to self-connect to so the accept thread wakes and sees it.
#[derive(Debug, Clone)]
pub struct Stop {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl Stop {
    /// A stop handle for the listener bound at `addr`.
    pub fn new(addr: SocketAddr) -> Stop {
        Stop {
            flag: Arc::new(AtomicBool::new(false)),
            addr,
        }
    }

    /// Whether a stop has begun.
    pub fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Begin a stop: set the flag, then wake the accept thread. Idempotent.
    pub fn set(&self) {
        if !self.flag.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// A running accept thread and the sessions it spawned. Dropping it (or
/// calling [`Listener::shutdown`]) stops, drains and joins it.
#[derive(Debug)]
pub struct Listener {
    stop: Stop,
    accept: Option<JoinHandle<bool>>,
    /// Whether no session panicked, once the accept thread is joined.
    clean: bool,
}

impl Listener {
    /// Serve `tcp` on an accept thread named `name`. Each accepted
    /// connection gets `open(index)`'s body on a thread of the name it
    /// returns. `stop` must be [`Stop::new`] of `tcp`'s local address; at
    /// drain the listener shuts down the `drain` half of every live socket.
    pub fn spawn<F, B>(
        tcp: TcpListener,
        stop: Stop,
        name: String,
        drain: Shutdown,
        mut open: F,
    ) -> io::Result<Listener>
    where
        F: FnMut(u64) -> (String, B) + Send + 'static,
        B: FnOnce(&TcpStream) + Send + 'static,
    {
        let accept_stop = stop.clone();
        let accept = thread::Builder::new()
            .name(name)
            .spawn(move || accept_loop(tcp.incoming(), &accept_stop, drain, &mut open))?;
        Ok(Listener {
            stop,
            accept: Some(accept),
            clean: true,
        })
    }

    /// Wait for the accept thread, which ends only after a stop and its
    /// drain. Returns `true` when no session panicked. Idempotent.
    pub fn join(&mut self) -> bool {
        if let Some(accept) = self.accept.take() {
            self.clean = accept.join().unwrap_or(false);
        }
        self.clean
    }

    /// Stop accepting, drain and join every session; see [`Listener::join`].
    pub fn shutdown(&mut self) -> bool {
        self.stop.set();
        self.join()
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accept from `conns` until `stop` is set, then drain. Returns `true`
/// when no session panicked.
fn accept_loop<F, B>(
    conns: impl Iterator<Item = io::Result<TcpStream>>,
    stop: &Stop,
    drain: Shutdown,
    open: &mut F,
) -> bool
where
    F: FnMut(u64) -> (String, B),
    B: FnOnce(&TcpStream) + Send + 'static,
{
    // Each live session: a socket clone to shut down at drain, and its
    // thread, which returns whether the body panicked.
    let mut live: Vec<(TcpStream, JoinHandle<bool>)> = Vec::new();
    let mut clean = true;
    let mut index = 0u64;
    for conn in conns {
        if stop.is_set() {
            break;
        }
        for (_, h) in live.extract_if(.., |(_, h)| h.is_finished()) {
            clean &= matches!(h.join(), Ok(false));
        }
        let Ok(stream) = conn else {
            thread::sleep(ACCEPT_RETRY_PAUSE);
            continue;
        };
        let (name, body) = open(index);
        index += 1;
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        let spawned = thread::Builder::new().name(name).spawn(move || {
            let unwound = panic::catch_unwind(AssertUnwindSafe(|| body(&stream))).is_err();
            // The accept thread's clone keeps the fd open: shut down here
            // so the peer sees EOF as soon as the session ends.
            let _ = stream.shutdown(Shutdown::Both);
            unwound
        });
        if let Ok(h) = spawned {
            live.push((clone, h));
        }
    }
    for (stream, _) in &live {
        let _ = stream.shutdown(drain);
    }
    live.into_iter().fold(clean, |clean, (_, h)| {
        matches!(h.join(), Ok(false)) && clean
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::Mutex;

    fn bind() -> (TcpListener, Stop) {
        let tcp = TcpListener::bind("127.0.0.1:0").unwrap();
        let stop = Stop::new(tcp.local_addr().unwrap());
        (tcp, stop)
    }

    /// Read one byte, bounded by a timeout: `None` at EOF.
    fn read_byte(stream: &mut TcpStream) -> Option<u8> {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut byte = [0u8; 1];
        match stream.read(&mut byte).expect("read within the timeout") {
            0 => None,
            _ => Some(byte[0]),
        }
    }

    #[test]
    fn an_accept_error_is_skipped_without_using_an_index() {
        let (tcp, stop) = bind();
        let opened = Mutex::new(Vec::new());
        // Assert only after the stop, so a failure ends the scope, not hangs it.
        let (served, clean) = thread::scope(|s| {
            let accept = s.spawn(|| {
                let conns = std::iter::once(Err(io::Error::other("EMFILE"))).chain(tcp.incoming());
                accept_loop(conns, &stop, Shutdown::Both, &mut |index| {
                    opened.lock().unwrap().push(index);
                    let body = move |mut stream: &TcpStream| {
                        stream.write_all(&[index as u8 + 1]).unwrap();
                    };
                    ("listen-test".to_string(), body)
                })
            });
            let mut client = TcpStream::connect(stop.addr).unwrap();
            let served = read_byte(&mut client);
            stop.set();
            (served, accept.join().unwrap())
        });
        assert_eq!(served, Some(1), "session 0 was served");
        assert!(clean);
        assert_eq!(*opened.lock().unwrap(), [0], "the error used no index");
    }

    #[test]
    fn a_panicking_session_closes_its_peer_and_is_reported() {
        let (tcp, stop) = bind();
        let addr = stop.addr;
        let mut listener = Listener::spawn(tcp, stop, "listen-test".into(), Shutdown::Read, |_| {
            let body = |_: &TcpStream| panic!("the session body fails");
            ("listen-test-session".to_string(), body)
        })
        .unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        assert_eq!(read_byte(&mut client), None, "the peer sees EOF");
        assert!(!listener.shutdown(), "the join reports the panic");
        assert!(!listener.join(), "and keeps reporting it");
    }

    #[test]
    fn dropping_an_unstopped_listener_joins_it_and_frees_its_port() {
        let (tcp, stop) = bind();
        let addr = stop.addr;
        let drained = Arc::new(AtomicBool::new(false));
        let seen = drained.clone();
        let listener =
            Listener::spawn(tcp, stop, "listen-test".into(), Shutdown::Both, move |_| {
                let drained = seen.clone();
                let body = move |mut stream: &TcpStream| {
                    stream.write_all(b"!").unwrap();
                    let _ = stream.read(&mut [0u8; 1]);
                    drained.store(true, Ordering::SeqCst);
                };
                ("listen-test-session".to_string(), body)
            })
            .unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        assert_eq!(read_byte(&mut client), Some(b'!'), "the session is live");
        drop(listener);
        assert!(
            drained.load(Ordering::SeqCst),
            "drop drained and joined the session"
        );
        assert!(
            TcpStream::connect(addr).is_err(),
            "the port refuses connections"
        );
    }
}
