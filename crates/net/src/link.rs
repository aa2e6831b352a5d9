//! Byte-stream links the hub and clients speak over: real `TcpStream`s and an
//! in-process [`MemoryLink`] twin with the same blocking-read-with-timeout
//! semantics, so every transport test can run deterministically offline.
//!
//! A link is split into a [`LinkReader`] and a [`LinkWriter`] because the two
//! halves live on different threads: the hub's per-connection reader thread
//! owns the read half, the dispatcher thread owns the write half.

use std::collections::VecDeque;
use std::io;
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// The read half of a connection. `recv` follows `Read::read` semantics —
/// `Ok(0)` is end-of-stream — plus a poll tick: when no bytes arrive within
/// the configured receive timeout it fails with `WouldBlock`/`TimedOut`, so a
/// reader loop can interleave shutdown and idle checks with blocking reads.
pub trait LinkReader: Send + 'static {
    /// Read available bytes into `buf`; `Ok(0)` means the peer closed.
    fn recv(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Maximum time one `recv` may block before returning `WouldBlock`.
    fn set_recv_timeout(&mut self, timeout: Duration) -> io::Result<()>;
}

/// The write half of a connection.
pub trait LinkWriter: Send + 'static {
    /// Write all of `bytes` (blocking, honouring any configured write timeout).
    fn send_all(&mut self, bytes: &[u8]) -> io::Result<()>;
}

impl LinkReader for TcpStream {
    fn recv(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        io::Read::read(self, buf)
    }

    fn set_recv_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        // A zero Duration would mean "no timeout" to the socket API; clamp so
        // the poll-tick contract survives.
        self.set_read_timeout(Some(timeout.max(Duration::from_millis(1))))
    }
}

impl LinkWriter for TcpStream {
    fn send_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        io::Write::write_all(self, bytes)
    }
}

/// One direction of an in-process duplex: a byte queue plus close flag,
/// shared by exactly one writer and one reader.
struct Pipe {
    state: Mutex<PipeState>,
    arrived: Condvar,
}

struct PipeState {
    data: VecDeque<u8>,
    closed: bool,
}

impl Pipe {
    fn new() -> Arc<Pipe> {
        Arc::new(Pipe {
            state: Mutex::new(PipeState {
                data: VecDeque::new(),
                closed: false,
            }),
            arrived: Condvar::new(),
        })
    }

    fn push(&self, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.closed {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        state.data.extend(bytes);
        self.arrived.notify_all();
        Ok(())
    }

    /// Blocking read with timeout. Buffered bytes are always delivered before
    /// end-of-stream is reported, so replies written just before a close are
    /// never lost.
    fn pull(&self, buf: &mut [u8], timeout: Duration) -> io::Result<usize> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !state.data.is_empty() {
                let n = buf.len().min(state.data.len());
                for slot in buf[..n].iter_mut() {
                    // `n <= state.data.len()` and the lock is held: n bytes are there.
                    *slot = state.data.pop_front().expect("n buffered bytes");
                }
                return Ok(n);
            }
            if state.closed {
                return Ok(0);
            }
            let (guard, wait) = self
                .arrived
                .wait_timeout(state, timeout)
                .unwrap_or_else(|e| e.into_inner());
            state = guard;
            if wait.timed_out() && state.data.is_empty() && !state.closed {
                return Err(io::ErrorKind::WouldBlock.into());
            }
        }
    }

    fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.closed = true;
        self.arrived.notify_all();
    }
}

/// One end of an in-process duplex link — the `MemoryTransport` twin of a
/// `TcpStream`. Split it into its reader/writer halves to use it.
pub struct MemoryLink {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
}

/// Create a connected pair of in-process link ends (client end, server end).
pub fn memory_duplex() -> (MemoryLink, MemoryLink) {
    let a = Pipe::new();
    let b = Pipe::new();
    (
        MemoryLink {
            rx: a.clone(),
            tx: b.clone(),
        },
        MemoryLink { rx: b, tx: a },
    )
}

impl MemoryLink {
    /// Split into the reader and writer halves (each owns its direction;
    /// dropping either half closes that direction).
    pub fn split(self) -> (MemoryReader, MemoryWriter) {
        (
            MemoryReader {
                pipe: self.rx,
                timeout: Duration::from_millis(5),
            },
            MemoryWriter { pipe: self.tx },
        )
    }
}

/// Read half of a [`MemoryLink`].
pub struct MemoryReader {
    pipe: Arc<Pipe>,
    timeout: Duration,
}

/// Write half of a [`MemoryLink`].
pub struct MemoryWriter {
    pipe: Arc<Pipe>,
}

impl LinkReader for MemoryReader {
    fn recv(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.pipe.pull(buf, self.timeout)
    }

    fn set_recv_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        self.timeout = timeout.max(Duration::from_micros(100));
        Ok(())
    }
}

impl LinkWriter for MemoryWriter {
    fn send_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.pipe.push(bytes)
    }
}

impl Drop for MemoryReader {
    fn drop(&mut self) {
        self.pipe.close();
    }
}

impl Drop for MemoryWriter {
    fn drop(&mut self) {
        self.pipe.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_duplex_moves_bytes_both_ways() {
        let (client, server) = memory_duplex();
        let (mut cr, mut cw) = client.split();
        let (mut sr, mut sw) = server.split();
        cw.send_all(b"ping").unwrap();
        sw.send_all(b"pong").unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(sr.recv(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"ping");
        assert_eq!(cr.recv(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"pong");
    }

    #[test]
    fn buffered_bytes_survive_a_close_then_eof() {
        let (client, server) = memory_duplex();
        let (mut cr, _cw) = client.split();
        let (_sr, mut sw) = server.split();
        sw.send_all(b"last words").unwrap();
        drop(sw); // server closes its write half
        let mut buf = [0u8; 4];
        assert_eq!(cr.recv(&mut buf).unwrap(), 4);
        assert_eq!(&buf, b"last");
        let mut rest = [0u8; 16];
        assert_eq!(cr.recv(&mut rest).unwrap(), 6);
        assert_eq!(&rest[..6], b" words");
        assert_eq!(
            cr.recv(&mut rest).unwrap(),
            0,
            "EOF only after the buffer drains"
        );
    }

    #[test]
    fn idle_recv_times_out_with_would_block() {
        let (client, _server) = memory_duplex();
        let (mut cr, _cw) = client.split();
        cr.set_recv_timeout(Duration::from_millis(1)).unwrap();
        let mut buf = [0u8; 4];
        let err = cr.recv(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn writing_to_a_dropped_reader_is_broken_pipe() {
        let (client, server) = memory_duplex();
        let (sr, _sw) = server.split();
        drop(sr);
        let (_cr, mut cw) = client.split();
        let err = cw.send_all(b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }
}
