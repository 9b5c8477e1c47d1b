//! A real front door: the same frames over `std::net` TCP.
//!
//! TCP gives reliable bytes, not frames, so both sides reassemble the
//! `[len][crc][payload]` envelope from the byte stream — the length
//! word delimits, the CRC still end-to-end-checks (a proxy or a buggy
//! peer can corrupt a frame even on TCP).  The server is a hand-rolled
//! nonblocking poll loop — no extra dependencies, no threads on the
//! serving side: one [`TcpServer::poll`] pass accepts pending
//! connections, drains every socket, pumps the session multiplexer and
//! flushes responses — as far as each kernel buffer takes them, the rest
//! on later passes.  Clients use [`TcpTransport`] (blocking reads
//! with a short timeout) under the ordinary exactly-once
//! [`asr_net::WireClient`].

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use asr_durable::{frame_len, Channel, FrameError, LosslessChannel, Storage};

use crate::exec::ServerDb;
use crate::session::{NetServer, PumpReport};

/// Pull one complete `[len][crc][payload]` frame off the front of
/// `buf`, if the bytes for it have all arrived.  The length word alone
/// delimits — a frame failing its CRC still reaches the session, which
/// NACKs it.  Returns `Err(())` on a length word over
/// [`asr_net::MAX_FRAME_LEN`] (protocol desync — the connection is dead;
/// waiting would stall the stream for terabytes).
fn take_frame(buf: &mut Vec<u8>) -> Result<Option<Vec<u8>>, ()> {
    match frame_len(buf, asr_net::MAX_FRAME_LEN) {
        Ok(total) => Ok(Some(buf.drain(..total).collect())),
        Err(FrameError::OverCap) => Err(()),
        Err(_) => Ok(None),
    }
}

struct Conn {
    stream: TcpStream,
    sid: usize,
    inbuf: Vec<u8>,
    /// Response bytes the kernel has not taken yet.
    outbuf: Vec<u8>,
    dead: bool,
}

impl Conn {
    /// Hand the kernel as much of `outbuf` as it takes right now; the
    /// rest waits for a later pass, so a peer that stops reading costs
    /// the other sessions nothing.
    fn flush(&mut self) {
        let mut off = 0;
        while off < self.outbuf.len() {
            match self.stream.write(&self.outbuf[off..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        self.outbuf.drain(..off);
    }

    /// Drain the socket into `inbuf`.
    fn fill(&mut self) {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
    }
}

/// A nonblocking TCP server multiplexing wire sessions onto one
/// database via an inner [`NetServer`].
pub struct TcpServer {
    listener: TcpListener,
    server: NetServer,
    conns: Vec<Conn>,
}

impl TcpServer {
    /// Bind (e.g. `"127.0.0.1:0"` for an ephemeral port) and switch the
    /// listener to nonblocking accepts.
    pub fn bind(addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(TcpServer {
            listener,
            server: NetServer::new(),
            conns: Vec::new(),
        })
    }

    /// The bound address (port resolution for ephemeral binds).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The inner session multiplexer.
    pub fn server(&self) -> &NetServer {
        &self.server
    }

    /// Live (accepted, not yet closed) connections.
    pub fn connection_count(&self) -> usize {
        self.conns.iter().filter(|c| !c.dead).count()
    }

    /// One nonblocking pass: accept pending connections, drain every
    /// socket into frames, pump each session, flush responses.
    pub fn poll<S: Storage>(&mut self, db: &mut ServerDb<'_, S>) -> io::Result<PumpReport> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(true)?;
                    stream.set_nodelay(true)?;
                    let sid = self.server.open_session();
                    db.db()
                        .tracer()
                        .metrics()
                        .inc_counter("server.tcp.accepts", 1);
                    self.conns.push(Conn {
                        stream,
                        sid,
                        inbuf: Vec::new(),
                        outbuf: Vec::new(),
                        dead: false,
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        let mut total = PumpReport::default();
        for conn in &mut self.conns {
            // Back-pressure: a peer still owed answers is not read from,
            // so what is buffered for it never exceeds the answers to one
            // pass's requests.
            if conn.outbuf.is_empty() {
                conn.fill();
                // Reassemble frames and pump them through the session.
                let (mut rx, mut tx) = (LosslessChannel::new(), LosslessChannel::new());
                loop {
                    match take_frame(&mut conn.inbuf) {
                        Ok(Some(frame)) => rx.send(frame),
                        Ok(None) => break,
                        Err(()) => {
                            conn.dead = true;
                            break;
                        }
                    }
                }
                let report = self.server.pump_session(conn.sid, db, &mut rx, &mut tx);
                total.executed += report.executed;
                total.replayed += report.replayed;
                total.nacked += report.nacked;
                total.dropped_stale += report.dropped_stale;
                while let Some(frame) = tx.recv() {
                    conn.outbuf.extend_from_slice(&frame);
                }
            }
            conn.flush();
            if conn.outbuf.is_empty() && !self.server.session_open(conn.sid) {
                conn.dead = true;
            }
        }
        self.conns.retain(|c| !c.dead);
        Ok(total)
    }

    /// Serve until at least one session has been opened and every
    /// session has shut down (the `\serve` loop).  Polls with a short
    /// sleep so an idle server doesn't spin a core.
    pub fn serve_until_shutdown<S: Storage>(
        &mut self,
        db: &mut ServerDb<'_, S>,
    ) -> io::Result<PumpReport> {
        let mut total = PumpReport::default();
        loop {
            let report = self.poll(db)?;
            total.executed += report.executed;
            total.replayed += report.replayed;
            total.nacked += report.nacked;
            total.dropped_stale += report.dropped_stale;
            let all_closed = (0..self.server.session_count()).all(|s| !self.server.session_open(s));
            if self.server.session_count() > 0 && all_closed && self.conns.is_empty() {
                return Ok(total);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Client-side TCP channel for [`asr_net::WireClient`]: blocking reads
/// with a short timeout, so `recv` waits briefly for the response
/// instead of spinning the retry loop dry.
pub struct TcpTransport {
    stream: TcpStream,
    inbuf: Vec<u8>,
}

impl TcpTransport {
    /// Connect and arm the read timeout.
    pub fn connect(addr: &SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_millis(200)))?;
        stream.set_nodelay(true)?;
        Ok(TcpTransport {
            stream,
            inbuf: Vec::new(),
        })
    }
}

impl Channel for TcpTransport {
    fn send(&mut self, frame: Vec<u8>) {
        // Delivery failures surface as a missing response; the wire
        // client retries.
        let _ = self.stream.write_all(&frame);
        let _ = self.stream.flush();
    }

    fn recv(&mut self) -> Option<Vec<u8>> {
        if let Ok(Some(frame)) = take_frame(&mut self.inbuf) {
            return Some(frame);
        }
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    match take_frame(&mut self.inbuf) {
                        Ok(Some(frame)) => return Some(frame),
                        Ok(None) => continue,
                        Err(()) => return None,
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return None;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_reassembly_handles_partial_and_garbage() {
        let payload = b"hello".to_vec();
        let frame = asr_durable::frame(&payload);
        let mut buf = Vec::new();
        buf.extend_from_slice(&frame[..6]);
        assert_eq!(take_frame(&mut buf), Ok(None));
        buf.extend_from_slice(&frame[6..]);
        assert_eq!(take_frame(&mut buf), Ok(Some(frame.clone())));
        assert!(buf.is_empty());
        // Two frames back to back come out one at a time.
        buf.extend_from_slice(&frame);
        buf.extend_from_slice(&frame);
        assert_eq!(take_frame(&mut buf), Ok(Some(frame.clone())));
        assert_eq!(take_frame(&mut buf), Ok(Some(frame)));
        // A ridiculous length word is a desync.
        let mut garbage = (u32::MAX).to_le_bytes().to_vec();
        garbage.extend_from_slice(&[0u8; 8]);
        assert_eq!(take_frame(&mut garbage), Err(()));
    }
}
