//! A minimal client connection speaking the server's frame protocol
//! (`<len>\n<json>\n`), with the raw payloads exposed so the hot loop
//! never parses a reply it does not check.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use plt_serve::decode::{encode_frame, FrameDecoder};
use plt_serve::json::Json;

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    decoder: FrameDecoder,
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
        Ok(Conn {
            writer: stream,
            reader,
            decoder: FrameDecoder::with_default_limit(),
        })
    }

    /// Negotiates the envelope version for this connection.
    pub fn hello(&mut self, version: u64) -> std::io::Result<()> {
        let reply = self.call(&format!("{{\"op\":\"hello\",\"version\":{version}}}"))?;
        if !is_ok(&reply) {
            return Err(std::io::Error::other(format!("hello refused: {reply}")));
        }
        Ok(())
    }

    pub fn send(&mut self, payload: &str) -> std::io::Result<()> {
        self.writer.write_all(&encode_frame(payload))
    }

    /// Blocks for the next reply frame.
    pub fn recv(&mut self) -> std::io::Result<String> {
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                return Ok(frame);
            }
            let got = {
                let buf = fill(&mut self.reader)?;
                self.decoder.push(buf);
                buf.len()
            };
            self.reader.consume(got);
        }
    }

    /// Waits at most `timeout` for the next reply frame. The wait is a
    /// `ppoll`, which sleeps on a high-resolution timer: a socket read
    /// timeout would round sub-millisecond waits up to a scheduler tick
    /// and make the open loop send late.
    pub fn recv_timeout(&mut self, timeout: Duration) -> std::io::Result<Option<String>> {
        if let Some(frame) = self.decoder.next_frame()? {
            return Ok(Some(frame));
        }
        // Every filled buffer is consumed whole, so readiness of the
        // socket is readiness of the next bytes.
        if !readable(self.reader.get_ref(), timeout)? {
            return Ok(None);
        }
        let got = {
            let buf = fill(&mut self.reader)?;
            self.decoder.push(buf);
            buf.len()
        };
        self.reader.consume(got);
        self.decoder.next_frame()
    }

    pub fn call(&mut self, payload: &str) -> std::io::Result<String> {
        self.send(payload)?;
        self.recv()
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

const POLLIN: i16 = 0x001;

/// Whether `stream` has bytes (or a hang-up) to read within `timeout`.
fn readable(stream: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
    use std::os::fd::AsRawFd;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid out (`struct pollfd`
    // and `struct timespec` on 64-bit Linux) for the whole call, `nfds`
    // is 1 to match the single entry, and a null sigmask leaves the
    // signal mask unchanged.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match n {
        n if n > 0 => Ok(true),
        0 => Ok(false),
        _ => {
            let e = std::io::Error::last_os_error();
            if e.kind() == std::io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}

/// `fill_buf` that turns a closed connection into an error.
fn fill(reader: &mut BufReader<TcpStream>) -> std::io::Result<&[u8]> {
    let buf = reader.fill_buf()?;
    if buf.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    Ok(buf)
}

/// Cheap success test on a raw reply in either envelope: v1 replies open
/// with `{"ok":true`, v2 replies carry `"status":"ok"` near the front.
pub fn is_ok(raw: &str) -> bool {
    raw.starts_with("{\"ok\":true") || raw.starts_with("{\"v\":2,\"status\":\"ok\"")
}

/// Parses a reply of either envelope into the flat v1 shape.
pub fn parse_flat(raw: &str) -> Option<Json> {
    let v = Json::parse(raw).ok()?;
    Some(plt_serve::proto::flatten_v2(&v).unwrap_or(v))
}

/// Reads a `u64` field of a flat reply.
pub fn field_u64(reply: &Json, key: &str) -> Option<u64> {
    reply.get(key).and_then(Json::as_u64)
}
