//! The served system as a client sees it: an `awesym serve --listen`
//! child process and a blocking connection that speaks both encodings.

use awesym_serve::encode::{BINARY_HEADER_LEN, BINARY_MAGIC, FLAG_HAS_ID};
use serde::Content;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a child gets to exit after `shutdown` before it is killed.
const EXIT_GRACE: Duration = Duration::from_secs(10);

/// An `awesym serve --listen 127.0.0.1:0` child in its default
/// configuration.
pub struct ServerProc {
    child: Child,
    /// The bound loopback address the child reported.
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Spawns the server and waits for its `listening on ADDR` line.
    pub fn spawn(bin: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(a) = line.strip_prefix("listening on ") {
                        break a.trim().parse::<SocketAddr>().ok();
                    }
                }
                _ => break None,
            }
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server exited before reporting its address".into());
        };
        // Keep draining stderr so the child can never block on it.
        let stderr = std::thread::spawn(move || lines.for_each(drop));
        Ok(ServerProc {
            child,
            addr,
            stderr: Some(stderr),
        })
    }

    /// Opens a client connection.
    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(self.addr)
    }

    /// Peak resident set (`VmHWM`) of the child, in KiB.
    pub fn vm_hwm_kib(&self) -> Result<u64, String> {
        vm_hwm_kib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Sends `shutdown` and waits for the child to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let sent = self.connect().and_then(|mut c| {
            c.send(b"{\"cmd\":\"shutdown\"}\n")?;
            c.read_message().map(|_| ())
        });
        let exited = self.wait_exit();
        sent.and(exited)
    }

    fn wait_exit(&mut self) -> Result<(), String> {
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    if let Some(h) = self.stderr.take() {
                        let _ = h.join();
                    }
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("server exited with {status}"))
                    };
                }
                Ok(None) if t0.elapsed() < EXIT_GRACE => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    if let Some(h) = self.stderr.take() {
                        let _ = h.join();
                    }
                    return Err("server did not exit after shutdown".into());
                }
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if self.stderr.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(h) = self.stderr.take() {
                let _ = h.join();
            }
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in KiB.
pub fn vm_hwm_kib(status_path: &str) -> Result<u64, String> {
    let text = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{status_path}: no VmHWM line"))
}

/// A blocking client connection. Responses are NDJSON lines or binary
/// `AWSB` frames, told apart by their first bytes.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes written so far.
    pub bytes_out: u64,
    /// Bytes read so far.
    pub bytes_in: u64,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(60))))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 18),
            bytes_out: 0,
            bytes_in: 0,
        })
    }

    /// Writes one request (a newline-terminated line or a frame).
    pub fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(bytes)
            .map_err(|e| format!("send: {e}"))?;
        self.bytes_out += bytes.len() as u64;
        Ok(())
    }

    /// Sends one NDJSON line (the newline is added).
    pub fn send_line(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.send(&bytes)
    }

    fn fill(&mut self) -> Result<(), String> {
        let at = self.buf.len();
        self.buf.resize(at + (64 << 10), 0);
        let n = self
            .stream
            .read(&mut self.buf[at..])
            .map_err(|e| format!("receive: {e}"))?;
        self.buf.truncate(at + n);
        if n == 0 {
            return Err("server closed the connection".into());
        }
        self.bytes_in += n as u64;
        Ok(())
    }

    /// Length of the complete message at the front of the buffer, if
    /// one has arrived (a frame's length, or a line's including `\n`).
    fn message_len(&self) -> Option<usize> {
        if self.buf.len() >= 4 && self.buf[..4] == BINARY_MAGIC {
            frame_len(&self.buf).filter(|&n| self.buf.len() >= n)
        } else {
            self.buf.iter().position(|&b| b == b'\n').map(|p| p + 1)
        }
    }

    /// Reads one response into a fresh buffer: a whole binary frame, or
    /// one line without its newline.
    pub fn read_message(&mut self) -> Result<Vec<u8>, String> {
        let mut out = Vec::new();
        self.read_message_into(&mut out)?;
        Ok(out)
    }

    /// As [`Conn::read_message`], into a reused buffer.
    pub fn read_message_into(&mut self, out: &mut Vec<u8>) -> Result<(), String> {
        let n = loop {
            if let Some(n) = self.message_len() {
                break n;
            }
            self.fill()?;
        };
        out.clear();
        let body = if self.buf[n - 1] == b'\n' && !is_frame(&self.buf) {
            n - 1
        } else {
            n
        };
        out.extend_from_slice(&self.buf[..body]);
        self.buf.drain(..n);
        Ok(())
    }

    /// Sends one line and returns the parsed JSON response.
    pub fn call_json(&mut self, line: &str) -> Result<Content, String> {
        self.send_line(line)?;
        let resp = self.read_message()?;
        let text = std::str::from_utf8(&resp).map_err(|_| "response is not UTF-8".to_string())?;
        serde_json::from_str(text).map_err(|e| format!("response is not JSON ({e})"))
    }
}

/// True when `bytes` starts with a binary response frame.
pub fn is_frame(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == BINARY_MAGIC
}

fn le_u32(b: &[u8], at: usize) -> usize {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]) as usize
}

/// Total length of the binary response frame at the front of `buf`, once
/// enough of its header has arrived.
pub fn frame_len(buf: &[u8]) -> Option<usize> {
    if buf.len() < BINARY_HEADER_LEN {
        return None;
    }
    let flags = u16::from_le_bytes([buf[6], buf[7]]);
    let (count, cols) = (le_u32(buf, 8), le_u32(buf, 12));
    let id_section = if flags & FLAG_HAS_ID != 0 {
        if buf.len() < BINARY_HEADER_LEN + 4 {
            return None;
        }
        4 + le_u32(buf, BINARY_HEADER_LEN)
    } else {
        0
    };
    Some(BINARY_HEADER_LEN + id_section + count + 8 * count * cols)
}

/// A frame header's `(count, ok_count)`.
pub fn frame_counts(frame: &[u8]) -> (usize, usize) {
    (le_u32(frame, 8), le_u32(frame, 16))
}

/// How one response came back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered with every point evaluated.
    Ok,
    /// Answered with an error, or with failed points.
    Failed,
    /// Refused by admission control (`overloaded` or `unavailable`).
    Refused,
}

/// Classifies a response: a frame is ok when `ok_count == count`; an
/// NDJSON line is ok when `"ok":true`.
pub fn classify(resp: &[u8]) -> Outcome {
    if is_frame(resp) {
        let (count, ok) = frame_counts(resp);
        return if ok == count {
            Outcome::Ok
        } else {
            Outcome::Failed
        };
    }
    if resp.starts_with(b"{\"ok\":true") {
        return Outcome::Ok;
    }
    let text = String::from_utf8_lossy(resp);
    if text.contains("\"code\":\"overloaded\"") || text.contains("\"code\":\"unavailable\"") {
        Outcome::Refused
    } else {
        Outcome::Failed
    }
}

/// Zeroes the timing fields of a response so two runs of the same
/// request compare byte for byte: `elapsed_ns` in a binary frame,
/// `elapsed_secs` and `points_per_sec` in an NDJSON line.
pub fn mask_timing(resp: &[u8]) -> Vec<u8> {
    let mut out = resp.to_vec();
    if is_frame(&out) {
        out[20..28].fill(0);
        return out;
    }
    let mut s = String::from_utf8_lossy(&out).into_owned();
    for key in ["\"elapsed_secs\":", "\"points_per_sec\":"] {
        let mut from = 0;
        while let Some(rel) = s[from..].find(key) {
            let start = from + rel + key.len();
            let end = s[start..].find([',', '}']).map_or(s.len(), |d| start + d);
            s.replace_range(start..end, "0");
            from = start;
        }
    }
    s.into_bytes()
}
