//! A `wormhole-serve` process driven over its socket: launch, one
//! client connection, timed streamed campaign requests, and a
//! `shutdown` request whose exit status is checked.

use crate::spans;
use crate::util::Reaped;
use std::io::{self, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use wormhole_serve::proto::{read_frame, str_field, write_frame};

/// A running server and the benchmark's one connection to it.
pub struct ServeProc {
    child: Reaped,
    pid: u32,
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

/// What one campaign request returned, as seen by the client.
pub struct Reply {
    /// Request sent → `start` frame (the wait before any work begins).
    pub first_frame_ms: f64,
    /// Request sent → `report` frame.
    pub total_ms: f64,
    /// Frames received, the terminal frame included.
    pub frames: usize,
    /// Frames carrying one merged trace.
    pub trace_frames: usize,
    /// Bytes on the wire, 4-byte length prefixes included.
    pub bytes: u64,
    /// The `warm` flag of the `start` frame.
    pub warm: bool,
    /// The terminal frame (`report`, or `error`).
    pub last: String,
    /// Every frame, when the caller asked to keep them.
    pub kept: Vec<String>,
}

impl ServeProc {
    /// Launches `wormhole-serve` with its socket in `dir` and connects
    /// once the socket accepts.
    pub fn launch(bins: &Path, dir: &Path, seed: u64) -> io::Result<ServeProc> {
        let child = Command::new(bins.join("wormhole-serve"))
            .args(["--socket", "serve.sock", "--history", "1", "--seed"])
            .arg(seed.to_string())
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()?;
        let pid = child.id();
        let mut child = Reaped(Some(child));
        let socket = dir.join("serve.sock");
        let deadline = Instant::now() + Duration::from_secs(30);
        let conn = loop {
            match UnixStream::connect(&socket) {
                Ok(c) => break c,
                Err(e) if Instant::now() > deadline => return Err(e),
                Err(_) => {
                    if let Some(c) = child.0.as_mut() {
                        if let Some(status) = c.try_wait()? {
                            return Err(io::Error::other(format!(
                                "wormhole-serve exited early with {status}"
                            )));
                        }
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        };
        Ok(ServeProc {
            child,
            pid,
            reader: BufReader::new(conn.try_clone()?),
            writer: conn,
        })
    }

    /// Sends one request and reads its frames up to the terminal one.
    /// `on_start` runs as soon as the `start` frame arrives.
    pub fn campaign(
        &mut self,
        req: &str,
        keep: bool,
        on_start: impl FnOnce(),
    ) -> io::Result<Reply> {
        let _g = spans::span("serve.request");
        let t0 = Instant::now();
        let mut wait = Some(spans::span("serve.wait_start"));
        write_frame(&mut self.writer, req)?;
        self.writer.flush()?;
        let mut reply = Reply {
            first_frame_ms: f64::NAN,
            total_ms: f64::NAN,
            frames: 0,
            trace_frames: 0,
            bytes: 0,
            warm: false,
            last: String::new(),
            kept: Vec::new(),
        };
        let mut on_start = Some(on_start);
        let mut stream: Option<spans::Guard> = None;
        loop {
            let Some(frame) = read_frame(&mut self.reader)? else {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-request",
                ));
            };
            reply.frames += 1;
            reply.bytes += 4 + frame.len() as u64;
            if frame.starts_with("{\"type\":\"trace\"") {
                reply.trace_frames += 1;
            } else if frame.starts_with("{\"type\":\"start\"") {
                reply.first_frame_ms = t0.elapsed().as_secs_f64() * 1e3;
                reply.warm = frame.contains("\"warm\":true");
                wait.take();
                stream = Some(spans::span("serve.stream"));
                if let Some(f) = on_start.take() {
                    f();
                }
            }
            let terminal = frame.starts_with("{\"type\":\"report\"")
                || frame.starts_with("{\"type\":\"error\"");
            if terminal {
                reply.total_ms = t0.elapsed().as_secs_f64() * 1e3;
                drop(stream);
                if keep {
                    reply.kept.push(frame.clone());
                }
                reply.last = frame;
                return Ok(reply);
            }
            if keep {
                reply.kept.push(frame);
            }
        }
    }

    /// Peak RSS of the server so far, in MB.
    pub fn hwm_mb(&self) -> f64 {
        crate::util::vm_hwm_mb(&self.pid.to_string())
    }

    /// Stops the server through a `shutdown` request and checks that it
    /// answered `bye` and exited with status 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        let bye = (|| -> io::Result<Option<String>> {
            write_frame(&mut self.writer, "{\"cmd\":\"shutdown\"}")?;
            self.writer.flush()?;
            read_frame(&mut self.reader)
        })()
        .map_err(|e| format!("shutdown request: {e}"))?;
        if bye.as_deref().and_then(|b| str_field(b, "type")).as_deref() != Some("bye") {
            return Err(format!("shutdown answered {bye:?}, not bye"));
        }
        let mut child = self.child.0.take().ok_or("server already reaped")?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("wormhole-serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("wormhole-serve did not exit after shutdown".into());
                }
                Err(e) => return Err(format!("waiting for wormhole-serve: {e}")),
            }
        }
    }
}

/// The unsigned integer following `"key":` in a frame (parsed exactly:
/// checksums do not fit an `f64`).
pub fn u64_field(frame: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = frame.find(&pat)? + pat.len();
    let digits: String = frame[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The campaign request line for a scale, fault scenario and scheduler.
pub fn campaign_request(scale: &str, faults: &str, scheduling: &str) -> String {
    format!(
        "{{\"cmd\":\"campaign\",\"scale\":\"{scale}\",\"faults\":\"{faults}\",\
         \"scheduling\":\"{scheduling}\",\"jobs\":1}}"
    )
}
