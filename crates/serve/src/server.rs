//! The resident campaign server: one warm substrate per scale, a
//! thread per connection, campaigns streamed as frames.
//!
//! The first request at a scale pays the full Internet build; every
//! later request at that scale reuses the warm [`Internet`] behind an
//! `Arc` — concurrent sessions run campaigns over the *same* substrate
//! with no rebuild, which is the entire point of staying resident. The
//! `warm` flag on every campaign response makes that observable (and
//! testable) from outside.

use crate::history::History;
use crate::proto::{json_escape, num_field, read_frame, str_field, write_frame};
use std::io::{self, BufReader, BufWriter, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use wormhole_core::Scheduling;
use wormhole_experiments::{campaign_config_for, campaign_over, internet_for, Scale};
use wormhole_net::FaultScenario;
use wormhole_probe::{trace_jsonl, Session, TraceSink, TracerouteOpts};
use wormhole_topo::Internet;

/// How a server instance is configured.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Filesystem path of the Unix socket to listen on.
    pub socket: PathBuf,
    /// How many recent reports the history buffer retains.
    pub history: usize,
    /// The Internet-generation seed every scale uses (the batch CLI
    /// default, so serve reports match `wormhole-cli campaign`).
    pub seed: u64,
}

impl ServeConfig {
    /// A config listening on `socket` with the defaults the batch CLI
    /// uses (seed 8) and a 16-entry history.
    pub fn at(socket: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            socket: socket.into(),
            history: 16,
            seed: 8,
        }
    }
}

/// Every scale the store holds a slot for, in protocol-name order.
const SCALES: [(&str, Scale); 4] = [
    ("quick", Scale::Quick),
    ("paper", Scale::Paper),
    ("tenfold", Scale::Tenfold),
    ("thousandfold", Scale::ThousandFold),
];

/// The raw value text following `"key":` in a request, up to the next
/// `,` or `}` — present even when the value has the wrong type, so a
/// malformed field is reported instead of defaulted.
fn raw_field<'a>(req: &'a str, key: &str) -> Option<&'a str> {
    let rest = crate::proto::after_key(req, key)?;
    Some(rest.split([',', '}']).next().unwrap_or(rest).trim())
}

fn scale_by_name(name: &str) -> Option<(usize, Scale)> {
    SCALES
        .iter()
        .position(|&(n, _)| n == name)
        .map(|i| (i, SCALES[i].1))
}

/// The resident server. Create with [`Server::new`], run the accept
/// loop with [`Server::run`] (or [`Server::spawn`] for tests).
pub struct Server {
    cfg: ServeConfig,
    /// One warm-substrate slot per scale. Per-scale locks: building
    /// the thousandfold Internet must not block a quick campaign.
    store: [Mutex<Option<Arc<Internet>>>; 4],
    history: Mutex<History>,
    shutdown: AtomicBool,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("cfg", &self.cfg).finish()
    }
}

/// A spawned server: join handle plus the socket path clients connect
/// to. Dropping it does *not* stop the server — send a `shutdown`
/// request (see [`Client::shutdown`]).
#[derive(Debug)]
pub struct ServerHandle {
    /// The accept-loop thread.
    pub thread: std::thread::JoinHandle<io::Result<()>>,
    /// The socket the server listens on.
    pub socket: PathBuf,
}

impl Server {
    /// A server with no warm substrates yet.
    pub fn new(cfg: ServeConfig) -> Server {
        let history = Mutex::new(History::new(cfg.history));
        Server {
            cfg,
            store: Default::default(),
            history,
            shutdown: AtomicBool::new(false),
        }
    }

    /// The warm substrate for a scale, building it on first use.
    /// Returns `(substrate, warm)` — `warm` is true when this request
    /// found the substrate already built. The per-scale lock is held
    /// across the build, so concurrent first requests at one scale
    /// build exactly once (the loser of the race reports `warm`).
    pub fn substrate(&self, idx: usize, scale: Scale) -> (Arc<Internet>, bool) {
        let mut slot = self.store[idx].lock().expect("store lock poisoned");
        match slot.as_ref() {
            Some(warm) => (Arc::clone(warm), true),
            None => {
                let built = Arc::new(internet_for(scale, self.cfg.seed));
                *slot = Some(Arc::clone(&built));
                (built, false)
            }
        }
    }

    /// Binds the socket and serves until a `shutdown` request arrives.
    /// Each connection gets its own thread; the substrate store and
    /// history are shared across all of them.
    pub fn run(self: Arc<Self>) -> io::Result<()> {
        // A stale socket file from a previous run would fail the bind.
        let _ = std::fs::remove_file(&self.cfg.socket);
        let listener = UnixListener::bind(&self.cfg.socket)?;
        for conn in listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let conn = conn?;
            let srv = Arc::clone(&self);
            std::thread::spawn(move || srv.serve_connection(conn));
        }
        let _ = std::fs::remove_file(&self.cfg.socket);
        Ok(())
    }

    /// Spawns [`Server::run`] on a background thread and waits until
    /// the socket is accepting connections.
    pub fn spawn(cfg: ServeConfig) -> ServerHandle {
        let socket = cfg.socket.clone();
        let server = Arc::new(Server::new(cfg));
        let thread = std::thread::spawn(move || server.run());
        // The listener binds before the first accept; poll until the
        // socket file connects rather than racing it.
        for _ in 0..200 {
            if UnixStream::connect(&socket).is_ok() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        ServerHandle { thread, socket }
    }

    /// One connection's request loop: frames in, frame sequences out,
    /// until the peer closes or asks for shutdown.
    fn serve_connection(&self, conn: UnixStream) -> io::Result<()> {
        let mut reader = BufReader::new(conn.try_clone()?);
        let mut writer = BufWriter::new(conn);
        while let Some(req) = read_frame(&mut reader)? {
            let keep_going = self.dispatch(&req, &mut writer)?;
            writer.flush()?;
            if !keep_going {
                break;
            }
        }
        Ok(())
    }

    /// Handles one request; returns false when the connection (and for
    /// `shutdown`, the whole server) should wind down.
    fn dispatch(&self, req: &str, w: &mut impl Write) -> io::Result<bool> {
        match str_field(req, "cmd").as_deref() {
            Some("ping") => {
                let served = self.history.lock().expect("history lock").served();
                write_frame(w, &format!("{{\"type\":\"pong\",\"served\":{served}}}"))?;
                Ok(true)
            }
            Some("campaign") => {
                self.run_campaign(req, w)?;
                Ok(true)
            }
            Some("trace") => {
                self.run_trace(req, w)?;
                Ok(true)
            }
            Some("lint") => {
                self.run_lint(req, w)?;
                Ok(true)
            }
            Some("history") => {
                let history = self.history.lock().expect("history lock");
                for e in history.entries() {
                    write_frame(
                        w,
                        &format!(
                            "{{\"type\":\"history-entry\",\"seq\":{},\"request\":\"{}\",\"report\":\"{}\"}}",
                            e.seq,
                            json_escape(&e.request),
                            json_escape(&e.report)
                        ),
                    )?;
                }
                write_frame(
                    w,
                    &format!(
                        "{{\"type\":\"history-end\",\"served\":{},\"retained\":{}}}",
                        history.served(),
                        history.len()
                    ),
                )?;
                Ok(true)
            }
            Some("shutdown") => {
                write_frame(w, "{\"type\":\"bye\"}")?;
                w.flush()?;
                self.shutdown.store(true, Ordering::SeqCst);
                // Wake the accept loop so it observes the flag.
                let _ = UnixStream::connect(&self.cfg.socket);
                Ok(false)
            }
            other => {
                write_frame(
                    w,
                    &format!(
                        "{{\"type\":\"error\",\"error\":\"unknown cmd {}\"}}",
                        json_escape(other.unwrap_or("<none>"))
                    ),
                )?;
                Ok(true)
            }
        }
    }

    /// `campaign`: stream one §4 campaign over the scale's warm
    /// substrate. Frames: `start` (carries the `warm` flag), then one
    /// frame per merged trace plus engine stats (suppress with
    /// `"stream":false`), then the `report` frame with the canonical
    /// byte-stable report text.
    fn run_campaign(&self, req: &str, w: &mut impl Write) -> io::Result<()> {
        let scale_name = str_field(req, "scale").unwrap_or_else(|| "quick".into());
        let Some((idx, scale)) = scale_by_name(&scale_name) else {
            return write_frame(
                w,
                &format!(
                    "{{\"type\":\"error\",\"error\":\"unknown scale {}\"}}",
                    json_escape(&scale_name)
                ),
            );
        };
        // An absent `jobs` means one worker; a present one must be a
        // whole number (0 = all cores), never truncated or wrapped.
        let jobs = match (raw_field(req, "jobs"), num_field(req, "jobs")) {
            (None, _) => 1,
            (Some(_), Some(n)) if n >= 0.0 && n.fract() == 0.0 => n as usize,
            (Some(raw), _) => {
                return write_frame(
                    w,
                    &format!(
                        "{{\"type\":\"error\",\"error\":\"jobs must be a whole number >= 0, got {}\"}}",
                        json_escape(raw)
                    ),
                );
            }
        };
        let faults = match str_field(req, "faults") {
            Some(name) => match FaultScenario::parse(&name) {
                Some(sc) => sc,
                None => {
                    return write_frame(
                        w,
                        &format!(
                            "{{\"type\":\"error\",\"error\":\"unknown fault scenario {}\"}}",
                            json_escape(&name)
                        ),
                    );
                }
            },
            None => FaultScenario::Clean,
        };
        // The `WORMHOLE_SCHED` vocabulary; anything else is an error,
        // never a silent fallback to VP batches.
        let scheduling = match raw_field(req, "scheduling") {
            None => Scheduling::VpBatches,
            Some(raw) => match str_field(req, "scheduling").as_deref() {
                Some("batches") => Scheduling::VpBatches,
                Some("stealing") => Scheduling::Stealing,
                _ => {
                    return write_frame(
                        w,
                        &format!(
                            "{{\"type\":\"error\",\"error\":\"unknown scheduling {} (expected batches or stealing)\"}}",
                            json_escape(raw)
                        ),
                    );
                }
            },
        };
        let stream = crate::proto::bool_field(req, "stream").unwrap_or(true);
        let (internet, warm) = self.substrate(idx, scale);
        write_frame(
            w,
            &format!("{{\"type\":\"start\",\"scale\":\"{scale_name}\",\"warm\":{warm}}}"),
        )?;
        w.flush()?;
        let cfg = campaign_config_for(scale, jobs, faults, scheduling);
        let result = if stream {
            let mut sink = FrameSink { out: w };
            campaign_over(&internet, &cfg, &mut sink)
        } else {
            campaign_over(&internet, &cfg, &mut wormhole_probe::NullSink)
        };
        let report = result.report().text().to_string();
        write_frame(
            w,
            &format!(
                "{{\"type\":\"report\",\"warm\":{warm},\"traces\":{},\"probes\":{},\
                 \"snapshot_checksum\":{},\"analysis_seconds\":{:.6},\"report\":\"{}\"}}",
                result.traces.len(),
                result.probes,
                result.snapshot_checksum,
                result.timings.analysis_seconds,
                json_escape(&report)
            ),
        )?;
        self.history
            .lock()
            .expect("history lock")
            .push(req.to_string(), report);
        Ok(())
    }

    /// `trace`: one traceroute over the warm substrate, from vantage
    /// point `vp` (default 0) to `dst`.
    fn run_trace(&self, req: &str, w: &mut impl Write) -> io::Result<()> {
        let scale_name = str_field(req, "scale").unwrap_or_else(|| "quick".into());
        let Some((idx, scale)) = scale_by_name(&scale_name) else {
            return write_frame(
                w,
                &format!(
                    "{{\"type\":\"error\",\"error\":\"unknown scale {}\"}}",
                    json_escape(&scale_name)
                ),
            );
        };
        let Some(dst) = str_field(req, "dst").and_then(|d| d.parse().ok()) else {
            return write_frame(
                w,
                "{\"type\":\"error\",\"error\":\"trace needs a dst address\"}",
            );
        };
        let vp = num_field(req, "vp").map_or(0, |n| n as usize);
        let (internet, warm) = self.substrate(idx, scale);
        if vp >= internet.vps.len() {
            return write_frame(
                w,
                &format!(
                    "{{\"type\":\"error\",\"error\":\"vp {vp} out of range ({} vantage points)\"}}",
                    internet.vps.len()
                ),
            );
        }
        let mut sess = Session::new(&internet.net, &internet.cp, internet.vps[vp]);
        sess.set_opts(TracerouteOpts::default());
        let trace = sess.traceroute(dst);
        write_frame(w, &trace_jsonl(vp, &trace))?;
        write_frame(
            w,
            &format!(
                "{{\"type\":\"done\",\"warm\":{warm},\"probes\":{}}}",
                sess.engine_stats().probes
            ),
        )
    }

    /// `lint`: static analysis of the scale's warm substrate.
    fn run_lint(&self, req: &str, w: &mut impl Write) -> io::Result<()> {
        let scale_name = str_field(req, "scale").unwrap_or_else(|| "quick".into());
        let Some((idx, scale)) = scale_by_name(&scale_name) else {
            return write_frame(
                w,
                &format!(
                    "{{\"type\":\"error\",\"error\":\"unknown scale {}\"}}",
                    json_escape(&scale_name)
                ),
            );
        };
        let (internet, warm) = self.substrate(idx, scale);
        let diags = wormhole_lint::check_internet(&internet);
        let (errors, warns, infos) = wormhole_lint::count(&diags);
        write_frame(
            w,
            &format!(
                "{{\"type\":\"lint\",\"warm\":{warm},\"errors\":{errors},\"warnings\":{warns},\
                 \"notes\":{infos},\"report\":\"{}\"}}",
                json_escape(&wormhole_lint::render(&diags))
            ),
        )
    }
}

/// Streams campaign traces as protocol frames: the serve-side twin of
/// the CLI's `JsonlSink` — both emit [`trace_jsonl`] lines, so a serve
/// session and `wormhole-cli campaign --emit jsonl` agree byte for
/// byte on every trace line.
struct FrameSink<'a, W: Write> {
    out: &'a mut W,
}

impl<W: Write> TraceSink for FrameSink<'_, W> {
    fn on_trace(&mut self, vp: usize, trace: &wormhole_probe::Trace) {
        let _ = write_frame(self.out, &trace_jsonl(vp, trace));
    }

    fn on_stats(&mut self, delta: &wormhole_net::EngineStats) {
        let _ = write_frame(self.out, &wormhole_probe::sink::stats_jsonl(delta));
    }

    fn on_phase(&mut self, phase: &str) {
        let _ = write_frame(
            self.out,
            &format!("{{\"type\":\"phase\",\"phase\":\"{phase}\"}}"),
        );
    }
}

/// A blocking protocol client: one frame out, frames in until the
/// response's terminal frame.
#[derive(Debug)]
pub struct Client {
    stream: UnixStream,
}

/// Response frame types that end a request's frame sequence.
fn is_terminal(frame: &str) -> bool {
    matches!(
        str_field(frame, "type").as_deref(),
        Some("report" | "done" | "error" | "pong" | "bye" | "history-end" | "lint")
    )
}

impl Client {
    /// Connects to a server socket.
    pub fn connect(socket: impl AsRef<std::path::Path>) -> io::Result<Client> {
        Ok(Client {
            stream: UnixStream::connect(socket)?,
        })
    }

    /// Sends one request frame and collects every response frame up to
    /// and including the terminal one.
    pub fn request(&mut self, req: &str) -> io::Result<Vec<String>> {
        write_frame(&mut self.stream, req)?;
        self.stream.flush()?;
        let mut frames = Vec::new();
        loop {
            match read_frame(&mut self.stream)? {
                None => break,
                Some(f) => {
                    let done = is_terminal(&f);
                    frames.push(f);
                    if done {
                        break;
                    }
                }
            }
        }
        Ok(frames)
    }

    /// Asks the server to exit its accept loop.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.request("{\"cmd\":\"shutdown\"}").map(|_| ())
    }
}
