//! The resident campaign server: one warm substrate per scale, a
//! thread per connection, campaigns streamed as frames.
//!
//! The first request at a scale pays the full Internet build; every
//! later request at that scale reuses the warm [`Internet`] behind an
//! `Arc` — concurrent sessions run campaigns over the *same* substrate
//! with no rebuild, which is the entire point of staying resident. The
//! `warm` flag on every campaign response makes that observable (and
//! testable) from outside.
//!
//! Every request frame goes through [`Request::decode`] first; a frame
//! that does not decode is answered with one error frame, and only a
//! typed [`Request`] reaches a handler.

use crate::history::History;
use crate::proto::{read_frame, str_field, write_frame, JsonStr, Object, Value};
use std::fmt::Write as _;
use std::io::{self, BufReader, BufWriter, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use wormhole_core::CampaignConfig;
use wormhole_experiments::{campaign_config, campaign_over, internet_for, Scale};
use wormhole_net::text::json_str;
use wormhole_net::{Addr, FaultScenario};
use wormhole_probe::{write_trace_jsonl, JsonlSink, NullSink, Session, TracerouteOpts};
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

/// One decoded request: a command and its typed arguments, every
/// default filled in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// `{"cmd":"ping"}`: liveness; the reply counts served campaigns.
    Ping,
    /// `{"cmd":"history"}`: the retained recent reports.
    History,
    /// `{"cmd":"shutdown"}`: stop the server.
    Shutdown,
    /// `{"cmd":"campaign"}`: one §4 campaign over the scale's warm
    /// substrate.
    Campaign {
        /// `scale`, default `quick`.
        scale: Scale,
        /// `jobs`, a whole number, default 1 (0 = all cores).
        jobs: usize,
        /// `faults`, a [`FaultScenario`] name, default `clean`.
        faults: FaultScenario,
        /// `stream`: send per-trace frames before the report, default
        /// true.
        stream: bool,
    },
    /// `{"cmd":"trace"}`: one traceroute over the scale's warm
    /// substrate.
    Trace {
        /// `scale`, default `quick`.
        scale: Scale,
        /// `dst`, a dotted-quad string; required.
        dst: Addr,
        /// `vp`, the vantage-point index, default 0.
        vp: usize,
    },
    /// `{"cmd":"lint"}`: static analysis of the scale's warm substrate.
    Lint {
        /// `scale`, default `quick`.
        scale: Scale,
    },
}

impl Request {
    /// Decodes one request frame. Every key, type and default of the
    /// protocol is decided here. Each command accepts only its own
    /// keys; an unknown or duplicate key, a value of the wrong type or
    /// a malformed frame is an `Err` carrying the error frame's text.
    pub fn decode(frame: &str) -> Result<Request, String> {
        let obj = Object::parse(frame).map_err(|e| format!("malformed request: {e}"))?;
        let get = |key: &str| obj.get(key).map(|f| (f.value, f.raw));
        let cmd = match get("cmd") {
            Some((Value::Str(cmd), _)) => cmd.to_string(),
            Some((_, raw)) => return Err(format!("unknown cmd {raw}")),
            None => return Err("request has no cmd".into()),
        };
        let keys: &[&str] = match cmd.as_str() {
            "ping" | "history" | "shutdown" => &[],
            "campaign" => &["scale", "jobs", "faults", "scheduling", "stream"],
            "trace" => &["scale", "dst", "vp"],
            "lint" => &["scale"],
            _ => return Err(format!("unknown cmd {cmd}")),
        };
        let known = |key: JsonStr<'_>| key.is("cmd") || keys.iter().any(|&k| key.is(k));
        if let Some(f) = obj.fields().iter().find(|f| !known(f.key)) {
            return Err(format!("unknown key \"{}\" in a {cmd} request", f.key));
        }
        let whole = |key: &str, default: usize| match get(key) {
            None => Ok(default),
            Some((Value::Num(n), _)) if n >= 0.0 && n.fract() == 0.0 => Ok(n as usize),
            Some((_, raw)) => Err(format!("{key} must be a whole number >= 0, got {raw}")),
        };
        let scale = named(get("scale"), "scale", Scale::Quick, Scale::parse)?;
        Ok(match cmd.as_str() {
            "ping" => Request::Ping,
            "history" => Request::History,
            "shutdown" => Request::Shutdown,
            "lint" => Request::Lint { scale },
            "trace" => Request::Trace {
                scale,
                dst: match get("dst") {
                    None => return Err("trace needs a dst address".into()),
                    Some((value, raw)) => match value {
                        Value::Str(dst) => dst.to_string().parse().ok(),
                        _ => None,
                    }
                    .ok_or_else(|| format!("dst must be an IPv4 address string, got {raw}"))?,
                },
                vp: whole("vp", 0)?,
            },
            _ => {
                let jobs = whole("jobs", 1)?;
                let faults = named(
                    get("faults"),
                    "fault scenario",
                    FaultScenario::Clean,
                    FaultScenario::parse,
                )?;
                // `scheduling` names a retired scheduler choice that no
                // campaign reads, so it is checked and dropped. Only the
                // benchmark package still sends it; the unblocking
                // benchmark change in ROADMAP.md deletes the key.
                match get("scheduling") {
                    None => {}
                    Some((Value::Str(s), _)) if s.is("batches") || s.is("stealing") => {}
                    Some((_, raw)) => {
                        let expected = "(expected batches or stealing)";
                        return Err(format!("unknown scheduling {raw} {expected}"));
                    }
                }
                let stream = match get("stream") {
                    None => true,
                    Some((Value::Bool(stream), _)) => stream,
                    Some((_, raw)) => {
                        return Err(format!("stream must be true or false, got {raw}"))
                    }
                };
                Request::Campaign {
                    scale,
                    jobs,
                    faults,
                    stream,
                }
            }
        })
    }
}

/// A string value (with its raw text) that `parse` reads as a `what`
/// name, `default` when absent. A value that names none, a non-string
/// included, is an error quoting it.
fn named<T>(
    field: Option<(Value<'_>, &str)>,
    what: &str,
    default: T,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<T, String> {
    match field {
        None => Ok(default),
        Some((Value::Str(name), _)) => {
            parse(&name.to_string()).ok_or_else(|| format!("unknown {what} {name}"))
        }
        Some((_, raw)) => Err(format!("unknown {what} {raw}")),
    }
}

/// Writes an error frame carrying `message`.
fn error_frame(out: &mut JsonlSink<impl Write>, message: &str) {
    out.write_line(|s| {
        s.push_str("{\"type\":\"error\",\"error\":");
        json_str(s, message)?;
        s.write_char('}')
    })
}

/// The resident server. Create with [`Server::new`], run the accept
/// loop with [`Server::run`] (or [`Server::spawn`] for tests).
pub struct Server {
    cfg: ServeConfig,
    /// One warm-substrate slot per [`Scale`], indexed by the scale
    /// itself. Per-scale locks: building the thousandfold Internet
    /// must not block a quick campaign.
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
    pub fn substrate(&self, scale: Scale) -> (Arc<Internet>, bool) {
        let mut slot = self.store[scale as usize].lock().expect("store lock");
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
        // Every outgoing frame, a streamed campaign's trace frames
        // included, is rendered into the sink's one reused buffer and
        // written length-prefixed.
        let mut out = JsonlSink::framed(BufWriter::new(conn), write_frame);
        while let Some(req) = read_frame(&mut reader)? {
            let keep_going = self.dispatch(&req, &mut out)?;
            out.flush()?;
            if !keep_going {
                break;
            }
        }
        Ok(())
    }

    /// Handles one request; returns false when the connection (and for
    /// `shutdown`, the whole server) should wind down. A request that
    /// does not decode gets one error frame and runs nothing.
    fn dispatch(&self, req: &str, out: &mut JsonlSink<impl Write>) -> io::Result<bool> {
        match Request::decode(req) {
            Err(message) => error_frame(out, &message),
            Ok(Request::Ping) => {
                let served = self.history.lock().expect("history lock").served();
                out.write_line(|s| write!(s, "{{\"type\":\"pong\",\"served\":{served}}}"));
            }
            Ok(Request::Campaign {
                scale,
                jobs,
                faults,
                stream,
            }) => {
                let cfg = campaign_config(scale, jobs, faults);
                self.run_campaign(req, scale, &cfg, stream, out)?;
            }
            Ok(Request::Trace { scale, dst, vp }) => self.run_trace(scale, dst, vp, out),
            Ok(Request::Lint { scale }) => self.run_lint(scale, out),
            Ok(Request::History) => {
                let history = self.history.lock().expect("history lock");
                for e in history.entries() {
                    out.write_line(|s| {
                        write!(
                            s,
                            "{{\"type\":\"history-entry\",\"seq\":{},\"request\":",
                            e.seq
                        )?;
                        json_str(s, &e.request)?;
                        s.push_str(",\"report\":");
                        json_str(s, &e.report)?;
                        s.write_char('}')
                    });
                }
                out.write_line(|s| {
                    write!(
                        s,
                        "{{\"type\":\"history-end\",\"served\":{},\"retained\":{}}}",
                        history.served(),
                        history.len()
                    )
                });
            }
            Ok(Request::Shutdown) => {
                out.write_line(|s| s.write_str("{\"type\":\"bye\"}"));
                out.flush()?;
                self.shutdown.store(true, Ordering::SeqCst);
                // Wake the accept loop so it observes the flag.
                let _ = UnixStream::connect(&self.cfg.socket);
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// `campaign`: stream one §4 campaign over the scale's warm
    /// substrate. Frames: `start` (carries the `warm` flag), then one
    /// frame per merged trace plus engine stats (only when `stream`),
    /// then the `report` frame with the canonical byte-stable report
    /// text, escaped straight into the frame. The history keeps `req`,
    /// the request as sent, and the one report `String`.
    fn run_campaign(
        &self,
        req: &str,
        scale: Scale,
        cfg: &CampaignConfig,
        stream: bool,
        out: &mut JsonlSink<impl Write>,
    ) -> io::Result<()> {
        let (internet, warm) = self.substrate(scale);
        let name = scale.name();
        out.write_line(|s| {
            write!(
                s,
                "{{\"type\":\"start\",\"scale\":\"{name}\",\"warm\":{warm}}}"
            )
        });
        out.flush()?;
        let result = if stream {
            campaign_over(&internet, cfg, out)
        } else {
            campaign_over(&internet, cfg, &mut NullSink)
        };
        let report = result.report().into_text();
        out.write_line(|s| {
            write!(
                s,
                "{{\"type\":\"report\",\"warm\":{warm},\"traces\":{},\"probes\":{},\
                 \"snapshot_checksum\":{},\"analysis_seconds\":{:.6},\"report\":",
                result.traces.len(),
                result.probes,
                result.snapshot_checksum,
                result.timings.analysis_seconds,
            )?;
            json_str(s, &report)?;
            s.write_char('}')
        });
        // A frame that failed to go out fails the request here, before
        // the history records the campaign.
        out.flush()?;
        self.history
            .lock()
            .expect("history lock")
            .push(req.to_string(), report);
        Ok(())
    }

    /// `trace`: one traceroute over the warm substrate, from vantage
    /// point `vp` to `dst`.
    fn run_trace(&self, scale: Scale, dst: Addr, vp: usize, out: &mut JsonlSink<impl Write>) {
        let (internet, warm) = self.substrate(scale);
        if vp >= internet.vps.len() {
            return error_frame(
                out,
                &format!(
                    "vp {vp} out of range ({} vantage points)",
                    internet.vps.len()
                ),
            );
        }
        let mut sess = Session::new(&internet.net, &internet.cp, internet.vps[vp]);
        sess.set_opts(TracerouteOpts::default());
        let trace = sess.traceroute(dst);
        out.write_line(|s| write_trace_jsonl(s, vp, &trace));
        let probes = sess.engine_stats().probes;
        out.write_line(|s| {
            write!(
                s,
                "{{\"type\":\"done\",\"warm\":{warm},\"probes\":{probes}}}"
            )
        });
    }

    /// `lint`: static analysis of the scale's warm substrate.
    fn run_lint(&self, scale: Scale, out: &mut JsonlSink<impl Write>) {
        let (internet, warm) = self.substrate(scale);
        let diags = wormhole_lint::check_internet(&internet);
        let (errors, warns, infos) = wormhole_lint::count(&diags);
        let report = wormhole_lint::render(&diags);
        out.write_line(|s| {
            write!(
                s,
                "{{\"type\":\"lint\",\"warm\":{warm},\"errors\":{errors},\"warnings\":{warns},\
                 \"notes\":{infos},\"report\":"
            )?;
            json_str(s, &report)?;
            s.write_char('}')
        });
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
