//! End-to-end exercise of `wormhole-serve`: an in-process [`Server`]
//! must sustain concurrent campaign sessions over one warm per-scale
//! substrate — building it exactly once — and every session's report
//! must be byte-identical to a direct batch run over the same
//! `(scale, seed, jobs, faults, scheduling)`.

use std::sync::Arc;
use std::thread;

use wormhole::experiments::{campaign_config_for, campaign_over, internet_for, Scale};
use wormhole::probe::NullSink;
use wormhole::serve::proto::{str_field, Object, Value};
use wormhole::serve::{Client, ServeConfig, Server, ServerHandle};

/// A unique socket path per test so parallel tests never collide.
fn socket_for(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("wormhole-serve-{}-{tag}.sock", std::process::id()))
}

fn spawn(tag: &str) -> ServerHandle {
    let sock = socket_for(tag);
    let _ = std::fs::remove_file(&sock);
    Server::spawn(ServeConfig::at(&sock))
}

/// The value of `key` in a response frame.
fn value<'a>(frame: &'a str, key: &str) -> Option<Value<'a>> {
    Some(Object::parse(frame).ok()?.get(key)?.value)
}

/// Extracts `(warm, report text)` from a campaign frame sequence.
fn parse_campaign(frames: &[String]) -> (bool, String) {
    let last = frames.last().expect("at least one frame");
    assert_eq!(
        str_field(last, "type").as_deref(),
        Some("report"),
        "campaign must end in a report frame: {last}"
    );
    let Some(Value::Bool(warm)) = value(last, "warm") else {
        panic!("report carries no warm flag: {last}");
    };
    let report = str_field(last, "report").expect("report carries its text");
    (warm, report)
}

#[test]
fn concurrent_sessions_share_one_warm_substrate() {
    let handle = spawn("concurrent");
    let sock = handle.socket.clone();

    // The batch oracle: the exact path `wormhole-cli campaign --emit
    // report` takes, at the serve defaults (seed 8, jobs as requested).
    let internet = internet_for(Scale::Quick, 8);
    let cfg = campaign_config_for(
        Scale::Quick,
        2,
        wormhole::net::FaultScenario::Clean,
        wormhole::core::Scheduling::VpBatches,
    );
    let oracle = campaign_over(&internet, &cfg, &mut NullSink)
        .report()
        .text()
        .to_string();

    // Two concurrent sessions at the same scale: the per-scale lock
    // means exactly one build; both campaigns then run over Arc clones
    // of the same substrate.
    let req = r#"{"cmd":"campaign","scale":"quick","jobs":2,"stream":true}"#;
    let mut threads = Vec::new();
    for _ in 0..2 {
        let sock = sock.clone();
        threads.push(thread::spawn(move || {
            let mut c = Client::connect(&sock).expect("connect");
            c.request(req).expect("campaign request")
        }));
    }
    let sessions: Vec<Vec<String>> = threads
        .into_iter()
        .map(|t| t.join().expect("session thread"))
        .collect();

    let parsed: Vec<(bool, String)> = sessions.iter().map(|f| parse_campaign(f)).collect();
    // At most one session can have paid for the build.
    let cold = parsed.iter().filter(|(warm, _)| !warm).count();
    assert!(cold <= 1, "substrate was built {cold} times for one scale");
    for (_, report) in &parsed {
        assert_eq!(
            report, &oracle,
            "serve session report diverged from the batch CLI path"
        );
    }
    // Streaming sessions carry per-trace frames before the report.
    for frames in &sessions {
        let traces = frames
            .iter()
            .filter(|f| str_field(f, "type").as_deref() == Some("trace"))
            .count();
        assert!(traces > 0, "stream:true session produced no trace frames");
    }

    // A third session must find the substrate warm and agree again.
    let mut c = Client::connect(&sock).expect("connect");
    let frames = c
        .request(r#"{"cmd":"campaign","scale":"quick","jobs":2}"#)
        .expect("warm campaign");
    let (warm, report) = parse_campaign(&frames);
    assert!(warm, "third session should reuse the warm substrate");
    assert_eq!(report, oracle);

    // History recorded all three campaigns.
    let frames = c.request(r#"{"cmd":"history"}"#).expect("history");
    let end = frames.last().unwrap();
    assert_eq!(str_field(end, "type").as_deref(), Some("history-end"));
    assert_eq!(value(end, "served"), Some(Value::Num(3.0)));

    c.shutdown().expect("shutdown");
    handle
        .thread
        .join()
        .expect("server thread")
        .expect("server run");
    assert!(!sock.exists(), "socket file should be removed on shutdown");
}

#[test]
fn ping_trace_and_errors_round_trip() {
    let handle = spawn("proto");
    let mut c = Client::connect(&handle.socket).expect("connect");

    let frames = c.request(r#"{"cmd":"ping"}"#).expect("ping");
    assert_eq!(str_field(&frames[0], "type").as_deref(), Some("pong"));

    // A trace request streams one trace frame then a done frame.
    let frames = c
        .request(r#"{"cmd":"trace","scale":"quick","dst":"10.1.0.0","vp":0}"#)
        .expect("trace");
    assert_eq!(str_field(&frames[0], "type").as_deref(), Some("trace"));
    let done = frames.last().unwrap();
    assert_eq!(str_field(done, "type").as_deref(), Some("done"));
    assert!(matches!(value(done, "probes"), Some(Value::Num(n)) if n > 0.0));

    // Unknown commands and malformed scales answer with error frames
    // instead of dropping the connection.
    let frames = c.request(r#"{"cmd":"frobnicate"}"#).expect("unknown cmd");
    assert_eq!(str_field(&frames[0], "type").as_deref(), Some("error"));
    let frames = c
        .request(r#"{"cmd":"campaign","scale":"galactic"}"#)
        .expect("bad scale");
    assert_eq!(str_field(&frames[0], "type").as_deref(), Some("error"));

    // An unknown fault scenario answers with a typed error frame naming
    // the offender — never a silent fallback to a clean campaign.
    let frames = c
        .request(r#"{"cmd":"campaign","scale":"quick","faults":"gremlins"}"#)
        .expect("bad scenario");
    assert_eq!(str_field(&frames[0], "type").as_deref(), Some("error"));
    assert_eq!(
        str_field(&frames[0], "error").as_deref(),
        Some("unknown fault scenario gremlins")
    );

    // No present field may fall back silently: an unknown scheduler must
    // not run VP batches, a negative or fractional `jobs` must not be
    // cast to 0 (all cores) or truncated, a malformed `vp` must not run
    // VP 0 or a truncated VP, a non-boolean `stream` must not stream,
    // and a non-string `scale` or `faults` must not run the quick scale
    // or the clean scenario. Nor may a misspelled or repeated key, a
    // malformed frame, or a value of the wrong type pick a default:
    // each answers with one error frame naming the key or the fault,
    // and runs nothing.
    for (req, message) in [
        (
            r#"{"cmd":"campaign","scale":"quick","scheduling":"steal"}"#,
            r#"unknown scheduling "steal" (expected batches or stealing)"#,
        ),
        (
            r#"{"cmd":"campaign","scale":"quick","jobs":-1}"#,
            "jobs must be a whole number >= 0, got -1",
        ),
        (
            r#"{"cmd":"campaign","scale":"quick","jobs":2.7}"#,
            "jobs must be a whole number >= 0, got 2.7",
        ),
        (
            r#"{"cmd":"campaign","scale":"quick","jobs":"2"}"#,
            r#"jobs must be a whole number >= 0, got "2""#,
        ),
        (
            r#"{"cmd":"trace","scale":"quick","dst":"10.1.0.0","vp":-1}"#,
            "vp must be a whole number >= 0, got -1",
        ),
        (
            r#"{"cmd":"trace","scale":"quick","dst":"10.1.0.0","vp":"x"}"#,
            r#"vp must be a whole number >= 0, got "x""#,
        ),
        (
            r#"{"cmd":"trace","scale":"quick","dst":"10.1.0.0","vp":1.9}"#,
            "vp must be a whole number >= 0, got 1.9",
        ),
        (
            r#"{"cmd":"campaign","scale":"quick","stream":"no"}"#,
            r#"stream must be true or false, got "no""#,
        ),
        (r#"{"cmd":"campaign","scale":7}"#, "unknown scale 7"),
        (
            r#"{"cmd":"campaign","scale":"quick","faults":7,"stream":false}"#,
            "unknown fault scenario 7",
        ),
        (
            r#"{"cmd":"trace","scale":7,"dst":"10.1.0.0"}"#,
            "unknown scale 7",
        ),
        (r#"{"cmd":"lint","scale":null}"#, "unknown scale null"),
        (
            r#"{"cmd":"campaign","scael":"tenfold"}"#,
            r#"unknown key "scael" in a campaign request"#,
        ),
        (
            r#"{"cmd":"campaign","scale":"quick","fualts":"hostile","stream":false}"#,
            r#"unknown key "fualts" in a campaign request"#,
        ),
        (
            r#"{"cmd":"campaign","scale":"quick","scale":"tenfold"}"#,
            r#"malformed request: duplicate key "scale""#,
        ),
        (
            r#"{"cmd":"ping","cmd":"shutdown"}"#,
            r#"malformed request: duplicate key "cmd""#,
        ),
        (
            r#"{"cmd":"campaign","scale":"quick""#,
            "malformed request: truncated: expected , or }",
        ),
        (
            r#"{"cmd":"campaign","scale":"quick"}garbage"#,
            "malformed request: expected the end of the frame, found garbage",
        ),
        (r#"{"cmd":7}"#, "unknown cmd 7"),
        (
            r#"{"cmd":"trace","scale":"quick","dst":167837696}"#,
            "dst must be an IPv4 address string, got 167837696",
        ),
        (
            r#"{"cmd":"campaign","scale":["quick"],"stream":false}"#,
            r#"unknown scale ["quick"]"#,
        ),
        (
            r#"{"cmd":"campaign","scale":"qu\ick"}"#,
            r"malformed request: bad escape \i",
        ),
    ] {
        let frames = c.request(req).expect("bad field");
        assert_eq!(frames.len(), 1, "{req}: one error frame, nothing run");
        assert_eq!(str_field(&frames[0], "type").as_deref(), Some("error"));
        assert_eq!(str_field(&frames[0], "error").as_deref(), Some(message));
        // No campaign ran, and no stray frame waits behind the error.
        let frames = c.request(r#"{"cmd":"ping"}"#).expect("ping after error");
        assert_eq!(frames.len(), 1, "{req}: one pong");
        assert_eq!(value(&frames[0], "served"), Some(Value::Num(0.0)), "{req}");
    }

    // The connection is still usable after errors, and the explicit
    // `"batches"` spelling is accepted.
    let frames = c
        .request(r#"{"cmd":"campaign","scale":"quick","scheduling":"batches","stream":false}"#)
        .expect("campaign after errors");
    assert!(!parse_campaign(&frames).1.is_empty());
    let frames = c.request(r#"{"cmd":"ping"}"#).expect("ping after error");
    assert_eq!(str_field(&frames[0], "type").as_deref(), Some("pong"));

    c.shutdown().expect("shutdown");
    handle.thread.join().expect("join").expect("run");
}

#[test]
#[ignore = "tenfold scale; run with --ignored in release CI (serve-smoke)"]
fn tenfold_sessions_match_the_batch_cli_byte_for_byte() {
    let handle = spawn("tenfold");
    let sock = handle.socket.clone();

    let internet = internet_for(Scale::Tenfold, 8);
    let cfg = campaign_config_for(
        Scale::Tenfold,
        4,
        wormhole::net::FaultScenario::Clean,
        wormhole::core::Scheduling::Stealing,
    );
    let oracle = Arc::new(
        campaign_over(&internet, &cfg, &mut NullSink)
            .report()
            .text()
            .to_string(),
    );
    drop(internet);

    let req = r#"{"cmd":"campaign","scale":"tenfold","jobs":4,"scheduling":"stealing"}"#;
    let mut threads = Vec::new();
    for _ in 0..2 {
        let sock = sock.clone();
        let oracle = Arc::clone(&oracle);
        threads.push(thread::spawn(move || {
            let mut c = Client::connect(&sock).expect("connect");
            let frames = c.request(req).expect("campaign");
            let (warm, report) = parse_campaign(&frames);
            assert_eq!(&report, oracle.as_ref(), "tenfold serve report diverged");
            warm
        }));
    }
    let cold = threads
        .into_iter()
        .map(|t| t.join().expect("session"))
        .filter(|warm| !warm)
        .count();
    assert!(cold <= 1, "tenfold substrate built more than once");

    let mut c = Client::connect(&sock).expect("connect");
    c.shutdown().expect("shutdown");
    handle.thread.join().expect("join").expect("run");
}
