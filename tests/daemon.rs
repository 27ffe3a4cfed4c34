//! Service-mode integration test: the acceptance criteria of the
//! campaign-as-a-service daemon, end to end over real TCP.
//!
//! One daemon process (in-process reactor + executor threads), raw
//! NDJSON clients, a real (tiny) attack campaign:
//!
//! 1. a TCP `submit` is accepted and executed on the stage-DAG engine;
//! 2. a `subscribe` client observes live stage events *during* the run;
//! 3. the final `report` is byte-identical to the process-per-run CLI
//!    path (`run_campaign_sharded` into a fresh directory);
//! 4. an identical resubmission is answered from the registry without
//!    executing anything, and a cohabiting external shard re-run over
//!    the daemon's campaign directory executes zero job bodies;
//! 5. a second tenant submitting the identical campaign gets its own
//!    namespaced store entries, counted against its own usage.

use gnnunlock::engine::{tenant_usage, Event, Json};
use gnnunlock::gnn::{SaintConfig, TrainConfig};
use gnnunlock::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::str::FromStr as _;
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gnnunlock-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The tiny real campaign (mirrors tests/sharded.rs's `real_cfgs`), as
/// a client would submit it.
fn submission_json(tenant: &str) -> String {
    format!(
        concat!(
            r#"{{"tenant":"{tenant}","name":"svc-real","scheme":"antisat","scale":0.02,"#,
            r#""key_sizes":[8],"locks_per_config":1,"#,
            r#""train":{{"epochs":40,"hidden":24,"eval_every":10,"patience":0,"#,
            r#""class_weighting":false,"#,
            r#""saint":{{"roots":200,"walk_length":2,"estimation_rounds":3,"seed":7}}}}}}"#
        ),
        tenant = tenant
    )
}

/// The same configuration through the typed API, for the CLI reference.
fn real_cfgs() -> (DatasetConfig, AttackConfig) {
    let mut ds = DatasetConfig::antisat(Suite::Iscas85, 0.02);
    ds.key_sizes = vec![8];
    ds.locks_per_config = 1;
    let attack = AttackConfig {
        train: TrainConfig {
            epochs: 40,
            hidden: 24,
            eval_every: 10,
            patience: 0,
            saint: SaintConfig {
                roots: 200,
                walk_length: 2,
                estimation_rounds: 3,
                seed: 7,
            },
            class_weighting: false,
            ..TrainConfig::default()
        },
        ..AttackConfig::default()
    };
    (ds, attack)
}

/// One request line over a fresh connection; first response line back.
fn request(addr: SocketAddr, line: &str) -> Json {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut answer = String::new();
    reader.read_line(&mut answer).unwrap();
    Json::parse(answer.trim_end()).expect("daemon answers JSON")
}

fn str_field<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key).and_then(Json::as_str).unwrap_or_default()
}

fn is_ok(doc: &Json) -> bool {
    matches!(doc.get("ok"), Some(Json::Bool(true)))
}

fn wait_done(addr: SocketAddr, id: &str) -> Instant {
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        let doc = request(addr, &format!(r#"{{"op":"status","id":"{id}"}}"#));
        assert!(is_ok(&doc), "{doc:?}");
        let status = doc
            .get("campaign")
            .map(|c| str_field(c, "status").to_string())
            .unwrap_or_default();
        match status.as_str() {
            "done" => return Instant::now(),
            "failed" | "cancelled" => panic!("campaign '{id}' ended {status}: {doc:?}"),
            _ => {}
        }
        assert!(Instant::now() < deadline, "campaign '{id}' never finished");
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Hardening: traversal ids bounce at the protocol layer, oversize
/// request lines drop the connection instead of growing buffers, and a
/// prior-life campaign directory streams its *persisted* terminal
/// status (a failed run must not be announced as done).
#[test]
fn daemon_guards_ids_buffers_and_prior_life_status() {
    let root = tmp_dir("guards");
    // A prior daemon life left a failed campaign behind: event log,
    // report (written for failures too) and the status marker.
    let failed_id = "00000000deadbeef";
    let dir = root.join("campaigns").join(failed_id);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("events.jsonl"), "{\"ev\":\"prior\"}\n").unwrap();
    std::fs::write(dir.join("report.json"), "{\"schema\": 1}\n").unwrap();
    std::fs::write(dir.join("status"), "failed\n").unwrap();
    // A juicy traversal target one level above the campaigns dir.
    std::fs::write(root.join("report.json"), "secret\n").unwrap();

    let daemon = Daemon::start(DaemonConfig::new(&root)).unwrap();
    let addr = daemon.addr();

    // Path-traversal probes: rejected before any filesystem join, for
    // every id-carrying op.
    for probe in [
        r#"{"op":"report","id":"../.."}"#,
        r#"{"op":"report","id":".."}"#,
        r#"{"op":"subscribe","id":"../.."}"#,
        r#"{"op":"cancel","id":"deadbeef"}"#,
        r#"{"op":"status","id":"../../etc"}"#,
    ] {
        let doc = request(addr, probe);
        assert!(!is_ok(&doc), "{probe} must be rejected: {doc:?}");
        assert!(
            str_field(&doc, "error").contains("invalid campaign id"),
            "{probe} -> {doc:?}"
        );
    }

    // An oversize request line (no newline) is answered with an error
    // and the connection is dropped — the read buffer never grows past
    // the cap.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let chunk = vec![b'a'; 64 * 1024];
        for _ in 0..17 {
            // 17 * 64 KiB > 1 MiB
            stream.write_all(&chunk).unwrap();
        }
        let mut reader = BufReader::new(stream);
        let mut answer = String::new();
        reader.read_line(&mut answer).unwrap();
        let doc = Json::parse(answer.trim_end()).unwrap();
        assert!(!is_ok(&doc), "{doc:?}");
        assert!(str_field(&doc, "error").contains("too long"), "{doc:?}");
        // Closed afterwards: clean EOF, or a reset if our unread bytes
        // were still in the daemon's receive buffer.
        let mut rest = String::new();
        let n = reader.read_line(&mut rest).unwrap_or(0);
        assert_eq!(n, 0, "connection must close after the error: {rest:?}");
    }

    // Subscribing to the prior-life campaign replays its log and ends
    // with the persisted status — "failed", not "done".
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        stream
            .write_all(format!("{{\"op\":\"subscribe\",\"id\":\"{failed_id}\"}}\n").as_bytes())
            .unwrap();
        let reader = BufReader::new(stream);
        let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
        assert!(is_ok(&Json::parse(&lines[0]).unwrap()), "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("prior")), "{lines:?}");
        let sentinel = Json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(str_field(&sentinel, "op"), "subscribe-end");
        assert_eq!(str_field(&sentinel, "status"), "failed", "{lines:?}");
    }

    // And `report` still serves the prior-life report by its real id.
    let doc = request(addr, &format!(r#"{{"op":"report","id":"{failed_id}"}}"#));
    assert!(is_ok(&doc), "{doc:?}");
    assert_eq!(str_field(&doc, "report"), "{\"schema\": 1}\n");

    let doc = request(addr, r#"{"op":"shutdown"}"#);
    assert!(is_ok(&doc), "{doc:?}");
    daemon.wait();
    let _ = std::fs::remove_dir_all(&root);
}

/// A request nested deeper than the JSON parser's depth bound (here a
/// ~600 KB line of `[`, under the 1 MiB line cap) is answered with a
/// parse error instead of overflowing the reactor thread's stack, and
/// the daemon keeps serving.
#[test]
fn daemon_survives_deeply_nested_request() {
    let root = tmp_dir("deep-nesting");
    let daemon = Daemon::start(DaemonConfig::new(&root)).unwrap();
    let addr = daemon.addr();

    let doc = request(addr, &"[".repeat(600 * 1024));
    assert!(!is_ok(&doc), "{doc:?}");
    assert!(
        str_field(&doc, "error").contains("nesting too deep"),
        "{doc:?}"
    );
    let doc = request(addr, r#"{"op":"status"}"#);
    assert!(is_ok(&doc), "daemon must still answer status: {doc:?}");

    let doc = request(addr, r#"{"op":"shutdown"}"#);
    assert!(is_ok(&doc), "{doc:?}");
    daemon.wait();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn daemon_serves_submits_streams_and_dedups() {
    let root = tmp_dir("service");
    let ref_dir = tmp_dir("service-ref");
    let daemon = Daemon::start(DaemonConfig::new(&root).with_workers(2)).unwrap();
    let addr = daemon.addr();

    // --- 1. Submit over TCP. The id is the submission's content
    // address, so the client can predict it.
    let payload = submission_json("acme");
    let expected_id = Submission::from_str(&payload).unwrap().campaign_id();
    let submit_line = format!(r#"{{"op":"submit",{}"#, &payload.trim_start()[1..]);
    let doc = request(addr, &submit_line);
    assert!(is_ok(&doc), "{doc:?}");
    assert_eq!(str_field(&doc, "id"), expected_id);
    assert_eq!(str_field(&doc, "status"), "queued");
    assert!(matches!(doc.get("deduped"), Some(Json::Bool(false))));

    // Malformed and unknown requests answer errors, not silence.
    assert!(!is_ok(&request(addr, r#"{"op":"frobnicate"}"#)));
    assert!(!is_ok(&request(addr, r#"{"op":"report","id":"nope"}"#)));

    // --- 2. Subscribe on a second connection while the campaign runs;
    // collect every streamed line with its arrival time.
    let subscriber = {
        let id = expected_id.clone();
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(format!(r#"{{"op":"subscribe","id":"{id}"}}"#).as_bytes())
                .unwrap();
            stream.write_all(b"\n").unwrap();
            let reader = BufReader::new(stream);
            let mut lines: Vec<(String, Instant)> = Vec::new();
            for line in reader.lines() {
                let line = line.unwrap();
                let now = Instant::now();
                let end = Json::parse(&line)
                    .ok()
                    .is_some_and(|d| str_field(&d, "op") == "subscribe-end");
                lines.push((line, now));
                if end {
                    break;
                }
            }
            lines
        })
    };

    // --- Cancel path: a second campaign queued behind the running one
    // is withdrawn before it ever executes (queue_workers = 1, so it
    // cannot start while the first is running).
    let cancel_payload = submission_json("acme").replace("svc-real", "svc-cancelled");
    let cancel_id = Submission::from_str(&cancel_payload).unwrap().campaign_id();
    let doc = request(
        addr,
        &format!(r#"{{"op":"submit",{}"#, &cancel_payload.trim_start()[1..]),
    );
    assert!(is_ok(&doc), "{doc:?}");
    let doc = request(addr, &format!(r#"{{"op":"cancel","id":"{cancel_id}"}}"#));
    assert!(is_ok(&doc), "{doc:?}");
    assert_eq!(str_field(&doc, "status"), "cancelled");

    // --- 3. Wait for completion; the report must be byte-identical to
    // the process-per-run CLI path (fresh directory, default
    // namespace — the determinism contract makes them comparable).
    let done_at = wait_done(addr, &expected_id);
    let doc = request(addr, &format!(r#"{{"op":"report","id":"{expected_id}"}}"#));
    assert!(is_ok(&doc), "{doc:?}");
    let daemon_report = str_field(&doc, "report").to_string();
    assert!(!daemon_report.is_empty());

    let (ds, attack) = real_cfgs();
    let cli = run_campaign_sharded(
        "svc-real",
        &ds,
        &attack,
        ExecConfig::with_workers(2),
        &ref_dir,
        &ShardConfig::new("cli"),
    )
    .unwrap();
    assert!(cli.sharded.run.outcome.all_succeeded());
    let cli_report = cli.sharded.run.report(ReportOptions::default()).to_json();
    assert_eq!(
        daemon_report, cli_report,
        "daemon-served report must be byte-identical to the CLI path"
    );

    // --- The subscriber saw the run live: stage events arrived before
    // the campaign turned terminal, every streamed line is a complete
    // event record, and the stream is loss-free against the on-disk
    // logs.
    let streamed = subscriber.join().unwrap();
    let (ack, _) = &streamed[0];
    assert!(is_ok(&Json::parse(ack).unwrap()), "subscribe ack first");
    let (sentinel, _) = streamed.last().unwrap();
    let sentinel = Json::parse(sentinel).unwrap();
    assert_eq!(str_field(&sentinel, "op"), "subscribe-end");
    assert_eq!(str_field(&sentinel, "status"), "done");
    let events: Vec<(Event, Instant)> = streamed[1..streamed.len() - 1]
        .iter()
        .map(|(l, at)| (Event::parse(l).expect("streamed lines are events"), *at))
        .collect();
    assert!(
        events
            .iter()
            .any(|(e, _)| matches!(e, Event::RunStarted { .. })),
        "the stream must carry the run's start"
    );
    let first_stage_event = events
        .iter()
        .find(|(e, _)| matches!(e, Event::JobClaimed { .. } | Event::JobFinished { .. }))
        .map(|(_, at)| *at)
        .expect("stage events must stream");
    assert!(
        first_stage_event < done_at,
        "stage events must arrive while the campaign is still running"
    );
    let campaign_dir = root.join("campaigns").join(&expected_id);
    let on_disk: usize = std::fs::read_dir(&campaign_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with("events") && name.ends_with(".jsonl") && name != "merged-events.jsonl"
        })
        .map(|e| std::fs::read_to_string(e.path()).unwrap().lines().count())
        .sum();
    assert_eq!(events.len(), on_disk, "live stream must be loss-free");

    // --- 4a. Identical resubmission: answered from the registry, same
    // id, byte-identical report, nothing queued.
    let doc = request(addr, &submit_line);
    assert!(is_ok(&doc), "{doc:?}");
    assert_eq!(str_field(&doc, "id"), expected_id);
    assert_eq!(str_field(&doc, "status"), "done");
    assert!(matches!(doc.get("deduped"), Some(Json::Bool(true))));
    let doc = request(addr, &format!(r#"{{"op":"report","id":"{expected_id}"}}"#));
    assert_eq!(str_field(&doc, "report"), daemon_report);

    // --- 4b. Cohabitation: an external shard worker pointed at the
    // daemon's campaign directory (same tenant namespace) re-runs the
    // campaign as pure cache hits — zero job bodies executed, zero
    // leases claimed, byte-identical report.
    let warm = run_campaign_sharded(
        "svc-real",
        &ds,
        &attack,
        ExecConfig::with_workers(2),
        &campaign_dir,
        &ShardConfig::new("external").with_namespace("acme"),
    )
    .unwrap();
    assert_eq!(warm.sharded.run.outcome.stats.executed, 0);
    assert_eq!(warm.sharded.lease_stats.claimed, 0);
    assert_eq!(
        warm.sharded.run.report(ReportOptions::default()).to_json(),
        cli_report
    );

    // --- 5. A second tenant with the same submission: its own id, its
    // own namespaced entries, counted against its own usage.
    let rival_payload = submission_json("rival");
    let rival_id = Submission::from_str(&rival_payload).unwrap().campaign_id();
    assert_ne!(rival_id, expected_id, "tenant is part of the identity");
    let doc = request(
        addr,
        &format!(r#"{{"op":"submit",{}"#, &rival_payload.trim_start()[1..]),
    );
    assert!(is_ok(&doc), "{doc:?}");
    assert!(matches!(doc.get("deduped"), Some(Json::Bool(false))));
    wait_done(addr, &rival_id);
    let rival_dir = root.join("campaigns").join(&rival_id);
    assert!(
        rival_dir
            .join("tenants")
            .join("rival")
            .join("objects")
            .is_dir(),
        "tenant entries must live under their namespace"
    );
    let usage = tenant_usage(&rival_dir).unwrap();
    assert!(
        usage.get("rival").copied().unwrap_or(0) > 0,
        "tenant usage must account the namespaced entries: {usage:?}"
    );
    assert!(
        !usage.contains_key(""),
        "no entries may leak into the default namespace: {usage:?}"
    );
    let acme_usage = tenant_usage(&campaign_dir).unwrap();
    assert!(acme_usage.get("acme").copied().unwrap_or(0) > 0);
    let doc = request(addr, &format!(r#"{{"op":"report","id":"{rival_id}"}}"#));
    assert_eq!(
        str_field(&doc, "report"),
        daemon_report,
        "the report itself is tenant-independent"
    );

    // --- Telemetry surfaces: the NDJSON `metrics` op and the plain
    // HTTP `GET /metrics` endpoint both serve the Prometheus
    // exposition, with the campaign counters reflecting this run.
    let doc = request(addr, r#"{"op":"metrics"}"#);
    assert!(is_ok(&doc), "{doc:?}");
    let ndjson_text = str_field(&doc, "metrics").to_string();
    assert!(
        ndjson_text.contains("# TYPE daemon_campaigns_total counter"),
        "{ndjson_text}"
    );

    let http = {
        use std::io::Read as _;
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: daemon\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    };
    assert!(http.starts_with("HTTP/1.1 200 OK"), "{http}");
    assert!(http.contains("text/plain; version=0.0.4"), "{http}");
    let body = http.split("\r\n\r\n").nth(1).expect("HTTP body");
    // Parseable exposition: every non-comment line is `name[{labels}] value`.
    for line in body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (_, value) = line.rsplit_once(' ').expect("metric line shape");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample value: {line}"
        );
    }
    let done = body
        .lines()
        .find(|l| l.starts_with("daemon_campaigns_total{status=\"done\"}"))
        .expect("done-campaign counter must be exposed");
    let done_count: f64 = done.rsplit_once(' ').unwrap().1.parse().unwrap();
    assert!(done_count >= 2.0, "acme + rival completed: {done}");
    assert!(
        body.lines()
            .any(|l| l.starts_with("daemon_submissions_total")),
        "{body}"
    );
    // The NDJSON op serves the same families.
    assert!(ndjson_text.contains("daemon_submissions_total"));

    // An unknown HTTP path 404s instead of hanging the reactor.
    let http = {
        use std::io::Read as _;
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /nope HTTP/1.1\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    };
    assert!(http.starts_with("HTTP/1.1 404"), "{http}");

    // --- Status lists all three campaigns; graceful shutdown drains.
    let doc = request(addr, r#"{"op":"status"}"#);
    let Some(Json::Arr(items)) = doc.get("campaigns") else {
        panic!("campaigns array expected: {doc:?}");
    };
    assert_eq!(items.len(), 3);
    let doc = request(addr, r#"{"op":"shutdown"}"#);
    assert!(is_ok(&doc), "{doc:?}");
    daemon.wait();

    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&ref_dir);
}
