//! The `daemon_mix` workload: an in-process `gnnunlockd` on port 0 and
//! one closed-loop TCP client alternating fresh submissions with
//! identical resubmissions (a 50% duplicate share).
//!
//! A fresh submission goes submit → poll `status` until done →
//! `report`; a duplicate goes submit (answered `deduped`) → `report`.
//! Each is timed from sending `submit` to receiving the report. The
//! traced run starts a second daemon whose store backend is the
//! benchmark's decorator (`DaemonConfig::with_store_backend`) and
//! sends each submission to both daemons.

use crate::collect::{Collect, WORKERS};
use crate::inputs::daemon_submission;
use crate::probe::{Probe, TimedBackend};
use crate::stats::{Cost, Meter};
use crate::Settings;
use gnnunlock_core::{
    campaign_for, campaign_scheme_tag, AttackCampaignRunner, AttackOutcome, Submission,
};
use gnnunlock_daemon::{Daemon, DaemonConfig};
use gnnunlock_engine::{ExecConfig, Executor, Json, ReportOptions};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Input index of set-up submission `j`, apart from the timed ones.
fn setup_index(j: usize) -> u64 {
    u64::MAX - j as u64
}

/// Pause before each `status` poll: the daemon reactor's own idle poll
/// (`GNNUNLOCK_DAEMON_POLL_MS`, default 5 ms). Polling back to back
/// kept about one of the two CPUs busy answering, slowing the campaign
/// being waited for.
const POLL_PAUSE: Duration = Duration::from_millis(5);

/// Status polls after which a fresh submission counts as failed (50 s).
const MAX_POLLS: u64 = 10_000;

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(daemon: &Daemon) -> std::io::Result<Client> {
        let writer = TcpStream::connect(daemon.addr())?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Client {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    /// Send one request line and read its one-line answer.
    fn request(&mut self, doc: &Json) -> Result<(Json, usize, Duration), String> {
        let start = Instant::now();
        let mut line = doc.render_compact();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut answer = String::new();
        self.reader
            .read_line(&mut answer)
            .map_err(|e| format!("receive: {e}"))?;
        let rtt = start.elapsed();
        let doc = Json::parse(answer.trim_end()).map_err(|e| format!("answer is not JSON: {e}"))?;
        if doc.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("daemon refused: {}", answer.trim_end()));
        }
        Ok((doc, answer.len(), rtt))
    }
}

fn op_doc(op: &str, id: &str) -> Json {
    Json::obj(vec![
        ("op", Json::Str(op.into())),
        ("id", Json::Str(id.into())),
    ])
}

fn submit_doc(sub: &Submission) -> Json {
    let Json::Obj(mut fields) = sub.to_json() else {
        unreachable!("a submission renders as an object")
    };
    fields.insert(0, ("op".to_string(), Json::Str("submit".into())));
    Json::Obj(fields)
}

/// One timed submission: submit → (poll status) → report. Returns the
/// report text and what it cost; per-request measurements go to the
/// layers when `traced`.
fn submit(
    client: &mut Client,
    sub: &Submission,
    fresh: bool,
    traced: bool,
    c: &mut Collect,
) -> Result<(String, Cost), String> {
    let meter = Meter::start();
    let (ack, _, rtt) = client.request(&submit_doc(sub))?;
    let mut status_rtts = vec![];
    let id = ack
        .get("id")
        .and_then(Json::as_str)
        .ok_or("submit answer has no id")?
        .to_string();
    if ack.get("deduped") != Some(&Json::Bool(!fresh)) {
        return Err(format!(
            "submission {}: expected deduped={}, got {}",
            sub.name,
            !fresh,
            ack.render_compact()
        ));
    }
    let mut status = ack
        .get("status")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    let mut executed = 0.0;
    while status != "done" {
        if matches!(status.as_str(), "failed" | "cancelled")
            || status_rtts.len() as u64 >= MAX_POLLS
        {
            return Err(format!("submission {}: campaign ended {status}", sub.name));
        }
        std::thread::sleep(POLL_PAUSE);
        let (doc, _, rtt) = client.request(&op_doc("status", &id))?;
        status_rtts.push(rtt);
        let campaign = doc.get("campaign").ok_or("status answer has no campaign")?;
        status = campaign
            .get("status")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        executed = campaign
            .get("executed")
            .and_then(Json::as_num)
            .unwrap_or(0.0);
    }
    let (doc, bytes, report_rtt) = client.request(&op_doc("report", &id))?;
    let cost = meter.stop();
    let report = doc
        .get("report")
        .and_then(Json::as_str)
        .ok_or("report answer has no report")?
        .to_string();
    if traced {
        let l = &mut c.layers;
        l.submit.0 += 1;
        l.submit.1 += rtt;
        l.status.0 += status_rtts.len() as u64;
        l.status.1 += status_rtts.iter().sum::<Duration>();
        l.report.0 += 1;
        l.report.1 += report_rtt;
        l.report_bytes += bytes as u64;
        l.jobs_executed += executed as u64;
        l.fresh_submissions += u64::from(fresh);
    }
    Ok((report, cost))
}

/// The in-process report of `sub` (memory-only executor) and its
/// outcomes: the reference a daemon report must match byte for byte.
fn in_process(sub: &Submission) -> (String, Vec<AttackOutcome>) {
    let campaign = campaign_for(&sub.name, &sub.dataset, &sub.attack);
    let runner = AttackCampaignRunner::new(&sub.dataset, &sub.attack);
    let run = campaign.execute(&runner, &Executor::new(ExecConfig::with_workers(WORKERS)));
    let outcomes = run
        .aggregate::<Vec<AttackOutcome>>(&campaign_scheme_tag(&sub.dataset))
        .map(|a| a.as_ref().clone())
        .unwrap_or_default();
    (run.report(ReportOptions::default()).to_json(), outcomes)
}

/// A fresh submission followed by its duplicate, both checked.
fn pair(
    client: &mut Client,
    root: &Path,
    sub: &Submission,
    probe: Option<&Arc<Probe>>,
    c: &mut Collect,
) {
    let traced = probe.is_some();
    let span = probe.map(|p| p.begin_op("fresh-submission"));
    let fresh = submit(client, sub, true, traced, c);
    if let Some((p, s)) = probe.zip(span) {
        c.layers.tally.add(&p.end_op("fresh-submission", s));
    }
    let fresh_report = match fresh {
        Ok((report, cost)) => {
            c.timings(traced).campaign.push(cost);
            let (expected, outcomes) = in_process(sub);
            c.quality.add(&outcomes);
            if traced {
                let dir = campaign_dir(root, sub);
                let (events, traces) = campaign_files(&dir);
                c.layers.files(&events, &traces);
            }
            if report == expected {
                c.op(Ok(()));
                Some(report)
            } else {
                c.op(Err(format!(
                    "submission {}: daemon report differs from the in-process report",
                    sub.name
                )));
                None
            }
        }
        Err(e) => {
            c.op(Err(e));
            None
        }
    };
    let span = probe.map(|p| p.begin_op("duplicate-submission"));
    let dup = submit(client, sub, false, traced, c);
    if let Some((p, s)) = probe.zip(span) {
        c.layers.tally.add(&p.end_op("duplicate-submission", s));
    }
    let res = dup.and_then(|(report, cost)| {
        c.timings(traced).warm.push(cost);
        match &fresh_report {
            Some(first) if *first == report => Ok(()),
            Some(_) => Err(format!(
                "submission {}: duplicate report differs from the first",
                sub.name
            )),
            None => Err(format!(
                "submission {}: duplicate of a failed submission",
                sub.name
            )),
        }
    });
    c.op(res);
    if traced {
        c.layers.ops += 2;
    }
}

fn campaign_dir(root: &Path, sub: &Submission) -> PathBuf {
    root.join("campaigns").join(sub.campaign_id())
}

/// Event logs and Chrome traces a finished campaign left in `dir`.
fn campaign_files(dir: &Path) -> (Vec<PathBuf>, Vec<PathBuf>) {
    let mut events = vec![];
    let mut traces = vec![];
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".jsonl") {
            events.push(entry.path());
        } else if name.starts_with("trace") && name.ends_with(".json") {
            traces.push(entry.path());
        }
    }
    (events, traces)
}

struct Server {
    daemon: Daemon,
    client: Client,
    root: PathBuf,
}

fn start(root: PathBuf, probe: Option<&Arc<Probe>>) -> Result<Server, String> {
    let mut cfg = DaemonConfig::new(&root).with_workers(WORKERS);
    if let Some(p) = probe {
        cfg = cfg.with_store_backend(Arc::new(TimedBackend::new(p.clone())));
    }
    let daemon = Daemon::start(cfg).map_err(|e| format!("daemon start: {e}"))?;
    let client = Client::connect(&daemon).map_err(|e| format!("connect: {e}"))?;
    Ok(Server {
        daemon,
        client,
        root,
    })
}

pub fn daemon_workload(s: &Settings, probe: &Arc<Probe>) -> Collect {
    let mut c = Collect::default();
    let mut servers: Option<(Server, Option<Server>)> = None;
    for j in 0..s.setups {
        // Set-up: start the daemon(s) and run one warm-up pair.
        let meter = Meter::start();
        let started = start(s.work.join(format!("daemon-{j}")), None).and_then(|mut plain| {
            let traced = if s.trace {
                Some(start(
                    s.work.join(format!("daemon-{j}-traced")),
                    Some(probe),
                )?)
            } else {
                None
            };
            let mut warmup = Collect::default();
            pair(
                &mut plain.client,
                &plain.root,
                &daemon_submission(s.seed, setup_index(j)),
                None,
                &mut warmup,
            );
            match warmup.failures.pop() {
                Some(e) => Err(format!("set-up: {e}")),
                None => Ok((plain, traced)),
            }
        });
        c.setup.push(meter.stop());
        match started {
            Ok(new) => {
                if let Some((old, old_traced)) = servers.replace(new) {
                    old.daemon.stop();
                    if let Some(t) = old_traced {
                        t.daemon.stop();
                    }
                }
            }
            Err(e) => c.op(Err(e)),
        }
    }
    let Some((mut plain, mut traced_server)) = servers else {
        return c;
    };
    let begin = Instant::now();
    let mut i = 0u64;
    while i == 0 || begin.elapsed().as_secs_f64() < s.seconds {
        let sub = daemon_submission(s.seed, i);
        c.cycle(|c| {
            for &traced in s.variants(i) {
                match traced_server.as_mut().filter(|_| traced) {
                    Some(t) => pair(&mut t.client, &t.root, &sub, Some(probe), c),
                    None => pair(&mut plain.client, &plain.root, &sub, None, c),
                }
            }
        });
        i += 1;
    }
    plain.daemon.stop();
    if let Some(t) = traced_server {
        t.daemon.stop();
    }
    c
}
