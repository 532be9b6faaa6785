//! The `live-stream` workload: an in-process `Gateway` under an
//! open-loop HTTP/SSE client.
//!
//! The client runs on one thread and holds at most nproc connections,
//! one request per connection. Requests are due on a Poisson schedule
//! generated from the seed (by `Scenario::generate`, read as wall time
//! divided by the time scale); each is timed from its due time, so a
//! request that waited for a free connection slot pays that wait. The
//! mix is mostly streamed completions, some unary completions (which
//! hold a pool worker for the whole request), and a few
//! `GET /v1/cluster/status` polls (which make the driver snapshot the
//! session).

use std::collections::VecDeque;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use windserve::{
    ArrivalProcess, Cluster, Dataset, LatencySummary, RunReport, Scenario, ServeConfig, SystemKind,
};
use windserve_gateway::http::{self, HttpRequest, ResponseParser};
use windserve_gateway::sse::{SseEvent, SseParser};
use windserve_gateway::{api, Gateway, GatewayConfig, Sink, StreamUpdate};

use crate::host::{self, ThreadCpu};
use crate::report::{self, Outcome};
use crate::spans::Spans;
use crate::stats::{self, ratio, Dist, FAST_QUARTER};
use crate::{check, derive_seed, Args, Failure};

/// Virtual seconds simulated per wall second. Low enough that tokens
/// arrive one per read.
pub const TIME_SCALE: f64 = 100.0;

/// Offered load, requests per wall second.
pub const OFFERED_RPS: f64 = 120.0;

/// Output budget cap per request, tokens (keeps a stream's connection
/// short, so nproc connections carry the offered rate).
pub const MAX_TOKENS: u32 = 12;

/// Per mille of requests that are unary completions / status polls;
/// the rest are streamed completions.
const UNARY_PER_MILLE: u64 = 150;
const STATUS_PER_MILLE: u64 = 30;

/// `Gateway::start` repetitions per run; `setup_s` is the median.
const SETUP_REPS: usize = 101;

/// Interval between in-process `DriverHandle::submit` probes (traced run
/// only).
const PROBE_EVERY: Duration = Duration::from_millis(40);

/// How long the client sleeps between sweeps of idle open connections.
const POLL: Duration = Duration::from_micros(50);

/// Name of the client thread, as `/proc` shows it.
const CLIENT_THREAD: &str = "wb-client";

/// The wall-clock SLO: the served model's simulated SLO mapped to wall
/// time by the time scale. Returns `(ttft_s, tpot_s)`.
fn wall_slo(cfg: &ServeConfig) -> (f64, f64) {
    (
        cfg.slo.ttft.as_secs_f64() / TIME_SCALE,
        cfg.slo.tpot.as_secs_f64() / TIME_SCALE,
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Stream,
    Unary,
    Status,
}

/// One scheduled client request.
#[derive(Debug, Clone)]
struct Job {
    due: Duration,
    kind: Kind,
    max_tokens: u32,
    request: HttpRequest,
    /// `request` encoded, as sent.
    wire: Vec<u8>,
}

/// The client's inputs, generated from the seed.
/// `context` is the served model's context window: prompt + output stay
/// within it, as the gateway requires.
fn schedule(
    seed: u64,
    seconds: f64,
    context: u32,
    spans: &mut Spans,
) -> Result<(Vec<Job>, f64), Failure> {
    let n = (OFFERED_RPS * seconds * 1.5) as usize + 32;
    let scenario = Scenario::single_shot(
        Dataset::sharegpt(context),
        ArrivalProcess::poisson(OFFERED_RPS / TIME_SCALE),
        n,
    );
    let (trace, gen_s) = spans.time("workload.generate", None, || {
        scenario.generate(derive_seed(seed, 0))
    });
    let trace = trace.map_err(|e| Failure(format!("Scenario::generate: {e}")))?;
    let mut jobs = Vec::new();
    for (i, r) in trace.requests().iter().enumerate() {
        let due = r.arrival.as_secs_f64() / TIME_SCALE;
        if due >= seconds {
            break;
        }
        let roll = derive_seed(seed, 1 + i as u64) % 1000;
        let kind = if roll < STATUS_PER_MILLE {
            Kind::Status
        } else if roll < STATUS_PER_MILLE + UNARY_PER_MILLE {
            Kind::Unary
        } else {
            Kind::Stream
        };
        let max_tokens = r.output_tokens.clamp(2, MAX_TOKENS);
        let prompt_tokens = r.prompt_tokens.min(context - max_tokens);
        let request = match kind {
            Kind::Status => HttpRequest::new("GET", "/v1/cluster/status", Vec::new()),
            _ => {
                let body = format!(
                    r#"{{"prompt_tokens": {prompt_tokens}, "max_tokens": {max_tokens}, "stream": {}}}"#,
                    kind == Kind::Stream
                );
                HttpRequest::new("POST", "/v1/completions", body.into_bytes())
            }
        };
        jobs.push(Job {
            due: Duration::from_secs_f64(due),
            kind,
            max_tokens,
            wire: request.encode(),
            request,
        });
    }
    Ok((jobs, gen_s))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Rejected429,
    Rejected503Backlog,
    Rejected503Other,
    Aborted,
    Transport,
}

/// What the client saw of one request; instants are offsets from the
/// run's epoch.
#[derive(Debug, Clone)]
struct Record {
    job: usize,
    verdict: Verdict,
    connect_start: Duration,
    connected: Duration,
    written: Option<Duration>,
    head: Option<Duration>,
    tokens: Vec<Duration>,
    end: Duration,
    /// Decoded SSE body bytes (traced run only, for the codec probes).
    sse_bytes: Vec<u8>,
    /// SSE `data:` payloads of token events (traced run only).
    token_data: Vec<String>,
}

/// One open connection.
struct Conn {
    sock: TcpStream,
    written: usize,
    parser: ResponseParser,
    sse: SseParser,
    next_index: u32,
    saw_done: bool,
    /// A typed `error` / `deadline-exceeded` event ended the stream.
    aborted: bool,
    body: Vec<u8>,
    rec: Record,
}

/// Checks one finished response and classifies it.
fn classify(job: &Job, conn: &mut Conn) -> Result<Verdict, Failure> {
    let status = conn.parser.status().unwrap_or(0);
    let body = std::mem::take(&mut conn.body);
    match status {
        200 => {}
        429 => return Ok(Verdict::Rejected429),
        503 => {
            let kind = serde_json::from_str::<serde_json::Value>(&String::from_utf8_lossy(&body))
                .ok()
                .and_then(|v| {
                    v.get("error")
                        .and_then(|e| e.get("type"))
                        .and_then(|t| t.as_str().map(str::to_string))
                });
            return Ok(if kind.as_deref() == Some("overloaded") {
                Verdict::Rejected503Backlog
            } else {
                Verdict::Rejected503Other
            });
        }
        // Every request the client sends is valid: any other status is
        // a wrong answer, not a refusal.
        other => {
            return Err(Failure(format!(
                "unexpected HTTP {other} for a {:?} request",
                job.kind
            )))
        }
    }
    match job.kind {
        Kind::Stream if conn.aborted => return Ok(Verdict::Aborted),
        Kind::Stream => {
            check(conn.saw_done, || {
                "a stream ended without [DONE]".to_string()
            })?;
            check(conn.next_index == job.max_tokens, || {
                format!(
                    "a stream delivered {} token events, expected max_tokens = {}",
                    conn.next_index, job.max_tokens
                )
            })?;
        }
        Kind::Unary => {
            let v: serde_json::Value = serde_json::from_str(&String::from_utf8_lossy(&body))
                .map_err(|e| Failure(format!("unary body is not JSON: {e}")))?;
            let tokens = v
                .get("usage")
                .and_then(|u| u.get("completion_tokens"))
                .and_then(|t| t.as_u64());
            check(tokens == Some(u64::from(job.max_tokens)), || {
                format!(
                    "unary completion returned {tokens:?} tokens, expected {}",
                    job.max_tokens
                )
            })?;
        }
        Kind::Status => {
            let v: serde_json::Value = serde_json::from_str(&String::from_utf8_lossy(&body))
                .map_err(|e| Failure(format!("status body is not JSON: {e}")))?;
            check(v.get("report").is_some(), || {
                "status body has no report".to_string()
            })?;
        }
    }
    Ok(Verdict::Ok)
}

enum Step {
    Idle,
    Progress,
    Finished,
}

/// Advances one connection: flush request bytes, read what arrived,
/// decode SSE events and check their order.
fn sweep(
    job: &Job,
    conn: &mut Conn,
    buf: &mut [u8],
    epoch: Instant,
    keep_bytes: bool,
) -> Result<Step, Failure> {
    let mut progressed = false;
    while conn.written < job.wire.len() {
        match conn.sock.write(&job.wire[conn.written..]) {
            Ok(0) => return finish_transport(conn, epoch),
            Ok(n) => {
                conn.written += n;
                progressed = true;
                if conn.written == job.wire.len() {
                    conn.rec.written = Some(epoch.elapsed());
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return finish_transport(conn, epoch),
        }
    }
    loop {
        match conn.sock.read(buf) {
            Ok(0) => {
                conn.rec.end = epoch.elapsed();
                conn.rec.verdict = if conn.parser.is_done() {
                    classify(job, conn)?
                } else {
                    Verdict::Transport
                };
                return Ok(Step::Finished);
            }
            Ok(n) => {
                progressed = true;
                let now = epoch.elapsed();
                if conn.parser.feed(&buf[..n]).is_err() {
                    return finish_transport(conn, epoch);
                }
                if conn.rec.head.is_none() && conn.parser.status().is_some() {
                    conn.rec.head = Some(now);
                }
                let body = conn.parser.take_body();
                if job.kind == Kind::Stream && conn.parser.status() == Some(200) {
                    if keep_bytes {
                        conn.rec.sse_bytes.extend_from_slice(&body);
                    }
                    for ev in conn.sse.feed(&body) {
                        on_event(job, conn, &ev, now, keep_bytes)?;
                    }
                } else {
                    conn.body.extend_from_slice(&body);
                }
                if conn.parser.is_done() {
                    conn.rec.end = now;
                    conn.rec.verdict = classify(job, conn)?;
                    return Ok(Step::Finished);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return finish_transport(conn, epoch),
        }
    }
    Ok(if progressed {
        Step::Progress
    } else {
        Step::Idle
    })
}

fn finish_transport(conn: &mut Conn, epoch: Instant) -> Result<Step, Failure> {
    conn.rec.end = epoch.elapsed();
    conn.rec.verdict = Verdict::Transport;
    Ok(Step::Finished)
}

/// One SSE event of a stream: a token (checked to arrive in order), the
/// `[DONE]` sentinel, or a typed abort.
fn on_event(
    job: &Job,
    conn: &mut Conn,
    ev: &SseEvent,
    now: Duration,
    keep: bool,
) -> Result<(), Failure> {
    if ev.event.is_some() {
        // `error` / `deadline-exceeded`: the stream was killed.
        conn.aborted = true;
        return Ok(());
    }
    if ev.data == api::DONE_SENTINEL {
        conn.saw_done = true;
        return Ok(());
    }
    check(!conn.saw_done, || {
        "a token event arrived after [DONE]".to_string()
    })?;
    let v: serde_json::Value = serde_json::from_str(&ev.data)
        .map_err(|e| Failure(format!("token event is not JSON: {e}")))?;
    let index = v.get("token_index").and_then(|i| i.as_u64());
    check(index == Some(u64::from(conn.next_index)), || {
        format!(
            "token events out of order: got index {index:?}, expected {}",
            conn.next_index
        )
    })?;
    check(conn.next_index < job.max_tokens, || {
        "a stream sent more tokens than max_tokens".to_string()
    })?;
    conn.next_index += 1;
    conn.rec.tokens.push(now);
    if keep {
        conn.rec.token_data.push(ev.data.clone());
    }
    Ok(())
}

/// What the client measured.
struct ClientRun {
    /// The instant every record's offsets count from.
    epoch: Instant,
    records: Vec<Record>,
    lag: Vec<f64>,
    peak_inflight: usize,
}

/// The open-loop client: one thread, at most `slots` connections.
fn client(
    addr: SocketAddr,
    jobs: &[Job],
    slots: usize,
    keep_bytes: bool,
    give_up: Duration,
) -> Result<ClientRun, Failure> {
    let epoch = Instant::now();
    let mut next = 0;
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut conns: Vec<(usize, Conn)> = Vec::new();
    let mut records = Vec::with_capacity(jobs.len());
    let mut lag = Vec::with_capacity(jobs.len());
    let mut peak_inflight = 0;
    let mut buf = vec![0u8; 16 * 1024];
    loop {
        let now = epoch.elapsed();
        while next < jobs.len() && jobs[next].due <= now {
            lag.push((now - jobs[next].due).as_secs_f64());
            queue.push_back(next);
            next += 1;
        }
        while conns.len() < slots {
            let Some(j) = queue.pop_front() else {
                break;
            };
            let connect_start = epoch.elapsed();
            let sock = TcpStream::connect(addr);
            let connected = epoch.elapsed();
            let mut rec = Record {
                job: j,
                verdict: Verdict::Transport,
                connect_start,
                connected,
                written: None,
                head: None,
                tokens: Vec::new(),
                end: connected,
                sse_bytes: Vec::new(),
                token_data: Vec::new(),
            };
            let Ok(sock) = sock else {
                records.push(rec);
                continue;
            };
            if sock.set_nodelay(true).is_err() || sock.set_nonblocking(true).is_err() {
                rec.end = epoch.elapsed();
                records.push(rec);
                continue;
            }
            conns.push((
                j,
                Conn {
                    sock,
                    written: 0,
                    parser: ResponseParser::new(),
                    sse: SseParser::new(),
                    next_index: 0,
                    saw_done: false,
                    aborted: false,
                    body: Vec::new(),
                    rec,
                },
            ));
        }
        peak_inflight = peak_inflight.max(conns.len());
        let mut progressed = false;
        let mut i = 0;
        while i < conns.len() {
            let (j, conn) = &mut conns[i];
            match sweep(&jobs[*j], conn, &mut buf, epoch, keep_bytes)? {
                Step::Idle => i += 1,
                Step::Progress => {
                    progressed = true;
                    i += 1;
                }
                Step::Finished => {
                    progressed = true;
                    let (_, conn) = conns.swap_remove(i);
                    records.push(conn.rec);
                }
            }
        }
        if next == jobs.len() && queue.is_empty() && conns.is_empty() {
            break;
        }
        if epoch.elapsed() > give_up {
            // Requests still open or unsent this long after the schedule
            // ended are lost: transport errors.
            let now = epoch.elapsed();
            records.extend(conns.drain(..).map(|(_, conn)| conn.rec));
            records.extend(queue.drain(..).chain(next..jobs.len()).map(|j| Record {
                job: j,
                verdict: Verdict::Transport,
                connect_start: now,
                connected: now,
                written: None,
                head: None,
                tokens: Vec::new(),
                end: now,
                sse_bytes: Vec::new(),
                token_data: Vec::new(),
            }));
            break;
        }
        if !progressed {
            // Nothing open: sleep until the next request is due. Streams
            // open: poll again shortly (one client thread, no poll(2)).
            let idle = if conns.is_empty() && queue.is_empty() {
                jobs.get(next)
                    .map_or(POLL, |j| j.due.saturating_sub(epoch.elapsed()))
                    .min(Duration::from_millis(1))
            } else {
                POLL
            };
            std::thread::sleep(idle);
        }
    }
    records.sort_by_key(|r| r.job);
    Ok(ClientRun {
        epoch,
        records,
        lag,
        peak_inflight,
    })
}

/// In-process `DriverHandle::submit` probes with a channel sink, run on
/// their own thread until `stop`. Returns submit latencies and the
/// number of probe requests that completed.
fn probe(handle: windserve_gateway::DriverHandle, stop: &AtomicBool) -> (Vec<f64>, u64) {
    let mut lat = Vec::new();
    let mut completed = 0;
    while !stop.load(Ordering::SeqCst) {
        let (tx, rx) = mpsc::channel();
        let t = Instant::now();
        let verdict = handle.submit(64, 2, 0, None, None, Sink::Channel(tx));
        lat.push(t.elapsed().as_secs_f64());
        if verdict.is_ok() {
            while let Ok(update) = rx.recv() {
                match update {
                    StreamUpdate::Token { .. } => {}
                    StreamUpdate::Done { .. } => {
                        completed += 1;
                        break;
                    }
                    StreamUpdate::Aborted { .. } => break,
                }
            }
        }
        std::thread::sleep(PROBE_EVERY);
    }
    (lat, completed)
}

/// Runs `live-stream`.
///
/// # Errors
///
/// A failed output check or a gateway error.
pub fn run(args: &Args, spans: &mut Spans) -> Result<Outcome, Failure> {
    let cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
    let workers = host::nproc();
    let (jobs, gen_s) = schedule(args.seed, args.seconds, cfg.model.max_context, spans)?;
    check(!jobs.is_empty(), || "the schedule is empty".to_string())?;

    // Set-up: start the gateway several times, keep the last one.
    let mut setup_s = Vec::new();
    let mut new_s = Vec::new();
    let mut gateway = None;
    for rep in 0..SETUP_REPS {
        let (cluster, dt) = spans.time("core.new", None, || Cluster::new(cfg.clone()));
        cluster.map_err(|e| Failure(format!("Cluster::new: {e}")))?;
        new_s.push(dt);
        let mut gw = GatewayConfig::local(cfg.clone());
        gw.workers = workers;
        gw.time_scale = TIME_SCALE;
        let (started, dt) = spans.time("gateway.start", None, || Gateway::start(gw));
        let started = started.map_err(|e| Failure(format!("Gateway::start: {e}")))?;
        setup_s.push(dt);
        if rep + 1 == SETUP_REPS {
            gateway = Some(started);
        } else {
            let report = started.shutdown();
            check(report.driver.error.is_none(), || {
                format!("idle gateway shutdown: {:?}", report.driver.error)
            })?;
        }
    }
    let gateway = gateway.expect("SETUP_REPS > 0");
    let addr = gateway.addr();

    // The measured run.
    let threads_before = host::thread_cpu();
    let stop = AtomicBool::new(false);
    let give_up = Duration::from_secs_f64(args.seconds + 30.0);
    let measured = std::thread::scope(|s| {
        let prober = args.trace.then(|| {
            let handle = gateway.driver_handle();
            let stop = &stop;
            std::thread::Builder::new()
                .name("wb-probe".to_string())
                .spawn_scoped(s, move || probe(handle, stop))
        });
        let client = std::thread::Builder::new()
            .name(CLIENT_THREAD.to_string())
            .spawn_scoped(s, || {
                let run = client(addr, &jobs, workers, args.trace, give_up);
                // Snapshot before the thread exits so its own CPU counts.
                (run, host::thread_cpu())
            });
        let joined = match client {
            Ok(handle) => handle
                .join()
                .map_err(|_| Failure("the client thread panicked".to_string())),
            Err(e) => Err(Failure(format!("cannot spawn the client thread: {e}"))),
        };
        stop.store(true, Ordering::SeqCst);
        let probes = match prober {
            Some(Ok(handle)) => handle
                .join()
                .map_err(|_| Failure("the probe thread panicked".to_string())),
            Some(Err(e)) => Err(Failure(format!("cannot spawn the probe thread: {e}"))),
            None => Ok((Vec::new(), 0)),
        };
        let (run, threads) = joined?;
        Ok::<_, Failure>((run?, probes?, threads))
    });
    let health = gateway.health_state().label();
    let report = gateway.shutdown();
    let (client_run, probes, threads_after) = measured?;

    // Output checks.
    check(report.worker_panics == 0, || {
        format!("{} gateway worker panics", report.worker_panics)
    })?;
    check(
        health == "healthy" && report.final_health == "healthy",
        || format!("final health {health} / {}", report.final_health),
    )?;
    let driver = &report.driver;
    check(driver.error.is_none(), || {
        format!("driver error: {:?}", driver.error)
    })?;
    let run_report: &RunReport = driver
        .run_report
        .as_ref()
        .ok_or_else(|| Failure("the driver returned no RunReport".to_string()))?;
    check(
        run_report.summary.completed + run_report.dropped.len() == driver.submitted as usize,
        || {
            format!(
                "driver: {} completed + {} dropped != {} submitted",
                run_report.summary.completed,
                run_report.dropped.len(),
                driver.submitted
            )
        },
    )?;
    let records = &client_run.records;
    check(records.len() == jobs.len(), || {
        format!("{} of {} requests accounted for", records.len(), jobs.len())
    })?;
    let completions = records
        .iter()
        .filter(|r| r.verdict == Verdict::Ok && jobs[r.job].kind != Kind::Status)
        .count() as u64;
    check(completions + probes.1 == driver.completed, || {
        format!(
            "client saw {completions} completions (+{} probes), driver completed {}",
            probes.1, driver.completed
        )
    })?;

    let mut out = Outcome {
        attempted: records.len() as u64,
        failed: records.iter().filter(|r| r.verdict != Verdict::Ok).count() as u64,
        ..Outcome::default()
    };
    let span = |from: Duration, to: Duration| to.saturating_sub(from).as_secs_f64();
    let streams: Vec<&Record> = records
        .iter()
        .filter(|r| jobs[r.job].kind == Kind::Stream)
        .collect();
    let ok_streams: Vec<&Record> = streams
        .iter()
        .copied()
        .filter(|r| r.verdict == Verdict::Ok)
        .collect();
    let ttft: Vec<f64> = ok_streams
        .iter()
        .map(|r| span(jobs[r.job].due, r.tokens[0]))
        .collect();
    let tpot = |r: &Record| {
        let n = r.tokens.len();
        span(r.tokens[0], r.tokens[n - 1]) / (n - 1) as f64
    };

    if !args.trace {
        let (slo_ttft, slo_tpot) = wall_slo(&cfg);
        let met = ok_streams
            .iter()
            .zip(&ttft)
            .filter(|(r, &t)| t <= slo_ttft && tpot(r) <= slo_tpot)
            .count();
        let ok_requests = records.iter().filter(|r| r.verdict == Verdict::Ok).count();
        let ttft_d = Dist::of(&ttft);
        let tpot_d = Dist::of(&ok_streams.iter().map(|r| tpot(r)).collect::<Vec<_>>());
        let unary: Vec<f64> = records
            .iter()
            .filter(|r| jobs[r.job].kind == Kind::Unary && r.verdict == Verdict::Ok)
            .map(|r| span(jobs[r.job].due, r.end))
            .collect();
        let unary_d = Dist::of(&unary);
        out.set_n(
            "setup_s",
            stats::percentile(&setup_s, FAST_QUARTER).unwrap_or(0.0),
            setup_s.len(),
        );
        out.set("peak_rss_mb", host::peak_rss_mb());
        let gateway_cpu =
            host::cpu_secs_between(&threads_before, &threads_after, |n| n.starts_with("gw-"));
        out.set("host_req_per_s", ratio(ok_requests as f64, gateway_cpu));
        out.set("slo_attainment", ratio(met as f64, streams.len() as f64));
        out.set_n("ttft_p50_s", ttft_d.p50, ttft_d.n);
        out.set_n("ttft_p99_s", ttft_d.p99, ttft_d.n);
        out.set_n("tpot_p99_s", tpot_d.p99, tpot_d.n);
        out.set_n("e2e_p90_s", unary_d.p90, unary_d.n);
        return Ok(out);
    }

    // Client spans per request: due, connect, written, head, tokens, done.
    for r in records {
        record_request(spans, client_run.epoch, &jobs[r.job], r);
    }
    layer_metrics(
        &mut out,
        &jobs,
        &client_run,
        run_report,
        driver.completed,
        &probes.0,
        (&threads_before, &threads_after),
    );
    out.set_n(
        "core.new_s",
        stats::median(&new_s).unwrap_or(0.0),
        new_s.len(),
    );
    out.set("workload.generate_s", gen_s);
    out.set("workload.requests", jobs.len() as f64);
    out.set("workload.shared_prefix_share", 0.0);
    codec_metrics(&mut out, &jobs, records, spans)?;
    let (summary, dt) = spans.time("metrics.summarize", None, || {
        LatencySummary::of(cfg.slo, &run_report.records)
    });
    check(summary.completed == run_report.summary.completed, || {
        "LatencySummary::of disagrees with the run's own summary".to_string()
    })?;
    out.set("metrics.summarize_s", dt);
    // The gateway keeps its scheduling trace to itself: tracing layers
    // and the trace-derived transfer wait are idle here.
    out.idle(&[
        "trace.events",
        "trace.overhead_share",
        "trace.export_s",
        "kvcache.transfer_wait_p99_s",
    ]);
    Ok(out)
}

/// The client spans of one request: queue (due → connect), connect,
/// write, head (written → status line), one span per token gap.
fn record_request(spans: &mut Spans, epoch: Instant, job: &Job, r: &Record) {
    let id = Some(r.job as u64);
    let t = |d: Duration| epoch + d;
    let root = spans.record("client.request", None, id, t(job.due), t(r.end));
    spans.record("client.queue", root, id, t(job.due), t(r.connect_start));
    spans.record(
        "gateway.connect",
        root,
        id,
        t(r.connect_start),
        t(r.connected),
    );
    if let Some(w) = r.written {
        spans.record("client.write", root, id, t(r.connected), t(w));
        if let Some(h) = r.head {
            spans.record("gateway.head", root, id, t(w), t(h));
        }
    }
    let mut prev = r.head;
    for &tok in &r.tokens {
        if let Some(p) = prev {
            spans.record("client.token", root, id, t(p), t(tok));
        }
        prev = Some(tok);
    }
}

/// Per-layer metrics from the client records, the driver's report and
/// the per-thread CPU snapshots.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    out: &mut Outcome,
    jobs: &[Job],
    client: &ClientRun,
    run: &RunReport,
    server_completed: u64,
    submit_lat: &[f64],
    threads: (&[ThreadCpu], &[ThreadCpu]),
) {
    let span = |from: Duration, to: Duration| to.saturating_sub(from).as_secs_f64();
    let records = &client.records;
    let requests = records.len() as f64;
    let streams: Vec<&Record> = records
        .iter()
        .filter(|r| jobs[r.job].kind == Kind::Stream && r.verdict == Verdict::Ok)
        .collect();

    // The simulator inside the driver.
    report::report_layers(out, &[run], &[run]);
    let (before, after) = threads;
    let driver_cpu = host::cpu_secs_between(before, after, |n| n == "gw-driver");
    out.set(
        "sim.ns_per_event",
        ratio(driver_cpu * 1e9, run.events_processed as f64),
    );
    out.set("core.run_s", driver_cpu);

    // The gateway as the client saw it.
    let connect = Dist::of(
        &records
            .iter()
            .map(|r| span(r.connect_start, r.connected))
            .collect::<Vec<_>>(),
    );
    out.set_n("gateway.connect_p99_s", connect.p99, connect.n);
    let head = Dist::of(
        &streams
            .iter()
            .filter_map(|r| Some(span(r.written?, r.head?)))
            .collect::<Vec<_>>(),
    );
    out.set_n("gateway.head_p50_s", head.p50, head.n);
    out.set_n("gateway.head_p99_s", head.p99, head.n);
    let after_head = Dist::of(
        &streams
            .iter()
            .filter_map(|r| Some(span(r.head?, r.tokens[0])))
            .collect::<Vec<_>>(),
    );
    out.set_n(
        "gateway.first_token_after_head_p50_s",
        after_head.p50,
        after_head.n,
    );
    let gaps: Vec<f64> = streams
        .iter()
        .flat_map(|r| r.tokens.windows(2).map(|w| span(w[0], w[1])))
        .collect();
    let tbt = Dist::of(&gaps);
    out.set_n("gateway.tbt_p99_s", tbt.p99, tbt.n);
    let wall_ttft = Dist::of(
        &streams
            .iter()
            .map(|r| span(jobs[r.job].due, r.tokens[0]))
            .collect::<Vec<_>>(),
    );
    let model_ttft = Dist::of(&run.records.iter().map(|r| r.ttft()).collect::<Vec<_>>());
    out.set_n(
        "gateway.model_ttft_share",
        ratio(model_ttft.p50 / TIME_SCALE, wall_ttft.p50),
        wall_ttft.n,
    );
    let submit = Dist::of(submit_lat);
    out.set_n("gateway.submit_p99_s", submit.p99, submit.n);
    let status = Dist::of(
        &records
            .iter()
            .filter(|r| jobs[r.job].kind == Kind::Status && r.verdict == Verdict::Ok)
            .filter_map(|r| Some(span(r.written?, r.end)))
            .collect::<Vec<_>>(),
    );
    out.set_n("gateway.status_p99_s", status.p99, status.n);
    let per_req = |pick: &dyn Fn(&str) -> bool| {
        ratio(host::cpu_secs_between(before, after, pick) * 1e6, requests)
    };
    out.set(
        "gateway.driver_cpu_us_per_req",
        per_req(&|n| n == "gw-driver"),
    );
    out.set("gateway.pump_cpu_us_per_req", per_req(&|n| n == "gw-pump"));
    out.set(
        "gateway.accept_cpu_us_per_req",
        per_req(&|n| n == "gw-accept"),
    );
    out.set(
        "gateway.worker_cpu_us_per_req",
        per_req(&|n| n.starts_with("gw-worker")),
    );
    let count = |v: Verdict| records.iter().filter(|r| r.verdict == v).count() as f64;
    out.set("gateway.sent", requests);
    out.set("gateway.completed", count(Verdict::Ok));
    out.set("gateway.server_completed", server_completed as f64);
    out.set("gateway.rejected_429", count(Verdict::Rejected429));
    out.set(
        "gateway.rejected_503_backlog",
        count(Verdict::Rejected503Backlog),
    );
    out.set(
        "gateway.rejected_503_other",
        count(Verdict::Rejected503Other),
    );
    out.set("gateway.aborted", count(Verdict::Aborted));
    out.set("gateway.transport_errors", count(Verdict::Transport));

    // The client itself: evidence that it did not set the gw numbers.
    let lag = Dist::of(&client.lag);
    out.set_n("loadgen.lag_p99_s", lag.p99, lag.n);
    let wait = Dist::of(
        &records
            .iter()
            .map(|r| span(jobs[r.job].due, r.connect_start))
            .collect::<Vec<_>>(),
    );
    out.set_n("loadgen.slot_wait_p99_s", wait.p99, wait.n);
    out.set("loadgen.peak_inflight", client.peak_inflight as f64);
    out.set("loadgen.cpu_us_per_req", per_req(&|n| n == CLIENT_THREAD));
}

/// Rounds of each codec probe; the per-item time is the median round.
const CODEC_ROUNDS: usize = 5;

/// The workload's own request bytes through `http::read_request`, and
/// its own token events through `SseEvent::encode` and `SseParser`.
fn codec_metrics(
    out: &mut Outcome,
    jobs: &[Job],
    records: &[Record],
    spans: &mut Spans,
) -> Result<(), Failure> {
    let mut parse = Vec::new();
    for _ in 0..CODEC_ROUNDS {
        let (parsed, dt) = spans.time("gateway.http_parse", None, || {
            jobs.iter()
                .map(|j| http::read_request(&mut BufReader::new(j.wire.as_slice())))
                .collect::<Vec<_>>()
        });
        for (j, p) in jobs.iter().zip(&parsed) {
            let ok = matches!(p, Ok(Some(req))
                if req.method == j.request.method
                    && req.target == j.request.target
                    && req.body == j.request.body);
            check(ok, || {
                "read_request did not round-trip a request".to_string()
            })?;
        }
        parse.push(dt / jobs.len() as f64 * 1e9);
    }
    out.set_n(
        "gateway.http_parse_ns",
        stats::median(&parse).unwrap_or(0.0),
        parse.len(),
    );

    // Completed streams only: each one's bytes hold its token events and
    // the [DONE] sentinel.
    let streams: Vec<&Record> = records
        .iter()
        .filter(|r| r.verdict == Verdict::Ok && !r.sse_bytes.is_empty())
        .collect();
    let data: Vec<&String> = streams.iter().flat_map(|r| &r.token_data).collect();
    let tokens = data.len() as f64;
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    for _ in 0..CODEC_ROUNDS {
        let (bytes, dt) = spans.time("gateway.sse_encode", None, || {
            data.iter()
                .map(|d| SseEvent::data(d.as_str()).encode().len())
                .sum::<usize>()
        });
        check(bytes > 0 || data.is_empty(), || {
            "SSE encoding produced nothing".to_string()
        })?;
        encode.push(ratio(dt * 1e9, tokens));
        let (events, dt) = spans.time("gateway.sse_decode", None, || {
            streams
                .iter()
                .map(|r| SseParser::new().feed(&r.sse_bytes).len())
                .sum::<usize>()
        });
        check(events == data.len() + streams.len(), || {
            format!(
                "SseParser decoded {events} events from {} tokens in {} streams",
                data.len(),
                streams.len()
            )
        })?;
        decode.push(ratio(dt * 1e9, tokens));
    }
    out.set_n(
        "gateway.sse_encode_ns_per_token",
        stats::median(&encode).unwrap_or(0.0),
        encode.len(),
    );
    out.set_n(
        "gateway.sse_decode_ns_per_token",
        stats::median(&decode).unwrap_or(0.0),
        decode.len(),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_follows_the_seed() {
        let wires = |seed| -> Vec<Vec<u8>> {
            let (jobs, _) = schedule(seed, 2.0, 2048, &mut Spans::new(false)).expect("schedule");
            jobs.into_iter().map(|j| j.wire).collect()
        };
        assert_eq!(wires(1), wires(1));
        assert_ne!(wires(1), wires(2));
        let (jobs, _) = schedule(1, 2.0, 2048, &mut Spans::new(false)).expect("schedule");
        assert!(jobs.iter().all(|j| j.due < Duration::from_secs(2)));
        assert!(jobs.iter().any(|j| j.kind == Kind::Unary));
        assert!(jobs
            .iter()
            .all(|j| (2..=MAX_TOKENS).contains(&j.max_tokens)));
        for j in jobs.iter().filter(|j| j.kind != Kind::Status) {
            let req = api::CompletionRequest::from_json(&j.request.body).expect("valid body");
            assert!(req.prompt_tokens + req.max_tokens <= 2048);
        }
    }
}
