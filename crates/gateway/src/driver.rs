//! The `SimDriver`: the adapter that turns the deterministic simulator
//! into a live engine.
//!
//! One thread owns a [`ClusterSession`] and maps wall-clock time onto
//! virtual time as `virtual_now = real_elapsed * time_scale` — with a
//! scale above 1 the simulated cluster runs *faster* than real time, so
//! a localhost client sees millisecond TTFTs for what the paper measures
//! in seconds. Live HTTP requests become sim arrivals stamped at the
//! mapped instant; admission verdicts come back synchronously (the
//! driver pumps the session past the arrival before replying, so a
//! rejection surfaces as a real `429`/`503` before any stream bytes are
//! written); per-token completions route back to the submitting
//! connection through a [`Sink`].
//!
//! The same thread owns every admitted HTTP response. A [`Sink::Http`]
//! request gets a per-request output buffer at admission; routing a
//! token appends its framed SSE event, and after each loop iteration
//! the driver writes the buffers that grew to their non-blocking
//! sockets. A socket whose write fails is reclaimed on the spot, so no
//! other thread ever has to report a dead stream back.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use windserve::{Cluster, ClusterSession, LiveEvent, RunReport, ServeConfig, SessionSnapshot};
use windserve_metrics::DropReason;
use windserve_sim::{SimDuration, SimTime};
use windserve_trace::TraceEvent;
use windserve_workload::{Request, RequestId, SessionId};

use crate::api;
use crate::http::{self, encode_chunk, LAST_CHUNK};
use crate::sse::SseEvent;

/// Per-request cap on response bytes buffered for a slow client.
const MAX_BUFFERED_BYTES: usize = 256 * 1024;

/// How long the driver waits before retrying a socket that would not
/// take all of its buffered bytes.
const WRITE_RETRY: Duration = Duration::from_millis(1);

/// Where a request's live updates go.
#[derive(Debug, Clone)]
pub enum Sink {
    /// Deliver typed updates over a channel (non-streamed responses,
    /// tests).
    Channel(Sender<StreamUpdate>),
    /// The driver writes the HTTP response itself, to the client socket
    /// handed over with [`DriverHandle::attach`] once the request is
    /// admitted. Bytes produced before the socket arrives are buffered.
    /// A stream's fixed `200` head ([`http::sse_response_head`]) is the
    /// caller's to write before attaching; a unary response is written
    /// whole, head included, when the request ends.
    Http {
        /// Stream tokens as SSE events (`false`: one JSON response once
        /// the request ends).
        stream: bool,
    },
}

/// A live update for one submitted request.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamUpdate {
    /// A token was produced (`index` 0 is the first token).
    Token {
        /// Zero-based token index.
        index: u32,
        /// Virtual time of the token.
        virtual_secs: f64,
    },
    /// The request completed.
    Done {
        /// Tokens delivered.
        tokens: u32,
        /// Virtual seconds from submission to first token.
        ttft_virtual_secs: f64,
        /// Virtual seconds from submission to completion.
        latency_virtual_secs: f64,
    },
    /// The request was dropped after admission (shed or deadline).
    Aborted {
        /// The typed reason.
        reason: DropReason,
    },
}

/// Why a submission failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// Overload control dropped the request at admission; answer with
    /// [`DropReason::http_status`].
    Dropped(DropReason),
    /// The driver is gone (shutting down).
    Unavailable,
}

/// Final accounting from a driver that has shut down.
#[derive(Debug)]
pub struct DriverReport {
    /// Requests submitted over the gateway.
    pub submitted: u64,
    /// Requests that completed and streamed every token.
    pub completed: u64,
    /// Requests rejected at admission (`429`/`503` responses).
    pub rejected: u64,
    /// Requests dropped after admission (mid-stream aborts).
    pub aborted: u64,
    /// Streams killed because their per-request deadline expired.
    pub deadline_exceeded: u64,
    /// Streams reclaimed because the client disconnected mid-stream.
    pub disconnected: u64,
    /// The simulator's own run report, if the session finished cleanly.
    pub run_report: Option<RunReport>,
    /// A session error, if the event loop failed.
    pub error: Option<String>,
}

enum Msg {
    Submit {
        prompt_tokens: u32,
        output_tokens: u32,
        tier: u8,
        timeout_secs: Option<f64>,
        /// Client-chosen conversation key (the `x-session-id` header);
        /// follow-ups under the same key are tagged as session turns so
        /// prefix caching and affinity routing can act on them.
        session: Option<String>,
        verdict: Sender<Result<RequestId, DropReason>>,
        sink: Sink,
    },
    Snapshot {
        reply: Sender<SessionSnapshot>,
    },
    /// Hand an admitted [`Sink::Http`] request's client socket to the
    /// driver.
    Attach {
        id: RequestId,
        sock: TcpStream,
        stall: Option<Duration>,
    },
    /// Record a gateway-layer event into the session trace.
    Trace(TraceEvent),
    /// Injected driver stall (network chaos): sleep on the driver thread.
    Stall(Duration),
    Shutdown {
        reply: Sender<DriverReport>,
    },
}

/// Cloneable submission/status handle to the driver thread.
#[derive(Clone)]
pub struct DriverHandle {
    tx: Sender<Msg>,
}

impl std::fmt::Debug for DriverHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriverHandle").finish()
    }
}

impl DriverHandle {
    /// Submits a live request and blocks until the admission verdict.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Dropped`] when overload control rejected the
    /// request, [`SubmitError::Unavailable`] when the driver is gone.
    pub fn submit(
        &self,
        prompt_tokens: u32,
        output_tokens: u32,
        tier: u8,
        timeout_secs: Option<f64>,
        session: Option<String>,
        sink: Sink,
    ) -> Result<RequestId, SubmitError> {
        let (verdict_tx, verdict_rx) = mpsc::channel();
        self.tx
            .send(Msg::Submit {
                prompt_tokens,
                output_tokens,
                tier,
                timeout_secs,
                session,
                verdict: verdict_tx,
                sink,
            })
            .map_err(|_| SubmitError::Unavailable)?;
        match verdict_rx.recv() {
            Ok(Ok(id)) => Ok(id),
            Ok(Err(reason)) => Err(SubmitError::Dropped(reason)),
            Err(_) => Err(SubmitError::Unavailable),
        }
    }

    /// Records a gateway-layer event (health transitions, injected
    /// faults) into the session trace. Best-effort: lost if the driver
    /// is gone.
    pub fn emit_trace(&self, ev: TraceEvent) {
        let _ = self.tx.send(Msg::Trace(ev));
    }

    /// Hands the client socket of a request admitted with
    /// [`Sink::Http`] to the driver, which writes the buffered response
    /// bytes after whatever the caller already wrote, keeps writing
    /// until the response ends, then closes it. A
    /// `stall` (network chaos) holds every byte for that long first.
    /// The socket is dropped if the driver is gone or the request's
    /// response already failed.
    pub fn attach(&self, id: RequestId, sock: TcpStream, stall: Option<Duration>) {
        let _ = self.tx.send(Msg::Attach { id, sock, stall });
    }

    /// Injects a driver stall (network chaos): the driver thread sleeps
    /// for `dur` (capped) before processing further work.
    pub fn stall(&self, dur: Duration) {
        let _ = self.tx.send(Msg::Stall(dur));
    }

    /// A point-in-time snapshot of the live session, or `None` if the
    /// driver is gone.
    pub fn snapshot(&self) -> Option<SessionSnapshot> {
        let (tx, rx) = mpsc::channel();
        self.tx.send(Msg::Snapshot { reply: tx }).ok()?;
        rx.recv().ok()
    }
}

/// The driver thread plus its shutdown path.
#[derive(Debug)]
pub struct SimDriver {
    tx: Sender<Msg>,
    thread: Option<JoinHandle<()>>,
}

impl SimDriver {
    /// Builds the cluster and spawns the driver thread. `time_scale` is
    /// the virtual-seconds-per-real-second factor (clamped to a small
    /// positive minimum).
    ///
    /// # Errors
    ///
    /// Propagates cluster construction failures (invalid config).
    pub fn spawn(cfg: ServeConfig, time_scale: f64) -> windserve::Result<SimDriver> {
        let cluster = Cluster::new(cfg)?;
        let mut session = cluster.into_session();
        session.enable_live_events();
        let scale = if time_scale.is_finite() && time_scale > 0.0 {
            time_scale
        } else {
            1.0
        };
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("gw-driver".to_string())
            .spawn(move || driver_loop(session, &rx, scale))
            .map_err(|e| windserve::Error::Gateway {
                reason: format!("cannot spawn driver thread: {e}"),
            })?;
        Ok(SimDriver {
            tx,
            thread: Some(thread),
        })
    }

    /// A cloneable handle for submissions and snapshots.
    pub fn handle(&self) -> DriverHandle {
        DriverHandle {
            tx: self.tx.clone(),
        }
    }

    /// Drains in-flight work, finishes the session, and returns the
    /// final accounting.
    pub fn shutdown(mut self) -> DriverReport {
        let (tx, rx) = mpsc::channel();
        let report = if self.tx.send(Msg::Shutdown { reply: tx }).is_ok() {
            rx.recv().ok()
        } else {
            None
        };
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        report.unwrap_or(DriverReport {
            submitted: 0,
            completed: 0,
            rejected: 0,
            aborted: 0,
            deadline_exceeded: 0,
            disconnected: 0,
            run_report: None,
            error: Some("driver thread unavailable".to_string()),
        })
    }
}

/// Per-request live routing state.
struct StreamState {
    sink: Sink,
    prompt_tokens: u32,
    submitted_at: SimTime,
    first_token_at: Option<SimTime>,
    tokens: u32,
    /// Virtual instant past which the stream is killed with
    /// `deadline-exceeded` (mapped from the wall-clock budget).
    deadline: Option<SimTime>,
}

/// How a routed request ends.
enum End {
    /// Finished at this virtual instant with every token delivered.
    Done(SimTime),
    /// Dropped after admission; `event` names the terminal SSE event.
    Aborted {
        reason: DropReason,
        event: &'static str,
    },
}

/// The driver-owned half of an admitted [`Sink::Http`] request: the
/// response bytes not yet written and, once attached, the socket. It
/// outlives the routing entry until its last byte is written.
#[derive(Default)]
struct Conn {
    sock: Option<TcpStream>,
    buf: Vec<u8>,
    /// How many leading bytes of `buf` are already written.
    written: usize,
    /// The response is complete: close the socket once `buf` drains.
    closing: bool,
    /// Injected write stall (network chaos): hold bytes until then.
    stall_until: Option<Instant>,
}

/// What one write attempt left behind.
enum Flush {
    /// Bytes remain behind a write stall or a full kernel buffer: try
    /// again at this instant.
    RetryAt(Instant),
    /// Nothing to write until more bytes or the socket arrive.
    Idle,
    /// Everything written and the response closed.
    Closed,
    /// The socket failed; the client is gone.
    Dead,
}

impl Conn {
    /// Writes what the kernel takes without blocking.
    fn flush(&mut self, now: Instant) -> Flush {
        if let Some(until) = self.stall_until.filter(|until| now < *until) {
            return Flush::RetryAt(until);
        }
        self.stall_until = None;
        let Some(sock) = self.sock.as_mut() else {
            return Flush::Idle;
        };
        while self.written < self.buf.len() {
            match sock.write(&self.buf[self.written..]) {
                Ok(0) => return Flush::Dead,
                Ok(n) => self.written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return Flush::RetryAt(now + WRITE_RETRY)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Flush::Dead,
            }
        }
        self.buf.clear();
        self.written = 0;
        if self.closing {
            let _ = sock.shutdown(std::net::Shutdown::Write);
            return Flush::Closed;
        }
        Flush::Idle
    }
}

/// Longest injected driver stall honored per message — a chaos plan can
/// slow the driver, never wedge it.
const MAX_DRIVER_STALL: Duration = Duration::from_millis(500);

/// Per-conversation state keyed by the client's `x-session-id` header.
struct GatewaySession {
    id: SessionId,
    /// Turns submitted so far (the next turn's index).
    turns: u32,
    /// Tokens accumulated in the conversation after the last turn
    /// (prompt + output) — the upper bound on the next turn's shared
    /// prefix.
    context_tokens: u64,
}

struct Driver {
    session: ClusterSession,
    streams: HashMap<RequestId, StreamState>,
    /// Response buffers and sockets of admitted [`Sink::Http`] requests.
    conns: HashMap<RequestId, Conn>,
    /// Conns with bytes to write: grown, attached, or still pending
    /// after the last attempt.
    unflushed: HashSet<RequestId>,
    /// Conversation state per `x-session-id` key.
    sessions: HashMap<String, GatewaySession>,
    next_session: u64,
    next_id: u64,
    submitted: u64,
    completed: u64,
    rejected: u64,
    aborted: u64,
    deadline_exceeded: u64,
    disconnected: u64,
    /// Virtual seconds per real second (for mapping request deadlines).
    scale: f64,
    /// First session failure; once set the driver stops pumping and
    /// reports the error on shutdown.
    error: Option<String>,
}

/// The wall-to-virtual clock mapping, in pure integer arithmetic.
///
/// Real elapsed nanoseconds (`u128`, exact) are scaled by the time-scale
/// held in 32.32 fixed point, so precision does not degrade as uptime
/// grows — the previous `f64`-seconds path lost sub-microsecond
/// resolution once `elapsed * scale` crossed 2^53. A monotonic clamp
/// guards the result: virtual time can never tick backwards even across
/// a rounding boundary, because the simulator treats time as strictly
/// non-decreasing.
struct VirtualClock {
    epoch: Instant,
    /// `time_scale` in 32.32 fixed point (virtual nanos per real nano).
    scale_fp: u128,
    /// High-water mark enforcing monotonicity.
    last_us: u64,
}

impl VirtualClock {
    fn new(scale: f64) -> Self {
        // `GatewayConfig` validates the scale is finite and positive; the
        // `max(1)` keeps a pathologically tiny scale from freezing time.
        let scale_fp = ((scale * (1u64 << 32) as f64).round() as u128).max(1);
        VirtualClock {
            epoch: Instant::now(),
            scale_fp,
            last_us: 0,
        }
    }

    fn now(&mut self) -> SimTime {
        let us = scaled_virtual_micros(self.epoch.elapsed().as_nanos(), self.scale_fp);
        self.last_us = self.last_us.max(us);
        SimTime::from_micros(self.last_us)
    }
}

/// Maps exact real nanoseconds through the 32.32 fixed-point scale to
/// virtual microseconds. Monotone in `nanos` by construction (integer
/// multiply, shift, divide), saturating at the representable maximum.
fn scaled_virtual_micros(nanos: u128, scale_fp: u128) -> u64 {
    let us = (nanos.saturating_mul(scale_fp) >> 32) / 1_000;
    u64::try_from(us).unwrap_or(u64::MAX)
}

/// Real time until virtual instant `at`, rounded up so the clock has
/// reached `at` when the wait ends.
fn real_wait(at: SimTime, vnow: SimTime, scale: f64) -> Duration {
    let secs = at.saturating_since(vnow).as_secs_f64() / scale;
    Duration::from_micros((secs * 1e6).ceil() as u64)
}

fn driver_loop(session: ClusterSession, rx: &Receiver<Msg>, scale: f64) {
    let mut clock = VirtualClock::new(scale);
    let mut driver = Driver {
        session,
        streams: HashMap::new(),
        conns: HashMap::new(),
        unflushed: HashSet::new(),
        sessions: HashMap::new(),
        next_session: 0,
        next_id: 0,
        submitted: 0,
        completed: 0,
        rejected: 0,
        aborted: 0,
        deadline_exceeded: 0,
        disconnected: 0,
        scale,
        error: None,
    };
    let shutdown_reply = loop {
        let vnow = clock.now();
        let next_deadline = driver.advance(vnow);
        let retry_at = driver.flush_conns(Instant::now());
        // Sleep until the next simulated event or stream deadline lands
        // (in real time), a stalled or backed-up socket is due a retry,
        // or a message arrives. With none of those, block on the mailbox.
        let wake = match (driver.session.next_event_at(), next_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let timeout = [
            wake.map(|at| real_wait(at, vnow, scale)),
            retry_at.map(|at| at.saturating_duration_since(Instant::now())),
        ]
        .into_iter()
        .flatten()
        .min();
        let msg = match timeout {
            Some(timeout) => rx.recv_timeout(timeout),
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match msg {
            Ok(Msg::Shutdown { reply }) => break Some(reply),
            Ok(msg) => driver.handle(msg, clock.now()),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break None,
        }
    };
    // Drain in-flight work so every admitted request reaches a terminal
    // state (tokens stream out at full simulation speed, untied from the
    // wall clock now that the gateway is closing), then make one last
    // best-effort write of every response.
    if driver.error.is_none() {
        if let Err(e) = driver.session.pump_to_drain() {
            driver.error = Some(e.to_string());
        }
        driver.route_live_events();
    }
    driver.flush_conns(Instant::now());
    let Driver {
        session,
        submitted,
        completed,
        rejected,
        aborted,
        deadline_exceeded,
        disconnected,
        error,
        ..
    } = driver;
    let (run_report, error) = match (error, session.finish()) {
        (None, Ok((report, _log))) => (Some(report), None),
        (None, Err(e)) => (None, Some(e.to_string())),
        (Some(e), _) => (None, Some(e)),
    };
    if let Some(reply) = shutdown_reply {
        let _ = reply.send(DriverReport {
            submitted,
            completed,
            rejected,
            aborted,
            deadline_exceeded,
            disconnected,
            run_report,
            error,
        });
    }
}

impl Driver {
    /// Advances the conversation keyed by `key` one turn and returns the
    /// `(session, turn, shared_prefix_tokens)` tag for the request. The
    /// shared prefix is the conversation's accumulated context, capped by
    /// `Request::with_session` at `prompt - 1` so at least one prompt
    /// token is always freshly prefillable.
    fn session_turn(
        &mut self,
        key: String,
        prompt_tokens: u32,
        output_tokens: u32,
    ) -> (SessionId, u32, u32) {
        use std::collections::hash_map::Entry;
        let entry = match self.sessions.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                let id = SessionId(self.next_session);
                self.next_session += 1;
                v.insert(GatewaySession {
                    id,
                    turns: 0,
                    context_tokens: 0,
                })
            }
        };
        let shared = u32::try_from(entry.context_tokens).unwrap_or(u32::MAX);
        let tag = (entry.id, entry.turns, shared);
        entry.turns += 1;
        // Each turn's prompt is assumed to embed the full history, so the
        // conversation context after this turn is its prompt + output.
        entry.context_tokens = u64::from(prompt_tokens) + u64::from(output_tokens);
        tag
    }

    /// Pumps the session to the mapped virtual instant, routes every
    /// live event produced, then kills streams past their deadline.
    /// Returns the earliest deadline still pending.
    fn advance(&mut self, vnow: SimTime) -> Option<SimTime> {
        if self.error.is_some() {
            return None;
        }
        if let Err(e) = self.session.pump_until(vnow) {
            self.error = Some(e.to_string());
        }
        self.route_live_events();
        self.enforce_deadlines(vnow)
    }

    /// Aborts every live stream whose virtual deadline has passed: the
    /// client gets a typed `deadline-exceeded` terminal (an SSE event, a
    /// `503` response, or a [`StreamUpdate::Aborted`]), and the routing
    /// entry is dropped so later sim events for the request are ignored.
    /// Returns the earliest deadline that has not passed yet.
    fn enforce_deadlines(&mut self, vnow: SimTime) -> Option<SimTime> {
        let mut expired = Vec::new();
        let mut next: Option<SimTime> = None;
        for (id, state) in &self.streams {
            match state.deadline {
                Some(d) if vnow >= d => expired.push(*id),
                Some(d) => next = Some(next.map_or(d, |n| n.min(d))),
                None => {}
            }
        }
        for id in expired {
            if let Some(state) = self.streams.remove(&id) {
                self.deadline_exceeded += 1;
                let reason = DropReason::DeadlineExceeded;
                let event = reason.label();
                self.end_stream(id, state, End::Aborted { reason, event });
            }
        }
        next
    }

    fn handle(&mut self, msg: Msg, vnow: SimTime) {
        match msg {
            Msg::Submit {
                prompt_tokens,
                output_tokens,
                tier,
                timeout_secs,
                session,
                verdict,
                sink,
            } => {
                if self.error.is_some() {
                    // A failed session admits nothing; surface as shed.
                    let _ = verdict.send(Err(DropReason::Shed));
                    return;
                }
                let id = RequestId(self.next_id);
                self.next_id += 1;
                self.submitted += 1;
                let mut req = Request::new(id, vnow, prompt_tokens, output_tokens).with_tier(tier);
                if let Some(key) = session {
                    let tag = self.session_turn(key, prompt_tokens, output_tokens);
                    req = req.with_session(tag.0, tag.1, tag.2);
                }
                self.session.inject(req);
                self.session.emit_trace(TraceEvent::GatewaySubmitted {
                    id,
                    prompt_tokens,
                    output_tokens,
                    streamed: matches!(sink, Sink::Http { stream: true }),
                });
                // Pump past the arrival instant: an admission rejection
                // (queue cap, token budget, shed-on-admit) shows up as a
                // Dropped event for this id before any token can.
                if let Err(e) = self.session.pump_until(vnow) {
                    self.error = Some(e.to_string());
                    let _ = verdict.send(Err(DropReason::Shed));
                    return;
                }
                let mut admission = Ok(id);
                for ev in self.session.drain_live_events() {
                    match ev {
                        LiveEvent::Dropped {
                            id: dropped,
                            reason,
                            ..
                        } if dropped == id => {
                            admission = Err(reason);
                        }
                        other => self.route_one(other),
                    }
                }
                match admission {
                    Ok(id) => {
                        // The wall-clock budget maps to virtual time with
                        // the same scale the clock uses, so "2s real"
                        // means the same thing to the deadline as it
                        // does to token pacing.
                        let deadline = timeout_secs
                            .filter(|secs| secs.is_finite() && *secs > 0.0)
                            .map(|secs| vnow + SimDuration::from_secs_f64(secs * self.scale));
                        if let Sink::Http { .. } = sink {
                            self.conns.insert(id, Conn::default());
                        }
                        self.streams.insert(
                            id,
                            StreamState {
                                sink,
                                prompt_tokens,
                                submitted_at: vnow,
                                first_token_at: None,
                                tokens: 0,
                                deadline,
                            },
                        );
                        let _ = verdict.send(Ok(id));
                    }
                    Err(reason) => {
                        self.rejected += 1;
                        let _ = verdict.send(Err(reason));
                    }
                }
            }
            Msg::Attach { id, sock, stall } => {
                // No conn means the response already failed (overflow):
                // dropping the socket closes the connection.
                let Some(conn) = self.conns.get_mut(&id) else {
                    return;
                };
                let _ = sock.set_nonblocking(true);
                conn.sock = Some(sock);
                conn.stall_until = stall.map(|dur| Instant::now() + dur);
                self.unflushed.insert(id);
            }
            Msg::Snapshot { reply } => {
                let _ = reply.send(self.session.snapshot());
            }
            Msg::Trace(ev) => {
                self.session.emit_trace(ev);
            }
            Msg::Stall(dur) => {
                std::thread::sleep(dur.min(MAX_DRIVER_STALL));
            }
            // Shutdown is intercepted by the loop.
            Msg::Shutdown { .. } => {}
        }
    }

    fn route_live_events(&mut self) {
        for ev in self.session.drain_live_events() {
            self.route_one(ev);
        }
    }

    /// Delivers one live event to its request's sink.
    fn route_one(&mut self, ev: LiveEvent) {
        let id = ev.request_id();
        let Some(state) = self.streams.get_mut(&id) else {
            // Rejected at submission (already answered), reclaimed, or
            // unknown.
            return;
        };
        match ev {
            LiveEvent::FirstToken { at, .. } | LiveEvent::Token { at, .. } => {
                let index = state.tokens;
                state.tokens += 1;
                state.first_token_at.get_or_insert(at);
                match &state.sink {
                    Sink::Channel(tx) => {
                        let _ = tx.send(StreamUpdate::Token {
                            index,
                            virtual_secs: at.as_secs_f64(),
                        });
                    }
                    Sink::Http { stream: true } => {
                        let payload =
                            SseEvent::data(api::token_event_json(id, index, at.as_secs_f64()));
                        self.send(id, &encode_chunk(&payload.encode()), false);
                    }
                    // A unary response is written whole when it ends.
                    Sink::Http { stream: false } => {}
                }
            }
            LiveEvent::Finished { at, .. } => {
                // Presence was checked above; a vanished entry means a
                // duplicate terminal event — drop it rather than kill the
                // driver thread (and with it every live stream).
                let Some(state) = self.streams.remove(&id) else {
                    return;
                };
                self.completed += 1;
                self.end_stream(id, state, End::Done(at));
            }
            LiveEvent::Dropped { reason, .. } => {
                let Some(state) = self.streams.remove(&id) else {
                    return;
                };
                self.aborted += 1;
                let event = "error";
                self.end_stream(id, state, End::Aborted { reason, event });
            }
        }
    }

    /// Delivers the terminal update for a request whose routing entry was
    /// just removed: a typed update on a channel, or the response's last
    /// bytes (then close) on an HTTP sink.
    fn end_stream(&mut self, id: RequestId, state: StreamState, end: End) {
        self.session.emit_trace(TraceEvent::GatewayStreamClosed {
            id,
            delivered_tokens: state.tokens,
        });
        let bytes = match (&state.sink, end) {
            (Sink::Channel(tx), End::Done(at)) => {
                let _ = tx.send(StreamUpdate::Done {
                    tokens: state.tokens,
                    ttft_virtual_secs: ttft_secs(&state, at),
                    latency_virtual_secs: at.saturating_since(state.submitted_at).as_secs_f64(),
                });
                return;
            }
            (Sink::Channel(tx), End::Aborted { reason, .. }) => {
                let _ = tx.send(StreamUpdate::Aborted { reason });
                return;
            }
            (Sink::Http { stream: true }, End::Done(_)) => {
                let mut bytes = encode_chunk(&SseEvent::data(api::DONE_SENTINEL).encode());
                bytes.extend_from_slice(LAST_CHUNK);
                bytes
            }
            (Sink::Http { stream: true }, End::Aborted { reason, event }) => {
                let body = String::from_utf8(api::drop_body(reason)).unwrap_or_default();
                let mut bytes = encode_chunk(&SseEvent::named(event, body).encode());
                bytes.extend_from_slice(LAST_CHUNK);
                bytes
            }
            (Sink::Http { stream: false }, End::Done(at)) => {
                let body = api::completion_body(
                    id,
                    state.prompt_tokens,
                    state.tokens,
                    ttft_secs(&state, at),
                    at.saturating_since(state.submitted_at).as_secs_f64(),
                );
                http::simple_response(200, "application/json", &body)
            }
            (Sink::Http { stream: false }, End::Aborted { reason, .. }) => {
                api::drop_response(reason)
            }
        };
        self.send(id, &bytes, true);
    }

    /// Appends response bytes for `id` (closing the response after them
    /// when `close`). A client that lets more than
    /// [`MAX_BUFFERED_BYTES`] pile up is dropped, not the heap grown.
    fn send(&mut self, id: RequestId, bytes: &[u8], close: bool) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.buf.len() - conn.written + bytes.len() > MAX_BUFFERED_BYTES {
            self.reclaim(id);
            return;
        }
        conn.buf.extend_from_slice(bytes);
        conn.closing |= close;
        self.unflushed.insert(id);
    }

    /// Writes every conn with bytes to write. Returns when the earliest
    /// conn still holding bytes is due a retry: the end of its write
    /// stall, or [`WRITE_RETRY`] from now for a backed-up socket.
    fn flush_conns(&mut self, now: Instant) -> Option<Instant> {
        let mut retry_at: Option<Instant> = None;
        let mut dead = Vec::new();
        let conns = &mut self.conns;
        self.unflushed.retain(|id| {
            let Some(conn) = conns.get_mut(id) else {
                return false;
            };
            match conn.flush(now) {
                Flush::RetryAt(at) => {
                    retry_at = Some(retry_at.map_or(at, |r| r.min(at)));
                    true
                }
                Flush::Idle => false,
                Flush::Closed => {
                    conns.remove(id);
                    false
                }
                Flush::Dead => {
                    dead.push(*id);
                    false
                }
            }
        });
        for id in dead {
            self.reclaim(id);
        }
        retry_at
    }

    /// Drops a response whose client is gone (failed write or overflow).
    /// A request still routing is counted as disconnected, and the sim
    /// tokens it keeps producing fall on the floor.
    fn reclaim(&mut self, id: RequestId) {
        self.conns.remove(&id);
        self.unflushed.remove(&id);
        if let Some(state) = self.streams.remove(&id) {
            self.disconnected += 1;
            self.session.emit_trace(TraceEvent::GatewayStreamClosed {
                id,
                delivered_tokens: state.tokens,
            });
        }
    }
}

/// Virtual seconds from submission to the first token (to `at` when no
/// token was produced).
fn ttft_secs(state: &StreamState, at: SimTime) -> f64 {
    state
        .first_token_at
        .unwrap_or(at)
        .saturating_since(state.submitted_at)
        .as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::ResponseParser;
    use crate::sse::SseParser;
    use std::io::Read;
    use std::net::TcpListener;
    use windserve::SystemKind;

    fn test_config() -> ServeConfig {
        let mut cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
        cfg.trace = windserve_trace::TraceMode::Ring(4096);
        cfg
    }

    /// A connected `(client, server)` loopback socket pair whose server
    /// side has already sent the SSE head, as a gateway worker does
    /// before attaching.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        server.write_all(&http::sse_response_head()).unwrap();
        (client, server)
    }

    /// Reads a streamed response to EOF: its status and SSE events.
    fn read_stream(mut client: TcpStream) -> (Option<u16>, Vec<SseEvent>) {
        let mut bytes = Vec::new();
        client.read_to_end(&mut bytes).unwrap();
        let mut parser = ResponseParser::new();
        parser.feed(&bytes).unwrap();
        assert!(parser.is_done(), "the chunked stream must terminate");
        (parser.status(), SseParser::new().feed(&parser.take_body()))
    }

    fn assert_tokens_then_done(events: &[SseEvent], tokens: usize) {
        assert_eq!(events.len(), tokens + 1, "{events:?}");
        for (i, ev) in events[..tokens].iter().enumerate() {
            let v: serde_json::Value = serde_json::from_str(&ev.data).unwrap();
            assert_eq!(v["token_index"].as_u64(), Some(i as u64), "token order");
        }
        assert_eq!(events[tokens].data, api::DONE_SENTINEL);
    }

    #[test]
    fn frames_produced_before_attach_arrive_in_order() {
        let driver = SimDriver::spawn(test_config(), 1000.0).unwrap();
        let handle = driver.handle();
        let id = handle
            .submit(64, 4, 0, None, None, Sink::Http { stream: true })
            .unwrap();
        // The request finishes before any socket exists, so every token
        // and the terminator wait in its buffer.
        let deadline = Instant::now() + Duration::from_secs(30);
        while handle.snapshot().unwrap().completed_requests == 0 {
            assert!(Instant::now() < deadline, "request never finished");
            std::thread::sleep(Duration::from_millis(5));
        }
        let (client, server) = socket_pair();
        handle.attach(id, server, None);
        let (status, events) = read_stream(client);
        assert_eq!(status, Some(200));
        assert_tokens_then_done(&events, 4);
        let report = driver.shutdown();
        assert_eq!(report.completed, 1);
        assert_eq!(report.disconnected, 0);
    }

    #[test]
    fn dead_sockets_are_reclaimed_once_and_late_tokens_dropped() {
        // Slow enough that 512 tokens outlive the client.
        let driver = SimDriver::spawn(test_config(), 5.0).unwrap();
        let handle = driver.handle();
        let id = handle
            .submit(64, 512, 0, None, None, Sink::Http { stream: true })
            .unwrap();
        let (mut client, server) = socket_pair();
        handle.attach(id, server, None);
        // Take one byte of the head, then vanish with unread bytes
        // queued: the next write the driver makes fails.
        let mut first = [0u8; 1];
        client.read_exact(&mut first).unwrap();
        drop(client);
        std::thread::sleep(Duration::from_millis(300));
        // Shutdown drains the sim at full speed: the request's remaining
        // tokens and its finish land after the reclaim and must be
        // dropped, neither completing it nor reclaiming it twice.
        let report = driver.shutdown();
        assert_eq!(report.disconnected, 1, "reclaimed exactly once");
        assert_eq!(report.completed, 0, "late tokens must not complete it");
        assert_eq!(report.aborted, 0);
        assert!(report.error.is_none(), "{:?}", report.error);
    }

    #[test]
    fn stalled_writes_resume_after_the_stall_window() {
        let driver = SimDriver::spawn(test_config(), 1000.0).unwrap();
        let handle = driver.handle();
        let id = handle
            .submit(64, 4, 0, None, None, Sink::Http { stream: true })
            .unwrap();
        let (mut client, server) = socket_pair();
        let start = Instant::now();
        handle.attach(id, server, Some(Duration::from_millis(50)));
        let mut head = vec![0u8; http::sse_response_head().len()];
        client.read_exact(&mut head).unwrap();
        let mut first = [0u8; 1];
        client.read_exact(&mut first).unwrap();
        assert!(
            start.elapsed() >= Duration::from_millis(40),
            "bytes must be held for the stall window"
        );
        let mut bytes = [head, first.to_vec()].concat();
        client.read_to_end(&mut bytes).unwrap();
        let mut parser = ResponseParser::new();
        parser.feed(&bytes).unwrap();
        assert!(parser.is_done(), "the chunked stream must terminate");
        let events = SseParser::new().feed(&parser.take_body());
        let status = parser.status();
        assert_eq!(status, Some(200));
        assert_tokens_then_done(&events, 4);
        assert_eq!(driver.shutdown().completed, 1);
    }

    /// Regression: the wall-to-virtual mapping must stay exact and
    /// monotone far past the 2^53-nanosecond uptime where the old
    /// `f64`-seconds path started collapsing distinct instants, and a
    /// live clock must never report time running backwards.
    #[test]
    fn virtual_clock_is_monotonic_and_precise_at_large_uptimes() {
        // Integer mapping sanity: 1 real second at 100x = 100 virtual
        // seconds = 1e8 virtual microseconds.
        let scale_fp = (100u128) << 32;
        assert_eq!(scaled_virtual_micros(1_000_000_000, scale_fp), 100_000_000);

        // Strict monotonicity across microsecond-scale increments in a
        // window around 2^53 ns (~104 days of uptime), where f64 loses
        // nanosecond resolution entirely.
        let base: u128 = 1 << 53;
        let mut prev = scaled_virtual_micros(base, scale_fp);
        for k in 1..=1_000u128 {
            let cur = scaled_virtual_micros(base + k * 1_000, scale_fp);
            assert!(cur > prev, "clock stalled at +{k}us past 2^53ns");
            prev = cur;
        }

        // Saturation instead of overflow at absurd uptimes.
        assert_eq!(scaled_virtual_micros(u128::MAX, scale_fp), u64::MAX);

        // A live clock never ticks backwards, whatever the scale.
        for scale in [1e-6, 1.0, 100.0, 1e6] {
            let mut clock = VirtualClock::new(scale);
            let mut prev = SimTime::ZERO;
            for _ in 0..10_000 {
                let now = clock.now();
                assert!(now >= prev, "virtual time went backwards");
                prev = now;
            }
        }
    }

    #[test]
    fn a_live_request_streams_tokens_then_done() {
        let driver = SimDriver::spawn(test_config(), 1000.0).unwrap();
        let handle = driver.handle();
        let (tx, rx) = mpsc::channel();
        let id = handle
            .submit(64, 4, 0, None, None, Sink::Channel(tx))
            .unwrap();
        assert_eq!(id, RequestId(0));
        let mut tokens = 0u32;
        let done = loop {
            match rx.recv_timeout(Duration::from_secs(30)).unwrap() {
                StreamUpdate::Token { index, .. } => {
                    assert_eq!(index, tokens, "token order");
                    tokens += 1;
                }
                StreamUpdate::Done { tokens: n, .. } => break n,
                StreamUpdate::Aborted { reason } => panic!("aborted: {reason:?}"),
            }
        };
        assert_eq!(done, 4);
        assert_eq!(tokens, 4);
        let report = driver.shutdown();
        assert_eq!(report.submitted, 1);
        assert_eq!(report.completed, 1);
        assert!(report.error.is_none(), "{:?}", report.error);
        assert!(report.run_report.is_some());
    }

    #[test]
    fn snapshot_reflects_live_state() {
        let driver = SimDriver::spawn(test_config(), 1000.0).unwrap();
        let handle = driver.handle();
        let snap = handle.snapshot().unwrap();
        assert_eq!(snap.completed_requests, 0);
        assert!(!snap.instances.is_empty());
        let (tx, rx) = mpsc::channel();
        handle
            .submit(64, 2, 0, None, None, Sink::Channel(tx))
            .unwrap();
        // Wait for completion, then the snapshot must count it.
        loop {
            if matches!(
                rx.recv_timeout(Duration::from_secs(30)).unwrap(),
                StreamUpdate::Done { .. }
            ) {
                break;
            }
        }
        let snap = handle.snapshot().unwrap();
        assert_eq!(snap.completed_requests, 1);
        driver.shutdown();
    }

    #[test]
    fn admission_rejections_surface_synchronously() {
        let mut cfg = test_config();
        cfg.overload = Some(windserve::OverloadConfig {
            max_queued_requests: Some(1),
            shedding: false,
            ..Default::default()
        });
        // Freeze virtual time (tiny scale): nothing completes while we
        // overfill the admission cap.
        let driver = SimDriver::spawn(cfg, 1e-6).unwrap();
        let handle = driver.handle();
        let (tx, _rx) = mpsc::channel();
        assert!(handle
            .submit(64, 4, 0, None, None, Sink::Channel(tx.clone()))
            .is_ok());
        let err = handle
            .submit(64, 4, 0, None, None, Sink::Channel(tx))
            .expect_err("cap of 1 must reject the second live request");
        match err {
            SubmitError::Dropped(reason) => assert_eq!(reason.http_status(), 429),
            SubmitError::Unavailable => panic!("driver died"),
        }
        let report = driver.shutdown();
        assert_eq!(report.rejected, 1);
        assert_eq!(report.completed, 1);
    }

    #[test]
    fn session_turns_share_a_prefix_and_hit_the_cache() {
        let mut cfg = test_config();
        cfg.prefix_cache = Some(windserve::PrefixCacheConfig::default());
        let driver = SimDriver::spawn(cfg, 1000.0).unwrap();
        let handle = driver.handle();
        // Three turns of one conversation: each prompt embeds the history,
        // so follow-ups carry a growing shared prefix.
        for turn in 0..3u32 {
            let (tx, rx) = mpsc::channel();
            let prompt = 256 * (turn + 1);
            handle
                .submit(prompt, 8, 0, None, Some("conv-1".into()), Sink::Channel(tx))
                .unwrap();
            loop {
                match rx.recv_timeout(Duration::from_secs(30)).unwrap() {
                    StreamUpdate::Done { .. } => break,
                    StreamUpdate::Aborted { reason } => panic!("aborted: {reason:?}"),
                    StreamUpdate::Token { .. } => {}
                }
            }
        }
        let snap = handle.snapshot().unwrap();
        assert!(
            snap.prefix_hits >= 1,
            "follow-up turns must hit the prefix cache ({} hits / {} misses)",
            snap.prefix_hits,
            snap.prefix_misses
        );
        assert!(snap.prefix_hit_rate > 0.0);
        let report = driver.shutdown();
        let run = report.run_report.expect("clean run");
        assert!(run.prefix_hits >= 1);
        assert!(run.prefix_cached_tokens > 0);
    }

    #[test]
    fn deadlines_kill_streams_with_a_typed_abort() {
        // Freeze virtual time (tiny scale): the request can never finish
        // on its own, so only the deadline can end it.
        let driver = SimDriver::spawn(test_config(), 1e-6).unwrap();
        let handle = driver.handle();
        let (tx, rx) = mpsc::channel();
        handle
            .submit(64, 64, 0, Some(0.05), None, Sink::Channel(tx))
            .unwrap();
        let update = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(
            update,
            StreamUpdate::Aborted {
                reason: DropReason::DeadlineExceeded
            }
        );
        let report = driver.shutdown();
        assert_eq!(report.deadline_exceeded, 1);
        assert_eq!(report.completed, 0);
        assert!(report.error.is_none(), "{:?}", report.error);
    }
}
