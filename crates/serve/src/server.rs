//! The TCP server: acceptor threads, a sized worker pool of sessions,
//! a shared parsed-statement cache, and admission-controlled streaming
//! execution.
//!
//! Threading model (all `std::net` blocking I/O — no async runtime):
//!
//! - **Acceptors** share one `TcpListener` via `try_clone` and spawn a
//!   small-stack reader thread per connection.
//! - **Connection threads** own the framed socket: they handshake,
//!   admit each query through the [`AdmissionController`], resolve the
//!   statement cache, and hand an executable job to the worker pool,
//!   then block until it finishes (one in-flight request per
//!   connection, so response frames never interleave).
//! - **Workers** each own one [`Session`] built against the engine's
//!   catalog with a *shared* plan cache — the worker pool is the
//!   session pool. Query results stream straight from
//!   [`Session::stream_statement`] to the socket one batch at a time;
//!   the server never materializes a streamable result. Each response
//!   goes through one buffered writer flushed once after its closing
//!   frame, and every accepted socket sets `TCP_NODELAY`, so a response
//!   never waits on Nagle's algorithm for the peer's delayed ACK.
//!
//! The parsed-statement cache is what makes the shared plan cache
//! effective: parsing mints fresh block ids, so only a reused AST can
//! hit an existing plan. Entries are keyed by statement text and
//! stamped with the catalog version; a DDL bump invalidates them.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use idea_adm::Value;
use idea_core::{Error, ErrorCode, ExecOutcome, IngestionEngine};
use idea_obs::{names, MetricsRegistry};
use idea_query::ast::Statement;
use idea_query::parser::parse_statements;
use idea_query::{PlanCache, Session, SessionConfig};
use parking_lot::Mutex;

use crate::admission::{AdmissionConfig, AdmissionController, Permit};
use crate::protocol::{error_frame, read_frame, send_frame, write_frame, Frame};

/// Stack size for per-connection reader threads; they only frame bytes
/// and parse SQL++, heavy evaluation happens on the worker pool.
const CONN_STACK: usize = 512 * 1024;

/// Write buffer per response: small responses (a count, a page of ids)
/// leave as one segment; a batch frame larger than this streams through.
const RESPONSE_BUFFER: usize = 64 * 1024;

/// Server configuration. `Default` binds an ephemeral localhost port
/// with a worker pool sized to the admission concurrency cap.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `"127.0.0.1:0"` for an ephemeral port.
    pub addr: String,
    /// Acceptor threads sharing the listener.
    pub acceptors: usize,
    /// Worker sessions; `0` means "match `admission.max_concurrency`"
    /// so an admitted query never queues again behind the pool.
    pub workers: usize,
    /// Admission-control knobs (concurrency caps, queue, rate limit).
    pub admission: AdmissionConfig,
    /// Rows per streamed result frame.
    pub result_batch_size: usize,
    /// Parsed-statement cache entries before wholesale eviction.
    pub stmt_cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            acceptors: 2,
            workers: 0,
            admission: AdmissionConfig::default(),
            result_batch_size: 256,
            stmt_cache_capacity: 1024,
        }
    }
}

#[derive(Default)]
struct StmtCache {
    map: HashMap<String, (u64, Arc<Vec<Statement>>)>,
}

struct Job {
    stmts: Arc<Vec<Statement>>,
    stream: TcpStream,
    permit: Permit,
    started: Instant,
    done: Sender<()>,
}

struct Shared {
    engine: Arc<IngestionEngine>,
    admission: Arc<AdmissionController>,
    plan_cache: Arc<PlanCache>,
    stmt_cache: Mutex<StmtCache>,
    conns: Mutex<HashMap<u64, TcpStream>>,
    conn_handles: Mutex<Vec<JoinHandle<()>>>,
    metrics: Arc<MetricsRegistry>,
    config: ServerConfig,
    shutdown: AtomicBool,
    next_conn_id: AtomicU64,
}

/// A running SQL++ server bound to one [`IngestionEngine`].
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptors: Mutex<Vec<JoinHandle<()>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    jobs_tx: Mutex<Option<Sender<Job>>>,
}

impl Server {
    /// Binds, spawns acceptors and the worker pool, and starts serving.
    pub fn start(engine: Arc<IngestionEngine>, config: ServerConfig) -> Result<Server, Error> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| Error::new(ErrorCode::Io, format!("cannot bind {}: {e}", config.addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| Error::new(ErrorCode::Io, format!("no local addr: {e}")))?;

        let workers =
            if config.workers == 0 { config.admission.max_concurrency } else { config.workers };
        let acceptors = config.acceptors.max(1);
        let admission = AdmissionController::new(config.admission.clone());
        let metrics = engine.metrics().clone();
        let shared = Arc::new(Shared {
            engine,
            admission: admission.clone(),
            plan_cache: PlanCache::new(),
            stmt_cache: Mutex::new(StmtCache::default()),
            conns: Mutex::new(HashMap::new()),
            conn_handles: Mutex::new(Vec::new()),
            metrics: metrics.clone(),
            config,
            shutdown: AtomicBool::new(false),
            next_conn_id: AtomicU64::new(0),
        });

        // Queue depth and in-flight gauges read live controller state.
        {
            let c = admission.clone();
            metrics.probe(names::SERVE_ADMISSION_QUEUE_DEPTH, move || c.queued() as i64);
            let c = admission;
            metrics.probe(names::SERVE_ACTIVE_QUERIES, move || c.active() as i64);
        }

        let (jobs_tx, jobs_rx) = unbounded::<Job>();
        let worker_handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                let rx = jobs_rx.clone();
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(shared, rx))
                    .expect("spawn worker")
            })
            .collect();

        let acceptor_handles = (0..acceptors)
            .map(|i| {
                let shared = shared.clone();
                let listener = listener.try_clone().expect("clone listener");
                let tx = jobs_tx.clone();
                thread::Builder::new()
                    .name(format!("serve-acceptor-{i}"))
                    .spawn(move || acceptor_loop(shared, listener, tx))
                    .expect("spawn acceptor")
            })
            .collect();

        Ok(Server {
            shared,
            local_addr,
            acceptors: Mutex::new(acceptor_handles),
            workers: Mutex::new(worker_handles),
            jobs_tx: Mutex::new(Some(jobs_tx)),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The admission gate, exposed for tests and monitoring.
    pub fn admission(&self) -> &Arc<AdmissionController> {
        &self.shared.admission
    }

    /// Graceful shutdown: stop admitting, drain in-flight queries (their
    /// final frames are flushed), then tear down every thread. Idempotent.
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.admission.begin_drain();
        // In-flight queries hold permits from admission until their done
        // frame is written; this is the drain barrier.
        self.shared.admission.wait_idle();

        // Unblock acceptors with a throwaway connection each; they check
        // the shutdown flag after every accept.
        let acceptors = std::mem::take(&mut *self.acceptors.lock());
        for _ in 0..acceptors.len() {
            let _ = TcpStream::connect(self.local_addr);
        }
        for h in acceptors {
            let _ = h.join();
        }

        // Kick every connection reader off its blocking read, then join.
        for (_, stream) in self.shared.conns.lock().drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let conn_handles = std::mem::take(&mut *self.shared.conn_handles.lock());
        for h in conn_handles {
            let _ = h.join();
        }

        // All job senders (ours + the per-connection clones held by
        // now-joined threads) are gone: workers drain and exit.
        *self.jobs_tx.lock() = None;
        let workers = std::mem::take(&mut *self.workers.lock());
        for h in workers {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn acceptor_loop(shared: Arc<Shared>, listener: TcpListener, jobs: Sender<Job>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Responses are written whole and flushed once; with Nagle on, a
        // response that spans two segments waits out the client's
        // delayed ACK (~40 ms) before its tail leaves.
        let _ = stream.set_nodelay(true);
        shared.metrics.counter(names::SERVE_CONNECTIONS_TOTAL).inc();
        shared.metrics.gauge(names::SERVE_CONNECTIONS).inc();
        let id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().insert(id, clone);
        }
        let conn_shared = shared.clone();
        let conn_jobs = jobs.clone();
        let handle = thread::Builder::new()
            .name(format!("serve-conn-{id}"))
            .stack_size(CONN_STACK)
            .spawn(move || {
                connection_loop(&conn_shared, stream, conn_jobs);
                conn_shared.conns.lock().remove(&id);
                conn_shared.metrics.gauge(names::SERVE_CONNECTIONS).dec();
            });
        match handle {
            Ok(h) => shared.conn_handles.lock().push(h),
            Err(_) => {
                // Spawn failure (fd/thread exhaustion): shed the
                // connection rather than the server.
                shared.conns.lock().remove(&id);
                shared.metrics.gauge(names::SERVE_CONNECTIONS).dec();
            }
        }
    }
}

/// Reads frames off one connection until EOF, error, or shutdown.
///
/// Owns the connection's only long-lived fd (plus the registry clone
/// held by the server for shutdown): reads are buffered and writes go
/// through the same stream. The worker gets a transient clone per
/// query — bounded by the concurrency cap, not the connection count —
/// which keeps thousands of idle connections at two fds each.
fn connection_loop(shared: &Arc<Shared>, stream: TcpStream, jobs: Sender<Job>) {
    let mut conn = BufReader::new(stream);
    let mut tenant = String::new();
    let (done_tx, done_rx) = unbounded::<()>();

    loop {
        let frame = match read_frame(&mut conn) {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // clean disconnect
            Err(_) => return,   // torn frame or reset — nothing to answer on
        };
        match frame {
            Frame::Hello { tenant: t } => {
                tenant = t;
                if send_frame(conn.get_ref(), &Frame::HelloOk).is_err() {
                    return;
                }
            }
            Frame::Query { text } => {
                let permit = match shared.admission.admit(&tenant) {
                    Ok(permit) => permit,
                    Err(err) => {
                        count_shed(shared, &err);
                        if send_frame(conn.get_ref(), &error_frame(&err)).is_err() {
                            return;
                        }
                        continue;
                    }
                };
                let started = Instant::now();
                let stmts = match cached_statements(shared, &text) {
                    Ok(stmts) => stmts,
                    Err(err) => {
                        drop(permit);
                        shared.metrics.counter(names::SERVE_ERRORS).inc();
                        if send_frame(conn.get_ref(), &error_frame(&err)).is_err() {
                            return;
                        }
                        continue;
                    }
                };
                let Ok(write_clone) = conn.get_ref().try_clone() else { return };
                let job =
                    Job { stmts, stream: write_clone, permit, started, done: done_tx.clone() };
                if jobs.send(job).is_err() {
                    return; // worker pool gone: server is tearing down
                }
                // One request in flight per connection: wait for the
                // worker to finish before reading the next frame, so
                // response frames never interleave.
                if done_rx.recv().is_err() {
                    return;
                }
            }
            other => {
                // Clients never send server->client frames; protocol
                // violation closes the connection after a last error.
                let err =
                    Error::new(ErrorCode::Protocol, format!("unexpected client frame: {other:?}"));
                let _ = send_frame(conn.get_ref(), &error_frame(&err));
                return;
            }
        }
    }
}

/// Resolves `text` through the parsed-statement cache. Entries carry
/// the catalog version they were parsed under; DDL invalidates them so
/// plans never resolve against stale schema by id reuse.
fn cached_statements(shared: &Shared, text: &str) -> Result<Arc<Vec<Statement>>, Error> {
    let version = shared.engine.catalog().version();
    {
        let cache = shared.stmt_cache.lock();
        if let Some((v, stmts)) = cache.map.get(text) {
            if *v == version {
                shared.metrics.counter(names::SERVE_STMT_CACHE_HITS).inc();
                return Ok(stmts.clone());
            }
        }
    }
    shared.metrics.counter(names::SERVE_STMT_CACHE_MISSES).inc();
    let stmts = Arc::new(parse_statements(text).map_err(Error::from)?);
    let mut cache = shared.stmt_cache.lock();
    if cache.map.len() >= shared.config.stmt_cache_capacity {
        // Wholesale eviction: simpler than LRU and rare at steady state
        // (the cache is sized for a workload's distinct statements).
        cache.map.clear();
    }
    cache.map.insert(text.to_string(), (version, stmts.clone()));
    Ok(stmts)
}

fn count_shed(shared: &Shared, err: &Error) {
    let name = match err.code() {
        ErrorCode::RateLimited => names::SERVE_SHED_RATE_LIMITED,
        ErrorCode::Overloaded => names::SERVE_SHED_OVERLOADED,
        _ => names::SERVE_SHED_SHUTTING_DOWN,
    };
    shared.metrics.counter(name).inc();
}

/// Each worker owns one session for its whole life — the pool of
/// workers *is* the session pool, all sharing one plan cache.
fn worker_loop(shared: Arc<Shared>, jobs: Receiver<Job>) {
    let session = shared.engine.new_session(
        SessionConfig::new()
            .result_batch_size(shared.config.result_batch_size)
            .shared_plan_cache(shared.plan_cache.clone()),
    );
    while let Ok(job) = jobs.recv() {
        shared.metrics.counter(names::SERVE_QUERIES).inc();
        // One buffered writer per response, flushed once after the
        // closing `Done`/`Error` frame (and whenever a large batch
        // frame fills the buffer on its own).
        let mut w = BufWriter::with_capacity(RESPONSE_BUFFER, &job.stream);
        let result = run_job(&shared, &session, &job.stmts, &mut w);
        if let Err(err) = &result {
            let _ = write_frame(&mut w, &error_frame(err));
        }
        match (result, w.flush()) {
            (Ok(rows), Ok(())) => {
                shared.metrics.counter(names::SERVE_ROWS_STREAMED).add(rows);
                shared.metrics.histogram(names::SERVE_LATENCY).record(job.started.elapsed());
            }
            _ => shared.metrics.counter(names::SERVE_ERRORS).inc(),
        }
        drop(w);
        drop(job.permit);
        let _ = job.done.send(());
    }
}

/// Executes one request: every statement in order, streaming the last
/// one's rows to the socket batch by batch, then a done frame.
fn run_job(
    shared: &Shared,
    session: &Session,
    stmts: &[Statement],
    w: &mut impl Write,
) -> Result<u64, Error> {
    let mut total = 0u64;
    if let Some((last, init)) = stmts.split_last() {
        for stmt in init {
            shared.engine.execute(stmt)?;
        }
        if matches!(last, Statement::Query(_)) {
            let mut rows = session.stream_statement(last).map_err(Error::from)?;
            while let Some(batch) = rows.next_batch().map_err(Error::from)? {
                total += batch.len() as u64;
                let json = idea_adm::json::to_string(&Value::Array(batch));
                write_frame(w, &Frame::Rows { json })?;
            }
        } else {
            let outcome = shared.engine.execute(last)?;
            let row = outcome_row(&outcome);
            total += 1;
            let json = idea_adm::json::to_string(&Value::Array(vec![row]));
            write_frame(w, &Frame::Rows { json })?;
        }
    }
    write_frame(w, &Frame::Done { rows: total })?;
    Ok(total)
}

/// Non-query statements answer with one summary row.
fn outcome_row(outcome: &ExecOutcome) -> Value {
    use idea_query::StatementResult;
    match outcome {
        ExecOutcome::Statement(StatementResult::Ok) => {
            Value::object([("status", Value::str("ok"))])
        }
        ExecOutcome::Statement(StatementResult::Count(n)) => {
            Value::object([("status", Value::str("ok")), ("count", Value::Int(*n as i64))])
        }
        ExecOutcome::Statement(StatementResult::Value(v)) => v.clone(),
        ExecOutcome::FeedCreated => Value::object([("status", Value::str("feed created"))]),
        ExecOutcome::FeedConnected => Value::object([("status", Value::str("feed connected"))]),
        ExecOutcome::FeedStarted => Value::object([("status", Value::str("feed started"))]),
        ExecOutcome::FeedStopped(report) => Value::object([
            ("status", Value::str("feed stopped")),
            ("records_stored", Value::Int(report.records_stored as i64)),
        ]),
    }
}

/// Blocks the calling thread until `server.shutdown()` would find no
/// in-flight work — convenience for drain-style tests.
pub fn drain_grace(server: &Server, limit: Duration) -> bool {
    let start = Instant::now();
    while server.admission().active() > 0 || server.admission().queued() > 0 {
        if start.elapsed() > limit {
            return false;
        }
        thread::sleep(Duration::from_millis(1));
    }
    true
}
