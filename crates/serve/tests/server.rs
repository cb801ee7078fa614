//! End-to-end server tests over real TCP sockets: concurrent clients
//! against a sequential oracle, admission shed under overload, tenant
//! isolation, streamed batching, and graceful drain on shutdown.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use idea_adm::Value;
use idea_core::{ErrorCode, IngestionEngine};
use idea_query::SessionConfig;
use idea_serve::{AdmissionConfig, Client, RateLimit, Server, ServerConfig};

/// An engine with `n` tweets stored, served on an ephemeral port.
fn serve_tweets(n: usize, config: ServerConfig) -> (Arc<IngestionEngine>, Server) {
    let engine = IngestionEngine::with_nodes(2);
    engine
        .run_sqlpp(
            r#"
            CREATE TYPE TweetType AS OPEN { id: int64, text: string };
            CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
            "#,
        )
        .unwrap();
    let rows: Vec<String> = (0..n)
        .map(|i| format!(r#"{{"id": {i}, "text": "tweet number {i}"}}"#))
        .collect();
    engine
        .run_sqlpp(&format!("INSERT INTO Tweets ([{}]);", rows.join(", ")))
        .unwrap();
    let server = Server::start(engine.clone(), config).unwrap();
    (engine, server)
}

#[test]
fn concurrent_clients_match_the_sequential_oracle() {
    let (engine, server) = serve_tweets(120, ServerConfig::default());
    let addr = server.local_addr();

    // The oracle: the same statements through an in-process session.
    let session = engine.new_session(SessionConfig::new());
    let queries = [
        "SELECT VALUE t.id FROM Tweets t ORDER BY t.id",
        "SELECT VALUE t.text FROM Tweets t WHERE t.id < 7 ORDER BY t.id",
        "SELECT count(*) AS n FROM Tweets t",
    ];
    let oracle: Vec<Value> = queries.iter().map(|q| session.query(q).unwrap()).collect();

    let mut handles = Vec::new();
    for c in 0..8 {
        let oracle = oracle.clone();
        handles.push(thread::spawn(move || {
            let mut client = Client::connect(addr, &format!("client-{c}")).unwrap();
            for _round in 0..5 {
                for (q, want) in queries.iter().zip(&oracle) {
                    let got = Value::Array(client.query(q).unwrap());
                    assert_eq!(&got, want, "query {q:?} diverged from the oracle");
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // Repeated statements hit the parsed-statement cache, which is what
    // lets the shared plan cache work across connections.
    let snap = engine.metrics().snapshot();
    let hits = snap.counter("serve/stmt_cache/hits").unwrap_or(0);
    assert!(hits > 0, "statement cache never hit");
    assert_eq!(snap.counter("serve/errors").unwrap_or(0), 0);
    server.shutdown();
}

#[test]
fn overload_sheds_with_backpressure_and_recovers() {
    let config = ServerConfig {
        admission: AdmissionConfig {
            max_concurrency: 1,
            queue_capacity: 0,
            queue_timeout: Duration::from_millis(20),
            ..Default::default()
        },
        ..Default::default()
    };
    let (engine, server) = serve_tweets(10, config);
    let mut client = Client::connect(server.local_addr(), "t").unwrap();

    // Hold the only slot directly through the admission gate, so the
    // client's request must shed: the queue holds zero requests.
    let held = server.admission().admit("other").unwrap();
    let err = client.query("SELECT VALUE t.id FROM Tweets t").unwrap_err();
    assert!(err.is_shed(), "expected a shed, got {err}");
    assert_eq!(err.code(), ErrorCode::Overloaded);

    // Backpressure, not disconnection: the same connection works once
    // the slot frees up.
    drop(held);
    assert_eq!(client.query("SELECT VALUE t.id FROM Tweets t").unwrap().len(), 10);

    let snap = engine.metrics().snapshot();
    assert!(snap.counter("serve/shed/overloaded").unwrap_or(0) >= 1);
    server.shutdown();
}

#[test]
fn tenant_rate_limits_do_not_leak_across_tenants() {
    let config = ServerConfig {
        admission: AdmissionConfig {
            // Practically no refill within the test: two requests per
            // tenant, then shed.
            rate_limit: Some(RateLimit { rate_per_sec: 0.001, burst: 2.0 }),
            ..Default::default()
        },
        ..Default::default()
    };
    let (engine, server) = serve_tweets(5, config);
    let addr = server.local_addr();

    let mut a = Client::connect(addr, "tenant-a").unwrap();
    let q = "SELECT VALUE t.id FROM Tweets t";
    assert_eq!(a.query(q).unwrap().len(), 5);
    assert_eq!(a.query(q).unwrap().len(), 5);
    let err = a.query(q).unwrap_err();
    assert_eq!(err.code(), ErrorCode::RateLimited, "burst of 2 spent");

    // Tenant b has its own bucket and is unaffected by a's shedding.
    let mut b = Client::connect(addr, "tenant-b").unwrap();
    assert_eq!(b.query(q).unwrap().len(), 5);

    let snap = engine.metrics().snapshot();
    assert!(snap.counter("serve/shed/rate_limited").unwrap_or(0) >= 1);
    server.shutdown();
}

#[test]
fn results_stream_in_batches_not_one_blob() {
    let config = ServerConfig { result_batch_size: 8, ..Default::default() };
    let (_engine, server) = serve_tweets(100, config);
    let mut client = Client::connect(server.local_addr(), "s").unwrap();

    let mut rows = Vec::new();
    let summary = client
        .query_streamed("SELECT VALUE t.id FROM Tweets t", |batch| rows.extend(batch))
        .unwrap();
    assert_eq!(summary.rows, 100);
    assert_eq!(rows.len(), 100);
    assert!(
        summary.batches >= 100 / 8,
        "expected at least {} row frames, got {}",
        100 / 8,
        summary.batches
    );
    server.shutdown();
}

/// Sequential tiny queries over loopback answer in well under the ~40 ms
/// a Nagle / delayed-ACK stall costs per response, and a multi-batch
/// result still arrives as its `Rows` frames plus exactly one `Done`.
#[test]
fn tiny_queries_answer_without_a_nagle_stall() {
    let config = ServerConfig { result_batch_size: 8, ..Default::default() };
    let (_engine, server) = serve_tweets(100, config);
    let mut client = Client::connect(server.local_addr(), "latency").unwrap();
    let q = "SELECT VALUE t.id FROM Tweets t WHERE t.id = 7";
    assert_eq!(client.query(q).unwrap(), vec![Value::Int(7)]); // warm the caches

    let mut latencies: Vec<Duration> = (0..100)
        .map(|_| {
            let started = Instant::now();
            assert_eq!(client.query(q).unwrap(), vec![Value::Int(7)]);
            started.elapsed()
        })
        .collect();
    latencies.sort();
    let median = latencies[latencies.len() / 2];
    assert!(median < Duration::from_millis(10), "median tiny-query latency {median:?}");

    let mut batches = Vec::new();
    let summary = client
        .query_streamed("SELECT VALUE t.id FROM Tweets t", |b| batches.push(b.len()))
        .unwrap();
    assert_eq!(summary.rows, 100);
    assert_eq!(summary.batches, batches.len() as u64);
    assert_eq!(batches.iter().sum::<usize>(), 100);
    assert!(batches.len() >= 100 / 8 && batches.iter().all(|&n| n <= 8), "{batches:?}");
    // Exactly one `Done` closed that response: the next request's frames
    // are its own.
    assert_eq!(client.query(q).unwrap(), vec![Value::Int(7)]);
    server.shutdown();
}

#[test]
fn ddl_and_scripts_work_over_the_wire() {
    let engine = IngestionEngine::with_nodes(1);
    let server = Server::start(engine.clone(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), "ddl").unwrap();

    // A non-query statement answers with one summary row.
    let rows = client.query("CREATE TYPE PointType AS OPEN { id: int64 };").unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].as_object().unwrap().get("status"), Some(&Value::str("ok")));

    // A script: all statements execute, the last one's rows come back.
    let rows = client
        .query(
            r#"
            CREATE DATASET Points(PointType) PRIMARY KEY id;
            INSERT INTO Points ([{"id": 1}, {"id": 2}]);
            SELECT VALUE p.id FROM Points p ORDER BY p.id;
            "#,
        )
        .unwrap();
    assert_eq!(rows, vec![Value::Int(1), Value::Int(2)]);

    // Errors come back typed and leave the connection usable.
    let err = client.query("SELECT VALUE x FROM NoSuchDataset x").unwrap_err();
    assert_eq!(err.code(), ErrorCode::Unresolved);
    assert_eq!(client.query("SELECT VALUE p.id FROM Points p").unwrap().len(), 2);
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_queries_then_refuses_new_ones() {
    // A deliberately slow request: a quadratic cross join. It must
    // complete — with the right answer — even though shutdown starts
    // while it is running.
    let (_engine, server) = serve_tweets(150, ServerConfig::default());
    let addr = server.local_addr();
    let admission = server.admission().clone();

    let worker = thread::spawn(move || {
        let mut client = Client::connect(addr, "drain").unwrap();
        client.query("SELECT count(*) AS pairs FROM Tweets a, Tweets b").unwrap()
    });
    // Wait until the slow query holds a permit (bounded: if it already
    // finished, shutting down mid-flight is simply not exercised).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while admission.active() == 0 && std::time::Instant::now() < deadline {
        thread::sleep(Duration::from_millis(1));
    }
    server.shutdown();

    // shutdown() returned only after the drain: the client still got
    // the complete, correct result.
    let rows = worker.join().unwrap();
    assert_eq!(
        rows[0].as_object().unwrap().get("pairs"),
        Some(&Value::Int(150 * 150)),
        "in-flight query was cut short by shutdown"
    );

    // The port no longer accepts work.
    assert!(
        Client::connect_timeout(&addr, "late", Duration::from_millis(200)).is_err(),
        "server accepted a connection after shutdown"
    );
}
