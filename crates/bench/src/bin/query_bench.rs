//! `scripts/bench.sh` entry point: measures the vectorized (columnar)
//! evaluator against the row-at-a-time baseline, and writes
//! `BENCH_query.json`.
//!
//! One 4-partition tweet dataset, four analytical queries (a pure
//! selective scan, a scan + filter with a string predicate, a scan +
//! GROUP BY aggregation, and a grouped reference join), each parsed
//! **once** and executed repeatedly through a [`Session`] in two
//! configurations:
//!
//! * `row` — vectorization disabled ([`SessionConfig::vectorize`]): the
//!   row-at-a-time oracle and this benchmark's baseline;
//! * `vectorized` — columnar batches (the default path).
//!
//! The vectorized run also records a per-operator time breakdown
//! (scan/filter/join/agg/merge) from the engine's own counters.
//!
//! A separate disk-backed section compares the two sealed-component
//! layouts under the same vectorized evaluator: identical records in a
//! row-major and a `WITH {"layout": "columnar"}` dataset, a pure scan
//! over each, and a selective key scan whose footer min/max stats skip
//! pages outright. The page-skip hit rate lands in the JSON.
//!
//! `--smoke` (or `IDEA_BENCH_SMOKE=1`) shrinks the dataset and the
//! iteration counts so CI can run the whole thing in seconds — and
//! still fails if the vectorized path loses to row-at-a-time on the
//! pure-scan query, the columnar layout loses to row-major, or the
//! selective scan skips no pages. The full run additionally asserts
//! the acceptance bars: vectorized group-by and join beat
//! row-at-a-time, the pure scan by at least 2x, and the columnar disk
//! scan at least 2x over the row-major layout.

use std::time::{Duration, Instant};

use idea_adm::Value;
use idea_query::ast::Statement;
use idea_query::{Catalog, ExecStats, Session, SessionConfig};
use idea_storage::TempDir;

const NODES: usize = 4;
const COUNTRIES: &[&str] = &["US", "DE", "FR", "JP", "BR", "IN", "GB", "AU"];

/// Deterministic splitmix64 (no RNG dependency in the bin target).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds the shared catalog and returns (vectorized session,
/// row-at-a-time session). Both see the same data.
fn setup(rows: u64) -> (Session, Session) {
    let session = Session::new(Catalog::new(NODES));
    session
        .run_script(
            r#"
            CREATE TYPE TweetType AS OPEN { id: int64, country: string, score: int64, text: string };
            CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
            CREATE TYPE WordType AS OPEN { wid: int64, country: string, word: string };
            CREATE DATASET Words(WordType) PRIMARY KEY wid;
            "#,
        )
        .expect("DDL");
    let tweets = session.catalog().dataset("Tweets").expect("Tweets");
    let mut seed = 42u64;
    for id in 0..rows as i64 {
        let r = splitmix(&mut seed);
        let country = COUNTRIES[(r % COUNTRIES.len() as u64) as usize];
        let score = ((r >> 8) % 100) as i64;
        let topic = (r >> 16) % 8;
        tweets
            .insert(Value::object([
                ("id", Value::Int(id)),
                ("country", Value::str(country)),
                ("score", Value::Int(score)),
                ("text", Value::str(format!("tweet {id} from {country} mentions topic{topic}"))),
            ]))
            .expect("insert");
    }
    let words = session.catalog().dataset("Words").expect("Words");
    for wid in 0..16i64 {
        let r = splitmix(&mut seed);
        words
            .insert(Value::object([
                ("wid", Value::Int(wid)),
                ("country", Value::str(COUNTRIES[(r % COUNTRIES.len() as u64) as usize])),
                ("word", Value::str(format!("topic{}", wid % 8))),
            ]))
            .expect("insert word");
    }
    let row_session = SessionConfig::new().vectorize(false).build(session.catalog().clone());
    (session, row_session)
}

#[derive(Debug)]
struct LatencyStats {
    mean_us: f64,
    p50_us: f64,
    p99_us: f64,
}

fn stats(samples: &[Duration]) -> LatencyStats {
    let mut us: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mean = us.iter().sum::<f64>() / us.len().max(1) as f64;
    LatencyStats { mean_us: mean, p50_us: percentile(&us, 0.50), p99_us: percentile(&us, 0.99) }
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted_us: &[f64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_us.len() as f64 * q).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1]
}

/// Cumulative per-operator time (µs) over the timed vectorized runs,
/// from the engine's own [`ExecStats`] nano counters.
#[derive(Debug, Default)]
struct OperatorBreakdown {
    scan_us: f64,
    filter_us: f64,
    join_us: f64,
    agg_us: f64,
    merge_us: f64,
}

impl OperatorBreakdown {
    fn add(&mut self, s: &ExecStats) {
        self.scan_us += s.vec_scan_nanos as f64 / 1e3;
        self.filter_us += s.vec_filter_nanos as f64 / 1e3;
        self.join_us += s.vec_join_nanos as f64 / 1e3;
        self.agg_us += s.vec_agg_nanos as f64 / 1e3;
        self.merge_us += s.vec_merge_nanos as f64 / 1e3;
    }
}

struct QueryResult {
    name: &'static str,
    iterations: usize,
    rows_out: usize,
    row: LatencyStats,
    vectorized: LatencyStats,
    /// row mean / vectorized mean.
    speedup_vectorized: f64,
    operators: OperatorBreakdown,
}

/// Times `iterations` warm executions of one parsed statement per
/// configuration. The statement is parsed once, so every run shares one
/// block id — and therefore one cached plan.
fn measure_query(
    vec_session: &Session,
    row_session: &Session,
    name: &'static str,
    sql: &str,
    iterations: usize,
) -> QueryResult {
    let stmts = idea_query::parser::parse_statements(sql).expect("parse");
    let stmt: &Statement = &stmts[0];
    let warmup = (iterations / 10).max(2);

    let mut operators = OperatorBreakdown::default();
    let one = |session: &Session, samples: &mut Vec<Duration>, timed: bool| -> usize {
        let t = Instant::now();
        let v = session.execute(stmt).expect("query").into_value().expect("value");
        if timed {
            samples.push(t.elapsed());
        }
        v.as_array().map(<[_]>::len).unwrap_or(0)
    };

    // The two configurations are interleaved within each round (not run
    // as separate phases) so that slow drift in machine load hits both
    // equally — each speedup ratio compares samples taken moments apart.
    let mut row_samples = Vec::with_capacity(iterations);
    let mut vec_samples = Vec::with_capacity(iterations);
    let (mut row_rows, mut vec_rows) = (0, 0);
    for i in 0..warmup + iterations {
        let timed = i >= warmup;
        row_rows = one(row_session, &mut row_samples, timed);
        vec_rows = one(vec_session, &mut vec_samples, timed);
        if timed {
            operators.add(&vec_session.last_stats());
        }
    }
    assert_eq!(row_rows, vec_rows, "{name}: row and vectorized disagree on row count");

    let row = stats(&row_samples);
    let vectorized = stats(&vec_samples);
    let speedup_vectorized = row.mean_us / vectorized.mean_us;
    QueryResult {
        name,
        iterations,
        rows_out: row_rows,
        row,
        vectorized,
        speedup_vectorized,
        operators,
    }
}

/// The columnar-layout section: the same pure-scan query over two
/// disk-backed datasets holding identical records — one sealed
/// row-major, one sealed as column pages — plus a selective key scan
/// that exercises footer-stat page skipping.
struct ColumnarResult {
    iterations: usize,
    rows_out: usize,
    row_layout: LatencyStats,
    columnar: LatencyStats,
    /// row-major-layout mean / columnar mean (both vectorized).
    speedup_columnar: f64,
    selective: LatencyStats,
    pages_scanned: u64,
    pages_skipped: u64,
}

fn measure_columnar(rows: u64, iterations: usize) -> (TempDir, ColumnarResult) {
    let tmp = TempDir::new("query-bench-columnar");
    let catalog = Catalog::new(NODES);
    catalog.set_storage_root(tmp.path()).expect("storage root");
    let session = Session::new(catalog.clone());
    session
        .run_script(
            r#"
            CREATE TYPE TweetType AS OPEN { id: int64, country: string, score: int64, text: string };
            CREATE DATASET DiskRow(TweetType) PRIMARY KEY id
                WITH {"storage": "disk", "fsync": "never", "layout": "row"};
            CREATE DATASET DiskCol(TweetType) PRIMARY KEY id
                WITH {"storage": "disk", "fsync": "never", "layout": "columnar"};
            "#,
        )
        .expect("DDL");
    for name in ["DiskRow", "DiskCol"] {
        let ds = catalog.dataset(name).expect(name);
        let mut seed = 42u64;
        for id in 0..rows as i64 {
            let r = splitmix(&mut seed);
            let country = COUNTRIES[(r % COUNTRIES.len() as u64) as usize];
            let score = ((r >> 8) % 100) as i64;
            let topic = (r >> 16) % 8;
            ds.insert(Value::object([
                ("id", Value::Int(id)),
                ("country", Value::str(country)),
                ("score", Value::Int(score)),
                ("text", Value::str(format!("tweet {id} from {country} mentions topic{topic}"))),
            ]))
            .expect("insert");
        }
        // Seal every partition into one immutable component — the shape
        // the columnar fast path engages on (and the steady state of a
        // fully merged, read-mostly dataset either way).
        for p in ds.partitions() {
            p.flush();
            p.merge();
        }
    }

    let scan = |ds: &str| format!("SELECT VALUE t.id FROM {ds} t WHERE t.score > 98");
    let stmts = idea_query::parser::parse_statements(&format!(
        "{}; {}; SELECT VALUE t.id FROM DiskCol t WHERE t.id >= {};",
        scan("DiskRow"),
        scan("DiskCol"),
        rows as i64 - 500,
    ))
    .expect("parse");

    let warmup = (iterations / 10).max(2);
    let mut samples = [Vec::new(), Vec::new(), Vec::new()];
    let mut rows_out = [0usize; 3];
    let (mut pages_scanned, mut pages_skipped) = (0u64, 0u64);
    for i in 0..warmup + iterations {
        let timed = i >= warmup;
        for (q, stmt) in stmts.iter().enumerate() {
            let t = Instant::now();
            let v = session.execute(stmt).expect("query").into_value().expect("value");
            if timed {
                samples[q].push(t.elapsed());
                if q == 2 {
                    let s = session.last_stats();
                    pages_scanned += s.columnar_pages_scanned;
                    pages_skipped += s.columnar_pages_skipped;
                }
            }
            rows_out[q] = v.as_array().map(<[_]>::len).unwrap_or(0);
        }
    }
    assert_eq!(rows_out[0], rows_out[1], "disk layouts disagree on row count");
    assert_eq!(rows_out[2], 500, "selective scan lost rows");

    let row_layout = stats(&samples[0]);
    let columnar = stats(&samples[1]);
    let speedup_columnar = row_layout.mean_us / columnar.mean_us;
    let result = ColumnarResult {
        iterations,
        rows_out: rows_out[0],
        row_layout,
        columnar,
        speedup_columnar,
        selective: stats(&samples[2]),
        pages_scanned,
        pages_skipped,
    };
    (tmp, result)
}

fn json_columnar(c: &ColumnarResult) -> String {
    let touched = c.pages_scanned + c.pages_skipped;
    format!(
        concat!(
            "{{\"iterations\": {}, \"rows_out\": {}, \"row_layout\": {}, ",
            "\"columnar\": {}, \"speedup_columnar\": {:.2}, \"selective\": {}, ",
            "\"pages_scanned\": {}, \"pages_skipped\": {}, \"page_skip_rate\": {:.3}}}"
        ),
        c.iterations,
        c.rows_out,
        json_latency(&c.row_layout),
        json_latency(&c.columnar),
        c.speedup_columnar,
        json_latency(&c.selective),
        c.pages_scanned,
        c.pages_skipped,
        c.pages_skipped as f64 / touched.max(1) as f64
    )
}

fn json_latency(s: &LatencyStats) -> String {
    format!(
        "{{\"mean_us\": {:.2}, \"p50_us\": {:.2}, \"p99_us\": {:.2}}}",
        s.mean_us, s.p50_us, s.p99_us
    )
}

fn json_operators(o: &OperatorBreakdown) -> String {
    format!(
        concat!(
            "{{\"scan_us\": {:.2}, \"filter_us\": {:.2}, \"join_us\": {:.2}, ",
            "\"agg_us\": {:.2}, \"merge_us\": {:.2}}}"
        ),
        o.scan_us, o.filter_us, o.join_us, o.agg_us, o.merge_us
    )
}

fn json_query(r: &QueryResult) -> String {
    format!(
        concat!(
            "{{\"query\": \"{}\", \"iterations\": {}, \"rows_out\": {}, ",
            "\"row\": {}, \"vectorized\": {}, ",
            "\"speedup_vectorized\": {:.2}, \"operators\": {}}}"
        ),
        r.name,
        r.iterations,
        r.rows_out,
        json_latency(&r.row),
        json_latency(&r.vectorized),
        r.speedup_vectorized,
        json_operators(&r.operators)
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("IDEA_BENCH_SMOKE").map(|v| v == "1").unwrap_or(false);
    let (rows, iterations) = if smoke { (20_000u64, 10) } else { (200_000u64, 30) };

    eprintln!("== vectorized query ({rows} rows, {NODES} partitions, {iterations} iterations) ==");
    let (vec_session, row_session) = setup(rows);

    let queries: &[(&'static str, &str)] = &[
        (
            // Typed i64 comparison kernel over every record, tiny
            // output: the columnar scan measured in isolation.
            "pure_scan",
            r#"SELECT VALUE t.id FROM Tweets t WHERE t.score > 98"#,
        ),
        (
            "scan_filter",
            r#"SELECT VALUE t.id FROM Tweets t
               WHERE t.score < 10 AND contains(t.text, "topic3")"#,
        ),
        (
            "scan_group_by",
            r#"SELECT t.country AS country, count(*) AS n, avg(t.score) AS mean
               FROM Tweets t
               WHERE contains(t.text, "topic3")
               GROUP BY t.country ORDER BY t.country"#,
        ),
        (
            "grouped_join",
            r#"SELECT w.word AS word, count(*) AS n
               FROM Tweets t, Words w
               WHERE t.country = w.country AND contains(t.text, w.word) AND t.score < 50
               GROUP BY w.word ORDER BY w.word"#,
        ),
    ];
    let results: Vec<QueryResult> = queries
        .iter()
        .map(|(name, sql)| measure_query(&vec_session, &row_session, name, sql, iterations))
        .collect();
    for r in &results {
        eprintln!(
            "{:<14} row {:>9.1}us  vec {:>9.1}us ({:.2}x)  ({} rows out)",
            r.name, r.row.mean_us, r.vectorized.mean_us, r.speedup_vectorized, r.rows_out
        );
    }

    // Disk-backed layout comparison: identical data sealed row-major vs
    // columnar, scanned by the same vectorized evaluator.
    let disk_rows = if smoke { 20_000u64 } else { 100_000u64 };
    eprintln!("== columnar layout ({disk_rows} disk rows per layout) ==");
    let (_tmp, columnar) = measure_columnar(disk_rows, iterations);
    eprintln!(
        "disk_pure_scan row-layout {:>9.1}us  columnar {:>9.1}us ({:.2}x)  \
         selective {:>9.1}us (pages {} scanned / {} skipped)",
        columnar.row_layout.mean_us,
        columnar.columnar.mean_us,
        columnar.speedup_columnar,
        columnar.selective.mean_us,
        columnar.pages_scanned,
        columnar.pages_skipped,
    );

    let out = std::env::args().nth(1).filter(|a| a != "--smoke");
    let path = out.unwrap_or_else(|| "BENCH_query.json".to_string());
    let body: Vec<String> = results.iter().map(|r| format!("    {}", json_query(r))).collect();
    let cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let json = format!(
        "{{\n  \"smoke\": {},\n  \"nodes\": {},\n  \"rows\": {},\n  \"cores\": {},\n  \"queries\": [\n{}\n  ],\n  \"columnar\": {}\n}}\n",
        smoke,
        NODES,
        rows,
        cores,
        body.join(",\n"),
        json_columnar(&columnar)
    );
    std::fs::write(&path, json).expect("write BENCH_query.json");
    eprintln!("wrote {path}");

    let get = |name: &str| results.iter().find(|r| r.name == name).expect("query result");

    // Smoke and full runs alike: the columnar scan must not lose to
    // row-at-a-time (this is the CI regression gate for the whole
    // vectorized layer).
    let scan = get("pure_scan");
    assert!(
        scan.speedup_vectorized >= 1.0,
        "vectorized pure scan is slower than row-at-a-time: {:.2}x",
        scan.speedup_vectorized
    );

    // Columnar layout: never slower than the row-major layout under the
    // same evaluator, and the selective scan must actually skip pages.
    assert!(
        columnar.speedup_columnar >= 1.0,
        "columnar disk scan is slower than the row-major layout: {:.2}x",
        columnar.speedup_columnar
    );
    assert!(
        columnar.pages_skipped > 0,
        "selective key scan skipped no pages (scanned {})",
        columnar.pages_scanned
    );

    // Full-run acceptance bars.
    if !smoke {
        assert!(
            columnar.speedup_columnar >= 2.0,
            "columnar disk pure-scan speedup {:.2}x is below the 2x acceptance bar",
            columnar.speedup_columnar
        );
        assert!(
            scan.speedup_vectorized >= 2.0,
            "vectorized pure scan speedup {:.2}x is below the 2x acceptance bar",
            scan.speedup_vectorized
        );
        for name in ["scan_group_by", "grouped_join"] {
            let r = get(name);
            assert!(
                r.speedup_vectorized > 1.0,
                "vectorized {name} does not beat row-at-a-time: {:.2}x",
                r.speedup_vectorized
            );
        }
    }
}
