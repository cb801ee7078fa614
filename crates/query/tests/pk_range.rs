//! Differential tests for primary-key range access.
//!
//! A scan whose self-filter bounds the primary key seeks the LSM's
//! sorted runs instead of reading every record. The bound is derived at
//! plan time and the predicate itself still runs, so the answer must be
//! exactly what the same query returns with `/*+ noindex */` (which never
//! derives a bound) on the row-at-a-time evaluator. Every bounded query
//! runs through each executor's one scan call site — the vectorized
//! evaluator (`Session::query`), the lazy scan stream
//! (`Session::query_stream`), and a LET block that keeps the row
//! interpreter — and must read no more rows than the range holds, so the
//! bounded path provably fired. The same predicates also run on the
//! build side of an equality join, through the vectorized join and the
//! row interpreter's hash build.

use std::sync::Arc;

use idea_adm::Value;
use idea_query::catalog::Catalog;
use idea_query::{ExecStats, Session, SessionConfig};
use proptest::prelude::*;

const GROUPS: &[&str] = &["a", "b", "c"];
const NODES: usize = 2;

/// One generated `T` record (`id` is the int64 primary key).
#[derive(Debug, Clone)]
struct Row {
    id: i64,
    score: i64,
    grp: usize,
}

/// One predicate over `t` (on `T`, int64 key `id`) or `s` (on `S`,
/// string key `sid`), with the part of it that bounds the key, if any.
struct Pred {
    dataset: &'static str,
    alias: &'static str,
    key: &'static str,
    text: String,
    /// The conjuncts that bound the key; `None` when nothing may bound.
    bound: Option<String>,
}

fn pred(template: usize, c: i64, d: i64) -> Pred {
    let (lo, hi) = (c.min(d), c.max(d));
    let t = |text: String, bound: Option<String>| Pred {
        dataset: "T",
        alias: "t",
        key: "id",
        text,
        bound,
    };
    let s = |text: String, bound: Option<String>| Pred {
        dataset: "S",
        alias: "s",
        key: "sid",
        text,
        bound,
    };
    let op = ["=", "<", "<=", ">", ">="][(c as usize) % 5];
    match template % 14 {
        // Each operator, key on the left, Int literal.
        0 => {
            let p = format!("t.id {op} {d}");
            t(p.clone(), Some(p))
        }
        // Literal on the left.
        1 => {
            let p = format!("{d} {op} t.id");
            t(p.clone(), Some(p))
        }
        // The benchmark's shape: a half-open interval.
        2 => {
            let p = format!("t.id >= {lo} AND t.id < {hi}");
            t(p.clone(), Some(p))
        }
        // Double literals, including values between integer keys.
        3 => {
            let p = format!("t.id >= {lo}.5 AND t.id <= {hi}.5");
            t(p.clone(), Some(p))
        }
        4 => {
            let p = format!("t.id = {c}.5");
            t(p.clone(), Some(p))
        }
        5 => {
            let p = format!("t.id > {lo}.0 AND {hi}.25 > t.id");
            t(p.clone(), Some(p))
        }
        // Negative literal (parsed as unary minus).
        6 => {
            let p = format!("t.id > -{c} AND t.id < {hi}");
            t(p.clone(), Some(p))
        }
        // Key bounds mixed with non-key filters, in either order.
        7 => {
            let b = format!("t.id >= {lo} AND t.id <= {hi}");
            t(format!("t.score > {} AND {b}", c % 20), Some(b))
        }
        8 => {
            let b = format!("t.id < {hi}");
            t(format!("{b} AND t.grp = \"{}\"", GROUPS[(d as usize) % GROUPS.len()]), Some(b))
        }
        // OR never bounds.
        9 => t(format!("t.id < {lo} OR t.id > {hi}"), None),
        // Bounds on a non-key field never bound the scan.
        10 => t(format!("t.score >= {} AND t.score < {}", lo % 20, hi % 20 + 5), None),
        // A literal of another type class than the key never bounds.
        11 => t(format!("t.id < \"k{c}\""), None),
        // String keys.
        12 => {
            let p = format!("s.sid >= \"k{lo:03}\" AND s.sid < \"k{hi:03}\"");
            s(p.clone(), Some(p))
        }
        _ => {
            // `"k12"` sorts between `"k119"` and `"k120"`: a bound that
            // falls between keys.
            let p = format!("s.sid {op} \"k{}\"", c % 40);
            s(p.clone(), Some(p))
        }
    }
}

/// Catalog with `T` (int keys) and `S` (string keys) spread over
/// sealed components and memtables: the first half of the writes is
/// flushed, then overwrites and deletes stay in the memtables.
fn setup(rows: &[Row], deletes: &[i64]) -> Arc<Catalog> {
    let c = Catalog::new(NODES);
    Session::new(c.clone())
        .run_script(
            r#"
            CREATE TYPE TType AS OPEN { id: int64 };
            CREATE DATASET T(TType) PRIMARY KEY id;
            CREATE TYPE SType AS OPEN { sid: string };
            CREATE DATASET S(SType) PRIMARY KEY sid;
            "#,
        )
        .unwrap();
    let t = c.dataset("T").unwrap();
    let s = c.dataset("S").unwrap();
    let half = rows.len() / 2;
    for (i, r) in rows.iter().enumerate() {
        if i == half {
            for p in t.partitions().iter().chain(s.partitions()) {
                p.flush();
            }
        }
        t.upsert(Value::object([
            ("id", Value::Int(r.id)),
            ("score", Value::Int(r.score)),
            ("grp", Value::str(GROUPS[r.grp])),
        ]))
        .unwrap();
        s.upsert(Value::object([
            ("sid", Value::str(format!("k{:03}", r.id))),
            ("n", Value::Int(r.id)),
        ]))
        .unwrap();
    }
    for id in deletes {
        t.partition_for(&Value::Int(*id)).delete(&Value::Int(*id)).unwrap();
        let sid = Value::str(format!("k{id:03}"));
        s.partition_for(&sid).delete(&sid).unwrap();
    }
    c
}

/// Checks one executor's counters: a bounded run scanned at most the
/// in-range rows and counted its bounded scans; an unbounded one none.
fn check_stats(what: &str, q: &str, pk_range_scans: u64, rows_scanned: u64, in_range: Option<u64>) {
    match in_range {
        Some(n) => {
            assert!(pk_range_scans > 0, "{what}: no bounded scan for {q}");
            assert!(rows_scanned <= n, "{what}: scanned {rows_scanned} rows, range holds {n}: {q}");
        }
        None => assert_eq!(pk_range_scans, 0, "{what}: bounded a scan it must not: {q}"),
    }
}

fn run_differential(rows: Vec<Row>, deletes: Vec<i64>, queries: Vec<(usize, i64, i64)>) {
    let catalog = setup(&rows, &deletes);
    let oracle = SessionConfig::new().vectorize(false).build(catalog.clone());
    let vectorized = Session::new(catalog);

    for (template, c, d) in queries {
        let p = pred(template, c, d);
        let (ds, a, key) = (p.dataset, p.alias, p.key);
        let plain = format!("SELECT VALUE {a}.{key} FROM {ds} {a} WHERE {}", p.text);
        let noindex =
            format!("SELECT VALUE {a}.{key} FROM {ds} /*+ noindex */ {a} WHERE {}", p.text);
        let with_let = format!("SELECT VALUE x FROM {ds} {a} LET x = {a}.{key} WHERE {}", p.text);

        let want = oracle.query(&noindex).unwrap();
        assert_eq!(oracle.last_stats().pk_range_scans, 0, "noindex must not bound: {noindex}");
        let in_range = p.bound.as_ref().map(|b| {
            let q = format!("SELECT VALUE count(*) FROM {ds} /*+ noindex */ {a} WHERE {b}");
            oracle.query(&q).unwrap().as_array().unwrap()[0].as_int().unwrap() as u64
        });

        // Vectorized evaluator.
        assert_eq!(vectorized.query(&plain).unwrap(), want, "vectorized: {plain}");
        let st = vectorized.last_stats();
        assert!(st.batches_built > 0 || st.batch_rows == 0, "vectorized path did not run: {plain}");
        check_stats("vectorized", &plain, st.pk_range_scans, st.rows_scanned, in_range);

        // Lazy scan stream.
        let mut stream = oracle.query_stream(&plain).unwrap();
        let mut got = Vec::new();
        while let Some(mut b) = stream.next_batch().unwrap() {
            got.append(&mut b);
        }
        assert_eq!(Value::Array(got), want, "scan stream: {plain}");
        let st: ExecStats = stream.exec_stats().expect("a lazy scan stream");
        check_stats("scan stream", &plain, st.pk_range_scans, st.rows_scanned, in_range);

        // Row interpreter (a LET block never vectorizes).
        assert_eq!(vectorized.query(&with_let).unwrap(), want, "row path: {with_let}");
        let st = vectorized.last_stats();
        assert_eq!(st.batches_built, 0, "LET block vectorized: {with_let}");
        check_stats("row path", &with_let, st.pk_range_scans, st.rows_scanned, in_range);

        check_join(&oracle, &vectorized, &p, in_range);
    }
}

/// The same predicate on the *build* side of an equality join: the
/// driver `o` (the other dataset, scanned whole) joins on the key, so the
/// hash build over `{ds}` carries the bound. Both the vectorized join and
/// the row interpreter's hash build must equal the `noindex` oracle and
/// scan at most the driver plus the in-range build rows.
fn check_join(oracle: &Session, vectorized: &Session, p: &Pred, in_range: Option<u64>) {
    if p.text.contains(" = ") {
        // A literal equality makes the planner drive from the filtered
        // item (most selective first): there is no bounded build side.
        return;
    }
    let (ds, a, key) = (p.dataset, p.alias, p.key);
    // Row `k` of `T` pairs with row `"k{k:03}"` of `S` (`S.n` = `T.id`).
    let (driver, join_on, o_key) = match ds {
        "T" => ("S", "t.id = o.n", "sid"),
        _ => ("T", "s.n = o.id", "id"),
    };
    let q = |hint: &str| {
        format!(
            "SELECT o.{o_key} AS o, {a}.{key} AS b FROM {driver} o, {ds} {hint} {a}
             WHERE {join_on} AND ({})",
            p.text
        )
    };
    let (plain, noindex) = (q(""), q("/*+ noindex */"));
    let with_let = format!(
        "SELECT o.{o_key} AS o, x AS b FROM {driver} o, {ds} {a} LET x = {a}.{key}
         WHERE {join_on} AND ({})",
        p.text
    );
    let want = oracle.query(&noindex).unwrap();
    assert_eq!(oracle.last_stats().pk_range_scans, 0, "noindex must not bound: {noindex}");
    let count = |q: String| oracle.query(&q).unwrap().as_array().unwrap()[0].as_int().unwrap();
    let drivers = count(format!("SELECT VALUE count(*) FROM {driver} o")) as u64;
    // With no driver row the build side is never scanned at all.
    let in_range = in_range.filter(|_| drivers > 0);

    for (vec, q) in [(true, &plain), (false, &with_let)] {
        let what = if vec { "vectorized join" } else { "row join" };
        assert_eq!(vectorized.query(q).unwrap(), want, "{what}: {q}");
        let st = vectorized.last_stats();
        assert_eq!(st.batches_built > 0, vec && drivers > 0, "{what} ran the wrong path: {q}");
        match in_range {
            Some(n) => {
                assert!(st.pk_range_scans > 0, "{what}: no bounded build for {q} ({key})");
                assert!(
                    st.rows_scanned <= drivers + n,
                    "{what}: scanned {} rows: {q}",
                    st.rows_scanned
                );
            }
            None if p.bound.is_none() => {
                assert_eq!(st.pk_range_scans, 0, "{what}: bounded a build it must not: {q}")
            }
            None => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every predicate template over random data: each executor with the
    /// key bound ≡ the `noindex` row-path oracle.
    #[test]
    fn pk_range_matches_noindex_oracle(
        rows in prop::collection::vec((0i64..160, 0i64..25, 0usize..GROUPS.len()), 1..200),
        deletes in prop::collection::vec(0i64..160, 0..20),
        consts in prop::collection::vec((0i64..170, 0i64..170), 14),
    ) {
        let rows = rows.into_iter().map(|(id, score, grp)| Row { id, score, grp }).collect();
        let queries = consts.iter().enumerate().map(|(t, (c, d))| (t, *c, *d)).collect();
        run_differential(rows, deletes, queries);
    }
}

/// The benchmark's range query reads only its 100 rows.
#[test]
fn range_query_reads_only_its_rows() {
    let rows: Vec<Row> = (0..3000).map(|id| Row { id, score: id % 25, grp: 0 }).collect();
    let catalog = setup(&rows, &[]);
    let session = Session::new(catalog);
    let q = "SELECT VALUE t.id FROM T t WHERE t.id >= 1000 AND t.id < 1100";
    let got = session.query(q).unwrap();
    assert_eq!(got.as_array().unwrap().len(), 100);
    let st = session.last_stats();
    assert_eq!(st.rows_scanned, 100);
    assert_eq!(st.pk_range_scans, NODES as u64, "one bounded scan per partition");
}
