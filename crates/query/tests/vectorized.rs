//! Differential tests: the vectorized (columnar) evaluator vs. the
//! row-at-a-time evaluator (its oracle).
//!
//! Two sessions share one catalog; one has vectorization disabled via
//! [`SessionConfig::vectorize`]. Randomized SELECT / GROUP BY / JOIN
//! workloads — including null/missing-heavy datasets and mixed-type
//! columns that force the lazy column fallback — must produce identical
//! results. Both paths evaluate pairs in driver-scan × build-scan order
//! and group in first-seen order, so results are compared *exactly*,
//! not merely as multisets. Queries that error must error on both
//! paths (the error message may differ: the vectorized path evaluates
//! filter-major within a batch, so it can surface a different row's
//! error first).

use std::sync::Arc;

use idea_adm::Value;
use idea_query::catalog::Catalog;
use idea_query::{Session, SessionConfig};
use proptest::prelude::*;

const GROUPS: &[&str] = &["a", "b", "c", "d"];
/// `W.word` values: substrings `T.txt` (drawn from `[a-e ]`) may contain.
const WORDS: &[&str] = &["a", "b", "ab", "c", "de"];
/// Number of query templates in [`query_text`].
const TEMPLATES: usize = 17;

/// One generated record: `score` exercises every column shape the
/// inference pass can meet (typed, unknown-heavy, mixed, absent).
#[derive(Debug, Clone)]
struct Row {
    id: i64,
    grp: &'static str,
    score: Option<Value>, // None = field absent (MISSING)
    flag: bool,
    txt: String,
}

fn score_strategy() -> impl Strategy<Value = Option<Value>> {
    prop_oneof![
        4 => (0i64..50).prop_map(|n| Some(Value::Int(n))),
        2 => (0i64..50).prop_map(|n| Some(Value::Double(n as f64 + 0.5))),
        1 => "[a-c]{1,3}".prop_map(|s| Some(Value::str(s))),
        1 => Just(Some(Value::Null)),
        1 => Just(None),
    ]
}

fn rows_strategy(max: usize) -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        (0i64..200, 0usize..GROUPS.len(), score_strategy(), any::<bool>(), "[a-e ]{0,6}"),
        1..max,
    )
    .prop_map(|rows| {
        // Dedup ids: upsert makes the last write win; mirror that here
        // so the generated rows are exactly the dataset contents.
        let mut dedup: std::collections::BTreeMap<i64, Row> = Default::default();
        for (id, g, score, flag, txt) in rows {
            dedup.insert(id, Row { id, grp: GROUPS[g], score, flag, txt });
        }
        dedup.into_values().collect()
    })
}

/// Builds the shared catalog and inserts the generated rows plus a
/// small build-side dataset for join queries (`grp` is the equi-join
/// key, `word` the operand of a `contains` join residual).
fn setup(rows: &[Row], words: &[(i64, usize)]) -> Arc<Catalog> {
    let c = Catalog::new(2);
    Session::new(c.clone())
        .run_script(
            r#"
            CREATE TYPE TType AS OPEN { id: int64 };
            CREATE DATASET T(TType) PRIMARY KEY id;
            CREATE TYPE WType AS OPEN { wid: int64 };
            CREATE DATASET W(WType) PRIMARY KEY wid;
            CREATE FUNCTION bump(x) { x.id + 1 };
            "#,
        )
        .unwrap();
    let t = c.dataset("T").unwrap();
    for r in rows {
        let mut obj = idea_adm::value::Object::new();
        obj.set("id", Value::Int(r.id));
        obj.set("grp", Value::str(r.grp));
        if let Some(s) = &r.score {
            obj.set("score", s.clone());
        }
        obj.set("flag", Value::Bool(r.flag));
        obj.set("txt", Value::str(r.txt.clone()));
        t.upsert(Value::Object(obj)).unwrap();
    }
    let w = c.dataset("W").unwrap();
    for (wid, g) in words {
        w.upsert(Value::object([
            ("wid", Value::Int(*wid)),
            ("grp", Value::str(GROUPS[*g % GROUPS.len()])),
            ("word", Value::str(WORDS[*wid as usize % WORDS.len()])),
        ]))
        .unwrap();
    }
    c
}

/// The randomized query templates. Each exercises a different vectorized
/// operator; `c` is a random constant spliced into predicates.
fn query_text(template: usize, c: i64) -> String {
    match template % TEMPLATES {
        // Pure scan + typed cmp kernel.
        0 => format!("SELECT VALUE t.id FROM T t WHERE t.score > {c}"),
        // Scalar-fallback filter (AND of mixed kernels) + projection.
        1 => format!("SELECT t.id AS i, t.grp AS g FROM T t WHERE t.flag AND t.score >= {c}"),
        // contains kernel over the string column.
        2 => "SELECT VALUE t.id FROM T t WHERE contains(t.txt, \"a\")".into(),
        // Hash group-by with pre-hashed keys + every aggregate kind.
        // (`sum` over a mixed-type column errors on both paths; the
        // vectorized aggregate defers the error to finalization.)
        3 => "SELECT t.grp AS g, count(*) AS n, count(t.score) AS ns, \
              min(t.score) AS lo, max(t.score) AS hi, sum(t.score) AS s \
              FROM T t GROUP BY t.grp"
            .into(),
        // Grouped with HAVING + ORDER BY + LIMIT over aggregates.
        4 => format!(
            "SELECT t.grp AS g, count(*) AS n FROM T t GROUP BY t.grp \
             HAVING count(*) > {} ORDER BY count(*) DESC, t.grp LIMIT 3",
            c % 5
        ),
        // Implicit single group (aggregates, no GROUP BY).
        5 => "SELECT count(*) AS n, min(t.id) AS lo, sum(t.id) AS s, avg(t.id) AS a \
              FROM T t"
            .into(),
        // Hash join build/probe on a possibly-unknown key.
        6 => format!("SELECT VALUE t.id FROM T t, W w WHERE t.grp = w.grp AND w.wid < {c}"),
        // Join + residual over both sides + projection of both records.
        7 => "SELECT t.id AS i, w.wid AS j FROM T t, W w \
              WHERE t.grp = w.grp AND t.id > w.wid"
            .into(),
        // ORDER BY / LIMIT / DISTINCT tail over a scan.
        8 => format!("SELECT DISTINCT VALUE t.grp FROM T t WHERE t.id >= {c} ORDER BY t.grp"),
        // ORDER BY the primary key + LIMIT over a filtered scan.
        9 => format!(
            "SELECT t.id AS id, t.score AS score FROM T t \
             WHERE t.score >= {c} ORDER BY t.id LIMIT {}",
            c % 7 + 1
        ),
        // Filtered GROUP BY with several aggregates, ordered by the key.
        10 => format!(
            "SELECT t.grp AS g, count(*) AS n, sum(t.score) AS total \
             FROM T t WHERE t.score < {c} GROUP BY t.grp ORDER BY t.grp"
        ),
        // GROUP BY with avg and HAVING.
        11 => format!(
            "SELECT t.grp AS g, avg(t.score) AS mean FROM T t \
             GROUP BY t.grp HAVING count(*) > {} ORDER BY t.grp",
            c % 5
        ),
        // Equi-join plus a non-equi `contains` residual across the sides.
        12 => format!(
            "SELECT t.id AS i, w.word AS word FROM T t, W w \
             WHERE t.grp = w.grp AND contains(t.txt, w.word) AND t.id < {}",
            c * 3
        ),
        // Aggregates without GROUP BY under a filter that may select
        // nothing (the implicit group is still one row).
        13 => format!(
            "SELECT count(*) AS n, min(t.score) AS lo, max(t.score) AS hi \
             FROM T t WHERE t.grp = \"{}\" AND t.id < {c}",
            GROUPS[c as usize % GROUPS.len()]
        ),
        // DISTINCT VALUE under a filter, no ORDER BY.
        14 => format!("SELECT DISTINCT VALUE t.grp FROM T t WHERE t.score < {c}"),
        // Grouped join through the `contains` residual.
        15 => "SELECT w.word AS word, count(*) AS n FROM T t, W w \
               WHERE t.grp = w.grp AND contains(t.txt, w.word) \
               GROUP BY w.word ORDER BY w.word"
            .into(),
        // UDF in the projection: both sessions take the row path (the
        // vectorized session records a fallback), results still agree.
        _ => format!("SELECT VALUE bump(t) FROM T t WHERE t.id < {c}"),
    }
}

fn run_differential(rows: Vec<Row>, words: Vec<(i64, usize)>, queries: Vec<(usize, i64)>) {
    let catalog = setup(&rows, &words);
    let vec_session = Session::new(catalog.clone());
    let row_session = SessionConfig::new().vectorize(false).build(catalog);

    for (template, c) in queries {
        let q = query_text(template, c);
        let got = vec_session.query(&q);
        let want = row_session.query(&q);
        assert_eq!(row_session.last_stats().batches_built, 0, "oracle must not vectorize");
        match (got, want) {
            (Ok(g), Ok(w)) => assert_eq!(g, w, "diverged on {q}"),
            (Err(_), Err(_)) => {}
            (g, w) => panic!("one path failed on {q}: vectorized={g:?} row={w:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every template, random data: vectorized ≡ row-at-a-time.
    #[test]
    fn vectorized_matches_row_oracle(
        rows in rows_strategy(80),
        words in prop::collection::vec((0i64..30, 0usize..8), 0..12),
        consts in prop::collection::vec(0i64..60, TEMPLATES),
    ) {
        let queries = consts.iter().enumerate().map(|(t, c)| (t, *c)).collect();
        run_differential(rows, words, queries);
    }

    /// Unknown-heavy data (every score NULL or MISSING) through the
    /// scan/filter/aggregate templates.
    #[test]
    fn vectorized_handles_unknown_heavy_columns(
        rows in prop::collection::vec(
            (0i64..100, 0usize..GROUPS.len(), any::<bool>(), any::<bool>()),
            1..50,
        ),
        c in 0i64..50,
    ) {
        let rows: Vec<Row> = rows
            .into_iter()
            .map(|(id, g, null, flag)| Row {
                id,
                grp: GROUPS[g],
                score: if null { Some(Value::Null) } else { None },
                flag,
                txt: String::new(),
            })
            .collect();
        let mut dedup: std::collections::BTreeMap<i64, Row> = Default::default();
        for r in rows {
            dedup.insert(r.id, r);
        }
        run_differential(
            dedup.into_values().collect(),
            vec![(1, 0), (2, 1)],
            (0..TEMPLATES).map(|t| (t, c)).collect(),
        );
    }
}

/// The vectorized path must actually engage (not silently fall back)
/// for the queries the differential suite leans on.
#[test]
fn vectorized_path_engages() {
    let rows: Vec<Row> = (0..300)
        .map(|id| Row {
            id,
            grp: GROUPS[(id % 4) as usize],
            score: Some(Value::Int(id % 50)),
            flag: id % 2 == 0,
            txt: format!("row {id}"),
        })
        .collect();
    let catalog = setup(&rows, &[(1, 0), (2, 1), (3, 2)]);
    let session = Session::new(catalog);

    for (q, what) in [
        ("SELECT VALUE t.id FROM T t WHERE t.score > 10", "scan+filter"),
        ("SELECT t.grp AS g, count(*) AS n FROM T t GROUP BY t.grp", "group-by"),
        ("SELECT VALUE t.id FROM T t, W w WHERE t.grp = w.grp", "hash join"),
    ] {
        session.query(q).unwrap();
        let stats = session.last_stats();
        assert!(stats.batches_built > 0, "{what} did not vectorize: {q}");
        assert_eq!(stats.vec_fallbacks, 0, "{what} fell back: {q}");
        assert_eq!(stats.batch_rows, if q.contains(", W w") { 303 } else { 300 });
    }

    // A UDF call keeps the row path and is counted as a fallback.
    session.query("SELECT VALUE bump(t) FROM T t").unwrap();
    let stats = session.last_stats();
    assert_eq!(stats.batches_built, 0);
    assert_eq!(stats.vec_fallbacks, 1);
}
