//! Differential tests for build-side reuse across execution contexts.
//!
//! A pure hash-join or materialized build side is memoized in the shared
//! [`PlanCache`] with the reference snapshot it was built from, and a
//! later context that pins exactly the same view reuses it. Model 2's
//! rule must still hold: every context's answer equals what a context
//! with a private cache — which always rebuilds — returns over the same
//! data. The seeded differential drives a UDF with one hash-join and one
//! key-bounded materialized build over a reference dataset through
//! batches of fresh contexts, changing the reference data between (and
//! inside) batches, and checks both answers and how often the shared side
//! really built.

use std::collections::BTreeMap;
use std::sync::Arc;

use idea_adm::Value;
use idea_query::ast::SelectBlock;
use idea_query::exec::{eval_block, Env};
use idea_query::parser::parse_query;
use idea_query::{apply_function, Catalog, ExecContext, ExecStats, PlanCache, Session};

const COUNTRIES: &[&str] = &["US", "FR", "DE", "JP"];
const KEYS: i64 = 48;
const BATCHES: usize = 12;
const RECORDS: u64 = 6;

/// SplitMix64: a tiny seeded generator, so a failure names its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn rating(rid: i64, country: usize, rating: i64) -> Value {
    Value::object([
        ("rid", Value::Int(rid)),
        ("country", Value::str(COUNTRIES[country])),
        ("rating", Value::Int(rating)),
    ])
}

/// Two partitions of `Ratings` and the UDF under test: a hash join on
/// `country` whose self-filter bounds the key, and a key-bounded
/// materialized scan filtered per record.
fn setup() -> Arc<Catalog> {
    let c = Catalog::new(2);
    Session::new(c.clone())
        .run_script(
            r#"
            CREATE TYPE RType AS OPEN { rid: int64 };
            CREATE DATASET Ratings(RType) PRIMARY KEY rid;
            CREATE FUNCTION enrich(t) {
                LET rating = (SELECT VALUE r.rating FROM Ratings r
                              WHERE r.country = t.country AND r.rid >= 3),
                    low = (SELECT VALUE r.rid FROM Ratings r
                           WHERE r.rid < 20 AND r.rating < t.level)
                SELECT t.*, rating, low
            };
            "#,
        )
        .unwrap();
    c
}

/// One reference-data operation; returns whether it moved the dataset's
/// view, judged from the test's own model and the LSM shape, not from
/// snapshot identity.
fn apply_op(c: &Catalog, model: &mut BTreeMap<i64, i64>, rng: &mut Rng) -> bool {
    let ds = c.dataset("Ratings").unwrap();
    match rng.below(6) {
        // Rating change of an existing key (an upsert always writes).
        0 => {
            let Some((&rid, _)) = model.iter().nth(rng.below(model.len().max(1) as u64) as usize)
            else {
                return false;
            };
            let r = rng.below(7) as i64 - 1;
            model.insert(rid, r);
            ds.upsert(rating(rid, rid as usize % COUNTRIES.len(), r)).unwrap();
            true
        }
        // Delete: writes only when the key is live.
        1 => {
            let rid = rng.below(KEYS as u64) as i64;
            let existed = model.remove(&rid).is_some();
            let deleted = ds.partition_for(&Value::Int(rid)).delete(&Value::Int(rid)).unwrap();
            assert_eq!(deleted, existed, "delete of {rid}");
            existed
        }
        // New key (or an overwrite once every key is live).
        2 => {
            let rid = rng.below(KEYS as u64) as i64;
            let r = rng.below(7) as i64 - 1;
            model.insert(rid, r);
            ds.upsert(rating(rid, rid as usize % COUNTRIES.len(), r)).unwrap();
            true
        }
        // Flush: moves a partition whose memtable holds anything.
        3 => {
            let mut moved = false;
            for p in ds.partitions() {
                moved |= p.lsm_shape().0 > 0;
                p.flush();
            }
            moved
        }
        // Full merge: moves a partition with at least two components.
        4 => {
            let mut moved = false;
            for p in ds.partitions() {
                moved |= p.lsm_shape().1 >= 2;
                p.merge();
            }
            moved
        }
        _ => false,
    }
}

fn tweet(rng: &mut Rng, id: u64) -> Value {
    // One country in five has no rating at all.
    let country = ["US", "FR", "DE", "JP", "BR"][rng.below(5) as usize];
    Value::object([
        ("id", Value::Int(id as i64)),
        ("country", Value::str(country)),
        ("level", Value::Int(rng.below(6) as i64)),
    ])
}

/// Runs one seeded history; returns how many of its batches saw the
/// view move, and how many hash builds a delta caught up.
fn run_seed(seed: u64) -> (usize, usize) {
    let c = setup();
    let mut rng = Rng(seed);
    let mut model = BTreeMap::new();
    for _ in 0..rng.below(30) {
        apply_op(&c, &mut model, &mut rng);
    }
    let shared = PlanCache::new();
    // The first batch always builds.
    let mut pending_move = true;
    let (mut moved_batches, mut deltas) = (0, 0);
    for batch in 0..BATCHES {
        for _ in 0..rng.below(3) {
            pending_move |= apply_op(&c, &mut model, &mut rng);
        }
        let moved = std::mem::take(&mut pending_move);
        moved_batches += moved as usize;

        let mut private = ExecContext::new(c.clone());
        let mut ctx = ExecContext::with_plan_cache(c.clone(), shared.clone());
        let mid_batch_write = rng.below(4) == 0;
        for i in 0..RECORDS {
            let t = tweet(&mut rng, batch as u64 * RECORDS + i);
            let want = apply_function(&mut private, "enrich", std::slice::from_ref(&t)).unwrap();
            let got = apply_function(&mut ctx, "enrich", std::slice::from_ref(&t)).unwrap();
            assert_eq!(got, want, "seed {seed} batch {batch} record {i}");
            if i == 0 && mid_batch_write {
                // Both contexts pinned their view at the first record:
                // the write is for the next batch to see.
                pending_move |= apply_op(&c, &mut model, &mut rng);
            }
        }
        assert_eq!(private.stats.hash_builds, 1, "seed {seed} batch {batch}: private rebuilds");
        assert_eq!(private.stats.build_reuses, 0);
        let want_builds = moved as u64;
        let st = ctx.stats;
        // A moved hash build is either rebuilt or caught up by a delta.
        let hash_refreshes = st.hash_builds + st.build_deltas;
        assert_eq!(hash_refreshes, want_builds, "seed {seed} batch {batch}: hash builds");
        assert_eq!(st.materializations, want_builds, "seed {seed} batch {batch}: materializations");
        assert_eq!(st.build_reuses, 2 * (1 - want_builds), "seed {seed} batch {batch}: reuses");
        deltas += st.build_deltas as usize;
    }
    (moved_batches, deltas)
}

/// Shared-cache contexts ≡ always-rebuild contexts across 256 seeded
/// histories of rating changes, deletes, new keys, flushes and merges —
/// and the shared side refreshes exactly once per batch whose view
/// moved, by a rebuild or, for the hash join, a delta.
#[test]
fn shared_builds_match_always_rebuild_across_seeds() {
    let (moved, deltas) = (0..256)
        .map(run_seed)
        .fold((0, 0), |(m, d), (moved, deltas)| (m + moved, d + deltas));
    let batches = 256 * BATCHES;
    // Every path of the check must actually be exercised.
    assert!(moved > batches / 5 && moved < batches * 4 / 5, "{moved} of {batches} batches moved");
    assert!(deltas > moved / 10 && deltas < moved, "{deltas} of {moved} moved batches by delta");
}

/// A reference catalog with static ratings for the unit cases below.
fn static_ratings() -> Arc<Catalog> {
    let c = setup();
    let ds = c.dataset("Ratings").unwrap();
    for rid in 0..KEYS {
        ds.upsert(rating(rid, rid as usize % COUNTRIES.len(), rid % 5)).unwrap();
    }
    c
}

/// Runs `block` (reading `t`) on the row path in a fresh context on
/// `cache`, with `$min` bound to `min`.
fn run(
    c: &Arc<Catalog>,
    cache: &Arc<PlanCache>,
    block: &SelectBlock,
    min: i64,
) -> (Vec<Value>, ExecStats) {
    let mut ctx = ExecContext::with_plan_cache(c.clone(), cache.clone());
    ctx.vectorize = false;
    ctx.set_param("min", Value::Int(min));
    let env = Env::new()
        .bind_value("t", Value::object([("country", Value::str("US")), ("level", Value::Int(3))]));
    let rows = eval_block(block, &env, &mut ctx).unwrap();
    (rows, ctx.stats)
}

#[test]
fn param_self_filter_is_never_memoized() {
    let c = static_ratings();
    let block = parse_query(
        "SELECT VALUE r.rid FROM Ratings r WHERE r.country = t.country AND r.rating >= $min",
    )
    .unwrap();
    let cache = PlanCache::new();
    let (all, st) = run(&c, &cache, &block, 0);
    assert_eq!(st.hash_builds, 1);
    // Same snapshot, different parameter: a reused build would answer
    // with the first context's `$min`.
    let (some, st) = run(&c, &cache, &block, 3);
    assert_eq!((st.hash_builds, st.build_reuses), (1, 0), "a $param build was shared");
    assert!(some.len() < all.len());
    let (private, _) = run(&c, &PlanCache::new(), &block, 3);
    assert_eq!(some, private);
}

#[test]
fn udf_calling_self_filter_is_never_memoized() {
    let c = static_ratings();
    Session::new(c.clone())
        .run_script("CREATE FUNCTION rated(r) { r.rating > 1 };")
        .unwrap();
    let block =
        parse_query("SELECT VALUE r.rid FROM Ratings r WHERE r.country = t.country AND rated(r)")
            .unwrap();
    let cache = PlanCache::new();
    let (first, st) = run(&c, &cache, &block, 0);
    assert_eq!(st.hash_builds, 1);
    let (second, st) = run(&c, &cache, &block, 0);
    assert_eq!((st.hash_builds, st.build_reuses), (1, 0), "a UDF-filtered build was shared");
    assert_eq!(first, second);

    // The control: the same join with a builtin-only filter is reused.
    let pure = parse_query(
        "SELECT VALUE r.rid FROM Ratings r WHERE r.country = t.country AND r.rating > 1",
    )
    .unwrap();
    run(&c, &cache, &pure, 0);
    let (rows, st) = run(&c, &cache, &pure, 0);
    assert_eq!((st.hash_builds, st.build_reuses), (0, 1));
    assert_eq!(rows, first);
}

#[test]
fn create_index_clears_the_memo() {
    let c = static_ratings();
    let block =
        parse_query("SELECT VALUE r.rid FROM Ratings r WHERE r.country = t.country").unwrap();
    let cache = PlanCache::new();
    let (want, st) = run(&c, &cache, &block, 0);
    assert_eq!(st.hash_builds, 1);
    let (_, st) = run(&c, &cache, &block, 0);
    assert_eq!((st.hash_builds, st.build_reuses), (0, 1), "unchanged data reuses the build");

    // DDL that leaves the data (and so the snapshot) exactly as it was.
    let before = c.dataset("Ratings").unwrap().snapshot_all();
    Session::new(c.clone())
        .run_script("CREATE INDEX byRating ON Ratings(rating) TYPE BTREE;")
        .unwrap();
    let after = c.dataset("Ratings").unwrap().snapshot_all();
    assert!(before.iter().zip(&after).all(|(a, b)| a.same_view(b)), "CREATE INDEX moved the view");

    let (got, st) = run(&c, &cache, &block, 0);
    assert_eq!((st.hash_builds, st.build_reuses), (1, 0), "CREATE INDEX must clear the memo");
    assert_eq!(got, want);
}
