//! Property tests: the LSM dataset behaves like a simple map; a
//! primary-key range scan equals the filtered full scan; the R-tree
//! answers like a naive scan.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use idea_adm::value::{Circle, Point};
use idea_adm::{Datatype, TypeTag, Value};
use idea_storage::dataset::{Dataset, DatasetConfig};
use idea_storage::index::RTree;
use idea_storage::lsm::{KeyRange, LsmConfig, LsmTree, MergePolicyConfig};
use idea_storage::maintenance::MaintenanceScheduler;
use idea_storage::{ComponentLayout, DurabilityConfig, FsyncPolicy, TempDir};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Put(i64, i64),
    Delete(i64),
    Flush,
    Merge,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0i64..50, any::<i64>()).prop_map(|(k, v)| Op::Put(k, v)),
        2 => (0i64..50).prop_map(Op::Delete),
        1 => Just(Op::Flush),
        1 => Just(Op::Merge),
    ]
}

proptest! {
    /// The LSM tree agrees with a BTreeMap model under any op sequence,
    /// for point gets, full live iteration, and the maintained live
    /// counter.
    #[test]
    fn lsm_matches_model(ops in prop::collection::vec(arb_op(), 0..200)) {
        let tree = LsmTree::new(LsmConfig {
            memtable_budget_bytes: 512,
            max_sealed_memtables: 2,
            merge_policy: MergePolicyConfig::Constant { max_components: 3 },
            durability: Default::default(),
        });
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    tree.put(Value::Int(k), Some(Arc::new(Value::Int(v)))).unwrap();
                    model.insert(k, v);
                }
                Op::Delete(k) => {
                    tree.put(Value::Int(k), None).unwrap();
                    model.remove(&k);
                }
                Op::Flush => tree.flush(),
                Op::Merge => tree.merge_all(),
            }
        }
        for k in 0i64..50 {
            let got = tree.get(&Value::Int(k)).unwrap().and_then(|v| v.as_int());
            prop_assert_eq!(got, model.get(&k).copied(), "get({})", k);
        }
        let snap = tree.snapshot();
        let live: Vec<(i64, i64)> = snap
            .iter()
            .map(|(k, v)| (k.as_int().unwrap(), v.as_int().unwrap()))
            .collect();
        let want: Vec<(i64, i64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(live, want);
        prop_assert_eq!(tree.live_count(), model.len(), "maintained live counter");
    }

    /// Tiered merging plus background flush/merge on a scheduler keeps
    /// `get`/iteration equivalent to the sequential oracle once drained.
    #[test]
    fn background_tiered_matches_model(ops in prop::collection::vec(arb_op(), 0..200)) {
        let sched = MaintenanceScheduler::new(2);
        let tree = LsmTree::new(LsmConfig {
            memtable_budget_bytes: 256,
            max_sealed_memtables: 2,
            merge_policy: MergePolicyConfig::Tiered {
                size_ratio: 1.5,
                min_merge: 2,
                max_merge: 4,
            },
            durability: Default::default(),
        });
        tree.attach_maintenance(Arc::clone(&sched));
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    tree.put(Value::Int(k), Some(Arc::new(Value::Int(v)))).unwrap();
                    model.insert(k, v);
                }
                Op::Delete(k) => {
                    tree.put(Value::Int(k), None).unwrap();
                    model.remove(&k);
                }
                Op::Flush => tree.flush(),
                Op::Merge => tree.merge_all(),
                // Reads stay correct even while maintenance is queued;
                // spot-check a few mid-stream.
            }
            if model.len().is_multiple_of(17) {
                for k in [0i64, 7, 23] {
                    let got = tree.get(&Value::Int(k)).unwrap().and_then(|v| v.as_int());
                    prop_assert_eq!(got, model.get(&k).copied(), "mid-stream get({})", k);
                }
            }
        }
        sched.drain();
        for k in 0i64..50 {
            let got = tree.get(&Value::Int(k)).unwrap().and_then(|v| v.as_int());
            prop_assert_eq!(got, model.get(&k).copied(), "drained get({})", k);
        }
        let snap = tree.snapshot();
        let live: Vec<(i64, i64)> = snap
            .iter()
            .map(|(k, v)| (k.as_int().unwrap(), v.as_int().unwrap()))
            .collect();
        let want: Vec<(i64, i64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(live, want);
        prop_assert_eq!(tree.live_count(), model.len());
        sched.shutdown();
    }

    /// R-tree query results equal a naive scan after arbitrary
    /// insert/remove interleavings.
    #[test]
    fn rtree_matches_naive(
        points in prop::collection::vec(((-50.0f64..50.0), (-50.0f64..50.0)), 1..150),
        removals in prop::collection::vec(any::<prop::sample::Index>(), 0..40),
        query in ((-50.0f64..50.0), (-50.0f64..50.0), (0.1f64..30.0)),
    ) {
        let mut tree = RTree::new();
        let mut live: Vec<Option<Point>> = Vec::new();
        for (i, (x, y)) in points.iter().enumerate() {
            let p = Point::new(*x, *y);
            tree.insert(p, Value::Int(i as i64));
            live.push(Some(p));
        }
        for r in removals {
            let i = r.index(points.len());
            if let Some(p) = live[i].take() {
                prop_assert!(tree.remove(&p, &Value::Int(i as i64)));
            }
        }
        let (qx, qy, qr) = query;
        let circle = Circle::new(Point::new(qx, qy), qr);
        let mut got: Vec<i64> = tree
            .query_circle(&circle)
            .iter()
            .map(|(_, pk)| pk.as_int().unwrap())
            .collect();
        got.sort_unstable();
        let mut want: Vec<i64> = live
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match p {
                Some(p) if circle.contains_point(p) => Some(i as i64),
                _ => None,
            })
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Upsert/delete through the Dataset keeps a maintained B-tree index
    /// consistent with a from-scratch rebuild.
    #[test]
    fn secondary_index_consistent(ops in prop::collection::vec(
        ((0i64..20), "[a-c]", any::<bool>()), 1..80)
    ) {
        let dt = Datatype::new("T").field("id", TypeTag::Int64).field("grp", TypeTag::String);
        let ds = Dataset::new(
            "T",
            dt,
            "id",
            DatasetConfig {
                lsm: LsmConfig { memtable_budget_bytes: 512, ..LsmConfig::default() },
                skip_validation: false,
            },
        );
        ds.create_index(idea_storage::index::IndexDef::btree("grp_ix", "grp")).unwrap();
        let mut model: BTreeMap<i64, String> = BTreeMap::new();
        for (id, grp, is_delete) in ops {
            if is_delete {
                ds.delete(&Value::Int(id)).unwrap();
                model.remove(&id);
            } else {
                ds.upsert(Value::object([
                    ("id", Value::Int(id)),
                    ("grp", Value::str(grp.clone())),
                ]))
                .unwrap();
                model.insert(id, grp);
            }
        }
        for grp in ["a", "b", "c"] {
            let mut got: Vec<i64> = ds
                .index_lookup("grp_ix", &Value::str(grp))
                .unwrap()
                .iter()
                .map(|r| r.as_object().unwrap().get("id").unwrap().as_int().unwrap())
                .collect();
            got.sort_unstable();
            let mut want: Vec<i64> = model
                .iter()
                .filter(|(_, g)| g.as_str() == grp)
                .map(|(id, _)| *id)
                .collect();
            want.sort_unstable();
            prop_assert_eq!(got, want, "group {}", grp);
        }
    }
}

// ---------------------------------------------------------------------
// Primary-key range scans

/// Keys are stored at even positions only, so odd bounds fall between
/// keys; bounds range a little past both ends of the key space.
const RANGE_KEYS: i64 = 1500;

fn arb_bound() -> impl Strategy<Value = Bound<i64>> {
    prop_oneof![
        1 => Just(Bound::Unbounded),
        3 => (-4i64..2 * RANGE_KEYS + 4).prop_map(Bound::Included),
        3 => (-4i64..2 * RANGE_KEYS + 4).prop_map(Bound::Excluded),
    ]
}

/// One write round: `(key index, delete?)` pairs.
fn arb_round() -> impl Strategy<Value = Vec<(i64, bool)>> {
    prop::collection::vec(
        (0i64..RANGE_KEYS, prop_oneof![3 => Just(false), 1 => Just(true)]),
        0..300,
    )
}

fn bound_key(b: &Bound<i64>) -> Option<i64> {
    match b {
        Bound::Included(k) | Bound::Excluded(k)
            if k % 2 == 0 && (0..2 * RANGE_KEYS).contains(k) =>
        {
            Some(*k)
        }
        _ => None,
    }
}

/// Builds a tree whose snapshot holds several components, sealed
/// memtables still waiting for their flush, and an active memtable;
/// `layout` selects in-memory components or one of the disk layouts.
/// Every key at a bound is written in the dense base component, deleted
/// by a newer component, and the upper one rewritten in the memtables,
/// so tombstones and newer versions shadow older ones exactly at the
/// bounds. Returns the tree, the model, and the snapshot's owners.
fn build_range_tree(
    layout: Option<ComponentLayout>,
    rounds: &[Vec<(i64, bool)>],
    tail: &[(i64, bool)],
    bounds: &[Option<i64>; 2],
) -> (Arc<LsmTree>, BTreeMap<i64, i64>, Arc<MaintenanceScheduler>, Option<TempDir>) {
    let config = LsmConfig {
        memtable_budget_bytes: 1024,
        max_sealed_memtables: 1 << 20,
        merge_policy: MergePolicyConfig::NoMerge,
        durability: DurabilityConfig {
            fsync: FsyncPolicy::Never,
            block_bytes: 512,
            layout: layout.unwrap_or(ComponentLayout::Row),
            ..Default::default()
        },
    };
    let (tree, tmp) = match layout {
        None => (LsmTree::new(config), None),
        Some(_) => {
            let tmp = TempDir::new("range-scan");
            (LsmTree::open_durable(config, tmp.path()).unwrap(), Some(tmp))
        }
    };
    let sched = MaintenanceScheduler::new(1);
    tree.attach_maintenance(Arc::clone(&sched));
    let mut model = BTreeMap::new();
    let mut apply = |tree: &LsmTree, k: i64, delete: bool, stamp: i64| {
        if delete {
            tree.put(Value::Int(k), None).unwrap();
            model.remove(&k);
        } else {
            tree.put(Value::Int(k), Some(Arc::new(Value::Int(stamp)))).unwrap();
            model.insert(k, stamp);
        }
    };
    // Dense base component: more keys than a columnar page holds and
    // many row blocks, so ranges cross block and page boundaries.
    for i in 0..RANGE_KEYS {
        apply(&tree, 2 * i, false, 2 * i);
    }
    tree.flush();
    for (r, round) in rounds.iter().enumerate() {
        let stamp = (r as i64 + 1) * 100_000;
        for &(i, delete) in round {
            apply(&tree, 2 * i, delete, stamp + 2 * i);
        }
        if r == 0 {
            for k in bounds.iter().flatten() {
                apply(&tree, *k, true, 0);
            }
        }
        tree.flush();
    }
    sched.drain();
    // Hold back background flushes: the tail seals memtables that stay
    // queued, so the snapshot merges them beside the active one.
    sched.pause();
    for &(i, delete) in tail {
        apply(&tree, 2 * i, delete, 9_000_000 + 2 * i);
    }
    if let Some(k) = bounds[1] {
        apply(&tree, k, false, 9_900_000 + k);
    }
    (tree, model, sched, tmp)
}

fn check_range_scans(
    layout: Option<ComponentLayout>,
    rounds: Vec<Vec<(i64, bool)>>,
    tail: Vec<(i64, bool)>,
    lo: Bound<i64>,
    hi: Bound<i64>,
) {
    let bounds = [bound_key(&lo), bound_key(&hi)];
    let (tree, model, sched, _tmp) = build_range_tree(layout, &rounds, &tail, &bounds);
    assert!(tree.component_count() >= 2, "base + at least one round of components");
    let snap = tree.snapshot();
    let full: Vec<(Value, Arc<Value>)> = snap.iter().collect();
    let expect: Vec<(Value, Value)> =
        model.iter().map(|(k, v)| (Value::Int(*k), Value::Int(*v))).collect();
    let got_full: Vec<(Value, Value)> =
        full.iter().map(|(k, v)| (k.clone(), (**v).clone())).collect();
    assert_eq!(got_full, expect, "full scan disagrees with the model");

    let random = KeyRange::new(lo.map(Value::Int), hi.map(Value::Int));
    let inverted = KeyRange::new(Bound::Included(Value::Int(100)), Bound::Excluded(Value::Int(50)));
    let empty = KeyRange::new(Bound::Excluded(Value::Int(10)), Bound::Excluded(Value::Int(10)));
    for range in [random, inverted, empty, KeyRange::all(), KeyRange::point(Value::Int(2 * 7))] {
        let got: Vec<(Value, Arc<Value>)> = snap.iter_range(&range).collect();
        let want: Vec<(Value, Arc<Value>)> =
            full.iter().filter(|(k, _)| range.contains(k)).cloned().collect();
        assert_eq!(got, want, "range {range:?} ({layout:?})");
    }
    sched.resume();
    sched.drain();
    sched.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Range scans over in-memory components + sealed + active memtables
    /// equal the filtered full scan.
    #[test]
    fn range_scan_matches_filtered_scan_in_memory(
        rounds in prop::collection::vec(arb_round(), 1..4),
        tail in arb_round(),
        lo in arb_bound(),
        hi in arb_bound(),
    ) {
        check_range_scans(None, rounds, tail, lo, hi);
    }

    /// Same over disk components in the row layout (512-byte blocks).
    #[test]
    fn range_scan_matches_filtered_scan_row_layout(
        rounds in prop::collection::vec(arb_round(), 1..4),
        tail in arb_round(),
        lo in arb_bound(),
        hi in arb_bound(),
    ) {
        check_range_scans(Some(ComponentLayout::Row), rounds, tail, lo, hi);
    }

    /// Same over disk components in the columnar layout (1,024-row pages).
    #[test]
    fn range_scan_matches_filtered_scan_columnar_layout(
        rounds in prop::collection::vec(arb_round(), 1..4),
        tail in arb_round(),
        lo in arb_bound(),
        hi in arb_bound(),
    ) {
        check_range_scans(Some(ComponentLayout::Columnar), rounds, tail, lo, hi);
    }
}
