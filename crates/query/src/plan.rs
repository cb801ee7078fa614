//! Access-method planning for select blocks.
//!
//! This is the part of the query compiler the paper's §4.3 is about:
//! given an enrichment block that joins incoming records with reference
//! datasets, choose — per FROM item — how the reference data is
//! accessed:
//!
//! * **hash build** (the default for equality predicates, §4.3.4 cases
//!   1–2): scan the dataset snapshot once per execution context and
//!   build a hash table keyed on the reference-side expressions; probe
//!   per record. Under the per-batch model the build is refreshed every
//!   computing job — exactly the "intermediate state" the paper keeps
//!   fresh — and rebuilt only when the reference snapshot moved (see
//!   [`PlanCache`](crate::PlanCache));
//! * **index nested-loop** (case 3): probe a live B-tree/primary-key
//!   index (with the `indexnl` hint, as in AsterixDB) or an R-tree for
//!   spatial predicates (chosen automatically when the index exists,
//!   unless `/*+ noindex */` forbids it — the paper's "Naive Nearby
//!   Monuments");
//! * **materialize** (fallback): snapshot the dataset once per context
//!   and filter per record — the plan shape of similarity joins (Fuzzy
//!   Suspects) and region-containment joins that a point R-tree cannot
//!   serve.
//!
//! When self-filter conjuncts of a materialized or hash-built item bound
//! the primary key (`t.id >= 1000 AND t.id < 1100`), its scan carries
//! that [`KeyRange`] and seeks the LSM's sorted runs instead of reading
//! the whole dataset — the primary index's range access, unless
//! `/*+ noindex */` forbids it.
//!
//! Each WHERE conjunct is assigned to exactly one place: a build-side
//! filter, a probe key, a per-item residual, or the post-LET filter.

use std::collections::HashSet;
use std::ops::Bound;

use idea_adm::{TypeTag, Value};
use idea_storage::index::IndexKind;
use idea_storage::KeyRange;

use crate::ast::*;
use crate::catalog::Catalog;
use crate::Result;

/// Which index a probe targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexTarget {
    /// The dataset's primary key.
    Primary,
    /// A named secondary B-tree index.
    Secondary(String),
}

/// How one FROM item is accessed.
#[derive(Debug, Clone)]
pub enum AccessPath {
    /// Source is an expression / in-scope variable; evaluated per outer
    /// row (arrays only).
    Iterate,
    /// Snapshot the dataset once per context; filter in the join loop.
    Materialize,
    /// Build a hash table `build_keys -> rows` once per context; probe
    /// with `probe_keys` per outer row.
    HashBuild { build_keys: Vec<Expr>, probe_keys: Vec<Expr> },
    /// Probe a live equality index per outer row (`/*+ indexnl */`).
    IndexEq { target: IndexTarget, probe_key: Expr },
    /// Probe a live R-tree per outer row with a circle/rectangle/point
    /// region evaluated from `region`.
    IndexSpatial { index: String, region: Expr },
}

/// Plan for one FROM item.
#[derive(Debug, Clone)]
pub struct FromPlan {
    /// Index into `block.from`.
    pub item_idx: usize,
    pub path: AccessPath,
    /// Conjuncts over this item alone — applied while building /
    /// materializing (or as loop filters for `Iterate`/index paths).
    pub self_filter: Vec<Expr>,
    /// Conjuncts applied in the join loop once this item is bound.
    pub residual: Vec<Expr>,
    /// Primary-key bound for a [`AccessPath::Materialize`] or
    /// [`AccessPath::HashBuild`] dataset scan, derived from `self_filter`
    /// (which keeps every conjunct, so the bound only skips rows the
    /// filter would reject). `None` scans the whole dataset.
    pub key_range: Option<KeyRange>,
    /// Whether the build side — `self_filter` and, for a hash build, the
    /// build keys — depends on nothing but the scanned rows: no `$param`,
    /// no subquery, no call that is not a builtin. Only such a build may
    /// be shared across contexts through the [`PlanCache`](crate::PlanCache).
    pub pure_build: bool,
}

/// Plan for a whole block.
#[derive(Debug, Clone)]
pub struct BlockPlan {
    /// FROM items in evaluation order (most selective access first).
    pub from_order: Vec<FromPlan>,
    /// Conjuncts that need LET bindings (applied after LET evaluation).
    pub post_filter: Vec<Expr>,
    /// Identifiers the block reads from its environment (used to decide
    /// whether a subquery is correlated and thus cacheable).
    pub free_idents: Vec<String>,
    /// Whether select/order/having contain aggregate calls (forces
    /// grouped evaluation even without GROUP BY).
    pub has_aggregates: bool,
    /// Compiled vectorized plan, when every expression of the block
    /// vectorizes (the compile-time vectorize-vs-row decision).
    pub vec: Option<std::sync::Arc<crate::vector::VecPlan>>,
    /// True when the block scans a dataset but could not vectorize —
    /// the executor counts these as fallbacks.
    pub vec_fallback: bool,
}

/// Aggregate function names.
pub const AGGREGATES: &[&str] = &["count", "sum", "min", "max", "avg"];

fn is_aggregate_call(name: &str) -> bool {
    AGGREGATES.iter().any(|a| name.eq_ignore_ascii_case(a))
}

/// Whether `e` contains an aggregate call outside nested subqueries.
pub fn has_aggregate(e: &Expr) -> bool {
    match e {
        Expr::Call { name, args } => is_aggregate_call(name) || args.iter().any(has_aggregate),
        Expr::Field(b, _) | Expr::Not(b) | Expr::Neg(b) | Expr::Exists(b) => has_aggregate(b),
        Expr::Index(a, b) | Expr::Binary(_, a, b) | Expr::In(a, b) => {
            has_aggregate(a) || has_aggregate(b)
        }
        Expr::Case { operand, whens, otherwise } => {
            operand.as_deref().is_some_and(has_aggregate)
                || whens.iter().any(|(c, v)| has_aggregate(c) || has_aggregate(v))
                || otherwise.as_deref().is_some_and(has_aggregate)
        }
        Expr::Object(fields) => fields.iter().any(|(_, v)| has_aggregate(v)),
        Expr::Array(items) => items.iter().any(has_aggregate),
        Expr::Subquery(_) | Expr::Literal(_) | Expr::Ident(_) | Expr::Param(_) | Expr::Wildcard => {
            false
        }
    }
}

/// Whether `e` reads nothing but its bound variables: no `$param` (bound
/// per context), no subquery and no non-builtin call (either may read
/// other datasets).
fn row_only(e: &Expr) -> bool {
    match e {
        Expr::Call { name, args } => crate::expr::is_builtin(name) && args.iter().all(row_only),
        Expr::Field(b, _) | Expr::Not(b) | Expr::Neg(b) | Expr::Exists(b) => row_only(b),
        Expr::Index(a, b) | Expr::Binary(_, a, b) | Expr::In(a, b) => row_only(a) && row_only(b),
        Expr::Case { operand, whens, otherwise } => {
            operand.as_deref().is_none_or(row_only)
                && whens.iter().all(|(c, v)| row_only(c) && row_only(v))
                && otherwise.as_deref().is_none_or(row_only)
        }
        Expr::Object(fields) => fields.iter().all(|(_, v)| row_only(v)),
        Expr::Array(items) => items.iter().all(row_only),
        Expr::Literal(_) | Expr::Ident(_) | Expr::Wildcard => true,
        Expr::Subquery(_) | Expr::Param(_) => false,
    }
}

/// Collects identifiers `e` reads that are not bound in `bound`
/// (subquery-aware).
pub fn collect_free_idents(e: &Expr, bound: &HashSet<String>, out: &mut HashSet<String>) {
    match e {
        Expr::Ident(name) => {
            if !bound.contains(name) {
                out.insert(name.clone());
            }
        }
        Expr::Field(b, _) | Expr::Not(b) | Expr::Neg(b) | Expr::Exists(b) => {
            collect_free_idents(b, bound, out)
        }
        Expr::Index(a, b) | Expr::Binary(_, a, b) | Expr::In(a, b) => {
            collect_free_idents(a, bound, out);
            collect_free_idents(b, bound, out);
        }
        Expr::Case { operand, whens, otherwise } => {
            if let Some(o) = operand {
                collect_free_idents(o, bound, out);
            }
            for (c, v) in whens {
                collect_free_idents(c, bound, out);
                collect_free_idents(v, bound, out);
            }
            if let Some(o) = otherwise {
                collect_free_idents(o, bound, out);
            }
        }
        Expr::Call { args, .. } => {
            for a in args {
                collect_free_idents(a, bound, out);
            }
        }
        Expr::Object(fields) => {
            for (_, v) in fields {
                collect_free_idents(v, bound, out);
            }
        }
        Expr::Array(items) => {
            for v in items {
                collect_free_idents(v, bound, out);
            }
        }
        Expr::Subquery(b) => {
            for id in block_free_idents(b) {
                if !bound.contains(&id) {
                    out.insert(id);
                }
            }
        }
        Expr::Literal(_) | Expr::Param(_) | Expr::Wildcard => {}
    }
}

/// Free identifiers of a whole block.
pub fn block_free_idents(block: &SelectBlock) -> HashSet<String> {
    let mut bound: HashSet<String> = HashSet::new();
    let mut out = HashSet::new();
    for (name, e) in &block.pre_lets {
        collect_free_idents(e, &bound, &mut out);
        bound.insert(name.clone());
    }
    for item in &block.from {
        match &item.source {
            FromSource::Name(n) => {
                if !bound.contains(n) {
                    out.insert(n.clone());
                }
            }
            FromSource::Expr(e) => collect_free_idents(e, &bound, &mut out),
        }
        bound.insert(item.alias.clone());
    }
    for (name, e) in &block.lets {
        collect_free_idents(e, &bound, &mut out);
        bound.insert(name.clone());
    }
    if let Some(w) = &block.where_clause {
        collect_free_idents(w, &bound, &mut out);
    }
    for (e, alias) in &block.group_by {
        collect_free_idents(e, &bound, &mut out);
        if let Some(a) = alias {
            bound.insert(a.clone());
        }
    }
    if let Some(h) = &block.having {
        collect_free_idents(h, &bound, &mut out);
    }
    for (e, _) in &block.order_by {
        collect_free_idents(e, &bound, &mut out);
    }
    if let Some(l) = &block.limit {
        collect_free_idents(l, &bound, &mut out);
    }
    match &block.select {
        SelectClause::Value(e) => collect_free_idents(e, &bound, &mut out),
        SelectClause::Items(items) => {
            for item in items {
                match item {
                    SelectItem::Star(a) => {
                        if !bound.contains(a) {
                            out.insert(a.clone());
                        }
                    }
                    SelectItem::Expr(e, _) => collect_free_idents(e, &bound, &mut out),
                }
            }
        }
    }
    out
}

fn split_conjuncts(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Binary(BinOp::And, a, b) => {
            split_conjuncts(a, out);
            split_conjuncts(b, out);
        }
        other => out.push(other.clone()),
    }
}

fn free_of(e: &Expr) -> HashSet<String> {
    let mut out = HashSet::new();
    collect_free_idents(e, &HashSet::new(), &mut out);
    out
}

/// Whether `e` is a field path rooted at `alias`; returns the dotted
/// path below the alias.
fn field_path_on(e: &Expr, alias: &str) -> Option<String> {
    let mut parts = Vec::new();
    let mut cur = e;
    loop {
        match cur {
            Expr::Field(base, f) => {
                parts.push(f.clone());
                cur = base;
            }
            Expr::Ident(n) if n == alias && !parts.is_empty() => {
                parts.reverse();
                return Some(parts.join("."));
            }
            _ => return None,
        }
    }
}

/// Builds the access plan for `block` against `catalog`.
pub fn plan_block(block: &SelectBlock, catalog: &Catalog) -> Result<BlockPlan> {
    let aliases: Vec<String> = block.from.iter().map(|f| f.alias.clone()).collect();
    let let_names: HashSet<String> = block.lets.iter().map(|(n, _)| n.clone()).collect();
    let alias_set: HashSet<String> = aliases.iter().cloned().collect();

    let mut conjuncts = Vec::new();
    if let Some(w) = &block.where_clause {
        split_conjuncts(w, &mut conjuncts);
    }

    // Conjuncts that reference LET variables run after LET evaluation.
    let (post_let, joinable): (Vec<Expr>, Vec<Expr>) = conjuncts
        .into_iter()
        .partition(|c| free_of(c).iter().any(|id| let_names.contains(id)));

    // Choose evaluation order: items with an outer-correlated equality or
    // spatial predicate first (most selective), then the rest in source
    // order. "Outer-correlated" here means: the other side of the
    // predicate mentions no FROM alias at all.
    let mut order: Vec<usize> = (0..block.from.len()).collect();
    let selectivity = |idx: usize| -> u8 {
        let alias = &aliases[idx];
        for c in &joinable {
            if let Some((_, _, other_free)) = match_equality(c, alias) {
                if other_free.is_disjoint(&alias_set) {
                    return 0;
                }
            }
            if let Some((_, region)) = match_spatial(c, alias) {
                if free_of(&region).is_disjoint(&alias_set) {
                    return 1;
                }
            }
        }
        2
    };
    order.sort_by_key(|&i| (selectivity(i), i));

    // Assign each joinable conjunct to the *last* item (in evaluation
    // order) it mentions; conjuncts mentioning no alias also go to
    // post-filter (they are outer-only).
    let mut item_conjuncts: Vec<Vec<Expr>> = vec![Vec::new(); block.from.len()];
    let mut post_filter = post_let;
    'conj: for c in joinable {
        let f = free_of(&c);
        for &idx in order.iter().rev() {
            if f.contains(&aliases[idx]) {
                item_conjuncts[idx].push(c);
                continue 'conj;
            }
        }
        post_filter.push(c);
    }

    // Per item: classify its conjuncts and pick an access path.
    let mut from_order = Vec::with_capacity(order.len());
    for &idx in &order {
        let item = &block.from[idx];
        let alias = &item.alias;
        let mut self_filter = Vec::new();
        let mut eq_pairs: Vec<(Expr, Expr)> = Vec::new(); // (build key on alias, probe key)
        let mut spatial: Option<(String, Expr)> = None; // (point field, region expr)
        let mut residual = Vec::new();

        for c in std::mem::take(&mut item_conjuncts[idx]) {
            let f = free_of(&c);
            let only_self = f.iter().all(|id| id == alias);
            if only_self {
                self_filter.push(c);
                continue;
            }
            if let Some((self_key, other_key, _)) = match_equality(&c, alias) {
                eq_pairs.push((self_key, other_key));
                continue;
            }
            if spatial.is_none() {
                if let Some((field, region)) = match_spatial(&c, alias) {
                    if !free_of(&region).contains(alias) {
                        spatial = Some((field, region));
                        continue;
                    }
                }
            }
            residual.push(c);
        }

        let dataset_name = match &item.source {
            FromSource::Name(n) => Some(n.clone()),
            FromSource::Expr(_) => None,
        };
        let hint = item.hint.as_deref();

        let path = match dataset_name {
            None => {
                // Expression source: filters all become loop residuals.
                residual.append(&mut self_filter);
                residual.extend(
                    eq_pairs
                        .drain(..)
                        .map(|(a, b)| Expr::Binary(BinOp::Eq, Box::new(a), Box::new(b))),
                );
                if let Some((field, region)) = spatial.take() {
                    residual.push(rebuild_spatial(alias, &field, region));
                }
                AccessPath::Iterate
            }
            Some(ds_name) if catalog.dataset(&ds_name).is_ok() => choose_dataset_path(
                catalog,
                &ds_name,
                alias,
                hint,
                &mut self_filter,
                &mut eq_pairs,
                &mut spatial,
                &mut residual,
            ),
            Some(_) => {
                // Unknown name: may be an env variable at run time.
                residual.append(&mut self_filter);
                residual.extend(
                    eq_pairs
                        .drain(..)
                        .map(|(a, b)| Expr::Binary(BinOp::Eq, Box::new(a), Box::new(b))),
                );
                if let Some((field, region)) = spatial.take() {
                    residual.push(rebuild_spatial(alias, &field, region));
                }
                AccessPath::Iterate
            }
        };
        let key_range = match (&path, &item.source) {
            (AccessPath::Materialize | AccessPath::HashBuild { .. }, FromSource::Name(ds_name))
                if hint != Some("noindex") =>
            {
                pk_range(catalog, ds_name, alias, &self_filter)
            }
            _ => None,
        };
        let build_keys = match &path {
            AccessPath::HashBuild { build_keys, .. } => build_keys.as_slice(),
            _ => &[],
        };
        let pure_build = self_filter.iter().chain(build_keys).all(row_only);
        from_order.push(FromPlan {
            item_idx: idx,
            path,
            self_filter,
            residual,
            key_range,
            pure_build,
        });
    }

    let has_aggregates = match &block.select {
        SelectClause::Value(e) => has_aggregate(e),
        SelectClause::Items(items) => items.iter().any(|i| match i {
            SelectItem::Expr(e, _) => has_aggregate(e),
            SelectItem::Star(_) => false,
        }),
    } || block.order_by.iter().any(|(e, _)| has_aggregate(e))
        || block.having.as_ref().is_some_and(has_aggregate);

    let mut free_idents: Vec<String> = block_free_idents(block).into_iter().collect();
    free_idents.sort();

    let vec = crate::vector::compile(block, &from_order, &post_filter, has_aggregates)
        .map(std::sync::Arc::new);
    let vec_fallback = vec.is_none()
        && from_order.first().is_some_and(|fp| {
            matches!(fp.path, AccessPath::Materialize)
                && matches!(block.from[fp.item_idx].source, FromSource::Name(_))
        });

    Ok(BlockPlan { from_order, post_filter, free_idents, has_aggregates, vec, vec_fallback })
}

/// `self_expr = other_expr` with self on exactly one side. Returns
/// (self side, other side, other side's free idents).
fn match_equality(c: &Expr, alias: &str) -> Option<(Expr, Expr, HashSet<String>)> {
    let Expr::Binary(BinOp::Eq, a, b) = c else { return None };
    let (fa, fb) = (free_of(a), free_of(b));
    let a_self = fa.contains(alias);
    let b_self = fb.contains(alias);
    if a_self && !b_self && fa.iter().all(|i| i == alias) {
        Some(((**a).clone(), (**b).clone(), fb))
    } else if b_self && !a_self && fb.iter().all(|i| i == alias) {
        Some(((**b).clone(), (**a).clone(), fa))
    } else {
        None
    }
}

/// `spatial_intersect(alias.<point path>, <region expr without alias>)`
/// in either argument order. Returns (point path, region expr).
///
/// Also recognizes the inverted form the paper's Figures 38–40 use:
/// `spatial_intersect(<outer point>, create_circle(alias.<point path>, r))`
/// — point-in-circle(center, r) is symmetric in its two points, so it
/// rewrites to probing the indexed point with
/// `create_circle(<outer point>, r)`.
fn match_spatial(c: &Expr, alias: &str) -> Option<(String, Expr)> {
    let Expr::Call { name, args } = c else { return None };
    if !name.eq_ignore_ascii_case("spatial_intersect") || args.len() != 2 {
        return None;
    }
    for (x, y) in [(&args[0], &args[1]), (&args[1], &args[0])] {
        if let Some(path) = field_path_on(x, alias) {
            if !free_of(y).contains(alias) {
                return Some((path, y.clone()));
            }
        }
        // Inverted form: x = outer point, y = create_circle(alias.p, r).
        if let Expr::Call { name: cname, args: cargs } = y {
            if cname.eq_ignore_ascii_case("create_circle") && cargs.len() == 2 {
                if let Some(path) = field_path_on(&cargs[0], alias) {
                    let radius = &cargs[1];
                    if !free_of(x).contains(alias) && !free_of(radius).contains(alias) {
                        let region = Expr::Call {
                            name: "create_circle".into(),
                            args: vec![x.clone(), radius.clone()],
                        };
                        return Some((path, region));
                    }
                }
            }
        }
    }
    None
}

fn rebuild_spatial(alias: &str, field: &str, region: Expr) -> Expr {
    let mut point: Expr = Expr::Ident(alias.to_owned());
    for part in field.split('.') {
        point = Expr::Field(Box::new(point), part.to_owned());
    }
    Expr::Call { name: "spatial_intersect".into(), args: vec![point, region] }
}

/// The two key type classes a bound may be derived for. Keys and
/// literals compare under `Value::cmp` across classes too, but a bound
/// is only derived where the literal is the kind of value the key is.
#[derive(Clone, Copy, PartialEq, Eq)]
enum KeyClass {
    Numeric,
    String,
}

fn literal_class(v: &Value) -> Option<KeyClass> {
    match v {
        Value::Int(_) => Some(KeyClass::Numeric),
        Value::Double(d) if d.is_finite() => Some(KeyClass::Numeric),
        Value::Str(_) => Some(KeyClass::String),
        _ => None,
    }
}

/// A literal operand: `Literal`, or unary minus over a numeric literal
/// (the parser reads `-5` as `Neg(5)`). Parameters never count.
fn literal_value(e: &Expr) -> Option<Value> {
    match e {
        Expr::Literal(v) => Some(v.clone()),
        Expr::Neg(inner) => match inner.as_ref() {
            Expr::Literal(Value::Int(i)) => i.checked_neg().map(Value::Int),
            Expr::Literal(Value::Double(d)) => Some(Value::Double(-d)),
            _ => None,
        },
        _ => None,
    }
}

/// Whether evaluating `e` over a bound alias can never raise an error:
/// comparisons of field paths and literals, and AND/OR/NOT over those
/// (comparisons yield booleans or unknowns, which the connectives
/// accept).
fn infallible_predicate(e: &Expr) -> bool {
    let operand = |x: &Expr| literal_value(x).is_some() || is_path(x);
    match e {
        Expr::Binary(
            BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge,
            a,
            b,
        ) => operand(a) && operand(b),
        Expr::Binary(BinOp::And | BinOp::Or, a, b) => {
            infallible_predicate(a) && infallible_predicate(b)
        }
        Expr::Not(a) => infallible_predicate(a),
        _ => false,
    }
}

fn is_path(e: &Expr) -> bool {
    match e {
        Expr::Ident(_) => true,
        Expr::Field(base, _) => is_path(base),
        _ => false,
    }
}

/// `alias.<pk> op literal` (either side, op ∈ `= < <= > >=`) as the key
/// range it admits, when the literal's class is `class`.
fn pk_bound(c: &Expr, alias: &str, pk: &str, class: KeyClass) -> Option<KeyRange> {
    let Expr::Binary(op, a, b) = c else { return None };
    let (op, lit) = if field_path_on(a, alias).as_deref() == Some(pk) {
        (*op, literal_value(b)?)
    } else if field_path_on(b, alias).as_deref() == Some(pk) {
        (crate::vector::flip(*op), literal_value(a)?)
    } else {
        return None;
    };
    if literal_class(&lit)? != class {
        return None;
    }
    Some(match op {
        BinOp::Eq => KeyRange::point(lit),
        BinOp::Lt => KeyRange::new(Bound::Unbounded, Bound::Excluded(lit)),
        BinOp::Le => KeyRange::new(Bound::Unbounded, Bound::Included(lit)),
        BinOp::Gt => KeyRange::new(Bound::Excluded(lit), Bound::Unbounded),
        BinOp::Ge => KeyRange::new(Bound::Included(lit), Bound::Unbounded),
        _ => return None,
    })
}

/// The primary-key range a `Materialize` or `HashBuild` scan of
/// `ds_name` may be bounded by: the intersection of every bounding
/// conjunct in the *leading* run of infallible self-filter conjuncts.
/// Stopping at the first conjunct that could raise an error keeps errors
/// intact: the filter evaluates conjuncts in order, so a row outside the
/// range is rejected by a bounding conjunct before any later conjunct —
/// or a hash build's keys — sees it.
/// `None` when the key's declared type is neither numeric nor string, or
/// nothing bounds it (OR, non-key fields and parameters never do).
fn pk_range(
    catalog: &Catalog,
    ds_name: &str,
    alias: &str,
    self_filter: &[Expr],
) -> Option<KeyRange> {
    let ds = catalog.dataset(ds_name).ok()?;
    let part = &ds.partitions()[0];
    let pk = part.primary_key_field().to_string();
    let class = match part.datatype().fields.iter().find(|f| f.name == pk)?.tag {
        TypeTag::Int64 | TypeTag::Double => KeyClass::Numeric,
        TypeTag::String => KeyClass::String,
        _ => return None,
    };
    let mut range: Option<KeyRange> = None;
    for c in self_filter {
        match pk_bound(c, alias, &pk, class) {
            Some(r) => range = Some(range.unwrap_or_default().intersect(r)),
            None if infallible_predicate(c) => {}
            None => break,
        }
    }
    range
}

#[allow(clippy::too_many_arguments)]
fn choose_dataset_path(
    catalog: &Catalog,
    ds_name: &str,
    alias: &str,
    hint: Option<&str>,
    self_filter: &mut Vec<Expr>,
    eq_pairs: &mut Vec<(Expr, Expr)>,
    spatial: &mut Option<(String, Expr)>,
    residual: &mut Vec<Expr>,
) -> AccessPath {
    let no_index = hint == Some("noindex");
    let force_indexnl = hint == Some("indexnl");

    // Spatial predicate + R-tree on the point field → index nested loop
    // (unless forbidden). A leftover spatial predicate without an index
    // degrades to a residual filter over materialized rows.
    if let Some((field, region)) = spatial.take() {
        if !no_index {
            if let Some(index) = catalog.find_index(ds_name, &field, IndexKind::RTree) {
                // Any equality/self conjuncts become residuals on top of
                // the probe result.
                residual.append(self_filter);
                residual.extend(
                    eq_pairs
                        .drain(..)
                        .map(|(a, b)| Expr::Binary(BinOp::Eq, Box::new(a), Box::new(b))),
                );
                return AccessPath::IndexSpatial { index, region };
            }
        }
        residual.push(rebuild_spatial(alias, &field, region));
    }

    // Equality predicates: hash build by default; `indexnl` probes a
    // live index instead (the AsterixDB hint, §4.3.4 case 3).
    if !eq_pairs.is_empty() {
        if force_indexnl && eq_pairs.len() == 1 && self_filter.is_empty() {
            let (self_key, probe_key) = eq_pairs[0].clone();
            if let Some(field) = field_path_on(&self_key, alias) {
                if let Ok(ds) = catalog.dataset(ds_name) {
                    if ds.partitions()[0].primary_key_field().to_string() == field {
                        eq_pairs.clear();
                        return AccessPath::IndexEq { target: IndexTarget::Primary, probe_key };
                    }
                }
                if let Some(index) = catalog.find_index(ds_name, &field, IndexKind::BTree) {
                    eq_pairs.clear();
                    return AccessPath::IndexEq {
                        target: IndexTarget::Secondary(index),
                        probe_key,
                    };
                }
            }
        }
        let (build_keys, probe_keys) = eq_pairs.drain(..).unzip();
        return AccessPath::HashBuild { build_keys, probe_keys };
    }

    AccessPath::Materialize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn catalog_with_words() -> std::sync::Arc<Catalog> {
        let c = Catalog::new(1);
        c.create_type_from_ddl(
            "WType",
            &[("wid".into(), "int64".into()), ("country".into(), "string".into())],
        )
        .unwrap();
        c.create_dataset("SensitiveWords", "WType", "wid").unwrap();
        c
    }

    #[test]
    fn equality_join_plans_hash_build() {
        let c = catalog_with_words();
        let q = parse_query(
            "SELECT VALUE s FROM SensitiveWords s
             WHERE t.country = s.country AND contains(t.text, s.word)",
        )
        .unwrap();
        let plan = plan_block(&q, &c).unwrap();
        assert_eq!(plan.from_order.len(), 1);
        assert!(matches!(&plan.from_order[0].path, AccessPath::HashBuild { build_keys, .. }
            if build_keys.len() == 1));
        // contains() references both sides → residual.
        assert_eq!(plan.from_order[0].residual.len(), 1);
        assert!(plan.free_idents.contains(&"t".to_owned()));
    }

    #[test]
    fn spatial_with_rtree_plans_index_probe() {
        let c = Catalog::new(1);
        c.create_type_from_ddl(
            "MType",
            &[
                ("monument_id".into(), "string".into()),
                ("monument_location".into(), "point".into()),
            ],
        )
        .unwrap();
        c.create_dataset("monumentList", "MType", "monument_id").unwrap();
        c.create_index("loc_ix", "monumentList", "monument_location", IndexKindAst::RTree)
            .unwrap();
        let q = parse_query(
            "SELECT VALUE m.monument_id FROM monumentList m
             WHERE spatial_intersect(m.monument_location,
                     create_circle(create_point(t.latitude, t.longitude), 1.5))",
        )
        .unwrap();
        let plan = plan_block(&q, &c).unwrap();
        assert!(matches!(&plan.from_order[0].path, AccessPath::IndexSpatial { index, .. }
            if index == "loc_ix"));
    }

    #[test]
    fn noindex_hint_forces_materialize() {
        let c = Catalog::new(1);
        c.create_type_from_ddl(
            "MType",
            &[
                ("monument_id".into(), "string".into()),
                ("monument_location".into(), "point".into()),
            ],
        )
        .unwrap();
        c.create_dataset("monumentList", "MType", "monument_id").unwrap();
        c.create_index("loc_ix", "monumentList", "monument_location", IndexKindAst::RTree)
            .unwrap();
        let q = parse_query(
            "SELECT VALUE m.monument_id FROM monumentList /*+ noindex */ m
             WHERE spatial_intersect(m.monument_location,
                     create_circle(create_point(t.latitude, t.longitude), 1.5))",
        )
        .unwrap();
        let plan = plan_block(&q, &c).unwrap();
        assert!(matches!(&plan.from_order[0].path, AccessPath::Materialize));
        assert_eq!(plan.from_order[0].residual.len(), 1, "spatial check runs as residual");
    }

    #[test]
    fn indexnl_hint_uses_primary_key() {
        let c = catalog_with_words();
        let q = parse_query(
            "SELECT VALUE s FROM SensitiveWords /*+ indexnl */ s WHERE s.wid = t.ref_id",
        )
        .unwrap();
        let plan = plan_block(&q, &c).unwrap();
        assert!(matches!(
            &plan.from_order[0].path,
            AccessPath::IndexEq { target: IndexTarget::Primary, .. }
        ));
    }

    #[test]
    fn self_only_conjunct_is_build_filter() {
        let c = catalog_with_words();
        let q = parse_query(
            r#"SELECT VALUE s FROM SensitiveWords s
               WHERE s.country = t.country AND s.wid > 100"#,
        )
        .unwrap();
        let plan = plan_block(&q, &c).unwrap();
        assert_eq!(plan.from_order[0].self_filter.len(), 1);
        assert!(matches!(&plan.from_order[0].path, AccessPath::HashBuild { .. }));
    }

    #[test]
    fn let_dependent_conjunct_goes_post() {
        let c = catalog_with_words();
        let q = parse_query("SELECT VALUE s FROM SensitiveWords s LET w = s.word WHERE w = t.word")
            .unwrap();
        let plan = plan_block(&q, &c).unwrap();
        assert_eq!(plan.post_filter.len(), 1);
        assert!(matches!(&plan.from_order[0].path, AccessPath::Materialize));
    }

    #[test]
    fn selective_item_ordered_first() {
        // d correlates with the (outer) tweet point; f correlates only
        // with d — so d must be evaluated first.
        let c = Catalog::new(1);
        c.create_type_from_ddl("FType", &[("facility_id".into(), "string".into())])
            .unwrap();
        c.create_type_from_ddl("DType", &[("district_area_id".into(), "string".into())])
            .unwrap();
        c.create_dataset("Facilities", "FType", "facility_id").unwrap();
        c.create_dataset("DistrictAreas", "DType", "district_area_id").unwrap();
        let q = parse_query(
            "SELECT VALUE f FROM Facilities f, DistrictAreas d
             WHERE spatial_intersect(f.facility_location, d.district_area)
               AND spatial_intersect(create_point(t.latitude, t.longitude), d.district_area)",
        )
        .unwrap();
        let plan = plan_block(&q, &c).unwrap();
        assert_eq!(plan.from_order[0].item_idx, 1, "DistrictAreas first");
        assert_eq!(plan.from_order[1].item_idx, 0);
    }

    #[test]
    fn aggregates_detected() {
        let c = catalog_with_words();
        let q = parse_query("SELECT sum(r.population) FROM SensitiveWords r").unwrap();
        assert!(plan_block(&q, &c).unwrap().has_aggregates);
        let q2 = parse_query("SELECT VALUE r.w FROM SensitiveWords r").unwrap();
        assert!(!plan_block(&q2, &c).unwrap().has_aggregates);
    }

    #[test]
    fn inverted_point_in_circle_uses_rtree() {
        // The paper's Figure 38 form: the tweet point inside a circle
        // drawn around the reference point.
        let c = Catalog::new(1);
        c.create_type_from_ddl("FType", &[("facility_id".into(), "string".into())])
            .unwrap();
        c.create_dataset("Facilities", "FType", "facility_id").unwrap();
        c.create_index("floc", "Facilities", "facility_location", IndexKindAst::RTree)
            .unwrap();
        let q = parse_query(
            "SELECT VALUE f FROM Facilities f
             WHERE spatial_intersect(create_point(t.latitude, t.longitude),
                                     create_circle(f.facility_location, 3.0))",
        )
        .unwrap();
        let plan = plan_block(&q, &c).unwrap();
        assert!(matches!(&plan.from_order[0].path, AccessPath::IndexSpatial { index, .. }
            if index == "floc"));
    }

    #[test]
    fn free_idents_subquery_aware() {
        let q = parse_query(
            "SELECT VALUE t.x FROM Xs t WHERE t.c IN (SELECT VALUE s.c FROM Ys s WHERE s.k = outer_var)",
        )
        .unwrap();
        let free = block_free_idents(&q);
        assert!(free.contains("Xs"));
        assert!(free.contains("Ys"));
        assert!(free.contains("outer_var"));
        assert!(!free.contains("t"));
        assert!(!free.contains("s"));
    }
}
