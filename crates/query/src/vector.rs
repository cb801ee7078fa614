//! Vectorized (batch-at-a-time) execution.
//!
//! `compile` translates an eligible `SelectBlock` + block plan into a
//! [`VecPlan`]: a driver scan with compiled filters, an optional hash
//! join, and a plain or grouped tail. `eval_vectorized` then runs it
//! over [`Batch`]es: columnar scans with selection vectors, predicate
//! kernels for `col <op> literal` comparisons, pre-hashed group-by and
//! join keys, and projection — no per-row [`Env`] allocation anywhere on
//! the hot path.
//!
//! The row-at-a-time interpreter in [`crate::exec`] stays the
//! differential oracle: every observable behavior here (result
//! multisets, unknown propagation, comparison/hash semantics, error
//! conditions, [`crate::exec::ExecStats`] counters on success paths)
//! mirrors it. Blocks the compiler can't translate — UDF calls, field
//! paths deeper than one nesting level, subqueries, LETs, more than two
//! FROM items — return `None` from `compile` and keep the row path.
//!
//! Scans over partitions sealed as a *single columnar component*
//! (`WITH {"layout": "columnar"}`, fully merged, no memtable overlay)
//! skip the per-record transpose entirely: typed page vectors become
//! batch columns by move, footer min/max stats skip pages no
//! `col <op> literal` conjunct can match, and `Arc<Value>` records are
//! only materialized when the plan actually reads whole rows. Mixed
//! states — some partitions sealed, some mid-ingest — take the fast
//! path partition by partition.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::Arc;
use std::time::Instant;

use idea_adm::functions::numeric::{arith, ArithOp};
use idea_adm::functions::{self};
use idea_adm::{Object, Value};
use idea_storage::{KeyRange, PageData, PageField};

use crate::ast::{BinOp, Expr, FromSource, SelectBlock, SelectClause, SelectItem};
use crate::batch::{
    build_batch, infer_types, Batch, Bitmap, ColType, Column, ValueRef, BATCH_ROWS,
};
use crate::error::QueryError;
use crate::exec::{compare_order_keys, dedup_values, derived_name, eval_limit, Env, ExecContext};
use crate::expr::{eval_expr, is_builtin};
use crate::plan::{AccessPath, FromPlan, AGGREGATES};
use crate::Result;

/// Rows sampled from the head of a scan for schema inference.
const SAMPLE_ROWS: usize = 256;

/// A row address: (batch index, row index within the batch).
type Id = (u32, u32);

// ---------------------------------------------------------------------
// Compiled form

/// An expression compiled against the block's FROM sides. `Col` reads a
/// top-level field through the side's column vectors; everything else is
/// scalar structure over those reads.
#[derive(Debug, Clone)]
enum VecExpr {
    /// `alias.field` where `alias` is FROM side `side`.
    Col {
        side: usize,
        col: usize,
    },
    /// `alias` itself — the whole record of side `side`.
    Rec {
        side: usize,
    },
    Lit(Value),
    Param(String),
    Cmp(BinOp, Box<VecExpr>, Box<VecExpr>),
    And(Box<VecExpr>, Box<VecExpr>),
    Or(Box<VecExpr>, Box<VecExpr>),
    Not(Box<VecExpr>),
    Neg(Box<VecExpr>),
    Arith(BinOp, Box<VecExpr>, Box<VecExpr>),
    /// Builtin (never UDF, never aggregate) call.
    Call {
        name: String,
        args: Vec<VecExpr>,
    },
}

/// One scanned side: dataset, its FROM alias, and the top-level fields
/// its compiled expressions read (the batch schema).
#[derive(Debug)]
struct SideSpec {
    ds: String,
    alias: String,
    fields: Vec<String>,
    /// Which fields get typed columns built at scan time. Only fields
    /// the side's *filters* read are eager — filters touch every row,
    /// so the transpose pays for itself. Everything else (projections,
    /// keys, aggregate arguments) is read over *surviving* rows only
    /// and stays `Lazy`, reading straight from the records.
    eager: Vec<bool>,
    /// The plan's primary-key bound on this side's scan, if any.
    key_range: Option<KeyRange>,
}

/// Compiled hash join (second FROM item, `AccessPath::HashBuild`).
#[derive(Debug)]
struct VecJoin {
    side: SideSpec,
    /// Conjuncts over the build side alone.
    self_filter: Vec<VecExpr>,
    build_keys: Vec<VecExpr>,
    probe_keys: Vec<VecExpr>,
    /// Join-loop residual conjuncts (both sides bound).
    residual: Vec<VecExpr>,
    /// Post filters (both sides bound), applied after residuals.
    post: Vec<VecExpr>,
}

/// An aggregate call site, in `subst_aggregates` traversal order.
#[derive(Debug)]
struct AggSpec {
    kind: AggKind,
    /// `None` only for `count(*)`.
    arg: Option<VecExpr>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AggKind {
    CountStar,
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

/// Grouped tail: pre-hashed group keys plus the aggregate call sites of
/// each consuming clause as `[start, end)` ranges into `aggs`.
#[derive(Debug)]
struct GroupedTail {
    keys: Vec<VecExpr>,
    aggs: Vec<AggSpec>,
    select_r: (usize, usize),
    having_r: (usize, usize),
    /// One range per ORDER BY key.
    order_r: Vec<(usize, usize)>,
}

#[derive(Debug)]
enum VecSelect {
    Value(VecExpr),
    Items(Vec<VecItem>),
}

#[derive(Debug)]
enum VecItem {
    /// `alias.*` — splice side `side`'s record fields.
    Star { side: usize, alias: String },
    /// `expr [AS name]` with the output name resolved at compile time.
    Expr { name: String, e: VecExpr },
}

#[derive(Debug)]
enum VecTail {
    Plain { order: Vec<VecExpr>, select: VecSelect },
    Grouped(GroupedTail),
}

/// A fully vectorized plan for one block.
#[derive(Debug)]
pub struct VecPlan {
    driver: SideSpec,
    /// Driver-only filters: self filter, then residual, then (joinless
    /// blocks only) post filters.
    d_filters: Vec<VecExpr>,
    join: Option<VecJoin>,
    tail: VecTail,
}

impl VecPlan {
    /// Whether evaluating the plan ever reads side `side`'s records as
    /// whole values: the alias in scalar position (`VecExpr::Rec`),
    /// `alias.*` projection, or the grouped tail (which binds each
    /// group's first row into an `Env` for finalization). When false, a
    /// columnar scan can emit rowless batches and never materialize
    /// `Arc<Value>` records at all.
    fn needs_rows(&self, side: usize) -> bool {
        if matches!(self.tail, VecTail::Grouped(_)) {
            return true;
        }
        let mut exprs: Vec<&VecExpr> = self.d_filters.iter().collect();
        if let Some(j) = &self.join {
            exprs.extend(&j.self_filter);
            exprs.extend(&j.build_keys);
            exprs.extend(&j.probe_keys);
            exprs.extend(&j.residual);
            exprs.extend(&j.post);
        }
        if let VecTail::Plain { order, select } = &self.tail {
            exprs.extend(order.iter());
            match select {
                VecSelect::Value(e) => exprs.push(e),
                VecSelect::Items(items) => {
                    for it in items {
                        match it {
                            VecItem::Star { side: s, .. } if *s == side => return true,
                            VecItem::Star { .. } => {}
                            VecItem::Expr { e, .. } => exprs.push(e),
                        }
                    }
                }
            }
        }
        exprs.into_iter().any(|e| reads_rec(e, side))
    }
}

/// Whether `e` reads side `side`'s whole record (`VecExpr::Rec`).
fn reads_rec(e: &VecExpr, side: usize) -> bool {
    match e {
        VecExpr::Rec { side: s } => *s == side,
        VecExpr::Col { .. } | VecExpr::Lit(_) | VecExpr::Param(_) => false,
        VecExpr::Cmp(_, a, b)
        | VecExpr::And(a, b)
        | VecExpr::Or(a, b)
        | VecExpr::Arith(_, a, b) => reads_rec(a, side) || reads_rec(b, side),
        VecExpr::Not(a) | VecExpr::Neg(a) => reads_rec(a, side),
        VecExpr::Call { args, .. } => args.iter().any(|a| reads_rec(a, side)),
    }
}

// ---------------------------------------------------------------------
// Compilation

/// Per-side field registry built up while compiling expressions.
struct FieldReg {
    aliases: Vec<String>,
    fields: Vec<Vec<String>>,
}

impl FieldReg {
    fn side_of(&self, name: &str) -> Option<usize> {
        self.aliases.iter().position(|a| a == name)
    }

    fn col(&mut self, side: usize, field: &str) -> usize {
        if let Some(i) = self.fields[side].iter().position(|f| f == field) {
            return i;
        }
        self.fields[side].push(field.to_owned());
        self.fields[side].len() - 1
    }
}

fn is_aggregate_name(name: &str) -> bool {
    AGGREGATES.iter().any(|a| name.eq_ignore_ascii_case(a))
}

/// Compiles `e` against the sides enabled in the `allow` bitmask.
/// `None` means "this block keeps the row path": unresolved identifiers
/// (outer variables), field paths deeper than one nesting level, UDFs,
/// aggregates in scalar position, CASE/IN/EXISTS/subqueries/constructors.
fn compile_expr(e: &Expr, reg: &mut FieldReg, allow: u8) -> Option<VecExpr> {
    match e {
        Expr::Literal(v) => Some(VecExpr::Lit(v.clone())),
        Expr::Param(name) => Some(VecExpr::Param(name.clone())),
        Expr::Ident(name) => {
            let side = reg.side_of(name)?;
            (allow & (1 << side) != 0).then_some(VecExpr::Rec { side })
        }
        Expr::Field(base, f) => {
            let (name, path) = match base.as_ref() {
                Expr::Ident(name) => (name, f.clone()),
                // One nesting level (`alias.a.b`) flattens to the dotted
                // column "a.b"; deeper paths keep the row path.
                Expr::Field(inner, mid) => {
                    let Expr::Ident(name) = inner.as_ref() else { return None };
                    (name, format!("{mid}.{f}"))
                }
                _ => return None,
            };
            let side = reg.side_of(name)?;
            if allow & (1 << side) == 0 {
                return None;
            }
            let col = reg.col(side, &path);
            Some(VecExpr::Col { side, col })
        }
        Expr::Not(b) => Some(VecExpr::Not(Box::new(compile_expr(b, reg, allow)?))),
        Expr::Neg(b) => Some(VecExpr::Neg(Box::new(compile_expr(b, reg, allow)?))),
        Expr::Binary(op, a, b) => {
            let a = Box::new(compile_expr(a, reg, allow)?);
            let b = Box::new(compile_expr(b, reg, allow)?);
            Some(match op {
                BinOp::And => VecExpr::And(a, b),
                BinOp::Or => VecExpr::Or(a, b),
                BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    VecExpr::Cmp(*op, a, b)
                }
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                    VecExpr::Arith(*op, a, b)
                }
            })
        }
        Expr::Call { name, args } => {
            if is_aggregate_name(name) || !is_builtin(name) {
                return None;
            }
            let args =
                args.iter().map(|a| compile_expr(a, reg, allow)).collect::<Option<Vec<_>>>()?;
            Some(VecExpr::Call { name: name.clone(), args })
        }
        _ => None,
    }
}

/// Walks `e` in `subst_aggregates` traversal order, compiling every
/// aggregate call site into `out`. Non-aggregate subtrees are left for
/// row-path evaluation under the group environment, so only the
/// aggregate *arguments* must vectorize.
fn collect_aggs(e: &Expr, reg: &mut FieldReg, allow: u8, out: &mut Vec<AggSpec>) -> Option<()> {
    match e {
        Expr::Call { name, args } if is_aggregate_name(name) => {
            if args.len() != 1 {
                return None;
            }
            if matches!(args[0], Expr::Wildcard) {
                if !name.eq_ignore_ascii_case("count") {
                    return None;
                }
                out.push(AggSpec { kind: AggKind::CountStar, arg: None });
                return Some(());
            }
            let arg = compile_expr(&args[0], reg, allow)?;
            let kind = match name.to_ascii_lowercase().as_str() {
                "count" => AggKind::Count,
                "sum" => AggKind::Sum,
                "avg" => AggKind::Avg,
                "min" => AggKind::Min,
                "max" => AggKind::Max,
                _ => return None,
            };
            out.push(AggSpec { kind, arg: Some(arg) });
            Some(())
        }
        Expr::Call { args, .. } => {
            for a in args {
                collect_aggs(a, reg, allow, out)?;
            }
            Some(())
        }
        Expr::Field(b, _) | Expr::Not(b) | Expr::Neg(b) | Expr::Exists(b) => {
            collect_aggs(b, reg, allow, out)
        }
        Expr::Index(a, b) | Expr::Binary(_, a, b) | Expr::In(a, b) => {
            collect_aggs(a, reg, allow, out)?;
            collect_aggs(b, reg, allow, out)
        }
        Expr::Case { operand, whens, otherwise } => {
            if let Some(op) = operand {
                collect_aggs(op, reg, allow, out)?;
            }
            for (c, v) in whens {
                collect_aggs(c, reg, allow, out)?;
                collect_aggs(v, reg, allow, out)?;
            }
            if let Some(o) = otherwise {
                collect_aggs(o, reg, allow, out)?;
            }
            Some(())
        }
        Expr::Object(fields) => {
            for (_, v) in fields {
                collect_aggs(v, reg, allow, out)?;
            }
            Some(())
        }
        Expr::Array(items) => {
            for v in items {
                collect_aggs(v, reg, allow, out)?;
            }
            Some(())
        }
        Expr::Subquery(_) | Expr::Literal(_) | Expr::Ident(_) | Expr::Param(_) | Expr::Wildcard => {
            Some(())
        }
    }
}

/// Rewrites `e` with each aggregate call site replaced by its computed
/// value, consumed from `slots` in [`collect_aggs`] order. Aggregate
/// errors surface here — exactly where the row path's
/// `eval_with_aggregates` would hit them.
fn replace_aggs(
    e: &Expr,
    slots: &mut std::slice::IterMut<'_, Option<Result<Value>>>,
) -> Result<Expr> {
    Ok(match e {
        Expr::Call { name, .. } if is_aggregate_name(name) => {
            let slot = slots.next().expect("aggregate slot count");
            Expr::Literal(slot.take().expect("aggregate slot consumed once")?)
        }
        Expr::Call { name, args } => Expr::Call {
            name: name.clone(),
            args: args.iter().map(|a| replace_aggs(a, slots)).collect::<Result<Vec<_>>>()?,
        },
        Expr::Field(b, f) => Expr::Field(Box::new(replace_aggs(b, slots)?), f.clone()),
        Expr::Not(b) => Expr::Not(Box::new(replace_aggs(b, slots)?)),
        Expr::Neg(b) => Expr::Neg(Box::new(replace_aggs(b, slots)?)),
        Expr::Exists(b) => Expr::Exists(Box::new(replace_aggs(b, slots)?)),
        Expr::Index(a, b) => {
            Expr::Index(Box::new(replace_aggs(a, slots)?), Box::new(replace_aggs(b, slots)?))
        }
        Expr::Binary(op, a, b) => {
            Expr::Binary(*op, Box::new(replace_aggs(a, slots)?), Box::new(replace_aggs(b, slots)?))
        }
        Expr::In(a, b) => {
            Expr::In(Box::new(replace_aggs(a, slots)?), Box::new(replace_aggs(b, slots)?))
        }
        Expr::Case { operand, whens, otherwise } => Expr::Case {
            operand: match operand {
                Some(op) => Some(Box::new(replace_aggs(op, slots)?)),
                None => None,
            },
            whens: whens
                .iter()
                .map(|(c, v)| Ok((replace_aggs(c, slots)?, replace_aggs(v, slots)?)))
                .collect::<Result<Vec<_>>>()?,
            otherwise: match otherwise {
                Some(o) => Some(Box::new(replace_aggs(o, slots)?)),
                None => None,
            },
        },
        Expr::Object(fields) => Expr::Object(
            fields
                .iter()
                .map(|(k, v)| Ok((k.clone(), replace_aggs(v, slots)?)))
                .collect::<Result<Vec<_>>>()?,
        ),
        Expr::Array(items) => {
            Expr::Array(items.iter().map(|v| replace_aggs(v, slots)).collect::<Result<Vec<_>>>()?)
        }
        Expr::Subquery(_) | Expr::Literal(_) | Expr::Ident(_) | Expr::Param(_) | Expr::Wildcard => {
            e.clone()
        }
    })
}

/// Tries to compile `block` into a [`VecPlan`]. `None` keeps the row
/// path (the caller records that as a fallback when the block *looks*
/// vectorizable, i.e. scans a dataset).
pub(crate) fn compile(
    block: &SelectBlock,
    from_order: &[FromPlan],
    post_filter: &[Expr],
    has_aggregates: bool,
) -> Option<VecPlan> {
    if !block.pre_lets.is_empty() || !block.lets.is_empty() {
        return None;
    }
    if from_order.is_empty() || from_order.len() > 2 {
        return None;
    }

    let fp0 = &from_order[0];
    if !matches!(fp0.path, AccessPath::Materialize) {
        return None;
    }
    let item0 = &block.from[fp0.item_idx];
    let FromSource::Name(ds0) = &item0.source else { return None };

    let mut reg = FieldReg { aliases: vec![item0.alias.clone()], fields: vec![Vec::new()] };

    let join_parts = if from_order.len() == 2 {
        let fp1 = &from_order[1];
        let AccessPath::HashBuild { build_keys, probe_keys } = &fp1.path else { return None };
        let item1 = &block.from[fp1.item_idx];
        let FromSource::Name(ds1) = &item1.source else { return None };
        if item1.alias == item0.alias {
            // Duplicate aliases shadow in the row path; keep it there.
            return None;
        }
        reg.aliases.push(item1.alias.clone());
        reg.fields.push(Vec::new());
        Some((fp1, item1, ds1, build_keys, probe_keys))
    } else {
        None
    };
    let both: u8 = if join_parts.is_some() { 0b11 } else { 0b01 };

    // Driver filters: self filter, then join-loop residual.
    let mut d_filters = Vec::new();
    for f in fp0.self_filter.iter().chain(&fp0.residual) {
        d_filters.push(compile_expr(f, &mut reg, 0b01)?);
    }

    let mut join = match join_parts {
        None => {
            for f in post_filter {
                d_filters.push(compile_expr(f, &mut reg, 0b01)?);
            }
            None
        }
        Some((fp1, item1, ds1, build_keys, probe_keys)) => {
            let mut self_f = Vec::new();
            for f in &fp1.self_filter {
                self_f.push(compile_expr(f, &mut reg, 0b10)?);
            }
            let bk = build_keys
                .iter()
                .map(|k| compile_expr(k, &mut reg, 0b10))
                .collect::<Option<Vec<_>>>()?;
            let pk = probe_keys
                .iter()
                .map(|k| compile_expr(k, &mut reg, 0b01))
                .collect::<Option<Vec<_>>>()?;
            let mut residual = Vec::new();
            for f in &fp1.residual {
                residual.push(compile_expr(f, &mut reg, both)?);
            }
            let mut post = Vec::new();
            for f in post_filter {
                post.push(compile_expr(f, &mut reg, both)?);
            }
            Some(VecJoin {
                side: SideSpec {
                    ds: ds1.clone(),
                    alias: item1.alias.clone(),
                    fields: Vec::new(),
                    eager: Vec::new(),
                    key_range: fp1.key_range.clone(),
                },
                self_filter: self_f,
                build_keys: bk,
                probe_keys: pk,
                residual,
                post,
            })
        }
    };

    let grouped = !block.group_by.is_empty() || has_aggregates;
    let tail = if grouped {
        let mut keys = Vec::new();
        for (e, _) in &block.group_by {
            keys.push(compile_expr(e, &mut reg, both)?);
        }
        let mut aggs = Vec::new();
        match &block.select {
            SelectClause::Value(e) => collect_aggs(e, &mut reg, both, &mut aggs)?,
            SelectClause::Items(items) => {
                for it in items {
                    if let SelectItem::Expr(e, _) = it {
                        collect_aggs(e, &mut reg, both, &mut aggs)?;
                    }
                }
            }
        }
        let select_r = (0, aggs.len());
        let h0 = aggs.len();
        if let Some(h) = &block.having {
            collect_aggs(h, &mut reg, both, &mut aggs)?;
        }
        let having_r = (h0, aggs.len());
        let mut order_r = Vec::new();
        for (e, _) in &block.order_by {
            let s = aggs.len();
            collect_aggs(e, &mut reg, both, &mut aggs)?;
            order_r.push((s, aggs.len()));
        }
        VecTail::Grouped(GroupedTail { keys, aggs, select_r, having_r, order_r })
    } else {
        let mut order = Vec::new();
        for (e, _) in &block.order_by {
            order.push(compile_expr(e, &mut reg, both)?);
        }
        let select = match &block.select {
            SelectClause::Value(e) => VecSelect::Value(compile_expr(e, &mut reg, both)?),
            SelectClause::Items(items) => {
                let mut out = Vec::new();
                for (i, it) in items.iter().enumerate() {
                    out.push(match it {
                        SelectItem::Star(alias) => {
                            let side = reg.side_of(alias)?;
                            VecItem::Star { side, alias: alias.clone() }
                        }
                        SelectItem::Expr(e, alias) => VecItem::Expr {
                            name: alias.clone().unwrap_or_else(|| derived_name(e, i)),
                            e: compile_expr(e, &mut reg, both)?,
                        },
                    });
                }
                VecSelect::Items(out)
            }
        };
        VecTail::Plain { order, select }
    };

    let mut fields = reg.fields;
    if let Some(j) = &mut join {
        j.side.fields = fields.pop().unwrap_or_default();
        j.side.eager = vec![false; j.side.fields.len()];
        for f in &j.self_filter {
            mark_filter_cols(f, 1, &mut j.side.eager);
        }
    }
    let d_fields = fields.pop().unwrap_or_default();
    let mut d_eager = vec![false; d_fields.len()];
    for f in &d_filters {
        mark_filter_cols(f, 0, &mut d_eager);
    }
    Some(VecPlan {
        driver: SideSpec {
            ds: ds0.clone(),
            alias: item0.alias.clone(),
            fields: d_fields,
            eager: d_eager,
            key_range: fp0.key_range.clone(),
        },
        d_filters,
        join,
        tail,
    })
}

/// Marks every column of `side` that `e` reads — used to decide which
/// fields get typed columns (filter-read fields) vs `Lazy` access.
fn mark_filter_cols(e: &VecExpr, side: usize, eager: &mut [bool]) {
    match e {
        VecExpr::Col { side: s, col } => {
            if *s == side {
                eager[*col] = true;
            }
        }
        VecExpr::Rec { .. } | VecExpr::Lit(_) | VecExpr::Param(_) => {}
        VecExpr::Cmp(_, a, b)
        | VecExpr::And(a, b)
        | VecExpr::Or(a, b)
        | VecExpr::Arith(_, a, b) => {
            mark_filter_cols(a, side, eager);
            mark_filter_cols(b, side, eager);
        }
        VecExpr::Not(a) | VecExpr::Neg(a) => mark_filter_cols(a, side, eager),
        VecExpr::Call { args, .. } => {
            for a in args {
                mark_filter_cols(a, side, eager);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Scalar evaluation over batch rows

/// A scalar result: either a borrowed [`ValueRef`] straight out of a
/// column, or an owned [`Value`] produced by arithmetic/builtins.
enum Sv<'a> {
    R(ValueRef<'a>),
    O(Value),
}

impl Sv<'_> {
    #[inline]
    fn vr(&self) -> ValueRef<'_> {
        match self {
            Sv::R(r) => *r,
            Sv::O(v) => ValueRef::of(v),
        }
    }

    fn to_value(&self) -> Value {
        match self {
            Sv::R(r) => r.to_value(),
            Sv::O(v) => v.clone(),
        }
    }
}

/// The current row of each bound side. Stages that only have one side
/// bound (driver filters, build-side filters/keys) leave the other
/// `None`; compiled expressions never read an unbound side.
#[derive(Clone, Copy)]
struct RowCtx<'a> {
    sides: [Option<(&'a Batch, usize)>; 2],
}

impl<'a> RowCtx<'a> {
    fn one(side: usize, b: &'a Batch, row: usize) -> RowCtx<'a> {
        let mut sides = [None, None];
        sides[side] = Some((b, row));
        RowCtx { sides }
    }

    #[inline]
    fn side(&self, i: usize) -> (&'a Batch, usize) {
        self.sides[i].expect("compiled expression read an unbound side")
    }
}

fn vr_type_name(v: ValueRef<'_>) -> &'static str {
    match v {
        ValueRef::Missing => "missing",
        ValueRef::Null => "null",
        ValueRef::Bool(_) => "boolean",
        ValueRef::Int(_) => "int64",
        ValueRef::Dbl(_) => "double",
        ValueRef::Str(_) => "string",
        ValueRef::Ref(r) => r.type_name(),
    }
}

/// Three-valued boolean coercion; mirrors `expr::bool3`.
fn bool3_vr(v: ValueRef<'_>) -> Result<Option<bool>> {
    match v {
        ValueRef::Bool(b) => Ok(Some(b)),
        ValueRef::Missing | ValueRef::Null => Ok(None),
        other => Err(QueryError::Eval(format!(
            "boolean operator expects boolean, got {}",
            vr_type_name(other)
        ))),
    }
}

fn arith_op(op: BinOp) -> ArithOp {
    match op {
        BinOp::Add => ArithOp::Add,
        BinOp::Sub => ArithOp::Sub,
        BinOp::Mul => ArithOp::Mul,
        BinOp::Div => ArithOp::Div,
        BinOp::Mod => ArithOp::Mod,
        _ => unreachable!("non-arithmetic operator"),
    }
}

/// Whether `ord` satisfies comparison `op`; mirrors `expr::eval_binary`.
#[inline]
fn ord_ok(op: BinOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        BinOp::Eq => ord == Equal,
        BinOp::Neq => ord != Equal,
        BinOp::Lt => ord == Less,
        BinOp::Le => ord != Greater,
        BinOp::Gt => ord == Greater,
        BinOp::Ge => ord != Less,
        _ => unreachable!("non-comparison operator"),
    }
}

/// Evaluates a compiled expression for one row. Semantics are bit-for-bit
/// the row path's: Missing-before-Null comparison propagation, AND/OR
/// short circuits (including their error order: the right operand is
/// evaluated before the left's boolean-ness is checked), wrapping int
/// arithmetic, builtin dispatch on materialized arguments.
fn eval_scalar<'a>(e: &'a VecExpr, row: RowCtx<'a>, ctx: &'a ExecContext) -> Result<Sv<'a>> {
    Ok(match e {
        VecExpr::Col { side, col } => {
            let (b, i) = row.side(*side);
            Sv::R(b.get(*col, i))
        }
        VecExpr::Rec { side } => {
            let (b, i) = row.side(*side);
            Sv::R(ValueRef::of(b.rows[i].as_ref()))
        }
        VecExpr::Lit(v) => Sv::R(ValueRef::of(v)),
        VecExpr::Param(name) => match ctx.param(name) {
            Some(v) => Sv::R(ValueRef::of(v)),
            None => return Err(QueryError::Unresolved(format!("parameter ${name}"))),
        },
        VecExpr::Cmp(op, a, b) => {
            let l = eval_scalar(a, row, ctx)?;
            let r = eval_scalar(b, row, ctx)?;
            let (lv, rv) = (l.vr(), r.vr());
            if matches!(lv, ValueRef::Missing) || matches!(rv, ValueRef::Missing) {
                Sv::R(ValueRef::Missing)
            } else if matches!(lv, ValueRef::Null) || matches!(rv, ValueRef::Null) {
                Sv::R(ValueRef::Null)
            } else {
                Sv::R(ValueRef::Bool(ord_ok(*op, lv.total_cmp(rv))))
            }
        }
        VecExpr::And(a, b) => {
            let l = eval_scalar(a, row, ctx)?;
            if matches!(l.vr(), ValueRef::Bool(false)) {
                return Ok(Sv::R(ValueRef::Bool(false)));
            }
            let r = eval_scalar(b, row, ctx)?;
            let (lb, rb) = (bool3_vr(l.vr())?, bool3_vr(r.vr())?);
            Sv::R(match (lb, rb) {
                (Some(true), Some(true)) => ValueRef::Bool(true),
                (_, Some(false)) => ValueRef::Bool(false),
                _ => ValueRef::Null,
            })
        }
        VecExpr::Or(a, b) => {
            let l = eval_scalar(a, row, ctx)?;
            if matches!(l.vr(), ValueRef::Bool(true)) {
                return Ok(Sv::R(ValueRef::Bool(true)));
            }
            let r = eval_scalar(b, row, ctx)?;
            let (lb, rb) = (bool3_vr(l.vr())?, bool3_vr(r.vr())?);
            Sv::R(match (lb, rb) {
                (Some(false), Some(false)) => ValueRef::Bool(false),
                (_, Some(true)) => ValueRef::Bool(true),
                _ => ValueRef::Null,
            })
        }
        VecExpr::Not(inner) => {
            let v = eval_scalar(inner, row, ctx)?;
            match v.vr() {
                ValueRef::Bool(b) => Sv::R(ValueRef::Bool(!b)),
                ValueRef::Missing => Sv::R(ValueRef::Missing),
                ValueRef::Null => Sv::R(ValueRef::Null),
                other => {
                    return Err(QueryError::Eval(format!(
                        "NOT expects boolean, got {}",
                        vr_type_name(other)
                    )))
                }
            }
        }
        VecExpr::Neg(inner) => {
            let v = eval_scalar(inner, row, ctx)?;
            match v.vr() {
                ValueRef::Int(i) => Sv::R(ValueRef::Int(-i)),
                ValueRef::Dbl(d) => Sv::R(ValueRef::Dbl(-d)),
                ValueRef::Missing => Sv::R(ValueRef::Missing),
                ValueRef::Null => Sv::R(ValueRef::Null),
                other => {
                    return Err(QueryError::Eval(format!(
                        "unary '-' expects numeric, got {}",
                        vr_type_name(other)
                    )))
                }
            }
        }
        VecExpr::Arith(op, a, b) => {
            let l = eval_scalar(a, row, ctx)?;
            let r = eval_scalar(b, row, ctx)?;
            if let (ValueRef::Int(x), ValueRef::Int(y)) = (l.vr(), r.vr()) {
                match op {
                    BinOp::Add => return Ok(Sv::R(ValueRef::Int(x.wrapping_add(y)))),
                    BinOp::Sub => return Ok(Sv::R(ValueRef::Int(x.wrapping_sub(y)))),
                    BinOp::Mul => return Ok(Sv::R(ValueRef::Int(x.wrapping_mul(y)))),
                    _ => {}
                }
            }
            Sv::O(arith(arith_op(*op), &l.to_value(), &r.to_value())?)
        }
        VecExpr::Call { name, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                let s = eval_scalar(a, row, ctx)?;
                vals.push(s.to_value());
            }
            Sv::O(functions::dispatch(name, &vals)?)
        }
    })
}

// ---------------------------------------------------------------------
// Filter kernels

/// The operator that keeps `a <op> b` true when its sides swap.
pub(crate) fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// IEEE comparison with the row path's total-order tweak: NaN sorts
/// greatest and equals itself (mirrors `Value::cmp`).
#[inline]
fn cmp_f64(a: f64, b: f64) -> std::cmp::Ordering {
    match a.partial_cmp(&b) {
        Some(o) => o,
        None => {
            if a.is_nan() && b.is_nan() {
                std::cmp::Ordering::Equal
            } else if a.is_nan() {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Less
            }
        }
    }
}

/// Tight typed loop for `column <op> literal` over a selection vector.
/// Only same-type-family pairings run here; everything else (unknown
/// literals, `Lazy` columns, cross-family ranks) uses the scalar path,
/// which gives identical answers either way.
fn cmp_kernel(col: &Column, lit: &Value, op: BinOp, sel: &mut Vec<u32>) -> bool {
    match (col, lit) {
        (Column::I64 { vals, null, missing }, Value::Int(k)) => {
            sel.retain(|&r| {
                let r = r as usize;
                !missing.get(r) && !null.get(r) && ord_ok(op, vals[r].cmp(k))
            });
            true
        }
        (Column::I64 { vals, null, missing }, Value::Double(d)) => {
            sel.retain(|&r| {
                let r = r as usize;
                !missing.get(r) && !null.get(r) && ord_ok(op, cmp_f64(vals[r] as f64, *d))
            });
            true
        }
        (Column::F64 { vals, null, missing }, Value::Int(k)) => {
            sel.retain(|&r| {
                let r = r as usize;
                !missing.get(r) && !null.get(r) && ord_ok(op, cmp_f64(vals[r], *k as f64))
            });
            true
        }
        (Column::F64 { vals, null, missing }, Value::Double(d)) => {
            sel.retain(|&r| {
                let r = r as usize;
                !missing.get(r) && !null.get(r) && ord_ok(op, cmp_f64(vals[r], *d))
            });
            true
        }
        (Column::Bool { vals, null, missing }, Value::Bool(k)) => {
            sel.retain(|&r| {
                let r = r as usize;
                !missing.get(r) && !null.get(r) && ord_ok(op, vals.get(r).cmp(k))
            });
            true
        }
        (Column::Str { offsets, bytes, null, missing }, Value::Str(k)) => {
            sel.retain(|&r| {
                let r = r as usize;
                if missing.get(r) || null.get(r) {
                    return false;
                }
                let (a, b) = (offsets[r] as usize, offsets[r + 1] as usize);
                // The builder only stores valid UTF-8 slices.
                let s = unsafe { std::str::from_utf8_unchecked(&bytes[a..b]) };
                ord_ok(op, s.cmp(k.as_str()))
            });
            true
        }
        _ => false,
    }
}

/// Column-kernel dispatch for one filter over one batch's selection
/// vector. Returns `false` if no kernel applies (caller falls back to
/// the scalar row loop).
fn kernel_filter(f: &VecExpr, b: &Batch, side: usize, sel: &mut Vec<u32>) -> bool {
    match f {
        VecExpr::Cmp(op, x, y) => {
            let (col, lit, op) = match (x.as_ref(), y.as_ref()) {
                (VecExpr::Col { side: s, col }, VecExpr::Lit(v)) if *s == side => (*col, v, *op),
                (VecExpr::Lit(v), VecExpr::Col { side: s, col }) if *s == side => {
                    (*col, v, flip(*op))
                }
                _ => return false,
            };
            cmp_kernel(&b.cols[col], lit, op, sel)
        }
        VecExpr::Call { name, args }
            if name.eq_ignore_ascii_case("contains") && args.len() == 2 =>
        {
            let (VecExpr::Col { side: s, col }, VecExpr::Lit(Value::Str(needle))) =
                (&args[0], &args[1])
            else {
                return false;
            };
            if *s != side {
                return false;
            }
            let Column::Str { offsets, bytes, null, missing } = &b.cols[*col] else {
                return false;
            };
            sel.retain(|&r| {
                let r = r as usize;
                if missing.get(r) || null.get(r) {
                    return false;
                }
                let (a, b) = (offsets[r] as usize, offsets[r + 1] as usize);
                let s = unsafe { std::str::from_utf8_unchecked(&bytes[a..b]) };
                s.contains(needle.as_str())
            });
            true
        }
        _ => false,
    }
}

/// Applies one filter to a batch's selection vector: kernel if possible,
/// scalar row loop otherwise. A row survives iff the predicate is
/// exactly `true` (unknowns filter, as in the row path).
fn filter_pass(
    f: &VecExpr,
    b: &Batch,
    side: usize,
    sel: &mut Vec<u32>,
    ctx: &ExecContext,
) -> Result<()> {
    if kernel_filter(f, b, side, sel) {
        return Ok(());
    }
    let mut out = Vec::with_capacity(sel.len());
    for &r in sel.iter() {
        let rc = RowCtx::one(side, b, r as usize);
        let v = eval_scalar(f, rc, ctx)?;
        if v.vr().is_true() {
            out.push(r);
        }
    }
    *sel = out;
    Ok(())
}

// ---------------------------------------------------------------------
// Scan

/// Scans a dataset into columnar batches: snapshot pinned through the
/// context (so repeated scans in one context see one version). A
/// partition sealed as a single columnar component is sliced
/// page-by-page (no per-record transpose, footer-stat page skipping
/// against `filters`); everything else infers a schema from the head
/// sample and transposes records at batch granularity off the
/// snapshot's `iter_batches`. Bumps batch stats/metrics; the caller
/// adds path-specific counters (`materializations` vs `hash_builds`).
fn scan_batches(
    ctx: &mut ExecContext,
    side: &SideSpec,
    filters: &[VecExpr],
    side_no: usize,
    needs_rows: bool,
) -> Result<(Vec<Batch>, u64)> {
    let snaps = ctx.snapshots_for(&side.ds)?;
    // A key bound seeks the row-path partitions; single-columnar ones
    // keep the page path, whose footer min/max skipping already prunes
    // pages on the same key conjuncts.
    let row_parts = snaps.iter().filter(|s| s.columnar().is_none()).count();
    let range = ctx.scan_range(side.key_range.as_ref(), row_parts);
    // Schema inference only matters for row-path partitions; a fully
    // columnar dataset skips the sampling pass entirely.
    let mut types = if row_parts > 0 {
        let sample: Vec<Arc<Value>> =
            snaps.iter().flat_map(|s| s.iter_range(range)).take(SAMPLE_ROWS).collect();
        let mut types = infer_types(sample.iter().map(|r| r.as_ref()), &side.fields);
        for (t, eager) in types.iter_mut().zip(&side.eager) {
            if !eager {
                *t = ColType::Lazy;
            }
        }
        types
    } else {
        Vec::new()
    };

    let mut batches = Vec::new();
    let mut n = 0u64;
    for s in snaps.iter() {
        if let Some(reader) = s.columnar() {
            let (bs, cn) = columnar_batches(ctx, &reader, side, filters, side_no, needs_rows)?;
            n += cn;
            batches.extend(bs);
        } else {
            for chunk in s.iter_batches_range(range, BATCH_ROWS) {
                n += chunk.len() as u64;
                batches.push(build_batch(chunk, &side.fields, &mut types));
            }
        }
    }
    ctx.stats.batches_built += batches.len() as u64;
    ctx.stats.batch_rows += n;
    if let Some(m) = ctx.metrics.clone() {
        m.counter(idea_obs::names::QUERY_BATCHES_BUILT).add(batches.len() as u64);
        let h = m.histogram(idea_obs::names::QUERY_BATCH_ROWS);
        for b in &batches {
            h.record_nanos(b.len() as u64);
        }
    }
    Ok((batches, n))
}

// ---------------------------------------------------------------------
// Columnar-component fast path

/// A page-skip predicate: a leading `column <op> literal` filter
/// conjunct mapped onto the component's schema.
struct Prune {
    /// Index into the component's footer schema (stats alignment).
    field: usize,
    op: BinOp,
    lit: Value,
}

/// Collects page-skip predicates from the leading run of `Cmp(col, lit)`
/// conjuncts in `filters`. Collection stops at the first conjunct of any
/// other shape: such a conjunct could raise an evaluation error, and
/// removing rows with a *later* predicate would suppress it (the row
/// path only skips later conjuncts for rows an *earlier* one already
/// rejected; pure column/literal comparisons themselves cannot error).
///
/// Returns `(prunes, provably_empty)`; the latter is set when a pruned
/// top-level field is absent from the component's entire schema — the
/// field is then uniformly Missing, the comparison is unknown for every
/// row, and the conjunct filters the whole scan.
fn collect_prunes(
    filters: &[VecExpr],
    side_no: usize,
    fields: &[String],
    file: &idea_storage::persist::ColumnarFile,
) -> (Vec<Prune>, bool) {
    let mut out = Vec::new();
    for f in filters {
        let VecExpr::Cmp(op, a, b) = f else { break };
        let (op, col, lit) = match (a.as_ref(), b.as_ref()) {
            (VecExpr::Col { side, col }, VecExpr::Lit(v)) if *side == side_no => (*op, *col, v),
            (VecExpr::Lit(v), VecExpr::Col { side, col }) if *side == side_no => {
                (flip(*op), *col, v)
            }
            _ => break,
        };
        let name = &fields[col];
        if name.contains('.') {
            // The page schema is top-level only; a dotted leaf can hide
            // inside any object-typed base field.
            continue;
        }
        match file.field_index(name) {
            Some(si) => out.push(Prune { field: si, op, lit: lit.clone() }),
            None => return (Vec::new(), true),
        }
    }
    (out, false)
}

/// Whether any value `v` with `lo <= v <= hi` under the ADM total order
/// can satisfy `v <op> lit`. `lo`/`hi` are a page's min/max over the
/// field's *present* values (both are attained by actual rows); rows
/// where the field is Null/Missing are not covered, but an unknown
/// never satisfies a comparison conjunct, so skipping stays sound.
fn range_may_match(op: BinOp, lo: &Value, hi: &Value, lit: &Value) -> bool {
    use std::cmp::Ordering::*;
    match op {
        BinOp::Eq => lo.cmp(lit) != Greater && hi.cmp(lit) != Less,
        BinOp::Neq => lo.cmp(lit) != Equal || hi.cmp(lit) != Equal,
        BinOp::Lt => lo.cmp(lit) == Less,
        BinOp::Le => lo.cmp(lit) != Greater,
        BinOp::Gt => hi.cmp(lit) == Greater,
        BinOp::Ge => hi.cmp(lit) != Less,
        _ => true,
    }
}

/// Whether any requested top-level field is `Demoted` (mixed or
/// non-scalar values) in this page — reading it then needs the rows.
fn page_demotes(page: &idea_storage::ColumnarPage, fields: &[String]) -> bool {
    page.fields
        .iter()
        .any(|p| matches!(p.data, PageData::Demoted) && fields.contains(&p.name))
}

/// Converts one decoded page into batch columns for the requested
/// fields, by move — typed vectors and string buffers transfer straight
/// into the [`Column`]s. `have_rows` marks that the batch will carry its
/// records, letting demoted and dotted fields fall back to lazy reads.
fn assemble_columns(
    page: idea_storage::ColumnarPage,
    fields: &[String],
    have_rows: bool,
    nrows: usize,
) -> Vec<Column> {
    let mut avail: Vec<Option<PageField>> = page.fields.into_iter().map(Some).collect();
    fields
        .iter()
        .map(|f| {
            if f.contains('.') {
                debug_assert!(have_rows, "dotted field in a rowless batch");
                return Column::Lazy { field: f.clone() };
            }
            let slot = avail.iter().position(|p| p.as_ref().is_some_and(|p| p.name == *f));
            let Some(slot) = slot else {
                // Absent from every record of the page: uniformly
                // Missing (the row evaluator's answer for absent
                // fields). The value lane is never consulted.
                return Column::Bool {
                    vals: Bitmap::zeros(nrows),
                    null: Bitmap::zeros(nrows),
                    missing: Bitmap::ones(nrows),
                };
            };
            let pf = avail[slot].take().expect("page field taken once");
            let null = Bitmap::from_words(pf.null, nrows);
            let missing = Bitmap::from_words(pf.missing, nrows);
            match pf.data {
                PageData::I64(vals) => Column::I64 { vals, null, missing },
                PageData::F64(vals) => Column::F64 { vals, null, missing },
                PageData::Bool(words) => {
                    Column::Bool { vals: Bitmap::from_words(words, nrows), null, missing }
                }
                // The storage decoder validated UTF-8 and offset
                // boundaries, upholding `Column::Str`'s invariant.
                PageData::Str { offsets, bytes } => Column::Str { offsets, bytes, null, missing },
                // Null/Missing-only in this page: the bitmaps cover
                // every row, the (empty) value lane is never consulted.
                PageData::Unknown => Column::Bool { vals: Bitmap::zeros(nrows), null, missing },
                PageData::Demoted => {
                    debug_assert!(have_rows, "demoted field in a rowless batch");
                    Column::Lazy { field: f.clone() }
                }
            }
        })
        .collect()
}

/// Slices a single columnar component into batches, one page each:
/// footer min/max stats skip pages no pruning conjunct can match
/// (before any I/O), typed page vectors move into batch columns with no
/// per-record transpose, and row sections are decoded only where
/// required — tombstoned pages, per-page demotions, dotted fields, or a
/// plan that reads whole records.
fn columnar_batches(
    ctx: &mut ExecContext,
    reader: &idea_storage::ColumnarReader,
    side: &SideSpec,
    filters: &[VecExpr],
    side_no: usize,
    needs_rows: bool,
) -> Result<(Vec<Batch>, u64)> {
    let file = reader.file();
    let (prunes, provably_empty) = collect_prunes(filters, side_no, &side.fields, file);
    // Dotted fields read nested leaves the (top-level) page schema
    // can't answer; their columns stay lazy over the records.
    let must_rows = needs_rows || side.fields.iter().any(|f| f.contains('.'));

    let mut batches = Vec::new();
    let mut n = 0u64;
    let (mut scanned, mut skipped, mut fallbacks) = (0u64, 0u64, 0u64);
    if provably_empty {
        skipped += file.page_count() as u64;
    } else {
        'pages: for page in 0..file.page_count() as u32 {
            for p in &prunes {
                if let Some((lo, hi)) = file.page_stats(page, p.field) {
                    if !range_may_match(p.op, lo, hi, &p.lit) {
                        skipped += 1;
                        continue 'pages;
                    }
                }
            }
            scanned += 1;
            if file.page_tombstones(page) > 0 {
                // Tombstoned pages carry no typed columns; their live
                // rows go through the (always-correct) record builder.
                fallbacks += 1;
                let entries = reader.read_rows(page)?;
                let rows: Vec<Arc<Value>> = entries.iter().filter_map(|e| e.clone()).collect();
                n += rows.len() as u64;
                let mut lazy = vec![ColType::Lazy; side.fields.len()];
                batches.push(build_batch(rows, &side.fields, &mut lazy));
                continue;
            }
            // Projected reads: only the plan's fields are decoded from
            // the page; the rest are byte-skipped (the frame CRC still
            // covers the whole payload, so corruption is still caught).
            let (page_cols, rows) = if must_rows {
                let (c, entries) = reader.read_full_proj(page, &side.fields)?;
                (c, entries.into_iter().map(|e| e.expect("live row in clean page")).collect())
            } else {
                let c = reader.read_columns_proj(page, &side.fields)?;
                if page_demotes(&c, &side.fields) {
                    // Mixed-type page: re-read with the row section so
                    // the demoted fields can read lazily.
                    let (c, entries) = reader.read_full_proj(page, &side.fields)?;
                    (c, entries.into_iter().map(|e| e.expect("live row in clean page")).collect())
                } else {
                    (c, Vec::new())
                }
            };
            let rows: Vec<Arc<Value>> = rows;
            let have_rows = !rows.is_empty();
            if have_rows {
                fallbacks += 1;
            }
            let nrows = page_cols.row_count;
            let cols = assemble_columns(page_cols, &side.fields, have_rows, nrows);
            n += nrows as u64;
            batches.push(Batch::from_columns(rows, cols, nrows));
        }
    }
    ctx.stats.columnar_pages_scanned += scanned;
    ctx.stats.columnar_pages_skipped += skipped;
    if let Some(m) = &ctx.metrics {
        m.counter(idea_obs::names::COLUMNAR_PAGES_SCANNED).add(scanned);
        m.counter(idea_obs::names::COLUMNAR_PAGES_SKIPPED).add(skipped);
        m.counter(idea_obs::names::COLUMNAR_ROW_FALLBACK_PAGES).add(fallbacks);
    }
    Ok((batches, n))
}

// ---------------------------------------------------------------------
// Aggregation state

#[derive(Debug)]
enum AggState {
    CountStar(i64),
    Count(i64),
    Sum {
        n: i64,
        acc: Value,
    },
    Avg {
        n: i64,
        acc: Value,
    },
    Min(Option<Value>),
    Max(Option<Value>),
    /// A deferred error: surfaced only if a consuming clause reads this
    /// slot, exactly like the row path's lazy per-clause aggregation.
    Failed(QueryError),
}

impl AggState {
    fn init(spec: &AggSpec) -> AggState {
        match spec.kind {
            AggKind::CountStar => AggState::CountStar(0),
            AggKind::Count => AggState::Count(0),
            AggKind::Sum => AggState::Sum { n: 0, acc: Value::Int(0) },
            AggKind::Avg => AggState::Avg { n: 0, acc: Value::Int(0) },
            AggKind::Min => AggState::Min(None),
            AggKind::Max => AggState::Max(None),
        }
    }
}

/// Folds one row into an aggregate state. Mirrors `compute_aggregate`:
/// unknown arguments are skipped; sums fold with `arith` in row order
/// starting from `Int(0)`; `min` keeps the first minimum, `max` the
/// last maximum (`Ord::min`/`Ord::max` tie-breaking over an iterator).
fn agg_accum(st: &mut AggState, spec: &AggSpec, rc: RowCtx<'_>, ctx: &ExecContext) {
    if matches!(st, AggState::Failed(_)) {
        return;
    }
    if let AggState::CountStar(n) = st {
        *n += 1;
        return;
    }
    let arg = spec.arg.as_ref().expect("non-count(*) aggregate has an argument");
    let sv = match eval_scalar(arg, rc, ctx) {
        Ok(s) => s,
        Err(e) => {
            *st = AggState::Failed(e);
            return;
        }
    };
    let vr = sv.vr();
    if vr.is_unknown() {
        return;
    }
    let failed: Option<QueryError> = match st {
        AggState::Count(n) => {
            *n += 1;
            None
        }
        AggState::Sum { n, acc } | AggState::Avg { n, acc } => {
            match arith(ArithOp::Add, acc, &sv.to_value()) {
                Ok(v) => {
                    *acc = v;
                    *n += 1;
                    None
                }
                Err(e) => Some(e.into()),
            }
        }
        AggState::Min(cur) => {
            let replace = match cur {
                None => true,
                Some(c) => vr.total_cmp(ValueRef::of(c)) == std::cmp::Ordering::Less,
            };
            if replace {
                *cur = Some(vr.to_value());
            }
            None
        }
        AggState::Max(cur) => {
            let replace = match cur {
                None => true,
                Some(c) => vr.total_cmp(ValueRef::of(c)) != std::cmp::Ordering::Less,
            };
            if replace {
                *cur = Some(vr.to_value());
            }
            None
        }
        AggState::CountStar(_) | AggState::Failed(_) => unreachable!(),
    };
    if let Some(e) = failed {
        *st = AggState::Failed(e);
    }
}

/// Finalizes an aggregate state into the value the row path's
/// `compute_aggregate` would produce for the same group.
fn agg_fin(st: AggState) -> Result<Value> {
    match st {
        AggState::CountStar(n) | AggState::Count(n) => Ok(Value::Int(n)),
        AggState::Sum { n: 0, .. } | AggState::Avg { n: 0, .. } => Ok(Value::Null),
        AggState::Sum { acc, .. } => Ok(acc),
        AggState::Avg { n, acc } => Ok(arith(ArithOp::Div, &acc, &Value::Int(n))?),
        AggState::Min(c) | AggState::Max(c) => Ok(c.unwrap_or(Value::Null)),
        AggState::Failed(e) => Err(e),
    }
}

// ---------------------------------------------------------------------
// Evaluation

fn at(batches: &[Batch], id: Id) -> (&Batch, usize) {
    (&batches[id.0 as usize], id.1 as usize)
}

fn pair_ctx<'a>(
    d_batches: &'a [Batch],
    j_batches: &'a [Batch],
    did: Id,
    jid: Option<Id>,
) -> RowCtx<'a> {
    let mut sides = [Some(at(d_batches, did)), None];
    if let Some(jid) = jid {
        sides[1] = Some(at(j_batches, jid));
    }
    RowCtx { sides }
}

/// Runs a compiled [`VecPlan`]. Returns the block's result rows with the
/// same multiset (and, under ORDER BY, order) the row path produces.
pub(crate) fn eval_vectorized(
    block: &SelectBlock,
    vp: &VecPlan,
    env: &Env,
    ctx: &mut ExecContext,
) -> Result<Vec<Value>> {
    // Driver scan.
    let t = Instant::now();
    let (d_batches, d_rows) = scan_batches(ctx, &vp.driver, &vp.d_filters, 0, vp.needs_rows(0))?;
    ctx.stats.rows_scanned += d_rows;
    ctx.stats.materializations += 1;
    ctx.stats.vec_scan_nanos += t.elapsed().as_nanos() as u64;

    // Filter: per-batch selection vectors.
    let t = Instant::now();
    let mut sel: Vec<Id> = Vec::new();
    for (bi, b) in d_batches.iter().enumerate() {
        if b.is_empty() {
            continue;
        }
        let mut s: Vec<u32> = (0..b.len() as u32).collect();
        for f in &vp.d_filters {
            if s.is_empty() {
                break;
            }
            filter_pass(f, b, 0, &mut s, ctx)?;
        }
        sel.extend(s.into_iter().map(|r| (bi as u32, r)));
    }
    ctx.stats.vec_filter_nanos += t.elapsed().as_nanos() as u64;

    // Join. The build side is scanned only when at least one driver row
    // survived — the row path's per-row `fetch_candidates` laziness.
    let mut j_batches: Vec<Batch> = Vec::new();
    let pairs: Vec<(Id, Option<Id>)> = match &vp.join {
        None => sel.into_iter().map(|id| (id, None)).collect(),
        Some(_) if sel.is_empty() => Vec::new(),
        Some(j) => {
            let t = Instant::now();
            let (jb, j_rows) = scan_batches(ctx, &j.side, &j.self_filter, 1, vp.needs_rows(1))?;
            j_batches = jb;

            // Build: vectorized self-filters, then pre-hashed keys.
            let mut map: HashMap<u64, Vec<Id>> = HashMap::new();
            for (bi, b) in j_batches.iter().enumerate() {
                if b.is_empty() {
                    continue;
                }
                let mut s: Vec<u32> = (0..b.len() as u32).collect();
                for f in &j.self_filter {
                    if s.is_empty() {
                        break;
                    }
                    filter_pass(f, b, 1, &mut s, ctx)?;
                }
                for r in s {
                    let rc = RowCtx::one(1, b, r as usize);
                    let mut svs = Vec::with_capacity(j.build_keys.len());
                    for k in &j.build_keys {
                        svs.push(eval_scalar(k, rc, ctx)?);
                    }
                    // Rows with any unknown key never match (row path
                    // skips them at build time).
                    if svs.iter().any(|s| s.vr().is_unknown()) {
                        continue;
                    }
                    let mut h = DefaultHasher::new();
                    for s in &svs {
                        s.vr().hash_into(&mut h);
                    }
                    map.entry(h.finish()).or_default().push((bi as u32, r));
                }
            }
            ctx.stats.rows_scanned += j_rows;
            ctx.stats.hash_builds += 1;
            ctx.stats.hash_build_rows += j_rows;

            // Probe, in driver-row order; candidates verified with
            // value-equality semantics (hash collisions, NaN, int/double
            // bucket sharing all resolve exactly as `Vec<Value>` keys).
            let mut pairs: Vec<(Id, Option<Id>)> = Vec::new();
            let mut probes = 0u64;
            for (bi, r) in sel {
                let b = &d_batches[bi as usize];
                let rc = RowCtx::one(0, b, r as usize);
                let mut svs = Vec::with_capacity(j.probe_keys.len());
                for k in &j.probe_keys {
                    svs.push(eval_scalar(k, rc, ctx)?);
                }
                probes += 1;
                if svs.iter().any(|s| s.vr().is_unknown()) {
                    continue;
                }
                let mut h = DefaultHasher::new();
                for s in &svs {
                    s.vr().hash_into(&mut h);
                }
                if let Some(cands) = map.get(&h.finish()) {
                    'cand: for &(cbi, cr) in cands {
                        let cb = &j_batches[cbi as usize];
                        let crc = RowCtx::one(1, cb, cr as usize);
                        for (k, sv) in j.build_keys.iter().zip(&svs) {
                            let bv = eval_scalar(k, crc, ctx)?;
                            if !sv.vr().eq_value_semantics(bv.vr()) {
                                continue 'cand;
                            }
                        }
                        pairs.push(((bi, r), Some((cbi, cr))));
                    }
                }
            }
            ctx.stats.hash_probes += probes;

            // Residual then post filters, each as its own pass (the row
            // path's staging).
            for f in j.residual.iter().chain(&j.post) {
                let mut out = Vec::with_capacity(pairs.len());
                for &(d, jj) in &pairs {
                    let rc = pair_ctx(&d_batches, &j_batches, d, jj);
                    let v = eval_scalar(f, rc, ctx)?;
                    if v.vr().is_true() {
                        out.push((d, jj));
                    }
                }
                pairs = out;
            }
            ctx.stats.vec_join_nanos += t.elapsed().as_nanos() as u64;
            pairs
        }
    };

    match &vp.tail {
        VecTail::Grouped(gt) => {
            eval_grouped_vec(block, vp, gt, &d_batches, &j_batches, &pairs, env, ctx)
        }
        VecTail::Plain { order, select } => {
            eval_plain_vec(block, order, select, &d_batches, &j_batches, &pairs, env, ctx)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn eval_plain_vec(
    block: &SelectBlock,
    order: &[VecExpr],
    select: &VecSelect,
    d_batches: &[Batch],
    j_batches: &[Batch],
    pairs: &[(Id, Option<Id>)],
    env: &Env,
    ctx: &mut ExecContext,
) -> Result<Vec<Value>> {
    let t = Instant::now();
    let mut ordered: Vec<(Id, Option<Id>)>;
    let pairs: &[(Id, Option<Id>)] = if order.is_empty() {
        pairs
    } else {
        let mut keyed = Vec::with_capacity(pairs.len());
        for &(d, jj) in pairs {
            let rc = pair_ctx(d_batches, j_batches, d, jj);
            let mut keys = Vec::with_capacity(order.len());
            for k in order {
                let s = eval_scalar(k, rc, ctx)?;
                keys.push(s.to_value());
            }
            keyed.push((keys, (d, jj)));
        }
        keyed.sort_by(|(a, _), (b, _)| compare_order_keys(a, b, &block.order_by));
        ordered = Vec::with_capacity(keyed.len());
        ordered.extend(keyed.into_iter().map(|(_, p)| p));
        &ordered
    };

    let mut out = Vec::with_capacity(pairs.len());
    for &(d, jj) in pairs {
        let rc = pair_ctx(d_batches, j_batches, d, jj);
        out.push(project_pair(select, rc, ctx)?);
    }
    if block.distinct {
        out = dedup_values(out);
    }
    if let Some(limit) = &block.limit {
        let n = eval_limit(limit, env, ctx)?;
        out.truncate(n);
    }
    ctx.stats.vec_merge_nanos += t.elapsed().as_nanos() as u64;
    Ok(out)
}

/// Projects one surviving row/pair; mirrors `exec::project`.
fn project_pair(select: &VecSelect, rc: RowCtx<'_>, ctx: &ExecContext) -> Result<Value> {
    match select {
        VecSelect::Value(e) => {
            let s = eval_scalar(e, rc, ctx)?;
            Ok(s.to_value())
        }
        VecSelect::Items(items) => {
            let mut obj = Object::new();
            for item in items {
                match item {
                    VecItem::Star { side, alias } => {
                        let (b, i) = rc.side(*side);
                        match b.rows[i].as_ref() {
                            Value::Object(o) => obj.extend_from(o),
                            other => {
                                return Err(QueryError::Eval(format!(
                                    "{alias}.* requires an object, got {}",
                                    other.type_name()
                                )))
                            }
                        }
                    }
                    VecItem::Expr { name, e } => {
                        let s = eval_scalar(e, rc, ctx)?;
                        if !matches!(s.vr(), ValueRef::Missing) {
                            obj.set(name.clone(), s.to_value());
                        }
                    }
                }
            }
            Ok(Value::Object(obj))
        }
    }
}

struct VGroup {
    keys: Vec<Value>,
    first: Option<(Id, Option<Id>)>,
    states: Vec<AggState>,
}

#[allow(clippy::too_many_arguments)]
fn eval_grouped_vec(
    block: &SelectBlock,
    vp: &VecPlan,
    gt: &GroupedTail,
    d_batches: &[Batch],
    j_batches: &[Batch],
    pairs: &[(Id, Option<Id>)],
    env: &Env,
    ctx: &mut ExecContext,
) -> Result<Vec<Value>> {
    let t = Instant::now();

    // Group by pre-hashed keys; first-seen slot order (the row path's
    // insertion order). With no GROUP BY there is exactly one implicit
    // group, present even with zero input rows.
    let mut groups: Vec<VGroup> = Vec::new();
    let mut index: HashMap<u64, Vec<usize>> = HashMap::new();
    if gt.keys.is_empty() {
        groups.push(VGroup {
            keys: Vec::new(),
            first: None,
            states: gt.aggs.iter().map(AggState::init).collect(),
        });
    }
    for &(d, jj) in pairs {
        let rc = pair_ctx(d_batches, j_batches, d, jj);
        let slot = if gt.keys.is_empty() {
            0
        } else {
            let mut svs = Vec::with_capacity(gt.keys.len());
            for k in &gt.keys {
                svs.push(eval_scalar(k, rc, ctx)?);
            }
            let mut h = DefaultHasher::new();
            for s in &svs {
                s.vr().hash_into(&mut h);
            }
            let slots = index.entry(h.finish()).or_default();
            let hit = slots.iter().copied().find(|&gi| {
                svs.iter()
                    .zip(&groups[gi].keys)
                    .all(|(sv, kv)| sv.vr().eq_value_semantics(ValueRef::of(kv)))
            });
            match hit {
                Some(gi) => gi,
                None => {
                    groups.push(VGroup {
                        keys: svs.iter().map(|s| s.to_value()).collect(),
                        first: None,
                        states: gt.aggs.iter().map(AggState::init).collect(),
                    });
                    slots.push(groups.len() - 1);
                    groups.len() - 1
                }
            }
        };
        let g = &mut groups[slot];
        if g.first.is_none() {
            g.first = Some((d, jj));
        }
        for (st, spec) in g.states.iter_mut().zip(&gt.aggs) {
            agg_accum(st, spec, rc, ctx);
        }
    }

    // Finalize: per-group environment (outer env + side bindings of the
    // group's first row + group aliases) and deferred aggregate slots.
    struct FGroup {
        genv: Env,
        slots: Vec<Option<Result<Value>>>,
    }
    let mut fgroups: Vec<FGroup> = Vec::with_capacity(groups.len());
    for g in groups {
        let mut genv = match g.first {
            None => env.clone(),
            Some((d, jj)) => {
                let (db, di) = at(d_batches, d);
                let mut e = env.bind(vp.driver.alias.clone(), db.rows[di].clone());
                if let (Some(j), Some(jid)) = (&vp.join, jj) {
                    let (jb, ji) = at(j_batches, jid);
                    e = e.bind(j.side.alias.clone(), jb.rows[ji].clone());
                }
                e
            }
        };
        for ((_, alias), kv) in block.group_by.iter().zip(&g.keys) {
            if let Some(a) = alias {
                genv = genv.bind_value(a.clone(), kv.clone());
            }
        }
        let slots = g.states.into_iter().map(|st| Some(agg_fin(st))).collect();
        fgroups.push(FGroup { genv, slots });
    }
    ctx.stats.vec_agg_nanos += t.elapsed().as_nanos() as u64;

    // HAVING → ORDER BY → LIMIT → projection → DISTINCT, all through
    // the row-path evaluator with aggregate call sites spliced in.
    let t = Instant::now();
    if let Some(h) = &block.having {
        let mut kept = Vec::with_capacity(fgroups.len());
        for mut g in fgroups {
            let rewritten = {
                let mut it = g.slots[gt.having_r.0..gt.having_r.1].iter_mut();
                replace_aggs(h, &mut it)?
            };
            if eval_expr(&rewritten, &g.genv, ctx)?.is_true() {
                kept.push(g);
            }
        }
        fgroups = kept;
    }
    if !block.order_by.is_empty() {
        let mut keyed = Vec::with_capacity(fgroups.len());
        for mut g in fgroups {
            let mut keys = Vec::with_capacity(block.order_by.len());
            for ((e, _), r) in block.order_by.iter().zip(&gt.order_r) {
                let rewritten = {
                    let mut it = g.slots[r.0..r.1].iter_mut();
                    replace_aggs(e, &mut it)?
                };
                keys.push(eval_expr(&rewritten, &g.genv, ctx)?);
            }
            keyed.push((keys, g));
        }
        keyed.sort_by(|(a, _), (b, _)| compare_order_keys(a, b, &block.order_by));
        fgroups = keyed.into_iter().map(|(_, g)| g).collect();
    }
    if let Some(limit) = &block.limit {
        let n = eval_limit(limit, env, ctx)?;
        fgroups.truncate(n);
    }
    let mut out = Vec::with_capacity(fgroups.len());
    for mut g in fgroups {
        let mut it = g.slots[gt.select_r.0..gt.select_r.1].iter_mut();
        out.push(match &block.select {
            SelectClause::Value(e) => {
                let rewritten = replace_aggs(e, &mut it)?;
                eval_expr(&rewritten, &g.genv, ctx)?
            }
            SelectClause::Items(items) => {
                let mut obj = Object::new();
                for (i, item) in items.iter().enumerate() {
                    match item {
                        SelectItem::Star(alias) => {
                            let v = g.genv.get(alias).cloned().ok_or_else(|| {
                                QueryError::Unresolved(format!("variable {alias} in {alias}.*"))
                            })?;
                            match v.as_ref() {
                                Value::Object(o) => obj.extend_from(o),
                                other => {
                                    return Err(QueryError::Eval(format!(
                                        "{alias}.* requires an object, got {}",
                                        other.type_name()
                                    )))
                                }
                            }
                        }
                        SelectItem::Expr(e, alias) => {
                            let name = alias.clone().unwrap_or_else(|| derived_name(e, i));
                            let rewritten = replace_aggs(e, &mut it)?;
                            let v = eval_expr(&rewritten, &g.genv, ctx)?;
                            if !matches!(v, Value::Missing) {
                                obj.set(name, v);
                            }
                        }
                    }
                }
                Value::Object(obj)
            }
        });
    }
    if block.distinct {
        out = dedup_values(out);
    }
    ctx.stats.vec_merge_nanos += t.elapsed().as_nanos() as u64;
    Ok(out)
}
