//! Streaming query results: the pull-based side of the result API.
//!
//! [`Session::query`](crate::Session::query) materializes every result
//! row into one `Value::Array` before returning — fine for a library
//! call, fatal for a server that must fan results out to thousands of
//! sockets. [`Session::query_stream`](crate::Session::query_stream)
//! returns a [`RowStream`] instead: a pull-based iterator over result
//! *batches*, backed by whichever of two sources fits the query:
//!
//! * **Scan** — single-dataset blocks with no ORDER BY / GROUP BY /
//!   DISTINCT / aggregates evaluate lazily: the stream pins the
//!   dataset's snapshots up front and runs the filter/LET/projection
//!   pipeline one batch of input records at a time, so only one output
//!   batch is ever materialized;
//! * **Materialized** — everything else (sorts, groups, joins with
//!   non-streamable plans) falls back to the sequential evaluator and
//!   re-chunks the finished result, so the API is total even when
//!   laziness is impossible.
//!
//! [`RowStream::peak_resident`] reports the largest number of result
//! rows the stream ever held materialized at once — the instrument the
//! serving benchmark uses to assert that streamed queries really do
//! stay O(batch) rather than O(result).

use std::collections::VecDeque;
use std::sync::Arc;

use idea_adm::Value;
use idea_storage::dataset::DatasetSnapshot;

use crate::ast::{FromSource, SelectBlock};
use crate::error::QueryError;
use crate::exec::{
    apply_lets_and_post_filters, eval_limit, join_from, project, BindSlot, Env, ExecContext,
    ExecStats,
};
use crate::expr::eval_expr;
use crate::plan::{AccessPath, BlockPlan};
use crate::Result;

/// Default number of rows per [`RowStream`] batch.
pub const DEFAULT_BATCH_SIZE: usize = 256;

/// Whether `block` can be evaluated lazily by [`ScanStream`]: a single
/// scan FROM item (whole or primary-key bounded) over a catalog
/// dataset, with no operation that
/// needs the whole result set before the first row (ORDER BY, GROUP BY,
/// aggregates, DISTINCT). WHERE, LETs and LIMIT are fine.
pub(crate) fn scan_streamable(block: &SelectBlock, plan: &BlockPlan) -> bool {
    if block.from.len() != 1 || plan.from_order.len() != 1 {
        return false;
    }
    let fp0 = &plan.from_order[0];
    matches!(fp0.path, AccessPath::Materialize)
        && matches!(block.from[fp0.item_idx].source, FromSource::Name(_))
        && block.group_by.is_empty()
        && !plan.has_aggregates
        && block.order_by.is_empty()
        && !block.distinct
}

/// Lazy sequential evaluation of a streamable block: input records are
/// pulled from the pinned snapshots in batches and pushed through the
/// same filter/LET/projection helpers the materializing evaluator uses.
pub(crate) struct ScanStream {
    block: Arc<SelectBlock>,
    ctx: ExecContext,
    /// Outer environment with the block's pre-LETs bound.
    env: Env,
    plan: Arc<BlockPlan>,
    /// Remaining partitions, last first (consumed by `pop`).
    parts: Vec<DatasetSnapshot>,
    /// Current partition's remaining records, last first. Holds `Arc`
    /// pointers into the snapshot, not copies of the records.
    pending: Vec<Arc<Value>>,
    /// Rows the stream may still emit under the block's LIMIT.
    remaining: Option<usize>,
    batch_size: usize,
}

impl ScanStream {
    /// Builds the stream, pinning the dataset's snapshots. The caller
    /// has already checked [`scan_streamable`].
    pub(crate) fn new(
        block: Arc<SelectBlock>,
        mut ctx: ExecContext,
        batch_size: usize,
    ) -> Result<ScanStream> {
        let plan = ctx.plan_for(&block)?;
        let mut env = Env::new();
        for (name, e) in &block.pre_lets {
            let v = eval_expr(e, &env, &mut ctx)?;
            env = env.bind_value(name.clone(), v);
        }
        let remaining = match &block.limit {
            Some(l) => Some(eval_limit(l, &env, &mut ctx)?),
            None => None,
        };
        let fp0 = &plan.from_order[0];
        let FromSource::Name(ds_name) = &block.from[fp0.item_idx].source else {
            return Err(QueryError::Eval("scan stream driver must be a dataset".into()));
        };
        let snaps = ctx.snapshots_for(ds_name)?;
        let mut parts: Vec<DatasetSnapshot> = snaps.iter().cloned().collect();
        parts.reverse();
        Ok(ScanStream { block, ctx, env, plan, parts, pending: Vec::new(), remaining, batch_size })
    }

    /// Pulls the next batch of input records (up to `batch_size`), or
    /// `None` when every partition is exhausted.
    fn next_input(&mut self) -> Option<Vec<Arc<Value>>> {
        loop {
            if self.pending.is_empty() {
                let part = self.parts.pop()?;
                let range = self.ctx.scan_range(self.plan.from_order[0].key_range.as_ref(), 1);
                self.pending = part.iter_range(range).collect();
                self.pending.reverse();
                continue;
            }
            let n = self.pending.len().min(self.batch_size);
            let at = self.pending.len() - n;
            let mut chunk = self.pending.split_off(at);
            chunk.reverse();
            return Some(chunk);
        }
    }

    fn next_batch(&mut self) -> Result<Option<Vec<Value>>> {
        if self.remaining == Some(0) {
            return Ok(None);
        }
        loop {
            let Some(chunk) = self.next_input() else { return Ok(None) };
            let fp0 = &self.plan.from_order[0];
            let item = &self.block.from[fp0.item_idx];
            // Driver filters: self-filters see only the alias, residuals
            // the full row — the same split the materializing path uses.
            // The self-filter environment is one rebindable slot, not a
            // fresh `Env` per record.
            let mut fslot = BindSlot::new(&Env::new(), item.alias.clone());
            let mut rows = Vec::new();
            'rec: for rec in chunk {
                self.ctx.stats.rows_scanned += 1;
                if !fp0.self_filter.is_empty() {
                    let fenv = fslot.set(rec.clone());
                    for f in &fp0.self_filter {
                        if !eval_expr(f, fenv, &mut self.ctx)?.is_true() {
                            continue 'rec;
                        }
                    }
                }
                let cenv = self.env.bind(item.alias.clone(), rec);
                for r in &fp0.residual {
                    if !eval_expr(r, &cenv, &mut self.ctx)?.is_true() {
                        continue 'rec;
                    }
                }
                rows.push(cenv);
            }
            let rows = join_from(&self.block, &self.plan, 1, rows, &mut self.ctx)?;
            let rows = apply_lets_and_post_filters(&self.block, &self.plan, rows, &mut self.ctx)?;
            let mut out = Vec::with_capacity(rows.len());
            for renv in rows {
                out.push(project(&self.block, &renv, &mut self.ctx, None)?);
            }
            if let Some(rem) = &mut self.remaining {
                if out.len() >= *rem {
                    out.truncate(*rem);
                    *rem = 0;
                } else {
                    *rem -= out.len();
                }
            }
            if !out.is_empty() {
                return Ok(Some(out));
            }
            if self.remaining == Some(0) {
                return Ok(None);
            }
        }
    }
}

enum Source {
    /// Fully materialized result, re-chunked for a uniform consumer API.
    Materialized(VecDeque<Value>),
    /// Lazy sequential scan.
    Scan(Box<ScanStream>),
}

/// A pull-based stream of query result rows, consumed in batches.
///
/// Produced by [`Session::query_stream`](crate::Session::query_stream).
/// Also an `Iterator<Item = Result<Value>>` for row-at-a-time consumers
/// (after an `Err` the iterator fuses and yields `None`).
pub struct RowStream {
    source: Source,
    batch_size: usize,
    /// Largest number of result rows ever resident at once.
    peak_resident: usize,
    rows_emitted: usize,
    /// Row-at-a-time buffer for the `Iterator` impl.
    buf: VecDeque<Value>,
    fused: bool,
}

impl std::fmt::Debug for RowStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let source = match &self.source {
            Source::Materialized(_) => "materialized",
            Source::Scan(_) => "scan",
        };
        f.debug_struct("RowStream")
            .field("source", &source)
            .field("batch_size", &self.batch_size)
            .field("peak_resident", &self.peak_resident)
            .field("rows_emitted", &self.rows_emitted)
            .finish()
    }
}

impl RowStream {
    fn new(source: Source, batch_size: usize, initial_resident: usize) -> RowStream {
        RowStream {
            source,
            batch_size: batch_size.max(1),
            peak_resident: initial_resident,
            rows_emitted: 0,
            buf: VecDeque::new(),
            fused: false,
        }
    }

    /// Wraps an already-materialized result (the peak-resident count is
    /// the full row count — nothing was streamed).
    pub(crate) fn materialized(rows: Vec<Value>, batch_size: usize) -> RowStream {
        let n = rows.len();
        RowStream::new(Source::Materialized(rows.into()), batch_size, n)
    }

    pub(crate) fn scan(stream: ScanStream) -> RowStream {
        let batch = stream.batch_size;
        RowStream::new(Source::Scan(Box::new(stream)), batch, 0)
    }

    /// Whether this stream evaluates lazily (a scan source) as opposed
    /// to re-chunking a materialized result.
    pub fn is_streaming(&self) -> bool {
        !matches!(self.source, Source::Materialized(_))
    }

    /// The target number of rows per batch.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The largest number of result rows this stream (and its producer)
    /// ever held materialized at one instant. For a lazy stream this is
    /// bounded by the batch size regardless of result cardinality; for a
    /// materialized fallback it equals the full result count.
    pub fn peak_resident(&self) -> usize {
        self.peak_resident
    }

    /// Rows handed to the consumer so far.
    pub fn rows_emitted(&self) -> usize {
        self.rows_emitted
    }

    /// Execution counters of a lazy sequential scan so far (`None` for
    /// a materialized source, whose statement reports through
    /// [`Session::last_stats`](crate::Session::last_stats)).
    pub fn exec_stats(&self) -> Option<ExecStats> {
        match &self.source {
            Source::Scan(s) => Some(s.ctx.stats),
            Source::Materialized(_) => None,
        }
    }

    /// The next batch of rows, or `None` at end-of-stream.
    pub fn next_batch(&mut self) -> Result<Option<Vec<Value>>> {
        let batch = match &mut self.source {
            Source::Materialized(rows) => {
                if rows.is_empty() {
                    None
                } else {
                    let n = rows.len().min(self.batch_size);
                    Some(rows.drain(..n).collect::<Vec<_>>())
                }
            }
            Source::Scan(s) => s.next_batch()?,
        };
        if let Some(b) = &batch {
            if self.is_streaming() {
                self.peak_resident = self.peak_resident.max(b.len());
            }
            self.rows_emitted += b.len();
        }
        Ok(batch)
    }

    /// Drains the stream into a single `Value::Array` — the value
    /// [`Session::query`](crate::Session::query) would have returned.
    pub fn collect_value(mut self) -> Result<Value> {
        let mut rows = Vec::new();
        while let Some(mut b) = self.next_batch()? {
            rows.append(&mut b);
        }
        Ok(Value::Array(rows))
    }
}

impl Iterator for RowStream {
    type Item = Result<Value>;

    fn next(&mut self) -> Option<Result<Value>> {
        if self.fused {
            return None;
        }
        while self.buf.is_empty() {
            match self.next_batch() {
                Ok(Some(b)) => self.buf = b.into(),
                Ok(None) => return None,
                Err(e) => {
                    self.fused = true;
                    return Some(Err(e));
                }
            }
        }
        self.buf.pop_front().map(Ok)
    }
}
