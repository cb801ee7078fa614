//! Well-known metric names shared across crates.
//!
//! Components that record and components that read the same instrument
//! must agree on its name; the query-execution names live here so the
//! query runtime, benchmarks, and tests reference one definition.

/// Partition scans bounded by a primary-key range (one per partition
/// snapshot a range scan seeked), across every executor.
pub const QUERY_SCAN_PK_RANGE: &str = "query/scan/pk_range";
/// Hash-join or materialized build sides an execution context reused
/// from its shared plan cache instead of rebuilding, because the
/// reference snapshot had not moved since the build.
pub const QUERY_BUILD_REUSED: &str = "query/build/reused";
/// Hash build sides an execution context brought forward from its
/// shared plan cache's by the reference writes since that build,
/// instead of rebuilding from a full scan.
pub const QUERY_BUILD_DELTA: &str = "query/build/delta_applied";
/// Columnar batches built by vectorized scans.
pub const QUERY_BATCHES_BUILT: &str = "query/batch/built";
/// Rows-per-batch distribution of vectorized scans (histogram; the
/// recorded "nanos" are row counts).
pub const QUERY_BATCH_ROWS: &str = "query/batch/rows";
/// Vectorizable-looking blocks (dataset scans) that fell back to
/// row-at-a-time evaluation because an expression didn't compile.
pub const QUERY_BATCH_FALLBACKS: &str = "query/batch/fallbacks";
/// Pull-style probe: cached plans (most recently built session on the
/// registry) that compiled a vectorized plan. Weak-ref — reads 0 after
/// the owning session's plan cache is dropped.
pub const QUERY_VEC_PLANS: &str = "query/batch/vec_plans";

// ---- columnar sealed components (`WITH {"layout": "columnar"}`) ------

/// Columnar-component pages sliced straight into batches (or read for
/// their row section) by vectorized scans.
pub const COLUMNAR_PAGES_SCANNED: &str = "storage/columnar/pages_scanned";
/// Columnar-component pages skipped entirely by footer min/max stats
/// against filter predicates (never read from disk).
pub const COLUMNAR_PAGES_SKIPPED: &str = "storage/columnar/pages_skipped";
/// Scanned columnar pages that needed their row section (tombstones,
/// per-page type demotion, or the plan reads whole records).
pub const COLUMNAR_ROW_FALLBACK_PAGES: &str = "storage/columnar/row_fallback_pages";

// ---- background storage maintenance (engine-wide pool) ---------------

/// Flush/merge tasks queued but not yet picked up by a worker.
pub const MAINT_QUEUE_DEPTH: &str = "storage/maintenance/queue_depth";
/// Maintenance tasks submitted to the pool since engine start.
pub const MAINT_SUBMITTED: &str = "storage/maintenance/submitted";
/// Maintenance tasks completed by the pool since engine start.
pub const MAINT_COMPLETED: &str = "storage/maintenance/completed";
/// Completed tasks that were memtable flushes.
pub const MAINT_FLUSH_TASKS: &str = "storage/maintenance/flushes";
/// Completed tasks that were component merges.
pub const MAINT_MERGE_TASKS: &str = "storage/maintenance/merges";
/// Cumulative nanoseconds tasks spent queued before running.
pub const MAINT_QUEUE_WAIT_NANOS: &str = "storage/maintenance/queue_wait_nanos";

// ---- durable storage (WAL, recovery, block cache) --------------------
// Per-dataset probes are published as `storage/<dataset>/<leaf>` with
// these leaf names; the totals below aggregate across a feed's target.

/// WAL records appended (leaf: per-dataset probe suffix).
pub const WAL_APPENDS: &str = "wal/appends";
/// WAL records made durable by a group-commit flush.
pub const WAL_COMMITS: &str = "wal/commits";
/// Group-commit flush rounds (commits / rounds = achieved batch size).
pub const WAL_FLUSH_ROUNDS: &str = "wal/flush_rounds";
/// fsync calls issued by the WAL.
pub const WAL_FSYNCS: &str = "wal/fsyncs";
/// Bytes appended to the WAL.
pub const WAL_BYTES: &str = "wal/bytes";
/// WAL segment files retired after their records were flushed.
pub const WAL_SEGMENTS_RETIRED: &str = "wal/segments_retired";
/// Block-cache hits across a dataset's partitions.
pub const CACHE_HITS: &str = "cache/hits";
/// Block-cache misses across a dataset's partitions.
pub const CACHE_MISSES: &str = "cache/misses";
/// Block reads that failed (I/O or checksum); served as absent.
pub const CACHE_READ_ERRORS: &str = "cache/read_errors";
/// On-disk components loaded by the last recovery.
pub const RECOVERY_COMPONENTS: &str = "recovery/components_loaded";
/// WAL records replayed by the last recovery.
pub const RECOVERY_REPLAYED: &str = "recovery/replayed_records";
/// Torn-tail bytes truncated from the WAL by the last recovery.
pub const RECOVERY_TRUNCATED_BYTES: &str = "recovery/truncated_bytes";
/// Wall-clock milliseconds the last recovery took.
pub const RECOVERY_MILLIS: &str = "recovery/millis";
/// Background durable-storage I/O errors (failed flush/merge writes,
/// manifest saves, WAL retirements) absorbed without data loss.
pub const STORAGE_IO_ERRORS: &str = "io_errors";

// ---- network serving layer (idea-serve) ------------------------------

/// Currently open client connections.
pub const SERVE_CONNECTIONS: &str = "serve/connections";
/// Connections accepted since the server started.
pub const SERVE_CONNECTIONS_TOTAL: &str = "serve/connections_total";
/// Query frames admitted and executed (successfully or not).
pub const SERVE_QUERIES: &str = "serve/queries";
/// Query frames that ended in an error frame (excluding sheds).
pub const SERVE_ERRORS: &str = "serve/errors";
/// Requests shed by the per-tenant token bucket.
pub const SERVE_SHED_RATE_LIMITED: &str = "serve/shed/rate_limited";
/// Requests shed because the admission queue was full or timed out.
pub const SERVE_SHED_OVERLOADED: &str = "serve/shed/overloaded";
/// Requests rejected because the server was draining.
pub const SERVE_SHED_SHUTTING_DOWN: &str = "serve/shed/shutting_down";
/// Queries currently holding an admission permit.
pub const SERVE_ACTIVE_QUERIES: &str = "serve/active_queries";
/// Requests currently waiting in the admission queue.
pub const SERVE_ADMISSION_QUEUE_DEPTH: &str = "serve/admission_queue_depth";
/// End-to-end latency of admitted queries (admission to done frame).
pub const SERVE_LATENCY: &str = "serve/latency";
/// Result rows streamed to clients.
pub const SERVE_ROWS_STREAMED: &str = "serve/rows_streamed";
/// Statement-cache hits (parsed AST reused; enables plan-cache hits).
pub const SERVE_STMT_CACHE_HITS: &str = "serve/stmt_cache/hits";
/// Statement-cache misses (statement parsed fresh).
pub const SERVE_STMT_CACHE_MISSES: &str = "serve/stmt_cache/misses";
