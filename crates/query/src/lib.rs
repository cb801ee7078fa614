//! # idea-query — a SQL++ subset for data enrichment
//!
//! AsterixDB enriches ingested data with SQL++ UDFs (paper §3). This
//! crate provides the SQL++ machinery the ingestion framework needs:
//!
//! * [`parser`] — lexer + recursive-descent parser for the subset used
//!   by the paper's DDL and all eight evaluation UDFs;
//! * [`catalog::Catalog`] — types, (partitioned) datasets, indexes, and
//!   the UDF registry (SQL++ *and* native "Java-style" functions);
//! * [`plan`] — access-method planning: hash-build joins by default,
//!   index-nested-loop probes for spatial predicates (R-tree) and under
//!   the `indexnl` hint, materialize-and-filter as the fallback
//!   (paper §4.3.4's three cases);
//! * [`exec`] — evaluation with an explicit [`exec::ExecContext`] whose
//!   lifetime *is* the computing model: per record (Model 1), per batch
//!   (Model 2), or per feed (Model 3);
//! * [`vector`] — the batch-at-a-time evaluator every block that
//!   compiles to a [`vector::VecPlan`] runs on; the row interpreter in
//!   [`exec`] runs the rest and is the vectorized path's oracle;
//! * [`session::Session`] — the unified entry point: statement
//!   execution (`CREATE TYPE/DATASET/INDEX/FUNCTION`, `DROP
//!   DATASET/INDEX`, `INSERT`/`UPSERT`/`DELETE`, queries) with a shared
//!   plan cache and prepared-statement parameters — built up front via
//!   [`session::SessionConfig`];
//! * [`stream::RowStream`] — the streaming result surface: pull-based
//!   batches from a lazy scan or a re-chunked materialized result.
//!
//! The crate runs queries in the calling thread and does not depend on
//! the `idea-hyracks` job runtime.
//!
//! ```
//! use idea_query::{Catalog, Session};
//!
//! let catalog = Catalog::new(1);
//! let session = Session::new(catalog);
//! session.run_script("
//!     CREATE TYPE TweetType AS OPEN { id: int64, text: string };
//!     CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
//!     INSERT INTO Tweets ([{\"id\": 0, \"text\": \"Let there be light\"}]);
//! ").unwrap();
//! let v = session.query("SELECT VALUE t.text FROM Tweets t").unwrap();
//! assert_eq!(v.as_array().unwrap().len(), 1);
//! ```

pub mod ast;
pub mod batch;
pub mod catalog;
pub mod error;
pub mod exec;
pub mod expr;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod session;
pub mod stream;
pub mod udf;
pub mod vector;

pub use catalog::Catalog;
pub use error::QueryError;
pub use exec::{Env, ExecContext, ExecStats, PlanCache};
pub use expr::{apply_function, eval_expr};
pub use session::{Session, SessionConfig, StatementResult};
pub use stream::RowStream;
pub use udf::{FunctionDef, NativeUdf, NativeUdfFactory};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, QueryError>;
