//! Compiles a declarative [`PipelineSpec`] into a runnable
//! [`FeedSpec`].
//!
//! The spec names everything as data — source, UDF chain, supervision
//! policies, target dataset; this module is the seam between "pipeline
//! as a document" and the Active Feed Manager's machinery. Validation
//! failures stay typed ([`SpecError`] →
//! [`IngestError::Spec`](crate::IngestError) → wire code
//! `SpecInvalid`), and every check runs at load time: a spec that
//! compiles starts, never trips over its own configuration at runtime.

use std::collections::HashMap;

use idea_connect::{CdcConnector, PartitionedLog, PipelineSpec, SourceSpec};

use crate::error::IngestError;
use crate::models::{ComputingModel, FeedSpec, PipelineMode};
use crate::source::SourceFactory;
use crate::Result;

/// Compiles `ps` for a `node_count`-node cluster. `sources` resolves
/// `{"type": "custom", "name": ...}` sources registered through
/// [`IngestionEngine::register_source`](crate::IngestionEngine::register_source).
pub(crate) fn compile(
    ps: &PipelineSpec,
    node_count: usize,
    sources: &HashMap<String, SourceFactory>,
) -> Result<FeedSpec> {
    ps.validate()?;
    let dataset = ps.target.dataset.clone().ok_or_else(|| {
        IngestError::Feed(format!("feed {} is not connected to a dataset", ps.name))
    })?;

    // One intake task per source partition, spread round-robin across
    // the cluster, unless the spec pins intake nodes itself.
    let spread = |parts: usize| (0..parts.max(1)).map(|i| i % node_count.max(1)).collect();
    let mut update_stream = false;
    let (source, default_intake): (SourceFactory, Vec<usize>) = match &ps.source {
        SourceSpec::Logfile { root, partitions } => {
            let parts = match partitions {
                Some(n) => *n,
                // Partition count not pinned: discover it from the log's
                // metadata (the log must already exist).
                None => PartitionedLog::partitions_on_disk(root).map_err(IngestError::from)?,
            };
            (SourceFactory::logfile(root.clone()), spread(parts))
        }
        SourceSpec::Cdc { root, partitions } => {
            update_stream = true;
            let parts = match partitions {
                Some(n) => *n,
                None => CdcConnector::partitions_on_disk(root).map_err(IngestError::from)?,
            };
            (SourceFactory::cdc(root.clone()), spread(parts))
        }
        SourceSpec::Filetail { paths, format, follow } => {
            let parts = paths.len();
            (SourceFactory::file_tail(paths.clone(), *format, *follow), spread(parts))
        }
        SourceSpec::Socket { addrs } => (SourceFactory::socket(addrs.clone()), vec![0]),
        SourceSpec::Custom { name } => {
            let factory = sources.get(name).cloned().ok_or_else(|| {
                IngestError::Feed(format!("unknown source '{name}' for feed {}", ps.name))
            })?;
            (factory, vec![0])
        }
    };

    let mut spec = FeedSpec::new(&ps.name, dataset, source);
    spec.update_stream = update_stream;
    spec.functions = ps.transform.clone();
    spec.intake_nodes = default_intake;
    if let Some(b) = ps.target.batch_size {
        spec.batch_size = b;
    }
    if let Some(m) = &ps.target.model {
        spec.model = match m.as_str() {
            "per-record" => ComputingModel::PerRecord,
            "per-batch" => ComputingModel::PerBatch,
            "stream" => ComputingModel::Stream,
            other => return Err(IngestError::Feed(format!("bad computing-model '{other}'"))),
        };
    }
    if let Some(m) = &ps.target.mode {
        spec.mode = match m.as_str() {
            "static" => PipelineMode::Static,
            "decoupled" | "dynamic" => PipelineMode::Decoupled,
            other => return Err(IngestError::Feed(format!("bad mode '{other}'"))),
        };
    }
    match &ps.target.intake_nodes {
        Some(idea_connect::spec::IntakeNodes::All) => {
            spec.intake_nodes = (0..node_count).collect();
        }
        Some(idea_connect::spec::IntakeNodes::Nodes(nodes)) => {
            spec.intake_nodes = nodes.clone();
        }
        None => {}
    }
    if let Some(p) = ps.target.predeploy {
        spec.predeploy = p;
    }
    let policy_map: HashMap<String, String> = ps.policies.options.iter().cloned().collect();
    apply_supervision_options(&mut spec, &policy_map)?;
    Ok(spec)
}

/// Parses the fault-tolerance feed options into the spec's
/// [`SupervisionSpec`](idea_ft::SupervisionSpec):
///
/// * `on-parse-error` / `on-udf-error` / `on-adapter-error` /
///   `on-storage-error` — one of `abort`, `skip`, `dead-letter`,
///   `retry`, `restart`;
/// * `retry-attempts`, `retry-backoff-ms` — the retry policy used by
///   every stage configured as `retry`;
/// * `dead-letter-dataset` — target dataset for captured records
///   (defaults to `<feed>_dead_letters`);
/// * `max-restarts`, `restart-backoff-ms` — the feed restart budget;
/// * `checkpoint-interval` — commit an ingestion checkpoint every N
///   computing jobs. N counts jobs, not records: a job takes at most
///   `batch-size` records per node and fills only under backlog, so on
///   a slow source the same N commits more often in wall-clock time.
pub(crate) fn apply_supervision_options(
    spec: &mut FeedSpec,
    options: &HashMap<String, String>,
) -> Result<()> {
    use idea_ft::{ErrorPolicy, Fallback, RetryPolicy};

    let parse_u64 = |key: &str| -> Result<Option<u64>> {
        options
            .get(key)
            .map(|v| v.parse().map_err(|_| IngestError::Feed(format!("bad {key} '{v}'"))))
            .transpose()
    };
    let retry_policy = {
        let mut p = RetryPolicy::default();
        if let Some(n) = parse_u64("retry-attempts")? {
            p.max_attempts = n as u32;
        }
        if let Some(ms) = parse_u64("retry-backoff-ms")? {
            p.base = std::time::Duration::from_millis(ms);
        }
        p
    };
    let parse_policy = |key: &str| -> Result<Option<ErrorPolicy>> {
        let Some(v) = options.get(key) else { return Ok(None) };
        let policy = match v.as_str() {
            "abort" => ErrorPolicy::Abort,
            "skip" => ErrorPolicy::Skip,
            "dead-letter" => ErrorPolicy::SkipToDeadLetter,
            "retry" => ErrorPolicy::retry(retry_policy.clone(), Fallback::DeadLetter),
            "restart" => ErrorPolicy::RestartFeed,
            other => return Err(IngestError::Feed(format!("bad {key} '{other}'"))),
        };
        Ok(Some(policy))
    };
    if let Some(p) = parse_policy("on-parse-error")? {
        spec.supervision.parse = p;
    }
    if let Some(p) = parse_policy("on-udf-error")? {
        spec.supervision.enrich = p;
    }
    if let Some(p) = parse_policy("on-adapter-error")? {
        spec.supervision.adapter = p;
    }
    if let Some(p) = parse_policy("on-storage-error")? {
        spec.supervision.storage = p;
    }
    if let Some(ds) = options.get("dead-letter-dataset") {
        spec.supervision.dead_letter_dataset = Some(ds.clone());
    }
    if let Some(n) = parse_u64("max-restarts")? {
        spec.supervision.restart.max_restarts = n as u32;
    }
    if let Some(ms) = parse_u64("restart-backoff-ms")? {
        spec.supervision.restart.backoff.base = std::time::Duration::from_millis(ms);
    }
    if let Some(n) = parse_u64("checkpoint-interval")? {
        spec.supervision.checkpoint_interval = Some(n);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use idea_ft::ErrorPolicy;

    fn compile_doc(doc: &str) -> Result<FeedSpec> {
        let ps = PipelineSpec::parse(doc)?;
        compile(&ps, 2, &HashMap::new())
    }

    #[test]
    fn compiles_a_logfile_pipeline_end_to_end() {
        let tmp = idea_storage::TempDir::new("pipespec");
        let root = tmp.path().join("log");
        PartitionedLog::create(&root, 2).unwrap();
        let doc = format!(
            r#"{{
                "name": "tweets",
                "source": {{"type": "logfile", "path": "{}"}},
                "transform": ["enrich_tweet"],
                "policies": {{"on-parse-error": "dead-letter", "checkpoint-interval": 4}},
                "target": {{"dataset": "TweetsEnriched", "batch-size": 64}}
            }}"#,
            root.display()
        );
        let spec = compile_doc(&doc).unwrap();
        assert_eq!(spec.name, "tweets");
        assert_eq!(spec.dataset, "TweetsEnriched");
        assert_eq!(spec.functions, vec!["enrich_tweet".to_owned()]);
        assert_eq!(spec.batch_size, 64);
        // Two log partitions on a two-node cluster: one intake task each.
        assert_eq!(spec.intake_nodes, vec![0, 1]);
        assert!(!spec.update_stream);
        assert!(matches!(spec.supervision.parse, ErrorPolicy::SkipToDeadLetter));
        assert_eq!(spec.supervision.checkpoint_interval, Some(4));
    }

    #[test]
    fn cdc_sources_mark_the_feed_as_an_update_stream() {
        let tmp = idea_storage::TempDir::new("pipespec");
        let root = tmp.path().join("cdc");
        idea_connect::CdcLog::create(&root, 1).unwrap();
        let doc = format!(
            r#"{{"name": "f", "source": {{"type": "cdc", "path": "{}"}},
                 "target": {{"dataset": "ds"}}}}"#,
            root.display()
        );
        let spec = compile_doc(&doc).unwrap();
        assert!(spec.update_stream);
        assert_eq!(spec.intake_nodes, vec![0]);
    }

    #[test]
    fn invalid_specs_fail_typed_before_any_runtime_work() {
        let err = compile_doc(r#"{"name": "", "source": {"type": "socket", "sockets": "x"}, "target": {"dataset": "d"}}"#)
            .unwrap_err();
        assert!(matches!(err, IngestError::Spec(_)), "got {err:?}");
        let code = crate::Error::from(err).code();
        assert_eq!(code, crate::ErrorCode::SpecInvalid);
    }

    #[test]
    fn unknown_custom_sources_are_rejected_at_compile_time() {
        let err = compile_doc(
            r#"{"name": "f", "source": {"type": "custom", "name": "nope"}, "target": {"dataset": "d"}}"#,
        )
        .unwrap_err();
        assert!(matches!(err, IngestError::Feed(m) if m.contains("unknown source 'nope'")));
    }

    #[test]
    fn missing_dataset_is_a_feed_error_from_options() {
        // DDL path: CREATE FEED stores options, CONNECT supplies the
        // dataset later — compiling before CONNECT must fail cleanly.
        let ps =
            PipelineSpec::from_options("f", &[("sockets".to_owned(), "127.0.0.1:0".to_owned())])
                .unwrap();
        let err = compile(&ps, 1, &HashMap::new()).unwrap_err();
        assert!(matches!(err, IngestError::Feed(m) if m.contains("not connected")));
    }
}
