//! Declarative pipeline specs.
//!
//! A whole ingestion pipeline — source → UDF chain → supervision
//! policies → target dataset — declared as data:
//!
//! ```json
//! {
//!   "name": "tweets",
//!   "description": "enrich tweets from the partitioned log",
//!   "source": {"type": "logfile", "path": "/data/tweets-log"},
//!   "transform": ["enrich_tweet"],
//!   "policies": {"on-parse-error": "dead-letter", "checkpoint-interval": 8},
//!   "target": {"dataset": "Tweets", "batch-size": 420}
//! }
//! ```
//!
//! [`PipelineSpec::parse`] loads that document; the same validation
//! backs the `CREATE FEED … WITH { … }` DDL path through
//! [`PipelineSpec::from_options`]. Everything is checked **at load
//! time** with a typed [`SpecError`] — unknown fields, bad types,
//! out-of-range values and unknown enum tokens are all rejected before
//! a pipeline ever starts; a spec that loads cleanly cannot fail on
//! spec grounds at runtime. `idea-core` compiles a loaded spec into its
//! executable `FeedSpec`.
//!
//! `batch-size` is the most records each node's computing job takes;
//! jobs run full only while the intake is backlogged. So
//! `checkpoint-interval`, which counts computing jobs rather than
//! records, commits more often in wall-clock time on a slow source,
//! whose jobs are small and frequent.

use std::collections::BTreeMap;
use std::path::PathBuf;

use idea_adm::{json, Object, Value};

/// A spec rejected at load time. Every variant names the offending
/// field with its dotted path, so DDL users can see exactly which
/// option is wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The document is not parseable JSON.
    Parse(String),
    /// A required field is absent.
    Missing(String),
    /// A field holds the wrong type.
    BadType { field: String, expected: &'static str },
    /// A field holds a well-typed but invalid value.
    BadValue { field: String, message: String },
    /// A field no part of the spec language defines (typo guard).
    UnknownField(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Parse(m) => write!(f, "spec is not valid JSON: {m}"),
            SpecError::Missing(field) => write!(f, "spec is missing required field '{field}'"),
            SpecError::BadType { field, expected } => {
                write!(f, "spec field '{field}' must be {expected}")
            }
            SpecError::BadValue { field, message } => {
                write!(f, "spec field '{field}' is invalid: {message}")
            }
            SpecError::UnknownField(field) => write!(f, "spec has unknown field '{field}'"),
        }
    }
}

impl std::error::Error for SpecError {}

type Result<T> = std::result::Result<T, SpecError>;

/// File format of a [`SourceSpec::Filetail`] source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileFormat {
    /// One JSON object per line.
    Json,
    /// Header line + comma-separated rows, converted to JSON objects.
    Csv,
}

/// The declared source of a pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceSpec {
    /// File-backed partitioned log (see [`crate::PartitionedLog`]).
    Logfile {
        root: PathBuf,
        /// Expected partition count; when absent, discovered from the
        /// on-disk log at compile time.
        partitions: Option<usize>,
    },
    /// CSV/JSON file tailing, one file per intake partition.
    Filetail { paths: Vec<PathBuf>, format: FileFormat, follow: bool },
    /// CDC update stream (upsert/delete envelopes over a partitioned
    /// log).
    Cdc { root: PathBuf, partitions: Option<usize> },
    /// Line-oriented TCP socket server(s), the paper's
    /// `socket_adapter`.
    Socket { addrs: Vec<String> },
    /// A connector registered programmatically under `name`.
    Custom { name: String },
}

/// Intake-node placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntakeNodes {
    /// One intake task per cluster node (the paper's "balanced"
    /// layout).
    All,
    /// Explicit node list.
    Nodes(Vec<usize>),
}

/// Where the pipeline lands and how it batches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TargetSpec {
    /// Target dataset. Required in standalone spec documents; the DDL
    /// path may leave it to `CONNECT FEED … TO DATASET …`.
    pub dataset: Option<String>,
    pub batch_size: Option<usize>,
    /// `per-record` | `per-batch` | `stream`.
    pub model: Option<String>,
    /// `static` | `decoupled` (alias `dynamic`).
    pub mode: Option<String>,
    pub intake_nodes: Option<IntakeNodes>,
    pub predeploy: Option<bool>,
}

/// Supervision/fault-tolerance policy options, held as validated
/// key/value pairs (the executable form reuses the engine's existing
/// option machinery).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PolicySpec {
    pub options: Vec<(String, String)>,
}

impl PolicySpec {
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Every key the `policies` section accepts.
pub const ALLOWED_POLICY_KEYS: &[&str] = &[
    "on-parse-error",
    "on-udf-error",
    "on-adapter-error",
    "on-storage-error",
    "retry-attempts",
    "retry-backoff-ms",
    "dead-letter-dataset",
    "max-restarts",
    "restart-backoff-ms",
    "checkpoint-interval",
];

const POLICY_TOKENS: &[&str] = &["abort", "skip", "dead-letter", "retry", "restart"];

/// A validated, declarative pipeline: source → transform chain →
/// policies → target.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSpec {
    pub name: String,
    pub description: Option<String>,
    pub source: SourceSpec,
    /// Enrichment UDFs, applied in order.
    pub transform: Vec<String>,
    pub policies: PolicySpec,
    pub target: TargetSpec,
}

impl PipelineSpec {
    /// Parses and validates a standalone spec document (JSON). The
    /// document must name its target dataset.
    pub fn parse(text: &str) -> Result<PipelineSpec> {
        let value = json::parse(text.as_bytes()).map_err(|e| SpecError::Parse(e.to_string()))?;
        let spec = Self::from_value(&value)?;
        if spec.target.dataset.is_none() {
            return Err(SpecError::Missing("target.dataset".into()));
        }
        Ok(spec)
    }

    /// Builds a spec from an already-parsed JSON value (dataset may be
    /// supplied later, e.g. by `CONNECT FEED`).
    pub fn from_value(value: &Value) -> Result<PipelineSpec> {
        let obj = value
            .as_object()
            .ok_or(SpecError::BadType { field: "<root>".into(), expected: "an object" })?;
        check_fields(
            obj,
            "",
            &["name", "description", "source", "transform", "policies", "target"],
        )?;
        let name = require_str(obj, "", "name")?;
        if name.is_empty() {
            return Err(bad_value("name", "must not be empty"));
        }
        let description = opt_str(obj, "", "description")?;
        let source_val = obj.get("source").ok_or(SpecError::Missing("source".into()))?;
        let source = parse_source(source_val)?;
        let transform = parse_transform(obj.get("transform"))?;
        let policies = match obj.get("policies") {
            Some(v) => parse_policies(v)?,
            None => PolicySpec::default(),
        };
        let target = match obj.get("target") {
            Some(v) => parse_target(v)?,
            None => TargetSpec::default(),
        };
        let spec = PipelineSpec { name, description, source, transform, policies, target };
        spec.validate()?;
        Ok(spec)
    }

    /// Builds a spec from flat DDL options (`CREATE FEED <name> WITH
    /// { … }`). Accepts both the legacy flat keys (`adapter-name`,
    /// `sockets`, `batch-size`, policy keys, …) and dotted spec paths
    /// (`source.type`, `target.batch-size`, …) — nested DDL option
    /// blocks arrive here already flattened to dotted keys.
    pub fn from_options(name: &str, options: &[(String, String)]) -> Result<PipelineSpec> {
        let mut source: Vec<(String, Value)> = Vec::new();
        let mut target: Vec<(String, Value)> = Vec::new();
        let mut policies: Vec<(String, Value)> = Vec::new();
        let mut transform: Option<Value> = None;
        let mut description = None;
        let sv = |v: &str| Value::str(v);
        for (key, value) in options {
            match key.as_str() {
                // Legacy flat keys, mapped to their spec locations.
                "adapter-name" => {
                    if value == "socket_adapter" {
                        source.push(("type".into(), sv("socket")));
                    } else {
                        source.push(("type".into(), sv("custom")));
                        source.push(("name".into(), sv(value)));
                    }
                }
                "sockets" => source.push(("sockets".into(), sv(value))),
                // Decorative AsterixDB DDL keys (Figure 4): the record
                // type is checked against the dataset at CONNECT time and
                // the reproduction's wire format is always JSON lines, so
                // these configure nothing here — but they are valid DDL.
                "type-name" | "format" | "address-type" => {}
                "batch-size" | "computing-model" | "mode" | "intake-nodes" | "predeploy" => {
                    target.push((key.clone(), sv(value)));
                }
                "dataset" => target.push(("dataset".into(), sv(value))),
                "transform" | "function" => transform = Some(sv(value)),
                "description" => description = Some(value.clone()),
                k if ALLOWED_POLICY_KEYS.contains(&k) => policies.push((key.clone(), sv(value))),
                // Dotted spec paths.
                k => match k.split_once('.') {
                    Some(("source", rest)) => source.push((rest.into(), sv(value))),
                    Some(("target", rest)) => target.push((rest.into(), sv(value))),
                    Some(("policies", rest)) => policies.push((rest.into(), sv(value))),
                    _ => return Err(SpecError::UnknownField(key.clone())),
                },
            }
        }
        if !source.iter().any(|(k, _)| k == "type") {
            // Legacy default: a feed declared without a source is the
            // paper's socket adapter.
            source.push(("type".into(), sv("socket")));
        }
        let mut root: Vec<(String, Value)> =
            vec![("name".into(), Value::str(name)), ("source".into(), Value::object(source))];
        if let Some(d) = description {
            root.push(("description".into(), Value::str(d)));
        }
        if let Some(t) = transform {
            root.push(("transform".into(), t));
        }
        if !policies.is_empty() {
            root.push(("policies".into(), Value::object(policies)));
        }
        if !target.is_empty() {
            root.push(("target".into(), Value::object(target)));
        }
        Self::from_value(&Value::object(root))
    }

    /// Re-checks the spec's invariants (programmatically constructed
    /// specs get the same guarantees as parsed ones).
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(bad_value("name", "must not be empty"));
        }
        match &self.source {
            SourceSpec::Logfile { root, partitions } | SourceSpec::Cdc { root, partitions } => {
                if root.as_os_str().is_empty() {
                    return Err(bad_value("source.path", "must not be empty"));
                }
                if *partitions == Some(0) {
                    return Err(bad_value("source.partitions", "must be at least 1"));
                }
            }
            SourceSpec::Filetail { paths, .. } => {
                if paths.is_empty() {
                    return Err(SpecError::Missing("source.path".into()));
                }
                if paths.iter().any(|p| p.as_os_str().is_empty()) {
                    return Err(bad_value("source.path", "must not be empty"));
                }
            }
            SourceSpec::Socket { addrs } => {
                if addrs.is_empty() || addrs.iter().any(|a| a.is_empty()) {
                    return Err(SpecError::Missing("source.sockets".into()));
                }
            }
            SourceSpec::Custom { name } => {
                if name.is_empty() {
                    return Err(SpecError::Missing("source.name".into()));
                }
            }
        }
        for f in &self.transform {
            if f.is_empty() {
                return Err(bad_value("transform", "UDF names must not be empty"));
            }
        }
        validate_policies(&self.policies)?;
        validate_target(&self.target)?;
        Ok(())
    }
}

fn bad_value(field: &str, message: &str) -> SpecError {
    SpecError::BadValue { field: field.into(), message: message.into() }
}

fn path_of(prefix: &str, field: &str) -> String {
    if prefix.is_empty() {
        field.to_owned()
    } else {
        format!("{prefix}.{field}")
    }
}

/// Rejects fields outside `allowed` (the typo guard).
fn check_fields(obj: &Object, prefix: &str, allowed: &[&str]) -> Result<()> {
    for (key, _) in obj.iter() {
        if !allowed.contains(&key) {
            return Err(SpecError::UnknownField(path_of(prefix, key)));
        }
    }
    Ok(())
}

fn opt_str(obj: &Object, prefix: &str, field: &str) -> Result<Option<String>> {
    match obj.get(field) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(SpecError::BadType { field: path_of(prefix, field), expected: "a string" }),
    }
}

fn require_str(obj: &Object, prefix: &str, field: &str) -> Result<String> {
    opt_str(obj, prefix, field)?.ok_or_else(|| SpecError::Missing(path_of(prefix, field)))
}

/// Accepts a JSON integer or an integer-shaped string (DDL options are
/// strings).
fn opt_usize(obj: &Object, prefix: &str, field: &str) -> Result<Option<usize>> {
    let path = || path_of(prefix, field);
    match obj.get(field) {
        None => Ok(None),
        Some(Value::Int(i)) if *i >= 0 => Ok(Some(*i as usize)),
        Some(Value::Int(_)) => {
            Err(SpecError::BadValue { field: path(), message: "must not be negative".into() })
        }
        Some(Value::Str(s)) => match s.trim().parse::<usize>() {
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(SpecError::BadValue {
                field: path(),
                message: format!("'{s}' is not a non-negative integer"),
            }),
        },
        Some(_) => Err(SpecError::BadType { field: path(), expected: "an integer" }),
    }
}

fn opt_bool(obj: &Object, prefix: &str, field: &str) -> Result<Option<bool>> {
    let path = || path_of(prefix, field);
    match obj.get(field) {
        None => Ok(None),
        Some(Value::Bool(b)) => Ok(Some(*b)),
        Some(Value::Str(s)) => match s.trim() {
            "true" => Ok(Some(true)),
            "false" => Ok(Some(false)),
            other => Err(SpecError::BadValue {
                field: path(),
                message: format!("'{other}' is not true/false"),
            }),
        },
        Some(_) => Err(SpecError::BadType { field: path(), expected: "a boolean" }),
    }
}

/// Accepts a string (comma-separated) or an array of strings.
fn opt_str_list(obj: &Object, prefix: &str, field: &str) -> Result<Option<Vec<String>>> {
    let path = || path_of(prefix, field);
    match obj.get(field) {
        None => Ok(None),
        Some(Value::Str(s)) => {
            Ok(Some(s.split(',').map(|p| p.trim().to_owned()).filter(|p| !p.is_empty()).collect()))
        }
        Some(Value::Array(items)) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                match item.as_str() {
                    Some(s) => out.push(s.to_owned()),
                    None => {
                        return Err(SpecError::BadType {
                            field: path(),
                            expected: "an array of strings",
                        })
                    }
                }
            }
            Ok(Some(out))
        }
        Some(_) => {
            Err(SpecError::BadType { field: path(), expected: "a string or array of strings" })
        }
    }
}

fn parse_source(value: &Value) -> Result<SourceSpec> {
    let obj = value
        .as_object()
        .ok_or(SpecError::BadType { field: "source".into(), expected: "an object" })?;
    let kind = require_str(obj, "source", "type")?;
    let spec = match kind.as_str() {
        "logfile" | "cdc" => {
            check_fields(obj, "source", &["type", "path", "partitions"])?;
            let root = PathBuf::from(require_str(obj, "source", "path")?);
            let partitions = opt_usize(obj, "source", "partitions")?;
            if kind == "logfile" {
                SourceSpec::Logfile { root, partitions }
            } else {
                SourceSpec::Cdc { root, partitions }
            }
        }
        "filetail" => {
            check_fields(obj, "source", &["type", "path", "paths", "format", "follow"])?;
            let mut paths: Vec<PathBuf> = opt_str_list(obj, "source", "paths")?
                .unwrap_or_default()
                .into_iter()
                .map(PathBuf::from)
                .collect();
            if paths.is_empty() {
                if let Some(p) = opt_str(obj, "source", "path")? {
                    paths.push(PathBuf::from(p));
                }
            }
            let format = match opt_str(obj, "source", "format")?.as_deref() {
                None | Some("json") => FileFormat::Json,
                Some("csv") => FileFormat::Csv,
                Some(other) => {
                    return Err(SpecError::BadValue {
                        field: "source.format".into(),
                        message: format!("'{other}' is not one of json, csv"),
                    })
                }
            };
            let follow = opt_bool(obj, "source", "follow")?.unwrap_or(false);
            SourceSpec::Filetail { paths, format, follow }
        }
        "socket" => {
            check_fields(obj, "source", &["type", "sockets"])?;
            let addrs = opt_str_list(obj, "source", "sockets")?
                .ok_or(SpecError::Missing("source.sockets".into()))?;
            SourceSpec::Socket { addrs }
        }
        "custom" => {
            check_fields(obj, "source", &["type", "name"])?;
            SourceSpec::Custom { name: require_str(obj, "source", "name")? }
        }
        other => {
            return Err(SpecError::BadValue {
                field: "source.type".into(),
                message: format!("'{other}' is not one of logfile, filetail, cdc, socket, custom"),
            })
        }
    };
    Ok(spec)
}

fn parse_transform(value: Option<&Value>) -> Result<Vec<String>> {
    match value {
        None => Ok(Vec::new()),
        Some(Value::Str(s)) => {
            Ok(s.split(',').map(|f| f.trim().to_owned()).filter(|f| !f.is_empty()).collect())
        }
        Some(Value::Array(items)) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                match item.as_str() {
                    Some(s) if !s.trim().is_empty() => out.push(s.trim().to_owned()),
                    _ => {
                        return Err(SpecError::BadType {
                            field: "transform".into(),
                            expected: "an array of UDF names",
                        })
                    }
                }
            }
            Ok(out)
        }
        Some(_) => Err(SpecError::BadType {
            field: "transform".into(),
            expected: "a UDF name or array of UDF names",
        }),
    }
}

fn parse_policies(value: &Value) -> Result<PolicySpec> {
    let obj = value
        .as_object()
        .ok_or(SpecError::BadType { field: "policies".into(), expected: "an object" })?;
    let mut options = Vec::new();
    for (key, val) in obj.iter() {
        if !ALLOWED_POLICY_KEYS.contains(&key) {
            return Err(SpecError::UnknownField(format!("policies.{key}")));
        }
        let rendered = match val {
            Value::Str(s) => s.clone(),
            Value::Int(i) => i.to_string(),
            Value::Bool(b) => b.to_string(),
            _ => {
                return Err(SpecError::BadType {
                    field: format!("policies.{key}"),
                    expected: "a string or integer",
                })
            }
        };
        options.push((key.to_owned(), rendered));
    }
    let policies = PolicySpec { options };
    validate_policies(&policies)?;
    Ok(policies)
}

fn validate_policies(policies: &PolicySpec) -> Result<()> {
    for (key, value) in &policies.options {
        let field = || format!("policies.{key}");
        match key.as_str() {
            "on-parse-error" | "on-udf-error" | "on-adapter-error" | "on-storage-error" => {
                if !POLICY_TOKENS.contains(&value.as_str()) {
                    return Err(SpecError::BadValue {
                        field: field(),
                        message: format!("'{value}' is not one of {}", POLICY_TOKENS.join(", ")),
                    });
                }
            }
            "retry-attempts" | "retry-backoff-ms" | "max-restarts" | "restart-backoff-ms" => {
                if value.trim().parse::<u64>().is_err() {
                    return Err(SpecError::BadValue {
                        field: field(),
                        message: format!("'{value}' is not a non-negative integer"),
                    });
                }
            }
            "checkpoint-interval" => match value.trim().parse::<u64>() {
                Ok(0) => {
                    return Err(SpecError::BadValue {
                        field: field(),
                        message: "must be at least 1 batch".into(),
                    })
                }
                Ok(_) => {}
                Err(_) => {
                    return Err(SpecError::BadValue {
                        field: field(),
                        message: format!("'{value}' is not a non-negative integer"),
                    })
                }
            },
            "dead-letter-dataset" => {
                if value.is_empty() {
                    return Err(bad_value("policies.dead-letter-dataset", "must not be empty"));
                }
            }
            other => return Err(SpecError::UnknownField(format!("policies.{other}"))),
        }
    }
    Ok(())
}

fn parse_target(value: &Value) -> Result<TargetSpec> {
    let obj = value
        .as_object()
        .ok_or(SpecError::BadType { field: "target".into(), expected: "an object" })?;
    check_fields(
        obj,
        "target",
        &["dataset", "batch-size", "computing-model", "mode", "intake-nodes", "predeploy"],
    )?;
    let intake_nodes = match obj.get("intake-nodes") {
        None => None,
        Some(Value::Str(s)) if s.trim() == "all" => Some(IntakeNodes::All),
        Some(v) => {
            let list = match v {
                Value::Str(s) => s
                    .split(',')
                    .map(|p| {
                        p.trim().parse::<usize>().map_err(|_| SpecError::BadValue {
                            field: "target.intake-nodes".into(),
                            message: format!("'{s}' is not 'all' or a node list"),
                        })
                    })
                    .collect::<Result<Vec<usize>>>()?,
                Value::Array(items) => items
                    .iter()
                    .map(|i| {
                        i.as_int().filter(|n| *n >= 0).map(|n| n as usize).ok_or_else(|| {
                            SpecError::BadType {
                                field: "target.intake-nodes".into(),
                                expected: "an array of node ids",
                            }
                        })
                    })
                    .collect::<Result<Vec<usize>>>()?,
                _ => {
                    return Err(SpecError::BadType {
                        field: "target.intake-nodes".into(),
                        expected: "'all' or a node list",
                    })
                }
            };
            Some(IntakeNodes::Nodes(list))
        }
    };
    let target = TargetSpec {
        dataset: opt_str(obj, "target", "dataset")?,
        batch_size: opt_usize(obj, "target", "batch-size")?,
        model: opt_str(obj, "target", "computing-model")?,
        mode: opt_str(obj, "target", "mode")?,
        intake_nodes,
        predeploy: opt_bool(obj, "target", "predeploy")?,
    };
    validate_target(&target)?;
    Ok(target)
}

fn validate_target(target: &TargetSpec) -> Result<()> {
    if target.dataset.as_deref() == Some("") {
        return Err(bad_value("target.dataset", "must not be empty"));
    }
    if target.batch_size == Some(0) {
        return Err(bad_value("target.batch-size", "must be at least 1"));
    }
    if let Some(m) = &target.model {
        if !["per-record", "per-batch", "stream"].contains(&m.as_str()) {
            return Err(SpecError::BadValue {
                field: "target.computing-model".into(),
                message: format!("'{m}' is not one of per-record, per-batch, stream"),
            });
        }
    }
    if let Some(m) = &target.mode {
        if !["static", "decoupled", "dynamic"].contains(&m.as_str()) {
            return Err(SpecError::BadValue {
                field: "target.mode".into(),
                message: format!("'{m}' is not one of static, decoupled, dynamic"),
            });
        }
    }
    if let Some(IntakeNodes::Nodes(nodes)) = &target.intake_nodes {
        if nodes.is_empty() {
            return Err(bad_value("target.intake-nodes", "must name at least one node"));
        }
    }
    Ok(())
}

/// Renders a spec back to a canonical JSON document (handy for tests
/// and for persisting a validated spec).
impl PipelineSpec {
    pub fn to_document(&self) -> String {
        let mut root: Vec<(String, Value)> = vec![("name".into(), Value::str(&self.name))];
        if let Some(d) = &self.description {
            root.push(("description".into(), Value::str(d)));
        }
        let source = match &self.source {
            SourceSpec::Logfile { root: r, partitions } => {
                let mut o = vec![
                    ("type".to_owned(), Value::str("logfile")),
                    ("path".to_owned(), Value::str(r.to_string_lossy())),
                ];
                if let Some(p) = partitions {
                    o.push(("partitions".to_owned(), Value::Int(*p as i64)));
                }
                Value::object(o)
            }
            SourceSpec::Cdc { root: r, partitions } => {
                let mut o = vec![
                    ("type".to_owned(), Value::str("cdc")),
                    ("path".to_owned(), Value::str(r.to_string_lossy())),
                ];
                if let Some(p) = partitions {
                    o.push(("partitions".to_owned(), Value::Int(*p as i64)));
                }
                Value::object(o)
            }
            SourceSpec::Filetail { paths, format, follow } => Value::object([
                ("type".to_owned(), Value::str("filetail")),
                (
                    "paths".to_owned(),
                    Value::Array(paths.iter().map(|p| Value::str(p.to_string_lossy())).collect()),
                ),
                (
                    "format".to_owned(),
                    Value::str(match format {
                        FileFormat::Json => "json",
                        FileFormat::Csv => "csv",
                    }),
                ),
                ("follow".to_owned(), Value::Bool(*follow)),
            ]),
            SourceSpec::Socket { addrs } => Value::object([
                ("type".to_owned(), Value::str("socket")),
                ("sockets".to_owned(), Value::Array(addrs.iter().map(Value::str).collect())),
            ]),
            SourceSpec::Custom { name } => Value::object([
                ("type".to_owned(), Value::str("custom")),
                ("name".to_owned(), Value::str(name)),
            ]),
        };
        root.push(("source".into(), source));
        if !self.transform.is_empty() {
            root.push((
                "transform".into(),
                Value::Array(self.transform.iter().map(Value::str).collect()),
            ));
        }
        if !self.policies.options.is_empty() {
            root.push((
                "policies".into(),
                Value::object(
                    self.policies.options.iter().map(|(k, v)| (k.as_str(), Value::str(v))),
                ),
            ));
        }
        let mut target: Vec<(String, Value)> = Vec::new();
        if let Some(d) = &self.target.dataset {
            target.push(("dataset".into(), Value::str(d)));
        }
        if let Some(b) = self.target.batch_size {
            target.push(("batch-size".into(), Value::Int(b as i64)));
        }
        if let Some(m) = &self.target.model {
            target.push(("computing-model".into(), Value::str(m)));
        }
        if let Some(m) = &self.target.mode {
            target.push(("mode".into(), Value::str(m)));
        }
        match &self.target.intake_nodes {
            Some(IntakeNodes::All) => target.push(("intake-nodes".into(), Value::str("all"))),
            Some(IntakeNodes::Nodes(nodes)) => target.push((
                "intake-nodes".into(),
                Value::Array(nodes.iter().map(|n| Value::Int(*n as i64)).collect()),
            )),
            None => {}
        }
        if let Some(p) = self.target.predeploy {
            target.push(("predeploy".into(), Value::Bool(p)));
        }
        if !target.is_empty() {
            root.push(("target".into(), Value::object(target)));
        }
        json::to_string(&Value::object(root))
    }
}

/// `BTreeMap` used for deterministic ordering in error paths; re-export
/// nothing from it.
#[allow(unused)]
type _Unused = BTreeMap<String, String>;

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
        "name": "tweets",
        "description": "enrich tweets",
        "source": {"type": "logfile", "path": "/data/log", "partitions": 2},
        "transform": ["enrich", "tag"],
        "policies": {"on-parse-error": "dead-letter", "checkpoint-interval": 8},
        "target": {"dataset": "Tweets", "batch-size": 64, "intake-nodes": "all"}
    }"#;

    #[test]
    fn parses_a_full_document() {
        let spec = PipelineSpec::parse(DOC).unwrap();
        assert_eq!(spec.name, "tweets");
        assert_eq!(
            spec.source,
            SourceSpec::Logfile { root: PathBuf::from("/data/log"), partitions: Some(2) }
        );
        assert_eq!(spec.transform, vec!["enrich", "tag"]);
        assert_eq!(spec.policies.get("on-parse-error"), Some("dead-letter"));
        assert_eq!(spec.policies.get("checkpoint-interval"), Some("8"));
        assert_eq!(spec.target.dataset.as_deref(), Some("Tweets"));
        assert_eq!(spec.target.batch_size, Some(64));
        assert_eq!(spec.target.intake_nodes, Some(IntakeNodes::All));
    }

    #[test]
    fn document_round_trips_through_to_document() {
        let spec = PipelineSpec::parse(DOC).unwrap();
        let again = PipelineSpec::parse(&spec.to_document()).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn rejects_invalid_documents_with_typed_errors() {
        type Check = fn(&SpecError) -> bool;
        let cases: Vec<(&str, Check)> = vec![
            ("{", |e| matches!(e, SpecError::Parse(_))),
            (
                r#"{"source": {"type": "logfile", "path": "x"}}"#,
                |e| matches!(e, SpecError::Missing(f) if f == "name"),
            ),
            (r#"{"name": "f"}"#, |e| matches!(e, SpecError::Missing(f) if f == "source")),
            (
                r#"{"name": "f", "source": {"type": "warp-drive"}, "target": {"dataset": "d"}}"#,
                |e| matches!(e, SpecError::BadValue { field, .. } if field == "source.type"),
            ),
            (
                r#"{"name": "f", "source": {"type": "logfile"}, "target": {"dataset": "d"}}"#,
                |e| matches!(e, SpecError::Missing(f) if f == "source.path"),
            ),
            (
                r#"{"name": "f", "source": {"type": "logfile", "path": "x", "frobnicate": 1},
                    "target": {"dataset": "d"}}"#,
                |e| matches!(e, SpecError::UnknownField(f) if f == "source.frobnicate"),
            ),
            (
                r#"{"name": "f", "source": {"type": "logfile", "path": "x"},
                    "policies": {"on-parse-error": "shrug"}, "target": {"dataset": "d"}}"#,
                |e| matches!(e, SpecError::BadValue { field, .. } if field == "policies.on-parse-error"),
            ),
            (
                r#"{"name": "f", "source": {"type": "logfile", "path": "x"},
                    "policies": {"checkpoint-interval": 0}, "target": {"dataset": "d"}}"#,
                |e| matches!(e, SpecError::BadValue { field, .. } if field == "policies.checkpoint-interval"),
            ),
            (
                r#"{"name": "f", "source": {"type": "logfile", "path": "x"},
                    "target": {"dataset": "d", "batch-size": 0}}"#,
                |e| matches!(e, SpecError::BadValue { field, .. } if field == "target.batch-size"),
            ),
            (
                r#"{"name": "f", "source": {"type": "logfile", "path": "x"},
                    "target": {"dataset": "d", "batch-size": "lots"}}"#,
                |e| matches!(e, SpecError::BadValue { field, .. } if field == "target.batch-size"),
            ),
            (
                r#"{"name": "f", "source": {"type": "logfile", "path": "x"},
                    "target": {"dataset": "d", "computing-model": "psychic"}}"#,
                |e| matches!(e, SpecError::BadValue { field, .. } if field == "target.computing-model"),
            ),
            (
                r#"{"name": "f", "source": {"type": "logfile", "path": "x"}}"#,
                |e| matches!(e, SpecError::Missing(f) if f == "target.dataset"),
            ),
            (
                r#"{"name": "f", "source": {"type": "filetail"}, "target": {"dataset": "d"}}"#,
                |e| matches!(e, SpecError::Missing(f) if f == "source.path"),
            ),
            (
                r#"{"name": "f", "source": {"type": "socket"}, "target": {"dataset": "d"}}"#,
                |e| matches!(e, SpecError::Missing(f) if f == "source.sockets"),
            ),
            (
                r#"{"name": "f", "source": {"type": "logfile", "path": "x"},
                    "transform": 42, "target": {"dataset": "d"}}"#,
                |e| matches!(e, SpecError::BadType { field, .. } if field == "transform"),
            ),
            (
                r#"{"name": "f", "surprise": 1,
                    "source": {"type": "logfile", "path": "x"}, "target": {"dataset": "d"}}"#,
                |e| matches!(e, SpecError::UnknownField(f) if f == "surprise"),
            ),
        ];
        for (doc, check) in cases {
            match PipelineSpec::parse(doc) {
                Err(e) => assert!(check(&e), "doc {doc} produced unexpected error {e:?}"),
                Ok(s) => panic!("doc {doc} unexpectedly parsed: {s:?}"),
            }
        }
    }

    #[test]
    fn builds_from_legacy_ddl_options() {
        let opts: Vec<(String, String)> = [
            ("adapter-name", "socket_adapter"),
            ("sockets", "127.0.0.1:9999, 127.0.0.1:9998"),
            // Decorative AsterixDB keys: accepted, configure nothing.
            ("type-name", "TweetType"),
            ("format", "JSON"),
            ("address-type", "IP"),
            ("batch-size", "420"),
            ("computing-model", "per-batch"),
            ("on-parse-error", "skip"),
            ("checkpoint-interval", "4"),
        ]
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
        let spec = PipelineSpec::from_options("TweetFeed", &opts).unwrap();
        assert_eq!(spec.name, "TweetFeed");
        assert_eq!(
            spec.source,
            SourceSpec::Socket { addrs: vec!["127.0.0.1:9999".into(), "127.0.0.1:9998".into()] }
        );
        assert_eq!(spec.target.batch_size, Some(420));
        assert_eq!(spec.policies.get("checkpoint-interval"), Some("4"));
    }

    #[test]
    fn builds_from_dotted_ddl_options() {
        let opts: Vec<(String, String)> = [
            ("source.type", "logfile"),
            ("source.path", "/data/log"),
            ("transform", "enrich"),
            ("target.dataset", "Events"),
            ("policies.checkpoint-interval", "8"),
        ]
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
        let spec = PipelineSpec::from_options("logfeed", &opts).unwrap();
        assert_eq!(
            spec.source,
            SourceSpec::Logfile { root: PathBuf::from("/data/log"), partitions: None }
        );
        assert_eq!(spec.transform, vec!["enrich"]);
        assert_eq!(spec.target.dataset.as_deref(), Some("Events"));
    }

    #[test]
    fn unknown_ddl_options_are_rejected() {
        let opts = vec![("frobnicate".to_owned(), "yes".to_owned())];
        assert!(matches!(
            PipelineSpec::from_options("f", &opts),
            Err(SpecError::UnknownField(f)) if f == "frobnicate"
        ));
        let opts = vec![("source.warp".to_owned(), "9".to_owned())];
        assert!(matches!(
            PipelineSpec::from_options("f", &opts),
            Err(SpecError::UnknownField(f)) if f == "source.warp"
        ));
    }

    #[test]
    fn ddl_options_default_to_the_socket_adapter() {
        let opts = vec![("sockets".to_owned(), "127.0.0.1:0".to_owned())];
        let spec = PipelineSpec::from_options("f", &opts).unwrap();
        assert!(matches!(spec.source, SourceSpec::Socket { .. }));
    }
}
