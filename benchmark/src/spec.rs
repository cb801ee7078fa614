//! The metrics the benchmark reports, as the driver's contract lists
//! them in `BENCHMARK.json`; `run.sh --describe` prints that file from
//! these tables.

use idea::adm::{json, Value};

use crate::workloads::WORKLOADS;

/// What `--seconds` defaults to, and what `BENCHMARK.json` asks for.
pub const RUN_SECONDS: u64 = 25;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, higher_is_better: higher, bound }
}

pub const END_TO_END: [EndToEnd; 6] = [
    e2e("ingest_rec_s", "1/s", true, 0.25),
    e2e("fresh_p50_ms", "ms", false, 0.15),
    e2e("fresh_p95_ms", "ms", false, 0.10),
    e2e("qmix_p50_ms", "ms", false, 0.15),
    e2e("qmix_p90_ms", "ms", false, 0.25),
    e2e("setup_s", "s", false, 0.25),
];

/// `(name, unit, higher is better)`, one row per layer metric.
pub const PER_LAYER: [(&str, &str, bool); 26] = [
    ("connect_read_us_per_rec", "us", false),
    ("connect_lag_records", "count", false),
    ("adm_parse_us_per_rec", "us", false),
    ("hyracks_holder_us_per_rec", "us", false),
    ("hyracks_blocked_pushes", "count", false),
    ("hyracks_queue_depth_max", "count", false),
    ("core_jobs", "count", false),
    ("core_batch_period_ms", "ms", false),
    ("core_unattributed_us_per_rec", "us", false),
    ("query_udf_us_per_rec", "us", false),
    ("query_udf_build_us_per_batch", "us", false),
    ("storage_upsert_us_per_rec", "us", false),
    ("storage_stall_share", "%", false),
    ("storage_write_amp", "ratio", false),
    ("storage_flushes", "count", false),
    ("storage_merges", "count", false),
    ("wal_bytes_per_rec", "B", false),
    ("storage_scan_us_per_rec", "us", false),
    ("storage_components_at_query", "count", false),
    ("storage_cache_hit_ratio", "ratio", true),
    ("serve_overhead_ms", "ms", false),
    ("serve_frame_us_per_row", "us", false),
    ("serve_shed", "count", false),
    ("query_exec_ms.count", "ms", false),
    ("query_exec_ms.group", "ms", false),
    ("query_exec_ms.range", "ms", false),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name} is not in the spec tables"))
}

fn better(higher: bool) -> Value {
    Value::str(if higher { "higher" } else { "lower" })
}

/// The `BENCHMARK.json` document, pretty enough to diff.
pub fn describe() -> String {
    let strings = |items: &[&str]| Value::Array(items.iter().map(|s| Value::str(*s)).collect());
    let rows = |items: Vec<Value>| {
        let lines: Vec<String> =
            items.iter().map(|v| format!("    {}", json::to_string(v))).collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| Value::object([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Value::object([
                ("name", Value::str(m.name)),
                ("unit", Value::str(m.unit)),
                ("better", better(m.higher_is_better)),
                ("bound", Value::Double(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, higher)| {
            Value::object([
                ("name", Value::str(*name)),
                ("unit", Value::str(*unit)),
                ("better", better(*higher)),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        json::to_string(&strings(&["bash", "benchmark/run.sh"])),
        json::to_string(&strings(&["benchmark"])),
        rows(workloads),
        rows(end_to_end),
        rows(per_layer),
    )
}
