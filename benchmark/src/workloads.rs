//! The four workloads. Every workload runs the same three measured
//! segments on the real engine — backlog drain, live feed, TCP query
//! mix — because every end-to-end metric is reported on every workload;
//! what differs is which segment gets the time, whether the feed
//! enriches, and whether writes sit beside reads.

/// Engine settings the issue fixes for all workloads.
pub const NODES: usize = 2;
pub const BATCH_SIZE: usize = 420;
/// Keys of the dataset the live and serve segments work on. Live
/// records upsert round-robin over them, so its size — and with it the
/// cost of one query round — stays fixed while the feed runs. 30,000
/// tweets are 6.3 MB a partition: more than the 4 MB memtable budget, so
/// rewriting them keeps the LSM flushing and merging, and more than the
/// 4 MB block cache.
pub const SERVICE_KEYS: u64 = 30_000;
/// Open-loop rate of the live segment, records per second.
pub const LIVE_RATE: u64 = 8_000;
/// Freshness probes per second of live feed.
pub const PROBE_RATE: u64 = 50;
/// Reference-data updates per second while `mixed` is set.
pub const REF_UPDATE_RATE: u64 = 100;
/// Timed drain passes (after one discarded warm-up pass).
pub const TIMED_PASSES: usize = 5;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// The feed applies `enrichSafetyRating`.
    pub udf: bool,
    /// Records in one drain pass, per second of `--seconds`.
    pub drain_records_per_second: u64,
    /// Shares of `--seconds` the live and the serve segment run for.
    pub live_share: f64,
    pub serve_share: f64,
    /// Live and serve segments overlap, and a second feed updates the
    /// reference data the UDF joins against.
    pub mixed: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "drain.plain",
        why: "backlog drain with no UDF: connector, parse, holders and the storage write path do \
              all the work, so it is the control for every enrichment change",
        udf: false,
        drain_records_per_second: 8_000,
        live_share: 0.16,
        serve_share: 0.16,
        mixed: false,
    },
    Workload {
        name: "drain.enrich",
        why: "same drain with the enrichSafetyRating hash-join UDF per batch: its gap to \
              drain.plain is the query layer's enrichment cost",
        udf: true,
        drain_records_per_second: 4_400,
        live_share: 0.16,
        serve_share: 0.16,
        mixed: false,
    },
    Workload {
        name: "live.mixed",
        why: "the paper's section 7 composition: open-loop upsert feed, reference updates and TCP \
              queries at once, so scans see a memtable and unmerged components",
        udf: true,
        drain_records_per_second: 2_000,
        live_share: 0.68,
        serve_share: 0.68,
        mixed: true,
    },
    Workload {
        name: "serve.scan",
        why: "same data and queries as live.mixed on a flushed, merged, read-only dataset with no \
              feed: a scan gain shows here, its write cost on drain.plain",
        udf: true,
        drain_records_per_second: 2_000,
        live_share: 0.12,
        serve_share: 0.5,
        mixed: false,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
