//! The two load generators that run against a loaded engine: the
//! open-loop live feed with its freshness probes, and the closed-loop
//! TCP query client.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use idea::adm::Value;
use idea::prelude::*;

use crate::engine::{Stage, LIVE_FEED};
use crate::inputs::{self, QueryMix, Reference};
use crate::trace::{Sample, Sampler};
use crate::workloads::{BATCH_SIZE, LIVE_RATE, NODES, PROBE_RATE, REF_UPDATE_RATE};

/// How long after the last append an unseen probe is given up as lost.
const PROBE_GRACE: Duration = Duration::from_secs(10);
/// Batch size of the reference-update feed: at 100 updates/s a batch of
/// 420 would take over four seconds to fill.
const REF_BATCH: usize = 20;

pub struct LiveOut {
    pub window_s: f64,
    pub sent: u64,
    /// Event→queryable latency of each probe, from the instant the
    /// record was due to be appended.
    pub fresh_ms: Vec<f64>,
    /// How late each record was appended relative to its due instant.
    pub late_ms: Vec<f64>,
    pub probes: u64,
    pub probes_lost: u64,
    /// Sent minus stored at the instant sending stopped.
    pub backlog_end: u64,
    /// Keys whose final stored record is not the last version sent.
    pub wrong: u64,
    pub jobs: u64,
    pub samples: Vec<Sample>,
}

struct Probe {
    key: i64,
    ver: i64,
    due: Instant,
}

/// Runs the live segment for `secs`: appends to a live two-partition log
/// on a 1 ms open-loop schedule at `LIVE_RATE`, upserting round-robin
/// over the keys of `tweets` with a rising `ver`, and polls the dataset
/// for the probed versions. With `updates` a second feed applies
/// `REF_UPDATE_RATE` reference updates per second. Payloads exist before
/// the window opens; the loop only stamps `ver` and appends. Sets
/// `window_closed` the moment sending stops, so query clients measuring
/// beside the feed stop with it.
pub fn live(
    stage: &mut Stage,
    tweets: &[String],
    reference: &mut Reference,
    secs: f64,
    updates: bool,
    sample: bool,
    window_closed: &AtomicBool,
) -> LiveOut {
    let t = Instant::now();
    let dataset = stage.dataset_name();
    let ds = stage.dataset();
    let keys = tweets.len() as u64;
    let bodies: Vec<&str> = tweets
        .iter()
        .map(|t| t.strip_suffix('}').expect("a tweet is a JSON object"))
        .collect();
    let planned = (LIVE_RATE as f64 * secs) as u64;
    let planned_updates = if updates { (REF_UPDATE_RATE as f64 * secs) as u64 } else { 0 };
    let update_texts: Vec<String> = (0..planned_updates).map(|_| reference.next_update()).collect();

    let live_root = stage.dir.join("live");
    let mut log = PartitionedLog::create(&live_root, NODES).expect("create live log");
    let doc = stage.pipeline(LIVE_FEED, &live_root, dataset, stage.udf, BATCH_SIZE);
    let feed = stage.engine.start_pipeline(&doc).expect("start live feed");
    let mut refs = updates.then(|| {
        let root = stage.dir.join("refs");
        let log = PartitionedLog::create(&root, NODES).expect("create reference-update log");
        let doc = stage.pipeline("refs", &root, "SafetyRatings", false, REF_BATCH);
        (log, stage.engine.start_pipeline(&doc).expect("start reference-update feed"))
    });
    let sent_shared = Arc::new(AtomicU64::new(0));
    let sampler = sample
        .then(|| Sampler::start(stage.engine.clone(), LIVE_FEED, dataset, sent_shared.clone()));
    stage.setup_s += t.elapsed().as_secs_f64();

    let start = Instant::now() + Duration::from_millis(20);
    let end = start + Duration::from_secs_f64(secs);
    let due = |i: u64, rate: u64| start + Duration::from_nanos(i * 1_000_000_000 / rate);
    let probe_every = LIVE_RATE / PROBE_RATE;
    // A computing job waits for a full batch per node, so the last
    // records sent wait for the seal, not for the feed: no probes there.
    let probed = planned.saturating_sub((2 * NODES * BATCH_SIZE) as u64);
    let (mut sent, mut sent_updates, mut tick) = (0u64, 0u64, 0u64);
    let mut out = LiveOut {
        window_s: secs,
        sent: 0,
        fresh_ms: Vec::new(),
        late_ms: Vec::with_capacity(planned as usize),
        probes: 0,
        probes_lost: 0,
        backlog_end: 0,
        wrong: 0,
        jobs: 0,
        samples: Vec::new(),
    };
    let mut outstanding: Vec<Probe> = Vec::new();
    let poll = |outstanding: &mut Vec<Probe>, fresh_ms: &mut Vec<f64>| {
        outstanding.retain(|p| {
            let seen = ds
                .get(&Value::Int(p.key))
                .ok()
                .flatten()
                .and_then(|r| r.as_object()?.get("ver")?.as_int())
                .is_some_and(|v| v >= p.ver);
            if seen {
                fresh_ms.push((Instant::now() - p.due).as_secs_f64() * 1e3);
            }
            !seen
        });
    };
    let mut payload = String::with_capacity(512);
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        while sent < planned && due(sent, LIVE_RATE) <= now {
            let (key, ver) = (sent % keys, (sent / keys + 1) as i64);
            payload.clear();
            payload.push_str(bodies[key as usize]);
            write!(payload, ", \"ver\": {ver}}}").expect("write to a string");
            let at = Instant::now();
            log.append((key % NODES as u64) as usize, &payload).expect("append to live log");
            out.late_ms.push((at - due(sent, LIVE_RATE)).as_secs_f64() * 1e3);
            if sent % probe_every == 0 && sent < probed {
                outstanding.push(Probe { key: key as i64, ver, due: due(sent, LIVE_RATE) });
            }
            sent += 1;
        }
        log.flush().expect("flush live log");
        if let Some((log, _)) = refs.as_mut() {
            while sent_updates < planned_updates && due(sent_updates, REF_UPDATE_RATE) <= now {
                let text = &update_texts[sent_updates as usize];
                log.append((sent_updates % NODES as u64) as usize, text)
                    .expect("append to reference-update log");
                sent_updates += 1;
            }
            log.flush().expect("flush reference-update log");
        }
        sent_shared.store(sent, Ordering::Relaxed);
        poll(&mut outstanding, &mut out.fresh_ms);
        tick += 1;
        let next = start + Duration::from_millis(tick);
        if let Some(nap) = next.checked_duration_since(Instant::now()) {
            std::thread::sleep(nap);
        }
    }
    window_closed.store(true, Ordering::Relaxed);
    out.sent = sent;
    out.probes = sent.min(probed).div_ceil(probe_every);
    out.backlog_end = sent.saturating_sub(feed.metrics().records_stored.get());
    log.seal().expect("seal live log");

    let give_up = Instant::now() + PROBE_GRACE;
    while !outstanding.is_empty() && Instant::now() < give_up {
        poll(&mut outstanding, &mut out.fresh_ms);
        std::thread::sleep(Duration::from_millis(1));
    }
    out.probes_lost = outstanding.len() as u64;
    out.jobs = feed.wait().expect("live feed ends at the seal").computing_jobs;
    if let Some((mut log, feed)) = refs {
        log.seal().expect("seal reference-update log");
        feed.wait().expect("reference-update feed ends at the seal");
    }
    out.samples = sampler.map(Sampler::stop).unwrap_or_default();

    let reference = stage.udf.then_some(&*reference);
    for (key, tweet) in tweets.iter().enumerate() {
        let ver = (sent / keys + u64::from((key as u64) < sent % keys)) as i64;
        let stored = ds.get(&Value::Int(key as i64)).expect("point lookup");
        if !stored.is_some_and(|r| inputs::record_ok(&r, tweet, ver, reference)) {
            out.wrong += 1;
        }
    }
    out
}

#[derive(Default)]
pub struct ClientOut {
    /// Time to get correct answers to one round of the three-query mix.
    pub round_ms: Vec<f64>,
    pub queries: u64,
    /// Queries that errored, were shed, or answered wrongly.
    pub failed: u64,
}

/// One TCP client running the query mix closed-loop until `stop` is
/// set; every answer is checked. The first round warms the statement
/// and plan caches and is not timed.
pub fn client(addr: SocketAddr, mix: &QueryMix, stop: &AtomicBool) -> ClientOut {
    let mut conn = Client::connect(addr, "bench").expect("connect to the server");
    let mut out = ClientOut::default();
    let mut warm = true;
    while warm || !stop.load(Ordering::Relaxed) {
        let t = Instant::now();
        for (q, text) in mix.texts.iter().enumerate() {
            out.queries += 1;
            if !conn.query(text).is_ok_and(|rows| mix.answer_ok(q, &rows)) {
                out.failed += 1;
            }
        }
        if !warm {
            out.round_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        warm = false;
    }
    out
}
