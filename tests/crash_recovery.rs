//! Kill-9 crash-recovery integration tests.
//!
//! The main test re-executes this test binary as a child process
//! (`crash_child`, `#[ignore]`d so it only runs when asked for by
//! name). The child ingests and enriches records through a real feed
//! into a durable dataset, printing progress; the parent SIGKILLs it
//! mid-feed, reopens the storage root, and checks the recovered data
//! against a differential oracle:
//!
//! * **every committed record recovered** — for each intake partition,
//!   all records below the last *committed* checkpoint offset must be
//!   present (checkpoints commit only after the storage stage acked,
//!   and puts return only after their WAL record reached the OS file —
//!   which survives SIGKILL in the page cache even with fsync off);
//! * **zero wrong rows** — every recovered record must match the
//!   id-derived formula exactly; recovery may deliver a little more
//!   than the committed horizon (at-least-once), never garbage.
//!
//! A separate test corrupts the WAL tail directly and asserts a torn
//! final record is truncated, not fatal.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use idea::adm::Value;
use idea::ft::CheckpointStore;
use idea::prelude::*;
use idea::query::Catalog;
use idea::storage::dataset::{Dataset, DatasetConfig};
use idea::storage::TempDir;

const TOTAL: usize = 200_000;
const KILL_AFTER: usize = 3_000;
const FEED: &str = "cr";
const INTAKES: usize = 2;

fn sig_for(id: i64) -> i64 {
    id * 7 + 3
}

fn durable_options(layout: &str) -> String {
    // fsync off: kill-9 only takes the process, not the kernel page
    // cache, so group-commit "durability" still holds for this test
    // and the child ingests at full speed. The small memtable budget
    // forces real flushes (component files + manifest updates) mid-run.
    format!(
        r#"{{"storage": "disk", "fsync": "never", "memtable-budget-bytes": "262144", "layout": "{layout}"}}"#
    )
}

fn register_enrich(engine: &IngestionEngine) {
    engine
        .catalog()
        .register_native_function(
            "enrich",
            1,
            std::sync::Arc::new(|| {
                Box::new(|args: &[Value]| {
                    let obj = args[0].as_object().expect("record");
                    let id = match obj.get("id") {
                        Some(Value::Int(i)) => *i,
                        other => panic!("bad id {other:?}"),
                    };
                    let text = obj.get("text").cloned().unwrap_or(Value::Missing);
                    Ok(Value::Array(vec![Value::object([
                        ("id", Value::Int(id)),
                        ("text", text),
                        ("sig", Value::Int(sig_for(id))),
                    ])]))
                }) as Box<dyn idea::query::NativeUdf>
            }),
        )
        .unwrap();
}

/// The child role: ingest + enrich into a durable dataset until killed.
/// Only meaningful when re-executed by `kill_nine_mid_feed_recovers` —
/// hence `#[ignore]` and the env-var gate.
#[test]
#[ignore = "child process role for kill_nine_mid_feed_recovers"]
fn crash_child() {
    let Ok(dir) = std::env::var("IDEA_CRASH_DIR") else {
        eprintln!("IDEA_CRASH_DIR not set; nothing to do");
        return;
    };
    let layout = std::env::var("IDEA_CRASH_LAYOUT").unwrap_or_else(|_| "row".to_owned());
    let engine = IngestionEngine::with_storage_root(INTAKES, &dir).unwrap();
    engine
        .new_session(SessionConfig::new())
        .run_script(&format!(
            r#"
            CREATE TYPE EventType AS OPEN {{ id: int64, text: string }};
            CREATE DATASET Events(EventType) PRIMARY KEY id WITH {};
            "#,
            durable_options(&layout)
        ))
        .unwrap();
    register_enrich(&engine);

    let records: Vec<String> =
        (0..TOTAL).map(|i| format!(r#"{{"id": {i}, "text": "t{i}"}}"#)).collect();
    let mut spec = FeedSpec::new(FEED, "Events", SourceFactory::records(records))
        .with_function("enrich")
        .with_batch_size(64)
        .with_intake_nodes((0..INTAKES).collect());
    spec.supervision.checkpoint_interval = Some(8);
    engine.start_feed(spec).unwrap();

    let ds = engine.catalog().dataset("Events").unwrap();
    loop {
        println!("progress {}", ds.len());
        std::io::stdout().flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn kill_nine_mid_feed_recovers_every_committed_record() {
    kill_nine_recovers("row");
}

/// The same kill-9 oracle over a columnar-layout dataset: crash-time
/// flushes write column pages, and recovery must replay the WAL on top
/// of sniffed columnar components without losing a committed record.
#[test]
fn kill_nine_mid_feed_recovers_columnar_layout() {
    kill_nine_recovers("columnar");
}

fn kill_nine_recovers(layout: &str) {
    let tmp = TempDir::new("crash-recovery");
    let mut child = Command::new(std::env::current_exe().unwrap())
        .args(["crash_child", "--ignored", "--exact", "--nocapture"])
        .env("IDEA_CRASH_DIR", tmp.path())
        .env("IDEA_CRASH_LAYOUT", layout)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn child");

    // Watch the child's progress from a thread so the parent can
    // enforce a deadline; SIGKILL once enough records are in.
    let stdout = child.stdout.take().unwrap();
    let (tx, rx) = mpsc::channel::<usize>();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { return };
            if let Some(n) = line.strip_prefix("progress ") {
                if let Ok(n) = n.trim().parse::<usize>() {
                    if tx.send(n).is_err() {
                        return;
                    }
                }
            }
        }
    });
    // Kill only once (a) enough records are in and (b) at least one
    // checkpoint has committed — its file appears atomically on the
    // first commit — so the committed-horizon oracle below has teeth.
    let ckpt_path = tmp.path().join("checkpoints").join(format!("{FEED}.ckpt"));
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut last_seen = 0usize;
    while last_seen < KILL_AFTER || !ckpt_path.exists() {
        match rx.recv_timeout(Duration::from_millis(200)) {
            Ok(n) => last_seen = n,
            Err(_) if Instant::now() > deadline => {
                let _ = child.kill();
                panic!(
                    "child never reached {KILL_AFTER} records + a committed checkpoint \
                     (last {last_seen}, ckpt exists: {})",
                    ckpt_path.exists()
                );
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let _ = child.kill();
                panic!("child exited early (last progress {last_seen})");
            }
            Err(_) => {}
        }
    }
    child.kill().expect("SIGKILL child"); // std's kill is SIGKILL on unix
    child.wait().expect("reap child");

    // Reopen the storage root from scratch: the catalog must recover
    // the dataset (and its datatype) from disk alone.
    let catalog = Catalog::new(INTAKES);
    assert_eq!(catalog.set_storage_root(tmp.path()).unwrap(), 1, "one durable dataset");
    let ds = catalog.dataset("Events").unwrap();
    let recovered = ds.len();
    assert!(recovered > 0, "nothing recovered");
    assert!(
        ds.partitions().iter().any(|p| {
            p.recovery_stats()
                .is_some_and(|r| r.replayed_records > 0 || r.components_loaded > 0)
        }),
        "recovery did not replay a WAL or load a component"
    );

    // Zero wrong rows: every recovered record matches the id-derived
    // formula produced by the enrichment UDF.
    let mut seen = 0usize;
    for snap in ds.snapshot_all() {
        for rec in snap.iter() {
            let obj = rec.as_object().expect("recovered row is an object");
            let id = match obj.get("id") {
                Some(Value::Int(i)) => *i,
                other => panic!("bad recovered id {other:?}"),
            };
            assert!((0..TOTAL as i64).contains(&id), "id {id} out of range");
            assert_eq!(obj.get("sig"), Some(&Value::Int(sig_for(id))), "wrong sig for id {id}");
            assert_eq!(
                obj.get("text"),
                Some(&Value::str(format!("t{id}"))),
                "wrong text for id {id}"
            );
            seen += 1;
        }
    }
    assert_eq!(seen, recovered);

    // Every committed record recovered: the persisted checkpoint's
    // committed offsets are a durable promise — record k of intake
    // partition p is global id `k * INTAKES + p` (SourceFactory::records
    // splits round-robin).
    let ckpt = CheckpointStore::persistent(
        INTAKES,
        tmp.path().join("checkpoints").join(format!("{FEED}.ckpt")),
    );
    let committed = ckpt.committed_snapshot();
    let committed_total: u64 = committed.iter().sum();
    assert!(committed_total > 0, "no checkpoint committed before the kill");
    for (p, &upto) in committed.iter().enumerate() {
        for k in 0..upto {
            let id = (k as usize * INTAKES + p) as i64;
            let rec = ds.get(&Value::Int(id)).unwrap().unwrap_or_else(|| {
                panic!("committed record id {id} (intake {p}, offset {k}/{upto}) lost")
            });
            assert_eq!(rec.as_object().unwrap().get("sig"), Some(&Value::Int(sig_for(id))));
        }
    }
    assert!(
        recovered as u64 >= committed_total,
        "recovered {recovered} rows < committed {committed_total}"
    );
    println!(
        "kill-9 at ~{last_seen} ingested: recovered {recovered} rows, \
         committed horizon {committed_total} verified"
    );
}

#[test]
fn torn_wal_tail_is_truncated_not_fatal() {
    let tmp = TempDir::new("torn-tail");
    let mut config = DatasetConfig::default();
    config.apply_options(&[("fsync".to_owned(), "never".to_owned())]).unwrap();
    let dt = idea::adm::Datatype::new("T");
    {
        let ds = Dataset::open_durable("t", dt.clone(), "id", config.clone(), tmp.path()).unwrap();
        for i in 0..100 {
            ds.insert(Value::object([("id", Value::Int(i)), ("v", Value::Int(i * i))]))
                .unwrap();
        }
    }

    // Corrupt the newest WAL segment with a torn record: a frame header
    // promising 4096 bytes followed by only 5 (as if the crash landed
    // mid-write). Recovery must truncate it, not refuse to open.
    let mut wals: Vec<_> = std::fs::read_dir(tmp.path())
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("wal-"))
        .collect();
    wals.sort();
    let tail = wals.last().expect("a WAL segment exists").clone();
    let mut f = std::fs::OpenOptions::new().append(true).open(&tail).unwrap();
    f.write_all(&4096u32.to_le_bytes()).unwrap();
    f.write_all(&0u32.to_le_bytes()).unwrap();
    f.write_all(b"torn!").unwrap();
    drop(f);

    let ds = Dataset::open_durable("t", dt.clone(), "id", config.clone(), tmp.path()).unwrap();
    assert_eq!(ds.len(), 100, "torn tail must not lose committed records");
    for i in 0..100 {
        let rec = ds.get(&Value::Int(i)).unwrap().unwrap();
        assert_eq!(rec.as_object().unwrap().get("v"), Some(&Value::Int(i * i)));
    }
    let stats = ds.recovery_stats().unwrap();
    assert!(stats.truncated_bytes > 0, "recovery should report the truncated tail");
    drop(ds);

    // The truncation is physical: a third open sees a clean log.
    let ds = Dataset::open_durable("t", dt, "id", config, tmp.path()).unwrap();
    assert_eq!(ds.len(), 100);
    assert_eq!(ds.recovery_stats().unwrap().truncated_bytes, 0);
}
