//! The repository's benchmark: one composed journey — source connector
//! → enrichment → disk LSM → SQL++ over TCP — measured end to end on the
//! real engine in this process, with a traced mode that attributes time
//! to layers from outside. See README.md for every definition.

mod engine;
mod inputs;
mod run;
mod segments;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use idea::adm::{json, Value};

use run::{run, Metric, RunOut};
use spec::{END_TO_END, RUN_SECONDS};
use workloads::{Workload, WORKLOADS};

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
                     [--aa] [--describe]
  --workload  drain.plain | drain.enrich | live.mixed | serve.scan (default: all four)
  --seed      inputs are built from it (default 1)
  --seconds   measuring time of one run (default 25)
  --trace     1: traced run, per-layer metrics; 0: untraced (default); bare: both, with overhead
  --aa        run the whole set twice and compare the two against the bounds
  --describe  print BENCHMARK.json";

#[derive(Clone, Copy, PartialEq)]
enum Trace {
    Off,
    On,
    Both,
}

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Trace,
    aa: bool,
    describe: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: Trace::Off,
        aa: false,
        describe: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(workloads::find(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds < 1.0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--trace" => {
                args.trace = match it.next_if(|v| v == "0" || v == "1").as_deref() {
                    Some("0") => Trace::Off,
                    Some(_) => Trace::On,
                    None => Trace::Both,
                }
            }
            "--aa" => args.aa = true,
            "--describe" => args.describe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<30} {:>14.4} {}", m.name, m.value, m.unit);
    }
}

/// The result line the driver reads: the last line of standard output.
fn result_line(out: &RunOut, metrics: &[&Metric]) -> String {
    json::to_string(&Value::object([
        ("correct", Value::Bool(out.correct)),
        ("attempted", Value::Int(out.attempted as i64)),
        ("failed", Value::Int(out.failed as i64)),
        (
            "metrics",
            Value::object(metrics.iter().map(|m| {
                let entry = [("value", Value::Double(m.value)), ("unit", Value::str(m.unit))];
                (m.name, Value::object(entry))
            })),
        ),
    ]))
}

/// Runs one workload as `trace` asks, prints its report, and returns
/// the run whose end-to-end metrics count (the untraced one if any).
fn report(w: &Workload, args: &Args, trace: Trace) -> RunOut {
    println!(
        "== {}  seed {}  seconds {}  commit {} ==",
        w.name,
        args.seed,
        args.seconds,
        git_commit()
    );
    let untraced = (trace != Trace::On).then(|| run(w, args.seed, args.seconds, false, &args.out));
    let traced = (trace != Trace::Off).then(|| run(w, args.seed, args.seconds, true, &args.out));
    for (label, out) in [("untraced", &untraced), ("traced", &traced)] {
        let Some(out) = out else { continue };
        println!(" {label} run");
        print_metrics(&out.end_to_end);
        print_metrics(&out.per_layer);
        println!("  {:<30} {:>14} count", "ops_attempted", out.attempted);
        println!("  {:<30} {:>14} count", "ops_failed", out.failed);
        for note in &out.notes {
            println!("  {note}");
        }
    }
    if let (Some(u), Some(t)) = (&untraced, &traced) {
        println!(" tracing overhead (traced / untraced - 1)");
        for (a, b) in u.end_to_end.iter().zip(&t.end_to_end) {
            println!("  {:<30} {:>+13.2} %", a.name, (b.value / a.value - 1.0) * 100.0);
        }
    }
    let metrics: Vec<&Metric> = untraced
        .iter()
        .flat_map(|u| &u.end_to_end)
        .chain(traced.iter().flat_map(|t| &t.per_layer))
        .collect();
    let counted = untraced.as_ref().or(traced.as_ref()).expect("at least one run was made");
    println!("{}", result_line(counted, &metrics));
    untraced.or(traced).expect("at least one run was made")
}

/// Runs the whole set twice on this build and holds the second against
/// the first with the bounds a later change is held to.
fn a_a(args: &Args) -> bool {
    let sets: Vec<Vec<RunOut>> = (0..2)
        .map(|_| WORKLOADS.iter().map(|w| report(w, args, Trace::Off)).collect())
        .collect();
    println!("== A/A: two sets of runs of the same build ==");
    println!(
        "  {:<14} {:<14} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "first", "second", "ratio", "bound"
    );
    let mut all_pass = sets.iter().flatten().all(|o| o.correct);
    let mut rows = Vec::new();
    for (i, w) in WORKLOADS.iter().enumerate() {
        for (m, spec) in END_TO_END.iter().enumerate() {
            let (a, b) = (sets[0][i].end_to_end[m].value, sets[1][i].end_to_end[m].value);
            let worse = if spec.higher_is_better { 1.0 - b / a } else { b / a - 1.0 };
            let pass = worse <= spec.bound;
            all_pass &= pass;
            println!(
                "  {:<14} {:<14} {a:>12.3} {b:>12.3} {:>8.3} {:>6.2}  {}",
                w.name,
                spec.name,
                b / a,
                spec.bound,
                if pass { "pass" } else { "FAIL" }
            );
            rows.push(Value::object([
                ("workload", Value::str(w.name)),
                ("metric", Value::str(spec.name)),
                ("first", Value::Double(a)),
                ("second", Value::Double(b)),
                ("bound", Value::Double(spec.bound)),
                ("pass", Value::Bool(pass)),
            ]));
        }
    }
    let path = args.out.join("aa.json");
    std::fs::write(&path, json::to_string(&Value::Array(rows))).expect("write the A/A record");
    println!("  both sets recorded in {}", path.display());
    all_pass
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        print!("{}", spec::describe());
        return ExitCode::SUCCESS;
    }
    std::fs::create_dir_all(&args.out).expect("create the output directory");
    let ok = if args.aa {
        a_a(&args)
    } else {
        let chosen: Vec<&Workload> = match args.workload {
            Some(w) => vec![w],
            None => WORKLOADS.iter().collect(),
        };
        // Every workload runs even after one has failed.
        chosen.iter().filter(|w| !report(w, &args, args.trace).correct).count() == 0
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "FAILED: an oracle mismatch, a late generator or an unsustained feed (see above)"
        );
        ExitCode::FAILURE
    }
}
