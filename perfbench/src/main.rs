//! The CloudMedia benchmark's command line.
//!
//! ```text
//! perfbench bench --workload <name|all> --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of each workload,
//! with `--trace 1` the per-layer metrics of a traced run. The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is non-zero when
//! any output check failed. Each workload's full record (provenance,
//! every repetition, every check) is written to `perfbench/results/` as
//! JSON.
//!
//! Every measured phase runs in a child process of this binary (the
//! hidden `child` subcommand), one at a time, so each peak-memory
//! reading comes from a fresh process.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use cloudmedia_sim::Metrics;
use perfbench::check;
use perfbench::child::{self, obj};
use perfbench::layers::{self, END_TO_END, PER_LAYER, STAGE_SUM_FLAG};
use perfbench::stats::{mean, median};
use perfbench::workloads::{panel_seed, Workload};
use serde::{Deserialize, Value};

/// Pool width of the Sharded workloads unless `RAYON_NUM_THREADS` asks
/// for another; never more than the host's cores.
const DEFAULT_POOL_THREADS: usize = 2;

/// Where each workload's full record is written, relative to the
/// repository root.
const RESULTS_DIR: &str = "perfbench/results";

#[derive(Debug)]
struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("child") => run_child(&argv[1..]),
        Some("bench") => parse(&argv[1..]).and_then(|opts| bench(&opts)),
        _ => Err(usage()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}

fn usage() -> String {
    "usage: perfbench bench --workload <paper_week|million_steady|flash_crowd_1ch|des_week|all> \
     --seed N --seconds S --trace 0|1"
        .into()
}

fn parse(argv: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workloads: Workload::BENCHMARKED.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("bad {flag} value `{value}`: {what}\n{}", usage());
        match flag.as_str() {
            "--workload" if value == "all" => opts.workloads = Workload::BENCHMARKED.to_vec(),
            "--workload" => {
                opts.workloads =
                    vec![Workload::from_name(value).ok_or_else(|| bad("unknown workload"))?]
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("not an integer"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err(bad("must be positive"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    Ok(opts)
}

/// `child run <workload> <seed> <traced 0|1>` or
/// `child reference <workload> <seed>`: one phase, its JSON document
/// on standard output.
fn run_child(argv: &[String]) -> Result<ExitCode, String> {
    let (phase, workload, seed, traced) = match argv {
        [phase, workload, seed] => (phase, workload, seed, "0"),
        [phase, workload, seed, traced] => (phase, workload, seed, traced.as_str()),
        _ => return Err("child needs <phase> <workload> <seed> [<traced>]".into()),
    };
    let w = Workload::from_name(workload).ok_or("unknown workload")?;
    let seed: u64 = seed.parse().map_err(|_| "bad seed")?;
    let doc = match phase.as_str() {
        "run" => child::run_once(w, seed, traced == "1"),
        "reference" => child::reference(w, seed),
        _ => return Err(format!("unknown phase {phase}")),
    };
    println!("{}", serde_json::to_string(&doc).expect("serializes"));
    Ok(ExitCode::SUCCESS)
}

/// What the host and build look like, recorded with every result.
struct Provenance {
    nproc: usize,
    pool_threads: usize,
    commit: String,
    source_fnv64: String,
    rustc: String,
}

fn provenance() -> Result<Provenance, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool_threads = match std::env::var("RAYON_NUM_THREADS") {
        Ok(v) => v
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("RAYON_NUM_THREADS=`{v}` is not a positive integer"))?,
        Err(_) => DEFAULT_POOL_THREADS.min(nproc),
    };
    if pool_threads > nproc {
        return Err(format!(
            "refusing to run: {pool_threads} pool threads on a host with {nproc} cores \
             would measure time-slicing, not the program"
        ));
    }
    let output = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    Ok(Provenance {
        nproc,
        pool_threads,
        commit: output("git", &["rev-parse", "HEAD"])
            .unwrap_or_else(|| "unknown (not a git checkout)".into()),
        source_fnv64: format!("{:016x}", source_digest()),
        rustc: output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
    })
}

/// FNV-1a over the paths and bytes of the program's sources, so a
/// result can be tied to its code where no git metadata exists.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
            {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for dir in ["crates", "vendor", "perfbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Runs one phase in a child process (waiting for it to end) and
/// parses its document. A phase that reports an error, crashes or runs
/// on another pool width than asked is an error.
fn spawn(args: &[&str], threads: usize) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let what = args.join(" ");
    let out = Command::new(exe)
        .arg("child")
        .args(args)
        .env("RAYON_NUM_THREADS", threads.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting `{what}`: {e}"))?;
    if !out.status.success() {
        return Err(format!("`{what}` {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("`{what}` output: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("`{what}` output: {e}"))?;
    if let Some(Value::String(e)) = doc.get("error") {
        return Err(format!("`{what}`: {e}"));
    }
    match doc.get("pool_threads").and_then(as_u64) {
        Some(n) if n as usize != threads => {
            Err(format!("`{what}` ran {n} pool threads, not {threads}"))
        }
        _ => Ok(doc),
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(n) => Some(*n),
        _ => None,
    }
}

fn number(doc: &Value, key: &str) -> f64 {
    doc.get(key)
        .and_then(|v| f64::from_value(v).ok())
        .unwrap_or(f64::NAN)
}

fn floats(doc: &Value, key: &str) -> Vec<f64> {
    match doc.get(key) {
        Some(Value::Array(xs)) => xs.iter().filter_map(|x| f64::from_value(x).ok()).collect(),
        _ => Vec::new(),
    }
}

/// Counts operations (workload runs) and the ones that failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, e: String) {
        eprintln!("perfbench: check failed: {e}");
        self.failed += 1;
        self.errors.push(e);
    }

    /// One run: its document and metrics, or a failed operation.
    fn run(&mut self, doc: Result<Value, String>) -> Option<(Value, Metrics)> {
        self.attempted += 1;
        let parsed = doc.and_then(|doc| {
            let m = doc
                .get("metrics")
                .ok_or("no metrics".to_string())
                .and_then(|m| Metrics::from_value(m).map_err(|e| e.to_string()))?;
            Ok((doc, m))
        });
        parsed.map_err(|e| self.fail(e)).ok()
    }

    /// Checks a repetition against the first run of the same seed.
    fn same(&mut self, what: &str, first: &Metrics, m: &Metrics) {
        if let Err(e) = check::identical(first, m) {
            self.fail(format!("{what}: {e}"));
        }
    }

    /// Runs the workload's reference and checks `measured` against it.
    /// Returns the reference metrics and the reference run's wall time.
    fn reference(
        &mut self,
        w: Workload,
        seed: u64,
        threads: usize,
        measured: Option<&Metrics>,
    ) -> Option<(Metrics, f64)> {
        let (doc, reference) =
            self.run(spawn(&["reference", w.name(), &seed.to_string()], threads))?;
        let run_s = number(&doc, "run_s");
        let measured = measured?;
        let verdict = if w == Workload::DesWeek {
            check::des_within_tolerance(measured, &reference)
        } else {
            check::identical(&reference, measured)
        };
        if let Err(e) = verdict {
            self.fail(format!("{} disagrees with its reference: {e}", w.name()));
        }
        Some((reference, run_s))
    }
}

/// One workload's result: its metrics and its full record.
struct Outcome {
    tally: Tally,
    metrics: Vec<(&'static str, &'static str, f64)>,
    record: Value,
}

/// Whether one more of the `done` steps taken since `start` fits in
/// `seconds`, at their mean duration so far.
fn fits_another(start: Instant, done: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed + elapsed / done as f64 <= seconds
}

/// The end-to-end run: fresh processes in a closed loop of one, cycling
/// through the workload's panel of seeds while another run fits in
/// `seconds`, and at least until every panel seed ran, the first one
/// twice. `sim_h_per_s` is timed in CPU seconds of the run call, so the
/// seconds a shared host steals from the run's vCPU do not count.
fn end_to_end(w: Workload, seed: u64, seconds: f64, threads: usize) -> Outcome {
    let mut tally = Tally::default();
    let panel = w.panel();
    let mut firsts: Vec<Option<Metrics>> = vec![None; panel];
    let mut hwm: Vec<Vec<f64>> = vec![Vec::new(); panel];
    let (mut setups, mut rates, mut runs) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut k = 0;
    while k <= panel || fits_another(start, k, seconds) {
        let j = k % panel;
        k += 1;
        let s = panel_seed(seed, j);
        let doc = spawn(&["run", w.name(), &s.to_string(), "0"], threads);
        let Some((doc, m)) = tally.run(doc) else {
            continue;
        };
        let (run_s, run_cpu_s) = (number(&doc, "run_s"), number(&doc, "run_cpu_s"));
        setups.extend(floats(&doc, "setup_s"));
        rates.push(w.sim_hours() / run_cpu_s);
        hwm[j].push(number(&doc, "vm_hwm_bytes") / (1u64 << 20) as f64);
        runs.push(obj([
            ("panel_seed", Value::UInt(s)),
            ("run_s", Value::Float(run_s)),
            ("run_cpu_s", Value::Float(run_cpu_s)),
            (
                "steal_s",
                doc.get("steal_s").cloned().unwrap_or(Value::Null),
            ),
            (
                "vm_hwm_bytes",
                doc.get("vm_hwm_bytes").cloned().unwrap_or(Value::Null),
            ),
            (
                "metrics_fnv64",
                Value::String(format!("{:016x}", check::digest(&m))),
            ),
        ]));
        match &firsts[j] {
            Some(first) => tally.same(&format!("{} repetition {k}", w.name()), first, &m),
            None => firsts[j] = Some(m),
        }
    }
    let reference = tally.reference(w, panel_seed(seed, 0), threads, firsts[0].as_ref());

    let seeds: Vec<&Metrics> = firsts.iter().flatten().collect();
    let over_seeds = |f: fn(&Metrics) -> f64| mean(&seeds.iter().map(|m| f(m)).collect::<Vec<_>>());
    let rss: Vec<f64> = hwm
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| mean(v))
        .collect();
    let values = [
        median(&rates),
        median(&setups),
        mean(&rss),
        over_seeds(Metrics::mean_quality),
        over_seeds(Metrics::mean_vm_hourly_cost),
        over_seeds(Metrics::provision_coverage),
        over_seeds(Metrics::mean_startup_delay),
    ];
    let metrics: Vec<_> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect();
    if tally.failed == 0 {
        for &(name, _, v) in &metrics {
            if !(v.is_finite() && v > 0.0) {
                tally.fail(format!(
                    "{} {name} = {v} is not a positive number",
                    w.name()
                ));
            }
        }
    }
    let record = obj([
        ("panel", Value::UInt(panel as u64)),
        ("runs", Value::Array(runs)),
        ("setups_timed", Value::UInt(setups.len() as u64)),
        ("reference_run_s", reference_run_s(&reference)),
    ]);
    Outcome {
        tally,
        metrics,
        record,
    }
}

/// The reference run's wall time for the record (`null` if it failed).
fn reference_run_s(reference: &Option<(Metrics, f64)>) -> Value {
    reference
        .as_ref()
        .map_or(Value::Null, |&(_, s)| Value::Float(s))
}

/// The traced run: untraced and traced runs of the first panel seed in
/// alternating fresh processes, at least twice and while another pair
/// fits in `seconds`. Every run must match the first bit for bit; the
/// per-layer figures come from the traced run with the median CPU
/// time.
fn traced(w: Workload, seed: u64, seconds: f64, threads: usize) -> Outcome {
    let mut tally = Tally::default();
    let s = panel_seed(seed, 0).to_string();
    let mut first: Option<Metrics> = None;
    let (mut plain_s, mut traced_docs) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while traced_docs.len() < 2 || fits_another(start, traced_docs.len(), seconds) {
        let n = traced_docs.len() + 1;
        let plain = tally.run(spawn(&["run", w.name(), &s, "0"], threads));
        let live = tally.run(spawn(&["run", w.name(), &s, "1"], threads));
        let (Some((plain, pm)), Some((live, lm))) = (plain, live) else {
            break;
        };
        let base = first.get_or_insert(pm.clone());
        tally.same(&format!("{} untraced run {n}", w.name()), base, &pm);
        tally.same(&format!("{} traced run {n}", w.name()), base, &lm);
        plain_s.push(number(&plain, "run_cpu_s"));
        traced_docs.push(live);
    }
    let reference = tally.reference(w, panel_seed(seed, 0), threads, first.as_ref());

    let traced_s: Vec<f64> = traced_docs.iter().map(|d| number(d, "run_cpu_s")).collect();
    let mut order: Vec<usize> = (0..traced_docs.len()).collect();
    order.sort_by(|&a, &b| traced_s[a].total_cmp(&traced_s[b]));
    let doc = order
        .get(order.len() / 2)
        .map_or(Value::Null, |&i| traced_docs[i].clone());
    let mut values: Vec<(String, f64)> = match doc.get("layers") {
        Some(Value::Object(fields)) => fields
            .iter()
            .map(|(k, v)| (k.clone(), f64::from_value(v).unwrap_or(f64::NAN)))
            .collect(),
        _ => Vec::new(),
    };
    if !traced_s.is_empty() {
        let overhead = median(&traced_s) / median(&plain_s) - 1.0;
        values.push(("telemetry.overhead_ratio".into(), overhead));
    }
    if let (Some(m), Some((r, _))) = (&first, &reference) {
        values.extend(
            layers::model_metrics(w, m, r)
                .into_iter()
                .map(|(k, v)| (k.to_string(), v)),
        );
    }
    let mut metrics = Vec::new();
    for &(name, unit) in PER_LAYER {
        match values.iter().find(|(k, _)| k == name) {
            Some(&(_, v)) if v.is_finite() => metrics.push((name, unit, v)),
            _ if tally.failed == 0 => {
                tally.fail(format!("{} traced run did not report {name}", w.name()))
            }
            _ => {}
        }
    }
    let stage_sum = values
        .iter()
        .find(|(k, _)| k == "sim.stage_sum_ratio")
        .map_or(0.0, |&(_, v)| v);
    let flagged = stage_sum > STAGE_SUM_FLAG;
    if flagged {
        eprintln!(
            "perfbench: flag: {} stages sum to {:.1} % of the run's wall time (> {:.0} %)",
            w.name(),
            stage_sum * 100.0,
            STAGE_SUM_FLAG * 100.0
        );
    }
    let record = obj([
        ("untraced_cpu_s", child::floats(&plain_s)),
        ("traced_cpu_s", child::floats(&traced_s)),
        (
            "vm_hwm_bytes",
            doc.get("vm_hwm_bytes").cloned().unwrap_or(Value::Null),
        ),
        ("stage_sum_flagged", Value::Bool(flagged)),
        (
            "diagnostics",
            doc.get("diagnostics").cloned().unwrap_or(Value::Null),
        ),
        ("reference_run_s", reference_run_s(&reference)),
    ]);
    Outcome {
        tally,
        metrics,
        record,
    }
}

fn bench(opts: &Opts) -> Result<ExitCode, String> {
    let prov = provenance()?;
    let out_dir = Path::new(RESULTS_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {RESULTS_DIR}: {e}"))?;
    let single = opts.workloads.len() == 1;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut all_metrics = Vec::new();
    let mut table = String::new();
    for &w in &opts.workloads {
        let threads = if w.uses_pool() { prov.pool_threads } else { 1 };
        let outcome = if opts.trace {
            traced(w, opts.seed, opts.seconds, threads)
        } else {
            end_to_end(w, opts.seed, opts.seconds, threads)
        };
        attempted += outcome.tally.attempted;
        failed += outcome.tally.failed;
        let _ = writeln!(
            table,
            "{} (seed {}, {} pool thread{}):",
            w.name(),
            opts.seed,
            threads,
            if threads == 1 { "" } else { "s" }
        );
        for &(name, unit, v) in &outcome.metrics {
            let _ = writeln!(table, "  {name:<28} {v:>16.6} {unit}");
            let key = if single {
                name.to_string()
            } else {
                format!("{}:{name}", w.name())
            };
            all_metrics.push((
                key,
                obj([
                    ("value", Value::Float(v)),
                    ("unit", Value::String(unit.into())),
                ]),
            ));
        }
        let record = obj([
            ("workload", Value::String(w.name().into())),
            ("seed", Value::UInt(opts.seed)),
            ("trace", Value::Bool(opts.trace)),
            ("seconds", Value::Float(opts.seconds)),
            ("nproc", Value::UInt(prov.nproc as u64)),
            ("pool_threads", Value::UInt(threads as u64)),
            ("commit", Value::String(prov.commit.clone())),
            ("source_fnv64", Value::String(prov.source_fnv64.clone())),
            ("rustc", Value::String(prov.rustc.clone())),
            ("attempted", Value::UInt(outcome.tally.attempted)),
            ("failed", Value::UInt(outcome.tally.failed)),
            (
                "errors",
                Value::Array(
                    outcome
                        .tally
                        .errors
                        .into_iter()
                        .map(Value::String)
                        .collect(),
                ),
            ),
            (
                "metrics",
                obj(outcome
                    .metrics
                    .iter()
                    .map(|&(k, _, v)| (k, Value::Float(v)))),
            ),
            ("detail", outcome.record),
        ]);
        let path = out_dir.join(format!(
            "{}-seed{}-trace{}.json",
            w.name(),
            opts.seed,
            u8::from(opts.trace)
        ));
        let text = serde_json::to_string_pretty(&record).expect("serializes");
        std::fs::write(&path, text + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    print!("{table}");
    let summary = Value::Object(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), Value::Object(all_metrics)),
    ]);
    println!("{}", serde_json::to_string(&summary).expect("serializes"));
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
