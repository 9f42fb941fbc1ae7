//! The phases the benchmark runs in child processes. Each measured run
//! gets a fresh process, as a user's one-shot simulation would: its
//! wall time includes the allocator's cold start and its peak resident
//! set (`VmHWM`) belongs to that one run. A phase prints one JSON
//! document on standard output for the parent to parse.

use std::hint::black_box;
use std::time::Instant;

use cloudmedia_sim::{peak_rss_bytes, telem};
use cloudmedia_telemetry::Telemetry;
use cloudmedia_workload::trace::{ArrivalStream, ChannelArrivals};
use serde::{Serialize, Value};

use crate::host;
use crate::layers::{self, Traced};
use crate::workloads::{Prepared, Workload};

/// Set-ups timed per run process; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// Builds a JSON object from `(key, value)` pairs.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A JSON array of numbers.
pub fn floats(v: &[f64]) -> Value {
    Value::Array(v.iter().map(|&x| Value::Float(x)).collect())
}

fn failed(e: impl std::fmt::Display) -> Value {
    obj([("error", Value::String(e.to_string()))])
}

/// Times `SETUP_REPS` set-ups, then runs the workload once — against a
/// live telemetry registry when `traced` — and reports the CPU time and
/// the wall time of the run call, the steal time meanwhile, the peak
/// resident set, the metrics and, when traced, the per-layer figures.
pub fn run_once(w: Workload, seed: u64, traced: bool) -> Value {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let p = black_box(w.setup(seed));
        setup_s.push(t.elapsed().as_secs_f64());
        match p {
            Ok(p) => prepared = Some(p),
            Err(e) => return failed(format!("set-up failed: {e}")),
        }
    }
    let prepared = prepared.expect("at least one set-up ran");
    let tel = if traced {
        telem::new_registry(false)
    } else {
        Telemetry::disabled()
    };
    let (cpu0, steal0) = (host::process_cpu_ns(), host::steal_s());
    let t = Instant::now();
    let out = prepared.run(&tel);
    let run_s = t.elapsed().as_secs_f64();
    let run_cpu_s = match (cpu0, host::process_cpu_ns()) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64 * 1e-9,
        _ => return failed("no per-thread CPU time (/proc/self/task/*/schedstat) on this host"),
    };
    let steal_s = host::steal_s() - steal0;
    let vm_hwm_bytes = peak_rss_bytes().unwrap_or(0);
    let out = match out {
        Ok(out) => out,
        Err(e) => return failed(format!("run failed: {e}")),
    };
    let mut fields = vec![
        ("setup_s", floats(&setup_s)),
        ("run_s", Value::Float(run_s)),
        ("run_cpu_s", Value::Float(run_cpu_s)),
        ("steal_s", Value::Float(steal_s)),
        ("vm_hwm_bytes", Value::UInt(vm_hwm_bytes)),
        (
            "pool_threads",
            Value::UInt(rayon::current_num_threads() as u64),
        ),
    ];
    if traced {
        // The drain runs after the measured run so it cannot warm it.
        let (drained, drain_s) = match drain_arrivals(w, &prepared) {
            Ok(d) => d,
            Err(e) => return failed(format!("arrival drain failed: {e}")),
        };
        let snap = tel.snapshot();
        let layer = layers::layer_metrics(&Traced {
            workload: w,
            config: prepared.config(),
            snapshot: &snap,
            output: &out,
            vm_hwm_bytes,
            drained_arrivals: drained,
            drain_seconds: drain_s,
        });
        let ms = |id| Value::Float(snap.value(id) as f64 / 1e6);
        fields.push((
            "layers",
            obj(layer.iter().map(|&(k, v)| (k, Value::Float(v)))),
        ));
        fields.push((
            "diagnostics",
            obj([
                ("run_ms", ms(telem::RUN_WALL)),
                ("prov_interval_ms", ms(telem::PROV_INTERVAL)),
                (
                    "stage_provisioning_sampled_ms",
                    ms(telem::STAGE_PROVISIONING),
                ),
                (
                    "stage_sum_ratio_with_sampled_provisioning",
                    Value::Float(layers::stage_sum_ratio(&snap, telem::STAGE_PROVISIONING)),
                ),
            ]),
        ));
    }
    fields.push(("metrics", out.metrics.to_value()));
    obj(fields)
}

/// Runs the workload's reference once, timing the call for the record.
pub fn reference(w: Workload, seed: u64) -> Value {
    let t = Instant::now();
    match w.reference(seed) {
        Ok(m) => obj([
            ("run_s", Value::Float(t.elapsed().as_secs_f64())),
            ("metrics", m.to_value()),
        ]),
        Err(e) => failed(format!("reference run failed: {e}")),
    }
}

/// Times a drain of the workload's arrival process: the merged
/// [`ArrivalStream`] for the single-coordinator engines, every
/// channel's [`ChannelArrivals`] for the Sharded ones. Returns the
/// arrival count and the seconds it took.
fn drain_arrivals(w: Workload, p: &Prepared) -> Result<(u64, f64), String> {
    let cfg = p.config();
    let t = Instant::now();
    let n = if w.sharded() {
        let mut n = 0u64;
        for spec in cfg.catalog.channels() {
            n += ChannelArrivals::new(spec, &cfg.trace)
                .map_err(|e| e.to_string())?
                .count() as u64;
        }
        n
    } else {
        ArrivalStream::new(&cfg.catalog, &cfg.trace)
            .map_err(|e| e.to_string())?
            .count() as u64
    };
    Ok((black_box(n), t.elapsed().as_secs_f64()))
}
