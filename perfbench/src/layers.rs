//! The benchmark's metric catalog and the per-layer figures read from a
//! traced run.
//!
//! Per-layer metrics come from the telemetry registry the simulator
//! already fills (`cloudmedia_sim::telem`), from the event-driven
//! engine's [`DesReport`](cloudmedia_sim::DesReport), and from the
//! benchmark's own timing of the calls it makes. A layer that does not
//! run on a workload reports 0 for its metrics.

use cloudmedia_sim::config::SimConfig;
use cloudmedia_sim::telem;
use cloudmedia_sim::Metrics;
use cloudmedia_telemetry::{MetricId, Snapshot};

use crate::stats::{hist_quantile, median, ratio};
use crate::workloads::{RunOutput, Workload};

/// The end-to-end metrics, `(name, unit)`, reported on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_h_per_s", "sim-h/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("quality_mean", "ratio"),
    ("vm_cost_per_h", "USD/h"),
    ("provision_coverage", "ratio"),
    ("startup_delay_s", "s"),
];

/// The per-layer metrics, `(name, unit)`, reported by a traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.allocation_ms", "ms"),
    ("sim.advance_ms", "ms"),
    ("sim.events_ms", "ms"),
    ("sim.arrivals_ms", "ms"),
    ("sim.shard_step_ms", "ms"),
    ("sim.reduce_ms", "ms"),
    ("sim.sampling_ms", "ms"),
    ("sim.shard_wall_p50_ns", "ns"),
    ("sim.shard_wall_max_ns", "ns"),
    ("sim.lane_wall_p50_ns", "ns"),
    ("sim.lane_wall_max_ns", "ns"),
    ("sim.lane_imbalance", "ratio"),
    ("sim.ns_per_viewer_round", "ns"),
    ("sim.bytes_per_viewer", "B"),
    ("sim.quiesce_skipped_rounds", "count"),
    ("sim.quiesce_skip_share", "ratio"),
    ("sim.quiesce_dirty_exits", "count"),
    ("sim.rounds", "count"),
    ("sim.completed_chunks", "count"),
    ("sim.woken_peers", "count"),
    ("sim.arrivals_admitted", "count"),
    ("sim.peers_peak", "count"),
    ("sim.stage_sum_ratio", "ratio"),
    ("core.provisioning_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("core.plan_calls", "count"),
    ("core.plan_ms_per_call", "ms"),
    ("core.tracker_ms", "ms"),
    ("queueing.direct_solves", "count"),
    ("queueing.lu_factorizations", "count"),
    ("queueing.lu_solves", "count"),
    ("queueing.sm_updates", "count"),
    ("queueing.sm_fallbacks", "count"),
    ("queueing.sm_hit_ratio", "ratio"),
    ("cloud.submit_ms", "ms"),
    ("cloud.submits", "count"),
    ("cloud.retry_attempts", "count"),
    ("cloud.stage_ms", "ms"),
    ("workload.arrivals_generated", "count"),
    ("workload.arrival_stream_ms", "ms"),
    ("workload.arrivals_per_s", "1/s"),
    ("des.events_delivered", "count"),
    ("des.events_per_s", "1/s"),
    ("des.ns_per_event", "ns"),
    ("des.peak_pending", "count"),
    ("des.cancelled", "count"),
    ("des.recycled_slots", "count"),
    ("des.loop_ms", "ms"),
    ("des.admission_p50_s", "s"),
    ("des.admission_p99_s", "s"),
    ("des.admission_max_s", "s"),
    ("des.wait_fraction", "ratio"),
    ("des.erlang_c_wait_fraction", "ratio"),
    ("des.peer_requests", "count"),
    ("des.cloud_requests", "count"),
    ("telemetry.overhead_ratio", "ratio"),
    ("model.quality_err_fig5", "ratio"),
    ("model.vm_cost_err_fig10", "ratio"),
    ("model.des_quality_gap", "ratio"),
    ("model.des_bw_ratio", "ratio"),
];

/// The paper's P2P streaming quality (Fig. 5).
pub const FIG5_P2P_QUALITY: f64 = 0.95;
/// The paper's mean hourly P2P VM rental (Fig. 10), dollars.
pub const FIG10_P2P_VM_COST: f64 = 4.27;

/// The round-loop stages that partition a run, provisioning excluded
/// (it is taken from the unsampled `prov/interval` span instead of the
/// sampled `stage/provisioning` lap).
const LOOP_STAGES: [MetricId; 9] = [
    telem::STAGE_ARRIVALS,
    telem::STAGE_ALLOCATION,
    telem::STAGE_ADVANCE,
    telem::STAGE_EVENTS,
    telem::STAGE_CLOUD,
    telem::STAGE_SAMPLING,
    telem::STAGE_REDUCE,
    telem::STAGE_SHARD_STEP,
    telem::STAGE_REGION_STEP,
];

/// Stage sums above this share of the run's wall time are flagged: the
/// stage clocks then over-count somewhere.
pub const STAGE_SUM_FLAG: f64 = 1.05;

/// What the benchmark measured around one traced run.
#[derive(Debug)]
pub struct Traced<'a> {
    /// The workload.
    pub workload: Workload,
    /// Its configuration.
    pub config: &'a SimConfig,
    /// The registry after the traced run.
    pub snapshot: &'a Snapshot,
    /// The traced run's output.
    pub output: &'a RunOutput,
    /// The process's peak resident set, bytes.
    pub vm_hwm_bytes: u64,
    /// Arrivals the benchmark drew when it drained the workload's
    /// arrival stream…
    pub drained_arrivals: u64,
    /// …and how long that drain took, seconds.
    pub drain_seconds: f64,
}

fn ms(snap: &Snapshot, id: MetricId) -> f64 {
    snap.value(id) as f64 / 1e6
}

fn count(snap: &Snapshot, id: MetricId) -> f64 {
    snap.value(id) as f64
}

/// Σ of the partitioning stages ÷ the run's wall time, with
/// provisioning taken from `provisioning` (a metric id).
pub fn stage_sum_ratio(snap: &Snapshot, provisioning: MetricId) -> f64 {
    let sum: u64 = LOOP_STAGES.iter().map(|&id| snap.value(id)).sum();
    ratio(
        (sum + snap.value(provisioning)) as f64,
        snap.value(telem::RUN_WALL) as f64,
    )
}

/// Every per-layer metric that one traced run yields: all but
/// `telemetry.overhead_ratio`, which compares traced with untraced
/// runs, and the `model.*` group, which needs the reference run
/// ([`model_metrics`]).
pub fn layer_metrics(t: &Traced) -> Vec<(&'static str, f64)> {
    let s = t.snapshot;
    let m = &t.output.metrics;
    let sharded = t.workload.sharded();
    let des = t.output.des_report.as_ref();

    // Sampled per-shard wall times, from the `shards` table.
    let shard_walls: Vec<f64> = s
        .tables()
        .iter()
        .filter(|table| table.name == "shards")
        .flat_map(|table| table.rows.iter().map(|row| row[1] as f64))
        .collect();
    let shard_max = shard_walls.iter().copied().fold(0.0, f64::max);
    let lanes = s.buckets(telem::HIST_LANE_WALL);
    let (lane_p50, lane_max) = (hist_quantile(lanes, 0.5), hist_quantile(lanes, 1.0));

    // Per-viewer work ÷ viewer-rounds, viewer-rounds estimated from the
    // sampled active population.
    let viewer_work_ns: u64 = [
        telem::STAGE_SHARD_STEP,
        telem::STAGE_ARRIVALS,
        telem::STAGE_ALLOCATION,
        telem::STAGE_ADVANCE,
        telem::STAGE_EVENTS,
    ]
    .iter()
    .map(|&id| s.value(id))
    .sum();
    let rounds_per_sample = t.config.sample_interval / t.config.round_seconds;
    let viewer_rounds: f64 = m
        .samples
        .iter()
        .map(|x| x.active_peers as f64 * rounds_per_sample)
        .sum();
    let channel_rounds = count(s, telem::ROUNDS) * t.config.catalog.len() as f64;

    let plan_calls = m.intervals.len() as f64;
    let sm_updates = count(s, telem::SOLVER_SM_UPDATE);
    let sm_fallbacks = count(s, telem::SOLVER_SM_FALLBACK);
    let events = count(s, telem::DES_EVENTS);
    let des_loop_ms = if des.is_some() {
        ms(s, telem::STAGE_EVENTS)
    } else {
        0.0
    };
    let des_f = |f: &dyn Fn(&cloudmedia_sim::DesReport) -> f64| des.map_or(0.0, f);

    vec![
        ("sim.allocation_ms", ms(s, telem::STAGE_ALLOCATION)),
        ("sim.advance_ms", ms(s, telem::STAGE_ADVANCE)),
        (
            "sim.events_ms",
            if des.is_some() {
                0.0
            } else {
                ms(s, telem::STAGE_EVENTS)
            },
        ),
        ("sim.arrivals_ms", ms(s, telem::STAGE_ARRIVALS)),
        ("sim.shard_step_ms", ms(s, telem::STAGE_SHARD_STEP)),
        ("sim.reduce_ms", ms(s, telem::STAGE_REDUCE)),
        ("sim.sampling_ms", ms(s, telem::STAGE_SAMPLING)),
        ("sim.shard_wall_p50_ns", median(&shard_walls)),
        ("sim.shard_wall_max_ns", shard_max),
        ("sim.lane_wall_p50_ns", lane_p50),
        ("sim.lane_wall_max_ns", lane_max),
        ("sim.lane_imbalance", ratio(lane_max, lane_p50)),
        (
            "sim.ns_per_viewer_round",
            ratio(viewer_work_ns as f64, viewer_rounds),
        ),
        (
            "sim.bytes_per_viewer",
            ratio(t.vm_hwm_bytes as f64, m.peak_peers() as f64),
        ),
        (
            "sim.quiesce_skipped_rounds",
            count(s, telem::QUIESCE_ROUNDS_SKIPPED),
        ),
        (
            "sim.quiesce_skip_share",
            if sharded {
                ratio(count(s, telem::QUIESCE_ROUNDS_SKIPPED), channel_rounds)
            } else {
                0.0
            },
        ),
        (
            "sim.quiesce_dirty_exits",
            count(s, telem::QUIESCE_DIRTY_CHANNELS),
        ),
        ("sim.rounds", count(s, telem::ROUNDS)),
        ("sim.completed_chunks", count(s, telem::COMPLETED_CHUNKS)),
        ("sim.woken_peers", count(s, telem::WOKEN_PEERS)),
        ("sim.arrivals_admitted", count(s, telem::ARRIVALS_ADMITTED)),
        ("sim.peers_peak", count(s, telem::PEERS_PEAK)),
        (
            "sim.stage_sum_ratio",
            stage_sum_ratio(s, telem::PROV_INTERVAL),
        ),
        ("core.provisioning_ms", ms(s, telem::PROV_INTERVAL)),
        ("core.plan_ms", ms(s, telem::PROV_PLAN)),
        ("core.plan_calls", plan_calls),
        (
            "core.plan_ms_per_call",
            ratio(ms(s, telem::PROV_PLAN), plan_calls),
        ),
        ("core.tracker_ms", ms(s, telem::PROV_TRACKER)),
        ("queueing.direct_solves", count(s, telem::SOLVER_DIRECT)),
        (
            "queueing.lu_factorizations",
            count(s, telem::SOLVER_LU_FACTOR),
        ),
        ("queueing.lu_solves", count(s, telem::SOLVER_LU_SOLVE)),
        ("queueing.sm_updates", sm_updates),
        ("queueing.sm_fallbacks", sm_fallbacks),
        (
            "queueing.sm_hit_ratio",
            ratio(sm_updates, sm_updates + sm_fallbacks),
        ),
        ("cloud.submit_ms", ms(s, telem::PROV_SUBMIT)),
        ("cloud.submits", count(s, telem::BROKER_SUBMITS)),
        (
            "cloud.retry_attempts",
            count(s, telem::FAULT_RETRY_ATTEMPTS),
        ),
        ("cloud.stage_ms", ms(s, telem::STAGE_CLOUD)),
        (
            "workload.arrivals_generated",
            count(s, telem::ARRIVALS_GENERATED),
        ),
        ("workload.arrival_stream_ms", t.drain_seconds * 1e3),
        (
            "workload.arrivals_per_s",
            ratio(t.drained_arrivals as f64, t.drain_seconds),
        ),
        ("des.events_delivered", events),
        ("des.events_per_s", count(s, telem::DES_EVENTS_PER_SEC)),
        ("des.ns_per_event", ratio(des_loop_ms * 1e6, events)),
        ("des.peak_pending", count(s, telem::DES_PEAK_PENDING)),
        ("des.cancelled", count(s, telem::DES_CANCELLED)),
        ("des.recycled_slots", count(s, telem::DES_RECYCLED)),
        ("des.loop_ms", des_loop_ms),
        ("des.admission_p50_s", des_f(&|r| r.admission_latency.p50)),
        ("des.admission_p99_s", des_f(&|r| r.admission_latency.p99)),
        ("des.admission_max_s", des_f(&|r| r.admission_latency.max)),
        ("des.wait_fraction", des_f(&|r| r.measured_wait_fraction)),
        (
            "des.erlang_c_wait_fraction",
            des_f(&|r| r.predicted_wait_fraction),
        ),
        ("des.peer_requests", des_f(&|r| r.peer_requests as f64)),
        ("des.cloud_requests", des_f(&|r| r.cloud_requests as f64)),
    ]
}

/// The `model.*` accuracy metrics: the paper-scale P2P workloads
/// against the paper's Fig. 5 / Fig. 10 values, and `des_week` against
/// its Indexed reference on the same seed. 0 where they do not apply.
pub fn model_metrics(
    workload: Workload,
    measured: &Metrics,
    reference: &Metrics,
) -> Vec<(&'static str, f64)> {
    let paper_p2p = matches!(workload, Workload::PaperWeek | Workload::DesWeek);
    let des = workload == Workload::DesWeek;
    let if_then = |cond: bool, v: f64| if cond { v } else { 0.0 };
    vec![
        (
            "model.quality_err_fig5",
            if_then(
                paper_p2p,
                (measured.mean_quality() - FIG5_P2P_QUALITY).abs(),
            ),
        ),
        (
            "model.vm_cost_err_fig10",
            if_then(
                paper_p2p,
                (measured.mean_vm_hourly_cost() - FIG10_P2P_VM_COST).abs() / FIG10_P2P_VM_COST,
            ),
        ),
        (
            "model.des_quality_gap",
            if_then(des, reference.mean_quality() - measured.mean_quality()),
        ),
        (
            "model.des_bw_ratio",
            if_then(
                des,
                ratio(
                    measured.mean_used_bandwidth(),
                    reference.mean_used_bandwidth(),
                ),
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the
    /// workloads and metrics this crate reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let text = include_str!("../../BENCHMARK.json");
        let doc: serde::Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            let Some(serde::Value::Array(items)) = doc.get(key) else {
                panic!("BENCHMARK.json lacks {key}");
            };
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| match m.get(f) {
                        Some(serde::Value::String(s)) => s.clone(),
                        _ => String::new(),
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |catalog: &[(&str, &str)]| -> Vec<(String, String)> {
            catalog
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), own(END_TO_END));
        assert_eq!(list("per_layer"), own(PER_LAYER));
        let names: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<String> = Workload::BENCHMARKED
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(name, _)| name)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
