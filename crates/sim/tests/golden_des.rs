//! Golden-run pinning for the event-driven engine.
//!
//! Three paper-config runs — a 12 h P2P week slice, a 12 h C/S slice,
//! and an 8 h P2P scenario combining a VM failure burst with repair, a
//! sub-round flash crowd and remote overflow — are pinned bit for bit:
//! the full `Metrics`, the fault-plane counters, and every `DesReport`
//! field except the kernel-health counters (how the event queue did the
//! work, not what the model computed). Each run executes under both
//! event-queue schedulers, which must agree with each other and with
//! the committed fixture.
//!
//! To re-bless after an *intentional* behavior change:
//!
//! ```text
//! CLOUDMEDIA_BLESS=1 cargo test -p cloudmedia-sim --test golden_des
//! ```
//!
//! and commit the rewritten `tests/fixtures/des_*.json` files with the
//! change that required them.

use std::path::PathBuf;

use cloudmedia_sim::config::{SchedulerChoice, SimConfig, SimMode};
use cloudmedia_sim::event_driven::{
    run, DesRun, DesScenario, FlashCrowdSpec, RemoteOverflowSpec, VmFailureSpec,
};
use serde::{Serialize, Value};

/// `DesReport` fields left out of the golden: the kernel's own health
/// gauges, which move whenever the engine schedules a different number
/// of events for the same modelled work.
const KERNEL_COUNTERS: [&str; 3] = ["events_delivered", "peak_pending_events", "recycled_slots"];

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn blessing() -> bool {
    std::env::var_os("CLOUDMEDIA_BLESS").is_some()
}

fn paper_cfg(mode: SimMode, hours: f64) -> SimConfig {
    let mut cfg = SimConfig::paper_default(mode);
    cfg.trace.horizon_seconds = hours * 3600.0;
    cfg
}

/// The pinned part of a run as pretty JSON. Floats print in shortest
/// round-trip form, so equal text means bit-identical values.
fn pinned_json(run: &DesRun) -> String {
    let mut value = run.to_value();
    if let Value::Object(fields) = &mut value {
        for (key, field) in fields.iter_mut() {
            if let (true, Value::Object(report)) = (key == "report", field) {
                report.retain(|(k, _)| !KERNEL_COUNTERS.contains(&k.as_str()));
            }
        }
    }
    serde_json::to_string_pretty(&value).unwrap() + "\n"
}

/// Runs `cfg` under `scenario` with both schedulers, checks they agree,
/// and compares the result against the committed golden (or rewrites it
/// under `CLOUDMEDIA_BLESS=1`). Returns the wheel run for scenario
/// checks.
fn assert_matches_golden(mut cfg: SimConfig, scenario: &DesScenario, file: &str) -> DesRun {
    cfg.scheduler = SchedulerChoice::Heap;
    let heap = run(&cfg, scenario).unwrap();
    cfg.scheduler = SchedulerChoice::Wheel;
    let wheel = run(&cfg, scenario).unwrap();
    let got = pinned_json(&wheel);
    assert!(
        pinned_json(&heap) == got,
        "{file}: heap and wheel schedulers disagree"
    );
    let path = fixture_path(file);
    if blessing() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return wheel;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {file} ({e}); run with CLOUDMEDIA_BLESS=1"));
    if let Some((line, (w, g))) = want
        .lines()
        .zip(got.lines())
        .enumerate()
        .find(|(_, (w, g))| w != g)
    {
        panic!(
            "{file}: run diverged from the committed golden at line {}:\n  \
             golden: {w}\n  run:    {g}\n(re-bless only for intentional behavior changes)",
            line + 1
        );
    }
    assert_eq!(
        want.lines().count(),
        got.lines().count(),
        "{file}: run and golden differ in length"
    );
    wheel
}

#[test]
fn p2p_half_day_matches_the_golden() {
    let run = assert_matches_golden(
        paper_cfg(SimMode::P2p, 12.0),
        &DesScenario::default(),
        "des_p2p_12h.json",
    );
    assert!(run.report.peer_requests > 0, "the mesh served nothing");
    assert!(
        run.metrics.mean_quality() < 1.0,
        "the pinned P2P slice should keep some shortfall visible"
    );
}

#[test]
fn client_server_half_day_matches_the_golden() {
    let run = assert_matches_golden(
        paper_cfg(SimMode::ClientServer, 12.0),
        &DesScenario::default(),
        "des_cs_12h.json",
    );
    assert_eq!(run.report.peer_requests, 0);
    assert!(run.report.cloud_requests > 0);
}

#[test]
fn failure_flash_crowd_and_overflow_scenario_matches_the_golden() {
    let scenario = DesScenario {
        failures: vec![VmFailureSpec {
            at: 5.25 * 3600.0,
            fraction: 0.6,
            recovery_seconds: 900.0,
        }],
        flash_crowds: vec![FlashCrowdSpec {
            at: 3.0 * 3600.0 + 17.0,
            channel: 0,
            extra_viewers: 400,
            window_seconds: 60.0,
        }],
        remote_overflow: Some(RemoteOverflowSpec {
            capacity_bps: 50e6,
            extra_latency_seconds: 2.0,
        }),
        ..DesScenario::default()
    };
    let run = assert_matches_golden(paper_cfg(SimMode::P2p, 8.0), &scenario, "des_scenario.json");
    // The scenario exercises every injection path it pins.
    assert!(run.report.vms_killed > 0, "the failure killed nothing");
    assert!(
        run.fault_stats.vms_recovered > 0,
        "the repair relaunched nothing"
    );
    assert_eq!(run.report.injected_viewers, 400);
    assert!(
        run.report.redirected_requests > 0,
        "nothing overflowed remotely"
    );
}
