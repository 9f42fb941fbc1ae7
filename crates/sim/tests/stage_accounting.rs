//! `stage/provisioning` is an exact, unsampled total. The other round
//! stages are timed on one round in `STAGE_TIME_SAMPLE` and scaled up,
//! and the sampled rounds always include round 0, which carries the
//! bootstrap provisioning boundary: a sampled provisioning lap would
//! scale that one expensive boundary up by the period. Every round
//! engine therefore credits the stage from the same measurement as
//! `prov/interval`, so on a run without faults the two counters must be
//! equal. Fault boundaries are credited to the stage unsampled too, so
//! with faults it exceeds `prov/interval`.

use cloudmedia_sim::config::{SimConfig, SimKernel, SimMode};
use cloudmedia_sim::faults::FaultSchedule;
use cloudmedia_sim::federation::{DeploymentKind, FederatedConfig, FederatedSimulator};
use cloudmedia_sim::simulator::Simulator;
use cloudmedia_sim::telem;
use cloudmedia_telemetry::Snapshot;

const HOURS: f64 = 3.0;

fn assert_provisioning_unsampled(snap: &Snapshot, label: &str) {
    let stage = snap.value(telem::STAGE_PROVISIONING);
    let interval = snap.value(telem::PROV_INTERVAL);
    assert!(interval > 0, "{label}: no provisioning boundary was timed");
    assert_eq!(
        stage, interval,
        "{label}: stage/provisioning != prov/interval"
    );
    assert!(
        stage <= snap.value(telem::RUN_WALL),
        "{label}: provisioning exceeds the run"
    );
}

#[test]
fn round_engines_credit_provisioning_from_the_interval_span() {
    let kernels = [SimKernel::Scan, SimKernel::Indexed, SimKernel::Sharded];
    for mode in [SimMode::ClientServer, SimMode::P2p] {
        for kernel in kernels {
            let mut cfg = SimConfig::paper_default(mode);
            cfg.trace.horizon_seconds = HOURS * 3600.0;
            cfg.kernel = kernel;
            let sim = Simulator::new(cfg).unwrap();
            let tel = telem::new_registry(false);
            sim.run_with_telemetry(&tel).unwrap();
            let label = format!("{kernel:?}/{mode:?}");
            assert_provisioning_unsampled(&tel.snapshot(), &label);
        }
    }
}

#[test]
fn federated_simulator_credits_provisioning_from_the_interval_span() {
    let fc = FederatedConfig::paper_default(DeploymentKind::Federated, SimMode::P2p, HOURS);
    let sim = FederatedSimulator::new(fc).unwrap();
    let tel = telem::new_registry(false);
    sim.run_with_telemetry(&tel).unwrap();
    assert_provisioning_unsampled(&tel.snapshot(), "federated");
}

#[test]
fn fault_boundaries_are_credited_to_provisioning() {
    for kernel in [SimKernel::Indexed, SimKernel::Sharded] {
        let mut cfg = SimConfig::paper_default(SimMode::P2p);
        cfg.trace.horizon_seconds = HOURS * 3600.0;
        cfg.kernel = kernel;
        cfg.faults = FaultSchedule::vm_outage(1800.0, 0.3, 1800.0);
        let sim = Simulator::new(cfg).unwrap();
        let tel = telem::new_registry(false);
        sim.run_with_telemetry(&tel).unwrap();
        let snap = tel.snapshot();
        let stage = snap.value(telem::STAGE_PROVISIONING);
        let interval = snap.value(telem::PROV_INTERVAL);
        assert!(
            stage > interval,
            "{kernel:?}: fault boundaries missing from stage/provisioning ({stage} <= {interval})"
        );
        assert!(stage <= snap.value(telem::RUN_WALL), "{kernel:?}");
    }
}
