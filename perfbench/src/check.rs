//! Output checks. A workload run fails when its [`Metrics`] differ
//! from what it must agree with: another repetition of the same run,
//! the traced run, or the workload's reference run.

use cloudmedia_sim::Metrics;
use serde::{Serialize, Value};

/// The event-driven engine's documented tolerance against Indexed on
/// the same seed: relative deviation of mean used cloud bandwidth…
pub const DES_USED_BW_TOLERANCE: f64 = 0.15;
/// …and of total VM rental cost.
pub const DES_COST_TOLERANCE: f64 = 0.10;

/// Checks two runs for bit-for-bit equality. On a mismatch the error
/// names the first differing field, e.g. `samples[3].quality`.
pub fn identical(a: &Metrics, b: &Metrics) -> Result<(), String> {
    match first_difference(&a.to_value(), &b.to_value(), "metrics") {
        None => Ok(()),
        Some(path) => Err(format!("runs differ at {path}")),
    }
}

/// Checks an event-driven run against the Indexed run of the same
/// configuration: the two engines are different microscopic models,
/// so they must agree within the tolerance contract, not bit for bit.
pub fn des_within_tolerance(des: &Metrics, indexed: &Metrics) -> Result<(), String> {
    let within = |label: &str, a: f64, b: f64, tol: f64| {
        let rel = (a - b).abs() / b.abs().max(1e-12);
        if rel <= tol {
            Ok(())
        } else {
            Err(format!(
                "{label}: DES {a:.6e} vs Indexed {b:.6e} (relative {rel:.4} > {tol})"
            ))
        }
    };
    within(
        "mean used bandwidth",
        des.mean_used_bandwidth(),
        indexed.mean_used_bandwidth(),
        DES_USED_BW_TOLERANCE,
    )?;
    within(
        "total VM cost",
        des.total_vm_cost,
        indexed.total_vm_cost,
        DES_COST_TOLERANCE,
    )
}

/// A 64-bit FNV-1a digest of a run's metrics, for the results record.
pub fn digest(m: &Metrics) -> u64 {
    let text = serde_json::to_string(m).expect("metrics serialize");
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The path of the first place two value trees differ; floats compare
/// by their bits, so `0.0` and `-0.0` differ and equal NaNs agree.
fn first_difference(a: &Value, b: &Value, path: &str) -> Option<String> {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => (x.to_bits() != y.to_bits()).then(|| path.into()),
        (Value::Array(xs), Value::Array(ys)) => {
            if xs.len() != ys.len() {
                return Some(format!("{path} (length {} vs {})", xs.len(), ys.len()));
            }
            xs.iter()
                .zip(ys)
                .enumerate()
                .find_map(|(i, (x, y))| first_difference(x, y, &format!("{path}[{i}]")))
        }
        (Value::Object(xs), Value::Object(ys)) => {
            if xs.len() != ys.len() {
                return Some(format!("{path} (field count)"));
            }
            xs.iter().zip(ys).find_map(|((kx, x), (ky, y))| {
                if kx != ky {
                    Some(format!("{path}.{kx} vs {path}.{ky}"))
                } else {
                    first_difference(x, y, &format!("{path}.{kx}"))
                }
            })
        }
        _ => (a != b).then(|| path.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudmedia_sim::metrics::{IntervalRecord, Sample};

    fn sample(time: f64, quality: f64) -> Sample {
        Sample {
            time,
            reserved_bandwidth: 2.0e6,
            used_bandwidth: 1.5e6,
            quality,
            active_peers: 100,
            per_channel_peers: vec![60, 40],
            per_channel_quality: vec![quality, 1.0],
            mean_startup_delay: 12.5,
        }
    }

    fn metrics() -> Metrics {
        Metrics {
            samples: (0..6).map(|i| sample(300.0 * i as f64, 0.97)).collect(),
            intervals: vec![IntervalRecord {
                time: 0.0,
                vm_targets: vec![3, 1],
                vm_hourly_cost: 4.27,
                total_cloud_demand: 2.0e6,
                expected_peer_contribution: 0.0,
                per_channel_demand: vec![1.2e6, 0.8e6],
                per_channel_storage_utility: vec![1.0, 0.5],
                per_channel_vm_utility: vec![2.0, 1.0],
                placement_refreshed: true,
                per_channel_peers: vec![60, 40],
            }],
            total_vm_cost: 4.27,
            total_storage_cost: 0.1,
        }
    }

    #[test]
    fn identical_runs_pass() {
        assert_eq!(identical(&metrics(), &metrics()), Ok(()));
        assert_eq!(digest(&metrics()), digest(&metrics()));
    }

    #[test]
    fn a_nudged_quality_fails() {
        let mut m = metrics();
        m.samples[3].quality = f64::from_bits(m.samples[3].quality.to_bits() + 1);
        let err = identical(&metrics(), &m).unwrap_err();
        assert!(err.contains("samples[3].quality"), "{err}");
        assert_ne!(digest(&metrics()), digest(&m));
    }

    #[test]
    fn a_dropped_sample_fails() {
        let mut m = metrics();
        m.samples.remove(2);
        let err = identical(&metrics(), &m).unwrap_err();
        assert!(err.contains("samples (length 6 vs 5)"), "{err}");
    }

    #[test]
    fn a_changed_counter_or_sign_fails() {
        let mut m = metrics();
        m.intervals[0].vm_targets[1] = 2;
        assert!(identical(&metrics(), &m).is_err());
        let mut z = metrics();
        z.total_storage_cost = 0.0;
        let mut nz = metrics();
        nz.total_storage_cost = -0.0;
        assert!(identical(&z, &nz).is_err());
    }

    #[test]
    fn metrics_survive_the_json_round_trip_bit_for_bit() {
        let mut m = metrics();
        m.samples[1].quality = 0.1 + 0.2;
        let back: Metrics = serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap();
        assert_eq!(identical(&m, &back), Ok(()));
    }

    #[test]
    fn des_tolerance_accepts_close_and_rejects_far_runs() {
        let indexed = metrics();
        let mut close = metrics();
        close.total_vm_cost *= 1.05;
        for s in &mut close.samples {
            s.used_bandwidth *= 0.9;
        }
        assert_eq!(des_within_tolerance(&close, &indexed), Ok(()));
        let mut far = metrics();
        far.total_vm_cost *= 1.2;
        let err = des_within_tolerance(&far, &indexed).unwrap_err();
        assert!(err.contains("total VM cost"), "{err}");
        let mut starved = metrics();
        starved.samples[0].used_bandwidth = 0.0;
        starved.samples[1].used_bandwidth = 0.0;
        assert!(des_within_tolerance(&starved, &indexed).is_err());
    }
}
