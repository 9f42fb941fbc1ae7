//! The round engines' fixed-point demand grid rounds without libm and
//! without `u64 ↔ f64` casts. This suite pins that the conversion-free
//! `quantize_rate` and `dequantize` are bit-equal to the straightforward
//! `ceil` / `as u64` / `as f64` definitions, which are kept here only
//! as the oracle: over random inputs, and over the edges where a
//! rounding shortcut would break — zero, subnormals, exact grid
//! integers and their one-ulp neighbours, the per-connection rate cap,
//! and trickles just above the 1e-6 completion threshold.

use cloudmedia_cloud::cluster::PAPER_VM_BANDWIDTH;
use cloudmedia_sim::simulator::{dequantize, quantize_rate};
use proptest::prelude::*;

const UPLOAD_SCALE: f64 = 1024.0;

fn oracle_quantize(bytes_left: f64, inv_step: f64, vm_bandwidth: f64) -> u64 {
    ((bytes_left * inv_step).min(vm_bandwidth) * UPLOAD_SCALE).ceil() as u64
}

fn oracle_dequantize(units: u64) -> f64 {
    units as f64 * (1.0 / UPLOAD_SCALE)
}

/// `1 / step` for the round lengths the engines see: the paper's 10 s
/// round, a 1 s round, a short tail round and a step off the binary
/// grid.
const INV_STEPS: [f64; 4] = [0.1, 1.0, 1.0 / 0.37, 1.0 / 7.0];

fn assert_quantize_exact(bytes_left: f64, inv_step: f64, vm_bandwidth: f64) {
    let got = quantize_rate(bytes_left, inv_step, vm_bandwidth);
    let want = oracle_quantize(bytes_left, inv_step, vm_bandwidth);
    assert_eq!(
        got,
        want,
        "quantize_rate({bytes_left:e} [{:#x}], {inv_step}, {vm_bandwidth})",
        bytes_left.to_bits()
    );
    // The advance pass reads the request back through `dequantize`.
    assert_eq!(
        dequantize(got).to_bits(),
        oracle_dequantize(want).to_bits(),
        "readback of {got}"
    );
}

/// `x` and its one-ulp neighbours on both sides.
fn with_neighbours(x: f64) -> [f64; 3] {
    [x.next_down(), x, x.next_up()]
}

#[test]
fn quantize_rate_is_exact_on_the_edges() {
    let mut bytes: Vec<f64> = vec![
        0.0,
        f64::from_bits(1),
        f64::MIN_POSITIVE / 2.0,
        f64::MIN_POSITIVE,
    ];
    // Exact grid points (integer units after scaling) and their
    // neighbours, from one unit up to the rate cap.
    for units in [1u64, 2, 3, 1023, 1024, 1025, 65_537, 1_000_000_007] {
        bytes.extend(with_neighbours(units as f64 / UPLOAD_SCALE));
    }
    for whole in [1.0, 2.0, 1000.0, 12_345.0, 1e6] {
        bytes.extend(with_neighbours(whole));
    }
    // Trickles just above the completion threshold.
    let mut trickle = 1e-6_f64;
    for _ in 0..8 {
        trickle = trickle.next_up();
        bytes.push(trickle);
    }
    bytes.extend([1.5e-6, 2e-6, 1e-5, 1e-3, 0.5 / UPLOAD_SCALE]);
    for &inv_step in &INV_STEPS {
        let cap_bytes = PAPER_VM_BANDWIDTH / inv_step;
        let mut cases = bytes.clone();
        // The cap itself, just under it, and far above it (clamped).
        cases.extend(with_neighbours(cap_bytes));
        cases.extend([cap_bytes * 2.0, 1e300, f64::MAX, f64::INFINITY]);
        for &b in &cases {
            assert_quantize_exact(b, inv_step, PAPER_VM_BANDWIDTH);
        }
    }
    // The top of the exactness domain: a cap whose grid value sits just
    // below 2^53, where the grid spacing reaches one unit.
    let top_cap = ((1u64 << 53) - 1) as f64 / UPLOAD_SCALE;
    for x in [(1u64 << 52) as f64, ((1u64 << 53) - 1) as f64] {
        for b in with_neighbours(x / UPLOAD_SCALE) {
            assert_quantize_exact(b, 1.0, top_cap);
        }
    }
    let mid = (1u64 << 52) as f64 / UPLOAD_SCALE;
    assert_quantize_exact(mid - 0.25 / UPLOAD_SCALE, 1.0, top_cap);
}

#[test]
fn dequantize_is_exact_on_the_edges() {
    let mut units = vec![0u64, 1, 2, 1023, 1024, 1025, u64::from(u32::MAX)];
    for p in [52u32, 53, 54, 62] {
        let x = 1u64 << p;
        units.extend([x - 1, x, x + 1]);
    }
    units.push(i64::MAX as u64);
    for &u in &units {
        assert_eq!(
            dequantize(u).to_bits(),
            oracle_dequantize(u).to_bits(),
            "dequantize({u})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn quantize_rate_matches_ceil_on_realistic_rates(
        bytes_left in 0.0..2.0e7f64,
        step_pick in 0usize..4,
        cap in 1.0e3..1.0e8f64,
    ) {
        let inv_step = INV_STEPS[step_pick];
        prop_assert_eq!(
            quantize_rate(bytes_left, inv_step, cap),
            oracle_quantize(bytes_left, inv_step, cap)
        );
    }

    #[test]
    fn quantize_rate_matches_ceil_on_any_bit_pattern(
        bits in any::<u64>(),
        step_pick in 0usize..4,
    ) {
        // Every non-negative bit pattern: subnormals, tiny and huge
        // magnitudes alike (the rate cap keeps the grid value in range;
        // `min` maps infinity and NaN onto the cap too).
        let bytes_left = f64::from_bits(bits >> 1);
        let inv_step = INV_STEPS[step_pick];
        prop_assert_eq!(
            quantize_rate(bytes_left, inv_step, PAPER_VM_BANDWIDTH),
            oracle_quantize(bytes_left, inv_step, PAPER_VM_BANDWIDTH)
        );
    }

    #[test]
    fn dequantize_matches_the_unsigned_cast(units in 0u64..(1u64 << 63)) {
        prop_assert_eq!(dequantize(units).to_bits(), oracle_dequantize(units).to_bits());
    }

    #[test]
    fn dequantize_matches_the_unsigned_cast_on_the_grid(units in 0u64..(1u64 << 40)) {
        prop_assert_eq!(dequantize(units).to_bits(), oracle_dequantize(units).to_bits());
    }
}
