//! Criterion benchmarks of the simulator's hot-path kernels and round
//! engines, tracking the perf work of the zero-allocation refactor:
//!
//! - `allocate_pool`: the allocating wrapper vs the in-place and
//!   mask-sparse max–min kernels,
//! - `peer_allocation`: the same three forms of the rarest-first kernel,
//! - `sim_round`: full simulated rounds per wall-second, per engine (the
//!   end-to-end run divided by its round count), plus one giant channel
//!   (a 1 h flash crowd peaking near 300k viewers) reported in ns per
//!   viewer-round, the cost of the per-viewer demand scan and download
//!   advance,
//! - `simulator_e2e`: the week-long experiment at a reduced horizon, per
//!   engine and streaming mode.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

use cloudmedia_bench::scale::flash_crowd_config;
use cloudmedia_sim::allocation::{
    allocate_pool, allocate_pool_into, allocate_pool_sparse, peer_allocation, peer_allocation_into,
    peer_allocation_sparse, ChannelRound,
};
use cloudmedia_sim::config::{SimConfig, SimKernel, SimMode};
use cloudmedia_sim::simulator::Simulator;

/// A 64-chunk demand vector with the sparsity the simulator actually
/// sees: a handful of requested chunks, the rest zero.
fn sparse_demands() -> (Vec<f64>, u64) {
    let mut demands = vec![0.0; 64];
    let mut mask = 0u64;
    for &(k, d) in &[(0usize, 2.5e6), (7, 1.25e6), (13, 4.0e5), (40, 9.0e5)] {
        demands[k] = d;
        mask |= 1 << k;
    }
    (demands, mask)
}

fn bench_allocate_pool(c: &mut Criterion) {
    let (demands, mask) = sparse_demands();
    let pool = 2.0e6; // scarce: forces the progressive fill + sort
    let mut group = c.benchmark_group("allocate_pool");
    group.bench_function("naive_alloc", |b| {
        b.iter(|| allocate_pool(black_box(&demands), black_box(pool)))
    });
    let mut out = vec![0.0; 64];
    let mut order = Vec::new();
    group.bench_function("inplace", |b| {
        b.iter(|| allocate_pool_into(black_box(&demands), black_box(pool), &mut out, &mut order))
    });
    out.fill(0.0);
    group.bench_function("sparse_mask", |b| {
        b.iter(|| {
            allocate_pool_sparse(
                black_box(&demands),
                black_box(pool),
                &mut out,
                &mut order,
                black_box(mask),
            );
            let mut m = mask;
            while m != 0 {
                let k = m.trailing_zeros() as usize;
                m &= m - 1;
                out[k] = 0.0;
            }
        })
    });
    group.finish();
}

fn bench_peer_allocation(c: &mut Criterion) {
    let (requested, mask) = sparse_demands();
    let owners: Vec<usize> = (0..64).map(|i| (i * 7) % 50).collect();
    let owner_upload: Vec<f64> = (0..64).map(|i| 1e5 + (i as f64) * 3.0e4).collect();
    let round = ChannelRound {
        requested_rate: requested.clone(),
        owners: owners.clone(),
        owner_upload: owner_upload.clone(),
        upload_pool: 3.0e6,
    };
    let mut group = c.benchmark_group("peer_allocation");
    group.bench_function("naive_alloc", |b| {
        b.iter(|| peer_allocation(black_box(&round)))
    });
    let mut served = vec![0.0; 64];
    let mut order = Vec::new();
    group.bench_function("inplace", |b| {
        b.iter(|| {
            peer_allocation_into(
                black_box(&requested),
                &owners,
                &owner_upload,
                black_box(3.0e6),
                &mut served,
                &mut order,
            )
        })
    });
    served.fill(0.0);
    group.bench_function("sparse_mask", |b| {
        b.iter(|| {
            peer_allocation_sparse(
                black_box(&requested),
                &owners,
                &owner_upload,
                black_box(3.0e6),
                &mut served,
                &mut order,
                black_box(mask),
            );
            let mut m = mask;
            while m != 0 {
                let k = m.trailing_zeros() as usize;
                m &= m - 1;
                served[k] = 0.0;
            }
        })
    });
    group.finish();
}

fn run_config(mode: SimMode, kernel: SimKernel, hours: f64) -> SimConfig {
    let mut cfg = SimConfig::paper_default(mode);
    cfg.trace.horizon_seconds = hours * 3600.0;
    cfg.kernel = kernel;
    cfg
}

fn bench_sim_round(c: &mut Criterion) {
    // One full run divided by its round count approximates per-round
    // cost including every engine stage.
    let mut group = c.benchmark_group("sim_round");
    group.sample_size(10);
    for mode in [SimMode::ClientServer, SimMode::P2p] {
        for (name, kernel) in [("scan", SimKernel::Scan), ("indexed", SimKernel::Indexed)] {
            group.bench_function(format!("{mode:?}/{name}"), |b| {
                b.iter(|| {
                    Simulator::new(run_config(mode, kernel, 2.0))
                        .expect("config is valid")
                        .run()
                        .expect("run succeeds")
                })
            });
        }
    }
    // One giant channel on the serial single-lane engine: nearly all of
    // the run is the per-viewer kernel, so time per viewer-round tracks
    // it. Viewer-rounds come from the run's own occupancy samples.
    let mut cfg = flash_crowd_config(50_000.0, 1.0);
    cfg.parallel_channels = false;
    let metrics = Simulator::new(cfg.clone())
        .expect("config is valid")
        .run()
        .expect("run succeeds");
    let rounds_per_sample = cfg.sample_interval / cfg.round_seconds;
    let viewer_rounds: f64 = metrics
        .samples
        .iter()
        .map(|x| x.active_peers as f64 * rounds_per_sample)
        .sum();
    let (mut ns, mut runs) = (0.0_f64, 0u32);
    group.bench_function("flash_crowd_1ch/serial", |b| {
        b.iter(|| {
            let t0 = Instant::now();
            let m = Simulator::new(cfg.clone())
                .expect("config is valid")
                .run()
                .expect("run succeeds");
            ns += t0.elapsed().as_nanos() as f64;
            runs += 1;
            m
        })
    });
    println!(
        "bench {:<50} {:>10.3} ns/viewer-round",
        "sim_round/flash_crowd_1ch/serial",
        ns / f64::from(runs) / viewer_rounds
    );
    group.finish();
}

fn bench_simulator_e2e(c: &mut Criterion) {
    // The week-long experiment at a reduced horizon (12 h) so the bench
    // suite stays quick; `bench_sim --hours 168` measures the full week.
    let mut group = c.benchmark_group("simulator_e2e");
    group.sample_size(10);
    for mode in [SimMode::ClientServer, SimMode::P2p] {
        for (name, kernel) in [("scan", SimKernel::Scan), ("indexed", SimKernel::Indexed)] {
            group.bench_function(format!("{mode:?}/{name}_12h"), |b| {
                b.iter(|| {
                    Simulator::new(run_config(mode, kernel, 12.0))
                        .expect("config is valid")
                        .run()
                        .expect("run succeeds")
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_allocate_pool,
    bench_peer_allocation,
    bench_sim_round,
    bench_simulator_e2e
);
criterion_main!(benches);
