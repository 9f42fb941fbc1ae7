//! Simulator performance benchmark: measures the reference (`Scan`) and
//! production (`Indexed`) round engines end-to-end in both streaming
//! modes, plus the allocation-kernel microbenchmarks, and merges the
//! results into machine-readable `BENCH_sim.json` so the perf trajectory
//! is tracked from PR to PR. Each top-level key it owns is replaced in
//! place; sections written by the other benchmark binaries are kept.
//!
//! Usage: `bench_sim [--hours N] [--out PATH]`
//!   - `--hours` simulated horizon per run (default 24; use 168 for the
//!     paper's full week),
//!   - `--out` output path (default `BENCH_sim.json` in the working
//!     directory).

use std::time::Instant;

use cloudmedia_bench::geo_sim::append_sections;
use cloudmedia_sim::allocation::{allocate_pool, allocate_pool_into, allocate_pool_sparse};
use cloudmedia_sim::config::{SimConfig, SimKernel, SimMode};
use cloudmedia_sim::simulator::Simulator;
use cloudmedia_sim::telem;
use serde::Serialize;

/// One end-to-end measurement.
#[derive(Debug, Serialize)]
struct E2eResult {
    mode: String,
    kernel: String,
    sim_hours: f64,
    wall_seconds: f64,
    sim_hours_per_wall_second: f64,
    rounds: u64,
    ns_per_round: f64,
    mean_quality: f64,
    peak_peers: usize,
    /// Wall time per round-loop stage the run used (`stage/*` in the
    /// telemetry registry), largest first.
    stages: Vec<StageTime>,
}

/// One `stage/*` counter of a run, in seconds.
#[derive(Debug, Serialize)]
struct StageTime {
    name: String,
    seconds: f64,
}

/// One microbenchmark measurement.
#[derive(Debug, Serialize)]
struct KernelResult {
    name: String,
    ns_per_call: f64,
}

/// Speedup summary of indexed over scan.
#[derive(Debug, Serialize)]
struct Speedups {
    client_server_e2e: f64,
    p2p_e2e: f64,
    client_server_allocation_stage: f64,
    p2p_allocation_stage: f64,
    allocate_pool_inplace_vs_naive: f64,
    allocate_pool_sparse_vs_naive: f64,
}

/// Full report merged into `BENCH_sim.json`, one top-level key each.
#[derive(Debug, Serialize)]
struct Report {
    schema: String,
    sim_hours: f64,
    host_threads: usize,
    e2e: Vec<E2eResult>,
    kernels: Vec<KernelResult>,
    speedups: Speedups,
    notes: Vec<String>,
}

fn main() {
    let mut hours = 24.0_f64;
    let mut out_path = "BENCH_sim.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--hours" => {
                hours = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                out_path = args.next().unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }

    let mut e2e = Vec::new();
    let mut wall = [[0.0_f64; 2]; 2];
    let mut alloc_stage = [[0.0_f64; 2]; 2];
    for (mi, mode) in [SimMode::ClientServer, SimMode::P2p]
        .into_iter()
        .enumerate()
    {
        for (ki, kernel) in [SimKernel::Scan, SimKernel::Indexed]
            .into_iter()
            .enumerate()
        {
            let mut cfg = SimConfig::paper_default(mode);
            cfg.trace.horizon_seconds = hours * 3600.0;
            cfg.kernel = kernel;
            let rounds = (cfg.trace.horizon_seconds / cfg.round_seconds).ceil() as u64;
            // A live registry per run: its `stage/*` counters give the
            // per-stage breakdown and the allocation-stage speedup.
            let tel = telem::new_registry(false);
            let start = Instant::now();
            let metrics = Simulator::new(cfg)
                .expect("paper config is valid")
                .run_with_telemetry(&tel)
                .expect("benchmark run succeeds")
                .metrics;
            let secs = start.elapsed().as_secs_f64();
            wall[mi][ki] = secs;
            let snap = tel.snapshot();
            alloc_stage[mi][ki] = snap.value(telem::STAGE_ALLOCATION) as f64 * 1e-9;
            let stages = snap
                .sorted_by_value("stage/")
                .into_iter()
                .filter(|&(_, ns)| ns > 0)
                .map(|(name, ns)| StageTime {
                    name: name.into(),
                    seconds: ns as f64 * 1e-9,
                })
                .collect();
            eprintln!(
                "{mode:?}/{kernel:?} {hours}h: {secs:.3}s wall ({:.0} sim-hours/s)",
                hours / secs
            );
            e2e.push(E2eResult {
                mode: format!("{mode:?}"),
                kernel: format!("{kernel:?}"),
                sim_hours: hours,
                wall_seconds: secs,
                sim_hours_per_wall_second: hours / secs,
                rounds,
                ns_per_round: secs * 1e9 / rounds as f64,
                mean_quality: metrics.mean_quality(),
                peak_peers: metrics.peak_peers(),
                stages,
            });
        }
    }

    let (kernels, naive_ns, inplace_ns, sparse_ns) = kernel_micro();

    let report = Report {
        schema: "cloudmedia-bench-sim/v1".into(),
        sim_hours: hours,
        host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        e2e,
        kernels,
        speedups: Speedups {
            client_server_e2e: wall[0][0] / wall[0][1],
            p2p_e2e: wall[1][0] / wall[1][1],
            client_server_allocation_stage: alloc_stage[0][0] / alloc_stage[0][1].max(1e-12),
            p2p_allocation_stage: alloc_stage[1][0] / alloc_stage[1][1].max(1e-12),
            allocate_pool_inplace_vs_naive: naive_ns / inplace_ns,
            allocate_pool_sparse_vs_naive: naive_ns / sparse_ns,
        },
        notes: vec![
            "Scan is the pre-refactor reference engine (full-population scans, \
             per-round allocations); Indexed is the production engine. Both \
             produce bit-identical metrics for the same seed."
                .into(),
            "End-to-end ratios are Amdahl-capped by work shared between the \
             engines (viewing-model event processing, hourly provisioning, \
             trace generation); the kernel and per-stage ratios show the \
             refactor's effect in isolation. Each e2e row's `stages` lists the \
             telemetry registry's `stage/*` wall times (`cloudmedia profile` \
             prints the same table)."
                .into(),
        ],
    };
    append_sections(&out_path, &report).expect("write BENCH_sim.json");
    println!(
        "updated {out_path}: C/S {:.2}x, P2P {:.2}x end-to-end (indexed vs scan)",
        report.speedups.client_server_e2e, report.speedups.p2p_e2e
    );
}

/// Times the allocation kernels on the sparse demand shape the simulator
/// produces; returns the per-call nanoseconds for the summary ratios.
fn kernel_micro() -> (Vec<KernelResult>, f64, f64, f64) {
    let mut demands = vec![0.0_f64; 64];
    let mut mask = 0u64;
    for &(k, d) in &[(0usize, 2.5e6), (7, 1.25e6), (13, 4.0e5), (40, 9.0e5)] {
        demands[k] = d;
        mask |= 1 << k;
    }
    let pool = 2.0e6;
    let iters = 2_000_000u64;

    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(allocate_pool(std::hint::black_box(&demands), pool));
    }
    let naive_ns = start.elapsed().as_secs_f64() * 1e9 / iters as f64;

    let mut out = vec![0.0; 64];
    let mut order = Vec::new();
    let start = Instant::now();
    for _ in 0..iters {
        allocate_pool_into(std::hint::black_box(&demands), pool, &mut out, &mut order);
    }
    let inplace_ns = start.elapsed().as_secs_f64() * 1e9 / iters as f64;

    out.fill(0.0);
    let start = Instant::now();
    for _ in 0..iters {
        allocate_pool_sparse(
            std::hint::black_box(&demands),
            pool,
            &mut out,
            &mut order,
            mask,
        );
        let mut m = mask;
        while m != 0 {
            let k = m.trailing_zeros() as usize;
            m &= m - 1;
            out[k] = 0.0;
        }
    }
    let sparse_ns = start.elapsed().as_secs_f64() * 1e9 / iters as f64;

    let kernels = vec![
        KernelResult {
            name: "allocate_pool/naive_alloc".into(),
            ns_per_call: naive_ns,
        },
        KernelResult {
            name: "allocate_pool/inplace".into(),
            ns_per_call: inplace_ns,
        },
        KernelResult {
            name: "allocate_pool/sparse_mask".into(),
            ns_per_call: sparse_ns,
        },
    ];
    (kernels, naive_ns, inplace_ns, sparse_ns)
}

fn usage() -> ! {
    eprintln!("usage: bench_sim [--hours N] [--out PATH]");
    std::process::exit(2)
}
