//! The four benchmark workloads: how each configuration is built from
//! the benchmark seed, how it runs, and which reference run it must
//! agree with.
//!
//! Every workload is a batch simulation. The benchmark drives it only
//! through the simulator's public API: [`SimConfig`],
//! [`Simulator::new`] / [`Simulator::run_with_telemetry`] and
//! [`event_driven::run_with_telemetry`].

use cloudmedia_sim::config::{SimConfig, SimKernel, SimMode};
use cloudmedia_sim::event_driven::{self, DesReport, DesScenario};
use cloudmedia_sim::{Metrics, SimError, Simulator};
use cloudmedia_telemetry::Telemetry;
use cloudmedia_workload::diurnal::{DiurnalPattern, FlashCrowd};

/// Concurrent-viewer target of `million_steady`.
pub const MILLION_VIEWERS: f64 = 1_000_000.0;
/// Channel count of `million_steady`.
pub const MILLION_CHANNELS: usize = 2_000;
/// Population scale of `flash_crowd_1ch`: the ×12 burst on top of the
/// 0.3 baseline peaks at about six times this on the single channel.
pub const FLASH_VIEWERS: f64 = 200_000.0;
/// Sub-lanes of the flash crowd's one channel: the count automatic
/// lanes pick on a two-thread pool, set explicitly because the
/// workload runs on one thread, where automatic lanes would not split.
pub const FLASH_LANES: usize = 2;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-default 20-channel P2P week on the Indexed engine.
    PaperWeek,
    /// 2,000-channel, one-million-viewer client–server run on the
    /// Sharded engine for two hours.
    MillionSteady,
    /// One channel whose flash crowd peaks above a million viewers, on
    /// the Sharded engine with two sub-lanes.
    FlashCrowd1ch,
    /// Paper-default P2P week on the event-driven engine.
    DesWeek,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperWeek,
        Workload::MillionSteady,
        Workload::FlashCrowd1ch,
        Workload::DesWeek,
    ];

    /// The workloads `BENCHMARK.json` lists and `--workload all` runs.
    /// `million_steady` runs only when named: on a two-vCPU shared host
    /// its two-thread runs are too few per run and too noisy to hold a
    /// bound (see `README.md`).
    pub const BENCHMARKED: [Workload; 3] = [
        Workload::PaperWeek,
        Workload::FlashCrowd1ch,
        Workload::DesWeek,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperWeek => "paper_week",
            Workload::MillionSteady => "million_steady",
            Workload::FlashCrowd1ch => "flash_crowd_1ch",
            Workload::DesWeek => "des_week",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs on the Sharded engine.
    pub fn sharded(self) -> bool {
        matches!(self, Workload::MillionSteady | Workload::FlashCrowd1ch)
    }

    /// Whether the workload fans its shards across a worker pool of
    /// more than one thread. The others run on one thread: on a shared
    /// host whose vCPUs are stolen for seconds at a time, every lane
    /// barrier of a two-thread flash crowd waits for the stolen vCPU,
    /// and its run time swung 2× between runs of the same seed.
    pub fn uses_pool(self) -> bool {
        self == Workload::MillionSteady
    }

    /// How many seeds one benchmark run measures. Averaging a panel of
    /// seeds keeps one seed's peak memory (bimodal across seeds on
    /// `des_week`) or burst start-up delay (`flash_crowd_1ch`) from
    /// swinging the result; `million_steady` averages a million
    /// viewers inside one run instead.
    pub fn panel(self) -> usize {
        match self {
            Workload::PaperWeek => 4,
            Workload::FlashCrowd1ch => 3,
            Workload::DesWeek => 6,
            Workload::MillionSteady => 1,
        }
    }

    /// Simulated hours one run covers.
    pub fn sim_hours(self) -> f64 {
        match self {
            Workload::PaperWeek | Workload::DesWeek => 168.0,
            Workload::MillionSteady => 2.0,
            Workload::FlashCrowd1ch => 1.0,
        }
    }

    /// Builds the workload's configuration for one benchmark seed. The
    /// trace and behaviour seeds are derived from it; everything else
    /// is fixed.
    pub fn config(self, seed: u64) -> Result<SimConfig, SimError> {
        let mut cfg = match self {
            Workload::PaperWeek => {
                let mut cfg = SimConfig::paper_default(SimMode::P2p);
                cfg.kernel = SimKernel::Indexed;
                cfg
            }
            Workload::DesWeek => {
                let mut cfg = SimConfig::paper_default(SimMode::P2p);
                cfg.kernel = SimKernel::EventDriven;
                cfg
            }
            Workload::MillionSteady => {
                SimConfig::scale_out(SimMode::ClientServer, MILLION_CHANNELS, MILLION_VIEWERS)?
            }
            Workload::FlashCrowd1ch => flash_crowd_config()?,
        };
        cfg.trace.horizon_seconds = self.sim_hours() * 3600.0;
        cfg.trace.seed = splitmix64(seed ^ 0x7472_6163_6500_0001);
        cfg.behaviour_seed = splitmix64(seed ^ 0x6265_6861_7600_0002);
        Ok(cfg)
    }

    /// The set-up the benchmark times as `setup_s`: configuration and
    /// catalog build, validation, and the engine constructor — all
    /// the work before the run call.
    pub fn setup(self, seed: u64) -> Result<Prepared, SimError> {
        let cfg = self.config(seed)?;
        if cfg.kernel == SimKernel::EventDriven {
            cfg.validate()?;
            Ok(Prepared::Des(cfg))
        } else {
            Ok(Prepared::Rounds(Simulator::new(cfg)?))
        }
    }

    /// The untimed reference run the workload's output must agree with:
    /// Scan for `paper_week`, the serial single-lane run for the two
    /// Sharded workloads (both bit for bit), and Indexed on the same
    /// seed for `des_week` (within the engines' tolerance contract).
    pub fn reference(self, seed: u64) -> Result<Metrics, SimError> {
        let mut cfg = self.config(seed)?;
        match self {
            Workload::PaperWeek => cfg.kernel = SimKernel::Scan,
            Workload::MillionSteady | Workload::FlashCrowd1ch => {
                cfg.parallel_channels = false;
                cfg.lanes = 0;
            }
            Workload::DesWeek => cfg.kernel = SimKernel::Indexed,
        }
        Simulator::new(cfg)?.run()
    }
}

/// A configured workload, ready for its run call.
#[derive(Debug)]
pub enum Prepared {
    /// A round engine behind the [`Simulator`] facade.
    Rounds(Simulator),
    /// The event-driven engine, which is driven as a function.
    Des(SimConfig),
}

/// What one run produces.
#[derive(Debug)]
pub struct RunOutput {
    /// The recorded metric series.
    pub metrics: Metrics,
    /// The event-driven engine's own report (`des_week` only).
    pub des_report: Option<DesReport>,
}

impl Prepared {
    /// The configuration the run uses.
    pub fn config(&self) -> &SimConfig {
        match self {
            Prepared::Rounds(sim) => sim.config(),
            Prepared::Des(cfg) => cfg,
        }
    }

    /// Runs the workload once, recording into `tel`.
    pub fn run(&self, tel: &Telemetry) -> Result<RunOutput, SimError> {
        match self {
            Prepared::Rounds(sim) => Ok(RunOutput {
                metrics: sim.run_with_telemetry(tel)?.metrics,
                des_report: None,
            }),
            Prepared::Des(cfg) => {
                let run = event_driven::run_with_telemetry(cfg, &DesScenario::default(), tel)?;
                Ok(RunOutput {
                    metrics: run.metrics,
                    des_report: Some(run.report),
                })
            }
        }
    }
}

/// The one-channel flash crowd: a quiet 0.3 baseline with a ×12 burst
/// half an hour in, on a fleet and budgets grown four-fold so the
/// post-burst plan stays feasible. During the burst the hour-late
/// controller still reserves the quiet hour's capacity, so demand
/// exceeds the reservation and quality drops below 1.
fn flash_crowd_config() -> Result<SimConfig, SimError> {
    let hours = Workload::FlashCrowd1ch.sim_hours();
    let mut cfg = SimConfig::scale_out(SimMode::ClientServer, 1, FLASH_VIEWERS)?;
    cfg.lanes = FLASH_LANES;
    cfg.fleet_scale *= 4.0;
    cfg.vm_budget_per_hour *= 4.0;
    cfg.storage_budget_per_hour *= 4.0;
    cfg.trace.diurnal = DiurnalPattern::new(
        0.3,
        vec![FlashCrowd {
            peak_hour: hours / 2.0,
            width_hours: 0.15,
            amplitude: 12.0,
        }],
    )
    .map_err(SimError::from)?;
    Ok(cfg)
}

/// The `index`-th seed of the panel a benchmark seed stands for.
pub fn panel_seed(seed: u64, index: usize) -> u64 {
    splitmix64(seed.wrapping_add((index as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)))
}

/// The splitmix64 finalizer: spreads one benchmark seed into
/// independent-looking configuration seeds.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
