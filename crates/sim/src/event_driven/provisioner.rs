//! The provisioning component: the paper's control path, event-driven.
//!
//! Runs the *identical* hourly pipeline as the round engines — tracker
//! measurements (handed over by the engine loop from the sessions
//! component's observation outbox, see [`Provisioner::observe`]) into
//! the model-driven controller or a baseline planner, the resulting VM
//! targets and placement through the cloud broker, usage-time billing
//! — but at event granularity: boot and shutdown completions fire
//! `CloudSync` events that re-announce the online capacity to the
//! admission component mid-interval, which is what makes VM boot delay
//! a first-class observable instead of a sub-round artifact.
//!
//! Failure injection: a `VmFailure { fraction }` event shuts down the
//! given fraction of each cluster's active instances immediately (they
//! stop serving traffic at once; billing runs until power-off, as a real
//! provider would meter a crashed-but-reserved instance). The next
//! provisioning tick re-plans from measured demand and relaunches.

use cloudmedia_cloud::broker::{
    scale_fleet_capacity, scale_nfs_capacity, Cloud, ResourceRequest, RetryPolicy, SlaTerms,
};
use cloudmedia_cloud::cluster::{paper_nfs_clusters, paper_virtual_clusters};
use cloudmedia_cloud::scheduler::PlacementPlan;
use cloudmedia_cloud::vm::{DEFAULT_BOOT_SECONDS, DEFAULT_SHUTDOWN_SECONDS};
use cloudmedia_core::controller::ProvisioningPlan;
use cloudmedia_des::{Component, Event, Kernel};
use cloudmedia_workload::stats::Observation;

use super::events::{CmEvent, ADMISSION, PROVISIONER};
use super::DesScenario;
use crate::config::SimConfig;
use crate::error::SimError;
use crate::faults::{FaultSchedule, FaultStats};
use crate::metrics::IntervalRecord;
use crate::simulator::{bootstrap_stats, interval_record, make_planner, Planner};
use crate::tracker::Tracker;

/// The provisioning component; see the module docs.
#[derive(Debug)]
pub struct Provisioner {
    cloud: Cloud,
    sla: SlaTerms,
    planner: Planner,
    tracker: Tracker,
    provisioning_interval: f64,
    n_channels: usize,
    channel_reserved: Vec<f64>,
    current_placement: Option<PlacementPlan>,
    /// Connected sessions per channel, maintained from join/leave
    /// observations.
    counts: Vec<usize>,
    intervals: Vec<IntervalRecord>,
    first_interval: bool,
    /// Run horizon; provisioning ticks fire strictly before it (the
    /// round engines' `while clock < horizon` boundary), so the DES run
    /// records the same interval count and never plans a fleet that
    /// could not serve.
    horizon: f64,
    boot_seconds: f64,
    shutdown_seconds: f64,
    vm_bandwidth: f64,
    vms_killed: u64,
    /// First control-path failure; the engine surfaces it after the run.
    error: Option<SimError>,
    /// Precomputed bootstrap observations for the very first interval.
    bootstrap: Vec<(usize, cloudmedia_core::predictor::ChannelObservation)>,
    /// The configuration's fault schedule (availability caps, tracker
    /// dropouts, cost shocks).
    faults: FaultSchedule,
    /// Broker retry policy for provisioning submissions.
    retry: RetryPolicy,
    /// Fault-plane counters.
    stats: FaultStats,
    /// VM targets of the last planned interval — what a repair restores.
    last_vm_targets: Vec<usize>,
    /// Last successfully planned interval (placement stripped), replayed
    /// when the tracker is dark.
    last_plan: Option<ProvisioningPlan>,
    /// Budget-shock factor already folded into the planner's budget.
    applied_budget_factor: f64,
}

impl Provisioner {
    /// Builds the component: cloud (with scenario latency overrides),
    /// planner, tracker.
    ///
    /// # Errors
    ///
    /// Propagates cloud and controller construction failures.
    pub(crate) fn new(cfg: &SimConfig, scenario: &DesScenario) -> Result<Self, SimError> {
        let boot_seconds = scenario.vm_boot_seconds.unwrap_or(DEFAULT_BOOT_SECONDS);
        let shutdown_seconds = scenario
            .vm_shutdown_seconds
            .unwrap_or(DEFAULT_SHUTDOWN_SECONDS);
        let cloud = Cloud::new(
            scale_fleet_capacity(&paper_virtual_clusters(), cfg.fleet_scale),
            scale_nfs_capacity(&paper_nfs_clusters(), cfg.fleet_scale),
            cfg.chunk_bytes() as u64,
        )?
        .with_vm_latencies(boot_seconds, shutdown_seconds);
        let sla = cloud.sla_terms();
        let vm_bandwidth = sla.virtual_clusters[0].vm_bandwidth_bytes_per_sec;
        let planner = make_planner(cfg, vm_bandwidth)?;
        let tracker = Tracker::new(&cfg.catalog)?;
        let n_channels = cfg.catalog.len();
        Ok(Self {
            cloud,
            sla,
            planner,
            tracker,
            provisioning_interval: cfg.provisioning_interval,
            n_channels,
            channel_reserved: vec![0.0; n_channels],
            current_placement: None,
            counts: vec![0; n_channels],
            intervals: Vec::new(),
            first_interval: true,
            horizon: cfg.trace.horizon_seconds,
            boot_seconds,
            shutdown_seconds,
            vm_bandwidth,
            vms_killed: 0,
            error: None,
            bootstrap: bootstrap_stats(&cfg.catalog, cfg),
            faults: cfg.faults.clone(),
            retry: RetryPolicy::paper_default(),
            stats: FaultStats::default(),
            last_vm_targets: Vec::new(),
            last_plan: None,
            applied_budget_factor: 1.0,
        })
    }

    /// Per-VM bandwidth of the paper's Standard cluster (the admission
    /// component's per-connection cap).
    pub(crate) fn vm_bandwidth(&self) -> f64 {
        self.vm_bandwidth
    }

    /// Bandwidth of VMs currently running, bytes/s.
    pub(crate) fn running_bandwidth(&self) -> f64 {
        self.cloud.running_bandwidth()
    }

    /// Settles cloud lifecycle and billing to the end of the run.
    pub(crate) fn finish(&mut self, horizon: f64) -> Result<(), SimError> {
        self.cloud.tick(horizon)?;
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        Ok(())
    }

    /// The recorded provisioning intervals (consumes them).
    pub(crate) fn take_intervals(&mut self) -> Vec<IntervalRecord> {
        std::mem::take(&mut self.intervals)
    }

    /// Total VM rental cost so far, dollars.
    pub(crate) fn vm_cost(&self) -> f64 {
        self.cloud.billing().vm_cost().as_dollars()
    }

    /// Total storage cost so far, dollars.
    pub(crate) fn storage_cost(&self) -> f64 {
        self.cloud.billing().storage_cost().as_dollars()
    }

    /// Instances killed by failure injections.
    pub(crate) fn vms_killed(&self) -> u64 {
        self.vms_killed
    }

    /// The fault-plane counters (consumes them).
    pub(crate) fn take_fault_stats(&mut self) -> FaultStats {
        self.stats.vms_killed = self.vms_killed;
        std::mem::take(&mut self.stats)
    }

    /// Records one tracker observation on `channel`, as the engine loop
    /// hands it over. The tracker and `counts` are read only by the
    /// hourly `ProvisionTick`, so the observation lands in the same
    /// interval a zero-delay event would (see the `event_driven` module
    /// docs for the argument).
    pub(crate) fn observe(&mut self, channel: usize, observation: Observation) {
        match observation {
            Observation::Join { chunk } => {
                self.tracker.record_join(channel, chunk);
                self.counts[channel] += 1;
            }
            Observation::Transition { from, to } => {
                self.tracker.record_transition(channel, from, to);
            }
            Observation::Leave { from } => {
                self.tracker.record_leave(channel, from);
                self.counts[channel] = self.counts[channel].saturating_sub(1);
            }
        }
    }

    /// Announces the current capacity to the admission component.
    fn announce_capacity(&self, kernel: &mut Kernel<CmEvent>) {
        kernel.schedule_in(
            0.0,
            ADMISSION,
            CmEvent::CapacityUpdate {
                channel_reserved: self.channel_reserved.clone(),
                running_bandwidth: self.cloud.running_bandwidth(),
            },
        );
    }

    /// One provisioning interval: measure, plan, submit, record.
    fn provision(&mut self, now: f64, kernel: &mut Kernel<CmEvent>) -> Result<(), SimError> {
        self.cloud.tick(now)?;
        // Mid-run cost shocks, folded in exactly as the round loop does.
        let (budget_factor, price_factor) = self.faults.shock_factors(now);
        if budget_factor != self.applied_budget_factor {
            self.planner
                .scale_vm_budget(budget_factor / self.applied_budget_factor)?;
            self.applied_budget_factor = budget_factor;
        }
        let planning_sla = if price_factor == 1.0 {
            self.sla.clone()
        } else {
            self.sla.with_vm_price_factor(price_factor)
        };
        let bootstrap = self.first_interval;
        let plan = if !bootstrap && self.faults.dropout_active(now) && self.last_plan.is_some() {
            // Tracker blackout: drain the lost measurements and replay
            // the last-known-good plan.
            let _ = self.tracker.interval_stats(self.provisioning_interval)?;
            self.stats.fallback_intervals += 1;
            self.last_plan.clone().expect("checked is_some above")
        } else {
            let stats = if bootstrap {
                self.first_interval = false;
                self.bootstrap.clone()
            } else {
                self.tracker.interval_stats(self.provisioning_interval)?
            };
            self.planner.plan_interval(&stats, &planning_sla)?
        };
        if let Some(p) = &plan.placement {
            self.current_placement = Some(p.clone());
        }
        let receipt = self.cloud.submit_with_retry(
            &ResourceRequest {
                vm_targets: plan.vm_targets.clone(),
                placement: plan.placement.clone(),
            },
            &self.retry,
        )?;
        self.stats.record_receipt(&receipt);
        self.last_vm_targets = plan.vm_targets.clone();
        self.channel_reserved.iter_mut().for_each(|v| *v = 0.0);
        for (key, allocs) in &plan.vm_plan.allocations {
            if key.channel >= self.n_channels {
                continue;
            }
            let bw: f64 = allocs
                .iter()
                .map(|a| a.vms * self.sla.virtual_clusters[a.cluster].vm_bandwidth_bytes_per_sec)
                .sum();
            self.channel_reserved[key.channel] += bw;
        }
        self.intervals.push(interval_record(
            now,
            &plan,
            self.current_placement.as_ref(),
            &self.sla,
            self.n_channels,
            self.counts.clone(),
        ));
        let mut stored = plan;
        stored.placement = None;
        self.last_plan = Some(stored);
        // Reserved changed now; running changes when boots/shutdowns
        // complete — sync capacity at both lifecycle instants.
        self.announce_capacity(kernel);
        kernel.schedule_in(self.boot_seconds, PROVISIONER, CmEvent::CloudSync);
        kernel.schedule_in(self.shutdown_seconds, PROVISIONER, CmEvent::CloudSync);
        // Ticks fire strictly inside the horizon, like the round loop's
        // `while clock < horizon` — a tick *at* the horizon would plan a
        // fleet that never serves and record a phantom interval.
        if now + self.provisioning_interval < self.horizon {
            kernel.schedule_in(
                self.provisioning_interval,
                PROVISIONER,
                CmEvent::ProvisionTick,
            );
        }
        Ok(())
    }

    /// Applies the fault schedule's availability cap for instant `now`
    /// (full availability when no scheduled failure is active — scenario
    /// failures never cap, preserving their historical semantics).
    fn sync_availability(&mut self, now: f64) -> Result<(), SimError> {
        let max_vms: Vec<usize> = self
            .cloud
            .vm_scheduler()
            .specs()
            .iter()
            .map(|s| s.max_vms)
            .collect();
        match self.faults.fleet_caps_at(&max_vms, now) {
            Some(caps) => self.cloud.set_availability(&caps)?,
            None => self.cloud.restore_full_availability(),
        }
        Ok(())
    }

    /// Kills `fraction` of each cluster's active instances.
    fn fail_vms(
        &mut self,
        now: f64,
        fraction: f64,
        kernel: &mut Kernel<CmEvent>,
    ) -> Result<(), SimError> {
        self.cloud.tick(now)?;
        self.sync_availability(now)?;
        let fraction = fraction.clamp(0.0, 1.0);
        let clusters = self.cloud.vm_scheduler().clusters();
        let mut targets = Vec::with_capacity(clusters);
        let mut killed = 0u64;
        for c in 0..clusters {
            let active = self.cloud.vm_scheduler().running(c);
            let survivors = (((active as f64) * (1.0 - fraction)).floor() as usize)
                .min(self.cloud.capacity_limit(c));
            killed += (active - survivors) as u64;
            targets.push(survivors);
        }
        self.vms_killed += killed;
        self.cloud.submit_request(&ResourceRequest {
            vm_targets: targets,
            placement: None,
        })?;
        // Shutting-down instances stop serving immediately; announce the
        // loss now and settle billing when they power off.
        self.announce_capacity(kernel);
        kernel.schedule_in(self.shutdown_seconds, PROVISIONER, CmEvent::CloudSync);
        Ok(())
    }

    /// A scheduled repair: lift the availability cap (to whatever any
    /// still-active failure allows) and relaunch the last planned VM
    /// targets through the retry policy.
    fn recover_vms(&mut self, now: f64, kernel: &mut Kernel<CmEvent>) -> Result<(), SimError> {
        self.cloud.tick(now)?;
        self.sync_availability(now)?;
        if !self.last_vm_targets.is_empty() {
            let receipt = self.cloud.submit_with_retry(
                &ResourceRequest {
                    vm_targets: self.last_vm_targets.clone(),
                    placement: None,
                },
                &self.retry,
            )?;
            self.stats.vms_recovered += receipt.vm_targets.iter().map(|&t| t as u64).sum::<u64>();
            self.stats.record_receipt(&receipt);
        }
        // Reserved capacity changed now; running capacity follows when
        // the relaunched instances finish booting.
        self.announce_capacity(kernel);
        kernel.schedule_in(self.boot_seconds, PROVISIONER, CmEvent::CloudSync);
        Ok(())
    }
}

impl Component<CmEvent> for Provisioner {
    fn handle(&mut self, event: Event<CmEvent>, kernel: &mut Kernel<CmEvent>) {
        let now = event.time;
        if self.error.is_some() {
            // The control path already failed; ignore further control
            // events and let the engine surface the stored error.
            return;
        }
        let result = match event.payload {
            CmEvent::ProvisionTick => self.provision(now, kernel),
            CmEvent::CloudSync => self.cloud.tick(now).map_err(SimError::from).map(|()| {
                self.announce_capacity(kernel);
            }),
            CmEvent::VmFailure { fraction } => self.fail_vms(now, fraction, kernel),
            CmEvent::VmRecovery => self.recover_vms(now, kernel),
            other => unreachable!("provisioner received {other:?}"),
        };
        if let Err(e) = result {
            self.error = Some(e);
        }
    }
}
