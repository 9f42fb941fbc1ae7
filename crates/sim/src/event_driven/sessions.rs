//! The viewer-sessions component.
//!
//! Owns every connected session: arrivals (pulled lazily from the
//! streaming trace iterator, one `NextArrival` event per arrival),
//! the viewing-model walk after each delivered chunk, prefetch gating,
//! stall accounting, and departures. What the admission component needs
//! leaves as events (`ChunkRequest`, `PoolUpdate`). The joins,
//! transitions and departures the paper's tracking server collects go
//! into an observation outbox, which the engine loop drains into the
//! provisioner after every sessions dispatch.
//!
//! Sessions live in a slab: a slot vector plus a free list. Events
//! address a session by its slot, and a slot is reused only after its
//! session departed — which happens only with no `Wake` or transfer
//! pending for it, so no stale event can reach the slot's next tenant.

use cloudmedia_des::{Component, Event, Kernel};
use cloudmedia_workload::catalog::Catalog;
use cloudmedia_workload::distributions::BoundedPareto;
use cloudmedia_workload::stats::Observation;
use cloudmedia_workload::trace::{ArrivalStream, UserArrival};
use cloudmedia_workload::viewing::NextAction;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::events::{CmEvent, ADMISSION, SESSIONS};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::peer::{PendingChunk, PREFETCH_WINDOWS};

/// What one session is doing.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SessState {
    /// A chunk request is in flight (admission wait + transfer).
    Downloading {
        chunk: usize,
        /// Playback deadline; `+inf` for the first chunk.
        deadline: f64,
    },
    /// Gated prefetch or pre-departure playback drain.
    Waiting { next: Option<PendingChunk> },
}

/// One connected viewer session.
#[derive(Debug, Clone, Copy)]
struct Session {
    channel: usize,
    /// Efficiency-scaled upload contribution, bytes/s.
    usable_upload: f64,
    /// Buffered-chunk bitmap.
    buffer: u64,
    state: SessState,
    last_stall_at: Option<f64>,
    joined_at: f64,
}

/// Point-in-time quality snapshot handed to the engine's sampler.
#[derive(Debug)]
pub(crate) struct QualitySnapshot {
    pub quality: f64,
    pub active: usize,
    pub per_channel_peers: Vec<usize>,
    pub per_channel_quality: Vec<f64>,
    pub mean_startup_delay: f64,
}

/// The sessions component; see the module docs.
#[derive(Debug)]
pub struct Sessions {
    catalog: Catalog,
    rng: StdRng,
    chunk_seconds: f64,
    eff: f64,
    sample_window: f64,
    stream: ArrivalStream,
    /// The arrival the pending `NextArrival` event will admit.
    pending_arrival: Option<UserArrival>,
    /// Session slab: `None` marks a free slot. Iteration order is slot
    /// order, which only the sampler's integer counts ever see.
    slots: Vec<Option<Session>>,
    /// Free slots, reused last-freed first.
    free: Vec<usize>,
    /// Tracker observations `(channel, observation)` not yet handed to
    /// the provisioner; reused across dispatches.
    observations: Vec<(usize, Observation)>,
    /// Usable (efficiency-scaled) upload pool per channel.
    pool: Vec<f64>,
    /// Per-channel, per-chunk usable upload of the chunk's owners — the
    /// fluid allocator's `owner_upload` constraint, maintained
    /// incrementally on buffer additions and departures.
    owner_upload: Vec<Vec<f64>>,
    /// Upload-capacity distribution for injected viewers.
    upload_dist: BoundedPareto,
    injected: u64,
    /// The configuration's fault schedule (arrival shedding under
    /// [`crate::faults::DegradeMode::ShedNewArrivals`]).
    faults: crate::faults::FaultSchedule,
    /// Trace arrivals refused while shedding.
    shed: u64,
    /// Start-up delay accumulators for the current sample window.
    startup_sum: f64,
    startup_count: usize,
}

impl Sessions {
    /// Builds the component from the run configuration.
    ///
    /// # Errors
    ///
    /// Propagates trace-configuration validation failures.
    pub(crate) fn new(cfg: &SimConfig) -> Result<Self, SimError> {
        let stream = ArrivalStream::new(&cfg.catalog, &cfg.trace)?;
        let upload_dist = BoundedPareto::new(
            cfg.trace.upload_min_bps,
            cfg.trace.upload_max_bps,
            cfg.trace.upload_shape,
        )?;
        Ok(Self {
            catalog: cfg.catalog.clone(),
            rng: StdRng::seed_from_u64(cfg.behaviour_seed),
            chunk_seconds: cfg.chunk_seconds,
            eff: cfg.peer_efficiency,
            sample_window: cfg.sample_interval,
            stream,
            pending_arrival: None,
            slots: Vec::new(),
            free: Vec::new(),
            observations: Vec::new(),
            pool: vec![0.0; cfg.catalog.len()],
            owner_upload: cfg
                .catalog
                .channels()
                .iter()
                .map(|spec| vec![0.0; spec.viewing.chunks])
                .collect(),
            upload_dist,
            injected: 0,
            faults: cfg.faults.clone(),
            shed: 0,
            startup_sum: 0.0,
            startup_count: 0,
        })
    }

    /// Pulls the first trace arrival and schedules its `NextArrival`.
    pub(crate) fn schedule_first_arrival(&mut self, kernel: &mut Kernel<CmEvent>) {
        if let Some(a) = self.stream.next() {
            kernel.schedule_at(a.time, SESSIONS, CmEvent::NextArrival);
            self.pending_arrival = Some(a);
        }
    }

    /// Viewers injected by flash-crowd bursts so far.
    pub(crate) fn injected_viewers(&self) -> u64 {
        self.injected
    }

    /// Trace arrivals refused by the shedding degrade policy so far.
    pub(crate) fn shed_arrivals(&self) -> u64 {
        self.shed
    }

    /// The tracker observations recorded since the last drain, in the
    /// order they happened.
    pub(crate) fn drain_observations(&mut self) -> std::vec::Drain<'_, (usize, Observation)> {
        self.observations.drain(..)
    }

    /// Admits one viewer: creates the session and announces it.
    fn join(
        &mut self,
        kernel: &mut Kernel<CmEvent>,
        channel: usize,
        start_chunk: usize,
        upload: f64,
    ) {
        let now = kernel.now();
        let usable = upload * self.eff;
        let session = Session {
            channel,
            usable_upload: usable,
            buffer: 0,
            state: SessState::Downloading {
                chunk: start_chunk,
                deadline: f64::INFINITY,
            },
            last_stall_at: None,
            joined_at: now,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(session);
                slot
            }
            None => {
                self.slots.push(Some(session));
                self.slots.len() - 1
            }
        };
        self.pool[channel] += usable;
        kernel.schedule_in(
            0.0,
            ADMISSION,
            CmEvent::PoolUpdate {
                channel,
                usable_upload: self.pool[channel],
            },
        );
        self.observations
            .push((channel, Observation::Join { chunk: start_chunk }));
        kernel.schedule_in(
            0.0,
            ADMISSION,
            CmEvent::ChunkRequest {
                session: slot,
                channel,
                chunk: start_chunk,
                owner_upload: self.owner_upload[channel]
                    .get(start_chunk)
                    .copied()
                    .unwrap_or(0.0),
            },
        );
    }

    /// Removes a departed session and announces the pool change.
    fn depart(&mut self, kernel: &mut Kernel<CmEvent>, slot: usize) {
        let s = self.slots[slot]
            .take()
            .expect("departing session is connected");
        self.free.push(slot);
        self.pool[s.channel] = (self.pool[s.channel] - s.usable_upload).max(0.0);
        let mut bits = s.buffer;
        while bits != 0 {
            let k = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if let Some(o) = self.owner_upload[s.channel].get_mut(k) {
                *o = (*o - s.usable_upload).max(0.0);
            }
        }
        kernel.schedule_in(
            0.0,
            ADMISSION,
            CmEvent::PoolUpdate {
                channel: s.channel,
                usable_upload: self.pool[s.channel],
            },
        );
    }

    /// A requested chunk reached session `slot` now: buffer it, account
    /// start-up delay or a stall, and walk the viewing model on. Called
    /// by the engine right after the admission component released the
    /// transfer, and by the remote-overflow `Delivered` event.
    pub(crate) fn deliver(&mut self, kernel: &mut Kernel<CmEvent>, slot: usize, chunk: usize) {
        let now = kernel.now();
        let s = self.slots[slot]
            .as_mut()
            .expect("downloads belong to connected sessions");
        let SessState::Downloading {
            chunk: cur,
            deadline,
        } = s.state
        else {
            unreachable!("deliveries target downloading sessions");
        };
        debug_assert_eq!(cur, chunk);
        s.buffer |= 1u64 << chunk;
        let (ch, usable) = (s.channel, s.usable_upload);
        if let Some(o) = self.owner_upload[ch].get_mut(chunk) {
            *o += usable;
        }
        if deadline.is_finite() {
            if now > deadline {
                s.last_stall_at = Some(now);
            }
        } else {
            // First chunk: playback starts now.
            self.startup_sum += now - s.joined_at;
            self.startup_count += 1;
        }
        let play_start = if deadline.is_finite() {
            deadline.max(now)
        } else {
            now
        };
        self.advance_playback(kernel, slot, chunk, play_start + self.chunk_seconds);
    }

    /// Walks the viewing model after `chunk` finished (or was found
    /// buffered): starts/gates the next download or schedules departure.
    /// `play_end` is the playback end time of `chunk`.
    fn advance_playback(
        &mut self,
        kernel: &mut Kernel<CmEvent>,
        slot: usize,
        chunk: usize,
        mut play_end: f64,
    ) {
        let now = kernel.now();
        let s = self.slots[slot].as_ref().expect("session is connected");
        let channel = s.channel;
        let buffer = s.buffer;
        let viewing = self.catalog.channel(channel).viewing;
        let mut current = chunk;
        loop {
            match viewing.sample_next(&mut self.rng, current) {
                NextAction::Watch(next) => {
                    self.observations.push((
                        channel,
                        Observation::Transition {
                            from: current,
                            to: next,
                        },
                    ));
                    if buffer & (1u64 << next) != 0 {
                        // Already buffered (a jump back): plays straight
                        // from the buffer; decide again after it.
                        play_end += self.chunk_seconds;
                        current = next;
                        continue;
                    }
                    let gate = play_end - PREFETCH_WINDOWS * self.chunk_seconds;
                    let s = self.slots[slot].as_mut().expect("session is connected");
                    if gate > now {
                        s.state = SessState::Waiting {
                            next: Some(PendingChunk {
                                chunk: next,
                                deadline: play_end,
                            }),
                        };
                        kernel.schedule_at(gate, SESSIONS, CmEvent::Wake { session: slot });
                    } else {
                        s.state = SessState::Downloading {
                            chunk: next,
                            deadline: play_end,
                        };
                        kernel.schedule_in(
                            0.0,
                            ADMISSION,
                            CmEvent::ChunkRequest {
                                session: slot,
                                channel,
                                chunk: next,
                                owner_upload: self.owner_upload[channel]
                                    .get(next)
                                    .copied()
                                    .unwrap_or(0.0),
                            },
                        );
                    }
                    return;
                }
                NextAction::Leave => {
                    self.observations
                        .push((channel, Observation::Leave { from: current }));
                    if play_end <= now {
                        self.depart(kernel, slot);
                    } else {
                        // Drain playback (still uploading), then depart.
                        let s = self.slots[slot].as_mut().expect("session is connected");
                        s.state = SessState::Waiting { next: None };
                        kernel.schedule_at(play_end, SESSIONS, CmEvent::Wake { session: slot });
                    }
                    return;
                }
            }
        }
    }

    /// Builds the quality sample for `[now - window, now]` and resets the
    /// start-up accumulators.
    pub(crate) fn quality_snapshot(&mut self, now: f64) -> QualitySnapshot {
        let n_channels = self.pool.len();
        let mut per_channel_peers = vec![0usize; n_channels];
        let mut per_channel_smooth = vec![0usize; n_channels];
        let mut smooth = 0usize;
        let mut active = 0usize;
        for s in self.slots.iter().flatten() {
            active += 1;
            per_channel_peers[s.channel] += 1;
            let stalled_recently = s
                .last_stall_at
                .is_some_and(|t| t >= now - self.sample_window);
            let overdue = matches!(
                s.state,
                SessState::Downloading { deadline, .. } if now > deadline
            );
            if !stalled_recently && !overdue {
                smooth += 1;
                per_channel_smooth[s.channel] += 1;
            }
        }
        let quality = if active == 0 {
            1.0
        } else {
            smooth as f64 / active as f64
        };
        let per_channel_quality = per_channel_peers
            .iter()
            .zip(&per_channel_smooth)
            .map(|(&n, &s)| if n == 0 { 1.0 } else { s as f64 / n as f64 })
            .collect();
        let mean_startup_delay = if self.startup_count > 0 {
            self.startup_sum / self.startup_count as f64
        } else {
            0.0
        };
        self.startup_sum = 0.0;
        self.startup_count = 0;
        QualitySnapshot {
            quality,
            active,
            per_channel_peers,
            per_channel_quality,
            mean_startup_delay,
        }
    }
}

impl Component<CmEvent> for Sessions {
    fn handle(&mut self, event: Event<CmEvent>, kernel: &mut Kernel<CmEvent>) {
        let now = event.time;
        match event.payload {
            CmEvent::NextArrival => {
                let a = self
                    .pending_arrival
                    .take()
                    .expect("a NextArrival event always has its arrival staged");
                debug_assert_eq!(a.time, now);
                // Graceful degradation: during an active fleet-failure
                // window with ShedNewArrivals, refuse admission.
                if self.faults.shed_arrivals_at(a.time) {
                    self.shed += 1;
                } else {
                    self.join(kernel, a.channel, a.start_chunk, a.upload_bytes_per_sec);
                }
                if let Some(next) = self.stream.next() {
                    kernel.schedule_at(next.time, SESSIONS, CmEvent::NextArrival);
                    self.pending_arrival = Some(next);
                }
            }
            CmEvent::FlashCrowd {
                channel,
                extra,
                window,
            } => {
                // Sub-round timing: each injected viewer lands at its own
                // uniformly sampled instant inside the window.
                for _ in 0..extra {
                    let dt = self.rng.random::<f64>() * window;
                    let upload = self.upload_dist.sample(&mut self.rng);
                    kernel.schedule_in(dt, SESSIONS, CmEvent::SyntheticJoin { channel, upload });
                }
            }
            CmEvent::SyntheticJoin { channel, upload } => {
                let start_chunk = self
                    .catalog
                    .channel(channel)
                    .viewing
                    .sample_start_chunk(&mut self.rng);
                self.injected += 1;
                self.join(kernel, channel, start_chunk, upload);
            }
            CmEvent::Wake { session } => {
                let s = self.slots[session]
                    .as_mut()
                    .expect("waiting sessions stay until they wake");
                let SessState::Waiting { next } = s.state else {
                    unreachable!("wake events target waiting sessions");
                };
                match next {
                    Some(pending) => {
                        let channel = s.channel;
                        s.state = SessState::Downloading {
                            chunk: pending.chunk,
                            deadline: pending.deadline,
                        };
                        kernel.schedule_in(
                            0.0,
                            ADMISSION,
                            CmEvent::ChunkRequest {
                                session,
                                channel,
                                chunk: pending.chunk,
                                owner_upload: self.owner_upload[channel]
                                    .get(pending.chunk)
                                    .copied()
                                    .unwrap_or(0.0),
                            },
                        );
                    }
                    None => self.depart(kernel, session),
                }
            }
            CmEvent::Delivered { session, chunk } => self.deliver(kernel, session, chunk),
            other => unreachable!("sessions received {other:?}"),
        }
    }
}
