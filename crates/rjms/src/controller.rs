//! The controller: the simulator's `slurmctld`.
//!
//! The controller owns the cluster state, the pending queue, the event queue,
//! the reservation book and the scheduling hook. It advances the simulation
//! clock by consuming events (submissions, completions, reservation windows)
//! and, after every event batch, runs a scheduling pass — priority sort,
//! FCFS + EASY backfilling, node selection, hook authorisation.
//!
//! Because the simulation is a pure discrete-event system, the cluster state
//! only changes at events, so running the scheduler exactly once per event
//! timestamp is both sufficient and deterministic.
//!
//! A batch of only job submissions frees nothing: only the clock moved and
//! new jobs arrived. After such a batch the pass is skipped when it provably
//! starts nothing. Each pass leaves a `Certificate` on every job it finds
//! unable to start, and the skip test re-examines only the jobs whose
//! certificate no longer holds (new arrivals, mostly). When every pending
//! job holds one, no priority order can start a job, so the pass — whose
//! only other effect is the fair-share decay, still applied — is skipped
//! with byte-identical results.

use apc_power::{Frequency, Joules, Watts};

use crate::backfill::{can_backfill, shadow_reservation, ShadowReservation};
use crate::cluster::{Cluster, Platform};
use crate::config::ControllerConfig;
use crate::event::{Event, EventQueue};
use crate::hook::{NullHook, SchedulingHook, StartDecision};
use crate::job::{Job, JobId, JobState, JobSubmission};
use crate::log::{SimEventKind, SimLog};
use crate::mask::NodeMask;
use crate::obs::{ControllerObs, PassMeasurements};
use crate::priority::{FairShareTracker, MultifactorPriority, PriorityKey};
use crate::reservation::{ReservationBook, ReservationId, ReservationKind};
use crate::select::{NodeSelector, SelectScratch};
use crate::time::{SimTime, TimeWindow};

/// Width of the blocked-set signature: the number of node-carrying
/// reservations that can be distinguished by one bit each. Passes seeing
/// more fall back to exact per-job blocked-set computation (no silent
/// truncation — see `schedule_pass`).
const SIGNATURE_BITS: usize = 128;

/// Aggregate results of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// End of the simulated interval.
    pub horizon: SimTime,
    /// Jobs that were started during the interval.
    pub launched_jobs: usize,
    /// Jobs that ran to completion.
    pub completed_jobs: usize,
    /// Jobs killed by the controller.
    pub killed_jobs: usize,
    /// Jobs still pending at the end of the interval.
    pub pending_jobs: usize,
    /// Useful work delivered inside the interval, in core-seconds.
    pub work_core_seconds: f64,
    /// Total energy consumed by the cluster over the interval.
    pub energy: Joules,
    /// Mean queue wait time of started jobs, in seconds.
    pub mean_wait_seconds: f64,
}

impl SimulationReport {
    /// Work expressed in core-hours.
    pub fn work_core_hours(&self) -> f64 {
        self.work_core_seconds / 3600.0
    }
}

/// One cached blocked-set: the nodes blocked by a specific combination of
/// overlapping reservations (identified by its bit signature) plus the
/// availability count given that set. The node set only depends on the
/// reservation book, so it survives job starts within a pass; the *count*
/// depends on cluster availability and is invalidated (recomputed lazily)
/// whenever a job start changes it.
#[derive(Debug, Default)]
struct BlockedEntry {
    signature: u128,
    blocked: NodeMask,
    count: usize,
    count_valid: bool,
}

/// Why a pending job cannot start: the proof a schedule pass leaves behind
/// so that a later pass can be skipped without examining the job again.
///
/// Between two non-submission events (a *submit-only interval*) the
/// cluster changes only by job starts, and a job's blocked set only grows:
/// a reservation leaves the window `[now, now + walltime)` only when it
/// ends, which is an event, and a later `now` can only reach more of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Certificate {
    /// No proof: the job must be examined.
    #[default]
    Unknown,
    /// The job needs more nodes than are selectable outside its blocked
    /// set. Starts only take nodes and the blocked set only grows, so this
    /// holds until the next non-submission event (`epoch` is the
    /// controller's `event_epoch` when it was made).
    Nodes { epoch: u64 },
    /// Nodes were selected but the hook postponed the job. On an unchanged
    /// cluster and candidate set the hook keeps postponing as `now`
    /// advances (the [`SchedulingHook::authorize_start`] contract), so this
    /// holds until the next job start or non-submission event (`epoch` is
    /// the controller's `state_epoch` when it was made) and while the
    /// job's window overlaps the same node-carrying reservations — that
    /// is, before `expires`, the first instant it reaches one more.
    Power { epoch: u64, expires: SimTime },
}

impl Certificate {
    fn holds(self, now: SimTime, event_epoch: u64, state_epoch: u64) -> bool {
        match self {
            Certificate::Unknown => false,
            Certificate::Nodes { epoch } => epoch == event_epoch,
            Certificate::Power { epoch, expires } => epoch == state_epoch && now < expires,
        }
    }
}

/// Reusable buffers for `schedule_pass`. Taken out of the controller for
/// the duration of a pass (so the borrow checker sees disjoint borrows) and
/// put back afterwards: in the steady state a pass performs no heap
/// allocation for node sets — every `Vec` and [`NodeMask`] here has reached
/// its high-water capacity and is merely cleared.
#[derive(Debug, Default)]
struct ScheduleScratch {
    /// One `(priority, submit_time, id)` sort key per pending job.
    priority_keys: Vec<PriorityKey>,
    /// `(walltime_end, node_count)` of running jobs, for the shadow
    /// reservation (sorted in place by `shadow_reservation`).
    releases: Vec<(SimTime, usize)>,
    /// The node selection of the job currently being examined.
    selected: Vec<usize>,
    /// The same selection as a mask (what the started job keeps).
    selected_mask: NodeMask,
    /// Per-chassis counts for the contiguous selection policy.
    select: SelectScratch,
    /// Census of node-carrying reservations: `(signature bit, window, id)`.
    node_res: Vec<(u128, TimeWindow, ReservationId)>,
    /// The census overflowed the signature width: blocked sets are
    /// computed exactly per job.
    exact_mode: bool,
    /// Blocked-set cache, keyed by signature; `cache[..cache_live]` are the
    /// entries of the current pass (dead entries keep their buffers).
    cache: Vec<BlockedEntry>,
    cache_live: usize,
    /// Exact per-job blocked set, used when the census overflows the
    /// signature width.
    exact_blocked: NodeMask,
}

impl ScheduleScratch {
    /// Sum of buffer capacities — a monotone proxy for "did this pass
    /// allocate". Units are mixed (elements and words); only growth
    /// matters.
    fn footprint(&self) -> usize {
        self.priority_keys.capacity()
            + self.releases.capacity()
            + self.selected.capacity()
            + self.selected_mask.word_capacity()
            + self.select.footprint()
            + self.node_res.capacity()
            + self.cache.capacity()
            + self
                .cache
                .iter()
                .map(|e| e.blocked.word_capacity())
                .sum::<usize>()
            + self.exact_blocked.word_capacity()
    }

    /// Start a pass: take the census of node-carrying reservations and
    /// empty the blocked-set cache.
    ///
    /// The blocked-node set of a job only depends on which node-carrying
    /// reservations overlap its prospective window. With a handful of
    /// reservations and thousands of pending jobs, most jobs share the
    /// same overlap signature, so the (potentially large) node sets are
    /// built once per signature and per pass instead of once per job —
    /// and survive job starts, which only invalidate the availability
    /// *counts*. Should the census ever exceed the signature width, the
    /// pass falls back to exact per-job computation instead of silently
    /// ignoring the overflow (reservation #129 blocks nodes too).
    fn take_census(&mut self, reservations: &ReservationBook) {
        self.node_res.clear();
        let mut total = 0usize;
        for r in reservations.all() {
            if r.blocked_nodes().is_some() {
                if total < SIGNATURE_BITS {
                    self.node_res.push((1u128 << total, r.window, r.id));
                }
                total += 1;
            }
        }
        self.exact_mode = total > SIGNATURE_BITS;
        self.cache_live = 0;
    }

    /// Resolve the blocked set of the window `[now, window_end)` and the
    /// number of nodes selectable outside it: through the signature cache
    /// normally, exactly per job when the census overflows the signature.
    /// Returns the cache slot (`None` in exact mode, where the set is left
    /// in `exact_blocked`) and the count.
    fn resolve(
        &mut self,
        reservations: &ReservationBook,
        selector: &NodeSelector,
        cluster: &Cluster,
        now: SimTime,
        window_end: SimTime,
        measurements: &mut PassMeasurements,
    ) -> (Option<usize>, usize) {
        if self.exact_mode {
            self.exact_blocked.clear();
            reservations.collect_blocked_within(now, window_end, &mut self.exact_blocked);
            return (None, selector.available_count(cluster, &self.exact_blocked));
        }
        let signature: u128 = self
            .node_res
            .iter()
            .filter(|(_, window, _)| window.overlaps(now, window_end))
            .map(|(bit, _, _)| bit)
            .sum();
        let index = match (0..self.cache_live).find(|&i| self.cache[i].signature == signature) {
            Some(i) => {
                measurements.cache_hits += 1;
                i
            }
            None => {
                measurements.cache_misses += 1;
                let i = self.cache_live;
                if i == self.cache.len() {
                    self.cache.push(BlockedEntry::default());
                }
                let entry = &mut self.cache[i];
                entry.signature = signature;
                entry.blocked.clear();
                entry.count_valid = false;
                for (bit, _, id) in self.node_res.iter() {
                    if signature & bit != 0 {
                        let reservation = reservations.get(*id).expect("censused reservation");
                        if let Some(nodes) = reservation.blocked_nodes() {
                            entry.blocked.extend(nodes.iter().copied());
                        }
                    }
                }
                self.cache_live += 1;
                i
            }
        };
        let entry = &mut self.cache[index];
        if !entry.count_valid {
            entry.count = selector.available_count(cluster, &entry.blocked);
            entry.count_valid = true;
        }
        (Some(index), entry.count)
    }

    /// Select `needed` nodes outside the blocked set `resolve` returned for
    /// `slot`, into `selected`.
    fn select(
        &mut self,
        selector: &NodeSelector,
        cluster: &Cluster,
        needed: usize,
        slot: Option<usize>,
    ) -> bool {
        let blocked = match slot {
            Some(i) => &self.cache[i].blocked,
            None => &self.exact_blocked,
        };
        selector.select_into(
            cluster,
            needed,
            blocked,
            &mut self.select,
            &mut self.selected,
        )
    }

    /// Node availability changed: invalidate the cached counts (the blocked
    /// sets themselves are unaffected).
    fn invalidate_counts(&mut self) {
        for entry in &mut self.cache[..self.cache_live] {
            entry.count_valid = false;
        }
    }
}

/// The central resource and job management daemon.
pub struct Controller {
    cluster: Cluster,
    config: ControllerConfig,
    jobs: Vec<Job>,
    pending: Vec<JobId>,
    running: Vec<JobId>,
    events: EventQueue,
    reservations: ReservationBook,
    hook: Box<dyn SchedulingHook>,
    priority: MultifactorPriority,
    fairshare: FairShareTracker,
    selector: NodeSelector,
    log: SimLog,
    now: SimTime,
    horizon: Option<SimTime>,
    finished: bool,
    events_processed: u64,
    sched_passes: u64,
    skipped_passes: u64,
    /// One [`Certificate`] per job, indexed by job id.
    certificates: Vec<Certificate>,
    /// Bumped by every state change other than a submission or a job
    /// start: non-submission events, kills, new reservations.
    event_epoch: u64,
    /// Bumped with `event_epoch` and by every job start.
    state_epoch: u64,
    scratch: ScheduleScratch,
    scratch_growth_passes: u64,
    obs: ControllerObs,
}

impl Controller {
    /// Create a controller over `platform` with the default (power-unaware)
    /// hook.
    pub fn new(platform: Platform, config: ControllerConfig) -> Self {
        Controller::with_hook(platform, config, Box::new(NullHook))
    }

    /// Create a controller with an explicit scheduling hook (the powercap
    /// logic of `apc-core`).
    pub fn with_hook(
        platform: Platform,
        config: ControllerConfig,
        hook: Box<dyn SchedulingHook>,
    ) -> Self {
        let mut cluster = Cluster::new(platform);
        cluster.record_power_samples(config.record_power_samples);
        Controller {
            cluster,
            config,
            jobs: Vec::new(),
            pending: Vec::new(),
            running: Vec::new(),
            events: EventQueue::new(),
            reservations: ReservationBook::new(),
            hook,
            priority: MultifactorPriority::new(config.params.priority),
            fairshare: FairShareTracker::default(),
            selector: NodeSelector::new(config.selection),
            log: SimLog::new(),
            now: 0,
            horizon: None,
            finished: false,
            events_processed: 0,
            sched_passes: 0,
            skipped_passes: 0,
            certificates: Vec::new(),
            event_epoch: 0,
            state_epoch: 0,
            scratch: ScheduleScratch::default(),
            scratch_growth_passes: 0,
            obs: ControllerObs::disabled(),
        }
    }

    /// Attach observability handles (schedule-pass histograms, blocked-set
    /// cache counters, probe-path counters, per-pass spans). Disabled by
    /// default; never affects scheduling decisions or any simulation output.
    pub fn set_obs(&mut self, obs: ControllerObs) {
        self.obs = obs;
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The cluster state.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// All jobs known to the controller.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// One job.
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[id]
    }

    /// The simulation log.
    pub fn log(&self) -> &SimLog {
        &self.log
    }

    /// The reservation book.
    pub fn reservations(&self) -> &ReservationBook {
        &self.reservations
    }

    /// Number of jobs waiting in the queue.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Number of running jobs.
    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// Total events consumed by the simulation loop so far (throughput
    /// counter for the perf-baseline tooling).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of scheduling passes run so far (one per event batch),
    /// skipped ones included.
    pub fn schedule_passes(&self) -> u64 {
        self.sched_passes
    }

    /// Number of passes skipped after a submit-only batch because no
    /// pending job could start (a subset of
    /// [`schedule_passes`](Self::schedule_passes)).
    pub fn skipped_passes(&self) -> u64 {
        self.skipped_passes
    }

    /// Number of scheduling passes whose scratch buffers had to grow.
    /// After warm-up this stays flat: the steady state performs no per-pass
    /// heap allocation for node sets (asserted by
    /// `steady_state_scheduling_stops_allocating`).
    pub fn scratch_growth_passes(&self) -> u64 {
        self.scratch_growth_passes
    }

    /// Take the simulation log out of the controller (leaving an empty
    /// one) — lets the replay harness hand the log to its outcome without
    /// cloning every event.
    pub fn take_log(&mut self) -> SimLog {
        std::mem::replace(&mut self.log, SimLog::new())
    }

    /// Seed historical fair-share usage (phase ii of the replay methodology).
    pub fn seed_fairshare(&mut self, user: usize, core_seconds: f64) {
        self.fairshare.seed_usage(user, core_seconds);
    }

    // ------------------------------------------------------------------
    // Submission API
    // ------------------------------------------------------------------

    /// Submit a job. If its submit time is in the past it is queued
    /// immediately at the current time.
    pub fn submit(&mut self, submission: JobSubmission) -> JobId {
        let id = self.jobs.len();
        let at = submission.submit_time.max(self.now);
        self.jobs.push(Job::new(id, submission));
        self.certificates.push(Certificate::Unknown);
        self.events.push(at, Event::JobSubmit(id));
        id
    }

    /// Submit a whole batch of jobs (a workload trace).
    pub fn submit_all(&mut self, submissions: impl IntoIterator<Item = JobSubmission>) {
        for s in submissions {
            self.submit(s);
        }
    }

    /// Create a powercap reservation: during `window` the cluster power must
    /// stay below `cap`. The offline part of the scheduling hook is invoked
    /// immediately (the paper's Algorithm 1) and its switch-off plan, if any,
    /// is registered as a switch-off reservation on the same window.
    ///
    /// Returns the powercap reservation id and the optional switch-off
    /// reservation id.
    pub fn add_powercap_reservation(
        &mut self,
        window: TimeWindow,
        cap: Watts,
    ) -> (ReservationId, Option<ReservationId>) {
        self.invalidate_certificates();
        let plan =
            self.hook
                .plan_powercap(&self.cluster, &self.reservations, window, cap, self.now);
        let cap_id = self
            .reservations
            .add(window, ReservationKind::PowerCap { cap });
        self.events
            .push(window.start, Event::ReservationStart(cap_id));
        self.events.push(window.end, Event::ReservationEnd(cap_id));
        let off_id = if plan.switch_off_nodes.is_empty() {
            None
        } else {
            let id = self.reservations.add(
                window,
                ReservationKind::SwitchOff {
                    nodes: plan.switch_off_nodes,
                },
            );
            self.events.push(window.start, Event::ReservationStart(id));
            self.events.push(window.end, Event::ReservationEnd(id));
            Some(id)
        };
        (cap_id, off_id)
    }

    /// Create a maintenance reservation draining `nodes` during `window`.
    pub fn add_maintenance_reservation(
        &mut self,
        window: TimeWindow,
        nodes: Vec<usize>,
    ) -> ReservationId {
        self.invalidate_certificates();
        let id = self
            .reservations
            .add(window, ReservationKind::Maintenance { nodes });
        self.events.push(window.start, Event::ReservationStart(id));
        self.events.push(window.end, Event::ReservationEnd(id));
        id
    }

    /// Inject a node outage (fault injection): the node fails at `down` —
    /// powering off immediately and killing whatever job occupies it — and
    /// recovers at `up`, rejoining the idle pool. Outages are ordinary
    /// events, so replays with the same plan are fully deterministic.
    pub fn inject_node_outage(&mut self, node: usize, down: SimTime, up: SimTime) {
        assert!(
            node < self.cluster.total_nodes(),
            "outage on node {node} outside the platform"
        );
        assert!(down < up, "outage must recover after it fails");
        self.events.push(down, Event::NodeDown(node));
        self.events.push(up, Event::NodeUp(node));
    }

    /// Define the end of the simulated interval. Events after the horizon are
    /// not processed and the final report covers `[0, horizon)`.
    pub fn set_horizon(&mut self, horizon: SimTime) {
        self.horizon = Some(horizon);
        self.events.push(horizon, Event::EndOfSimulation);
    }

    // ------------------------------------------------------------------
    // Simulation loop
    // ------------------------------------------------------------------

    /// Run the simulation until the horizon (or until no event remains).
    /// Returns the final report.
    pub fn run(&mut self) -> SimulationReport {
        while let Some(submit_only) = self.next_batch() {
            self.schedule_pass(submit_only);
        }
        self.close()
    }

    /// Bring the clock to the horizon and report.
    fn close(&mut self) -> SimulationReport {
        let horizon = self.horizon.unwrap_or(self.now);
        self.now = self.now.max(horizon);
        self.cluster.advance_time(self.now);
        self.report()
    }

    /// Advance the clock to the next event time and process every event
    /// sharing that timestamp. Returns whether the batch held only job
    /// submissions, or `None` once the simulation is over.
    fn next_batch(&mut self) -> Option<bool> {
        if self.finished {
            return None;
        }
        let (time, event) = self.events.pop()?;
        if let Some(h) = self.horizon {
            if time > h {
                self.now = h;
                return None;
            }
        }
        debug_assert!(time >= self.now, "event time went backwards");
        self.now = time;
        let epoch = self.event_epoch;
        self.process_event(event);
        // Process every event sharing this timestamp before scheduling.
        while self.events.peek_time() == Some(self.now) {
            let (_, e) = self.events.pop().expect("peeked");
            self.process_event(e);
            if self.finished {
                break;
            }
        }
        (!self.finished).then_some(self.event_epoch == epoch)
    }

    fn process_event(&mut self, event: Event) {
        self.events_processed += 1;
        if !matches!(event, Event::JobSubmit(_)) {
            self.invalidate_certificates();
        }
        match event {
            Event::JobSubmit(id) => {
                let job = &self.jobs[id];
                self.log.push(
                    self.now,
                    SimEventKind::JobSubmitted {
                        job: id,
                        cores: job.cores(),
                    },
                );
                self.pending.push(id);
            }
            Event::JobEnd(id) => self.handle_job_end(id),
            Event::ReservationStart(id) => self.handle_reservation_start(id),
            Event::ReservationEnd(id) => self.handle_reservation_end(id),
            Event::ScheduleTick => {}
            Event::NodeDown(node) => self.handle_node_down(node),
            Event::NodeUp(node) => self.handle_node_up(node),
            Event::EndOfSimulation => {
                self.finished = true;
            }
        }
    }

    /// A node fails: power it off (free nodes switch immediately; an
    /// allocated node is drained and powers off when its job releases it)
    /// and kill the occupying job, if any. The kill exercises the same
    /// release path as the powercap "extreme actions".
    fn handle_node_down(&mut self, node: usize) {
        let victim = match self.cluster.node(node).alloc {
            crate::node::AllocationState::Allocated(job) => Some(job),
            _ => None,
        };
        let switched = self.cluster.power_off(&[node], self.now);
        if !switched.is_empty() {
            self.log
                .push(self.now, SimEventKind::NodesPoweredOff { nodes: switched });
        }
        if let Some(job) = victim {
            // The kill releases the drained node, which powers off there;
            // `kill_job` logs both the kill and the power-off.
            self.kill_job(job);
        }
    }

    /// A failed node recovers: power it back on and clear its drain mark so
    /// it rejoins the idle pool at the next scheduling pass.
    fn handle_node_up(&mut self, node: usize) {
        let was_off = self.cluster.node(node).is_off();
        self.cluster.power_on(&[node], self.now);
        if was_off {
            self.log
                .push(self.now, SimEventKind::NodesPoweredOn { nodes: vec![node] });
        }
    }

    fn handle_job_end(&mut self, id: JobId) {
        if self.jobs[id].state != JobState::Running {
            return; // Stale event (job was killed earlier).
        }
        let expected = self.jobs[id].expected_end().unwrap_or(self.now);
        let walltime_end = self.jobs[id].walltime_end().unwrap_or(self.now);
        if self.now < expected.min(walltime_end) {
            return; // Stale event from a superseded schedule.
        }
        let cores = self.jobs[id].cores();
        let frequency = self.jobs[id]
            .frequency
            .expect("running job has a frequency");
        let powering_off = self.release_job_nodes(id);
        self.jobs[id].state = JobState::Completed;
        self.jobs[id].end_time = Some(self.now);
        self.running.retain(|&j| j != id);
        self.log.push(
            self.now,
            SimEventKind::JobCompleted {
                job: id,
                cores,
                frequency,
            },
        );
        if !powering_off.is_empty() {
            self.log.push(
                self.now,
                SimEventKind::NodesPoweredOff {
                    nodes: powering_off,
                },
            );
        }
    }

    fn handle_reservation_start(&mut self, id: ReservationId) {
        let reservation = self
            .reservations
            .get(id)
            .expect("reservation ids are controller-assigned")
            .clone();
        match reservation.kind {
            ReservationKind::SwitchOff { ref nodes } => {
                let switched = self.cluster.power_off(nodes, self.now);
                if !switched.is_empty() {
                    self.log
                        .push(self.now, SimEventKind::NodesPoweredOff { nodes: switched });
                }
            }
            ReservationKind::Maintenance { ref nodes } => {
                self.cluster.drain(nodes);
            }
            ReservationKind::PowerCap { cap } => {
                self.log.push(
                    self.now,
                    SimEventKind::CapActivated {
                        reservation: id,
                        cap,
                    },
                );
                if self.cluster.current_power() > cap {
                    let running: Vec<&Job> = self.running.iter().map(|&j| &self.jobs[j]).collect();
                    let kills = self
                        .hook
                        .on_cap_start(&self.cluster, &running, cap, self.now);
                    for job in kills {
                        self.kill_job(job);
                    }
                }
            }
        }
    }

    fn handle_reservation_end(&mut self, id: ReservationId) {
        let reservation = self
            .reservations
            .get(id)
            .expect("reservation ids are controller-assigned")
            .clone();
        match reservation.kind {
            ReservationKind::SwitchOff { ref nodes } => {
                self.cluster.power_on(nodes, self.now);
                self.log.push(
                    self.now,
                    SimEventKind::NodesPoweredOn {
                        nodes: nodes.clone(),
                    },
                );
            }
            ReservationKind::Maintenance { ref nodes } => {
                self.cluster.undrain(nodes);
            }
            ReservationKind::PowerCap { .. } => {
                self.log
                    .push(self.now, SimEventKind::CapDeactivated { reservation: id });
            }
        }
    }

    /// Kill a running job immediately (powercap "extreme actions").
    pub fn kill_job(&mut self, id: JobId) {
        if self.jobs[id].state != JobState::Running {
            return;
        }
        self.invalidate_certificates();
        let cores = self.jobs[id].cores();
        let frequency = self.jobs[id]
            .frequency
            .expect("running job has a frequency");
        let powering_off = self.release_job_nodes(id);
        self.jobs[id].state = JobState::Killed;
        self.jobs[id].end_time = Some(self.now);
        self.running.retain(|&j| j != id);
        self.log.push(
            self.now,
            SimEventKind::JobKilled {
                job: id,
                cores,
                frequency,
            },
        );
        if !powering_off.is_empty() {
            self.log.push(
                self.now,
                SimEventKind::NodesPoweredOff {
                    nodes: powering_off,
                },
            );
        }
    }

    /// Void every certificate: the cluster or the reservation book changed
    /// other than by a submission or a job start.
    fn invalidate_certificates(&mut self) {
        self.event_epoch += 1;
        self.state_epoch += 1;
    }

    /// Release a finishing (completed or killed) job's nodes back to the
    /// cluster. The node set is taken out of the job for the release and
    /// handed back afterwards — no clone, the job keeps it for inspection.
    /// Returns the nodes that power off with the release (drained by an
    /// active switch-off reservation), for the caller's event log.
    /// (`Vec::new` does not allocate — the common no-drain case is free.)
    fn release_job_nodes(&mut self, id: JobId) -> Vec<usize> {
        let nodes = std::mem::take(&mut self.jobs[id].nodes);
        let mut powering_off: Vec<usize> = Vec::new();
        for n in nodes.iter() {
            if self.cluster.node(n).drained {
                powering_off.push(n);
            }
        }
        self.cluster.release_mask(&nodes, self.now);
        self.jobs[id].nodes = nodes;
        powering_off
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// One scheduling pass. After a submit-only batch (`submit_only`) the
    /// pass is skipped when [`starts_nothing`](Self::starts_nothing)
    /// proves it would start no job.
    fn schedule_pass(&mut self, submit_only: bool) {
        self.sched_passes += 1;
        if self.pending.is_empty() {
            return;
        }
        // Observability: reads the clock only when handles are attached and
        // publishes once per pass — plain-local accumulation in the loop
        // keeps the uninstrumented hot path untouched.
        let pass = self.obs.pass_begin();
        let mut measurements = PassMeasurements {
            queue_depth: self.pending.len(),
            ..PassMeasurements::default()
        };
        // The decay runs on skipped passes too: its step history decides
        // the f64 usage bits and so every later priority.
        self.fairshare.decay_to(self.now);

        // Take the scratch buffers out of `self` for the pass so their
        // borrows are disjoint from the controller's own fields; they go
        // back (with their grown capacities) at the end.
        let mut scratch = std::mem::take(&mut self.scratch);
        let footprint_before = scratch.footprint();
        scratch.take_census(&self.reservations);
        if submit_only && self.starts_nothing(&mut scratch, &mut measurements) {
            self.skipped_passes += 1;
            self.obs.pass_skipped();
        } else {
            self.full_pass(&mut scratch, &mut measurements);
            self.obs
                .pass_end(pass, measurements, self.cluster.accountant().probe_counts());
        }
        if scratch.footprint() > footprint_before {
            self.scratch_growth_passes += 1;
        }
        self.scratch = scratch;
    }

    /// Would a full pass start nothing, in whatever priority order? True
    /// when no node is free, or when every pending job holds a
    /// [`Certificate`] — jobs without a valid one are examined alone
    /// against the current state and certified on the way.
    ///
    /// Sound because until the first start of a pass every job is examined
    /// against this very state, and backfilling, the shadow reservation and
    /// the examination depth only ever hold jobs back.
    fn starts_nothing(
        &mut self,
        scratch: &mut ScheduleScratch,
        measurements: &mut PassMeasurements,
    ) -> bool {
        if self.cluster.free_count() == 0 {
            return true;
        }
        for i in 0..self.pending.len() {
            let job_id = self.pending[i];
            if self.certificates[job_id].holds(self.now, self.event_epoch, self.state_epoch) {
                continue;
            }
            let (needed, slot, available) = self.resolve(scratch, job_id, measurements);
            if needed > available {
                self.certificates[job_id] = Certificate::Nodes {
                    epoch: self.event_epoch,
                };
                continue;
            }
            if self.authorize(scratch, job_id, needed, slot).is_some() {
                return false;
            }
        }
        true
    }

    /// The nodes `job_id` needs, and the blocked-set slot and selectable
    /// node count of its window `[now, now + walltime)`.
    fn resolve(
        &self,
        scratch: &mut ScheduleScratch,
        job_id: JobId,
        measurements: &mut PassMeasurements,
    ) -> (usize, Option<usize>, usize) {
        let job = &self.jobs[job_id];
        let needed = job.nodes_needed(self.cluster.platform().cores_per_node);
        let window_end = self.now.saturating_add(job.submission.walltime);
        let (slot, available) = scratch.resolve(
            &self.reservations,
            &self.selector,
            &self.cluster,
            self.now,
            window_end,
            measurements,
        );
        (needed, slot, available)
    }

    /// Select nodes for `job_id` and ask the hook: the frequency to start
    /// it at (its nodes left in `scratch.selected`), or `None` after
    /// certifying why it cannot start.
    fn authorize(
        &mut self,
        scratch: &mut ScheduleScratch,
        job_id: JobId,
        needed: usize,
        slot: Option<usize>,
    ) -> Option<Frequency> {
        if !scratch.select(&self.selector, &self.cluster, needed, slot) {
            self.certificates[job_id] = Certificate::Nodes {
                epoch: self.event_epoch,
            };
            return None;
        }
        let decision = self.hook.authorize_start(
            &self.cluster,
            &self.reservations,
            &self.jobs[job_id],
            &scratch.selected,
            self.now,
        );
        match decision {
            StartDecision::Start { frequency } => Some(frequency),
            StartDecision::Postpone => {
                self.certificates[job_id] = Certificate::Power {
                    epoch: self.state_epoch,
                    expires: self.overlap_expiry(job_id),
                };
                None
            }
        }
    }

    /// The first instant after `now` at which `job_id`'s window
    /// `[t, t + walltime)` overlaps a node-carrying reservation it does not
    /// overlap at `now` (`SimTime::MAX` if none lies ahead).
    fn overlap_expiry(&self, job_id: JobId) -> SimTime {
        let walltime = self.jobs[job_id].submission.walltime;
        let window_end = self.now.saturating_add(walltime);
        self.reservations
            .all()
            .iter()
            .filter(|r| r.blocked_nodes().is_some() && r.window.start >= window_end)
            .map(|r| (r.window.start - walltime).saturating_add(1))
            .min()
            .unwrap_or(SimTime::MAX)
    }

    /// The full pass: priority sort, then FCFS + EASY backfilling over the
    /// first `depth` jobs, certifying every job found unable to start.
    fn full_pass(&mut self, scratch: &mut ScheduleScratch, measurements: &mut PassMeasurements) {
        let total_cores = self.cluster.platform().total_cores();
        self.priority.sort_pending(
            &self.jobs,
            &mut self.pending,
            self.now,
            total_cores,
            &self.fairshare,
            &mut scratch.priority_keys,
        );

        let backfill_cfg = self.config.params.backfill;
        let depth = if backfill_cfg.enabled {
            backfill_cfg.depth
        } else {
            1
        };
        let mut shadow: Option<ShadowReservation> = None;
        let mut any_started = false;

        // `start_job` leaves `pending` alone; started jobs drop out of it
        // after the loop.
        for examined in 0..self.pending.len() {
            if examined >= depth {
                break;
            }
            if self.cluster.free_count() == 0 {
                break;
            }
            let job_id = self.pending[examined];
            let walltime = self.jobs[job_id].submission.walltime;
            let (needed, slot, available) = self.resolve(scratch, job_id, measurements);
            let node_bound = needed > available;
            if node_bound {
                // Certified here, before the backfill test may pass over it.
                self.certificates[job_id] = Certificate::Nodes {
                    epoch: self.event_epoch,
                };
            }

            if let Some(sh) = &shadow {
                // A higher-priority job holds a node reservation: only
                // non-delaying candidates may jump ahead.
                if !can_backfill(needed, walltime, available, self.now, sh) {
                    continue;
                }
            }

            if node_bound {
                if shadow.is_none() {
                    // The head job is blocked by node availability: compute
                    // its shadow reservation from running jobs' walltimes and
                    // keep examining candidates only if backfilling is on.
                    scratch.releases.clear();
                    for &j in &self.running {
                        let job = &self.jobs[j];
                        scratch
                            .releases
                            .push((job.walltime_end().unwrap_or(self.now), job.nodes.len()));
                    }
                    shadow = shadow_reservation(needed, available, &mut scratch.releases, self.now);
                    if !backfill_cfg.enabled {
                        break;
                    }
                }
                continue;
            }

            // A postponed job is power-blocked, not node-blocked: no node
            // reservation is held, lower-priority (typically smaller or
            // slower) jobs may still be attempted.
            let Some(frequency) = self.authorize(scratch, job_id, needed, slot) else {
                continue;
            };
            scratch.selected_mask.clear();
            scratch
                .selected_mask
                .extend(scratch.selected.iter().copied());
            self.start_job(job_id, &scratch.selected, &scratch.selected_mask, frequency);
            any_started = true;
            measurements.started += 1;
            // The remaining candidates must see the new availability.
            scratch.invalidate_counts();
        }

        if any_started {
            // O(P) membership check by job state — started jobs left the
            // Pending state in `start_job`, so no started-set scan is
            // needed.
            let jobs = &self.jobs;
            self.pending.retain(|&id| jobs[id].is_pending());
        }
    }

    fn start_job(
        &mut self,
        id: JobId,
        nodes: &[usize],
        node_mask: &NodeMask,
        frequency: Frequency,
    ) {
        let factor = self.hook.runtime_factor_for(&self.jobs[id], frequency);
        let cores = self.jobs[id].cores();
        let user = self.jobs[id].submission.user;
        let actual = self.jobs[id].submission.actual_runtime;
        let walltime = self.jobs[id].submission.walltime;
        let stretched_runtime = ((actual as f64) * factor).ceil() as SimTime;
        let stretched_walltime = ((walltime as f64) * factor).ceil() as SimTime;

        self.cluster.allocate(id, nodes, frequency, self.now);
        self.state_epoch += 1;

        let job = &mut self.jobs[id];
        job.state = JobState::Running;
        job.start_time = Some(self.now);
        job.frequency = Some(frequency);
        job.stretched_runtime = Some(stretched_runtime);
        job.stretched_walltime = Some(stretched_walltime);
        let node_count = nodes.len();
        job.nodes = node_mask.clone();

        let end = self.now + stretched_runtime.min(stretched_walltime).max(1);
        self.events.push(end, Event::JobEnd(id));
        self.running.push(id);
        self.fairshare
            .record_usage(user, cores as f64 * stretched_runtime as f64, self.now);
        self.log.push(
            self.now,
            SimEventKind::JobStarted {
                job: id,
                cores,
                nodes: node_count,
                frequency,
            },
        );
    }

    // ------------------------------------------------------------------
    // Reporting
    // ------------------------------------------------------------------

    /// Build the aggregate report for the interval `[0, now]`.
    pub fn report(&self) -> SimulationReport {
        let horizon = self.horizon.unwrap_or(self.now);
        let launched = self.jobs.iter().filter(|j| j.start_time.is_some()).count();
        let completed = self
            .jobs
            .iter()
            .filter(|j| j.state == JobState::Completed)
            .count();
        let killed = self
            .jobs
            .iter()
            .filter(|j| j.state == JobState::Killed)
            .count();
        let work: f64 = self.jobs.iter().map(|j| j.work_within(0, horizon)).sum();
        let waits: Vec<f64> = self
            .jobs
            .iter()
            .filter(|j| j.start_time.is_some())
            .map(|j| j.wait_time(horizon) as f64)
            .collect();
        let mean_wait = if waits.is_empty() {
            0.0
        } else {
            waits.iter().sum::<f64>() / waits.len() as f64
        };
        SimulationReport {
            horizon,
            launched_jobs: launched,
            completed_jobs: completed,
            killed_jobs: killed,
            pending_jobs: self.pending.len(),
            work_core_seconds: work,
            energy: self.cluster.energy(),
            mean_wait_seconds: mean_wait,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::HOUR;
    use apc_power::Frequency;

    fn platform() -> Platform {
        Platform::curie_scaled(1) // 90 nodes, 1440 cores
    }

    fn controller() -> Controller {
        Controller::new(platform(), ControllerConfig::default())
    }

    fn job(
        user: usize,
        submit: SimTime,
        cores: u32,
        walltime: SimTime,
        runtime: SimTime,
    ) -> JobSubmission {
        JobSubmission::new(user, submit, cores, walltime, runtime)
    }

    #[test]
    fn single_job_runs_to_completion() {
        let mut c = controller();
        c.submit(job(0, 10, 32, 3600, 600));
        c.set_horizon(2 * HOUR);
        let report = c.run();
        assert_eq!(report.launched_jobs, 1);
        assert_eq!(report.completed_jobs, 1);
        assert_eq!(report.killed_jobs, 0);
        assert_eq!(report.pending_jobs, 0);
        let j = c.job(0);
        assert_eq!(j.start_time, Some(10));
        assert_eq!(j.end_time, Some(610));
        assert_eq!(j.frequency, Some(Frequency::from_ghz(2.7)));
        assert_eq!(j.nodes.len(), 2);
        // Work = 600 s * 32 cores.
        assert!((report.work_core_seconds - 600.0 * 32.0).abs() < 1e-9);
        assert!(report.energy.as_joules() > 0.0);
    }

    #[test]
    fn fcfs_order_without_contention() {
        let mut c = controller();
        for i in 0..5 {
            c.submit(job(i, 100 + i as SimTime, 160, 3600, 1000));
        }
        c.set_horizon(HOUR);
        let report = c.run();
        assert_eq!(report.launched_jobs, 5);
        // Every job starts at its submission time (10 nodes each, 50 < 90).
        for i in 0..5 {
            assert_eq!(c.job(i).start_time, Some(100 + i as SimTime));
        }
    }

    #[test]
    fn jobs_queue_when_cluster_is_full() {
        let mut c = controller();
        // Two jobs of 60 nodes each cannot run together on 90 nodes.
        c.submit(job(0, 0, 960, 2 * HOUR, 1000));
        c.submit(job(1, 0, 960, 2 * HOUR, 1000));
        c.set_horizon(4 * HOUR);
        let report = c.run();
        assert_eq!(report.launched_jobs, 2);
        assert_eq!(c.job(0).start_time, Some(0));
        // The second starts when the first completes (runtime 1000), not at
        // its walltime.
        assert_eq!(c.job(1).start_time, Some(1000));
        let _ = report;
    }

    #[test]
    fn easy_backfilling_lets_small_jobs_jump_ahead() {
        let mut c = controller();
        // Job 0 occupies 80 nodes for 1000 s.
        c.submit(job(0, 0, 1280, 2000, 1000));
        // Job 1 (head of queue at t=1) needs 90 nodes: must wait for job 0.
        c.submit(job(1, 1, 1440, 2000, 500));
        // Job 2 needs 5 nodes for 500 s (walltime 900 <= shadow time 2000):
        // it can backfill into the 10 idle nodes.
        c.submit(job(2, 2, 80, 900, 500));
        c.set_horizon(2 * HOUR);
        c.run();
        assert_eq!(c.job(2).start_time, Some(2), "small job backfills");
        assert!(
            c.job(1).start_time.unwrap() >= 1000,
            "head job waits for nodes"
        );
    }

    #[test]
    fn backfilling_respects_the_shadow_reservation() {
        let mut c = controller();
        // Job 0: 80 nodes, actual runtime 1000 s, walltime 1200 s.
        c.submit(job(0, 0, 1280, 1200, 1000));
        // Job 1: 90 nodes -> waits; its shadow time is t=1200 (walltime end).
        c.submit(job(1, 1, 1440, 2000, 500));
        // Job 2: 10 nodes but walltime 5000 s > shadow time and it would eat
        // into the head job's nodes -> must NOT backfill.
        c.submit(job(2, 2, 160, 5000, 4000));
        c.set_horizon(4 * HOUR);
        c.run();
        let start2 = c.job(2).start_time.unwrap();
        assert!(
            start2 >= c.job(1).start_time.unwrap(),
            "the long wide job must not delay the reserved head job"
        );
    }

    #[test]
    fn disabled_backfill_is_strict_fcfs() {
        let params = crate::config::SchedulerParameters {
            backfill: crate::backfill::BackfillConfig {
                enabled: false,
                depth: 0,
            },
            ..Default::default()
        };
        let cfg = ControllerConfig::default().with_params(params);
        let mut c = Controller::new(platform(), cfg);
        c.submit(job(0, 0, 1280, 2000, 1000));
        c.submit(job(1, 1, 1440, 2000, 500)); // blocks
        c.submit(job(2, 2, 80, 900, 500)); // would backfill, must not
        c.set_horizon(2 * HOUR);
        c.run();
        assert!(c.job(2).start_time.unwrap() >= 1000);
    }

    #[test]
    fn walltime_overrun_is_cut_short() {
        let mut c = controller();
        // Actual runtime exceeds the requested walltime: the controller stops
        // the job at its (stretched) walltime.
        c.submit(job(0, 0, 16, 100, 500));
        c.set_horizon(HOUR);
        c.run();
        assert_eq!(c.job(0).end_time, Some(100));
    }

    #[test]
    fn switch_off_reservation_powers_nodes_down_and_back_up() {
        let mut c = controller();
        let window = TimeWindow::new(1000, 2000);
        let nodes: Vec<usize> = (0..18).collect();
        let id = c.reservations.add(
            window,
            ReservationKind::SwitchOff {
                nodes: nodes.clone(),
            },
        );
        c.events.push(window.start, Event::ReservationStart(id));
        c.events.push(window.end, Event::ReservationEnd(id));
        c.set_horizon(3000);
        c.run();
        // After the window the nodes are available again.
        assert_eq!(c.cluster().powered_off_count(), 0);
        assert_eq!(c.cluster().free_count(), 90);
        // Power-off and power-on events were logged.
        assert_eq!(
            c.log()
                .count_matching(|e| matches!(e.kind, SimEventKind::NodesPoweredOff { .. })),
            1
        );
        assert_eq!(
            c.log()
                .count_matching(|e| matches!(e.kind, SimEventKind::NodesPoweredOn { .. })),
            1
        );
    }

    #[test]
    fn switch_off_reservation_excludes_nodes_from_scheduling() {
        let mut c = controller();
        let window = TimeWindow::new(500, 4000);
        let nodes: Vec<usize> = (0..45).collect();
        let id = c
            .reservations
            .add(window, ReservationKind::SwitchOff { nodes });
        c.events.push(window.start, Event::ReservationStart(id));
        c.events.push(window.end, Event::ReservationEnd(id));
        // A 60-node job submitted at t=0 with a walltime overlapping the
        // window cannot use the reserved nodes, so it has to wait until the
        // reservation ends.
        c.submit(job(0, 0, 960, 2 * HOUR, 600));
        c.set_horizon(3 * HOUR);
        c.run();
        assert!(c.job(0).start_time.unwrap() >= 4000);
    }

    #[test]
    fn maintenance_reservation_drains_without_power_off() {
        let mut c = controller();
        let id = c.add_maintenance_reservation(TimeWindow::new(0, 1000), (0..90).collect());
        assert_eq!(id, 0);
        c.submit(job(0, 10, 16, 3600, 60));
        c.set_horizon(HOUR);
        c.run();
        // The job could only start after the maintenance window.
        assert!(c.job(0).start_time.unwrap() >= 1000);
        assert_eq!(c.cluster().powered_off_count(), 0);
    }

    #[test]
    fn kill_job_releases_nodes_and_logs() {
        let mut c = controller();
        c.submit(job(0, 0, 160, 3600, 3000));
        c.set_horizon(100);
        // Run the submission event only.
        c.run();
        assert_eq!(c.running_count(), 1);
        c.kill_job(0);
        assert_eq!(c.running_count(), 0);
        assert_eq!(c.job(0).state, JobState::Killed);
        assert_eq!(c.cluster().free_count(), 90);
        assert_eq!(
            c.log()
                .count_matching(|e| matches!(e.kind, SimEventKind::JobKilled { .. })),
            1
        );
        // Killing twice is a no-op.
        c.kill_job(0);
        assert_eq!(
            c.log()
                .count_matching(|e| matches!(e.kind, SimEventKind::JobKilled { .. })),
            1
        );
    }

    #[test]
    fn node_outage_kills_the_occupying_job_and_recovers() {
        let mut c = controller();
        // One job on 2 nodes (32 cores), running [0, 3000).
        c.submit(job(0, 0, 32, 3600, 3000));
        // The job lands on nodes 0-1; fail node 0 mid-run.
        c.inject_node_outage(0, 500, 1500);
        c.set_horizon(HOUR);
        let report = c.run();
        assert_eq!(report.killed_jobs, 1, "the occupying job is killed");
        assert_eq!(c.job(0).state, JobState::Killed);
        assert_eq!(c.job(0).end_time, Some(500));
        // After recovery the whole cluster is schedulable again.
        assert_eq!(c.cluster().powered_off_count(), 0);
        assert_eq!(c.cluster().free_count(), 90);
        assert_eq!(
            c.log()
                .count_matching(|e| matches!(e.kind, SimEventKind::JobKilled { .. })),
            1
        );
        assert_eq!(
            c.log()
                .count_matching(|e| matches!(e.kind, SimEventKind::NodesPoweredOn { .. })),
            1
        );
    }

    #[test]
    fn node_outage_on_a_free_node_just_removes_capacity() {
        let mut c = controller();
        c.inject_node_outage(5, 100, 900);
        // A 90-node job submitted during the outage must wait for recovery.
        c.submit(job(0, 200, 1440, 3600, 600));
        c.set_horizon(HOUR);
        let report = c.run();
        assert_eq!(report.killed_jobs, 0);
        assert_eq!(c.job(0).start_time, Some(900));
        assert_eq!(c.cluster().free_count(), 90);
        assert_eq!(
            c.log()
                .count_matching(|e| matches!(e.kind, SimEventKind::NodesPoweredOff { .. })),
            1
        );
    }

    #[test]
    fn outages_are_deterministic_events() {
        let build = || {
            let mut c = controller();
            for i in 0..30 {
                c.submit(job(
                    i % 4,
                    (i as SimTime * 17) % 600,
                    32 + (i as u32 % 5) * 96,
                    3600,
                    400 + (i as SimTime % 7) * 100,
                ));
            }
            c.inject_node_outage(3, 300, 2000);
            c.inject_node_outage(40, 700, 1500);
            c.set_horizon(2 * HOUR);
            c.run();
            c.jobs()
                .iter()
                .map(|j| (j.id, j.start_time, j.end_time, j.state))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn report_counts_are_consistent() {
        let mut c = controller();
        for i in 0..20 {
            c.submit(job(i % 4, i as SimTime * 30, 64, 1800, 900));
        }
        c.set_horizon(2 * HOUR);
        let report = c.run();
        assert_eq!(report.launched_jobs, 20);
        assert_eq!(
            report.completed_jobs + report.killed_jobs + report.pending_jobs,
            20
        );
        assert!(report.mean_wait_seconds >= 0.0);
        assert!(report.work_core_hours() > 0.0);
        assert_eq!(report.horizon, 2 * HOUR);
    }

    #[test]
    fn determinism_same_inputs_same_schedule() {
        let build = || {
            let mut c = controller();
            for i in 0..50 {
                c.submit(job(
                    i % 7,
                    (i as SimTime * 13) % 900,
                    32 + (i as u32 % 5) * 160,
                    3600,
                    300 + i as SimTime * 7,
                ));
            }
            c.set_horizon(3 * HOUR);
            c.run();
            c.jobs()
                .iter()
                .map(|j| (j.id, j.start_time, j.end_time))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    /// Regression for the signature-cache overflow: the seed capped the
    /// census at 128 node-carrying reservations, so a 129th reservation's
    /// nodes silently became schedulable. Past the cap the controller now
    /// computes every job's blocked set exactly.
    #[test]
    fn reservation_129_still_blocks_its_nodes() {
        let mut c = Controller::new(Platform::curie_scaled(2), ControllerConfig::default());
        // 129 maintenance reservations, one node each, on a future window
        // that overlaps the job's execution.
        for node in 0..129 {
            c.add_maintenance_reservation(TimeWindow::new(1000, 10_000), vec![node]);
        }
        // 180 nodes, 129 blocked ⇒ 51 selectable inside the window. A job
        // needing 52 nodes must wait for the window to end; with the seed's
        // truncation, node 128 looked free and the job started at t = 0.
        c.submit(job(0, 0, 52 * 16, 5000, 4000));
        c.set_horizon(20_000);
        c.run();
        assert!(
            c.job(0).start_time.unwrap() >= 10_000,
            "the 129th reservation's node must not be schedulable (started at {:?})",
            c.job(0).start_time
        );
        // Sanity: a job that fits next to all 129 blocked nodes does start
        // immediately.
        let mut c = Controller::new(Platform::curie_scaled(2), ControllerConfig::default());
        for node in 0..129 {
            c.add_maintenance_reservation(TimeWindow::new(1000, 10_000), vec![node]);
        }
        c.submit(job(0, 0, 51 * 16, 5000, 4000));
        c.set_horizon(20_000);
        c.run();
        assert_eq!(c.job(0).start_time, Some(0));
    }

    /// The scheduling hot path must stop allocating once its scratch
    /// buffers reach their steady-state sizes: a long, busy replay may grow
    /// them in early passes but the overwhelming majority of passes reuse
    /// them untouched.
    #[test]
    fn steady_state_scheduling_stops_allocating() {
        let mut c = controller();
        // A switch-off reservation keeps the blocked-set machinery engaged.
        let window = TimeWindow::new(HOUR, 3 * HOUR);
        let id = c.reservations.add(
            window,
            ReservationKind::SwitchOff {
                nodes: (0..18).collect(),
            },
        );
        c.events.push(window.start, Event::ReservationStart(id));
        c.events.push(window.end, Event::ReservationEnd(id));
        // A steady stream of jobs that keeps a deep pending queue.
        for i in 0..400 {
            c.submit(job(
                i % 5,
                (i as SimTime * 13) % (2 * HOUR),
                32 + (i as u32 % 7) * 80,
                3600,
                300 + (i as SimTime % 11) * 120,
            ));
        }
        c.set_horizon(8 * HOUR);
        c.run();
        let passes = c.schedule_passes();
        let grew = c.scratch_growth_passes();
        assert!(passes > 100, "expected a long run, got {passes} passes");
        assert!(
            grew * 10 <= passes,
            "scratch buffers grew in {grew} of {passes} passes — the steady \
             state is supposed to be allocation-free"
        );
    }

    /// Attaching observability must populate the registry without changing
    /// a single scheduling decision.
    #[test]
    fn observability_populates_metrics_without_changing_the_schedule() {
        let run = |instrument: bool| {
            let registry = if instrument {
                apc_obs::Registry::new()
            } else {
                apc_obs::Registry::disabled()
            };
            let spans = if instrument {
                apc_obs::SpanRecorder::new()
            } else {
                apc_obs::SpanRecorder::disabled()
            };
            let mut c = controller();
            c.set_obs(ControllerObs::new(&registry, spans.clone()));
            let window = TimeWindow::new(HOUR, 2 * HOUR);
            let id = c.reservations.add(
                window,
                ReservationKind::SwitchOff {
                    nodes: (0..18).collect(),
                },
            );
            c.events.push(window.start, Event::ReservationStart(id));
            c.events.push(window.end, Event::ReservationEnd(id));
            for i in 0..60 {
                c.submit(job(
                    i % 4,
                    (i as SimTime * 37) % HOUR,
                    32 + (i as u32 % 5) * 96,
                    3600,
                    200 + (i as SimTime % 9) * 100,
                ));
            }
            c.set_horizon(4 * HOUR);
            c.run();
            let schedule: Vec<_> = c
                .jobs()
                .iter()
                .map(|j| (j.id, j.start_time, j.end_time))
                .collect();
            let passes = (c.schedule_passes(), c.skipped_passes());
            (schedule, passes, registry.snapshot(), spans.take_events())
        };
        let (plain, plain_passes, empty_snapshot, no_events) = run(false);
        let (instrumented, (passes, skipped), snapshot, events) = run(true);
        assert_eq!(plain_passes, (passes, skipped));
        assert_eq!(plain, instrumented, "observability changed the schedule");
        assert!(empty_snapshot.entries.is_empty());
        assert!(no_events.is_empty());
        let depth = snapshot
            .histogram("rjms.schedule_pass.queue_depth")
            .expect("pass histogram registered");
        assert!(depth.count > 0, "non-empty passes were recorded");
        // Skipped passes count only in their own counter: no duration,
        // depth or span.
        assert!(skipped > 0, "the submit stream should skip some passes");
        assert_eq!(
            snapshot.counter("rjms.schedule_pass.skipped"),
            Some(skipped)
        );
        let duration = snapshot
            .histogram("rjms.schedule_pass.duration_ns")
            .expect("pass histogram registered");
        assert_eq!(duration.count, depth.count);
        assert_eq!(events.len() as u64, duration.count);
        assert!(duration.count + skipped <= passes);
        let hits = snapshot.counter("rjms.blocked_cache.hits").unwrap();
        let misses = snapshot.counter("rjms.blocked_cache.misses").unwrap();
        assert!(
            hits > misses,
            "jobs share overlap signatures, hits ({hits}) should dominate misses ({misses})"
        );
        assert!(snapshot.counter("rjms.probe.fast").unwrap() > 0 || hits + misses > 0);
        assert!(!events.is_empty(), "per-pass spans were recorded");
        assert!(events.iter().all(|e| e.name == "schedule_pass"));
    }

    #[test]
    fn powercap_reservation_with_null_hook_logs_cap_events() {
        let mut c = controller();
        let (cap_id, off_id) =
            c.add_powercap_reservation(TimeWindow::new(1000, 2000), Watts(10_000.0));
        assert_eq!(cap_id, 0);
        assert!(off_id.is_none(), "the null hook plans no switch-off");
        c.set_horizon(3000);
        c.run();
        assert_eq!(
            c.log()
                .count_matching(|e| matches!(e.kind, SimEventKind::CapActivated { .. })),
            1
        );
        assert_eq!(
            c.log()
                .count_matching(|e| matches!(e.kind, SimEventKind::CapDeactivated { .. })),
            1
        );
    }

    /// Stand-in for the powercap hook (which lives in `apc-core`, above this
    /// crate): Algorithm 2's ladder walk against the tightest cap over the
    /// stretched window, on one policy's ladder. With `gates` on, some jobs
    /// also depend on the cluster's load and on their candidate set in ways
    /// power alone does not — still within the `authorize_start` contract —
    /// so that a certificate kept too long lets the skip start nothing where
    /// the full pass would start a job.
    #[derive(Debug, Clone)]
    struct LadderHook {
        /// Allowed steps, fastest first.
        steps: Vec<Frequency>,
        degradation: apc_power::DegradationModel,
        /// Nodes the offline phase switches off under every cap.
        switch_off: Vec<usize>,
        gates: bool,
    }

    /// Jobs in the second gated class never start on these node ids.
    const GATED_NODES: usize = 8;

    impl LadderHook {
        /// `policy`: 0 = uncapped, 1 = SHUT, 2 = DVFS, 3 = MIX.
        fn new(policy: u8, switch_off: Vec<usize>, gates: bool) -> Self {
            let ladder = apc_power::FrequencyLadder::curie();
            let steps: Vec<Frequency> = ladder
                .steps_descending()
                .filter(|f| match policy {
                    1 => *f == ladder.max(),
                    3 => *f >= Frequency::from_ghz(2.0),
                    _ => true,
                })
                .collect();
            LadderHook {
                steps: if policy == 0 { Vec::new() } else { steps },
                degradation: apc_power::DegradationModel::for_ladder(1.63, &ladder),
                switch_off,
                gates,
            }
        }
    }

    impl SchedulingHook for LadderHook {
        fn authorize_start(
            &mut self,
            cluster: &Cluster,
            reservations: &ReservationBook,
            job: &Job,
            candidate_nodes: &[usize],
            now: SimTime,
        ) -> StartDecision {
            if self.gates {
                // Every third job only starts on a busy machine…
                if job.id.is_multiple_of(3) && cluster.free_count() * 2 > cluster.total_nodes() {
                    return StartDecision::Postpone;
                }
                // …and every third other one never on the low node ids.
                if job.id % 3 == 1 && candidate_nodes.iter().any(|&n| n < GATED_NODES) {
                    return StartDecision::Postpone;
                }
            }
            let fmax = cluster.platform().ladder.max();
            if self.steps.is_empty() {
                return StartDecision::Start { frequency: fmax };
            }
            let profile = &cluster.platform().profile;
            let probe = cluster.busy_probe(candidate_nodes);
            for &frequency in &self.steps {
                let walltime = self
                    .degradation
                    .stretch_runtime(job.submission.walltime, frequency);
                let end = now.saturating_add(walltime.max(1));
                let Some(cap) = reservations.cap_within(now, end) else {
                    return StartDecision::Start { frequency: fmax };
                };
                if cluster.current_power() + probe.delta(profile.busy_watts(frequency)) <= cap {
                    return StartDecision::Start { frequency };
                }
            }
            StartDecision::Postpone
        }

        fn plan_powercap(
            &mut self,
            _cluster: &Cluster,
            _reservations: &ReservationBook,
            _window: TimeWindow,
            _cap: Watts,
            _now: SimTime,
        ) -> crate::hook::OfflinePlan {
            crate::hook::OfflinePlan {
                switch_off_nodes: self.switch_off.clone(),
            }
        }

        fn runtime_factor(&self, frequency: Frequency) -> f64 {
            self.degradation.factor(frequency)
        }
    }

    /// Drive `c` batch by batch as `run` does, but at every submit-only
    /// batch evaluate the skip test and then run the full pass anyway,
    /// asserting that a predicted skip starts nothing. Returns the number
    /// of predicted skips.
    fn run_audited(c: &mut Controller) -> u64 {
        let mut predicted = 0;
        while let Some(submit_only) = c.next_batch() {
            let skip = submit_only && !c.pending.is_empty() && {
                let mut scratch = std::mem::take(&mut c.scratch);
                scratch.take_census(&c.reservations);
                let skip = c.starts_nothing(&mut scratch, &mut PassMeasurements::default());
                c.scratch = scratch;
                skip
            };
            let pending = c.pending.len();
            c.schedule_pass(false);
            if skip {
                predicted += 1;
                assert_eq!(
                    c.pending.len(),
                    pending,
                    "a pass predicted to start nothing started a job at t = {}",
                    c.now
                );
            }
        }
        c.close();
        predicted
    }

    /// Everything a skip could disturb: every job's schedule and node set,
    /// the event log, the report, and the fair-share usage bits (which the
    /// decay-step history decides).
    fn observable(c: &Controller, users: usize) -> String {
        let jobs: Vec<_> = c
            .jobs()
            .iter()
            .map(|j| {
                let nodes: Vec<usize> = j.nodes.iter().collect();
                (j.state, j.start_time, j.end_time, j.frequency, nodes)
            })
            .collect();
        let usage: Vec<u64> = (0..users)
            .map(|u| c.fairshare.usage_of(u).to_bits())
            .collect();
        format!(
            "{jobs:?}\n{:?}\n{:?}\n{usage:?}",
            c.log().events(),
            c.report()
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The skip is sound: wherever it holds after a submit-only batch,
        /// the full pass starts nothing — across policies, static and
        /// scheduled caps, outages, backfill settings, selection policies
        /// and the census-overflow exact mode. A run that skips ends in
        /// the same state as one that never does, fair-share bits included.
        #[test]
        fn skipped_passes_would_start_nothing(
            racks in 1usize..3,
            jobs in proptest::collection::vec(
                ((0usize..4, 0u64..14_400), 1u32..1_600, 300u64..14_400, 1u64..100),
                8..64,
            ),
            policy in 0u8..4,
            caps in (0u8..3, 0u64..14_400, 600u64..10_800, 25u32..95),
            outages in proptest::collection::vec((0usize..180, 0u64..18_000, 60u64..5_400), 0..4),
            backfill in (0u8..3, 1usize..5),
            first_fit in 0u8..2,
            exact_mode in 0u8..3,
            maintenance in (0u64..14_400, 600u64..7_200),
            gates in 0u8..2,
        ) {
            let build = || {
                let platform = Platform::curie_scaled(racks);
                let n = platform.total_nodes();
                let params = crate::config::SchedulerParameters {
                    backfill: crate::backfill::BackfillConfig {
                        enabled: backfill.0 != 1,
                        depth: if backfill.0 == 2 { backfill.1 } else { 200 },
                    },
                    ..Default::default()
                };
                let mut config = ControllerConfig::default().with_params(params);
                if first_fit == 1 {
                    config.selection = crate::select::SelectionPolicy::FirstFit;
                }
                let switch_off: Vec<usize> = if policy == 1 || policy == 3 {
                    (n - 18..n).collect()
                } else {
                    Vec::new()
                };
                let hook = LadderHook::new(policy, switch_off, gates == 1);
                let mut c = Controller::with_hook(platform, config, Box::new(hook));
                let (kind, start, length, percent) = caps;
                let max_power = c.cluster().platform().max_power();
                let fraction = |p: u32| max_power * (f64::from(p) / 100.0);
                match kind {
                    1 => {
                        let cap = fraction(percent);
                        c.add_powercap_reservation(TimeWindow::new(start, start + length), cap);
                    }
                    2 => {
                        // Three back-to-back segments at different levels.
                        for (i, p) in [percent, 95 - percent / 2, (percent + 40) % 95 + 5]
                            .into_iter()
                            .enumerate()
                        {
                            let from = start + i as SimTime * length;
                            let cap = fraction(p);
                            c.add_powercap_reservation(TimeWindow::new(from, from + length), cap);
                        }
                    }
                    _ => {}
                }
                c.add_maintenance_reservation(
                    TimeWindow::new(maintenance.0, maintenance.0 + maintenance.1),
                    (0..GATED_NODES).collect(),
                );
                if exact_mode == 0 {
                    // 129 one-node reservations on staggered windows
                    // overflow the signature census.
                    for i in 0..129u64 {
                        let from = (i * 977) % 14_400;
                        c.add_maintenance_reservation(
                            TimeWindow::new(from, from + 1_800),
                            vec![GATED_NODES + (i as usize % 12)],
                        );
                    }
                }
                for &(node, down, length) in &outages {
                    c.inject_node_outage(node % n, down, down + length);
                }
                let max_cores = n as u32 * c.cluster().platform().cores_per_node;
                for &((user, submit), cores, walltime, runtime_percent) in &jobs {
                    let runtime = (walltime * runtime_percent / 100).max(1);
                    c.submit(JobSubmission::new(user, submit, cores % max_cores + 1, walltime, runtime));
                }
                c.set_horizon(6 * HOUR);
                c
            };
            let mut audited = build();
            let predicted = run_audited(&mut audited);
            let mut plain = build();
            plain.run();
            proptest::prop_assert_eq!(plain.skipped_passes(), predicted);
            proptest::prop_assert_eq!(observable(&plain, 4), observable(&audited, 4));
        }
    }

    /// Jobs trickling one at a time into a saturated machine: most passes
    /// after a submission are proven idle and skipped, and the schedule is
    /// the one of a run that examines every pass.
    #[test]
    fn submit_stream_skips_most_passes() {
        let build = || {
            let hook = LadderHook::new(2, Vec::new(), false);
            let mut c =
                Controller::with_hook(platform(), ControllerConfig::default(), Box::new(hook));
            let cap = c.cluster().platform().power_fraction(0.4);
            c.add_powercap_reservation(TimeWindow::new(0, 4 * HOUR), cap);
            for i in 0..200u64 {
                c.submit(job(i as usize % 5, i * 60, 160, 2 * HOUR, 3000));
            }
            c.set_horizon(4 * HOUR);
            c
        };
        let mut audited = build();
        let predicted = run_audited(&mut audited);
        let mut plain = build();
        plain.run();
        assert_eq!(observable(&plain, 5), observable(&audited, 5));
        assert_eq!(plain.skipped_passes(), predicted);
        assert!(
            predicted * 2 > plain.schedule_passes(),
            "only {predicted} of {} passes were skipped",
            plain.schedule_passes()
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Cross-check of the blocked-set cache against the plain
        /// reference: for every examined window, the set a pass resolves
        /// equals `ReservationBook::collect_blocked_within`, and its count
        /// equals a scan of the node table — through cache hits, misses,
        /// count invalidation after starts, and the census-overflow exact
        /// mode.
        #[test]
        fn cached_blocked_sets_match_the_plain_reference(
            racks in 1usize..3,
            reservations in proptest::collection::vec(
                (0u64..20_000, 1u64..8_000, (0usize..180, 1usize..40), 0u8..3),
                0..12,
            ),
            overflow in 0u8..3,
            queries in proptest::collection::vec((0u64..20_000, 1u64..20_000, 0usize..180), 1..48),
        ) {
            let platform = Platform::curie_scaled(racks);
            let n = platform.total_nodes();
            let fmax = platform.ladder.max();
            let mut cluster = Cluster::new(platform);
            let mut book = ReservationBook::new();
            for &(start, length, (first, count), kind) in &reservations {
                let window = TimeWindow::new(start, start + length);
                let nodes: Vec<usize> = (first..first + count).map(|id| id % n).collect();
                book.add(
                    window,
                    match kind {
                        0 => ReservationKind::SwitchOff { nodes },
                        1 => ReservationKind::Maintenance { nodes },
                        _ => ReservationKind::PowerCap { cap: Watts(1.0e5) },
                    },
                );
            }
            if overflow == 0 {
                for i in 0..129u64 {
                    let from = (i * 613) % 20_000;
                    book.add(
                        TimeWindow::new(from, from + 900),
                        ReservationKind::Maintenance { nodes: vec![(i as usize * 7) % n] },
                    );
                }
            }
            let selector = NodeSelector::default();
            let mut scratch = ScheduleScratch::default();
            scratch.take_census(&book);
            for (job, &(now, walltime, node)) in queries.iter().enumerate() {
                let end = now.saturating_add(walltime);
                let (slot, available) = scratch.resolve(
                    &book,
                    &selector,
                    &cluster,
                    now,
                    end,
                    &mut PassMeasurements::default(),
                );
                let mut reference = NodeMask::default();
                book.collect_blocked_within(now, end, &mut reference);
                let blocked = match slot {
                    Some(i) => &scratch.cache[i].blocked,
                    None => &scratch.exact_blocked,
                };
                proptest::prop_assert_eq!(
                    blocked.iter().collect::<Vec<_>>(),
                    reference.iter().collect::<Vec<_>>()
                );
                let selectable = cluster
                    .nodes()
                    .iter()
                    .filter(|nd| nd.is_available() && !reference.contains(nd.id))
                    .count();
                proptest::prop_assert_eq!(available, selectable);
                // A start between two examinations, as in a pass.
                let node = node % n;
                if cluster.node(node).is_available() {
                    cluster.allocate(job, &[node], fmax, 0);
                    scratch.invalidate_counts();
                }
            }
        }
    }
}
