//! The client front-end driver: open-loop session execution over live
//! storage nodes, plus the shared-link overlay and SLO assembly.
//!
//! # Execution model
//!
//! **Open loop** ([`DriveMode::OpenLoop`]): the pre-generated session
//! schedule (see [`generate_sessions`](crate::generate_sessions)) is split
//! per node; each node runs as a [`NodeSim`] advanced *independently* from
//! arrival to arrival, injecting every new session through the same
//! [`StreamHandoff`] surface mid-run migration uses and retiring sessions
//! whose lifetime bound expires. Nodes never exchange state mid-run, so a
//! worker pool can advance any subset concurrently and results are
//! bit-identical at every `SEQIO_JOBS` value.
//!
//! **Closed loop** ([`DriveMode::ClosedLoop`]): the classic all-streams-
//! at-`t=0` population, executed by the unmodified cluster driver. With an
//! unconstrained link this reduces *bit-identically* to
//! [`ClusterExperiment::run`] — the client tier only fills in the new
//! [`slo`](ClusterResult::slo) field.
//!
//! # The network overlay
//!
//! Data flows one way (storage → client), so the shared front-end link is
//! applied as a *lagged overlay*: after the nodes finish, every completed
//! session's response body enters a [`FairShareLink`] at its exact
//! storage-completion instant (`stream_done_at`), in deterministic
//! `(instant, session)` order. The link recomputes progressive max-min
//! fair shares on every start/finish, and each session's end-to-end
//! latency is `link delivery - arrival`. The overlay adds no events to
//! the storage simulation, so node results stay untouched by link
//! configuration.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use seqio_cluster::{
    ClusterExperiment, ClusterResult, NodeHealth, NodeOutcome, SessionSlo, ShardPolicy,
};
use seqio_node::sweep::{derive_seed, resolve_jobs};
use seqio_node::{Experiment, NodeSim, RunResult, StreamHandoff};
use seqio_simcore::{FairShareLink, SeqioError, SimDuration, SimTime, SpanPhase};
use seqio_workload::StreamSpec;

use crate::session::{generate_sessions, ArrivalConfig, SessionSpec};

/// [`derive_seed`] index reserved for the session-generation RNG stream.
/// Node seeds use indices `0..K`, so the session stream can never collide
/// with a node seed for any realistic cluster size; the storage-side
/// rotational and fault streams are derived from the *node* seeds and
/// stay independent as well (`seed_streams_stay_independent` in
/// `tests/arrival_stats.rs` guards this).
pub const SESSION_SEED_INDEX: usize = 0x5e55_10aa;

/// How the client population drives the cluster.
#[derive(Debug, Clone, PartialEq)]
pub enum DriveMode {
    /// Every stream lives from `t = 0` (the paper's closed-loop clients),
    /// executed by the unmodified cluster driver.
    ClosedLoop,
    /// User-scale open-loop session arrivals against live nodes.
    OpenLoop(ArrivalConfig),
}

/// The shared client-facing network link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Link capacity in bytes per second, max-min shared among all
    /// in-flight responses. `f64::INFINITY` (the default) removes the
    /// network constraint entirely — the identity configuration.
    pub capacity_bps: f64,
    /// Per-session receive cap in bytes per second (a client NIC or
    /// player drain rate). `f64::INFINITY` takes whatever the link
    /// offers.
    pub session_demand_bps: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig { capacity_bps: f64::INFINITY, session_demand_bps: f64::INFINITY }
    }
}

impl LinkConfig {
    /// A gigabit-Ethernet-class link (125 MB/s), the paper's testbed NIC.
    pub fn gigabit() -> Self {
        LinkConfig { capacity_bps: 125.0 * 1024.0 * 1024.0, ..LinkConfig::default() }
    }

    /// `true` when neither the link nor the per-session demand constrains
    /// anything: every response is delivered the instant storage
    /// completes it, adding exactly zero latency.
    pub fn is_unconstrained(&self) -> bool {
        self.capacity_bps.is_infinite() && self.session_demand_bps.is_infinite()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Rejects NaN, zero or negative capacities and demands.
    pub fn validate(&self) -> Result<(), SeqioError> {
        if self.capacity_bps.is_nan() || self.capacity_bps <= 0.0 {
            return Err(SeqioError::Experiment(format!(
                "link capacity must be positive, got {}",
                self.capacity_bps
            )));
        }
        if self.session_demand_bps.is_nan() || self.session_demand_bps <= 0.0 {
            return Err(SeqioError::Experiment(format!(
                "per-session demand must be positive, got {}",
                self.session_demand_bps
            )));
        }
        Ok(())
    }
}

/// A complete client-driven experiment: a cluster of storage nodes, a
/// drive mode (open- or closed-loop) and the shared front-end link.
/// Build with [`ClientExperiment::builder`], run with
/// [`run`](ClientExperiment::run).
#[derive(Debug, Clone)]
pub struct ClientExperiment {
    /// Per-node storage template (shape, frontend, costs, clock,
    /// observability). In open-loop mode its stream layout is ignored:
    /// nodes start empty and adopt sessions mid-run.
    pub template: Experiment,
    /// Number of storage nodes.
    pub nodes: usize,
    /// Closed-loop stream sharding policy (open-loop placement is by
    /// title, not by this policy).
    pub policy: ShardPolicy,
    /// When set, node `k` runs with seed `derive_seed(base, k)` and the
    /// session stream with `derive_seed(base, SESSION_SEED_INDEX)`.
    pub base_seed: Option<u64>,
    /// Worker override (`None` = `SEQIO_JOBS`, then available
    /// parallelism).
    pub jobs: Option<usize>,
    /// Open- or closed-loop client population.
    pub mode: DriveMode,
    /// The shared client-facing link.
    pub link: LinkConfig,
}

impl ClientExperiment {
    /// Starts a builder: 1 node, identity routing, closed loop,
    /// unconstrained link, template defaults from
    /// [`Experiment::builder`].
    pub fn builder() -> ClientExperimentBuilder {
        ClientExperimentBuilder {
            spec: ClientExperiment {
                template: Experiment::builder().build(),
                nodes: 1,
                policy: ShardPolicy::Identity,
                base_seed: None,
                jobs: None,
                mode: DriveMode::ClosedLoop,
                link: LinkConfig::default(),
            },
        }
    }

    /// Runs the experiment and merges everything into a [`ClusterResult`]
    /// whose [`slo`](ClusterResult::slo) field carries the end-to-end
    /// session percentiles (when any session completed).
    ///
    /// # Errors
    ///
    /// Returns the first specification error; a valid specification
    /// always runs to completion.
    pub fn run(&self) -> Result<ClusterResult, SeqioError> {
        self.link.validate()?;
        match &self.mode {
            DriveMode::ClosedLoop => self.run_closed(),
            DriveMode::OpenLoop(cfg) => self.run_open(cfg),
        }
    }

    /// The exact open-loop session schedule [`run`](Self::run) will
    /// execute: the same deterministic `generate_sessions` call the
    /// driver performs internally, exposed so post-hoc consumers — trace
    /// correlation in `seqio-telemetry`, the CLI's `--correlate-out` —
    /// can join global session ids back to arrival instants and titles
    /// without re-deriving seeds. Returns an empty schedule in
    /// closed-loop mode, where every stream is a session arriving at
    /// `t = 0`.
    ///
    /// # Errors
    ///
    /// Returns the first specification error, exactly as `run` would.
    pub fn session_schedule(&self) -> Result<Vec<SessionSpec>, SeqioError> {
        let DriveMode::OpenLoop(cfg) = &self.mode else { return Ok(Vec::new()) };
        if self.nodes == 0 {
            return Err(SeqioError::Experiment("need at least one node".into()));
        }
        let disks = self.template.shape.total_disks();
        let request_blocks = self.template.request_blocks();
        let usable_blocks =
            self.template.shape.disk.geometry.capacity_bytes / seqio_disk::BLOCK_SIZE;
        let horizon = self.template.warmup + self.template.duration;
        let base = self.base_seed.unwrap_or(self.template.seed);
        let session_seed = derive_seed(base, SESSION_SEED_INDEX);
        generate_sessions(
            cfg,
            self.nodes,
            disks,
            request_blocks,
            usable_blocks,
            horizon,
            session_seed,
        )
    }

    /// Closed loop: the unmodified cluster driver plus the link overlay.
    /// Every stream is one session arriving at `t = 0`; a stream only
    /// yields a latency sample if it exhausts a finite request budget.
    fn run_closed(&self) -> Result<ClusterResult, SeqioError> {
        let mut b = ClusterExperiment::builder()
            .template(self.template.clone())
            .nodes(self.nodes)
            .policy(self.policy);
        if let Some(s) = self.base_seed {
            b = b.base_seed(s);
        }
        if let Some(j) = self.jobs {
            b = b.jobs(j);
        }
        let mut result = b.run()?;
        let total = result.assignment.len();
        let bytes = self.template.requests_per_stream.unwrap_or(0) * self.template.request_bytes;
        let arrivals = vec![SimTime::ZERO; total];
        let session_bytes = vec![bytes; total];
        overlay_link(&self.link, &mut result, &arrivals, &session_bytes, total as u64, &[])?;
        Ok(result)
    }

    /// Open loop: pre-generate the schedule, drive each node
    /// independently, merge, overlay the link.
    fn run_open(&self, cfg: &ArrivalConfig) -> Result<ClusterResult, SeqioError> {
        if self.nodes == 0 {
            return Err(SeqioError::Experiment("need at least one node".into()));
        }
        if self.template.replay.is_some() {
            return Err(SeqioError::Experiment(
                "open-loop sessions are incompatible with trace replay".into(),
            ));
        }
        if self.template.faults.is_some() {
            return Err(SeqioError::Experiment(
                "the open-loop client front-end does not support fault plans yet".into(),
            ));
        }
        // Nodes start empty and adopt sessions mid-run; the template's
        // static stream layout does not apply.
        let mut template = self.template.clone();
        template.streams_per_disk = 0;
        template.stream_counts = None;
        template.open_sessions = true;
        template.requests_per_stream = None;

        let request_blocks = template.request_blocks();
        let base = self.base_seed.unwrap_or(template.seed);
        // None of the template fields cleared above feed session
        // generation, so the public schedule is exactly the one executed.
        let sessions = self.session_schedule()?;

        // Per-node operation timelines: injections at arrival, optional
        // retirements at the lifetime bound. Sorted by (instant, session,
        // kind) so the schedule is one fixed sequence per node.
        #[derive(Clone, Copy)]
        struct Op {
            at: SimTime,
            session: usize,
            retire: bool,
        }
        let horizon_at = SimTime::ZERO + template.warmup + template.duration;
        let mut ops: Vec<Vec<Op>> = vec![Vec::new(); self.nodes];
        for s in &sessions {
            ops[s.node].push(Op { at: s.arrival, session: s.id, retire: false });
            if let Some(life) = cfg.session_lifetime {
                let cut = s.arrival + life;
                if cut < horizon_at {
                    ops[s.node].push(Op { at: cut, session: s.id, retire: true });
                }
            }
        }
        for list in &mut ops {
            list.sort_by_key(|o| (o.at, o.session, o.retire));
        }

        // Specs and sims are built serially so construction order can
        // never depend on the worker schedule.
        let mut specs = Vec::with_capacity(self.nodes);
        let mut cells: Vec<Mutex<Option<NodeSim>>> = Vec::with_capacity(self.nodes);
        for k in 0..self.nodes {
            let mut spec = template.clone();
            if self.base_seed.is_some() {
                spec.seed = derive_seed(base, k);
            }
            let mut sim = NodeSim::new(&spec)?;
            seqio_simcore::SimComponent::init(&mut sim);
            cells.push(Mutex::new(Some(sim)));
            specs.push(spec);
        }

        struct NodeOut {
            result: RunResult,
            /// Local slot → global session id, in injection order.
            slots: Vec<usize>,
            /// Sessions retired at their lifetime bound (abandoned).
            abandoned: Vec<usize>,
        }
        let outs: Vec<Mutex<Option<NodeOut>>> = (0..self.nodes).map(|_| Mutex::new(None)).collect();
        let sessions_ref = &sessions;
        let ops_ref = &ops;
        let cells_ref = &cells;
        let outs_ref = &outs;

        let drive_node = move |k: usize| {
            let mut sim = cells_ref[k]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("each node is driven exactly once");
            let mut slots: Vec<usize> = Vec::new();
            let mut slot_of: HashMap<usize, usize> = HashMap::new();
            let mut abandoned: Vec<usize> = Vec::new();
            for op in &ops_ref[k] {
                sim.advance_to(op.at);
                if op.retire {
                    let slot = slot_of[&op.session];
                    if sim.stream_live(slot) {
                        let _ = sim.retire_stream(slot);
                        abandoned.push(op.session);
                    }
                } else {
                    let s: &SessionSpec = &sessions_ref[op.session];
                    let spec = StreamSpec::sequential(s.disk, s.start, request_blocks, s.requests);
                    let handoff = StreamHandoff::fresh(spec)
                        .expect("session specs are validated at generation time");
                    let slot = sim.inject_stream(op.at, handoff);
                    debug_assert_eq!(slot, slots.len(), "open nodes fill slots densely");
                    slot_of.insert(op.session, slot);
                    slots.push(op.session);
                }
            }
            sim.advance_to(SimTime::MAX);
            let out = NodeOut { result: sim.finish(), slots, abandoned };
            *outs_ref[k].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
        };

        // Deal nodes to workers by an atomic cursor (exactly the cluster
        // driver's discipline): each node is driven by one worker and its
        // own event order is fixed, so the schedule cannot leak in.
        let workers = resolve_jobs(self.jobs).clamp(1, self.nodes);
        if workers == 1 {
            for k in 0..self.nodes {
                drive_node(k);
            }
        } else {
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        if k >= self.nodes {
                            break;
                        }
                        drive_node(k);
                    });
                }
            });
        }

        let mut assignment = vec![0usize; sessions.len()];
        for s in &sessions {
            assignment[s.id] = s.node;
        }
        let mut node_ids = Vec::with_capacity(self.nodes);
        let mut outcomes = Vec::with_capacity(self.nodes);
        let mut skip = vec![false; sessions.len()];
        for (k, (cell, spec)) in outs.into_iter().zip(specs).enumerate() {
            let out = cell
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every node was driven");
            for &g in &out.abandoned {
                skip[g] = true;
            }
            outcomes.push(NodeOutcome {
                node: k,
                assigned_streams: out.slots.len(),
                health: NodeHealth::healthy(),
                spec: Some(spec),
                result: Some(out.result),
            });
            node_ids.push(out.slots);
        }
        let mut result = ClusterResult::merge(outcomes, assignment, node_ids, Vec::new());
        let arrivals: Vec<SimTime> = sessions.iter().map(|s| s.arrival).collect();
        let session_bytes: Vec<u64> =
            sessions.iter().map(|s| s.requests * template.request_bytes).collect();
        overlay_link(
            &self.link,
            &mut result,
            &arrivals,
            &session_bytes,
            sessions.len() as u64,
            &skip,
        )?;
        Ok(result)
    }
}

/// Feeds every completed session's response through the shared link at
/// its exact storage-completion instant, fills in
/// [`ClusterResult::slo`], and — on a constrained link — stamps the
/// `network_delivered` phase onto each session's final span. With an
/// unconstrained link the network adds zero delay and spans are left
/// byte-identical to a run without the front-end tier.
fn overlay_link(
    link: &LinkConfig,
    result: &mut ClusterResult,
    arrivals: &[SimTime],
    session_bytes: &[u64],
    admitted: u64,
    skip: &[bool],
) -> Result<(), SeqioError> {
    // Completed sessions in deterministic (instant, session) order.
    let mut done: Vec<(SimTime, usize)> = Vec::new();
    for outcome in &result.nodes {
        let Some(r) = &outcome.result else { continue };
        for (slot, &g) in result.node_stream_ids[outcome.node].iter().enumerate() {
            if skip.get(g).copied().unwrap_or(false) {
                continue;
            }
            if let Some(t) = r.stream_done_at.get(slot).copied().flatten() {
                done.push((t, g));
            }
        }
    }
    done.sort_unstable();

    let mut sim = FairShareLink::new(link.capacity_bps)?;
    for &(t, g) in &done {
        sim.start_transfer(t, session_bytes[g], link.session_demand_bps, g as u64);
    }
    seqio_simcore::SimComponent::advance_to(&mut sim, SimTime::MAX);
    let mut delivered: Vec<Option<SimTime>> = vec![None; arrivals.len()];
    for d in sim.take_deliveries() {
        delivered[d.tag as usize] = Some(d.at);
    }

    let latencies: Vec<SimDuration> = delivered
        .iter()
        .enumerate()
        .filter_map(|(g, t)| t.map(|t| t.duration_since(arrivals[g])))
        .collect();
    result.slo = SessionSlo::from_latencies(admitted, latencies);

    if !link.is_unconstrained() {
        let ids = &result.node_stream_ids;
        for outcome in &mut result.nodes {
            let node = outcome.node;
            let Some(r) = outcome.result.as_mut() else { continue };
            let Some(spans) = r.spans.as_mut() else { continue };
            let done_at = &r.stream_done_at;
            for span in spans.iter_mut() {
                // The session's final request is the span whose delivery
                // instant equals the stream's completion instant.
                let Some(d) = done_at.get(span.stream).copied().flatten() else { continue };
                if span.stamp(SpanPhase::Delivered) != Some(d) {
                    continue;
                }
                if let Some(net) = ids[node].get(span.stream).and_then(|&g| delivered[g]) {
                    span.stamps[SpanPhase::NetworkDelivered.index()] = Some(net);
                }
            }
        }
    }
    Ok(())
}

/// Builder for [`ClientExperiment`].
#[derive(Debug, Clone)]
pub struct ClientExperimentBuilder {
    spec: ClientExperiment,
}

impl ClientExperimentBuilder {
    /// Replaces the per-node storage template.
    pub fn template(mut self, t: Experiment) -> Self {
        self.spec.template = t;
        self
    }

    /// Sets the node count.
    pub fn nodes(mut self, k: usize) -> Self {
        self.spec.nodes = k;
        self
    }

    /// Sets the closed-loop sharding policy.
    pub fn policy(mut self, p: ShardPolicy) -> Self {
        self.spec.policy = p;
        self
    }

    /// Derives per-node and session seeds from a cluster base seed.
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.spec.base_seed = Some(seed);
        self
    }

    /// Overrides the worker count.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.spec.jobs = Some(jobs);
        self
    }

    /// Switches to open-loop session arrivals.
    pub fn arrivals(mut self, cfg: ArrivalConfig) -> Self {
        self.spec.mode = DriveMode::OpenLoop(cfg);
        self
    }

    /// Switches to the closed-loop population (the default).
    pub fn closed_loop(mut self) -> Self {
        self.spec.mode = DriveMode::ClosedLoop;
        self
    }

    /// Configures the shared client-facing link.
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.spec.link = link;
        self
    }

    /// Finalizes the specification without running it.
    pub fn build(self) -> ClientExperiment {
        self.spec
    }

    /// Builds and runs in one step.
    ///
    /// # Errors
    ///
    /// Returns the first specification error.
    pub fn run(self) -> Result<ClusterResult, SeqioError> {
        self.spec.run()
    }
}
