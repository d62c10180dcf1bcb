//! The traced run: each workload driven again, stage by stage, through
//! the public functions of the layers it crosses, with a host clock
//! around every call.
//!
//! The client and cluster entry points do not expose their stages, so
//! the drivers below repeat what those entry points do internally — the
//! same calls, in the same order — and the benchmark then checks that the
//! simulated outputs equal the untraced run's bit for bit. The scenario
//! workload calls `ScenarioRun::run` whole. Kernel event classes are
//! counted with the node layer's own `ProfConfig::counts_only()` switch,
//! which leaves the outputs unchanged.
//!
//! Leaf stages are disjoint; a layer's time is the sum of the calls into
//! it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use seqio_client::{ArrivalConfig, ClientExperiment, SessionSpec};
use seqio_cluster::{
    ClusterExperiment, ClusterResult, MigratableStream, MigrationRecord, NodeHealth, NodeOutcome,
    NodeView, Rebalancer, SessionSlo,
};
use seqio_node::sweep::derive_seed;
use seqio_node::{Experiment, NodeSim, RunResult, StreamHandoff};
use seqio_scenario::ScenarioRun;
use seqio_simcore::{FairShareLink, ProfConfig, SeqioError, SimComponent, SimTime};
use seqio_workload::StreamSpec;

use crate::workloads::{Inputs, Raw};

/// Host time spent in each stage of one traced run, plus the link's
/// work counts (the link keeps no counters of its own).
#[derive(Debug, Clone, Default)]
pub struct Stages {
    /// `ClientExperiment::session_schedule`.
    pub schedule: Duration,
    /// The client driver's per-node operation timeline (sorting
    /// injections and lifetime retirements).
    pub timeline: Duration,
    /// Every `NodeSim` call: `new`, `init`, `advance_to`, stream
    /// injection and retirement, `health`, `finish`. With several
    /// workers this is the wall time of the parallel phase.
    pub drive: Duration,
    /// The cluster's own work between node steps: validation, routing
    /// and `Rebalancer::plan`. The node views it plans from are node
    /// reads and count in `drive`.
    pub epoch: Duration,
    /// `ClusterResult::merge`.
    pub merge: Duration,
    /// The shared link overlay through `FairShareLink`.
    pub overlay: Duration,
    /// The whole re-driven cluster run (routing, drive, epochs, merge).
    pub cluster_run: Duration,
    /// Every `ScenarioRun::run` of the workload, called whole: node
    /// drive, trace injection and adaptive tuning together.
    pub scenario_run: Duration,
    /// The whole traced run, the counterpart of the untraced `wall_s`.
    pub wall: Duration,
    pub transfers: u64,
    pub peak_active: u64,
    /// A traced result that disagrees with the workload's own link
    /// accounting.
    pub errors: Vec<String>,
}

impl Stages {
    /// The sum of the disjoint leaf stages. `scenario_run` is the leaf
    /// on scenario-video, the only workload that sets it.
    pub fn covered(&self) -> Duration {
        self.schedule
            + self.timeline
            + self.drive
            + self.epoch
            + self.merge
            + self.overlay
            + self.scenario_run
    }
}

fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed();
    out
}

/// Runs `inputs` traced.
pub fn run(inputs: &Inputs) -> Result<(Raw, Stages), SeqioError> {
    let mut st = Stages::default();
    // `ScenarioRun::run` keeps its stages to itself; it runs whole, with
    // the kernel counts switched on before the clock starts.
    let video: Vec<ScenarioRun> = match inputs {
        Inputs::Video { replicas } => replicas
            .iter()
            .map(|r| ScenarioRun { template: profiled(r.run.template.clone()), ..r.run.clone() })
            .collect(),
        _ => Vec::new(),
    };
    let start = Instant::now();
    let raw = match inputs {
        Inputs::Open { exp, cfg, .. } => Raw::Cluster(Box::new(open_loop(exp, cfg, &mut st)?)),
        Inputs::Closed { scenario } => {
            let begin = Instant::now();
            let r = cluster(scenario.cluster(), &mut st)?;
            st.cluster_run = begin.elapsed();
            Raw::Cluster(Box::new(r))
        }
        Inputs::Video { .. } => Raw::Scenario(timed(&mut st.scenario_run, || {
            video.iter().map(ScenarioRun::run).collect::<Result<_, _>>()
        })?),
    };
    st.wall = start.elapsed();
    Ok((raw, st))
}

fn profiled(mut spec: Experiment) -> Experiment {
    spec.prof = Some(ProfConfig::counts_only());
    spec
}

/// Runs `work(k)` for every node on `jobs` workers, dealing nodes by an
/// atomic cursor as the entry points do.
fn for_each_node(nodes: usize, jobs: usize, work: impl Fn(usize) + Sync) {
    let workers = jobs.clamp(1, nodes.max(1));
    if workers == 1 {
        (0..nodes).for_each(work);
        return;
    }
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                if k >= nodes {
                    break;
                }
                work(k);
            });
        }
    });
}

/// `ClientExperiment::run` in open-loop mode, stage by stage.
fn open_loop(
    exp: &ClientExperiment,
    cfg: &ArrivalConfig,
    st: &mut Stages,
) -> Result<ClusterResult, SeqioError> {
    let sessions = timed(&mut st.schedule, || exp.session_schedule())?;

    let mut template = exp.template.clone();
    template.streams_per_disk = 0;
    template.stream_counts = None;
    template.open_sessions = true;
    template.requests_per_stream = None;
    let template = profiled(template);
    let request_blocks = template.request_blocks();
    let base = exp.base_seed.unwrap_or(template.seed);
    let horizon_at = SimTime::ZERO + template.warmup + template.duration;

    // (instant, session, retire) per node.
    let ops = timed(&mut st.timeline, || {
        let mut ops: Vec<Vec<(SimTime, usize, bool)>> = vec![Vec::new(); exp.nodes];
        for s in &sessions {
            ops[s.node].push((s.arrival, s.id, false));
            if let Some(life) = cfg.session_lifetime {
                let cut = s.arrival + life;
                if cut < horizon_at {
                    ops[s.node].push((cut, s.id, true));
                }
            }
        }
        for list in &mut ops {
            list.sort_unstable();
        }
        ops
    });

    let drive_start = Instant::now();
    let mut specs = Vec::with_capacity(exp.nodes);
    let mut cells = Vec::with_capacity(exp.nodes);
    for k in 0..exp.nodes {
        let mut spec = template.clone();
        if exp.base_seed.is_some() {
            spec.seed = derive_seed(base, k);
        }
        let mut sim = NodeSim::new(&spec)?;
        SimComponent::init(&mut sim);
        cells.push(Mutex::new(Some(sim)));
        specs.push(spec);
    }
    type NodeOut = (RunResult, Vec<usize>, Vec<usize>);
    let outs: Vec<Mutex<Option<NodeOut>>> = (0..exp.nodes).map(|_| Mutex::new(None)).collect();
    let drive = |k: usize| {
        let mut sim = cells[k]
            .lock()
            .expect("no worker panics while holding a node")
            .take()
            .expect("each node is driven once");
        let mut slots: Vec<usize> = Vec::new();
        let mut slot_of: HashMap<usize, usize> = HashMap::new();
        let mut abandoned = Vec::new();
        for &(at, id, retire) in &ops[k] {
            sim.advance_to(at);
            if retire {
                let slot = slot_of[&id];
                if sim.stream_live(slot) {
                    let _ = sim.retire_stream(slot);
                    abandoned.push(id);
                }
            } else {
                let s: &SessionSpec = &sessions[id];
                let spec = StreamSpec::sequential(s.disk, s.start, request_blocks, s.requests);
                let handoff = StreamHandoff::fresh(spec).expect("generated sessions are valid");
                let slot = sim.inject_stream(at, handoff);
                slot_of.insert(id, slot);
                slots.push(id);
            }
        }
        sim.advance_to(SimTime::MAX);
        *outs[k].lock().expect("no worker panics while holding a result") =
            Some((sim.finish(), slots, abandoned));
    };
    for_each_node(exp.nodes, exp.jobs.unwrap_or(1), drive);
    st.drive += drive_start.elapsed();

    let mut assignment = vec![0usize; sessions.len()];
    for s in &sessions {
        assignment[s.id] = s.node;
    }
    let mut node_ids = Vec::with_capacity(exp.nodes);
    let mut outcomes = Vec::with_capacity(exp.nodes);
    let mut skip = vec![false; sessions.len()];
    for (k, (cell, spec)) in outs.into_iter().zip(specs).enumerate() {
        let (result, slots, abandoned) =
            cell.into_inner().expect("workers finished").expect("every node was driven");
        for g in abandoned {
            skip[g] = true;
        }
        outcomes.push(NodeOutcome {
            node: k,
            assigned_streams: slots.len(),
            health: NodeHealth::healthy(),
            spec: Some(spec),
            result: Some(result),
        });
        node_ids.push(slots);
    }
    let mut result =
        timed(&mut st.merge, || ClusterResult::merge(outcomes, assignment, node_ids, Vec::new()));

    let overlay_start = Instant::now();
    let mut done: Vec<(SimTime, usize)> = Vec::new();
    for outcome in &result.nodes {
        let Some(r) = &outcome.result else { continue };
        for (slot, &g) in result.node_stream_ids[outcome.node].iter().enumerate() {
            if skip[g] {
                continue;
            }
            if let Some(t) = r.stream_done_at.get(slot).copied().flatten() {
                done.push((t, g));
            }
        }
    }
    done.sort_unstable();
    let mut link = FairShareLink::new(exp.link.capacity_bps)?;
    let mut peak = 0;
    for &(t, g) in &done {
        let bytes = sessions[g].requests * template.request_bytes;
        link.start_transfer(t, bytes, exp.link.session_demand_bps, g as u64);
        peak = peak.max(link.active_count());
    }
    SimComponent::advance_to(&mut link, SimTime::MAX);
    let mut latencies = Vec::with_capacity(done.len());
    for d in link.take_deliveries() {
        latencies.push(d.at.duration_since(sessions[d.tag as usize].arrival));
    }
    if latencies.len() != done.len() {
        st.errors.push(format!(
            "the link delivered {} of {} transfers",
            latencies.len(),
            done.len()
        ));
    }
    result.slo = SessionSlo::from_latencies(sessions.len() as u64, latencies);
    st.overlay += overlay_start.elapsed();
    st.transfers = done.len() as u64;
    st.peak_active = peak as u64;
    Ok(result)
}

/// Per-node spec the cluster driver builds for a node assigned
/// `assigned` streams.
fn node_spec(c: &ClusterExperiment, node: usize, assigned: usize) -> Option<Experiment> {
    if assigned == 0 {
        return None;
    }
    let mut spec = c.template.clone();
    let disks = spec.shape.total_disks();
    if c.nodes == 1 && spec.stream_counts.is_some() {
        // The template's own layout, verbatim.
    } else if assigned.is_multiple_of(disks) {
        spec.streams_per_disk = assigned / disks;
    } else {
        let base = assigned / disks;
        let rem = assigned % disks;
        spec.stream_counts = Some((0..disks).map(|d| base + usize::from(d < rem)).collect());
    }
    spec.faults = c.node_faults[node].clone();
    if let Some(b) = c.base_seed {
        spec.seed = derive_seed(b, node);
    }
    Some(profiled(spec))
}

/// `ClusterExperiment::run`, stage by stage, on one worker.
fn cluster(c: &ClusterExperiment, st: &mut Stages) -> Result<ClusterResult, SeqioError> {
    assert_eq!(c.jobs, Some(1), "the closed-loop workloads pin one worker");
    let (total, assignment, node_ids) = timed(&mut st.epoch, || {
        c.validate()?;
        let total = c.total_streams();
        let assignment = c.router().assign(total);
        let mut ids = vec![Vec::new(); c.nodes];
        for (g, &k) in assignment.iter().enumerate() {
            ids[k].push(g);
        }
        Ok::<_, SeqioError>((total, assignment, ids))
    })?;

    let (specs, mut sims) = timed(&mut st.drive, || {
        let mut specs = Vec::with_capacity(c.nodes);
        let mut sims: Vec<Option<NodeSim>> = Vec::with_capacity(c.nodes);
        for (k, ids) in node_ids.iter().enumerate() {
            let spec = node_spec(c, k, ids.len());
            sims.push(match &spec {
                Some(s) => Some(NodeSim::new(s)?),
                None => None,
            });
            specs.push(spec);
        }
        for sim in sims.iter_mut().flatten() {
            sim.init();
        }
        Ok::<_, SeqioError>((specs, sims))
    })?;

    let mut slot_map = node_ids.clone();
    let mut migrations = Vec::new();
    match &c.rebalance {
        None => timed(&mut st.drive, || {
            for sim in sims.iter_mut().flatten() {
                sim.advance_to(SimTime::MAX);
            }
        }),
        Some(cfg) => {
            let mut location = vec![(0usize, 0usize); total];
            for (k, ids) in slot_map.iter().enumerate() {
                for (slot, &g) in ids.iter().enumerate() {
                    location[g] = (k, slot);
                }
            }
            let rebalancer = Rebalancer::new(cfg.clone());
            let mut t = SimTime::ZERO;
            loop {
                t += cfg.check_interval;
                let idle = timed(&mut st.drive, || {
                    for sim in sims.iter_mut().flatten() {
                        sim.advance_to(t);
                    }
                    sims.iter().flatten().all(|s| s.peek_next_time().is_none())
                });
                if idle {
                    break;
                }
                let views = timed(&mut st.drive, || views(&sims, &slot_map, cfg.threshold, t));
                let moves = timed(&mut st.epoch, || rebalancer.plan(&views));
                timed(&mut st.drive, || {
                    for mv in moves {
                        let (_, src_slot) = location[mv.global];
                        let Some(handoff) =
                            sims[mv.from].as_mut().and_then(|s| s.retire_stream(src_slot))
                        else {
                            continue;
                        };
                        let target = sims[mv.to].as_mut().expect("moves target live nodes");
                        let new_slot = target.inject_stream(t, handoff);
                        slot_map[mv.to].push(mv.global);
                        location[mv.global] = (mv.to, new_slot);
                        migrations.push(MigrationRecord {
                            at: t,
                            stream: mv.global,
                            from: mv.from,
                            to: mv.to,
                        });
                    }
                });
            }
        }
    }

    let disks = c.template.shape.total_disks();
    let outcomes = timed(&mut st.drive, || {
        let mut outcomes = Vec::with_capacity(c.nodes);
        for (k, (spec, sim)) in specs.into_iter().zip(sims).enumerate() {
            outcomes.push(NodeOutcome {
                node: k,
                assigned_streams: node_ids[k].len(),
                health: NodeHealth::from_faults(c.node_faults[k].as_ref(), disks),
                spec,
                result: sim.map(NodeSim::finish),
            });
        }
        outcomes
    });
    Ok(timed(&mut st.merge, || ClusterResult::merge(outcomes, assignment, slot_map, migrations)))
}

/// The rebalancer's view of every live node at `at`: node-layer health
/// reads only.
fn views(
    sims: &[Option<NodeSim>],
    slot_map: &[Vec<usize>],
    threshold: f64,
    at: SimTime,
) -> Vec<NodeView> {
    let mut views = Vec::new();
    for (k, sim) in sims.iter().enumerate() {
        let Some(sim) = sim else { continue };
        let health = sim.health(at);
        let mut migratable = Vec::new();
        for (slot, &g) in slot_map[k].iter().enumerate() {
            if !sim.stream_live(slot) {
                continue;
            }
            let factor = health.straggler_factors[sim.stream_disk(slot)];
            if factor >= threshold {
                migratable.push(MigratableStream { global: g, factor });
            }
        }
        views.push(NodeView {
            node: k,
            live_streams: health.live_streams,
            worst_factor: health.worst_straggler_factor(),
            migratable,
        });
    }
    views
}
