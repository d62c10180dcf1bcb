//! Scenario execution: replaying a [`ScenarioTrace`] against live storage
//! nodes, with optional adaptive autotuning at epoch boundaries.
//!
//! Each node is advanced independently from operation to operation —
//! injections and retirements through the same [`StreamHandoff`] surface
//! mid-run migration uses, interleaved with the adaptive tuner's epoch
//! ticks — so a worker pool can drive any subset of nodes concurrently
//! and the outcome is bit-identical at every `SEQIO_JOBS` value (the
//! atomic-cursor discipline of the cluster and client drivers).
//!
//! With an empty trace and an [inert](crate::AdaptiveConfig::inert) tuner
//! the runner degenerates to stepping the template experiment in epochs,
//! which `NodeSim` guarantees is bit-identical to [`Experiment::run`] —
//! the retune-neutrality property the test suite pins to the golden
//! figure hash.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use seqio_disk::Geometry;
use seqio_node::sweep::{derive_seed, resolve_jobs};
use seqio_node::{Experiment, Frontend, NodeShape, NodeSim, RunResult, StreamHandoff};
use seqio_simcore::{EpochController, SeqioError, SimTime};
use seqio_workload::Pattern;

use crate::adaptive::{AdaptiveConfig, AdaptiveTuner, RetuneAction};
use crate::trace::{ScenarioTrace, TraceOpKind};

/// One applied retune, for reporting and fingerprinting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetuneEvent {
    /// Node the retune was applied to.
    pub node: usize,
    /// Epoch boundary it fired at.
    pub at: SimTime,
    /// The knob values applied.
    pub action: RetuneAction,
}

/// A scenario execution: a per-node experiment template, a trace of
/// stream operations, and an optional adaptive tuner.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Per-node storage template (shape, frontend, costs, warmup,
    /// duration, faults). Its static stream layout still applies; a
    /// template with zero static streams runs in open-session mode and
    /// the trace provides the whole population.
    pub template: Experiment,
    /// The operations to perform. `trace.nodes` sets the node count.
    pub trace: ScenarioTrace,
    /// Worker override (`None` = `SEQIO_JOBS`, then available
    /// parallelism).
    pub jobs: Option<usize>,
    /// When set, node `k` runs with seed `derive_seed(base, k)`.
    pub base_seed: Option<u64>,
    /// Epoch-boundary adaptive tuning. Requires the stream-scheduler
    /// frontend. `None` skips epoch ticks entirely.
    pub adaptive: Option<AdaptiveConfig>,
}

/// What a [`ScenarioRun`] produced.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Per-node results, in node order.
    pub nodes: Vec<RunResult>,
    /// Every retune the adaptive tuner applied, in `(node, at)` order.
    pub retunes: Vec<RetuneEvent>,
}

impl ScenarioOutcome {
    /// Sum of per-node aggregate throughputs, MB/s.
    pub fn total_throughput_mbs(&self) -> f64 {
        self.nodes.iter().map(RunResult::total_throughput_mbs).sum()
    }

    /// FNV-1a digest of the outcome's observable state (delivered bytes,
    /// completion counts, event counts, per-stream bytes and rates, and
    /// every retune). Two outcomes with equal fingerprints ran
    /// bit-identically for all practical purposes; the determinism and
    /// record→replay tests compare these.
    pub fn fingerprint(&self) -> u64 {
        fn eat(h: &mut u64, v: u64) {
            for b in v.to_le_bytes() {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for r in &self.nodes {
            eat(&mut h, r.bytes_delivered);
            eat(&mut h, r.requests_completed);
            eat(&mut h, r.events_simulated);
            for &b in &r.per_stream_bytes {
                eat(&mut h, b);
            }
            for &m in &r.per_stream_mbs {
                eat(&mut h, m.to_bits());
            }
        }
        eat(&mut h, self.retunes.len() as u64);
        for e in &self.retunes {
            eat(&mut h, e.node as u64);
            eat(&mut h, e.at.as_nanos());
            eat(&mut h, e.action.dispatch_streams as u64);
            eat(&mut h, e.action.read_ahead_bytes);
            eat(&mut h, e.action.requests_per_residency);
            eat(&mut h, e.action.degraded_rotate_threshold.to_bits());
        }
        h
    }
}

/// Rejects inject ops a node of `shape` cannot serve: a disk the node does
/// not have, or a first request that ends past the disk's last block.
fn check_ops_fit(trace: &ScenarioTrace, shape: &NodeShape) -> Result<(), SeqioError> {
    let disks = shape.total_disks();
    let disk_blocks = Geometry::new(&shape.disk.geometry, shape.disk.track_switch).total_blocks();
    for (i, op) in trace.ops.iter().enumerate() {
        let Some(spec) = op.spec() else { continue };
        let fail = |reason: String| SeqioError::Component {
            component: "scenario",
            reason: format!("op {i} (stream {} on node {}) {reason}", op.stream, op.node),
        };
        if spec.disk >= disks {
            return Err(fail(format!("names disk {} but the node has {disks} disk(s)", spec.disk)));
        }
        let reach = match spec.pattern {
            Pattern::Random { span_blocks } => span_blocks,
            Pattern::Sequential | Pattern::NearSequential { .. } => spec.request_blocks,
        };
        let end = spec.start.saturating_add(reach);
        if end > disk_blocks {
            return Err(fail(format!(
                "has a first request ending at block {end}, past the disk's {disk_blocks} blocks"
            )));
        }
    }
    Ok(())
}

/// The template's static stream population (before any trace injections).
fn static_streams(t: &Experiment) -> usize {
    match &t.stream_counts {
        Some(counts) => counts.iter().sum(),
        None => t.streams_per_disk * t.shape.total_disks(),
    }
}

impl ScenarioRun {
    /// A run of `trace` over `template` with default execution knobs.
    pub fn new(template: Experiment, trace: ScenarioTrace) -> ScenarioRun {
        ScenarioRun { template, trace, jobs: None, base_seed: None, adaptive: None }
    }

    /// Executes the scenario.
    ///
    /// # Errors
    ///
    /// Returns the first specification error (invalid trace, an inject
    /// naming a disk outside the template's node shape or whose first
    /// request ends past the disk's end, invalid template, adaptive
    /// tuning on a non-scheduler frontend); a valid specification always
    /// runs to completion.
    pub fn run(&self) -> Result<ScenarioOutcome, SeqioError> {
        self.trace.validate()?;
        check_ops_fit(&self.trace, &self.template.shape)?;
        let mut template = self.template.clone();
        if static_streams(&template) == 0 {
            template.open_sessions = true;
            template.requests_per_stream = None;
        }
        let server = match (&self.adaptive, &template.frontend) {
            (None, _) => None,
            (Some(_), Frontend::StreamScheduler(cfg)) => Some(cfg.clone()),
            (Some(_), _) => {
                return Err(SeqioError::Experiment(
                    "adaptive tuning requires the stream-scheduler frontend".into(),
                ));
            }
        };
        let nodes = self.trace.nodes;
        let base = self.base_seed.unwrap_or(template.seed);

        // Epoch boundaries the adaptive tuner observes at, inside the run
        // horizon.
        let horizon = SimTime::ZERO + template.warmup + template.duration;
        let ticks: Vec<SimTime> = match &self.adaptive {
            None => Vec::new(),
            Some(cfg) => {
                let mut ticks = Vec::new();
                let mut t = SimTime::ZERO + cfg.epoch;
                while t < horizon {
                    ticks.push(t);
                    t += cfg.epoch;
                }
                ticks
            }
        };

        // Per-node operation timelines, already in canonical trace order.
        let mut ops: Vec<Vec<crate::trace::TraceOp>> = vec![Vec::new(); nodes];
        for op in &self.trace.ops {
            ops[op.node].push(*op);
        }

        // Sims are built serially so construction order can never depend
        // on the worker schedule.
        let mut cells: Vec<Mutex<Option<NodeSim>>> = Vec::with_capacity(nodes);
        for k in 0..nodes {
            let mut spec = template.clone();
            if self.base_seed.is_some() {
                spec.seed = derive_seed(base, k);
            }
            let mut sim = NodeSim::new(&spec)?;
            seqio_simcore::SimComponent::init(&mut sim);
            cells.push(Mutex::new(Some(sim)));
        }

        struct NodeOut {
            result: RunResult,
            retunes: Vec<RetuneEvent>,
        }
        let outs: Vec<Mutex<Option<NodeOut>>> = (0..nodes).map(|_| Mutex::new(None)).collect();
        let adaptive = self.adaptive;
        let server_ref = &server;
        let ops_ref = &ops;
        let ticks_ref = &ticks;
        let cells_ref = &cells;
        let outs_ref = &outs;

        let drive_node = move |k: usize| {
            let mut sim = cells_ref[k]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("each node is driven exactly once");
            let mut tuner = adaptive
                .as_ref()
                .map(|cfg| AdaptiveTuner::new(server_ref.as_ref().expect("checked above"), *cfg));
            let mut slot_of: HashMap<usize, usize> = HashMap::new();
            let mut retunes: Vec<RetuneEvent> = Vec::new();

            // Two-pointer merge of trace ops and epoch ticks. An op at the
            // same instant as a tick is applied first: the controller
            // observes the state that already includes it.
            let node_ops = &ops_ref[k];
            let mut oi = 0;
            let mut ti = 0;
            loop {
                let take_op = match (node_ops.get(oi).map(|o| o.at), ticks_ref.get(ti).copied()) {
                    (None, None) => break,
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (Some(ot), Some(tt)) => ot <= tt,
                };
                if take_op {
                    let op = &node_ops[oi];
                    oi += 1;
                    sim.advance_to(op.at);
                    match op.kind {
                        TraceOpKind::Inject { .. } => {
                            let spec = op.spec().expect("inject op has a spec");
                            let handoff = StreamHandoff::fresh(spec)
                                .expect("trace specs are validated up front");
                            let slot = sim.inject_stream(op.at, handoff);
                            slot_of.insert(op.stream, slot);
                        }
                        TraceOpKind::Retire => {
                            let slot = slot_of[&op.stream];
                            if sim.stream_live(slot) {
                                let _ = sim.retire_stream(slot);
                            }
                        }
                    }
                } else {
                    let tt = ticks_ref[ti];
                    ti += 1;
                    sim.advance_to(tt);
                    if let Some(tuner) = tuner.as_mut() {
                        let health = sim.health(tt);
                        if let Some(action) = tuner.epoch(tt, &health) {
                            sim.retune(
                                action.dispatch_streams,
                                action.read_ahead_bytes,
                                action.requests_per_residency,
                                action.degraded_rotate_threshold,
                            )
                            .expect("adaptive actions maintain the memory invariant");
                            retunes.push(RetuneEvent { node: k, at: tt, action });
                        }
                    }
                }
            }
            sim.advance_to(SimTime::MAX);
            let out = NodeOut { result: sim.finish(), retunes };
            *outs_ref[k].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
        };

        // Deal nodes to workers by an atomic cursor: each node is driven
        // by one worker and its own op order is fixed, so the worker
        // schedule cannot leak into the results.
        let workers = resolve_jobs(self.jobs).clamp(1, nodes);
        if workers == 1 {
            for k in 0..nodes {
                drive_node(k);
            }
        } else {
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        if k >= nodes {
                            break;
                        }
                        drive_node(k);
                    });
                }
            });
        }

        let mut results = Vec::with_capacity(nodes);
        let mut retunes = Vec::new();
        for cell in outs {
            let out = cell
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every node was driven");
            results.push(out.result);
            retunes.extend(out.retunes);
        }
        Ok(ScenarioOutcome { nodes: results, retunes })
    }
}
