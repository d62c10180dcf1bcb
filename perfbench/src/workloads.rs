//! The four benchmark workloads: their inputs (built from a seed), their
//! pinned worker counts, and the untraced timed run through each
//! workload's public entry point.
//!
//! Every workload pins its own scale, worker count and seeds here; none
//! of them reads `SEQIO_JOBS` or sizes itself from the host. `scale`
//! shrinks the simulated horizon (and the session or stream population
//! with it) for the benchmark's own tests; the benchmark runs at 1.0.

use seqio_client::{ArrivalConfig, ClientExperiment, LinkConfig, RateModulation, SessionSpec};
use seqio_cluster::{ClusterResult, RebalanceConfig, Scenario, ShardPolicy};
use seqio_core::ServerConfig;
use seqio_node::sweep::derive_seed;
use seqio_node::{Experiment, Frontend, NodeShape};
use seqio_scenario::{
    generate, AdaptiveConfig, ScenarioKind, ScenarioOutcome, ScenarioParams, ScenarioRun,
};
use seqio_simcore::{FaultPlan, SeqioError, SimDuration};

pub const KIB: u64 = 1024;
pub const MIB: u64 = 1024 * KIB;
pub const GIB: u64 = 1024 * MIB;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop sessions on four eight-disk nodes behind a shared link.
    SloOpen,
    /// Closed loop at the paper's collapse point, paper scheduler,
    /// two nodes, a straggler and the rebalancer.
    SchedClosed,
    /// Closed loop on one sixty-disk node, direct frontend.
    Direct60,
    /// The scenario engine's video generator with the adaptive tuner.
    ScenarioVideo,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::SloOpen, Workload::SchedClosed, Workload::Direct60, Workload::ScenarioVideo];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SloOpen => "slo-open",
            Workload::SchedClosed => "sched-closed",
            Workload::Direct60 => "direct-60disk",
            Workload::ScenarioVideo => "scenario-video",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The seed used when `--seed` is not given.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::SloOpen => 2026,
            Workload::SchedClosed => 7,
            Workload::Direct60 => 7,
            Workload::ScenarioVideo => 1,
        }
    }

    /// A seed kept out of tuning; the tests run every workload on it.
    pub fn held_out_seed(self) -> u64 {
        match self {
            Workload::SloOpen => 4242,
            Workload::SchedClosed => 1009,
            Workload::Direct60 => 1009,
            Workload::ScenarioVideo => 11,
        }
    }

    /// Workers the workload is defined with.
    pub fn pinned_jobs(self) -> usize {
        match self {
            Workload::SloOpen => 2,
            _ => 1,
        }
    }

    /// Workers actually used: the pinned count, never more than the host
    /// has.
    pub fn jobs(self) -> usize {
        let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        self.pinned_jobs().min(nproc)
    }

    /// Builds and validates the workload's inputs. This is the work
    /// `setup_s` times.
    pub fn setup(self, seed: u64, scale: f64) -> Result<Inputs, SeqioError> {
        match self {
            Workload::SloOpen => slo_open(seed, scale, self.jobs()),
            Workload::SchedClosed => sched_closed(seed, scale, self.jobs()),
            Workload::Direct60 => direct_60disk(seed, scale, self.jobs()),
            Workload::ScenarioVideo => scenario_video(seed, scale, self.jobs()),
        }
    }
}

/// A workload's validated inputs.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// An open-loop client experiment plus the session schedule its run
    /// will execute.
    Open { exp: ClientExperiment, cfg: ArrivalConfig, sessions: Vec<SessionSpec> },
    /// A closed-loop cluster scenario.
    Closed { scenario: Scenario },
    /// Independent scenario-engine runs, each over its own generated
    /// trace.
    Video { replicas: Vec<Replica> },
}

/// One scenario run and what its trace was generated from.
#[derive(Debug, Clone)]
pub struct Replica {
    pub run: ScenarioRun,
    pub params: ScenarioParams,
    pub seed: u64,
}

/// What one run produced.
#[derive(Debug)]
pub enum Raw {
    Cluster(Box<ClusterResult>),
    /// One outcome per replica, in replica order.
    Scenario(Vec<ScenarioOutcome>),
}

impl Inputs {
    /// The untraced timed run: one call of the workload's public entry
    /// point.
    pub fn run(&self) -> Result<Raw, SeqioError> {
        match self {
            Inputs::Open { exp, .. } => exp.run().map(|r| Raw::Cluster(Box::new(r))),
            Inputs::Closed { scenario } => scenario.run().map(|r| Raw::Cluster(Box::new(r))),
            Inputs::Video { replicas } => {
                replicas.iter().map(|r| r.run.run()).collect::<Result<_, _>>().map(Raw::Scenario)
            }
        }
    }
}

/// Scales a simulated span, never below `min`.
fn scaled(d: SimDuration, scale: f64, min: SimDuration) -> SimDuration {
    SimDuration::from_secs_f64(d.as_secs_f64() * scale).max(min)
}

fn slo_open(seed: u64, scale: f64, jobs: usize) -> Result<Inputs, SeqioError> {
    let rate = 1600.0;
    let target = 100_000.0 * scale;
    // 5% horizon margin over target/rate, as `probe slo` sizes it.
    let duration = SimDuration::from_secs_f64((target / rate) * 1.05);
    let template = Experiment::builder()
        .shape(NodeShape::eight_disk())
        .request_size(64 * KIB)
        .warmup(SimDuration::ZERO)
        .duration(duration)
        .build();
    let cfg = ArrivalConfig {
        rate_per_sec: rate,
        modulation: RateModulation::Diurnal { period: duration, depth: 0.3 },
        titles: 8192,
        zipf_exponent: 0.8,
        requests_per_session: 2,
        session_lifetime: Some(SimDuration::from_secs(10)),
    };
    // Each session drains at most 0.5 MiB/s (a player's receive rate),
    // so several hundred transfers share the link at once; the link
    // stays above the 260 MiB/s diurnal peak (see README: a link below
    // the peak makes every tail percentile hinge on one backlog).
    let link =
        LinkConfig { capacity_bps: 300.0 * MIB as f64, session_demand_bps: 0.5 * MIB as f64 };
    let exp = ClientExperiment::builder()
        .template(template)
        .nodes(4)
        .base_seed(seed)
        .jobs(jobs)
        .arrivals(cfg.clone())
        .link(link)
        .build();
    exp.template.validate()?;
    exp.link.validate()?;
    let sessions = exp.session_schedule()?;
    Ok(Inputs::Open { exp, cfg, sessions })
}

fn sched_closed(seed: u64, scale: f64, jobs: usize) -> Result<Inputs, SeqioError> {
    let warmup = SimDuration::from_secs(2);
    let duration = scaled(SimDuration::from_secs(148), scale, SimDuration::from_secs(1));
    let horizon = warmup + duration;
    // Node 1's disk 0 turns into a factor-4 straggler half-way through.
    let straggler = FaultPlan::new().straggler(0, 4.0, horizon / 2, None);
    let scenario = Scenario::builder()
        .shape(NodeShape::eight_disk())
        .streams_per_disk(100)
        .request_size(64 * KIB)
        .frontend(Frontend::StreamScheduler(ServerConfig::auto_tune(GIB, 8)))
        .warmup(warmup)
        .duration(duration)
        .nodes(2)
        .policy(ShardPolicy::HashByStream)
        .node_fault(1, straggler)
        .rebalance(RebalanceConfig::new(SimDuration::from_millis(250)))
        .base_seed(seed)
        .jobs(jobs)
        .build()?;
    Ok(Inputs::Closed { scenario })
}

fn direct_60disk(seed: u64, scale: f64, jobs: usize) -> Result<Inputs, SeqioError> {
    let scenario = Scenario::builder()
        .shape(NodeShape::sixty_disk())
        .streams_per_disk(30)
        .request_size(64 * KIB)
        .frontend(Frontend::Direct)
        .warmup(SimDuration::from_secs(2))
        .duration(scaled(SimDuration::from_secs(118), scale, SimDuration::from_secs(1)))
        .base_seed(seed)
        .jobs(jobs)
        .build()?;
    Ok(Inputs::Closed { scenario })
}

/// Independent single-node runs pooled into one scenario-video result.
const VIDEO_REPLICAS: usize = 8;

fn scenario_video(seed: u64, scale: f64, jobs: usize) -> Result<Inputs, SeqioError> {
    let warmup = SimDuration::from_secs(1);
    let arrivals = scaled(SimDuration::from_secs(60), scale, SimDuration::from_millis(500));
    // After the last arrival the run goes on until every session can
    // finish, so no session is cut by the horizon.
    let drain = SimDuration::from_secs(40);
    let template = Experiment::builder()
        .shape(NodeShape::eight_disk())
        .streams_per_disk(0)
        .open_sessions(true)
        .frontend(Frontend::StreamScheduler(ServerConfig::auto_tune(GIB, 8)))
        .warmup(warmup)
        .duration(arrivals + drain - warmup)
        .build();
    template.validate()?;
    // The generator injects 3 x streams_per_disk sessions per disk over
    // the arrival window: one 16 MiB session per disk per second, about
    // 1.4 times what the node delivers, so a backlog builds and drains.
    let streams_per_disk = (arrivals.as_secs_f64() / 3.0).round().max(1.0) as usize;
    let mut params = ScenarioParams::from_template(&template, 1, streams_per_disk);
    params.horizon = arrivals;
    let replicas = (0..VIDEO_REPLICAS)
        .map(|i| {
            let seed = derive_seed(seed, i);
            let generated = generate(ScenarioKind::Video, &params, seed)?;
            let mut run = ScenarioRun::new(template.clone(), generated.trace);
            run.jobs = Some(jobs);
            run.base_seed = Some(seed);
            run.adaptive = Some(AdaptiveConfig::standard());
            Ok(Replica { run, params, seed })
        })
        .collect::<Result<_, SeqioError>>()?;
    Ok(Inputs::Video { replicas })
}
