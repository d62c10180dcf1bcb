//! Condenses one run into the simulated end-to-end metrics, the layer
//! counters each layer already exposes, a digest of every simulated
//! output, and the output checks.

use std::collections::BTreeMap;

use seqio_cluster::{percentile, ClusterResult};
use seqio_node::RunResult;
use seqio_scenario::TraceOpKind;
use seqio_simcore::{LatencyHistogram, SimDuration, SimTime};

use crate::workloads::{Inputs, Raw};

/// Deterministic per-layer work counts, summed over nodes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub events: u64,
    /// Per kernel event class; filled only when the run was profiled.
    pub kernel: BTreeMap<&'static str, u64>,
    pub queue_resizes: u64,
    pub client_requests: u64,
    pub memory_hits: u64,
    pub fills_issued: u64,
    pub admissions: u64,
    pub issue_no_memory: u64,
    pub degraded_rotations: u64,
    pub ctrl_wasted_bytes: u64,
    pub ctrl_bytes_from_disks: u64,
    pub disk_ops: u64,
    pub disk_seeks: u64,
    pub disk_busy: SimDuration,
    /// Disks times the simulated horizon: the denominator of `busy_frac`.
    pub disk_time: SimDuration,
    pub disk_faults: u64,
    pub migrations: u64,
    pub retunes: u64,
    pub trace_ops: u64,
    /// Open-loop client sessions scheduled.
    pub sessions: u64,
}

/// One run, condensed.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub sim_mbs: f64,
    pub resp_mean_ms: f64,
    pub resp_p99_ms: f64,
    /// Per-session latency p50, p99 and p99.9, completed sessions only.
    pub session_ms: [f64; 3],
    pub attempted: u64,
    pub failed: u64,
    /// Open-loop sessions still in flight when the horizon cut the run
    /// while their lifetime had not expired: neither completed nor failed.
    pub undecided: u64,
    pub counts: Counts,
    /// FNV-1a digest of every simulated output (not of host timings).
    pub digest: u64,
    /// Failed output checks, empty when the run is correct.
    pub errors: Vec<String>,
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn eat_f64(&mut self, v: f64) {
        self.eat(v.to_bits());
    }
    fn eat_hist(&mut self, h: &LatencyHistogram) {
        self.eat(h.count());
        self.eat(h.mean().as_nanos());
        self.eat(h.max().as_nanos());
        for q in [0.5, 0.9, 0.99, 0.999] {
            self.eat(h.quantile(q).map_or(0, SimDuration::as_nanos));
        }
    }
    fn eat_run(&mut self, r: &RunResult) {
        self.eat(r.bytes_delivered);
        self.eat(r.requests_completed);
        self.eat(r.events_simulated);
        self.eat(r.window.as_nanos());
        self.eat_hist(&r.response);
        for &b in &r.per_stream_bytes {
            self.eat(b);
        }
        for &m in &r.per_stream_mbs {
            self.eat_f64(m);
        }
        for t in &r.stream_done_at {
            self.eat(t.map_or(u64::MAX, SimTime::as_nanos));
        }
        for v in
            [&r.disk_seeks, &r.disk_ops, &r.disk_read_errors, &r.disk_retries, &r.disk_timeouts]
        {
            for &x in v {
                self.eat(x);
            }
        }
        for d in &r.disk_busy {
            self.eat(d.as_nanos());
        }
        self.eat(r.ctrl_wasted_bytes);
        self.eat(r.ctrl_bytes_from_disks);
        if let Some(m) = &r.server_metrics {
            for x in [
                m.client_requests,
                m.direct_requests,
                m.memory_hits,
                m.queued_requests,
                m.streams_detected,
                m.admissions,
                m.fills_issued,
                m.completions,
                m.streams_gced,
                m.issue_no_memory,
                m.issue_no_demand,
                m.degraded_rotations,
            ] {
                self.eat(x);
            }
        }
    }
}

/// Everything gathered from the nodes of one run.
struct Acc {
    h: Fnv,
    counts: Counts,
    errors: Vec<String>,
    resp: LatencyHistogram,
    /// Requests that met a read error or a timeout.
    failed_requests: u64,
}

impl Acc {
    fn new() -> Acc {
        Acc {
            h: Fnv::new(),
            counts: Counts::default(),
            errors: Vec::new(),
            resp: LatencyHistogram::new(),
            failed_requests: 0,
        }
    }

    /// Takes in one node's result over a run of `horizon` in which every
    /// request is `request_bytes` long.
    fn node(&mut self, node: usize, r: &RunResult, horizon: SimDuration, request_bytes: u64) {
        self.h.eat(node as u64);
        self.h.eat_run(r);
        let c = &mut self.counts;
        c.events += r.events_simulated;
        if let Some(p) = &r.prof {
            for class in &p.classes {
                *c.kernel.entry(class.name).or_default() += class.count;
            }
            c.queue_resizes += p.queue.resizes;
        }
        if let Some(m) = &r.server_metrics {
            c.client_requests += m.client_requests;
            c.memory_hits += m.memory_hits;
            c.fills_issued += m.fills_issued;
            c.admissions += m.admissions;
            c.issue_no_memory += m.issue_no_memory;
            c.degraded_rotations += m.degraded_rotations;
        }
        c.ctrl_wasted_bytes += r.ctrl_wasted_bytes;
        c.ctrl_bytes_from_disks += r.ctrl_bytes_from_disks;
        c.disk_ops += r.disk_ops.iter().sum::<u64>();
        c.disk_seeks += r.disk_seeks.iter().sum::<u64>();
        for &b in &r.disk_busy {
            c.disk_busy += b;
            c.disk_time += horizon;
        }
        let errors = r.disk_read_errors.iter().sum::<u64>();
        let timeouts = r.disk_timeouts.iter().sum::<u64>();
        c.disk_faults += errors + timeouts + r.disk_retries.iter().sum::<u64>();
        self.failed_requests += errors + timeouts;
        self.resp.merge(&r.response);
        self.check_bytes(
            &format!("node {node}"),
            r.bytes_delivered,
            r.requests_completed,
            &r.response,
            request_bytes,
        );
    }

    /// Each delivery in the window adds one request's bytes, one completed
    /// request and one response time; the three tallies are kept apart,
    /// so they must agree.
    fn check_bytes(
        &mut self,
        who: &str,
        bytes: u64,
        requests: u64,
        response: &LatencyHistogram,
        request_bytes: u64,
    ) {
        if bytes != requests * request_bytes || response.count() != requests {
            self.errors.push(format!(
                "{who}: {bytes} bytes delivered, but {requests} requests of {request_bytes} \
                 bytes completed and {} response times recorded",
                response.count()
            ));
        }
    }

    /// Takes in every node of a cluster run plus the merged result.
    fn cluster(&mut self, r: &ClusterResult, horizon: SimDuration, request_bytes: u64) {
        for n in &r.nodes {
            let Some(res) = &n.result else { continue };
            self.node(n.node, res, horizon, request_bytes);
        }
        self.check_bytes(
            "cluster",
            r.bytes_delivered,
            r.requests_completed,
            &r.response,
            request_bytes,
        );
        self.h.eat(r.bytes_delivered);
        self.h.eat(r.requests_completed);
        self.h.eat(r.events_simulated);
        self.h.eat(r.window.as_nanos());
        self.h.eat_hist(&r.response);
        for &m in &r.per_stream_mbs {
            self.h.eat_f64(m);
        }
        for &k in &r.assignment {
            self.h.eat(k as u64);
        }
        for m in &r.migrations {
            self.h.eat(m.at.as_nanos());
            self.h.eat(m.stream as u64);
            self.h.eat(m.from as u64);
            self.h.eat(m.to as u64);
        }
        self.counts.migrations = r.migrations.len() as u64;
    }
}

/// Nearest-rank percentiles of an ascending-sorted latency vector.
fn percentiles_ms(sorted: &[SimDuration]) -> [f64; 3] {
    [0.5, 0.99, 0.999].map(|q| percentile(sorted, q).map_or(0.0, SimDuration::as_millis_f64))
}

impl Outcome {
    /// Condenses `raw`, which `inputs` produced.
    pub fn from_run(inputs: &Inputs, raw: &Raw) -> Outcome {
        let mut acc = Acc::new();
        // (throughput, session percentiles, operations attempted, failed,
        // undecided), before failed requests are added.
        let (sim_mbs, session_ms, attempted, failed, undecided) = match (inputs, raw) {
            (Inputs::Open { exp, cfg, sessions }, Raw::Cluster(r)) => {
                let horizon = exp.template.warmup + exp.template.duration;
                let request_bytes = exp.template.request_bytes;
                acc.cluster(r, horizon, request_bytes);
                acc.counts.sessions = sessions.len() as u64;
                // A completed session read all its requests, and the run
                // has no warm-up to hide any of them.
                let (done, bytes) = completed_sessions(r, sessions.len());
                for s in sessions.iter().filter(|s| done[s.id]) {
                    if bytes[s.id] != s.requests * request_bytes {
                        acc.errors.push(format!(
                            "session {} completed with {} of its {} bytes",
                            s.id,
                            bytes[s.id],
                            s.requests * request_bytes
                        ));
                    }
                }
                // A session is failed once its lifetime expired without
                // delivery; one cut by the horizon inside its lifetime is
                // undecided and left out of `attempted`.
                let end = (SimTime::ZERO + horizon).as_nanos();
                let life = cfg.session_lifetime.unwrap_or(SimDuration::MAX).as_nanos();
                let (mut failed, mut undecided) = (0, 0);
                for s in sessions.iter().filter(|s| !done[s.id]) {
                    if s.arrival.as_nanos().saturating_add(life) < end {
                        failed += 1;
                    } else {
                        undecided += 1;
                    }
                }
                let session_ms = match &r.slo {
                    Some(slo) => {
                        acc.h.eat(slo.sessions);
                        acc.h.eat(slo.completed);
                        for v in [slo.p50_ms, slo.p95_ms, slo.p99_ms, slo.p999_ms, slo.mean_ms] {
                            acc.h.eat_f64(v);
                        }
                        acc.h.eat_f64(slo.max_ms);
                        if slo.sessions != sessions.len() as u64 {
                            acc.errors.push(format!(
                                "{} sessions admitted but the schedule holds {}",
                                slo.sessions,
                                sessions.len()
                            ));
                        }
                        if slo.completion_ratio() < 0.98 {
                            acc.errors.push(format!(
                                "only {:.4} of admitted sessions completed (bar 0.98)",
                                slo.completion_ratio()
                            ));
                        }
                        [slo.p50_ms, slo.p99_ms, slo.p999_ms]
                    }
                    None => {
                        acc.errors.push("no session completed".into());
                        [0.0; 3]
                    }
                };
                let attempted = sessions.len() as u64 - undecided;
                (r.total_throughput_mbs(), session_ms, attempted, failed, undecided)
            }
            (Inputs::Closed { scenario }, Raw::Cluster(r)) => {
                let t = &scenario.cluster().template;
                acc.cluster(r, t.warmup + t.duration, t.request_bytes);
                // A closed-loop session is one stream over the measured
                // window; its latency is the mean interval between its
                // requests (window / requests it completed). A stream
                // that completed nothing is a failed session.
                let mut stream_bytes = vec![0u64; r.assignment.len()];
                for n in &r.nodes {
                    let Some(res) = &n.result else { continue };
                    for (slot, &g) in r.node_stream_ids[n.node].iter().enumerate() {
                        stream_bytes[g] += res.per_stream_bytes[slot];
                    }
                }
                let window = u128::from(r.window.as_nanos());
                let mut lat = Vec::with_capacity(stream_bytes.len());
                let mut starved = 0;
                for &b in &stream_bytes {
                    if b == 0 {
                        starved += 1;
                    } else {
                        let ns = window * u128::from(t.request_bytes) / u128::from(b);
                        lat.push(SimDuration::from_nanos(ns as u64));
                    }
                }
                lat.sort_unstable();
                let attempted = r.requests_completed + starved;
                (r.total_throughput_mbs(), percentiles_ms(&lat), attempted, starved, 0)
            }
            (Inputs::Video { replicas }, Raw::Scenario(outcomes)) => {
                let mut lat = Vec::new();
                let (mut sessions, mut unfinished) = (0u64, 0u64);
                let mut mbs = 0.0;
                for (rep, o) in replicas.iter().zip(outcomes) {
                    let t = &rep.run.template;
                    let (warmup_at, stop_at) =
                        (SimTime::ZERO + t.warmup, SimTime::ZERO + t.warmup + t.duration);
                    acc.h.eat(o.fingerprint());
                    for (k, res) in o.nodes.iter().enumerate() {
                        acc.node(k, res, t.warmup + t.duration, t.request_bytes);
                    }
                    mbs += o.total_throughput_mbs();
                    acc.counts.retunes += o.retunes.len() as u64;
                    acc.counts.trace_ops += rep.run.trace.ops.len() as u64;
                    // Inject to storage completion, per session. Slots
                    // fill densely in each node's trace order.
                    let mut next_slot = vec![0usize; o.nodes.len()];
                    for op in &rep.run.trace.ops {
                        let TraceOpKind::Inject { blocks, requests, .. } = op.kind else {
                            continue;
                        };
                        let slot = next_slot[op.node];
                        next_slot[op.node] += 1;
                        sessions += 1;
                        let node = &o.nodes[op.node];
                        let Some(done) = node.stream_done_at.get(slot).copied().flatten() else {
                            unfinished += 1;
                            continue;
                        };
                        lat.push(done.duration_since(op.at));
                        // A session wholly inside the window delivered
                        // every byte it asked for.
                        let want = blocks * 512 * requests;
                        let got = node.per_stream_bytes[slot];
                        if op.at >= warmup_at && done <= stop_at && got != want {
                            acc.errors.push(format!(
                                "node {} session {}: completed with {got} of its {want} bytes",
                                op.node, op.stream
                            ));
                        }
                    }
                }
                lat.sort_unstable();
                let mbs = mbs / replicas.len() as f64;
                (mbs, percentiles_ms(&lat), sessions, unfinished, 0)
            }
            _ => panic!("a run's output kind always matches its inputs"),
        };
        let mut out = Outcome {
            sim_mbs,
            resp_mean_ms: acc.resp.mean().as_millis_f64(),
            resp_p99_ms: acc.resp.quantile(0.99).map_or(0.0, SimDuration::as_millis_f64),
            session_ms,
            attempted: attempted + acc.failed_requests,
            failed: failed + acc.failed_requests,
            undecided,
            counts: acc.counts,
            digest: acc.h.0,
            errors: acc.errors,
        };
        out.check();
        out
    }

    /// Checks that hold on every workload.
    fn check(&mut self) {
        let [p50, p99, p999] = self.session_ms;
        if !(p50 > 0.0 && p50 <= p99 && p99 <= p999) {
            self.errors.push(format!("session percentiles out of order: {p50} {p99} {p999}"));
        }
        if !(self.resp_mean_ms > 0.0 && self.resp_p99_ms > 0.0) {
            self.errors.push("no request response time recorded".into());
        }
        if !(self.sim_mbs > 0.0 && self.sim_mbs.is_finite()) {
            self.errors.push(format!("aggregate throughput is {}", self.sim_mbs));
        }
        if self.attempted == 0 {
            self.errors.push("no operation attempted".into());
        }
    }
}

/// Which global sessions delivered their last response before the
/// horizon, and the bytes each session was delivered.
fn completed_sessions(r: &ClusterResult, sessions: usize) -> (Vec<bool>, Vec<u64>) {
    let mut done = vec![false; sessions];
    let mut bytes = vec![0; sessions];
    for n in &r.nodes {
        let Some(res) = &n.result else { continue };
        for (slot, &g) in r.node_stream_ids[n.node].iter().enumerate() {
            if res.stream_done_at.get(slot).copied().flatten().is_some() {
                done[g] = true;
            }
            bytes[g] += res.per_stream_bytes[slot];
        }
    }
    (done, bytes)
}
