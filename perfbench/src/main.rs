//! The repository benchmark: host time, memory and simulated outcomes of
//! four workloads, plus a per-layer split measured from outside.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` a run prints every end-to-end metric; with
//! `--trace 1` it prints every per-layer metric from a separate traced
//! run. The last line of standard output is one JSON object. A failed
//! output check prints `"correct": false` and exits with code 1. See
//! `perfbench/README.md` for the workloads and the metric definitions.

#[cfg(test)]
mod defect;
mod outcome;
mod probe;
mod traced;
mod workloads;

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use outcome::Outcome;
use probe::Probe;
use seqio_scenario::{generate, ScenarioKind};
use traced::Stages;
use workloads::{Inputs, Workload};

/// Host time spent building inputs in one set-up slice. A slice runs
/// before the warm-up and after every timed repetition, so that `setup_s`
/// samples the host over the whole run, as `wall_s` does. A slice keeps
/// its fastest build, and `setup_s` is the fastest of the slices: on a
/// shared host a build's time jumps between levels up to 1.6x apart, and
/// the fastest of many builds is the least touched by it.
const SETUP_SLICE: Duration = Duration::from_millis(100);
/// Fewest timed repetitions in a run, however long each takes.
const MIN_REPS: usize = 3;

struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <slo-open|sched-closed|direct-60disk|\
                     scenario-video|all> [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: None, seed: None, seconds: 28, trace: false };
    let mut named = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                named = true;
                args.workload = match v.as_str() {
                    "all" => None,
                    _ => Some(Workload::from_name(&v).ok_or(format!("unknown workload {v:?}"))?),
                };
            }
            "--seed" => {
                let v = value()?;
                args.seed = Some(v.parse().map_err(|_| format!("bad seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value()?;
                args.seconds =
                    v.parse().ok().filter(|&s| s > 0).ok_or(format!("bad seconds {v:?}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !named {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => match run_workload(w, &args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name());
                ExitCode::from(1)
            }
        },
        None => run_all(&args),
    }
}

/// Runs every workload, each in a child process of its own so that peak
/// memory is per workload, and prints one combined JSON line.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seconds", &args.seconds.to_string()]);
        cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(s) = args.seed {
            cmd.args(["--seed", &s.to_string()]);
        }
        let out = match cmd.stderr(Stdio::inherit()).output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: cannot run {}: {e}", w.name());
                return ExitCode::from(1);
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        let last = text.lines().last().unwrap_or("");
        correct &= out.status.success() && last.contains("\"correct\": true");
        attempted += json_u64(last, "attempted").unwrap_or(0);
        failed += json_u64(last, "failed").unwrap_or(0);
        // The child's metric table: "  <name> <value> <unit>".
        for line in text.lines().filter(|l| l.starts_with("  ")) {
            if let [name, value, unit] = line.split_whitespace().collect::<Vec<_>>()[..] {
                if value.parse::<f64>().is_ok() {
                    metrics.push(format!(
                        "\"{}/{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                        w.name()
                    ));
                }
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn json_u64(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let digits: String = line[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Host time of one repetition at the probe's reference speed: the
/// repetitions' total wall time over their probes' total time, times
/// [`probe::NOMINAL_S`]. See `probe.rs` for why.
fn probe_scaled(reps: &[Rep]) -> f64 {
    let wall: f64 = reps.iter().map(|r| r.wall).sum();
    let probe: f64 = reps.iter().map(|r| r.probe).sum();
    wall / probe * probe::NOMINAL_S
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn host_notes() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("nproc {nproc}, cpu \"{cpu}\", {}", env!("PERFBENCH_RUSTC"))
}

/// One named metric of a result.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Builds the workload's inputs repeatedly for [`SETUP_SLICE`] (at
/// least five times) and returns the last inputs with the fastest build
/// time.
fn setup_slice(w: Workload, seed: u64) -> Result<(Inputs, f64), String> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let inputs = w.setup(seed, 1.0).map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= 5 && start.elapsed() >= SETUP_SLICE {
            return Ok((inputs, times.into_iter().fold(f64::INFINITY, f64::min)));
        }
    }
}

/// One timed repetition: its wall time and the mean of the probe times
/// just before and just after it.
struct Rep {
    wall: f64,
    probe: f64,
}

/// Runs `inputs` untraced until `budget` has passed (at least
/// [`MIN_REPS`] times), checking every repetition against `first`; stops
/// at the first mismatch. Times the probe around every repetition and
/// calls `between` after every repetition.
fn timed_reps(
    inputs: &Inputs,
    first: &Outcome,
    budget: Duration,
    probe: &mut Probe,
    errors: &mut Vec<String>,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<Vec<Rep>, String> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed() < budget {
        let before = probe.time();
        let t = Instant::now();
        let raw = inputs.run().map_err(|e| e.to_string())?;
        let wall = t.elapsed().as_secs_f64();
        reps.push(Rep { wall, probe: (before + probe.time()) / 2.0 });
        let o = Outcome::from_run(inputs, &raw);
        drop(raw);
        if o.digest != first.digest {
            errors.push("a repetition's simulated outputs differ from the first run's".into());
            break;
        }
        between()?;
    }
    Ok(reps)
}

fn run_workload(w: Workload, args: &Args) -> Result<bool, String> {
    let seed = args.seed.unwrap_or(w.default_seed());
    let seconds = Duration::from_secs(args.seconds);
    println!(
        "perfbench {}: seed {seed} (default {}, held-out {}), {} worker(s) (pinned {}), \
         {} s, trace {}",
        w.name(),
        w.default_seed(),
        w.held_out_seed(),
        w.jobs(),
        w.pinned_jobs(),
        args.seconds,
        u8::from(args.trace)
    );
    println!("host: {}", host_notes());

    let (inputs, setup0) = setup_slice(w, seed)?;
    // Warm-up run: fills caches and the allocator; not timed.
    let raw = inputs.run().map_err(|e| e.to_string())?;
    let first = Outcome::from_run(&inputs, &raw);
    drop(raw);
    let mut errors = first.errors.clone();
    // Read before the probe's memory is allocated, so it is the
    // workload's own: set-up plus one full run.
    let peak_rss = peak_rss_mib();
    let mut probe = Probe::new();

    let metrics = if args.trace {
        let reps = timed_reps(&inputs, &first, seconds / 2, &mut probe, &mut errors, || Ok(()))?;
        let (traced, stages) = traced_reps(&inputs, &first, seconds / 2, &mut errors)?;
        per_layer(&inputs, &traced, &stages, &reps, &mut errors)
    } else {
        let mut setups = vec![setup0];
        let reps = timed_reps(&inputs, &first, seconds, &mut probe, &mut errors, || {
            setups.push(setup_slice(w, seed)?.1);
            Ok(())
        })?;
        let walls = reps.iter().map(|r| r.wall).collect::<Vec<_>>();
        let probes = reps.iter().map(|r| r.probe).collect::<Vec<_>>();
        println!(
            "timed runs: {}, set-up slices: {}, median run {:.4} s, median probe {:.4} s",
            reps.len(),
            setups.len(),
            median(walls),
            median(probes)
        );
        let pairs: Vec<String> =
            reps.iter().map(|r| format!("{:.4}/{:.4}", r.wall, r.probe)).collect();
        println!("repetitions (wall/probe s): {}", pairs.join(" "));
        let setup_s = setups.into_iter().fold(f64::INFINITY, f64::min);
        end_to_end(&first, probe_scaled(&reps), setup_s, peak_rss)
    };

    println!(
        "operations: {} attempted, {} failed{}",
        first.attempted,
        first.failed,
        if first.undecided > 0 {
            format!(" ({} sessions still in flight at the horizon, not counted)", first.undecided)
        } else {
            String::new()
        }
    );
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    let correct = errors.is_empty() && metrics.iter().all(|x| x.value.is_finite());
    let mut json = String::new();
    for (i, x) in metrics.iter().enumerate() {
        println!("  {:<28} {:>20} {}", x.name, x.value, x.unit);
        let _ = write!(
            json,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            x.name,
            if x.value.is_finite() { x.value } else { 0.0 },
            x.unit
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        first.attempted.max(1),
        first.failed
    );
    Ok(correct)
}

fn end_to_end(o: &Outcome, wall_s: f64, setup_s: f64, peak_rss: f64) -> Vec<Metric> {
    let [p50, p99, p999] = o.session_ms;
    vec![
        m("wall_s", "s", wall_s),
        m("setup_s", "s", setup_s),
        m("peak_rss_mib", "MiB", peak_rss),
        m("sim_mbs", "sim_MB/s", o.sim_mbs),
        m("sim_session_p50_ms", "sim_ms", p50),
        m("sim_session_p99_ms", "sim_ms", p99),
        m("sim_session_p999_ms", "sim_ms", p999),
        m("sim_resp_mean_ms", "sim_ms", o.resp_mean_ms),
        m("sim_resp_p99_ms", "sim_ms", o.resp_p99_ms),
    ]
}

/// Runs the traced driver until `budget` has passed (at least
/// [`MIN_REPS`] times). Returns the first traced outcome and the median
/// of every stage.
fn traced_reps(
    inputs: &Inputs,
    first: &Outcome,
    budget: Duration,
    errors: &mut Vec<String>,
) -> Result<(Outcome, Stages), String> {
    let start = Instant::now();
    let mut runs: Vec<Stages> = Vec::new();
    let mut traced: Option<Outcome> = None;
    while runs.len() < MIN_REPS || start.elapsed() < budget {
        let (raw, st) = traced::run(inputs).map_err(|e| e.to_string())?;
        let o = Outcome::from_run(inputs, &raw);
        if o.digest != first.digest {
            errors.push("the traced run's simulated outputs differ from the untraced run's".into());
        }
        errors.extend(st.errors.iter().cloned());
        if let Some(t) = &traced {
            if t.counts != o.counts {
                errors.push("traced runs disagree on the layer counts".into());
            }
        }
        traced.get_or_insert(o);
        runs.push(st);
        if !errors.is_empty() {
            break;
        }
    }
    let med = |f: fn(&Stages) -> Duration| {
        Duration::from_secs_f64(median(runs.iter().map(|s| f(s).as_secs_f64()).collect()))
    };
    let stages = Stages {
        schedule: med(|s| s.schedule),
        timeline: med(|s| s.timeline),
        drive: med(|s| s.drive),
        epoch: med(|s| s.epoch),
        merge: med(|s| s.merge),
        overlay: med(|s| s.overlay),
        cluster_run: med(|s| s.cluster_run),
        scenario_run: med(|s| s.scenario_run),
        wall: med(|s| s.wall),
        transfers: runs[0].transfers,
        peak_active: runs[0].peak_active,
        errors: Vec::new(),
    };
    println!("traced runs: {}", runs.len());
    Ok((traced.expect("at least one traced run"), stages))
}

/// Host nanoseconds per unit of work; 0 when there was no work.
fn per_unit_ns(d: Duration, units: u64) -> f64 {
    if units == 0 {
        0.0
    } else {
        d.as_secs_f64() * 1e9 / units as f64
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_layer(
    inputs: &Inputs,
    o: &Outcome,
    st: &Stages,
    reps: &[Rep],
    errors: &mut Vec<String>,
) -> Vec<Metric> {
    let c = &o.counts;
    let untraced_wall = median(reps.iter().map(|r| r.wall).collect());
    let slowdown = median(reps.iter().map(|r| r.probe).collect()) / probe::NOMINAL_S;
    // The scenario trace is set-up work; time its generation on its own
    // and check it reproduces the trace the run used.
    let generate_s = match inputs {
        Inputs::Video { replicas } => {
            println!(
                "not timed: node.drive_s and node.ns_per_event read 0 here; \
                 ScenarioRun::run keeps its stages inside, so node time is in scenario.run_s"
            );
            let mut times = Vec::new();
            for _ in 0..5 {
                let t = Instant::now();
                let again: Vec<_> = replicas
                    .iter()
                    .map(|r| generate(ScenarioKind::Video, &r.params, r.seed).map(|s| s.trace))
                    .collect();
                times.push(t.elapsed().as_secs_f64());
                let same =
                    again.iter().zip(replicas).all(|(a, r)| a.as_ref().ok() == Some(&r.run.trace));
                if !same {
                    errors.push("regenerating a scenario trace gave a different trace".into());
                }
            }
            median(times)
        }
        _ => 0.0,
    };
    let kernel = |name: &str| c.kernel.get(name).copied().unwrap_or(0) as f64;
    let wall = st.wall.as_secs_f64();
    vec![
        m("client.schedule_s", "s", st.schedule.as_secs_f64()),
        m("client.timeline_s", "s", st.timeline.as_secs_f64()),
        m("client.sessions", "count", c.sessions as f64),
        m("link.overlay_s", "s", st.overlay.as_secs_f64()),
        m("link.transfers", "count", st.transfers as f64),
        m("link.peak_active", "count", st.peak_active as f64),
        m("link.ns_per_transfer", "ns", per_unit_ns(st.overlay, st.transfers)),
        m("node.drive_s", "s", st.drive.as_secs_f64()),
        m("node.events", "count", c.events as f64),
        m("node.ns_per_event", "ns", per_unit_ns(st.drive, c.events)),
        m("kernel.arrive", "count", kernel("arrive")),
        m("kernel.submit_ctrl", "count", kernel("submit_ctrl")),
        m("kernel.ctrl_internal", "count", kernel("ctrl_internal")),
        m("kernel.ctrl_done", "count", kernel("ctrl_done")),
        m("kernel.deliver", "count", kernel("deliver")),
        m("kernel.gc", "count", kernel("gc")),
        m("kernel.queue_resizes", "count", c.queue_resizes as f64),
        m("core.memory_hit_ratio", "ratio", ratio(c.memory_hits, c.client_requests)),
        m("core.fills_issued", "count", c.fills_issued as f64),
        m("core.admissions", "count", c.admissions as f64),
        m("core.issue_no_memory", "count", c.issue_no_memory as f64),
        m("core.degraded_rotations", "count", c.degraded_rotations as f64),
        m(
            "ctrl.prefetch_waste_ratio",
            "ratio",
            ratio(c.ctrl_wasted_bytes, c.ctrl_bytes_from_disks),
        ),
        m("disk.ops", "count", c.disk_ops as f64),
        m("disk.seeks_per_op", "ratio", ratio(c.disk_seeks, c.disk_ops)),
        m("disk.busy_frac", "ratio", ratio(c.disk_busy.as_nanos(), c.disk_time.as_nanos())),
        m("disk.faults", "count", c.disk_faults as f64),
        m("cluster.run_s", "s", st.cluster_run.as_secs_f64()),
        m("cluster.epoch_s", "s", st.epoch.as_secs_f64()),
        m("cluster.merge_s", "s", st.merge.as_secs_f64()),
        m("cluster.migrations", "count", c.migrations as f64),
        m("scenario.generate_s", "s", generate_s),
        m("scenario.ops", "count", c.trace_ops as f64),
        m("scenario.retunes", "count", c.retunes as f64),
        m("scenario.run_s", "s", st.scenario_run.as_secs_f64()),
        m("host.raw_wall_s", "s", untraced_wall),
        m("host.slowdown", "ratio", slowdown),
        m("trace.overhead_frac", "ratio", wall / untraced_wall - 1.0),
        m("trace.unaccounted_frac", "ratio", (wall - st.covered().as_secs_f64()) / wall),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, on its default and its held-out seed, at a small
    /// scale: the outputs pass their checks, repeat exactly, and the
    /// traced driver reproduces the untraced run bit for bit.
    #[test]
    fn every_workload_runs_on_both_seeds() {
        for w in Workload::ALL {
            for seed in [w.default_seed(), w.held_out_seed()] {
                let inputs = w.setup(seed, 0.02).expect("workload inputs build");
                let raw = inputs.run().expect("untraced run");
                let o = Outcome::from_run(&inputs, &raw);
                assert!(o.errors.is_empty(), "{} seed {seed}: {:?}", w.name(), o.errors);
                let again = Outcome::from_run(&inputs, &inputs.run().expect("second run"));
                assert_eq!(o.digest, again.digest, "{} seed {seed} repeats", w.name());
                let (traced, st) = traced::run(&inputs).expect("traced run");
                let t = Outcome::from_run(&inputs, &traced);
                assert!(st.errors.is_empty(), "{}: {:?}", w.name(), st.errors);
                assert_eq!(o.digest, t.digest, "{} seed {seed}: traced == untraced", w.name());
                assert!(t.counts.events > 0 && t.counts.kernel.values().sum::<u64>() > 0);
                assert!(st.covered() <= st.wall, "{}: stages are disjoint", w.name());
            }
        }
    }

    #[test]
    fn seeds_change_the_inputs() {
        for w in Workload::ALL {
            let a = w.setup(w.default_seed(), 0.02).expect("default seed");
            let b = w.setup(w.held_out_seed(), 0.02).expect("held-out seed");
            let oa = Outcome::from_run(&a, &a.run().expect("run a"));
            let ob = Outcome::from_run(&b, &b.run().expect("run b"));
            assert_ne!(oa.digest, ob.digest, "{}: the seed reaches the simulation", w.name());
        }
    }

    #[test]
    fn wall_is_read_at_the_probes_nominal_speed() {
        // A host twice as slow doubles both times and leaves wall_s alone.
        let quiet = [Rep { wall: 1.0, probe: probe::NOMINAL_S }];
        let slow = [Rep { wall: 2.0, probe: 2.0 * probe::NOMINAL_S }];
        assert!((probe_scaled(&quiet) - 1.0).abs() < 1e-12);
        assert!((probe_scaled(&slow) - 1.0).abs() < 1e-12);
        let mixed = [Rep { wall: 1.0, probe: probe::NOMINAL_S }, Rep { wall: 2.0, probe: 0.084 }];
        assert!((probe_scaled(&mixed) - 1.0).abs() < 1e-12);
        assert!(Probe::new().time() > 0.0);
    }

    #[test]
    fn pinned_workers_never_exceed_the_host() {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        for w in Workload::ALL {
            assert!(w.jobs() >= 1 && w.jobs() <= nproc.max(1));
            assert!(w.jobs() <= w.pinned_jobs());
        }
    }
}
