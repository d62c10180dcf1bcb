//! Reproducer of a known program defect that shaped the choice of the
//! scenario workload (see README, "Known defect"). Every scenario
//! generator but `video` injects unbounded sequential streams a few
//! requests before the disk end, so at long horizons a stream runs off
//! the disk and the node panics with "request past disk end".
//!
//! Ignored by default, since it reproduces a defect rather than checking
//! the benchmark:
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml \
//!     -- --ignored churn_runs_off_the_disk_end
//! ```
//!
//! The test expects the panic; once the defect is fixed it fails, and
//! the notes and the workload choice should be revisited.

use seqio_core::ServerConfig;
use seqio_node::{Experiment, Frontend, NodeShape};
use seqio_scenario::{generate, AdaptiveConfig, ScenarioKind, ScenarioParams, ScenarioRun};
use seqio_simcore::SimDuration;

use crate::workloads::GIB;

/// `churn` on two eight-disk nodes, 32 streams per disk, 1 s warm-up
/// plus 300 s, auto-tune with the standard tuner.
fn churn(seed: u64) {
    let template = Experiment::builder()
        .shape(NodeShape::eight_disk())
        .streams_per_disk(0)
        .open_sessions(true)
        .frontend(Frontend::StreamScheduler(ServerConfig::auto_tune(GIB, 8)))
        .warmup(SimDuration::from_secs(1))
        .duration(SimDuration::from_secs(300))
        .seed(seed)
        .build();
    let params = ScenarioParams::from_template(&template, 2, 32);
    let scenario = generate(ScenarioKind::Churn, &params, seed).expect("churn generates");
    let mut run = ScenarioRun::new(template, scenario.trace);
    run.jobs = Some(1);
    run.base_seed = Some(seed);
    run.adaptive = Some(AdaptiveConfig::standard());
    run.run().expect("a valid scenario runs");
}

#[test]
#[ignore = "reproducer of a known program defect"]
#[should_panic(expected = "request past disk end")]
fn churn_runs_off_the_disk_end() {
    churn(2);
}
