//! End-to-end CLI coverage driving the compiled `seqio` binary: the
//! `report --slo` zero-completed-sessions report stays a clean report
//! (not NaN percentiles or a hard error), `scenario record` →
//! `scenario replay` reproduces `scenario run` exactly, and replaying a
//! trace the node cannot serve fails with a clean error.

use std::path::PathBuf;
use std::process::{Command, Output};

fn seqio(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_seqio")).args(args).output().expect("the seqio binary runs")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "seqio exited with {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seqio-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A span file recorded by a plain `run` carries no network-delivered
/// stamps, so the session SLO has zero completed sessions. That is a
/// legitimate outcome and must produce a clean report — historically it
/// was a hard error, and naive percentile math would print NaNs.
#[test]
fn report_slo_with_zero_completed_sessions_is_a_clean_report() {
    let dir = scratch_dir("slo");
    let spans = dir.join("spans.csv");
    let spans = spans.to_str().unwrap();
    stdout(&seqio(&[
        "run",
        "--streams",
        "2",
        "--requests",
        "4",
        "--warmup",
        "0s",
        "--duration",
        "200ms",
        "--trace-out",
        spans,
    ]));

    let report = stdout(&seqio(&["report", "--spans", spans, "--slo"]));
    assert!(
        report.contains("no completed sessions"),
        "zero-completed SLO report missing:\n{report}"
    );
    assert!(!report.contains("NaN"), "SLO report leaked NaN percentiles:\n{report}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `scenario record` writes the trace a `scenario run` of the same kind
/// and seed would generate, and `scenario replay` of that file reproduces
/// the run's report byte-for-byte (totals, per-node lines, retunes).
#[test]
fn scenario_record_then_replay_matches_the_direct_run() {
    let dir = scratch_dir("scenario");
    let trace = dir.join("mixed.trace");
    let trace = trace.to_str().unwrap();

    let recorded = stdout(&seqio(&["scenario", "record", "--kind", "mixed", "--out", trace]));
    assert!(recorded.contains("recorded:"), "{recorded}");
    let text = std::fs::read_to_string(trace).unwrap();
    assert!(text.starts_with("# seqio scenario trace v1"), "unexpected trace header:\n{text}");

    let run = stdout(&seqio(&["scenario", "run", "--kind", "mixed", "--adaptive"]));
    let replay = stdout(&seqio(&["scenario", "replay", "--trace", trace, "--adaptive"]));
    assert_eq!(run, replay, "replaying the recorded trace diverged from the original run");
    assert!(run.contains("total:"), "{run}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Unknown scenario kinds and verbs fail with errors naming the choices.
#[test]
fn scenario_errors_name_the_valid_choices() {
    let out = seqio(&["scenario", "run", "--kind", "bogus"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bogus") && err.contains("seek-restart"), "{err}");

    let out = seqio(&["scenario", "frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("run|record|replay"), "{err}");
}

/// Replays a one-op trace whose inject clause ends in `inject_tail` and
/// returns the failed run's stderr, checking it exited with the CLI's
/// error status rather than a panic.
fn replay_rejects(name: &str, inject_tail: &str) -> String {
    let dir = scratch_dir(name);
    let trace = dir.join("bad.trace");
    std::fs::write(
        &trace,
        format!(
            "# seqio scenario trace v1\nmeta:name=bad,nodes=1\n\
             inject:at=0,node=0,stream=7,{inject_tail},requests=4,pattern=seq\n"
        ),
    )
    .unwrap();
    let out = seqio(&["scenario", "replay", "--trace", trace.to_str().unwrap()]);
    std::fs::remove_dir_all(&dir).ok();
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "expected a clean error exit:\n{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(err.contains("op 0 (stream 7 on node 0)"), "the error must name the op:\n{err}");
    err
}

/// An inject naming a disk the replay node does not have is rejected up
/// front instead of panicking inside the node.
#[test]
fn scenario_replay_rejects_a_disk_outside_the_node() {
    let err = replay_rejects("bad-disk", "disk=99,start=0,blocks=128");
    assert!(err.contains("names disk 99 but the node has"), "{err}");
}

/// An inject whose first request ends past the end of the disk is
/// rejected up front instead of panicking inside the storage server.
#[test]
fn scenario_replay_rejects_a_start_past_the_disk_end() {
    let err = replay_rejects("bad-start", "disk=0,start=1000000000000,blocks=128");
    assert!(err.contains("past the disk's"), "{err}");
}
