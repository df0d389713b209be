//! Integration tests for `repro check`: the CLI contract the verify gate
//! and any recorded reproducer line rely on.

use std::process::{Command, Output};

fn repro(args: &[&str], self_test: bool) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.arg("check").args(args);
    if self_test {
        cmd.env("DT_CHECK_SELF_TEST", "1");
    } else {
        cmd.env_remove("DT_CHECK_SELF_TEST");
    }
    cmd.output().expect("repro binary must run")
}

#[test]
fn clean_suite_exits_zero_and_reports_every_property() {
    let out = repro(&["--seeds", "25"], false);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "clean suite must exit 0\n{stdout}");
    assert!(stdout.contains("all properties hold"), "{stdout}");
    for name in [
        "pipeline.1f1b_matches_closed_form",
        "wire.garbage_never_panics",
    ] {
        assert!(stdout.contains(name), "missing {name} in\n{stdout}");
    }
    assert!(
        !stdout.contains("self_test"),
        "self-test oracle must stay hidden\n{stdout}"
    );
}

#[test]
fn falsified_property_exits_nonzero_with_a_reproducer_that_replays() {
    let out = repro(&["--seeds", "50"], true);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "falsified suite must exit 1\n{stdout}"
    );
    assert!(
        stdout.contains("FAILED self_test.broken_oracle"),
        "{stdout}"
    );

    // The printed reproducer is a single runnable line; replay it.
    let line = stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("reproduce: "))
        .expect("a reproducer line must be printed");
    assert!(
        line.starts_with("repro check --prop self_test.broken_oracle --seed "),
        "{line}"
    );
    let args: Vec<&str> = line.split_whitespace().skip(2).collect();
    let replay = repro(&args, true);
    let replay_out = String::from_utf8_lossy(&replay.stdout);
    assert_eq!(
        replay.status.code(),
        Some(1),
        "reproducer must replay the failure\n{replay_out}"
    );
    assert!(replay_out.contains("FAILED"), "{replay_out}");
}

#[test]
fn unknown_property_exits_two_and_lists_the_registry() {
    let out = repro(&["--prop", "nosuch.prop"], false);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown property"), "{stderr}");
    assert!(
        stderr.contains("reorder.alg1_within_4_3_of_optimum"),
        "{stderr}"
    );
}

#[test]
fn single_property_filter_runs_only_that_property() {
    let out = repro(
        &[
            "--seeds",
            "40",
            "--prop",
            "telemetry.snapshot_json_round_trip",
        ],
        false,
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("1 properties"), "{stdout}");
    assert!(
        stdout.contains("telemetry.snapshot_json_round_trip"),
        "{stdout}"
    );
    assert!(!stdout.contains("pipeline."), "{stdout}");
}

#[test]
fn replay_mode_requires_the_full_triple() {
    let out = repro(&["--seed", "3"], false);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--prop"), "{stderr}");
}
