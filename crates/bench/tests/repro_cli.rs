//! CLI contract tests for the `repro` binary: every subcommand's flag
//! errors exit 2, name the flag and list the valid flags; `--help` prints
//! the generated usage on stdout, as the docs show it; and `--json` +
//! `--metrics` compose in one invocation, producing all three artifacts.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dt-repro-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn unknown_flag_exits_2_and_lists_the_valid_flags() {
    let out = repro()
        .args(["zoo", "--metrix", "x.prom"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag '--metrix'"),
        "stderr: {stderr}"
    );
    for flag in ["--trace", "--json", "--metrics"] {
        assert!(stderr.contains(flag), "stderr must list {flag}: {stderr}");
    }
}

#[test]
fn missing_flag_value_exits_2_and_lists_the_valid_flags() {
    let out = repro().args(["zoo", "--metrics"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--metrics requires an output path"),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("--json"),
        "stderr must list the valid flags: {stderr}"
    );
}

#[test]
fn unknown_experiment_still_exits_2() {
    let out = repro().args(["zo"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment 'zo'"));
}

#[test]
fn json_and_metrics_compose_in_one_run() {
    let dir = tempdir("compose");
    let json = dir.join("tables.json");
    let prom = dir.join("metrics.prom");
    let out = repro()
        .args(["zoo", "--json"])
        .arg(&json)
        .arg("--metrics")
        .arg(&prom)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Metrics summary"), "stdout: {stdout}");
    assert!(stdout.contains("zoo regenerated"), "stdout: {stdout}");

    // The Prometheus dump covers the runtime / pipeline / preprocess
    // families and is non-empty, line-oriented text.
    let text = std::fs::read_to_string(&prom).unwrap();
    for family in [
        "# TYPE dt_runtime_iter_time_seconds summary",
        "# TYPE dt_pipeline_stage_compute_seconds summary",
        "# TYPE dt_preprocess_fetch_seconds summary",
        "dt_runtime_iterations_total",
    ] {
        assert!(text.contains(family), "missing `{family}` in:\n{text}");
    }

    // The metrics archive sits next to the dump and parses as JSON.
    let archive = std::fs::read_to_string(dir.join("metrics.prom.json")).unwrap();
    let doc = dt_simengine::Json::parse(&archive).expect("metrics archive is valid JSON");
    assert!(doc
        .get("metrics")
        .and_then(|m| m.as_array())
        .is_some_and(|m| !m.is_empty()));

    // The experiment table archive was written too.
    let tables = std::fs::read_to_string(&json).unwrap();
    let tables = dt_simengine::Json::parse(&tables).expect("tables archive is valid JSON");
    assert!(tables.as_array().is_some_and(|t| t.len() == 1));
    std::fs::remove_dir_all(&dir).unwrap();
}

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = repro().args(args).output().unwrap();
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

#[test]
fn every_subcommand_rejects_flag_errors_naming_the_flag_and_its_valid_flags() {
    // (leading args, valid flags, a flag to leave valueless, an
    // unparsable flag value). The experiment path's flags all take paths,
    // so none of its values can fail to parse.
    type Case<'a> = (&'a [&'a str], &'a [&'a str], &'a str, Option<[&'a str; 2]>);
    let cases: [Case; 5] = [
        (
            &["zoo"],
            &["--trace", "--json", "--metrics"],
            "--json",
            None,
        ),
        (
            &["check"],
            &["--seeds", "--prop", "--seed", "--size"],
            "--seeds",
            Some(["--seeds", "many"]),
        ),
        (
            &["serve"],
            &["--addr", "--workers", "--queue"],
            "--workers",
            Some(["--queue", "deep"]),
        ),
        (
            &["preprocess"],
            &["--producers", "--consumers", "--batch", "--batches"],
            "--batches",
            Some(["--batch", "-1"]),
        ),
        (
            &["client"],
            &[
                "--addr",
                "--preset",
                "--nodes",
                "--batch",
                "--microbatch",
                "--seed",
                "--budget",
                "--deadline-ms",
                "--remaining",
                "--iters",
                "--retries",
                "--backoff-ms",
                "--jitter-seed",
                "--trace",
            ],
            "--addr",
            Some(["--nodes", "twelve"]),
        ),
    ];
    for (lead, valid, valueless, unparsable) in cases {
        let mut errors = vec![
            ([lead, &["--bogus", "1"]].concat(), "'--bogus'".to_string()),
            (
                [lead, &[valueless]].concat(),
                format!("{valueless} requires"),
            ),
        ];
        if let Some([flag, value]) = unparsable {
            errors.push(([lead, &[flag, value]].concat(), format!("for {flag}")));
        }
        for (args, named) in errors {
            let (code, _, stderr) = run(&args);
            assert_eq!(code, Some(2), "{args:?}\nstderr: {stderr}");
            assert!(
                stderr.contains(&named),
                "{args:?} must name {named}: {stderr}"
            );
            for flag in valid {
                assert!(stderr.contains(flag), "{args:?} must list {flag}: {stderr}");
            }
        }
    }
}

#[test]
fn subcommand_help_prints_its_usage_on_stdout_and_exits_0() {
    for args in [
        ["check", "--help"],
        ["serve", "--help"],
        ["preprocess", "-h"],
        ["client", "--help"],
    ] {
        let (code, stdout, stderr) = run(&args);
        assert_eq!(code, Some(0), "{args:?}\nstderr: {stderr}");
        let usage = format!("usage: repro {}", args[0]);
        assert!(stdout.starts_with(&usage), "{args:?} stdout: {stdout}");
        assert!(stderr.is_empty(), "{args:?} stderr: {stderr}");
    }
}

#[test]
fn stray_positional_exits_2_with_the_usage() {
    let (code, _, stderr) = run(&["check", "stray"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("unexpected argument 'stray'"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("usage: repro check"), "stderr: {stderr}");
}

#[test]
fn top_level_usage_names_every_subcommand() {
    for args in [["--help"], ["list"]] {
        let (code, stdout, _) = run(&args);
        assert_eq!(code, Some(0), "{args:?}");
        for sub in ["check", "serve", "client", "preprocess"] {
            assert!(
                stdout.contains(&format!("repro {sub} ")),
                "{args:?} usage must name {sub}: {stdout}"
            );
        }
        assert!(stdout.contains("repro <subcommand> --help"), "{stdout}");
        assert!(
            stdout.contains("\n  fig13\n"),
            "{args:?} must list experiments: {stdout}"
        );
    }
}

#[test]
fn usage_in_the_docs_matches_the_generated_usage() {
    let (code, stdout, _) = run(&["--help"]);
    assert_eq!(code, Some(0));
    let usage = stdout
        .split("\nexperiments:")
        .next()
        .expect("split yields a first part");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("../../README.md")).unwrap();
    assert!(readme.contains(usage), "README must show:\n{usage}");
    let module_doc: String = std::fs::read_to_string(root.join("src/bin/repro.rs"))
        .unwrap()
        .lines()
        .map_while(|l| l.strip_prefix("//!"))
        .map(|l| format!("{}\n", l.strip_prefix(' ').unwrap_or(l)))
        .collect();
    assert!(
        module_doc.contains(usage),
        "the repro.rs module doc must show:\n{usage}"
    );
}
