//! End-to-end tests of the `valmod` binary: generate → discover → sets →
//! discords → mp → profiles → join, plus error handling.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn bin() -> PathBuf {
    // CARGO_BIN_EXE_<name> is set by cargo for integration tests of a crate
    // with that binary target.
    PathBuf::from(env!("CARGO_BIN_EXE_valmod"))
}

fn run(args: &[&str]) -> Output {
    Command::new(bin()).args(args).output().expect("binary runs")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("valmod_cli_test_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn generate_then_discover_pipeline() {
    let dir = tmp_dir("pipeline");
    let data = dir.join("ecg.csv");
    let gen = run(&[
        "generate",
        "--dataset",
        "ecg",
        "--n",
        "1500",
        "--seed",
        "3",
        "--output",
        data.to_str().unwrap(),
    ]);
    assert!(gen.status.success(), "{}", stderr(&gen));
    assert!(stdout(&gen).contains("wrote 1500 points"));

    let disc = run(&[
        "discover",
        "--input",
        data.to_str().unwrap(),
        "--min",
        "32",
        "--max",
        "40",
        "--p",
        "8",
        "--top",
        "3",
    ]);
    assert!(disc.status.success(), "{}", stderr(&disc));
    let out = stdout(&disc);
    assert!(out.contains("variable-length motifs"), "{out}");
    assert!(out.contains("#1"), "{out}");

    let csv = run(&[
        "discover",
        "--input",
        data.to_str().unwrap(),
        "--min",
        "32",
        "--max",
        "36",
        "--csv",
    ]);
    assert!(csv.status.success());
    assert!(stdout(&csv).starts_with("rank,offset_a,offset_b,length,dist,norm_dist"));
}

#[test]
fn sets_and_discords_run() {
    let dir = tmp_dir("sets");
    let data = dir.join("gap.csv");
    assert!(run(&[
        "generate",
        "--dataset",
        "gap",
        "--n",
        "1500",
        "--output",
        data.to_str().unwrap()
    ])
    .status
    .success());
    let sets = run(&[
        "sets",
        "--input",
        data.to_str().unwrap(),
        "--min",
        "32",
        "--max",
        "38",
        "--k",
        "3",
        "--radius",
        "3.0",
    ]);
    assert!(sets.status.success(), "{}", stderr(&sets));
    assert!(stdout(&sets).contains("motif sets"));

    let discords = run(&[
        "discords",
        "--input",
        data.to_str().unwrap(),
        "--min",
        "32",
        "--max",
        "38",
        "--top",
        "2",
    ]);
    assert!(discords.status.success(), "{}", stderr(&discords));
    assert!(stdout(&discords).contains("variable-length discords"));
}

#[test]
fn a_reader_closing_the_pipe_early_ends_the_command_quietly() {
    let dir = tmp_dir("pipe");
    let data = dir.join("ecg.csv");
    let gen =
        run(&["generate", "--dataset", "ecg", "--n", "4000", "--output", data.to_str().unwrap()]);
    assert!(gen.status.success(), "{}", stderr(&gen));
    // `valmod mp … | head -0`: the read end is closed before the first
    // line is written, so every write hits a broken pipe.
    let mut child = Command::new(bin())
        .args(["mp", "--input", data.to_str().unwrap(), "--length", "50"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "exit {:?}: {}", out.status.code(), stderr(&out));
    assert!(stderr(&out).is_empty(), "no panic, no noise: {}", stderr(&out));
}

#[test]
fn mp_and_profiles_write_csv() {
    let dir = tmp_dir("mp");
    let data = dir.join("astro.bin");
    assert!(run(&[
        "generate",
        "--dataset",
        "astro",
        "--n",
        "1200",
        "--output",
        data.to_str().unwrap()
    ])
    .status
    .success());
    let mp_out = dir.join("profile.csv");
    let mp = run(&[
        "mp",
        "--input",
        data.to_str().unwrap(),
        "--length",
        "48",
        "--output",
        mp_out.to_str().unwrap(),
    ]);
    assert!(mp.status.success(), "{}", stderr(&mp));
    let content = std::fs::read_to_string(&mp_out).unwrap();
    assert!(content.starts_with("offset,nn_dist,nn_offset"));
    assert_eq!(content.lines().count(), 1200 - 48 + 1 + 1);

    let profs_dir = dir.join("profiles");
    let profs = run(&[
        "profiles",
        "--input",
        data.to_str().unwrap(),
        "--min",
        "40",
        "--max",
        "44",
        "--p",
        "5",
        "--output",
        profs_dir.to_str().unwrap(),
    ]);
    assert!(profs.status.success(), "{}", stderr(&profs));
    for l in 40..=44 {
        assert!(profs_dir.join(format!("mp_{l}.csv")).exists(), "missing mp_{l}.csv");
    }
}

#[test]
fn join_finds_cross_series_match() {
    let dir = tmp_dir("join");
    let a = dir.join("a.csv");
    let b = dir.join("b.csv");
    // Same generator/seed → identical series → perfect cross matches.
    for path in [&a, &b] {
        assert!(run(&[
            "generate",
            "--dataset",
            "eeg",
            "--n",
            "800",
            "--seed",
            "9",
            "--output",
            path.to_str().unwrap()
        ])
        .status
        .success());
    }
    let join = run(&[
        "join",
        "--input",
        a.to_str().unwrap(),
        "--other",
        b.to_str().unwrap(),
        "--length",
        "32",
        "--top",
        "2",
    ]);
    assert!(join.status.success(), "{}", stderr(&join));
    let out = stdout(&join);
    assert!(out.contains("cross-series matches"), "{out}");
    assert!(out.contains("dist    0.0000") || out.contains("0.000"), "{out}");
}

#[test]
fn helpful_errors_for_bad_usage() {
    let none = run(&[]);
    assert!(!none.status.success());
    assert!(stderr(&none).contains("USAGE"));

    let unknown = run(&["frobnicate"]);
    assert!(!unknown.status.success());
    assert!(stderr(&unknown).contains("unknown subcommand"));

    let typo = run(&["discover", "--imput", "x.csv", "--min", "8", "--max", "9"]);
    assert!(!typo.status.success());
    assert!(stderr(&typo).contains("unknown option --imput"));

    let missing = run(&["discover", "--min", "8", "--max", "9"]);
    assert!(!missing.status.success());
    assert!(stderr(&missing).contains("--input"));

    let no_file =
        run(&["discover", "--input", "/definitely/not/here.csv", "--min", "8", "--max", "9"]);
    assert!(!no_file.status.success());
}

#[test]
fn hint_suggests_the_heartbeat_band() {
    let dir = tmp_dir("hint");
    let data = dir.join("ecg.csv");
    assert!(run(&[
        "generate",
        "--dataset",
        "ecg",
        "--n",
        "4000",
        "--output",
        data.to_str().unwrap()
    ])
    .status
    .success());
    let hint =
        run(&["hint", "--input", data.to_str().unwrap(), "--top", "2", "--min-period", "16"]);
    assert!(hint.status.success(), "{}", stderr(&hint));
    let out = stdout(&hint);
    assert!(out.contains("suggested motif-length ranges"), "{out}");
    assert!(out.contains("--min"), "{out}");
}

#[test]
fn sets_with_k_zero_reports_an_error_not_a_panic() {
    let dir = tmp_dir("k_zero");
    let data = dir.join("gap.csv");
    assert!(run(&[
        "generate",
        "--dataset",
        "gap",
        "--n",
        "800",
        "--output",
        data.to_str().unwrap()
    ])
    .status
    .success());
    let out =
        run(&["sets", "--input", data.to_str().unwrap(), "--min", "32", "--max", "36", "--k", "0"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("pair tracking"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn profiles_with_a_bad_range_or_p_reports_an_error_not_a_panic() {
    let dir = tmp_dir("profiles_bad");
    let data = dir.join("emg.csv");
    assert!(run(&[
        "generate",
        "--dataset",
        "emg",
        "--n",
        "400",
        "--output",
        data.to_str().unwrap()
    ])
    .status
    .success());
    let out_dir = dir.join("out");
    for bad in
        [["--min", "72", "--max", "64", "--p", "5"], ["--min", "32", "--max", "36", "--p", "0"]]
    {
        let mut args = vec!["profiles", "--input", data.to_str().unwrap()];
        args.extend(bad);
        args.extend(["--output", out_dir.to_str().unwrap()]);
        let out = run(&args);
        assert!(!out.status.success(), "{bad:?}");
        let err = stderr(&out);
        assert!(err.contains("invalid parameter"), "{bad:?}: {err}");
        assert!(!err.contains("panicked"), "{bad:?}: {err}");
    }
}

#[test]
fn serve_and_query_round_trip() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let dir = tmp_dir("serve");
    let data = dir.join("ecg.csv");
    assert!(run(&[
        "generate",
        "--dataset",
        "ecg",
        "--n",
        "1200",
        "--seed",
        "5",
        "--output",
        data.to_str().unwrap()
    ])
    .status
    .success());

    // Spawn the server on an ephemeral port and parse the announced addr.
    let mut server = Command::new(bin())
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("server spawns");
    let mut lines = BufReader::new(server.stdout.take().unwrap()).lines();
    let banner = lines.next().expect("server announces its address").unwrap();
    let addr = banner.strip_prefix("listening on ").expect("banner format").to_string();

    let query = |args: &[&str]| {
        let mut full = vec!["query", "--addr", addr.as_str()];
        full.extend_from_slice(args);
        run(&full)
    };

    let loaded = query(&["--cmd", "load", "--name", "ecg", "--input", data.to_str().unwrap()]);
    assert!(loaded.status.success(), "{}", stderr(&loaded));
    assert!(stdout(&loaded).contains("version 1, 1200 points"));

    let cold =
        query(&["--cmd", "motifs", "--name", "ecg", "--min", "32", "--max", "36", "--p", "5"]);
    assert!(cold.status.success(), "{}", stderr(&cold));
    assert!(stdout(&cold).contains("cached: false"), "{}", stdout(&cold));

    let warm =
        query(&["--cmd", "motifs", "--name", "ecg", "--min", "32", "--max", "36", "--p", "5"]);
    assert!(warm.status.success(), "{}", stderr(&warm));
    assert!(stdout(&warm).contains("cached: true"), "{}", stdout(&warm));

    let stats = query(&["--cmd", "stats"]);
    assert!(stats.status.success());
    assert!(stdout(&stats).contains("\"hits\""), "{}", stdout(&stats));

    let shutdown = query(&["--cmd", "shutdown"]);
    assert!(shutdown.status.success(), "{}", stderr(&shutdown));
    let status = server.wait().expect("server exits");
    assert!(status.success(), "server should exit cleanly after shutdown");
}

#[test]
fn serve_runs_with_zero_cache_budgets() {
    // Regression: `--cache-mb 0` / `--fragment-cache-mb 0` must mean
    // "disabled" — every query recomputes, nothing evict-loops, appends
    // and repeat queries keep working.
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let dir = tmp_dir("serve_zero");
    let data = dir.join("ecg.csv");
    assert!(run(&[
        "generate",
        "--dataset",
        "ecg",
        "--n",
        "600",
        "--seed",
        "11",
        "--output",
        data.to_str().unwrap()
    ])
    .status
    .success());

    let mut server = Command::new(bin())
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--cache-mb",
            "0",
            "--fragment-cache-mb",
            "0",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("server spawns");
    let mut lines = BufReader::new(server.stdout.take().unwrap()).lines();
    let banner = lines.next().expect("server announces its address").unwrap();
    let addr = banner.strip_prefix("listening on ").expect("banner format").to_string();

    let query = |args: &[&str]| {
        let mut full = vec!["query", "--addr", addr.as_str()];
        full.extend_from_slice(args);
        run(&full)
    };

    let loaded = query(&["--cmd", "load", "--name", "w", "--input", data.to_str().unwrap()]);
    assert!(loaded.status.success(), "{}", stderr(&loaded));

    for _ in 0..2 {
        let out = query(&["--cmd", "motifs", "--name", "w", "--min", "24", "--max", "28"]);
        assert!(out.status.success(), "{}", stderr(&out));
        assert!(
            stdout(&out).contains("cached: false"),
            "zero budget must never serve a cached result: {}",
            stdout(&out)
        );
    }

    let stats = query(&["--cmd", "stats"]);
    assert!(stats.status.success());
    let raw = stdout(&stats);
    assert!(raw.contains("\"used_bytes\":0"), "disabled caches must hold nothing: {raw}");

    let shutdown = query(&["--cmd", "shutdown"]);
    assert!(shutdown.status.success(), "{}", stderr(&shutdown));
    assert!(server.wait().expect("server exits").success());
}

#[test]
fn serve_survives_a_hard_kill_with_data_dir() {
    use std::io::{BufRead, BufReader};
    use std::process::{Child, Stdio};

    let dir = tmp_dir("crash_restart");
    let data_dir = dir.join("store");
    let base = dir.join("base.csv");
    let extra_a = dir.join("extra_a.csv");
    let extra_b = dir.join("extra_b.csv");
    for (path, n, seed) in [(&base, "1000", "7"), (&extra_a, "80", "8"), (&extra_b, "60", "9")] {
        assert!(run(&[
            "generate",
            "--dataset",
            "ecg",
            "--n",
            n,
            "--seed",
            seed,
            "--output",
            path.to_str().unwrap()
        ])
        .status
        .success());
    }

    // Keeps the stdout pipe open for the server's lifetime — dropping it
    // would turn the server's own status prints into broken-pipe panics.
    type ServerLines = std::io::Lines<BufReader<std::process::ChildStdout>>;
    let spawn_server = || -> (Child, String, ServerLines) {
        let mut server = Command::new(bin())
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--data-dir",
                data_dir.to_str().unwrap(),
            ])
            .stdout(Stdio::piped())
            .spawn()
            .expect("server spawns");
        let mut lines = BufReader::new(server.stdout.take().unwrap()).lines();
        let banner = lines.next().expect("server announces its address").unwrap();
        let addr = banner.strip_prefix("listening on ").expect("banner format").to_string();
        (server, addr, lines)
    };
    // The query payload line carries a per-run "compute_ms"; only the
    // trailing "body" is expected to be stable across the restart.
    let body_of = |out: &str| -> String {
        let line = out.lines().find(|l| l.starts_with('{')).expect("payload line");
        let at = line.find("\"body\":").expect("payload has a body");
        line[at..].to_string()
    };

    // Generation 1: LOAD + two APPENDs (acknowledged → fsynced in the WAL),
    // one variable-length query for the reference answer... then SIGKILL.
    let (mut server, addr, _gen1_lines) = spawn_server();
    let query = |addr: &str, args: &[&str]| {
        let mut full = vec!["query", "--addr", addr];
        full.extend_from_slice(args);
        run(&full)
    };
    let loaded =
        query(&addr, &["--cmd", "load", "--name", "ecg", "--input", base.to_str().unwrap()]);
    assert!(loaded.status.success(), "{}", stderr(&loaded));
    for extra in [&extra_a, &extra_b] {
        let appended =
            query(&addr, &["--cmd", "append", "--name", "ecg", "--input", extra.to_str().unwrap()]);
        assert!(appended.status.success(), "{}", stderr(&appended));
    }
    let before = query(&addr, &["--cmd", "motifs", "--name", "ecg", "--min", "24", "--max", "36"]);
    assert!(before.status.success(), "{}", stderr(&before));
    server.kill().expect("hard kill");
    server.wait().expect("killed server reaped");

    // Generation 2: the appends were never snapshotted, so startup replays
    // them from the WAL — version, length, and query body all come back.
    let (mut server, addr, _gen2_lines) = spawn_server();
    let stats = query(&addr, &["--cmd", "stats"]);
    assert!(stats.status.success(), "{}", stderr(&stats));
    let stats_out = stdout(&stats);
    assert!(stats_out.contains("\"version\":3"), "{stats_out}");
    assert!(stats_out.contains("\"len\":1140"), "{stats_out}");
    let after = query(&addr, &["--cmd", "motifs", "--name", "ecg", "--min", "24", "--max", "36"]);
    assert!(after.status.success(), "{}", stderr(&after));
    assert_eq!(
        body_of(&stdout(&after)),
        body_of(&stdout(&before)),
        "recovered store must answer queries identically"
    );
    let shutdown = query(&addr, &["--cmd", "shutdown"]);
    assert!(shutdown.status.success(), "{}", stderr(&shutdown));
    assert!(server.wait().expect("server exits").success());
}

#[test]
fn cluster_run_matches_local_and_survives_a_worker_kill() {
    use std::io::{BufRead, BufReader};
    use std::process::{Child, Stdio};

    let dir = tmp_dir("cluster");
    let data = dir.join("ecg.csv");
    assert!(run(&[
        "generate",
        "--dataset",
        "ecg",
        "--n",
        "1600",
        "--seed",
        "21",
        "--output",
        data.to_str().unwrap()
    ])
    .status
    .success());

    let spawn_worker = || -> (Child, String) {
        let mut worker = Command::new(bin())
            .args(["cluster-worker", "--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("worker spawns");
        let mut lines = BufReader::new(worker.stdout.take().unwrap()).lines();
        let banner = lines.next().expect("worker announces its address").unwrap();
        let addr = banner.strip_prefix("listening on ").expect("banner format").to_string();
        (worker, addr)
    };
    let job = |extra: &[&str]| -> Vec<String> {
        ["cluster-run", "--input", data.to_str().unwrap(), "--min", "32", "--max", "40", "--json"]
            .iter()
            .copied()
            .chain(extra.iter().copied())
            .map(String::from)
            .collect()
    };
    let run_job = |extra: &[&str]| -> Output {
        Command::new(bin()).args(job(extra)).output().expect("binary runs")
    };

    // The in-process reference body every distributed run must match
    // byte for byte (partition shape provably does not change the bits).
    let local = run_job(&["--local"]);
    assert!(local.status.success(), "{}", stderr(&local));
    let reference = stdout(&local);
    assert!(reference.starts_with('{'), "{reference}");

    // Healthy pool of two real worker processes.
    let (mut w1, addr1) = spawn_worker();
    let (mut w2, addr2) = spawn_worker();
    let pool = format!("{addr1},{addr2}");
    let healthy = run_job(&["--workers", &pool, "--parts", "6"]);
    assert!(healthy.status.success(), "{}", stderr(&healthy));
    assert_eq!(stdout(&healthy), reference, "distributed body must equal the local body");

    // Same pool, but worker 1 is SIGKILLed shortly after dispatch begins:
    // its shards must be redispatched to worker 2 and the job still
    // completes with the identical body.
    let coordinator = Command::new(bin())
        .args(job(&["--workers", &pool, "--parts", "6", "--timeout-ms", "5000"]))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("coordinator spawns");
    std::thread::sleep(std::time::Duration::from_millis(150));
    w1.kill().expect("hard kill");
    w1.wait().expect("killed worker reaped");
    let survived = coordinator.wait_with_output().expect("coordinator exits");
    assert!(survived.status.success(), "{}", String::from_utf8_lossy(&survived.stderr));
    assert_eq!(
        String::from_utf8_lossy(&survived.stdout),
        reference,
        "job must complete bit-identically with one worker killed mid-job"
    );

    w2.kill().expect("worker 2 stops");
    w2.wait().expect("worker 2 reaped");
}

#[test]
fn help_prints_usage() {
    let help = run(&["help"]);
    assert!(help.status.success());
    assert!(stdout(&help).contains("USAGE"));
}

#[test]
fn check_subcommand_runs_a_tiny_clean_sweep() {
    // A scaled-down `valmod check`: a handful of cases, fault matrix on —
    // enough to prove the wiring end to end without repeating the CI smoke.
    let out = run(&["check", "--seed", "42", "--cases", "10", "--probes", "8"]);
    // `valmod check` reports divergences on stdout, so a failure shows all.
    assert!(
        out.status.success(),
        "{}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status,
        stdout(&out),
        stderr(&out)
    );
    let text = stdout(&out);
    assert!(text.contains("differential: 10 cases"), "{text}");
    assert!(text.contains("verdict: CLEAN"), "{text}");
    assert!(text.contains("faults:"), "{text}");
}

#[test]
fn check_subcommand_rejects_unknown_flags() {
    let out = run(&["check", "--bogus", "1"]);
    assert!(!out.status.success());
}
