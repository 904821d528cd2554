//! Process and host facts the run record needs, and the build of the
//! `valmod` server binary the serve workloads drive.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Peak resident set size (`VmHWM`) of a process in MB (2^20 bytes):
/// `None` for this process.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable VmHWM line: {line}"))?;
    Ok(kb / 1024.0)
}

/// Milliseconds one fixed floating-point loop takes (median of five),
/// independent of the program's code. Recorded at the start and end of
/// each run: on a shared host it shows how fast the machine was while the
/// run measured, so runs can be compared with that in view.
pub fn host_probe_ms() -> f64 {
    let mut times = Vec::new();
    for _ in 0..5 {
        let t = std::time::Instant::now();
        let mut acc = 0.0f64;
        for i in 0..4_000_000u32 {
            acc = std::hint::black_box(acc.mul_add(0.999_999, f64::from(i & 1023)));
        }
        std::hint::black_box(acc);
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    crate::stats::median(&times)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the checkout was made from, when it is a git work tree.
pub fn commit(root: &Path) -> Option<String> {
    let out = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// A 64-bit FNV-1a digest over the program's sources (`crates/**` `.rs`
/// and `Cargo.toml` files, plus the root manifest and lock file), in path
/// order. It identifies the code a run measured when the checkout carries
/// no git metadata.
pub fn source_digest(root: &Path) -> String {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_sources(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f.strip_prefix(root).unwrap_or(&f).to_string_lossy().into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}

/// Builds the `valmod` CLI from the workspace at `root` (release profile,
/// offline) and returns the binary's path. Cargo's own output goes to
/// stderr so stdout stays the benchmark's. Honours `CARGO_TARGET_DIR`.
pub fn build_server(root: &Path) -> Result<PathBuf, String> {
    let manifest = root.join("Cargo.toml");
    if !manifest.is_file() || !root.join("crates/cli").is_dir() {
        return Err(format!("{} does not hold the valmod workspace", root.display()));
    }
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args(["build", "--release", "--offline", "--quiet", "-p", "valmod-cli", "--manifest-path"])
        .arg(&manifest)
        .stdout(Stdio::from(std::io::stderr()))
        .status()
        .map_err(|e| format!("spawn cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of valmod-cli failed: {status}"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let bin = target.join("release").join("valmod");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("built valmod binary not found at {}", bin.display()))
    }
}
