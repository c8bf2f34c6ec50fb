//! Host fingerprint and provenance recorded with every run.

use std::path::Path;

use serde::Serialize;

/// Core count, CPU model, kernel, compiler, source commit and the
/// thread override in force.
#[derive(Debug, Clone, Serialize)]
pub struct Fingerprint {
    nproc: usize,
    cpu: String,
    kernel: String,
    rustc: String,
    commit: String,
    gmlfm_threads: Option<String>,
}

/// Reads the fingerprint of this host and checkout.
pub fn fingerprint() -> Fingerprint {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |k| k.trim().to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    Fingerprint {
        nproc: std::thread::available_parallelism().map_or(0, usize::from),
        cpu,
        kernel,
        rustc,
        commit: commit(Path::new(".")),
        gmlfm_threads: std::env::var(gmlfm_par::THREADS_ENV).ok(),
    }
}

/// The checked-out commit when run from a git work tree, else `none`.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map_or_else(|_| reference.to_string(), |c| c.trim().to_string()),
        None => head.to_string(),
    }
}
