//! Host fingerprint and process memory.
//!
//! Every result carries the fingerprint. Timed metrics compare only
//! between results whose host part (`nproc`, CPU model, rustc version,
//! cargo features) is identical; the commit is recorded but is what a
//! comparison varies, so it is not part of the match.

use std::path::Path;

/// Where and how a result was produced.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// The rustc that compiled the workspace crates.
    pub rustc: String,
    /// Cargo features of the measured build.
    pub features: String,
    /// The checkout's commit, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this process and the checkout rooted at
    /// the current directory.
    pub fn detect() -> Fingerprint {
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = match owp_engine::forensics::RUSTC_VERSION {
            "" => "unknown".to_string(),
            v => v.to_string(),
        };
        // The manifest asks for every workspace crate with its default
        // features (no `parallel`, no `telemetry`).
        let features = "default".to_string();
        Fingerprint {
            nproc,
            cpu_model,
            rustc,
            features,
            commit: git_commit(Path::new(".git")),
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"features\":{},\"commit\":{}}}",
            self.nproc,
            crate::json_str(&self.cpu_model),
            crate::json_str(&self.rustc),
            crate::json_str(&self.features),
            crate::json_str(&self.commit)
        )
    }
}

/// Resolves `HEAD` by reading the git directory (no `git` process).
fn git_commit(git_dir: &Path) -> String {
    let head = match std::fs::read_to_string(git_dir.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(git_dir.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git_dir.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.split_once(' ')
                    .filter(|(_, r)| *r == reference)
                    .map(|(id, _)| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}
