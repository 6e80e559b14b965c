//! The host record printed beside every result, and process memory.

use std::path::Path;

/// Facts about the machine and build a result depends on.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub aes_backend: String,
    pub cpu_features: String,
    pub commit: String,
}

impl Host {
    pub fn probe() -> Self {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            // Runtime detection, never forced: the benchmark measures the
            // backend a default-constructed memory picks on this host.
            aes_backend: morphtree_crypto::aes::selected_backend()
                .as_str()
                .to_owned(),
            cpu_features: morphtree_crypto::aes::cpu_features(),
            commit: commit(),
        }
    }

    pub fn line(&self, workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
        format!(
            "host: nproc={} cpu=\"{}\" aes_backend={} cpu_features={} commit={} workload={workload} seed={seed} seconds={seconds} trace={}",
            self.nproc,
            self.cpu_model,
            self.aes_backend,
            self.cpu_features,
            self.commit,
            u8::from(trace),
        )
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit under test: `WLBENCH_COMMIT` if set, else read from a
/// `.git` directory in the working directory, else `unknown` (an
/// exported source tree has no history).
fn commit() -> String {
    if let Ok(c) = std::env::var("WLBENCH_COMMIT") {
        return c;
    }
    let git = Path::new(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head.to_owned(),
    };
    match resolved.trim() {
        "" => "unknown".to_owned(),
        c => c.to_owned(),
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
