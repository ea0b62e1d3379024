//! What the machine and this process looked like during a run: the per-run
//! record that tells a noisy neighbour apart from a regression.

use std::fs;
use std::path::Path;

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

fn status_kb(key: &str) -> Option<u64> {
    let s = fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// This thread's scheduler counters: (on-CPU ns, runqueue-wait ns,
/// timeslices), from `/proc/thread-self/schedstat`. Zeros where the kernel
/// does not provide them.
pub fn schedstat() -> (u64, u64, u64) {
    let s = fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut it = s.split_whitespace().map(|f| f.parse::<u64>().unwrap_or(0));
    (
        it.next().unwrap_or(0),
        it.next().unwrap_or(0),
        it.next().unwrap_or(0),
    )
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The commit the checkout was made from, when it is a git work tree;
/// `"none"` otherwise.
pub fn commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "none".into()),
        None if !head.is_empty() => head.to_string(),
        None => "none".into(),
    }
}

/// FNV-1a over the program's sources (every file under `crates/`, in path
/// order, plus `Cargo.lock`): identifies the measured code even where the
/// checkout carries no git metadata.
pub fn source_fingerprint() -> u64 {
    let mut files = Vec::new();
    collect_files(Path::new("crates"), &mut files);
    files.push(Path::new("Cargo.lock").to_path_buf());
    files.sort();
    let mut h = Fnv::new();
    for f in files {
        h.bytes(f.to_string_lossy().as_bytes());
        h.bytes(&fs::read(&f).unwrap_or_default());
    }
    h.0
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_files(&p, out);
        } else {
            out.push(p);
        }
    }
}

/// 64-bit FNV-1a, the hash every fingerprint in the benchmark uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Fnv {
    /// The FNV offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold in raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Fold in one integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}
