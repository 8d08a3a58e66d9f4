//! The environment record every result carries, and the `/proc` counters
//! the end-to-end metrics read.

use std::path::Path;

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Reset `VmHWM` to the current resident set, so the next
/// [`peak_rss_mb`] is the peak since now. Where the kernel refuses, the
/// peak keeps counting from the start of the process.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

/// Bytes this process has passed to `write`-family calls (`wchar`):
/// files and sockets alike.
pub fn wchar() -> f64 {
    proc_field("/proc/self/io", "wchar:").unwrap_or(0.0)
}

fn proc_field(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// `key=value` pairs describing where and on what a run measured.
pub fn record(seed: u64, workload: &str, fsync: &str, data_dir: &Path) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    vec![
        ("workload".into(), workload.into()),
        ("seed".into(), seed.to_string()),
        ("nproc".into(), nproc.to_string()),
        (
            "kernels".into(),
            tkd_bitvec::kernels::dispatch_name().into(),
        ),
        ("data_dir_fs".into(), filesystem_of(data_dir)),
        ("fsync".into(), fsync.into()),
        ("commit".into(), commit()),
        (
            "latency_note".into(),
            "loopback latencies of this host, not of a device".into(),
        ),
    ]
}

/// Filesystem type of the longest mount point containing `dir`.
fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(dash)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(dash + 1) else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The checked-out commit when the working directory is a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}
