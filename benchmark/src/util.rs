//! Small shared helpers: run configuration, I/O snapshot arithmetic,
//! medians, process figures, scratch directories.

use std::path::{Path, PathBuf};

use asr_pagesim::IoSnapshot;

/// One run's configuration, from the command line.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    pub traced: bool,
    /// Smoke mode: short windows and scripts, every check still on.
    pub quick: bool,
    /// The benchmark's own directory (holds `out/`).
    pub home: PathBuf,
}

impl Cfg {
    /// Operations at the head of the script over which page and byte
    /// counts are taken.  A fixed prefix, not the timed window, so the
    /// database state at operation *k* — and with it every count — is
    /// identical on every run and commit however fast the window ran.
    pub fn prefix_ops(&self) -> usize {
        if self.quick {
            300
        } else {
            1000
        }
    }

    /// Warm-up before the timed window, the prefix included.
    pub fn warmup_s(&self) -> f64 {
        if self.quick {
            0.2
        } else {
            1.0
        }
    }

    /// Set-ups per run; `setup_s` is their median.
    pub fn setups(&self) -> usize {
        if self.quick {
            2
        } else {
            9
        }
    }

    pub fn out_dir(&self) -> PathBuf {
        self.home.join("out")
    }

    pub fn trace_path(&self) -> PathBuf {
        self.out_dir()
            .join(format!("trace-{}.jsonl", self.workload))
    }

    /// A directory name under `out/` private to this process (created by
    /// whoever opens storage in it, removed by [`Cfg::clean_scratch`]).
    pub fn scratch(&self, name: &str) -> PathBuf {
        self.out_dir()
            .join(format!("tmp-{}-{name}", std::process::id()))
    }

    /// Remove every scratch directory this process made.
    pub fn clean_scratch(&self) {
        let mine = format!("tmp-{}-", std::process::id());
        let Ok(entries) = std::fs::read_dir(self.out_dir()) else {
            return;
        };
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with(&mine) {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
}

pub fn io_diff(after: &IoSnapshot, before: &IoSnapshot) -> IoSnapshot {
    IoSnapshot {
        reads: after.reads - before.reads,
        writes: after.writes - before.writes,
        buffer_hits: after.buffer_hits - before.buffer_hits,
        batch_probes: after.batch_probes - before.batch_probes,
        batch_pages_saved: after.batch_pages_saved - before.batch_pages_saved,
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `a / b`, 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}
