//! What the benchmark reads from the host: process CPU time, peak
//! resident memory, a fixed calibration loop, and the per-run scratch
//! directory every generated file lives under.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// `/proc/self/stat` counts CPU time in `USER_HZ` ticks, which Linux
/// fixes at 100 for every architecture this workspace builds on.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process, all threads (0 where
/// `/proc` is missing — the wall-clock metrics still work there).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else { return 0.0 };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || fields.next().and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks() + ticks()) / USER_HZ
}

/// Peak resident set size (`VmHWM`) in MB; 0 where `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nanoseconds for a fixed scalar loop (a dependent xorshift chain, two
/// million steps). It brackets every run as a witness of host speed; it
/// is reported and never used to rescale a result.
pub fn calib_ns() -> f64 {
    let start = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..2_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    start.elapsed().as_nanos() as f64
}

/// Where spill directories and generated files go: under the current
/// directory (the checkout — the benchmark writes nowhere else).
const SCRATCH_ROOT: &str = ".flbench_tmp";

/// Where a traced run leaves its span table.
pub const OUT_DIR: &str = ".flbench_out";

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// A scratch directory removed when the guard drops — on success, on an
/// error return, and on unwinding from a panic.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates a fresh, empty directory unique to this process and call.
    pub fn new(label: &str) -> Result<TempDir, String> {
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(SCRATCH_ROOT).join(format!("{}-{n}-{label}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("cannot create {path:?}: {e}"))?;
        Ok(TempDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best effort: Drop must not panic, and a leftover directory is
        // named in .gitignore.
        let _ = std::fs::remove_dir_all(&self.path);
        let _ = std::fs::remove_dir(SCRATCH_ROOT); // only succeeds once empty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dir_is_removed_on_drop_and_on_panic() {
        let kept = {
            let dir = TempDir::new("unit").unwrap();
            std::fs::write(dir.path().join("f"), b"x").unwrap();
            assert!(dir.path().is_dir());
            dir.path().to_path_buf()
        };
        assert!(!kept.exists());

        let leaked = std::sync::Mutex::new(PathBuf::new());
        let result = std::panic::catch_unwind(|| {
            let dir = TempDir::new("panic").unwrap();
            *leaked.lock().unwrap() = dir.path().to_path_buf();
            panic!("boom");
        });
        assert!(result.is_err());
        assert!(!leaked.lock().unwrap().exists());
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        let before = cpu_seconds();
        assert!(calib_ns() > 0.0);
        assert!(cpu_seconds() >= before);
        if Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 1.0);
        }
    }
}
