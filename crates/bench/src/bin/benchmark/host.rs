//! What the benchmark records about the host it ran on.

use crate::json::Json;
use std::path::PathBuf;
use std::process::Command;

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads for a workload that asks for `wanted`: never more than
/// the host has cores.
pub fn clamp_threads(wanted: u32) -> u32 {
    wanted.min(nproc() as u32).max(1)
}

/// Peak resident set size of this process in MB (`VmHWM`); `None` where
/// `/proc` does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Where the benchmark writes its files: `$CARGO_TARGET_DIR/benchmark`, or
/// `target/benchmark` under the working directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()))
        .join("benchmark")
}

/// Writes `contents` to `name` under [`out_dir`]; a failure is reported,
/// not fatal (the numbers were already printed).
pub fn write_file(name: &str, contents: &str) {
    let dir = out_dir();
    let path = dir.join(name);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, contents)) {
        Ok(()) => println!("(written to {})", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// First line of a command's standard output, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host and build facts every result file carries.
pub fn provenance() -> Json {
    Json::obj([
        ("nproc", Json::Int(nproc() as u64)),
        ("rustc", Json::str(first_line_of("rustc", &["--version"]))),
        (
            "commit",
            Json::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("os", Json::str(std::env::consts::OS)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_in_kilobytes() {
        let status = "Name:\tbenchmark\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(204800.0));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn threads_are_clamped_to_the_host() {
        assert_eq!(clamp_threads(1), 1);
        assert!(clamp_threads(1024) as usize <= nproc());
    }
}
