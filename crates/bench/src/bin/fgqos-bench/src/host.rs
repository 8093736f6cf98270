//! What the benchmark reads from the host: its own CPU time and peak memory
//! (`/proc/self`), and the stamp that says where a result file came from.

use std::process::Command;

/// `USER_HZ`: the unit of the `utime`/`stime` fields of `/proc/self/stat`.
/// Linux fixes it at 100 for user space on every architecture it supports.
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system) this process has used so far, all threads,
/// exited ones included. 0 where `/proc` is not available.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // The second field is the command in parentheses and may hold spaces;
    // the numbered fields resume after the last ')'. utime and stime are
    // fields 14 and 15, i.e. the 12th and 13th after the command.
    let Some((_, rest)) = stat.rsplit_once(')') else { return 0.0 };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || fields.next().and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks() + ticks()) / USER_HZ
}

/// Peak resident set size of this process in MiB (`VmHWM`); 0 where `/proc`
/// is not available.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host threads the program's own fan-out may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The value of `key` in the `[profile.release]` table of this package's
/// manifest, as written there.
fn release_profile(key: &str) -> String {
    const MANIFEST: &str = include_str!("../Cargo.toml");
    MANIFEST
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .find_map(|l| {
            let (k, v) = l.split_once('=')?;
            (k.trim() == key).then(|| v.trim().trim_matches('"').to_string())
        })
        .unwrap_or_else(|| "default".to_string())
}

/// Where and how a result file was produced, as `(key, value)` strings.
pub fn stamp() -> Vec<(&'static str, String)> {
    vec![
        ("host.nproc", nproc().to_string()),
        ("host.cpu_model", cpu_model()),
        ("rustc", command_line("rustc", &["-V"])),
        ("git.commit", command_line("git", &["rev-parse", "HEAD"])),
        ("profile.lto", release_profile("lto")),
        ("profile.codegen_units", release_profile("codegen-units")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.02 {
            x = std::hint::black_box(x + 1);
        }
        assert!(peak_rss_mib() > 0.5);
        assert!(nproc() >= 1);
    }

    #[test]
    fn stamp_reads_the_release_profile_of_this_manifest() {
        assert_eq!(release_profile("lto"), "thin");
        assert_eq!(release_profile("codegen-units"), "1");
        assert_eq!(release_profile("no-such-key"), "default");
    }
}
