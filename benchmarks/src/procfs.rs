//! What `/proc` says about this process and this host.

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. Linux
/// fixes it at 100 for every architecture it exports `/proc` on.
const TICKS_PER_S: f64 = 100.0;

/// `VmHWM` (peak resident set) in KiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `utime + stime` in seconds from the text of `/proc/<pid>/stat`. The
/// second field (`comm`) may itself hold spaces and parentheses, so the
/// numbered fields are counted from the last `)`.
pub fn parse_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// Peak resident set of this process in MiB (0 when `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// User + system CPU seconds this process (all threads) has used.
pub fn cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_s(&s))
        .unwrap_or(0.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_found_among_other_lines() {
        let status = "Name:\tdws\nVmPeak:\t  9000 kB\nVmHWM:\t  233472 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(233_472));
        assert_eq!(parse_vm_hwm_kb("Name:\tdws\n"), None);
    }

    #[test]
    fn cpu_time_survives_a_hostile_comm_field() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt
        // cminflt majflt cmajflt utime stime ...
        let stat = "42 (a b) c)) R 1 42 42 0 -1 4194304 100 0 0 0 437 63 0 0 20 0 2 0 1 2 3";
        assert_eq!(parse_cpu_s(stat), Some(5.0));
        assert_eq!(parse_cpu_s("42 (x) R 1 2"), None);
        assert_eq!(parse_cpu_s("no parenthesis"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(nproc() >= 1);
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(peak_rss_mb() > 0.0);
            assert!(cpu_s() >= 0.0);
        }
    }
}
