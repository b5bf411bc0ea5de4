//! `/proc/self/{stat,status}` readers: memory, thread count and CPU time of this
//! process, taken from outside the runtime.

use std::fs;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/self/stat`. 100 on every Linux
/// ABI this benchmark runs on; there is no libc binding here to ask `sysconf`.
const TICKS_PER_SEC: f64 = 100.0;

/// Value in KiB of a `Name:   123 kB` line of `/proc/self/status`.
pub fn parse_status_kib(status: &str, field: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?;
    rest.split_whitespace().next()?.parse().ok()
}

/// The `Threads:` line of `/proc/self/status`.
pub fn parse_status_threads(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("Threads:"))?;
    rest.trim().parse().ok()
}

/// `utime + stime` of `/proc/self/stat` in clock ticks. The command name (field 2)
/// may hold spaces and parentheses, so fields are counted after the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_whitespace();
    // After `)`: state(3) ... utime is field 14, stime field 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

fn status() -> String {
    fs::read_to_string("/proc/self/status").unwrap_or_default()
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    parse_status_kib(&status(), "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Live threads of this process.
pub fn threads() -> u64 {
    parse_status_threads(&status()).unwrap_or(0)
}

/// CPU seconds (user + system) this process has used so far.
pub fn cpu_secs() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_stat_cpu_ticks(&stat).unwrap_or(0) as f64 / TICKS_PER_SEC
}

/// Kernel release string, for the host record of every output.
pub fn kernel_release() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\te2e\nUmask:\t0022\nVmPeak:\t  204800 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   40000 kB\nThreads:\t1003\n";

    #[test]
    fn status_fields_parse() {
        assert_eq!(parse_status_kib(STATUS, "VmHWM"), Some(51234));
        assert_eq!(parse_status_kib(STATUS, "VmRSS"), Some(40000));
        assert_eq!(parse_status_kib(STATUS, "VmSwap"), None);
        // A prefix of another field's name must not match it.
        assert_eq!(parse_status_kib(STATUS, "Vm"), None);
        assert_eq!(parse_status_threads(STATUS), Some(1003));
        assert_eq!(parse_status_threads("Name:\tx\n"), None);
    }

    #[test]
    fn stat_cpu_ticks_skip_a_hostile_command_name() {
        let stat =
            "4242 (e2e) x) R 1 4242 4242 0 -1 4194304 900 0 0 0 37 5 0 0 20 0 3 0 100 1000 200";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(42));
        assert_eq!(parse_stat_cpu_ticks("no paren"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn live_readers_see_this_process() {
        assert!(peak_rss_mib() > 0.0);
        assert!(threads() >= 1);
        assert!(!kernel_release().is_empty());
    }
}
