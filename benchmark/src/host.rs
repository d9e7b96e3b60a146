//! Host-side clocks and memory: process CPU time and peak resident set,
//! read from `/proc` (the benchmark is Linux-only, like the threaded
//! runtime's pacing it measures).

use std::fs;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the *last* `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// On-CPU nanoseconds (the first field) from the text of a `schedstat` file.
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// `VmHWM` (peak resident set) in kB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Linux reports `/proc/<pid>/stat` times in units of `USER_HZ`, which the
/// kernel ABI fixes at 100 regardless of the scheduler tick.
const USER_HZ: f64 = 100.0;

/// CPU seconds consumed so far by every live thread of this process.
///
/// Sums the nanosecond run times of `/proc/self/task/*/schedstat`; kernels
/// built without scheduler statistics fall back to the 10 ms ticks of
/// `/proc/self/stat`.  Either source is monotonic, and callers only ever
/// take differences around a section during which no thread exits.
pub fn cpu_seconds() -> f64 {
    let from_schedstat = fs::read_dir("/proc/self/task").ok().and_then(|tasks| {
        tasks
            .map(|task| {
                let text = fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
                parse_schedstat_ns(&text)
            })
            .sum::<Option<u64>>()
    });
    match from_schedstat {
        Some(ns) if ns > 0 => ns as f64 / 1e9,
        _ => {
            let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
            parse_stat_ticks(&stat).expect("/proc/self/stat has utime and stime") as f64 / USER_HZ
        }
    }
}

/// Peak resident set of this process so far, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_kb(&status).expect("/proc/self/status has VmHWM") as f64 * 1024.0 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ticks_survive_hostile_command_names() {
        let stat = "4242 (fs bench) (x)) R 1 4242 4242 0 -1 4194304 1520 0 0 0 \
                    137 21 0 0 20 0 4 0 123456 1000000 300 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some(137 + 21));
        assert_eq!(parse_stat_ticks("4242 (short) R 1 2 3"), None);
        assert_eq!(parse_stat_ticks("no parenthesis"), None);
    }

    #[test]
    fn schedstat_first_field_is_run_time() {
        assert_eq!(parse_schedstat_ns("207265 70182 1\n"), Some(207_265));
        assert_eq!(parse_schedstat_ns(""), None);
        assert_eq!(parse_schedstat_ns("x 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status =
            "Name:\tfs-benchmark\nVmPeak:\t  9000 kB\nVmHWM:\t    1840 kB\nVmRSS:\t 1700 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(1840));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds() >= before);
        assert!(peak_rss_mb() > 0.1);
    }
}
