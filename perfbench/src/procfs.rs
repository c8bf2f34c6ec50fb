//! Process resource gauges from `/proc/self` (Linux; zeros elsewhere).

use serde::Serialize;

/// One reading of the process gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Gauges {
    /// Live threads.
    pub threads: u64,
    /// Peak resident set size, KiB.
    pub vm_hwm_kb: u64,
    /// Virtual memory size, KiB.
    pub vm_size_kb: u64,
    /// Memory mappings (lines of `/proc/self/maps`).
    pub maps: u64,
}

impl Gauges {
    /// Reads the current values.
    pub fn read() -> Self {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let maps = std::fs::read_to_string("/proc/self/maps").map_or(0, |m| m.lines().count() as u64);
        Self {
            threads: field(&status, "Threads:"),
            vm_hwm_kb: field(&status, "VmHWM:"),
            vm_size_kb: field(&status, "VmSize:"),
            maps,
        }
    }
}

/// CPU time used so far: this process's (user + system) and the whole
/// host's stolen time (ticks the hypervisor gave to other guests), both
/// in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct CpuClock {
    /// This process, user + system, s.
    pub process_s: f64,
    /// Whole host, stolen, s (summed over CPUs).
    pub steal_s: f64,
}

/// Kernel clock ticks per second; 100 on every mainstream Linux.
const TICK: f64 = 100.0;

/// user + system CPU seconds from a `/proc/.../stat` line.
fn stat_cpu_s(path: &str) -> f64 {
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    // Fields after the parenthesised command name: utime and stime are
    // the 12th and 13th.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<f64> = after.split_whitespace().map(|v| v.parse().unwrap_or(0.0)).collect();
    (fields.get(11).copied().unwrap_or(0.0) + fields.get(12).copied().unwrap_or(0.0)) / TICK
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_s() -> f64 {
    stat_cpu_s("/proc/thread-self/stat")
}

impl CpuClock {
    /// Reads the current values (zeros where `/proc` is missing).
    pub fn read() -> Self {
        let process = stat_cpu_s("/proc/self/stat");
        let host = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let steal = host
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(8))
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0);
        Self { process_s: process, steal_s: steal / TICK }
    }

    /// The time elapsed on each clock since `earlier`.
    pub fn since(&self, earlier: &CpuClock) -> CpuClock {
        CpuClock { process_s: self.process_s - earlier.process_s, steal_s: self.steal_s - earlier.steal_s }
    }
}

/// The first number after `key` in a `/proc/self/status` dump.
fn field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_fields() {
        let status = "Name:\tx\nVmHWM:\t  2048 kB\nVmSize:\t 10000 kB\nThreads:\t3\n";
        assert_eq!(field(status, "VmHWM:"), 2048);
        assert_eq!(field(status, "VmSize:"), 10000);
        assert_eq!(field(status, "Threads:"), 3);
        assert_eq!(field(status, "Missing:"), 0);
    }
}
