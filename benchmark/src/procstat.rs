//! What the kernel reports about this process — CPU time and peak RSS,
//! read from `/proc/self` — and the one thing the benchmark asks of it:
//! confinement to a single CPU.

use std::time::Duration;

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` needs libc;
/// Linux has fixed the userspace-visible value at 100 on every
/// architecture rastor builds for.
const CLK_TCK: u64 = 100;

/// `utime + stime` of the whole process (all threads, live and joined).
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
    parse_cpu_ticks(&stat)
        .map(|t| Duration::from_millis(t * 1000 / CLK_TCK))
        .expect("utime and stime in /proc/self/stat")
}

/// Sum of fields 14 (utime) and 15 (stime). The command name (field 2)
/// may itself contain spaces and parentheses, so count from the last ')'.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state): utime is the 12th field from there.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    parse_vm_hwm_kb(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The highest-numbered CPU this process may run on, from
/// `Cpus_allowed_list` (e.g. `0-1` or `0,2-3`).
fn last_allowed_cpu(status: &str) -> Option<usize> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim()
        .rsplit([',', '-'])
        .next()?
        .parse()
        .ok()
}

extern "C" {
    /// `sched_setaffinity(2)` from the C library std already links; the
    /// offline build has no `libc` crate to declare it.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confine the calling thread — and every thread it spawns from here on —
/// to one CPU: the highest-numbered one allowed, leaving CPU 0 to the
/// rest of the system. Returns the CPU chosen.
///
/// Why: on the 2-vCPU KVM guest this was sized on, a cross-vCPU wake-up
/// costs more than the work it hands over (mem-get90 get p50: 78 µs
/// unpinned, 38 µs pinned) and its cost wanders. Ten seeds per workload,
/// 20-s runs, the two sweeps back to back on a quiet box: unpinned, the
/// end-to-end metrics spread (quartile distance ÷ median) 10–30 % —
/// mem-get90 `ops_per_s` 16.5 %, mem-put90-hot-byz `get_p50_us` 30 %,
/// tcp-mix50 `ops_per_s` 18.5 %; pinned, 2.4–7.5 % — 3.4 %, 5.9 %, 4.9 %.
/// The price: the two client threads of mem-put90-hot-byz interleave on
/// one CPU instead of running side by side, and nothing here measures
/// parallel speed-up.
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let cpu = last_allowed_cpu(&status).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "no Cpus_allowed_list in /proc/self/status",
        )
    })?;
    let mut mask = [0u64; 16];
    let word = mask.get_mut(cpu / 64).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("CPU {cpu} is beyond the 1024 this mask holds"),
        )
    })?;
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, aligned array and `cpusetsize` is its exact
    // size in bytes; the kernel only reads that many bytes from it. pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(cpu)
    } else {
        Err(std::io::Error::last_os_error())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cpu_ticks_past_an_awkward_command_name() {
        let stat =
            "4242 (we ird) name) S 1 4242 4242 0 -1 4194304 100 0 0 0 37 5 0 0 20 0 9 0 1 2 3";
        assert_eq!(parse_cpu_ticks(stat), Some(42));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
    }

    #[test]
    fn picks_the_last_allowed_cpu() {
        assert_eq!(
            last_allowed_cpu("Cpus_allowed:\t3\nCpus_allowed_list:\t0-1\n"),
            Some(1)
        );
        assert_eq!(last_allowed_cpu("Cpus_allowed_list:\t0,2-5,7\n"), Some(7));
        assert_eq!(last_allowed_cpu("Cpus_allowed_list:\t4\n"), Some(4));
        assert_eq!(last_allowed_cpu("Name:\tx\n"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(rss_peak_mb() > 0.0);
        let _ = cpu_time();
    }
}
