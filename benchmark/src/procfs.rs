//! Process-level readings from `/proc/self` (Linux): peak resident memory
//! and CPU time consumed by every thread of this process.

use std::fs;

/// `VmHWM` in KiB: the high-water mark of resident memory.
pub fn vm_hwm_kib() -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .expect("VmHWM line in /proc/self/status")
}

/// User + system CPU seconds of the whole process so far. The kernel reports
/// clock ticks; `USER_HZ` is 100 on every Linux ABI, so the resolution is
/// 10 ms — use it over windows of a second or more.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 12 and 13 after the ')'.
    let after = &stat[stat.rfind(')').expect("comm in /proc/self/stat") + 1..];
    let mut fields = after.split_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|t| t.parse::<u64>().ok())
            .expect("utime/stime in /proc/self/stat") as f64
    };
    (tick() + tick()) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_plausible() {
        assert!(vm_hwm_kib() > 100);
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..200_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds() >= before);
        assert!(x > 0);
    }
}
