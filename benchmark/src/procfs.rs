//! CPU time and peak memory of the processes the harness starts, read
//! from `/proc` so no foreign call is needed.

/// Kernel clock ticks per second as `/proc` reports them (`USER_HZ`,
/// fixed at 100 on Linux).
const TICKS_PER_SEC: f64 = 100.0;

/// Fields of `/proc/<pid>/stat` after the `(comm)` field, which may itself
/// contain spaces and parentheses.
fn stat_fields(pid: &str) -> Option<Vec<u64>> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &text[text.rfind(')')? + 1..];
    Some(
        rest.split_ascii_whitespace()
            .map(|f| f.parse::<i64>().unwrap_or(0).max(0) as u64)
            .collect(),
    )
}

/// CPU seconds consumed so far by the live threads of process `pid`:
/// the scheduler's own nanosecond run time per thread
/// (`/proc/<pid>/task/*/schedstat`), which is not rounded to clock ticks.
/// Falls back to `utime + stime` where schedstat is not compiled in.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let mut ns = 0u64;
    let mut threads = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))
        .ok()?
        .flatten()
    {
        let text = std::fs::read_to_string(task.path().join("schedstat")).unwrap_or_default();
        if let Some(run) = text
            .split_ascii_whitespace()
            .next()
            .and_then(|f| f.parse::<u64>().ok())
        {
            ns += run;
            threads += 1;
        }
    }
    if threads > 0 {
        return Some(ns as f64 / 1e9);
    }
    // After `(comm)`: state is index 0, utime index 11, stime index 12.
    let f = stat_fields(&pid.to_string())?;
    Some((f.get(11)? + f.get(12)?) as f64 / TICKS_PER_SEC)
}

/// User + system CPU seconds of all children this process has waited for
/// (`cutime + cstime`): the delta around `Child::wait` is that child's CPU.
pub fn reaped_children_cpu_seconds() -> f64 {
    stat_fields("self")
        .and_then(|f| Some((f.get(13)? + f.get(14)?) as f64 / TICKS_PER_SEC))
        .unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB. `None` once the
/// process has exited.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let me = std::process::id();
        assert!(peak_rss_mib(me).unwrap() > 0.1);
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds(me).unwrap() >= 0.03);
        assert!(cpu_seconds(u32::MAX - 1).is_none());
        assert!(reaped_children_cpu_seconds() >= 0.0);
    }
}
