//! Sample statistics and process measurements shared by every workload.

/// Nearest-rank percentile `q` (0..=100) of `samples`, or `None` when fewer
/// than ten samples lie above the selected rank: a tail percentile with
/// fewer than ten samples beyond it describes single outliers, not a tail.
/// The median is exempt from the rule (it only needs one sample).
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Nearest rank: the smallest value with at least q% of samples at or
    // below it.
    let rank = ((q / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n - rank;
    if q > 50.0 && beyond < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Peak resident set size in MiB, parsed from the `VmHWM` line of a
/// `/proc/<pid>/status` text.
pub fn parse_vmhwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = parts.next()?.parse().ok()?;
    let scale = match parts.next()? {
        "kB" => 1.0 / 1024.0,
        "mB" | "MB" => 1.0,
        "gB" | "GB" => 1024.0,
        _ => return None,
    };
    Some(value * scale)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vmhwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Whether a run that started at `start` should measure another round,
/// given the wall time `last_round_s` of its last one: runs measure whole
/// rounds for about `seconds`, stopping once the next round would end more
/// than half a round past the mark.
pub fn another_round(start: std::time::Instant, seconds: u64, last_round_s: f64) -> bool {
    start.elapsed().as_secs_f64() + last_round_s / 2.0 < seconds as f64
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call's
    // duration, and both clock ids exist on every Linux since 2.6.12.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time this process has used, all threads, in seconds.
///
/// The benchmark's timings are CPU time, not wall time: on a shared host
/// wall time also counts the time other tenants held the CPUs, while CPU
/// time counts only the work this process did. On an idle host the two
/// agree for the single-threaded loops measured here.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used, in seconds.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, ten beyond it.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 99.0), Some(990.0));
        // 999 samples: rank 990, only nine beyond it.
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&s, 99.0), None);
        // p90 of 100 samples has exactly ten beyond it.
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 90.0), Some(90.0));
        assert_eq!(percentile(&s[..99], 90.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut s: Vec<f64> = (1..=2000).map(f64::from).collect();
        s.reverse();
        assert_eq!(percentile(&s, 99.0), Some(1980.0));
        assert_eq!(median(&s), Some(1000.0));
    }

    #[test]
    fn median_has_no_tail_rule() {
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn vmhwm_parses_kib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vmhwm_mib(status), Some(20.0));
    }

    #[test]
    fn vmhwm_missing_or_malformed_is_none() {
        assert_eq!(parse_vmhwm_mib("VmRSS:\t 100 kB\n"), None);
        assert_eq!(parse_vmhwm_mib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vmhwm_mib("VmHWM:\t 100\n"), None);
    }

    #[test]
    fn cpu_clocks_count_work_not_sleep() {
        let (p0, t0) = (process_cpu_s(), thread_cpu_s());
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = thread_cpu_s() - t0;
        assert!(slept < 0.02, "sleeping used {slept} s of CPU");
        // Spin until this thread has used 30 ms of CPU time; a clock that
        // did not advance with work would never get there.
        let mut x = 0u64;
        while thread_cpu_s() - t0 < 0.03 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let busy = thread_cpu_s() - t0;
        // The process clock includes this thread's.
        assert!(process_cpu_s() - p0 >= busy * 0.999);
    }

    #[test]
    fn own_peak_rss_is_positive() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
