//! Summary statistics and the process's own accounting from `/proc`.

/// Median of an unsorted sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the rule the acceptance check uses). Fewer than two
/// values have no spread: both quartiles are the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile of a sorted sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles latency reports choose from, in hundredths of a percent.
const PER_MYRIAD: [u64; 6] = [5000, 9000, 9500, 9900, 9990, 9999];

/// The highest of p50, p90, p95, p99, p99.9 and p99.99 that still has at
/// least ten of `n` samples beyond it — past that a "percentile" is one
/// or two outliers.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    let supported = |p: &u64| n as u64 * (10_000 - p) >= 10 * 10_000;
    PER_MYRIAD
        .iter()
        .rev()
        .find(|p| supported(p))
        .map(|p| *p as f64 / 100.0)
}

/// `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// The CPUs the process was given: asked the first time, which is before
/// anything confines itself, and remembered.
pub fn given_cpus() -> &'static [usize] {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(allowed_cpus)
}

/// The CPUs the calling thread may run on.
fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable, properly aligned buffer of exactly
    // the size passed, which is what sched_getaffinity(2) requires; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Vec::new();
    }
    (0..64 * set.len())
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread, and every thread it later spawns, to `cpu`.
pub fn pin_self_to(cpu: usize) -> bool {
    let mut one: CpuSet = [0; 16];
    let Some(word) = one.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `one` is a live, aligned buffer of exactly the size passed,
    // only read by sched_setaffinity(2); pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) == 0 }
}

/// Put the calling thread into the `SCHED_IDLE` class: it runs only when
/// its CPU has nothing else to do, and anything that wakes preempts it.
pub fn set_idle_policy() -> bool {
    const SCHED_IDLE: i32 = 5;
    // `struct sched_param` is one int, which must be 0 for this policy.
    let priority = 0i32;
    // SAFETY: `priority` outlives the call and has the layout of
    // `struct sched_param`, which sched_setscheduler(2) only reads; pid 0
    // names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 }
}

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable, aligned `struct timespec` (two
    // 64-bit fields on the 64-bit Linux targets this benchmark builds for).
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// User + system CPU seconds of the whole process so far, threads that
/// have exited included, to the nanosecond (`/proc/self/stat` counts in
/// 10 ms ticks, a tenth of a small-file round).
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// The same for the calling thread alone.
pub fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Kernel clock ticks per second; fixed at 100 on Linux.
const CLK_TCK: f64 = 100.0;

/// `(user, system)` CPU seconds of the whole process, threads that have
/// exited included (`/proc/self/stat`).
pub fn cpu_times() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime/stime are the
    // 14th/15th of the line, i.e. the 12th/13th after ") ".
    let rest = stat.rsplit_once(") ").map(|(_, r)| r).unwrap_or("");
    let mut fields = rest.split(' ').skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
            / CLK_TCK
    };
    let user = tick();
    (user, tick())
}

fn status_number(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_number(&status, "VmHWM") as f64 / 1024.0
}

/// Forget the resident-set high-water mark so far, so that `VmHWM` next
/// reports the peak from here on. `false` where the kernel refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Live threads of the process.
pub fn threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_number(&status, "Threads")
}

fn switches(status: &str) -> u64 {
    status_number(status, "voluntary_ctxt_switches")
        + status_number(status, "nonvoluntary_ctxt_switches")
}

/// Voluntary + involuntary context switches of the calling thread.
pub fn thread_context_switches() -> u64 {
    switches(&std::fs::read_to_string("/proc/thread-self/status").unwrap_or_default())
}

/// Voluntary + involuntary context switches summed over the live threads.
/// A thread that exits takes its count with it, so deltas are taken only
/// across stretches in which no thread that matters ends.
pub fn context_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .map(|s| switches(&s))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!(
            (q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12,
            "{q1} {q3}"
        );
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn percentile_support_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn proc_accounting_reads_something() {
        assert!(threads() >= 1);
        assert!(peak_rss_mb() > 0.0);
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {
            std::hint::black_box(0);
        }
        let (user, system) = cpu_times();
        assert!(user + system > 0.0);
        assert!(process_cpu_s() >= thread_cpu_s() && thread_cpu_s() >= 0.02);
        assert!(!given_cpus().is_empty());
    }
}
