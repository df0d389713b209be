//! Process-level probes and order statistics shared by every workload.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// User + system CPU time of this whole process (every thread, live or
/// exited), from `/proc/self/stat` in clock ticks of 10 ms.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may contain spaces; the fields after it do not.
    let after = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    // `after` starts at field 3 (state); utime and stime are fields 14, 15.
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    Duration::from_millis(ticks * 10)
}

/// On-CPU time of this process's live threads, in nanoseconds from
/// `/proc/self/task/*/schedstat`. Exact, but blind to exited threads:
/// use it only across a window in which no thread exits.
pub fn threads_cpu() -> Duration {
    let tasks = std::fs::read_dir("/proc/self/task").expect("read /proc/self/task");
    let ns: u64 = tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    Duration::from_nanos(ns)
}

/// Peak resident set (VmHWM) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// CPU time of the calling thread (`CLOCK_THREAD_CPUTIME_ID`): exact, and
/// blind to time the thread spent preempted.
pub fn this_thread_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID)");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// Bit mask of a Linux `cpu_set_t` (1024 CPUs).
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs this thread may run on, or `None` if the kernel will not say.
fn allowed_cpus() -> Option<Vec<usize>> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a writable buffer of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    (rc == 0).then(|| {
        (0..mask.len() * 64)
            .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    })
}

/// Pin the calling thread to one CPU.
fn pin_to(cpu: usize) -> bool {
    let mut mask: CpuMask = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

/// Thread CPU ms of one host-speed probe on a typical core of the host
/// this benchmark was tuned on (2-vCPU Xeon at 2.1 GHz): the reference
/// speed the normalized metrics are expressed at.
pub const PROBE_REF_MS: f64 = 2.0;

/// Probes per CPU whose median gives the host's speed at an instant.
const PROBE_WINDOW: usize = 5;

/// One host-speed probe: a fixed kernel of small allocations, float math
/// and a sort over about 1 MB, the mix the simulated-training and
/// planner code runs, timed in thread CPU ms. The host's cores slow
/// down and speed up by up to 60% for seconds at a time, and only for
/// code that works through the caches: a register-bound loop does not
/// see it. This kernel, run on the same core, sees it as that code does.
pub fn probe() -> f64 {
    let t = this_thread_cpu();
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    let mut items: Vec<(u64, Vec<f64>)> = (0..4000)
        .map(|_| {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            let n = (h % 64) as usize + 1;
            let v = (0..n)
                .map(|k| (k as f64 * 1.5 + (h % 97) as f64).ln_1p())
                .collect();
            (h, v)
        })
        .collect();
    items.sort_by_key(|x| x.0 % 1000);
    std::hint::black_box(items.iter().map(|x| x.1.iter().sum::<f64>()).sum::<f64>());
    ms(this_thread_cpu() - t)
}

/// Host-speed probes over a run, per CPU lane, in time order.
#[derive(Default)]
pub struct HostSpeed {
    lanes: Vec<Vec<(Instant, f64)>>,
}

impl HostSpeed {
    /// Probe now on the calling thread, as lane `lane`.
    pub fn sample(&mut self, lane: usize) {
        let p = probe();
        self.record(lane, Instant::now(), p);
    }

    fn record(&mut self, lane: usize, at: Instant, probe_ms: f64) {
        if self.lanes.len() <= lane {
            self.lanes.resize_with(lane + 1, Vec::new);
        }
        self.lanes[lane].push((at, probe_ms));
    }

    /// Median probe time over the whole run, in ms.
    pub fn median_probe_ms(&self) -> f64 {
        let all: Vec<f64> = self.lanes.iter().flatten().map(|&(_, p)| p).collect();
        median(&all)
    }

    /// The factor that takes a time measured around `at` to the
    /// reference speed: `PROBE_REF_MS` over the mean across CPUs of each
    /// CPU's median of its `PROBE_WINDOW` probes nearest to `at`.
    pub fn factor(&self, at: Instant) -> f64 {
        let per_lane: Vec<f64> = self
            .lanes
            .iter()
            .filter(|l| !l.is_empty())
            .map(|l| {
                let i = l.partition_point(|&(t, _)| t < at);
                let lo = i.saturating_sub(PROBE_WINDOW / 2 + 1);
                let mut near: Vec<(Instant, f64)> =
                    l[lo..(lo + PROBE_WINDOW + 2).min(l.len())].to_vec();
                near.sort_by_key(|&(t, _)| if t < at { at - t } else { t - at });
                near.truncate(PROBE_WINDOW);
                median(&near.iter().map(|&(_, p)| p).collect::<Vec<_>>())
            })
            .collect();
        assert!(!per_lane.is_empty(), "no host-speed probes");
        PROBE_REF_MS / mean(&per_lane)
    }

    /// Mean factor over `[from, to]`, sampled every 50 ms.
    pub fn mean_factor(&self, from: Instant, to: Instant) -> f64 {
        let step = Duration::from_millis(50);
        let mut at = from;
        let mut factors = Vec::new();
        while at <= to {
            factors.push(self.factor(at));
            at += step;
        }
        mean(&factors)
    }
}

/// Probes the host's speed from a thread of its own, one CPU at a time
/// (pinned in turn to each CPU this process may use), for workloads
/// whose work runs on every core.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<HostSpeed>,
}

impl Sampler {
    /// Probe one CPU every `period`, cycling over the CPUs.
    pub fn start(period: Duration) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let cpus = allowed_cpus().unwrap_or_default();
            let mut speed = HostSpeed::default();
            for turn in 0.. {
                let lane = turn % cpus.len().max(1);
                let pinned = cpus.get(lane).is_some_and(|&c| pin_to(c));
                speed.sample(if pinned { lane } else { 0 });
                let next = Instant::now() + period;
                while Instant::now() < next {
                    if flag.load(Ordering::Relaxed) {
                        return speed;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            speed
        });
        Sampler { stop, handle }
    }

    pub fn finish(self) -> HostSpeed {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("host-speed sampler")
    }
}

/// Wall and CPU clocks started together, for one measured phase.
pub struct Phase {
    wall: Instant,
    cpu: Duration,
    paused_wall: Duration,
    paused_cpu: Duration,
}

impl Phase {
    pub fn start() -> Phase {
        Phase {
            wall: Instant::now(),
            cpu: process_cpu(),
            paused_wall: Duration::ZERO,
            paused_cpu: Duration::ZERO,
        }
    }

    /// Wall time in the phase so far, pauses excluded.
    pub fn active(&self) -> Duration {
        self.wall.elapsed() - self.paused_wall
    }

    /// Run `f` outside the phase: its wall and CPU time are excluded.
    pub fn pause<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (wall, cpu) = (Instant::now(), process_cpu());
        let r = f();
        self.paused_cpu += process_cpu().saturating_sub(cpu);
        self.paused_wall += wall.elapsed();
        r
    }

    /// Wall and CPU seconds of the phase, and the peak resident set so
    /// far (read before any post-run check can allocate).
    pub fn stop(&self) -> Measured {
        let cpu = process_cpu().saturating_sub(self.cpu + self.paused_cpu);
        Measured {
            wall_s: self.active().as_secs_f64(),
            cpu_s: cpu.as_secs_f64(),
            rss_mb: peak_rss_mb(),
            from: self.wall,
            to: Instant::now(),
        }
    }
}

/// What one measured phase cost.
#[derive(Clone, Copy)]
pub struct Measured {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub rss_mb: f64,
    /// When the phase started and stopped (pauses included).
    pub from: Instant,
    pub to: Instant,
}

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank `p`th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Latency summary of one steady phase: `(median, tail)` in the samples'
/// unit. The tail percentile is fixed per workload; a run with
/// fewer than ten samples beyond it is reported on stderr, not hidden.
pub fn latency(samples: &[f64], tail_pct: f64) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let past = beyond(sorted.len(), tail_pct);
    if past < 10 {
        eprintln!(
            "perfbench: only {past} of {} samples lie beyond p{tail_pct}; the tail is thin",
            sorted.len()
        );
    }
    (percentile(&sorted, 50.0), percentile(&sorted, tail_pct))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn host_speed_factor_reads_the_nearest_probes_of_every_cpu() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut speed = HostSpeed::default();
        for i in 0..20 {
            // CPU 0 halves its speed after 1 s.
            speed.record(
                0,
                at(100 * i),
                if i < 10 {
                    PROBE_REF_MS
                } else {
                    2.0 * PROBE_REF_MS
                },
            );
        }
        assert_eq!(speed.factor(at(200)), 1.0);
        assert_eq!(speed.factor(at(1700)), 0.5);
        assert_eq!(speed.factor(at(60_000)), 0.5);
        for i in 0..20 {
            speed.record(1, at(100 * i + 50), PROBE_REF_MS);
        }
        assert_eq!(speed.factor(at(1700)), 2.0 / 3.0);
        assert!(speed.mean_factor(at(0), at(1900)) < 1.0);
        assert!(probe() > 0.0);
    }

    #[test]
    fn process_probes_read_proc() {
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu() >= before);
        assert!(peak_rss_mb() > 0.0);
    }
}
