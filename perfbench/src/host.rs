//! Process and host counters read from `/proc`.

/// `VmHWM` (peak resident set) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU time of this process, seconds.
pub fn cpu_s() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the
    // parenthesised command name (which may contain spaces).
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    // After ")" the state is field 3, so utime (14) is index 11.
    (ticks(11) + ticks(12)) / 100.0
}

/// Host-wide (total, steal) jiffies from the aggregate `cpu` line.
pub fn cpu_jiffies() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let total = v.iter().take(8).sum();
    (total, v.get(7).copied().unwrap_or(0))
}

/// Process CPU and host steal over a measured interval.
pub struct HostWindow {
    cpu0: f64,
    jiffies0: (u64, u64),
}

impl HostWindow {
    pub fn start() -> HostWindow {
        HostWindow {
            cpu0: cpu_s(),
            jiffies0: cpu_jiffies(),
        }
    }

    /// (process CPU seconds, host steal fraction) since `start`.
    pub fn finish(&self) -> (f64, f64) {
        let (t1, s1) = cpu_jiffies();
        let dt = t1.saturating_sub(self.jiffies0.0);
        let ds = s1.saturating_sub(self.jiffies0.1);
        let steal = if dt == 0 { 0.0 } else { ds as f64 / dt as f64 };
        (cpu_s() - self.cpu0, steal)
    }
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// Linux `SCHED_IDLE`: runs only when nothing else wants the CPU.
const SCHED_IDLE: i32 = 5;

/// Restrict the calling thread (and threads it spawns later) to CPU
/// `cpu`. Best effort: on failure the thread keeps its CPU set.
pub fn pin_current_thread(cpu: usize) {
    if cpu >= 64 {
        return;
    }
    let mask: u64 = 1 << cpu;
    // SAFETY: `mask` is a live, initialised 8-byte CPU set and the size
    // passed is exactly its size; pid 0 names the calling thread. The
    // call only reads the mask.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<u64>(), &mask);
    }
}

/// Keep `cpu` from halting while `stop` is false: a `SCHED_IDLE` thread
/// spins on it, and any thread that wakes there preempts it at once. On
/// a busy host a halted vCPU can take milliseconds to run again, which
/// would otherwise add to every wait for a disk flush or a reply.
pub fn keep_cpu_awake<'s>(
    scope: &'s std::thread::Scope<'s, '_>,
    cpu: usize,
    stop: &'s std::sync::atomic::AtomicBool,
) {
    scope.spawn(move || {
        pin_current_thread(cpu);
        let param: i32 = 0;
        // SAFETY: `param` is a live `struct sched_param` (a single int,
        // the priority, which SCHED_IDLE requires to be 0); pid 0 names
        // the calling thread. The call only reads it.
        unsafe {
            sched_setscheduler(0, SCHED_IDLE, &param);
        }
        while !stop.load(std::sync::atomic::Ordering::Relaxed) {
            std::hint::spin_loop();
        }
    });
}
