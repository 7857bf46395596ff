//! The host under the benchmark: the thread's CPU clock, a fixed probe of
//! the CPU's current speed, and the choice of CPU for the benchmark's one
//! busy thread.
//!
//! On a shared host each CPU runs identical work at one of two speeds about
//! 1.4–1.6× apart, depending on whether another tenant is busy on the same
//! core; the two CPUs switch independently every 0.1 s to a few seconds,
//! and for minutes at a time both can be slow. On top of that the
//! hypervisor takes the CPU away now and then (steal, 0.3–17% of a run).
//! Against each, the benchmark:
//!
//! * counts the thread's CPU time, not wall time, so time the CPU was taken
//!   away is not counted;
//! * every [`PROBE_EVERY`] between two segments of a pass (see [`Clock`]),
//!   and before each burst of set-ups, runs a fixed probe on each allowed
//!   CPU and moves its thread to the faster one;
//! * converts the CPU time that follows into reference time: as long as the
//!   probe would have taken on a quiet CPU ([`REFERENCE_PROBE_MS`]).
//!
//! The probe is plain arithmetic in this file and touches no memory, so no
//! change to the program under test changes how long it takes.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often an untraced pass probes the CPU and looks for a faster one.
const PROBE_EVERY: Duration = Duration::from_millis(100);

/// Iterations of one probe: about half a millisecond.
const PROBE: u32 = 200_000;

/// CPU time of one probe on a quiet CPU of the reference host (2 vCPUs of
/// an Intel Xeon at 2.1 GHz), milliseconds: probes there took 0.50–0.57 ms
/// over a day. Reference time is CPU time times this over the probe's CPU
/// time just before.
const REFERENCE_PROBE_MS: f64 = 0.55;

/// Cuts a pass's timed phase into consecutive segments, at points every
/// pass over the same inputs reaches in the same order, and times each in
/// reference seconds. Between two segments an untraced pass may probe the
/// CPU and move; that time belongs to no segment. A traced pass probes only
/// when it starts, so no probe lands inside a span. Clones share one clock,
/// so a solver callback can cut too.
#[derive(Clone)]
pub struct Clock(Arc<Mutex<ClockState>>);

struct ClockState {
    probes: bool,
    /// Reference seconds per CPU second, from the last probe.
    scale: f64,
    last_probe: Instant,
    open_wall: Instant,
    open_cpu: f64,
    segments: Vec<f64>,
}

impl Clock {
    /// Probes (and moves to the fastest CPU), then opens the first segment;
    /// `probes` allows probing and moving between segments too.
    pub fn start(probes: bool) -> Self {
        let scale = scale();
        let now = Instant::now();
        Clock(Arc::new(Mutex::new(ClockState {
            probes,
            scale,
            last_probe: now,
            open_wall: now,
            open_cpu: cpu_s(),
            segments: Vec::new(),
        })))
    }

    /// Closes the open segment and opens the next. Returns the closed
    /// segment's reference seconds per wall second, to convert times taken
    /// inside it by the wall clock.
    pub fn cut(&self) -> f64 {
        let mut c = self.0.lock().expect("clock lock");
        let (now, cpu) = (Instant::now(), cpu_s());
        let segment = (cpu - c.open_cpu) * c.scale;
        let wall = (now - c.open_wall).as_secs_f64();
        c.segments.push(segment);
        if c.probes && now - c.last_probe >= PROBE_EVERY {
            c.scale = scale();
            c.last_probe = Instant::now();
        }
        c.open_wall = Instant::now();
        c.open_cpu = cpu_s();
        if wall > 0.0 {
            segment / wall
        } else {
            1.0
        }
    }

    /// The closed segments, reference seconds.
    pub fn segments(&self) -> Vec<f64> {
        self.0.lock().expect("clock lock").segments.clone()
    }
}

/// Moves the calling thread to the fastest allowed CPU and returns the
/// reference seconds per CPU second there, from its probe.
pub fn scale() -> f64 {
    REFERENCE_PROBE_MS / move_to_fastest_cpu()
}

/// Fixed arithmetic work, the same on every call.
fn kernel(iterations: u32) {
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut acc = 0.0f64;
    for _ in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += (x >> 11) as f64;
    }
    std::hint::black_box(acc);
}

/// Wall time of `iterations` of the probe's kernel, milliseconds: the
/// host's speed as `run` records it per round (`host.calib_ms`).
pub fn calibrate_ms(iterations: u32) -> f64 {
    let t0 = Instant::now();
    kernel(iterations);
    t0.elapsed().as_secs_f64() * 1e3
}

/// CPU time of one probe on the calling thread, milliseconds.
fn probe_ms() -> f64 {
    let t0 = cpu_s();
    kernel(PROBE);
    (cpu_s() - t0) * 1e3
}

/// Pins the calling thread to the allowed CPU whose probe is fastest and
/// returns that probe's CPU time, milliseconds. Off Linux, or with one
/// CPU, the thread stays where it is and is probed there.
fn move_to_fastest_cpu() -> f64 {
    let cpus = allowed_cpus();
    let mut best: Option<(f64, usize)> = None;
    if cpus.len() >= 2 {
        for &cpu in cpus {
            if !pin(cpu) {
                best = None;
                break;
            }
            probe_ms(); // migrated: warm up first
            let t = probe_ms();
            if best.is_none_or(|(b, _)| t < b) {
                best = Some((t, cpu));
            }
        }
    }
    match best {
        Some((t, cpu)) if pin(cpu) => t,
        _ => {
            probe_ms();
            probe_ms()
        }
    }
}

/// CPU time the calling thread has used, seconds. Off Linux, wall time.
pub fn cpu_s() -> f64 {
    #[cfg(target_os = "linux")]
    {
        os::thread_cpu_s()
    }
    #[cfg(not(target_os = "linux"))]
    {
        static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        START.get_or_init(Instant::now).elapsed().as_secs_f64()
    }
}

#[cfg(target_os = "linux")]
mod os {
    use std::ffi::c_long;

    /// `cpu_set_t`: room for 1024 CPUs.
    pub type CpuSet = [u64; 16];

    /// `struct timespec`.
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }

    pub fn get() -> Option<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: `set` is a live, initialised buffer of exactly the size
        // passed; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
    }

    pub fn thread_cpu_s() -> f64 {
        let mut t = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `t` is a live, writable `struct timespec`; the clock id
        // is one Linux always provides.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
        assert_eq!(rc, 0, "the thread CPU clock is readable");
        t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
    }
}

/// CPUs the process may run on, as the process started (later pinning
/// narrows the thread's own mask, so this is read once).
fn allowed_cpus() -> &'static [usize] {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(|| {
        #[cfg(target_os = "linux")]
        if let Some(set) = os::get() {
            return (0..set.len() * 64)
                .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
                .collect();
        }
        Vec::new()
    })
}

/// Pins the calling thread to `cpu`; false if the OS refused.
fn pin(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        let mut set: os::CpuSet = [0; 16];
        set[cpu / 64] |= 1 << (cpu % 64);
        os::set(&set)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpu;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_times_segments_in_reference_seconds() {
        let clock = Clock::start(true);
        kernel(20 * PROBE);
        let per_wall_second = clock.cut();
        clock.cut();
        let s = clock.segments();
        assert_eq!(s.len(), 2);
        // Twenty probes' worth of work, at about 0.55 ms per probe.
        assert!(s[0] > 1e-3 && s[0] < 0.1, "{s:?}");
        assert!(s[1] < s[0], "{s:?}");
        assert!(per_wall_second > 0.0 && per_wall_second.is_finite());
    }
}
