//! Process and machine probes: CPU time, peak memory, load.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// `struct timeval` / `struct rusage` as Linux lays them out on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    /// `ru_maxrss` … `ru_nivcsw`: fourteen `long`s this program does not read.
    rest: [i64; 14],
}

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn kill(pid: i32, signal: i32) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Confines this process — every thread it has and will start, and every
/// child it spawns — to the hardware thread it is running on. Returns whether
/// the kernel agreed.
pub fn pin_to_current_cpu() -> bool {
    // SAFETY: `sched_getcpu` takes no arguments and touches no memory.
    let cpu = unsafe { sched_getcpu() };
    let Ok(cpu) = usize::try_from(cpu) else {
        return false;
    };
    let mut set: CpuSet = [0; 16];
    let Some(word) = set.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `set` is a live `cpu_set_t` of the size passed; pid 0 names the
    // calling thread, which at the one call site is the only thread yet.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;
const SIGKILL: i32 = 9;

fn rusage_cpu(who: i32) -> Duration {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout the
    // 64-bit Linux ABI specifies (two timevals, fourteen longs); the call
    // writes nothing beyond it and keeps no pointer.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage cannot fail with a valid `who` and buffer");
    let timeval = |t: &Timeval| Duration::new(t.sec as u64, (t.usec as u32) * 1000);
    timeval(&usage.utime) + timeval(&usage.stime)
}

/// User + system CPU time this process (all its threads) has consumed.
pub fn cpu_time() -> Duration {
    rusage_cpu(RUSAGE_SELF)
}

/// User + system CPU time of the children this process has waited for.
pub fn children_cpu_time() -> Duration {
    rusage_cpu(RUSAGE_CHILDREN)
}

/// Kills a child process that outlives its time-out.
pub struct Watchdog {
    fired: Arc<AtomicBool>,
    disarm: mpsc::Sender<()>,
    thread: std::thread::JoinHandle<()>,
}

impl Watchdog {
    /// Starts a thread that sends `SIGKILL` to process `pid` unless
    /// [`Watchdog::disarm`] is called within `after`.
    pub fn arm(pid: u32, after: Duration) -> Watchdog {
        let fired = Arc::new(AtomicBool::new(false));
        let (disarm, disarmed) = mpsc::channel::<()>();
        let thread = std::thread::spawn({
            let fired = Arc::clone(&fired);
            move || {
                if disarmed.recv_timeout(after) == Err(mpsc::RecvTimeoutError::Timeout) {
                    fired.store(true, Ordering::SeqCst);
                    // SAFETY: `kill` takes plain integers and touches no memory
                    // of this process. `pid` is a child the caller has not
                    // waited for yet, so the id still names that child.
                    unsafe { kill(pid as i32, SIGKILL) };
                }
            }
        });
        Watchdog {
            fired,
            disarm,
            thread,
        }
    }

    /// Stops the watchdog; call it right after waiting for the child. Returns
    /// whether the child was killed.
    pub fn disarm(self) -> bool {
        drop(self.disarm);
        self.thread
            .join()
            .expect("the watchdog thread does not panic");
        self.fired.load(Ordering::SeqCst)
    }
}

fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process (`VmHWM`) in KiB.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:")
}

/// Current resident set size of this process (`VmRSS`) in KiB.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS:")
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One-minute load average, 0 when `/proc/loadavg` is unreadable.
pub fn load_1min() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|raw| raw.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}
