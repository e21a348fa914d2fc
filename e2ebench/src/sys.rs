//! The operating-system side of the harness: allocator tuning, CPU
//! clocks, peak memory, and a counting global allocator.
//!
//! Everything here exists to remove a noise source that was measured
//! while the benchmark was sized (see README.md, "Quiet by
//! construction").

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

#[cfg(target_os = "linux")]
extern "C" {
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Stops glibc from returning freed heap to the kernel and from serving
/// large blocks with `mmap`. Without this a repetition that frees its
/// whole working set makes the next one fault every page in again — and
/// whether that happens is decided per process (the same 16-stream
/// set-up cost 35 ms in some processes and 110 ms in others). Must run
/// before the first large allocation.
pub fn pin_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only stores two integers in the allocator's
        // parameter block; both parameters accept any non-negative value.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, 1 << 30);
            mallopt(M_MMAP_THRESHOLD, 1 << 30);
        }
    }
}

#[cfg(target_os = "linux")]
fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` (two 64-bit fields on
    // every 64-bit Linux ABI) and both clock ids are always available.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(not(target_os = "linux"))]
fn cpu_clock_ns(_clock: i32) -> u64 {
    panic!("the benchmark reads CPU time with clock_gettime and runs on Linux only");
}

/// CPU nanoseconds consumed by every thread of this process
/// (`CLOCK_PROCESS_CPUTIME_ID`): nanosecond resolution, unlike the
/// scheduler-tick counters in `/proc/self/stat`.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU nanoseconds consumed by the calling thread.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads that keep otherwise idle cores from going idle, at a priority
/// below everything else (`SCHED_IDLE`), for the workloads whose system
/// under test sleeps and wakes hundreds of times a second.
///
/// On a virtual machine an idle vCPU halts, and every halt and wake-up
/// is an exit to the hypervisor whose cost lands in the woken thread's
/// CPU time — and depends on the host's mood: the same paced run cost
/// 188 µs of CPU per frame one hour and 147 µs the next, with the
/// median delivery latency moving from 0.53 to 0.34 ms the other way.
/// With a spinner to preempt instead of a halted vCPU to wake, a wake-up
/// is an ordinary context switch. The spinners' CPU time is published so
/// that it can be subtracted from the process's.
pub struct IdleBurners {
    stop: Arc<AtomicBool>,
    cpu_ns: Vec<Arc<AtomicU64>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl IdleBurners {
    /// Starts one spinner per core (`available_parallelism`): a spinner
    /// only ever runs where nothing else wants to, so a busy core's
    /// spinner costs nothing. A spinner that cannot lower itself to
    /// `SCHED_IDLE` exits at once rather than compete with the system
    /// under test.
    pub fn start() -> Self {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let cpu_ns: Vec<Arc<AtomicU64>> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
        let handles = cpu_ns
            .iter()
            .map(|published| {
                let (stop, published) = (Arc::clone(&stop), Arc::clone(published));
                std::thread::spawn(move || {
                    if !lower_to_sched_idle() {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..4096 {
                            std::hint::spin_loop();
                        }
                        published.store(thread_cpu_ns(), Ordering::Relaxed);
                    }
                })
            })
            .collect();
        Self {
            stop,
            cpu_ns,
            handles,
        }
    }

    /// CPU nanoseconds the spinners have burned so far.
    pub fn cpu_ns(&self) -> u64 {
        self.cpu_ns.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

impl Drop for IdleBurners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for handle in self.handles.drain(..) {
            // A spinner cannot panic; nothing to report if it did.
            let _ = handle.join();
        }
    }
}

/// Moves the calling thread to `SCHED_IDLE`: it runs only when nothing
/// else wants the core. Needs no privilege.
fn lower_to_sched_idle() -> bool {
    #[cfg(target_os = "linux")]
    {
        const SCHED_IDLE: i32 = 5;
        let priority: i32 = 0;
        // SAFETY: `&priority` points at a valid `struct sched_param` (one
        // `int`); pid 0 means the calling thread.
        unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// A counting wrapper over the system allocator. Counting is off unless
/// a traced run turns it on, so the untraced numbers pay one relaxed
/// load per allocation and nothing else.
///
/// Counts accumulate in a per-thread cell and spill into the shared
/// totals every [`SPILL_EVERY`] allocations (and whenever the counting
/// thread reads them), so a traced run pays a thread-local add per
/// allocation rather than two shared atomics, ~850 times per frame: with
/// the atomics a traced `serve_saturated` measured 11 % overhead, with
/// this 0–3.5 %.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Allocations a thread counts locally before spilling to the totals.
/// A thread other than the reader can hold back at most this many.
const SPILL_EVERY: u64 = 4096;

thread_local! {
    /// `(allocations, bytes)` this thread has counted but not spilled.
    /// Const-initialised and without a destructor, so touching it from
    /// inside the allocator never allocates.
    static LOCAL: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn spill(local: &Cell<(u64, u64)>) {
    let (n, bytes) = local.replace((0, 0));
    ALLOCS.fetch_add(n, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes, Ordering::Relaxed);
}

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        // `try_with`: the allocator also runs while a thread's locals are
        // being torn down; those few allocations go uncounted.
        let _ = LOCAL.try_with(|local| {
            let (n, b) = local.get();
            local.set((n + 1, b + bytes as u64));
            if n + 1 >= SPILL_EVERY {
                spill(local);
            }
        });
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are side effects that never touch the memory
// being managed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

/// Turns allocation counting on or off (traced runs only).
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes)` counted so far: everything the calling thread
/// counted, plus what other threads have spilled.
pub fn alloc_counts() -> (u64, u64) {
    let _ = LOCAL.try_with(spill);
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_ns(), thread_cpu_ns());
        let mut x = 1u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > t0);
        assert!(process_cpu_ns() > p0);
    }

    #[test]
    fn peak_rss_is_reported() {
        assert!(peak_rss_mb() > 0.5);
    }

    #[test]
    fn allocations_are_counted_only_when_enabled() {
        // Other tests allocate concurrently, so only lower bounds hold.
        count_allocs(true);
        let before = alloc_counts();
        let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(4096));
        let after = alloc_counts();
        count_allocs(false);
        drop(v);
        assert!(after.0 > before.0);
        assert!(after.1 >= before.1 + 4096);
    }
}
