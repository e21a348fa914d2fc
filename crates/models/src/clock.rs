//! The virtual cost clock.
//!
//! Every simulated model charges its declared cost here. In
//! [`ClockMode::Virtual`] the charge is pure bookkeeping, so experiment
//! runtimes are deterministic and host-independent; in
//! [`ClockMode::Latency`] the charging thread additionally sleeps, so
//! a wall-clock run (`e2ebench`'s `serve_device`) sees model cost as
//! host-visible latency.
//!
//! One cost unit models one millisecond of GPU inference on the paper's
//! T4 testbed. Charges are also recorded per label, which gives every
//! harness per-model invocation counts for free.
//!
//! Three refinements make [`ClockMode::Latency`] a faithful accelerator
//! model for a serving run:
//!
//! - **Batch sections** ([`Clock::batch_section`]): a physical batched
//!   invocation defers its per-item sleeps and realizes the *net* charge
//!   (items minus the amortized dispatch-overhead credit) as one sleep, so
//!   wall time agrees with virtual time instead of ignoring batch credits.
//! - **Device models** ([`DeviceModel`]): model charges
//!   ([`Clock::charge_model`]) can serialize on a fixed pool of devices,
//!   modelling N streams sharing one GPU node. Native CPU work (decode,
//!   trackers, frame differencing) keeps using [`Clock::charge_labeled`]
//!   and never touches the device.
//! - **Host sections** ([`Clock::host_section`]): a stage's native charges
//!   sleep once, as their sum, when the section closes — one wake-up, not
//!   one per charge. *Waits are not work*: a retry must start after its
//!   backoff, so waits ([`Clock::wait_labeled`]) sleep where charged.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::thread::LocalKey;

/// Cost in virtual milliseconds.
pub type CostUnits = f64;

/// How charges are realized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Bookkeeping only (deterministic experiment numbers).
    #[default]
    Virtual,
    /// Bookkeeping plus real *sleep*: one cost unit blocks the charging
    /// thread for one real millisecond, modelling accelerator inference as
    /// host-visible latency. Concurrent charges overlap (threads sleep in
    /// parallel), which is exactly the resource profile a pipelined engine
    /// exploits — so `e2ebench`'s device-bound workload uses this mode.
    Latency,
}

/// Per-label charge statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChargeStat {
    /// Number of `charge` calls with this label.
    pub invocations: u64,
    /// Total units charged under this label.
    pub units: f64,
}

/// How [`ClockMode::Latency`] realizes *model* charges
/// ([`Clock::charge_model`]) across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeviceModel {
    /// Every charging thread sleeps independently: concurrent model calls
    /// overlap, as if each caller had its own accelerator. This is the
    /// historical behavior and the default.
    #[default]
    Unbounded,
    /// A fixed pool of `n` accelerators: each model charge sleeps while
    /// holding exactly one of `n` device locks — the least-loaded one at
    /// submission time. Up to `n` model invocations overlap; the rest
    /// queue, exactly like kernels on an `n`-GPU node. Native CPU charges
    /// ([`Clock::charge_labeled`]) are unaffected. `Devices(1)` is the
    /// honest resource model for multi-stream serving benches: without it,
    /// N per-stream engines would enjoy N phantom accelerators.
    Devices(usize),
}

impl DeviceModel {
    /// Number of device locks this model maintains (0 = unbounded, i.e.
    /// no device contention is simulated).
    pub fn device_count(&self) -> usize {
        match self {
            DeviceModel::Unbounded => 0,
            DeviceModel::Devices(n) => (*n).max(1),
        }
    }
}

/// One simulated accelerator: a lock that serializes Latency-mode sleeps,
/// plus occupancy accounting.
#[derive(Debug, Default)]
struct DeviceSlot {
    lock: Mutex<()>,
    /// Charges currently queued on or holding this device's lock.
    queued: AtomicUsize,
    /// Nanoseconds this device has spent executing (sleeping) charges.
    busy_nanos: AtomicU64,
}

/// Occupancy snapshot of one simulated device ([`Clock::device_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeviceStat {
    /// Milliseconds this device spent executing model charges.
    pub busy_ms: f64,
    /// Charges queued on or holding the device at snapshot time.
    pub queued: usize,
}

/// A thread's open sections of one kind: deferred nanoseconds per section.
type Sections = LocalKey<RefCell<Vec<f64>>>;

thread_local! {
    /// Open batch sections on this thread (credits may drive an entry
    /// negative; it is clamped at realization).
    static BATCH_SECTIONS: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    static HOST_SECTIONS: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Adds `nanos` to this thread's innermost open section; false if none.
fn defer(sections: &'static Sections, nanos: f64) -> bool {
    sections.with(|s| s.borrow_mut().last_mut().map(|acc| *acc += nanos).is_some())
}

/// Blocks the calling thread for `units` cost units (milliseconds).
fn sleep_units(units: CostUnits) {
    std::thread::sleep(std::time::Duration::from_secs_f64(units.max(0.0) / 1e3));
}

/// A shareable virtual clock. Cheap to clone behind an `Arc`; all methods
/// take `&self`.
#[derive(Debug, Default)]
pub struct Clock {
    mode: ClockMode,
    device: DeviceModel,
    /// One slot per simulated device; empty under
    /// [`DeviceModel::Unbounded`].
    devices: Vec<DeviceSlot>,
    /// Virtual nanoseconds accumulated (1 unit = 1 ms = 1e6 ns).
    virtual_nanos: AtomicU64,
    labeled: Mutex<HashMap<String, ChargeStat>>,
}

impl Clock {
    /// A virtual-only clock (the default for tests and experiments).
    pub fn new() -> Self {
        Self::with_mode(ClockMode::Virtual)
    }

    /// A clock in the given mode.
    pub fn with_mode(mode: ClockMode) -> Self {
        Self {
            mode,
            device: DeviceModel::Unbounded,
            devices: Vec::new(),
            virtual_nanos: AtomicU64::new(0),
            labeled: Mutex::new(HashMap::new()),
        }
    }

    /// Sets how model charges are realized in Latency mode (builder style).
    pub fn with_device(mut self, device: DeviceModel) -> Self {
        self.device = device;
        self.devices = (0..device.device_count())
            .map(|_| DeviceSlot::default())
            .collect();
        self
    }

    /// The clock's mode.
    pub fn mode(&self) -> ClockMode {
        self.mode
    }

    /// The clock's device model.
    pub fn device(&self) -> DeviceModel {
        self.device
    }

    /// Occupancy snapshot of every simulated device, in index order.
    /// Empty under [`DeviceModel::Unbounded`].
    pub fn device_stats(&self) -> Vec<DeviceStat> {
        self.devices
            .iter()
            .map(|d| DeviceStat {
                busy_ms: d.busy_nanos.load(Ordering::Relaxed) as f64 / 1e6,
                queued: d.queued.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Charges `units` of anonymous cost.
    pub fn charge(&self, units: CostUnits) {
        self.charge_labeled("", units);
    }

    fn record(&self, label: &str, units: CostUnits) {
        debug_assert!(units >= 0.0, "cost must be non-negative");
        let nanos = (units * 1e6) as u64;
        self.virtual_nanos.fetch_add(nanos, Ordering::Relaxed);
        if !label.is_empty() {
            // Looked up by `&str`: the label is owned only on first sight.
            let mut map = self.labeled.lock();
            let e = match map.get_mut(label) {
                Some(e) => e,
                None => map.entry(label.to_owned()).or_default(),
            };
            e.invocations += 1;
            e.units += units;
        }
    }

    /// Charges `units` under `label` (native host work: decode, trackers,
    /// frame differencing). Realized on the calling thread — deferred to
    /// the close of an open [`Clock::host_section`] — and never touches
    /// the device lock.
    pub fn charge_labeled(&self, label: &str, units: CostUnits) {
        self.record(label, units);
        if self.mode == ClockMode::Latency && !defer(&HOST_SECTIONS, units * 1e6) {
            sleep_units(units);
        }
    }

    /// Charges `units` of *waiting* (retry backoff, a latency spike) under
    /// `label`: [`Clock::charge_labeled`], but never deferred.
    pub fn wait_labeled(&self, label: &str, units: CostUnits) {
        self.record(label, units);
        if self.mode == ClockMode::Latency {
            sleep_units(units);
        }
    }

    /// Charges `units` of *accelerator* cost under `label` (model
    /// invocations). Identical bookkeeping to [`Clock::charge_labeled`];
    /// the realization differs in Latency mode: the sleep is deferred
    /// inside a [`Clock::batch_section`] (so one physical batch sleeps its
    /// amortized net once), and it holds a device lock under
    /// [`DeviceModel::Devices`].
    pub fn charge_model(&self, label: &str, units: CostUnits) {
        self.record(label, units);
        match self.mode {
            ClockMode::Virtual => {}
            ClockMode::Latency => {
                if !defer(&BATCH_SECTIONS, units * 1e6) {
                    self.sleep_on_device(units);
                }
            }
        }
    }

    /// Runs `f` as one *physical* model invocation: in Latency mode, model
    /// charges made inside (on this thread) are deferred and realized as a
    /// single net sleep — charges minus batch credits — when the section
    /// closes. Bookkeeping (virtual time, per-label stats) is unaffected,
    /// so results and experiment numbers never depend on sectioning; only
    /// the wall-clock realization does. Sections nest; each realizes its
    /// own net at its own close.
    pub fn batch_section<R>(&self, f: impl FnOnce() -> R) -> R {
        self.section(&BATCH_SECTIONS, Clock::sleep_on_device, f)
    }

    /// [`Clock::batch_section`] for host work: [`Clock::charge_labeled`]
    /// calls inside (on this thread) sleep once, as their sum, at the close.
    pub fn host_section<R>(&self, f: impl FnOnce() -> R) -> R {
        self.section(&HOST_SECTIONS, |_, units| sleep_units(units), f)
    }

    /// Runs `f` in a section of `sections`; `realize` settles it at the close.
    fn section<R>(
        &self,
        sections: &'static Sections,
        realize: fn(&Clock, CostUnits),
        f: impl FnOnce() -> R,
    ) -> R {
        if self.mode != ClockMode::Latency {
            return f();
        }
        // The section entry is popped by a drop guard so a panic in `f`
        // (e.g. an injected model fault caught further up by the serving
        // layer) cannot leak the entry into the thread-local stack of a
        // reused worker thread. The sleep is realized only on the
        // non-panicking path: an aborted section's charges are bookkept
        // but not slept.
        struct Section<'a>(&'a Clock, &'static Sections, fn(&Clock, CostUnits));
        impl Drop for Section<'_> {
            fn drop(&mut self) {
                let nanos = self.1.with(|s| s.borrow_mut().pop().unwrap_or(0.0));
                if nanos > 0.0 && !std::thread::panicking() {
                    (self.2)(self.0, nanos / 1e6);
                }
            }
        }
        sections.with(|s| s.borrow_mut().push(0.0));
        let _section = Section(self, sections, realize);
        f()
    }

    fn sleep_on_device(&self, units: CostUnits) {
        if self.devices.is_empty() {
            sleep_units(units);
            return;
        }
        let dur = std::time::Duration::from_secs_f64(units.max(0.0) / 1e3);
        let slot = &self.devices[self.pick_device()];
        slot.queued.fetch_add(1, Ordering::SeqCst);
        {
            let _guard = slot.lock.lock();
            std::thread::sleep(dur);
            slot.busy_nanos
                .fetch_add(dur.as_nanos() as u64, Ordering::Relaxed);
        }
        slot.queued.fetch_sub(1, Ordering::SeqCst);
    }

    /// The device with the fewest queued-or-running charges at submission
    /// time (ties break toward the lowest index), which spreads coalesced
    /// physical batches across idle devices. Placement never affects
    /// results or virtual-time bookkeeping — only which lock a sleep
    /// queues on.
    fn pick_device(&self) -> usize {
        self.devices
            .iter()
            .enumerate()
            .min_by_key(|(_, d)| d.queued.load(Ordering::SeqCst))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Refunds `units` of anonymous cost (saturating at zero). Used by
    /// batched model invocations to amortize fixed dispatch overhead across
    /// a batch (§4.1): items after the first get part of their per-item
    /// charge credited back. Per-label statistics keep the full charges so
    /// invocation counts stay meaningful. Inside a [`Clock::batch_section`]
    /// the credit also reduces the section's deferred sleep, making the
    /// amortization wall-real in Latency mode.
    pub fn credit(&self, units: CostUnits) {
        debug_assert!(units >= 0.0, "credit must be non-negative");
        let nanos = (units * 1e6) as u64;
        let _ = self
            .virtual_nanos
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(nanos))
            });
        if self.mode == ClockMode::Latency {
            defer(&BATCH_SECTIONS, -units * 1e6);
        }
    }

    /// Total virtual milliseconds charged so far.
    pub fn virtual_ms(&self) -> f64 {
        self.virtual_nanos.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Total virtual microseconds charged so far, as an integer tick.
    /// Span tracers use this as a time source under [`ClockMode::Virtual`],
    /// where wall timestamps would be meaningless (no real time passes).
    pub fn virtual_micros(&self) -> u64 {
        self.virtual_nanos.load(Ordering::Relaxed) / 1_000
    }

    /// Per-label charge statistics (a snapshot).
    pub fn labeled_stats(&self) -> HashMap<String, ChargeStat> {
        self.labeled.lock().clone()
    }

    /// Statistics for one label, if any charge carried it.
    pub fn stat(&self, label: &str) -> Option<ChargeStat> {
        self.labeled.lock().get(label).copied()
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.virtual_nanos.store(0, Ordering::Relaxed);
        self.labeled.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let c = Clock::new();
        c.charge(2.5);
        c.charge(1.5);
        assert!((c.virtual_ms() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn labels_are_tracked() {
        let c = Clock::new();
        c.charge_labeled("yolox", 30.0);
        c.charge_labeled("yolox", 30.0);
        c.charge_labeled("color", 5.0);
        let y = c.stat("yolox").unwrap();
        assert_eq!(y.invocations, 2);
        assert!((y.units - 60.0).abs() < 1e-9);
        assert_eq!(c.stat("color").unwrap().invocations, 1);
        assert!(c.stat("missing").is_none());
    }

    #[test]
    fn reset_clears_everything() {
        let c = Clock::new();
        c.charge_labeled("m", 10.0);
        c.reset();
        assert_eq!(c.virtual_ms(), 0.0);
        assert!(c.stat("m").is_none());
    }

    #[test]
    fn latency_mode_sleeps_and_counts() {
        let c = Clock::with_mode(ClockMode::Latency);
        let start = std::time::Instant::now();
        c.charge(5.0);
        assert!(start.elapsed() >= std::time::Duration::from_millis(4));
        assert!((c.virtual_ms() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn clock_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Clock>();
    }

    #[test]
    fn batch_section_realizes_net_once() {
        let c = Clock::with_mode(ClockMode::Latency);
        let start = std::time::Instant::now();
        c.batch_section(|| {
            // 4 items x 10ms, minus a 15ms overhead credit = 25ms net.
            // Without sectioning the four charges would sleep 40ms+.
            for _ in 0..4 {
                c.charge_model("m", 10.0);
            }
            c.credit(15.0);
        });
        let wall = start.elapsed();
        assert!(wall >= std::time::Duration::from_millis(23), "{wall:?}");
        // Generous upper bound for loaded CI machines; still well under
        // the 40ms an unsectioned realization would take.
        assert!(wall < std::time::Duration::from_millis(36), "{wall:?}");
        // Bookkeeping is unaffected by sectioning: 40 - 15 = 25 virtual
        // ms, 4 invocations.
        assert!((c.virtual_ms() - 25.0).abs() < 1e-9);
        assert_eq!(c.stat("m").unwrap().invocations, 4);
    }

    #[test]
    fn batch_section_survives_a_panic_without_leaking() {
        let c = Clock::with_mode(ClockMode::Latency);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.batch_section(|| {
                c.charge_model("m", 10.0);
                panic!("injected");
            })
        }));
        assert!(r.is_err());
        // The section entry must be popped despite the panic: a later
        // charge on this thread realizes its own sleep instead of
        // accumulating into a leaked entry.
        let start = std::time::Instant::now();
        c.charge_model("m", 10.0);
        let wall = start.elapsed();
        assert!(wall >= std::time::Duration::from_millis(9), "{wall:?}");
    }

    #[test]
    fn batch_section_is_transparent_in_virtual_mode() {
        let c = Clock::new();
        let out = c.batch_section(|| {
            c.charge_model("m", 3.0);
            7
        });
        assert_eq!(out, 7);
        assert!((c.virtual_ms() - 3.0).abs() < 1e-9);
    }

    /// Every kind of charge, in a fixed order; `sectioned` puts the host
    /// charges in a host section.
    fn charge_everything(c: &Clock, sectioned: bool) {
        let host = || {
            for i in 0..7 {
                c.charge_labeled("tracker", 0.013 * f64::from(i));
                c.charge_labeled("native_prop", 0.007);
            }
            c.wait_labeled("retry_backoff", 0.011);
            c.batch_section(|| {
                c.charge_model("m", 0.017);
                c.credit(0.003);
            });
        };
        if sectioned {
            c.host_section(host);
        } else {
            host();
        }
        c.charge_labeled("video_decode", 0.019);
    }

    #[test]
    fn host_sections_leave_bookkeeping_bit_equal() {
        for mode in [ClockMode::Virtual, ClockMode::Latency] {
            let plain = Clock::with_mode(mode);
            let sectioned = Clock::with_mode(mode);
            charge_everything(&plain, false);
            charge_everything(&sectioned, true);
            assert_eq!(
                plain.virtual_ms().to_bits(),
                sectioned.virtual_ms().to_bits(),
                "{mode:?}"
            );
            let bits = |c: &Clock| -> Vec<(String, u64, u64)> {
                let mut stats: Vec<_> = c
                    .labeled_stats()
                    .into_iter()
                    .map(|(label, s)| (label, s.invocations, s.units.to_bits()))
                    .collect();
                stats.sort();
                stats
            };
            assert_eq!(bits(&plain), bits(&sectioned), "{mode:?}");
            assert_eq!(bits(&plain).len(), 5);
        }
    }

    #[test]
    fn host_section_realizes_its_charges_as_one_sleep_at_close() {
        const N: u32 = 5;
        let c = Clock::with_mode(ClockMode::Latency);
        let start = std::time::Instant::now();
        let inside = c.host_section(|| {
            for _ in 0..N {
                c.charge_labeled("tracker", 2.0);
            }
            start.elapsed()
        });
        let wall = start.elapsed();
        // Charged in place, the N sleeps would have passed inside.
        assert!(
            inside < std::time::Duration::from_millis(2 * u64::from(N)),
            "{inside:?}"
        );
        assert!(
            wall >= std::time::Duration::from_millis(2 * u64::from(N)),
            "{wall:?}"
        );
        assert_eq!(c.stat("tracker").unwrap().invocations, u64::from(N));
    }

    #[test]
    fn nested_host_sections_each_realize_their_own_sum() {
        let c = Clock::with_mode(ClockMode::Latency);
        let start = std::time::Instant::now();
        let after_inner = c.host_section(|| {
            c.charge_labeled("outer", 10.0);
            c.host_section(|| c.charge_labeled("inner", 5.0));
            start.elapsed()
        });
        let wall = start.elapsed();
        // The inner section slept its 5 ms at its own close; the outer's
        // 10 ms waited for the outer close.
        assert!(
            after_inner >= std::time::Duration::from_millis(5),
            "{after_inner:?}"
        );
        assert!(
            after_inner < std::time::Duration::from_millis(15),
            "{after_inner:?}"
        );
        assert!(wall >= std::time::Duration::from_millis(15), "{wall:?}");
    }

    #[test]
    fn host_section_survives_a_panic_without_leaking() {
        let c = Clock::with_mode(ClockMode::Latency);
        let start = std::time::Instant::now();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.host_section(|| {
                c.charge_labeled("tracker", 50.0);
                panic!("injected");
            })
        }));
        assert!(r.is_err());
        // An aborted section's charges are bookkept but not slept...
        assert!(start.elapsed() < std::time::Duration::from_millis(50));
        assert!((c.virtual_ms() - 50.0).abs() < 1e-9);
        // ...and its entry is gone: the next charge sleeps at once.
        let start = std::time::Instant::now();
        c.charge_labeled("tracker", 10.0);
        let wall = start.elapsed();
        assert!(wall >= std::time::Duration::from_millis(9), "{wall:?}");
    }

    #[test]
    fn waits_sleep_where_they_are_charged_even_in_a_host_section() {
        let c = Clock::with_mode(ClockMode::Latency);
        let start = std::time::Instant::now();
        let after_wait = c.host_section(|| {
            c.charge_labeled("tracker", 20.0);
            c.wait_labeled("retry_backoff", 5.0);
            start.elapsed()
        });
        assert!(
            after_wait >= std::time::Duration::from_millis(5),
            "{after_wait:?}"
        );
        assert!(
            after_wait < std::time::Duration::from_millis(20),
            "{after_wait:?}"
        );
        assert!(start.elapsed() >= std::time::Duration::from_millis(25));
    }

    #[test]
    fn device_pool_overlaps_up_to_n() {
        // Devices(3): three concurrent 20ms charges land on distinct
        // devices (least-loaded) and overlap, where Devices(1) would
        // serialize them to 60ms+.
        let c = std::sync::Arc::new(
            Clock::with_mode(ClockMode::Latency).with_device(DeviceModel::Devices(3)),
        );
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || c.charge_model("m", 20.0));
            }
        });
        assert!(
            start.elapsed() < std::time::Duration::from_millis(50),
            "{:?}",
            start.elapsed()
        );
        let stats = c.device_stats();
        assert_eq!(stats.len(), 3);
        assert!(
            stats.iter().all(|d| d.busy_ms >= 19.0),
            "least-loaded must spread one charge per device: {stats:?}"
        );
        assert!(stats.iter().all(|d| d.queued == 0), "{stats:?}");
        assert!((c.virtual_ms() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn devices_one_serializes_like_exclusive() {
        let c = std::sync::Arc::new(
            Clock::with_mode(ClockMode::Latency).with_device(DeviceModel::Devices(1)),
        );
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || c.charge_model("m", 12.0));
            }
        });
        assert!(
            start.elapsed() >= std::time::Duration::from_millis(30),
            "{:?}",
            start.elapsed()
        );
        assert_eq!(c.device_stats().len(), 1);
    }

    #[test]
    fn device_count_taxonomy() {
        assert_eq!(DeviceModel::Unbounded.device_count(), 0);
        assert_eq!(DeviceModel::Devices(0).device_count(), 1);
        assert_eq!(DeviceModel::Devices(4).device_count(), 4);
        assert!(Clock::new().device_stats().is_empty());
    }

    #[test]
    fn exclusive_device_serializes_model_sleeps() {
        let c = std::sync::Arc::new(
            Clock::with_mode(ClockMode::Latency).with_device(DeviceModel::Devices(1)),
        );
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || c.charge_model("m", 12.0));
            }
        });
        // 3 x 12ms must serialize on the device (>= 36ms), where the
        // Unbounded model would overlap them (~12ms).
        assert!(
            start.elapsed() >= std::time::Duration::from_millis(30),
            "{:?}",
            start.elapsed()
        );
        // Host charges never touch the device lock: the three sleeps
        // overlap (~12ms; the bound leaves 2.5x slack for loaded CI
        // machines while staying below the 36ms a serialized run takes).
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || c.charge_labeled("cpu", 12.0));
            }
        });
        assert!(
            start.elapsed() < std::time::Duration::from_millis(30),
            "{:?}",
            start.elapsed()
        );
    }
}
