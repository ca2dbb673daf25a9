//! Global version clock and the active-snapshot registry used for garbage
//! collection of old box versions.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Monotonically increasing global version clock.
///
/// Version `0` is reserved for the initial value of every box, so every
/// snapshot (including one taken before any commit) can read every box.
///
/// The clock is split into two counters so the striped commit path can
/// overlap installation across committers while keeping the multi-version
/// publication invariant — *once `now()` returns `V`, the writes of every
/// commit `<= V` are installed*:
///
/// - `reserve` hands out commit versions ([`GlobalClock::reserve`]); the
///   reservation order is the serialization order of top-level commits.
/// - `visible` trails `reserve` and only advances contiguously
///   ([`GlobalClock::publish`]): version `V` becomes visible after `V`'s
///   writes are installed **and** `V-1` is visible. A committer that aborts
///   after reserving publishes its version as a no-op to keep the sequence
///   gap-free.
#[derive(Debug, Default)]
pub struct GlobalClock {
    reserve: AtomicU64,
    visible: AtomicU64,
}

impl GlobalClock {
    /// Create a clock at version 0.
    pub fn new() -> Self {
        Self { reserve: AtomicU64::new(0), visible: AtomicU64::new(0) }
    }

    /// Current global version; new transactions snapshot at this version.
    ///
    /// `Acquire` would suffice to see the installs of every visible version;
    /// the load is `SeqCst` because the snapshot-pin protocol orders a
    /// registration's read after its `SeqCst` claim, and the watermark
    /// scan's read before its `SeqCst` slot loads (see [`SnapshotRegistry`]).
    /// On x86-64 both orderings compile to the same plain load.
    #[inline]
    pub fn now(&self) -> u64 {
        self.visible.load(Ordering::SeqCst)
    }

    /// Advance the clock by one and return the new version.
    ///
    /// Legacy single-committer advance used by the global-lock commit path:
    /// only called while holding the commit lock, so bumping both counters
    /// is not racy with other committers; `AcqRel` publishes the new version
    /// to transaction-begin loads.
    #[inline]
    pub fn tick(&self) -> u64 {
        let v = self.reserve.fetch_add(1, Ordering::AcqRel) + 1;
        self.visible.store(v, Ordering::Release);
        v
    }

    /// Reserve the next commit version (striped path). The `AcqRel`
    /// read-modify-write chains all reservations into a single modification
    /// order: a committer reserving `V` observes every write that committers
    /// of versions `< V` performed before their own reservations.
    #[inline]
    pub fn reserve(&self) -> u64 {
        self.reserve.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Make reserved version `v` visible. Blocks (spinning) until `v - 1` is
    /// visible so the visible clock only ever advances contiguously. Safe
    /// against deadlock because the striped path acquires all stripe locks
    /// *before* reserving: an earlier reserver can never be waiting on a
    /// later reserver's locks.
    #[inline]
    pub fn publish(&self, v: u64) {
        while self.visible.load(Ordering::Acquire) != v - 1 {
            std::hint::spin_loop();
            std::thread::yield_now();
        }
        self.visible.store(v, Ordering::Release);
    }
}

/// Lease-disabled sentinel for [`SnapshotRegistry::set_lease`] (nanoseconds).
const NO_LEASE: u64 = u64::MAX;

/// [`Slot`] state bit: the slot is claimed by a live [`SnapshotGuard`].
const OCCUPIED: u64 = 1;
/// [`Slot`] state bit: the watermark computation stopped honouring this
/// occupancy's expired lease; the owner polls it and must abort.
const EVICTED: u64 = 2;
/// [`Slot`] state increment of the claim generation kept in the high bits.
/// Every claim bumps it, so an eviction aimed at one occupancy can never land
/// on the next.
const GEN_ONE: u64 = 4;
/// [`Slot`] deadline of an unleased registration, and of a free slot.
const NEVER: u64 = u64::MAX;

/// Slots in the first segment; segment `k >= 1` holds
/// `FIRST_SEGMENT << (k - 1)`, so the capacity doubles on every growth and
/// stays a power of two.
const FIRST_SEGMENT: usize = 16;
/// Segments the registry can grow to (`FIRST_SEGMENT << 23` slots).
const MAX_SEGMENTS: usize = 24;

/// Source of per-thread home slots: consecutive threads start their probe at
/// consecutive slots, so concurrent snapshots rarely meet.
static NEXT_HOME: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static HOME: usize = NEXT_HOME.fetch_add(1, Ordering::Relaxed);
}

/// The state a claim installs over the free state `free`: the next
/// generation, occupied, and the eviction flag of the previous occupancy
/// cleared.
fn claimed(free: u64) -> u64 {
    (free & !(OCCUPIED | EVICTED)).wrapping_add(GEN_ONE) | OCCUPIED
}

/// One snapshot pin, alone on its cache lines so that threads pinning in
/// different slots never share one.
///
/// Apart from the compositions [`Slot::release`] and [`Slot::observe`],
/// each method is one protocol step (the claim's plain pre-check load only
/// skips a CAS bound to fail). The interleaving model in this module's
/// tests drives the steps in the order those compositions and
/// [`SnapshotRegistry::register_current`] use them.
#[derive(Debug)]
#[repr(align(128))]
struct Slot {
    /// Claim generation, [`EVICTED`] and [`OCCUPIED`].
    state: AtomicU64,
    /// The pinned snapshot version. Between a claim and its publish this
    /// still holds the previous occupant's version, which is no newer than
    /// any version a clock read after the claim returns.
    version: AtomicU64,
    /// Lease deadline in nanoseconds since the registry's epoch, or
    /// [`NEVER`]. Reset to `NEVER` before the slot is freed, so a scan never
    /// judges an occupancy by its predecessor's lease.
    deadline: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Self {
            state: AtomicU64::new(0),
            version: AtomicU64::new(0),
            deadline: AtomicU64::new(NEVER),
        }
    }

    /// Claim the slot if it is free. `SeqCst`: in the single total order the
    /// claim precedes the owner's clock read, which a concurrent watermark
    /// scan relies on.
    fn try_claim(&self) -> bool {
        self.try_claim_as(claimed)
    }

    /// [`Slot::try_claim`] with the state transition as a parameter, so the
    /// interleaving model can run a broken one against the same slot.
    #[inline]
    fn try_claim_as(&self, next: fn(u64) -> u64) -> bool {
        let s = self.state.load(Ordering::Relaxed);
        s & OCCUPIED == 0
            && self.state.compare_exchange(s, next(s), Ordering::SeqCst, Ordering::Relaxed).is_ok()
    }

    fn set_deadline(&self, deadline: u64) {
        self.deadline.store(deadline, Ordering::Relaxed);
    }

    fn publish(&self, version: u64) {
        self.version.store(version, Ordering::Release);
    }

    fn clear_deadline(&self) {
        self.deadline.store(NEVER, Ordering::Relaxed);
    }

    /// Clear [`OCCUPIED`]. Only the owner writes the state while occupied,
    /// except for an eviction; one landing between the load and the store is
    /// overwritten, which is harmless: the next claim clears the flag anyway.
    fn free(&self) {
        let s = self.state.load(Ordering::Relaxed);
        self.state.store(s & !OCCUPIED, Ordering::Release);
    }

    fn release(&self) {
        self.clear_deadline();
        self.free();
    }

    fn load_state(&self) -> u64 {
        self.state.load(Ordering::SeqCst)
    }

    fn deadline_passed(&self, wall_ns: u64) -> bool {
        self.deadline.load(Ordering::Relaxed) <= wall_ns
    }

    fn load_version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Read an occupied, unevicted slot for a watermark scan: its state word,
    /// whether its lease has passed at `wall_ns`, and its version.
    fn observe(&self, wall_ns: u64) -> Option<(u64, bool, u64)> {
        let state = self.load_state();
        if state & (OCCUPIED | EVICTED) != OCCUPIED {
            return None;
        }
        let expired = self.deadline_passed(wall_ns);
        Some((state, expired, self.load_version()))
    }

    /// Mark the occupancy whose state word was `seen` evicted. Fails if that
    /// occupancy has released since: the generation moved on.
    fn try_evict(&self, seen: u64) -> bool {
        self.state
            .compare_exchange(seen, seen | EVICTED, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    fn is_evicted(&self) -> bool {
        self.state.load(Ordering::Acquire) & EVICTED != 0
    }
}

/// Registry of snapshot versions currently in use by live transactions.
///
/// Multi-version STMs must retain any box version that a live snapshot may
/// still read. The registry's minimum pinned version is the GC watermark:
/// every box can drop versions strictly older than the newest version `<=`
/// watermark.
///
/// **Slots.** Each live snapshot holds one cache-line-aligned pin slot. A
/// registration claims the slot its thread's home index names, or probes on
/// to the next free one (a `read_only` nested inside an `atomic` finds its
/// home taken). Beginning and ending a snapshot therefore touch only the
/// claimed slot: no shared lock, no allocation, no shared counter. When
/// every slot is taken the registry grows by a segment as large as all
/// existing ones, under a lock only growers take; segments are never moved
/// or freed while the registry lives, so a slot reference or index stays
/// valid. Two invariants carry the protocol:
///
/// 1. **The clock is read while the slot is held.**
///    [`SnapshotRegistry::register_current`] claims its slot, then reads the
///    clock, then publishes the version; the watermark computation reads the
///    clock first, then scans the slots. A scan that misses a claim read the
///    clock before that claim, so the registration's version is at least the
///    scan's clock value; a scan that sees the claim before the publish reads
///    the previous occupant's version, which is no newer.
/// 2. **Eviction is per occupancy.** The scan marks an expired occupancy
///    evicted with a compare-and-swap on the slot's state word, which holds a
///    claim generation, so the flag never lands on a later occupant; the
///    owner polls it and stays doomed. A slot is not reused while its guard
///    lives, and a claim clears the previous occupant's flag.
///
/// The `clock` module tests check both by enumerating every interleaving of
/// the atomic steps of one registration, one scan, a commit tick and a
/// release/reclaim racing an eviction.
///
/// **Leases.** Each registration taken through
/// [`SnapshotRegistry::register_current`] carries a lease deadline (from
/// [`SnapshotRegistry::set_lease`]; disabled by default). A lease-expired
/// snapshot no longer pins the watermark: the next watermark computation
/// marks it *evicted* and skips it, so one stalled reader cannot hold the
/// version heap hostage. The owning transaction observes the eviction through
/// [`SnapshotGuard::is_evicted`] and must abort (`StmError::SnapshotEvicted`)
/// rather than trust any further reads.
#[derive(Debug)]
pub struct SnapshotRegistry {
    /// Segment `k` holds `FIRST_SEGMENT << k.saturating_sub(1)` slots;
    /// installed in order, only under `grow_lock`.
    segments: [OnceLock<Box<[Slot]>>; MAX_SEGMENTS],
    /// Slots usable so far (a power of two); only grows.
    capacity: AtomicUsize,
    grow_lock: Mutex<()>,
    /// Origin of the slots' deadline timestamps.
    epoch: Instant,
    /// Current lease duration in nanoseconds for new leased registrations;
    /// [`NO_LEASE`] disables leasing. Runtime-adjustable: the memory ladder
    /// shortens it under pressure.
    lease_ns: AtomicU64,
    /// Total snapshots ever evicted (monotonic; mirrored into stats by the
    /// GC driver via the watermark return value).
    evictions: AtomicU64,
}

impl Default for SnapshotRegistry {
    fn default() -> Self {
        let segments: [OnceLock<Box<[Slot]>>; MAX_SEGMENTS] = Default::default();
        let _ = segments[0].set((0..FIRST_SEGMENT).map(|_| Slot::new()).collect());
        Self {
            segments,
            capacity: AtomicUsize::new(FIRST_SEGMENT),
            grow_lock: Mutex::new(()),
            epoch: Instant::now(),
            lease_ns: AtomicU64::new(NO_LEASE),
            evictions: AtomicU64::new(0),
        }
    }
}

/// Segment and offset of slot `index`.
fn locate(index: usize) -> (usize, usize) {
    if index < FIRST_SEGMENT {
        return (0, index);
    }
    let k = (usize::BITS - (index / FIRST_SEGMENT).leading_zeros()) as usize;
    (k, index - (FIRST_SEGMENT << (k - 1)))
}

impl SnapshotRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pin slots; grows (doubling) once more snapshots are live at
    /// once than it has slots.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Acquire)
    }

    fn slot(&self, index: usize) -> &Slot {
        let (k, offset) = locate(index);
        &self.segments[k].get().expect("slot index below capacity")[offset]
    }

    /// The first `capacity` slots, in index order.
    fn slots(&self, capacity: usize) -> impl Iterator<Item = &Slot> {
        self.segments.iter().map_while(OnceLock::get).flat_map(|seg| seg.iter()).take(capacity)
    }

    /// Claim a free slot, starting at this thread's home index.
    fn claim(&self) -> (usize, &Slot) {
        // The home index is only a hint: any start finds a free slot.
        let home = HOME.try_with(|h| *h).unwrap_or(0);
        loop {
            let capacity = self.capacity.load(Ordering::Acquire);
            for i in 0..capacity {
                let index = (home + i) & (capacity - 1);
                let slot = self.slot(index);
                if slot.try_claim() {
                    return (index, slot);
                }
            }
            if let Some(claim) = self.grow(capacity) {
                return claim;
            }
        }
    }

    /// Double the capacity and claim the first new slot, unless another
    /// thread grew past `seen` meanwhile (then the caller probes again).
    #[cold]
    fn grow(&self, seen: usize) -> Option<(usize, &Slot)> {
        let _grow = self.grow_lock.lock();
        if self.capacity.load(Ordering::Acquire) != seen {
            return None;
        }
        let k = (seen / FIRST_SEGMENT).trailing_zeros() as usize + 1;
        assert!(k < MAX_SEGMENTS, "more than {seen} snapshots live at once");
        let _ = self.segments[k].set((0..seen).map(|_| Slot::new()).collect());
        let slot = self.slot(seen);
        let won = slot.try_claim();
        debug_assert!(won, "an unpublished slot is free");
        // `SeqCst`, like a claim: a scan that misses the new capacity read
        // the clock before the owner will.
        self.capacity.store(seen * 2, Ordering::SeqCst);
        Some((seen, slot))
    }

    /// Set the lease duration applied to *subsequent* leased registrations;
    /// `None` disables leasing. Existing registrations keep their deadlines
    /// (see [`SnapshotRegistry::clamp_deadlines`] for the urgent path).
    pub fn set_lease(&self, lease: Option<Duration>) {
        let ns = lease.map(|d| u64::try_from(d.as_nanos()).unwrap_or(NO_LEASE)).unwrap_or(NO_LEASE);
        self.lease_ns.store(ns, Ordering::Relaxed);
    }

    /// The lease currently applied to new leased registrations.
    pub fn lease(&self) -> Option<Duration> {
        match self.lease_ns.load(Ordering::Relaxed) {
            NO_LEASE => None,
            ns => Some(Duration::from_nanos(ns)),
        }
    }

    /// Nanoseconds since the registry's epoch: the deadline time base.
    fn wall_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(NEVER - 1)
    }

    /// Clamp every *leased* registration's deadline to at most
    /// `max_remaining` from now. The urgent rung of the memory ladder uses
    /// this so already-running stragglers feel a shortened lease too;
    /// unleased registrations are left alone.
    pub fn clamp_deadlines(&self, max_remaining: Duration) {
        let remaining = u64::try_from(max_remaining.as_nanos()).unwrap_or(NEVER);
        let cap = self.wall_ns().saturating_add(remaining).min(NEVER - 1);
        for slot in self.slots(self.capacity()) {
            let _ = slot.deadline.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                (d != NEVER && d > cap).then_some(cap)
            });
        }
    }

    fn current_deadline(&self) -> u64 {
        match self.lease_ns.load(Ordering::Relaxed) {
            NO_LEASE => NEVER,
            ns => self.wall_ns().saturating_add(ns).min(NEVER - 1),
        }
    }

    /// Register a transaction reading at `version`; returns a guard that
    /// deregisters on drop. Raw registrations are unleased (they never
    /// expire), and the caller vouches that `version` is still retained —
    /// runtime snapshots go through [`SnapshotRegistry::register_current`],
    /// which reads the clock itself and leases.
    pub fn register(&self, version: u64) -> SnapshotGuard<'_> {
        let (index, slot) = self.claim();
        slot.publish(version);
        SnapshotGuard { slot, index, version }
    }

    /// Register a transaction at `clock`'s *current* version, read while the
    /// claimed slot is held, with the registry's current lease applied.
    ///
    /// This closes a race that [`SnapshotRegistry::register`] leaves open
    /// when the caller reads the clock itself: between the clock read and the
    /// registration, a GC can compute its watermark — not seeing the
    /// about-to-register snapshot — and prune the very versions that snapshot
    /// needs. Here the claim comes first, and
    /// [`SnapshotRegistry::gc_watermark`] reads the clock before it scans:
    /// a scan that misses the claim read a clock value `<=` the version
    /// registered (both clock reads and the claim are `SeqCst`), and one
    /// that sees it is held back by it.
    pub fn register_current(&self, clock: &GlobalClock) -> SnapshotGuard<'_> {
        let deadline = self.current_deadline();
        let (index, slot) = self.claim();
        slot.set_deadline(deadline);
        let version = clock.now();
        slot.publish(version);
        SnapshotGuard { slot, index, version }
    }

    /// The GC watermark: the oldest version any live *or future* snapshot can
    /// read — `min(oldest unexpired registered, clock now)`, with the clock
    /// read before the slots are scanned (see
    /// [`SnapshotRegistry::register_current`]). Every box may drop versions
    /// strictly older than the newest entry `<=` this. Registrations whose
    /// lease has expired are marked evicted here and stop pinning.
    pub fn gc_watermark(&self, clock: &GlobalClock) -> u64 {
        self.gc_watermark_evicting(clock).0
    }

    /// [`SnapshotRegistry::gc_watermark`], also returning how many snapshots
    /// were newly marked evicted by this computation (for stats/tracing).
    ///
    /// The first pass takes the minimum over unexpired pins. Only if it met
    /// an expired one does a second pass evict, and only the expired
    /// occupancies older than that minimum: an expired snapshot that does not
    /// hold the watermark back keeps running.
    pub fn gc_watermark_evicting(&self, clock: &GlobalClock) -> (u64, usize) {
        let wall = self.wall_ns();
        let mut watermark = clock.now();
        let capacity = self.capacity.load(Ordering::SeqCst);
        let mut lapsed = false;
        for slot in self.slots(capacity) {
            match slot.observe(wall) {
                Some((_, true, _)) => lapsed = true,
                Some((_, false, version)) => watermark = watermark.min(version),
                None => {}
            }
        }
        let mut newly_evicted = 0usize;
        if lapsed {
            for slot in self.slots(capacity) {
                if let Some((state, true, version)) = slot.observe(wall) {
                    if version < watermark && slot.try_evict(state) {
                        newly_evicted += 1;
                    }
                }
            }
            self.evictions.fetch_add(newly_evicted as u64, Ordering::Relaxed);
        }
        (watermark, newly_evicted)
    }

    /// Total snapshots evicted over the registry's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Versions of the occupied slots (evicted-but-undropped included).
    fn pinned_versions(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots(self.capacity())
            .filter(|slot| slot.load_state() & OCCUPIED != 0)
            .map(Slot::load_version)
    }

    /// Oldest snapshot version still registered (evicted-but-undropped
    /// registrations included), if any transaction is live.
    pub fn min_active(&self) -> Option<u64> {
        self.pinned_versions().min()
    }

    /// Number of live registered snapshots (including evicted ones whose
    /// owners have not yet noticed and dropped their guards).
    pub fn live_count(&self) -> usize {
        self.pinned_versions().count()
    }

    /// Whether the snapshot pinned in slot `index` was evicted. Only
    /// meaningful while that snapshot's guard lives (see
    /// [`SnapshotGuard::slot_index`]).
    pub(crate) fn is_evicted(&self, index: usize) -> bool {
        self.slot(index).is_evicted()
    }
}

/// RAII guard keeping a snapshot version pinned in its
/// [`SnapshotRegistry`] slot.
#[derive(Debug)]
pub struct SnapshotGuard<'a> {
    slot: &'a Slot,
    index: usize,
    version: u64,
}

impl SnapshotGuard<'_> {
    /// The snapshot version this guard pins.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether the lease expired and the GC stopped honouring this snapshot.
    /// Once true, versions this snapshot needs may be pruned at any moment;
    /// the owning transaction must abort with `StmError::SnapshotEvicted`.
    pub fn is_evicted(&self) -> bool {
        self.slot.is_evicted()
    }

    /// The slot this guard holds, for transaction state that polls the
    /// eviction flag through [`SnapshotRegistry::is_evicted`] without
    /// holding the guard itself. The slot is not reused while the guard
    /// lives.
    pub fn slot_index(&self) -> usize {
        self.index
    }
}

impl Drop for SnapshotGuard<'_> {
    fn drop(&mut self) {
        self.slot.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn clock_starts_at_zero_and_ticks() {
        let c = GlobalClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.tick(), 1);
        assert_eq!(c.tick(), 2);
        assert_eq!(c.now(), 2);
    }

    #[test]
    fn reserve_publish_is_contiguous_across_threads() {
        let c = Arc::new(GlobalClock::new());
        let mut handles = vec![];
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..250 {
                    let v = c.reserve();
                    c.publish(v);
                    assert!(c.now() >= v, "publish({v}) must make v visible");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now(), 1000);
    }

    #[test]
    fn tick_interleaves_with_reserve_publish() {
        let c = GlobalClock::new();
        assert_eq!(c.tick(), 1);
        let v = c.reserve();
        assert_eq!(v, 2);
        assert_eq!(c.now(), 1, "reserved but unpublished version is invisible");
        c.publish(v);
        assert_eq!(c.now(), 2);
        assert_eq!(c.tick(), 3);
    }

    #[test]
    fn registry_tracks_min_active() {
        let r = Arc::new(SnapshotRegistry::new());
        assert_eq!(r.min_active(), None);
        let g5 = r.register(5);
        let g3 = r.register(3);
        let g3b = r.register(3);
        assert_eq!(r.min_active(), Some(3));
        assert_eq!(r.live_count(), 3);
        drop(g3);
        assert_eq!(r.min_active(), Some(3), "second refcount still pins 3");
        drop(g3b);
        assert_eq!(r.min_active(), Some(5));
        drop(g5);
        assert_eq!(r.min_active(), None);
        assert_eq!(r.live_count(), 0);
    }

    #[test]
    fn register_current_pins_the_clock_version_against_gc() {
        let r = Arc::new(SnapshotRegistry::new());
        let c = GlobalClock::new();
        c.tick();
        c.tick();
        let g = r.register_current(&c);
        assert_eq!(g.version(), 2);
        assert_eq!(r.min_active(), Some(2));
        c.tick();
        // The watermark can never exceed a live registered snapshot...
        assert_eq!(r.gc_watermark(&c), 2);
        drop(g);
        // ...and with none live it is the clock itself.
        assert_eq!(r.gc_watermark(&c), 3);
    }

    #[test]
    fn registry_guard_reports_version() {
        let r = Arc::new(SnapshotRegistry::new());
        let g = r.register(42);
        assert_eq!(g.version(), 42);
    }

    #[test]
    fn expired_lease_stops_pinning_and_marks_eviction() {
        let r = Arc::new(SnapshotRegistry::new());
        let c = GlobalClock::new();
        c.tick();
        r.set_lease(Some(Duration::from_millis(1)));
        assert_eq!(r.lease(), Some(Duration::from_millis(1)));
        let g = r.register_current(&c);
        assert_eq!(g.version(), 1);
        c.tick();
        assert_eq!(r.gc_watermark(&c), 1, "unexpired lease pins the watermark");
        std::thread::sleep(Duration::from_millis(10));
        let (wm, newly) = r.gc_watermark_evicting(&c);
        assert_eq!(wm, 2, "expired lease no longer pins");
        assert_eq!(newly, 1);
        assert!(g.is_evicted());
        assert_eq!(r.evictions(), 1);
        assert_eq!(r.gc_watermark_evicting(&c).1, 0, "eviction is marked once");
        // The registration itself lives until the guard drops.
        assert_eq!(r.live_count(), 1);
        drop(g);
        assert_eq!(r.live_count(), 0);
    }

    #[test]
    fn unleased_registrations_never_expire() {
        let r = Arc::new(SnapshotRegistry::new());
        let c = GlobalClock::new();
        c.tick();
        let g = r.register(1);
        c.tick();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(r.gc_watermark(&c), 1, "raw registrations pin forever");
        assert!(!g.is_evicted());
        drop(g);
        assert_eq!(r.gc_watermark(&c), 2);
    }

    #[test]
    fn clamp_deadlines_shortens_existing_leases() {
        let r = Arc::new(SnapshotRegistry::new());
        let c = GlobalClock::new();
        c.tick();
        r.set_lease(Some(Duration::from_secs(3600)));
        let g = r.register_current(&c);
        c.tick();
        assert_eq!(r.gc_watermark(&c), 1);
        r.clamp_deadlines(Duration::ZERO);
        assert_eq!(r.gc_watermark(&c), 2, "clamped lease expires immediately");
        assert!(g.is_evicted());
    }

    #[test]
    fn concurrent_register_deregister() {
        let r = Arc::new(SnapshotRegistry::new());
        let mut handles = vec![];
        for i in 0..8u64 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for j in 0..100 {
                    let g = r.register(i * 100 + j);
                    assert!(r.live_count() >= 1);
                    drop(g);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.live_count(), 0);
        assert_eq!(r.min_active(), None);
    }

    #[test]
    fn registry_grows_past_its_initial_slots_and_counts_exactly() {
        let r = Arc::new(SnapshotRegistry::new());
        let initial = r.capacity();
        let held = initial * 3 + 1;
        let guards: Vec<_> = (0..held).map(|v| r.register(v as u64 + 7)).collect();
        assert!(r.capacity() >= held, "capacity {} for {held} live snapshots", r.capacity());
        assert_eq!(r.live_count(), held);
        assert_eq!(r.min_active(), Some(7));
        let mut slots: Vec<usize> = guards.iter().map(SnapshotGuard::slot_index).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), held, "every live snapshot holds its own slot");
        let grown = r.capacity();
        drop(guards);
        assert_eq!(r.live_count(), 0);
        assert_eq!(r.min_active(), None);
        assert_eq!(r.capacity(), grown, "segments are never freed while the registry lives");
    }

    #[test]
    fn concurrent_registrations_grow_without_losing_a_pin() {
        let r = Arc::new(SnapshotRegistry::new());
        let c = Arc::new(GlobalClock::new());
        let threads = r.capacity() + 4;
        let barrier = Arc::new(std::sync::Barrier::new(threads + 1));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (r, c, barrier) = (Arc::clone(&r), Arc::clone(&c), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    let outer = r.register_current(&c);
                    let inner = r.register_current(&c);
                    barrier.wait();
                    barrier.wait();
                    (outer.version(), inner.version())
                })
            })
            .collect();
        barrier.wait();
        assert_eq!(r.live_count(), 2 * threads);
        assert!(r.capacity() >= 2 * threads);
        c.tick();
        assert_eq!(r.gc_watermark(&c), 0, "every live pin holds the watermark at 0");
        barrier.wait();
        for h in handles {
            assert_eq!(h.join().unwrap(), (0, 0));
        }
        assert_eq!(r.live_count(), 0);
        assert_eq!(r.gc_watermark(&c), 1);
    }

    #[test]
    fn a_reclaimed_evicted_slot_starts_clean() {
        let r = Arc::new(SnapshotRegistry::new());
        let c = GlobalClock::new();
        c.tick();
        r.set_lease(Some(Duration::from_millis(1)));
        let g = r.register_current(&c);
        let slot = g.slot_index();
        c.tick();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(r.gc_watermark_evicting(&c), (2, 1));
        assert!(g.is_evicted());
        drop(g);
        r.set_lease(Some(Duration::from_secs(3600)));
        let again = r.register_current(&c);
        assert_eq!(again.slot_index(), slot, "the thread's home slot is free again");
        assert!(!again.is_evicted(), "a reclaimed slot must not inherit the eviction");
        assert!(!r.is_evicted(slot));
        c.tick();
        assert_eq!(r.gc_watermark_evicting(&c), (2, 0), "the new occupant pins");
    }

    /// Exhaustive interleaving model of the snapshot-pin protocol.
    ///
    /// Each model thread is a fixed sequence of the single atomic accesses
    /// the registry performs on one [`Slot`] and on the clock; every
    /// interleaving of the threads is replayed on a fresh slot and clock.
    /// Replaying them on one thread gives sequentially consistent executions,
    /// which is what the protocol's `SeqCst` claim, clock reads and state
    /// loads guarantee for the orderings it depends on. The capacity load of
    /// a scan is not modelled: the model has one slot.
    mod pin_model {
        use super::*;

        #[derive(Clone, Copy, Debug)]
        enum RegStep {
            Claim,
            Deadline,
            Clock,
            Publish,
        }

        /// [`SnapshotRegistry::register_current`]'s order.
        const REGISTER: [RegStep; 4] =
            [RegStep::Claim, RegStep::Deadline, RegStep::Clock, RegStep::Publish];
        /// Seeded bug: the clock read before the slot is held.
        const CLOCK_BEFORE_CLAIM: [RegStep; 4] =
            [RegStep::Clock, RegStep::Claim, RegStep::Deadline, RegStep::Publish];

        /// Seeded bug: a claim that keeps the previous occupant's eviction.
        fn claimed_keeping_eviction(free: u64) -> u64 {
            (free & !OCCUPIED).wrapping_add(GEN_ONE) | OCCUPIED
        }

        struct Registrant {
            order: [RegStep; 4],
            claim: fn(u64) -> u64,
            deadline: u64,
            pc: usize,
            version: Option<u64>,
        }

        impl Registrant {
            fn new(order: [RegStep; 4], claim: fn(u64) -> u64, deadline: u64) -> Self {
                Self { order, claim, deadline, pc: 0, version: None }
            }

            /// Run the next step; `false` if the claim found the one slot
            /// taken (the real registry would probe elsewhere, so the
            /// schedule is outside the model).
            fn step(&mut self, slot: &Slot, clock: &GlobalClock) -> bool {
                let step = self.order[self.pc];
                self.pc += 1;
                match step {
                    RegStep::Claim => return slot.try_claim_as(self.claim),
                    RegStep::Deadline => slot.set_deadline(self.deadline),
                    RegStep::Clock => self.version = Some(clock.now()),
                    RegStep::Publish => slot.publish(self.version.expect("clock read")),
                }
                true
            }
        }

        /// [`SnapshotRegistry::gc_watermark_evicting`] over one slot: the
        /// clock, then [`Slot::observe`]'s three loads for the minimum, then
        /// (if the slot had lapsed) the loads again and the eviction CAS.
        const COLLECTOR_STEPS: usize = 8;

        #[derive(Default)]
        struct Collector {
            wall: u64,
            pc: usize,
            watermark: u64,
            lapsed: bool,
            seen: Option<u64>,
            expired: bool,
            version: u64,
            evict_tried: bool,
            evicted: bool,
        }

        impl Collector {
            fn step(&mut self, slot: &Slot, clock: &GlobalClock) {
                let pc = self.pc;
                self.pc += 1;
                let pass2 = pc >= 4;
                if pass2 && !self.lapsed {
                    return;
                }
                match pc {
                    0 => self.watermark = clock.now(),
                    1 | 4 => {
                        let s = slot.load_state();
                        self.seen = (s & (OCCUPIED | EVICTED) == OCCUPIED).then_some(s);
                    }
                    2 | 5 if self.seen.is_some() => self.expired = slot.deadline_passed(self.wall),
                    3 | 6 if self.seen.is_some() => self.version = slot.load_version(),
                    7 => {
                        if let Some(s) = self.seen {
                            if self.expired && self.version < self.watermark {
                                self.evict_tried = true;
                                self.evicted = slot.try_evict(s);
                            }
                        }
                    }
                    _ => {}
                }
                if pc == 3 && self.seen.is_some() {
                    if self.expired {
                        self.lapsed = true;
                    } else {
                        self.watermark = self.watermark.min(self.version);
                    }
                }
            }

            fn done(&self) -> bool {
                self.pc == COLLECTOR_STEPS
            }
        }

        /// Calls `run` with every interleaving of threads that take
        /// `lens[t]` steps each (a schedule lists the thread of each step).
        fn for_each_schedule(lens: &[usize], run: &mut dyn FnMut(&[usize])) {
            fn go(left: &mut [usize], schedule: &mut Vec<usize>, run: &mut dyn FnMut(&[usize])) {
                if left.iter().all(|&n| n == 0) {
                    return run(schedule);
                }
                for t in 0..left.len() {
                    if left[t] > 0 {
                        left[t] -= 1;
                        schedule.push(t);
                        go(left, schedule, run);
                        schedule.pop();
                        left[t] += 1;
                    }
                }
            }
            go(&mut lens.to_vec(), &mut Vec::new(), run);
        }

        /// Schedules explored, and how often the eviction CAS won and lost.
        #[derive(Debug, Default)]
        struct Coverage {
            schedules: u64,
            evictions: u64,
            evictions_lost: u64,
        }

        /// One registration, one watermark scan and one commit tick on a
        /// fresh slot. A registration's version must never be below the
        /// watermark, which could prune what it reads.
        fn register_vs_watermark(order: [RegStep; 4]) -> Result<Coverage, String> {
            let mut cov = Coverage::default();
            let mut failure = None;
            for_each_schedule(&[COLLECTOR_STEPS, 4, 1], &mut |schedule| {
                if failure.is_some() {
                    return;
                }
                let (slot, clock) = (Slot::new(), GlobalClock::new());
                let mut gc = Collector { wall: 10, ..Collector::default() };
                let mut reg = Registrant::new(order, claimed, NEVER);
                for &t in schedule {
                    match t {
                        0 => gc.step(&slot, &clock),
                        1 => assert!(reg.step(&slot, &clock), "the only claimant"),
                        _ => {
                            clock.tick();
                        }
                    }
                }
                cov.schedules += 1;
                let version = reg.version.expect("registered");
                if version < gc.watermark || slot.is_evicted() {
                    failure = Some(format!(
                        "{schedule:?}: snapshot {version} under watermark {}",
                        gc.watermark
                    ));
                }
            });
            failure.map_or(Ok(cov), Err)
        }

        /// Bugs the release/reclaim model can seed.
        #[derive(Clone, Copy, Default)]
        struct Seeded {
            clock_before_claim: bool,
            claim_keeps_eviction: bool,
            release_keeps_deadline: bool,
        }

        /// An expired occupant P (version 0) releases its slot while a scan
        /// runs, a new occupant N with a live lease reclaims it, and one
        /// commit ticks. N must never be evicted or pinned below the
        /// watermark; a scan that finishes while P still holds the slot must
        /// have evicted P.
        fn release_reclaim_vs_eviction(bugs: Seeded) -> Result<Coverage, String> {
            let mut cov = Coverage::default();
            let mut failure = None;
            let order = if bugs.clock_before_claim { CLOCK_BEFORE_CLAIM } else { REGISTER };
            let claim = if bugs.claim_keeps_eviction { claimed_keeping_eviction } else { claimed };
            for_each_schedule(&[COLLECTOR_STEPS, 2, 4, 1], &mut |schedule| {
                if failure.is_some() {
                    return;
                }
                let (slot, clock) = (Slot::new(), GlobalClock::new());
                assert!(slot.try_claim());
                slot.set_deadline(5);
                slot.publish(clock.now());
                let p_state = slot.load_state();
                clock.tick();
                let mut gc = Collector { wall: 10, ..Collector::default() };
                let mut p_pc = 0;
                let mut n = Registrant::new(order, claim, 1_000);
                for &t in schedule {
                    match t {
                        0 => {
                            gc.step(&slot, &clock);
                            let p_evicted = slot.load_state() == p_state | EVICTED;
                            if gc.done() && p_pc == 0 && !p_evicted {
                                failure = Some(format!(
                                    "{schedule:?}: watermark {} passed live snapshot 0",
                                    gc.watermark
                                ));
                            }
                        }
                        1 => {
                            if p_pc == 0 && !bugs.release_keeps_deadline {
                                slot.clear_deadline();
                            } else if p_pc == 1 {
                                slot.free();
                            }
                            p_pc += 1;
                        }
                        2 => {
                            if !n.step(&slot, &clock) {
                                return; // claimed while P still held the slot
                            }
                        }
                        _ => {
                            clock.tick();
                        }
                    }
                }
                cov.schedules += 1;
                cov.evictions += gc.evicted as u64;
                cov.evictions_lost += (gc.evict_tried && !gc.evicted) as u64;
                let version = n.version.expect("registered");
                if slot.is_evicted() {
                    failure = Some(format!("{schedule:?}: the reclaimed slot is evicted"));
                } else if version < gc.watermark {
                    failure = Some(format!(
                        "{schedule:?}: snapshot {version} under watermark {}",
                        gc.watermark
                    ));
                }
            });
            if failure.is_none() && cov.schedules == 0 {
                failure = Some("no feasible schedule".into());
            }
            failure.map_or(Ok(cov), Err)
        }

        #[test]
        fn every_interleaving_keeps_registered_snapshots_above_the_watermark() {
            let cov = register_vs_watermark(REGISTER).unwrap();
            assert_eq!(cov.schedules, 6_435, "13!/(8!·4!·1!) interleavings");
            let cov = release_reclaim_vs_eviction(Seeded::default()).unwrap();
            println!("release/reclaim model: {cov:?}");
            assert!(cov.evictions > 0, "some scan evicts the expired occupant: {cov:?}");
            assert!(cov.evictions_lost > 0, "some eviction loses to a reclaim: {cov:?}");
        }

        #[test]
        fn reading_the_clock_before_the_claim_is_caught() {
            let err = register_vs_watermark(CLOCK_BEFORE_CLAIM).unwrap_err();
            assert!(err.contains("under watermark"), "{err}");
            let bugs = Seeded { clock_before_claim: true, ..Seeded::default() };
            assert!(release_reclaim_vs_eviction(bugs).is_err());
        }

        #[test]
        fn keeping_the_eviction_flag_on_reclaim_is_caught() {
            let bugs = Seeded { claim_keeps_eviction: true, ..Seeded::default() };
            let err = release_reclaim_vs_eviction(bugs).unwrap_err();
            assert!(err.contains("reclaimed slot is evicted"), "{err}");
        }

        #[test]
        fn keeping_the_old_deadline_on_release_is_caught() {
            let bugs = Seeded { release_keeps_deadline: true, ..Seeded::default() };
            let err = release_reclaim_vs_eviction(bugs).unwrap_err();
            assert!(err.contains("reclaimed slot is evicted"), "{err}");
        }
    }
}
