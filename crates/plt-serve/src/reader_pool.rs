//! Generation-aware reader pool: requests pin one snapshot for their
//! whole lifetime across background swaps.
//!
//! The pool holds the *current* value behind a slot; [`ReaderPool::pin`]
//! hands out a [`ReadGuard`] that keeps that slot's value alive until the
//! guard drops, however many [`swap`](ReaderPool::swap)s happen in
//! between. Two invariants, both property-tested:
//!
//! 1. **No mixed-generation views.** A guard dereferences to exactly the
//!    value that was current when it was pinned; its reported generation
//!    never changes mid-request.
//! 2. **No early frees.** A swapped-out value stays alive while any guard
//!    or worker cache pins its slot. Whoever releases the slot's last
//!    reference hands the value to the pool's *reclaimer* thread, which
//!    drops it at once — the pool itself keeps no reference to old slots.
//!
//! The reclaimer exists because a retired snapshot is large (tens of
//! thousands of itemsets, rules and position vectors) and freeing it
//! takes milliseconds. Without it, the reader that refreshes last — a
//! reactor answering a request — would pay that free before replying.
//! With it, releasing a slot costs a reader one channel send.
//!
//! The hot path is engineered for readers: the common case (`pin` while
//! no swap happened) is one `RwLock` read held for an `Arc` clone — and
//! reactor workers skip even that with a [`ReaderCache`], which
//! revalidates against a lock-free generation gauge and only touches the
//! lock after a swap. Pin accounting is two relaxed atomics per request,
//! surfaced in the `stats` endpoint as `reader_pool.active_pins`.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, RwLock};

/// What the reclaimer thread receives.
enum Retired<T> {
    /// A swapped-out value whose slot was released; dropped on arrival.
    Value(Arc<T>),
    /// Acked once everything sent before it has been dropped.
    #[cfg(test)]
    Fence(Sender<()>),
}

/// The reclaimer thread's loop. It exits once every sender — the pool's
/// and each live slot's — is gone.
fn reclaim<T>(retired: Receiver<Retired<T>>) {
    for item in retired {
        match item {
            Retired::Value(value) => drop(value),
            #[cfg(test)]
            Retired::Fence(ack) => {
                let _ = ack.send(());
            }
        }
    }
}

/// One published generation: the value plus its pin ledger.
#[derive(Debug)]
struct Slot<T: Send + Sync + 'static> {
    /// `Some` for the slot's whole life; `Drop` moves it to the
    /// reclaimer.
    value: Option<Arc<T>>,
    generation: u64,
    /// Guards handed out against this slot.
    pinned: AtomicU64,
    /// Guards released. `pinned - released` = requests in flight on this
    /// generation.
    released: AtomicU64,
    reclaimer: Sender<Retired<T>>,
}

impl<T: Send + Sync + 'static> Slot<T> {
    fn new(value: Arc<T>, generation: u64, reclaimer: &Sender<Retired<T>>) -> Slot<T> {
        Slot {
            value: Some(value),
            generation,
            pinned: AtomicU64::new(0),
            released: AtomicU64::new(0),
            reclaimer: reclaimer.clone(),
        }
    }

    fn value(&self) -> &Arc<T> {
        self.value
            .as_ref()
            .expect("a slot holds its value until it drops")
    }
}

impl<T: Send + Sync + 'static> Drop for Slot<T> {
    fn drop(&mut self) {
        if let Some(value) = self.value.take() {
            // The reclaimer outlives every slot (each holds a sender)
            // unless it panicked; then the value comes back and drops
            // here.
            let _ = self.reclaimer.send(Retired::Value(value));
        }
    }
}

/// Pins one generation's value for the lifetime of a request.
///
/// Dereferences to `T`. Cloning is deliberately not offered: a request
/// pins once and carries the guard; a second pin would be a second
/// request.
#[derive(Debug)]
pub struct ReadGuard<T: Send + Sync + 'static> {
    slot: Arc<Slot<T>>,
}

impl<T: Send + Sync + 'static> ReadGuard<T> {
    /// The generation this guard pinned (fixed at pin time).
    pub fn generation(&self) -> u64 {
        self.slot.generation
    }

    /// A clone of the pinned value's `Arc` — for callers that need to
    /// move the value somewhere the guard cannot follow. The guard keeps
    /// its own pin either way. A value held this way is freed by whoever
    /// drops the last clone, not by the reclaimer.
    pub fn value_arc(&self) -> Arc<T> {
        Arc::clone(self.slot.value())
    }
}

impl<T: Send + Sync + 'static> Deref for ReadGuard<T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.slot.value()
    }
}

impl<T: Send + Sync + 'static> Drop for ReadGuard<T> {
    fn drop(&mut self) {
        self.slot.released.fetch_add(1, Ordering::Relaxed);
    }
}

/// Per-worker cache of the current slot, for readers that must not take
/// the pool lock on every request (the reactor's poll loop). Revalidated
/// against the pool's lock-free generation gauge on every
/// [`ReaderPool::pin_with`]; stale caches refresh through the lock once
/// per swap, not once per request.
#[derive(Debug)]
pub struct ReaderCache<T: Send + Sync + 'static> {
    slot: Option<Arc<Slot<T>>>,
}

impl<T: Send + Sync + 'static> ReaderCache<T> {
    pub fn new() -> ReaderCache<T> {
        ReaderCache { slot: None }
    }
}

impl<T: Send + Sync + 'static> Default for ReaderCache<T> {
    fn default() -> Self {
        ReaderCache::new()
    }
}

/// The swap point: readers pin, a writer publishes.
#[derive(Debug)]
pub struct ReaderPool<T: Send + Sync + 'static> {
    current: RwLock<Arc<Slot<T>>>,
    /// Mirror of the current slot's generation, readable without the
    /// lock — the staleness check for [`ReaderCache`]s.
    generation: AtomicU64,
    /// Swaps performed over the pool's lifetime.
    swaps: AtomicU64,
    /// Hands released values to the reclaimer thread; each new slot
    /// carries a clone.
    reclaimer: Sender<Retired<T>>,
}

impl<T: Send + Sync + 'static> ReaderPool<T> {
    /// A pool serving `value` as `generation`, with its own reclaimer
    /// thread.
    pub fn new(value: Arc<T>, generation: u64) -> ReaderPool<T> {
        let (reclaimer, retired) = mpsc::channel();
        // Detached on purpose: slots held by guards and reader caches
        // may outlive the pool, and their values must still reach the
        // reclaimer. It exits once the last of those senders is gone.
        std::thread::Builder::new()
            .name("plt-serve-reclaimer".into())
            .spawn(move || reclaim(retired))
            .expect("spawn reclaimer thread");
        ReaderPool {
            current: RwLock::new(Arc::new(Slot::new(value, generation, &reclaimer))),
            generation: AtomicU64::new(generation),
            swaps: AtomicU64::new(0),
            reclaimer,
        }
    }

    /// Pins the current generation. The lock is held only for the `Arc`
    /// clone; the guard then lives lock-free.
    pub fn pin(&self) -> ReadGuard<T> {
        let slot = self.current.read().unwrap().clone();
        slot.pinned.fetch_add(1, Ordering::Relaxed);
        ReadGuard { slot }
    }

    /// Pins through a per-worker cache: when no swap happened since the
    /// cache last refreshed (the common case), this is entirely
    /// lock-free — one relaxed load against the generation gauge. A
    /// refresh that releases a retired slot's last reference costs one
    /// channel send; the reclaimer frees the value.
    pub fn pin_with(&self, cache: &mut ReaderCache<T>) -> ReadGuard<T> {
        let current_generation = self.generation.load(Ordering::Acquire);
        let fresh = matches!(&cache.slot, Some(slot) if slot.generation == current_generation);
        if !fresh {
            cache.slot = Some(self.current.read().unwrap().clone());
        }
        let slot = cache.slot.as_ref().unwrap().clone();
        slot.pinned.fetch_add(1, Ordering::Relaxed);
        ReadGuard { slot }
    }

    /// Publishes `value` as `generation`. In-flight guards keep their
    /// pinned slot; once its last guard (and any cache still holding it)
    /// releases, the swapped-out value goes to the reclaimer.
    pub fn swap(&self, value: Arc<T>, generation: u64) {
        let slot = Arc::new(Slot::new(value, generation, &self.reclaimer));
        // Order matters for cache revalidation: install the slot first,
        // then advance the gauge — a cache that sees the new generation
        // must find the new slot behind the lock.
        *self.current.write().unwrap() = slot;
        self.generation.store(generation, Ordering::Release);
        self.swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// The current generation (lock-free gauge).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Swaps performed so far.
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Requests currently holding a guard on the *current* generation.
    /// (Guards on swapped-out generations are invisible here by design —
    /// their slot is no longer reachable from the pool.)
    pub fn active_pins(&self) -> u64 {
        let slot = self.current.read().unwrap().clone();
        slot.pinned.load(Ordering::Relaxed) - slot.released.load(Ordering::Relaxed)
    }

    /// Blocks until the reclaimer has dropped every value released so
    /// far, so a test can count references without racing it.
    #[cfg(test)]
    fn settle(&self) {
        let (ack, done) = mpsc::channel();
        if self.reclaimer.send(Retired::Fence(ack)).is_ok() {
            let _ = done.recv();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn guards_pin_their_generation_across_swaps() {
        let pool = ReaderPool::new(Arc::new("g1"), 1);
        let guard = pool.pin();
        pool.swap(Arc::new("g2"), 2);
        assert_eq!(*guard, "g1");
        assert_eq!(guard.generation(), 1);
        assert_eq!(pool.generation(), 2);
        assert_eq!(*pool.pin(), "g2");
    }

    #[test]
    fn old_values_drop_when_the_last_guard_releases() {
        let old = Arc::new(vec![1u8, 2, 3]);
        let pool = ReaderPool::new(old.clone(), 1);
        let a = pool.pin();
        let b = pool.pin();
        pool.swap(Arc::new(vec![9]), 2);
        // Pool no longer references the old value; two guards do.
        assert!(Arc::strong_count(&old) >= 2);
        drop(a);
        assert!(Arc::strong_count(&old) >= 2, "b still pins");
        drop(b);
        pool.settle();
        assert_eq!(Arc::strong_count(&old), 1, "only the test's handle left");
    }

    /// Records the name of the thread that drops it.
    struct DropProbe {
        dropped_on: Arc<std::sync::Mutex<Option<String>>>,
    }

    impl Drop for DropProbe {
        fn drop(&mut self) {
            let name = std::thread::current().name().map(str::to_owned);
            *self.dropped_on.lock().unwrap() = Some(name.unwrap_or_default());
        }
    }

    #[test]
    fn retired_values_are_freed_on_the_reclaimer_thread() {
        let dropped_on = Arc::new(std::sync::Mutex::new(None));
        let probe = DropProbe {
            dropped_on: dropped_on.clone(),
        };
        let pool = ReaderPool::new(Arc::new(probe), 1);
        let mut cache = ReaderCache::new();
        let guard = pool.pin_with(&mut cache);
        let successor = DropProbe {
            dropped_on: Arc::new(std::sync::Mutex::new(None)),
        };
        pool.swap(Arc::new(successor), 2);
        // The cache refreshes onto generation 2; the guard still pins 1.
        drop(pool.pin_with(&mut cache));
        pool.settle();
        assert_eq!(*dropped_on.lock().unwrap(), None, "freed while pinned");
        // The last reference goes here, on the test thread — yet the
        // value must be freed on the reclaimer.
        drop(guard);
        pool.settle();
        assert_eq!(
            dropped_on.lock().unwrap().as_deref(),
            Some("plt-serve-reclaimer")
        );
    }

    #[test]
    fn cache_revalidates_after_a_swap() {
        let pool = ReaderPool::new(Arc::new(10u64), 1);
        let mut cache = ReaderCache::new();
        assert_eq!(*pool.pin_with(&mut cache), 10);
        assert_eq!(*pool.pin_with(&mut cache), 10); // cached, lock-free
        pool.swap(Arc::new(20), 2);
        let guard = pool.pin_with(&mut cache);
        assert_eq!(*guard, 20);
        assert_eq!(guard.generation(), 2);
    }

    #[test]
    fn active_pins_track_current_generation_guards() {
        let pool = ReaderPool::new(Arc::new(()), 1);
        assert_eq!(pool.active_pins(), 0);
        let a = pool.pin();
        let b = pool.pin();
        assert_eq!(pool.active_pins(), 2);
        drop(a);
        assert_eq!(pool.active_pins(), 1);
        // A swap starts a fresh ledger; the old guard is invisible.
        pool.swap(Arc::new(()), 2);
        assert_eq!(pool.active_pins(), 0);
        drop(b);
        assert_eq!(pool.active_pins(), 0);
    }

    /// A value that knows which generation built it, so a guard can be
    /// audited for mixed-generation views.
    #[derive(Debug)]
    struct Tagged {
        generation: u64,
        payload: Vec<u64>,
    }

    fn tagged(generation: u64) -> Arc<Tagged> {
        Arc::new(Tagged {
            generation,
            payload: (0..8).map(|i| generation * 100 + i).collect(),
        })
    }

    /// One step of the interleaving: swap in a new generation, pin a new
    /// guard (possibly through one of two worker caches), or release an
    /// existing guard (by index, modulo what's alive). Decoded from a
    /// `(tag, arg)` pair because the vendored proptest has no `prop_oneof`.
    #[derive(Debug, Clone)]
    enum Step {
        Swap,
        Pin { via_cache: Option<u8> },
        Release(u8),
    }

    fn decode_step((tag, arg): (u8, u8)) -> Step {
        match tag {
            0 => Step::Swap,
            1 => Step::Pin { via_cache: None },
            2 => Step::Pin {
                via_cache: Some(arg % 2),
            },
            _ => Step::Release(arg),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Under arbitrary interleavings of swaps, pins (direct and
        /// through worker caches), and releases:
        ///
        /// * a pinned request never observes a mixed-generation view —
        ///   the guard's generation, the tagged value's generation, and
        ///   every payload element agree at every step;
        /// * a swapped-out value stays alive exactly while guards (or a
        ///   stale worker cache) reference it, and its `Arc` count drops
        ///   to the test's own handle once they are gone.
        #[test]
        fn prop_no_mixed_views_and_no_early_frees(raw_steps in proptest::collection::vec((0u8..4, 0u8..8), 1..64)) {
            let steps: Vec<Step> = raw_steps.into_iter().map(decode_step).collect();
            let mut generation = 1u64;
            let values: std::cell::RefCell<Vec<Arc<Tagged>>> =
                std::cell::RefCell::new(vec![tagged(generation)]);
            let pool = ReaderPool::new(values.borrow()[0].clone(), generation);
            let mut caches = [ReaderCache::new(), ReaderCache::new()];
            let mut guards: Vec<ReadGuard<Tagged>> = Vec::new();

            let audit = |guards: &[ReadGuard<Tagged>]| {
                for g in guards {
                    // Invariant 1: the view is internally consistent.
                    prop_assert_eq!(g.generation(), g.generation);
                    for (i, &v) in g.payload.iter().enumerate() {
                        prop_assert_eq!(v, g.generation * 100 + i as u64);
                    }
                }
                Ok(())
            };

            for step in steps {
                match step {
                    Step::Swap => {
                        generation += 1;
                        let v = tagged(generation);
                        values.borrow_mut().push(v.clone());
                        pool.swap(v, generation);
                    }
                    Step::Pin { via_cache } => {
                        let guard = match via_cache {
                            Some(c) => pool.pin_with(&mut caches[c as usize]),
                            None => pool.pin(),
                        };
                        // A fresh pin always sees the latest generation.
                        prop_assert_eq!(guard.generation(), generation);
                        prop_assert_eq!(guard.generation, generation);
                        guards.push(guard);
                    }
                    Step::Release(i) => {
                        if !guards.is_empty() {
                            let i = i as usize % guards.len();
                            guards.swap_remove(i);
                        }
                    }
                }
                audit(&guards)?;
            }

            // Invariant 2, mid-run: every *old* generation's liveness is
            // explained by its guards (the pool itself only references
            // the newest; caches may hold at most one slot each), once
            // the reclaimer has dropped what was released.
            pool.settle();
            for (idx, v) in values.borrow().iter().enumerate() {
                let gen = idx as u64 + 1;
                if gen == generation {
                    continue;
                }
                let pinning = guards.iter().filter(|g| g.generation() == gen).count();
                if pinning == 0 {
                    // Only the test vector and (transiently) a stale
                    // worker cache may still hold it. Slots are dropped
                    // with their guards, so the count is tightly bounded.
                    prop_assert!(
                        Arc::strong_count(v) <= 1 + caches.len(),
                        "generation {} outlived its guards: count {}",
                        gen,
                        Arc::strong_count(v)
                    );
                } else {
                    prop_assert!(Arc::strong_count(v) >= 2, "pinned value freed early");
                }
            }

            // Invariant 2, end state: drop everything the readers hold;
            // every old generation must come back to exactly the test's
            // handle — nothing leaks, nothing double-frees.
            guards.clear();
            drop(caches);
            pool.settle();
            for (idx, v) in values.borrow().iter().enumerate() {
                let gen = idx as u64 + 1;
                let expect = if gen == generation { 2 } else { 1 };
                prop_assert_eq!(
                    Arc::strong_count(v),
                    expect,
                    "generation {} has stray references",
                    gen
                );
            }
        }
    }
}
