//! Partition holders (paper §5.3).
//!
//! "A partition holder operator 'guards' a runtime partition by holding
//! the incoming data frames in a queue with a limited size." Two kinds:
//!
//! * **passive** — receives frames from its own job's upstream operators
//!   and *waits for other jobs to pull them* (the intake job's tail; the
//!   computing job pulls batches from it);
//! * **active** — receives frames pushed *by other jobs* and pushes them
//!   on to its own downstream operators (the storage job's head).
//!
//! Both are a bounded queue plus a registration in the node-local
//! [`PartitionHolderManager`]; the mode records the discipline the
//! owning job uses.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, Weak};

use idea_adm::Value;
use idea_obs::{Counter, MetricsScope};
use parking_lot::RwLock;

use crate::frame::Frame;
use crate::{HyracksError, Result};

/// Push/pull discipline of a holder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HolderMode {
    Active,
    Passive,
}

enum HolderMsg {
    Frame(Frame),
    Eof,
}

/// A batch of records pulled from a holder, with an explicit marker for
/// whether the feed's EOF record was reached while collecting it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Batch {
    pub records: Vec<Value>,
    pub eof: bool,
}

impl Batch {
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    pub fn into_records(self) -> Vec<Value> {
        self.records
    }
}

/// Contention instruments attached by the observability layer: how
/// often producers found the queue full and consumers found it empty.
#[derive(Debug, Clone)]
struct HolderObs {
    blocked_pushes: Arc<Counter>,
    blocked_pulls: Arc<Counter>,
}

/// Queue contents guarded by [`HolderQueue::state`]. `poisoned` is
/// mirrored from the holder's atomic so blocked waiters re-check it
/// without releasing the lock. `parked` counts producers waiting in
/// [`PartitionHolder::push_frame`] on a full queue: the backlog signal
/// that lets [`PartitionHolder::pull_batch`] wait for a full batch.
#[derive(Default)]
struct QueueState {
    queue: VecDeque<HolderMsg>,
    poisoned: bool,
    parked: usize,
}

/// The intake holders of one feed, one per node. The intake deals its
/// frames round-robin to all of them, so a producer parked on one
/// member's full queue also stops delivery to every other member. While
/// some member's [`PartitionHolder::pull_batch`] has had to wait on an
/// empty queue, the other members' producers therefore do not park:
/// their queues run over capacity, by at most about what that pull still
/// needs, instead of leaving it waiting on frames dealt behind theirs —
/// forever, if their own computing job has already returned.
#[derive(Default)]
pub struct HolderGroup {
    starving: AtomicUsize,
    members: RwLock<Vec<Weak<PartitionHolder>>>,
}

impl HolderGroup {
    pub fn new() -> Arc<HolderGroup> {
        Arc::new(HolderGroup::default())
    }
}

/// Condvar-guarded bounded queue. Producers park on `not_full`,
/// consumers on `not_empty`; [`PartitionHolder::fail`] wakes both sides
/// under the lock, so nobody can sleep through a node death and no
/// sleep-polling is needed anywhere on the frame path.
struct HolderQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl HolderQueue {
    fn new(capacity: usize) -> Self {
        HolderQueue {
            state: Mutex::new(QueueState::default()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }
}

/// A guarded, bounded frame queue shared between jobs.
pub struct PartitionHolder {
    name: String,
    mode: HolderMode,
    q: HolderQueue,
    eof_seen: AtomicBool,
    /// Whether EOF has been *pushed* into this holder — lets the feed
    /// supervisor tell a clean producer shutdown from a producer that
    /// died without closing its holder.
    eof_pushed: AtomicBool,
    /// Set by [`fail`](Self::fail) when the hosting node dies: pushes
    /// error out, pulls drain to EOF, `drained()` is satisfied.
    poisoned: AtomicBool,
    /// Records successfully enqueued / records handed to consumers.
    /// The checkpoint protocol compares these across stage boundaries
    /// to prove the pipeline is quiescent.
    received: AtomicU64,
    taken: AtomicU64,
    /// Records pulled off a frame but beyond a batch boundary; consumed
    /// first by the next pull so batch sizes stay exact regardless of
    /// frame size.
    leftover: parking_lot::Mutex<std::collections::VecDeque<Value>>,
    obs: RwLock<Option<HolderObs>>,
    group: OnceLock<Arc<HolderGroup>>,
}

impl std::fmt::Debug for PartitionHolder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PartitionHolder({}, {:?}, queued={})", self.name, self.mode, self.queued())
    }
}

impl PartitionHolder {
    fn new(name: String, mode: HolderMode, capacity: usize) -> Self {
        PartitionHolder {
            name,
            mode,
            q: HolderQueue::new(capacity),
            eof_seen: AtomicBool::new(false),
            eof_pushed: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            received: AtomicU64::new(0),
            taken: AtomicU64::new(0),
            leftover: parking_lot::Mutex::new(std::collections::VecDeque::new()),
            obs: RwLock::new(None),
            group: OnceLock::new(),
        }
    }

    /// Makes this holder a member of `group`; a holder joins one group
    /// at most, later calls are ignored.
    pub fn join_group(self: &Arc<Self>, group: &Arc<HolderGroup>) {
        if self.group.set(group.clone()).is_ok() {
            group.members.write().push(Arc::downgrade(self));
        }
    }

    /// Whether a pull on some member of this holder's group is waiting
    /// for frames; producers then run over capacity instead of parking.
    fn group_starving(&self) -> bool {
        self.group.get().is_some_and(|g| g.starving.load(Ordering::Acquire) > 0)
    }

    /// Marks (`+1`) or clears (`-1`) a starving pull on this holder. On
    /// marking, wakes the parked producers of the other members so they
    /// push over capacity; taking each member's lock before notifying
    /// means a producer that checked the count just before it rose is
    /// already waiting. Called without this holder's lock.
    fn set_starving(&self, on: bool) {
        let Some(group) = self.group.get() else { return };
        if !on {
            group.starving.fetch_sub(1, Ordering::AcqRel);
            return;
        }
        group.starving.fetch_add(1, Ordering::AcqRel);
        for member in group.members.read().iter().filter_map(Weak::upgrade) {
            if !std::ptr::eq(Arc::as_ptr(&member), self) {
                drop(member.lock_state());
                member.q.not_full.notify_all();
            }
        }
    }

    /// Wires this holder into a metrics scope: a `queue_depth` probe
    /// (sampled at snapshot time) plus `blocked_pushes`/`blocked_pulls`
    /// counters for producer back-pressure and consumer starvation.
    pub fn attach_obs(self: &Arc<Self>, scope: &MetricsScope) {
        let me = Arc::downgrade(self);
        scope.probe("queue_depth", move || me.upgrade().map_or(0, |h| h.queued() as i64));
        *self.obs.write() = Some(HolderObs {
            blocked_pushes: scope.counter("blocked_pushes"),
            blocked_pulls: scope.counter("blocked_pulls"),
        });
    }

    fn note_blocked_push(&self) {
        if let Some(obs) = &*self.obs.read() {
            obs.blocked_pushes.inc();
        }
    }

    fn note_blocked_pull(&self) {
        if let Some(obs) = &*self.obs.read() {
            obs.blocked_pulls.inc();
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn mode(&self) -> HolderMode {
        self.mode
    }

    /// Frames currently queued.
    pub fn queued(&self) -> usize {
        self.lock_state().queue.len()
    }

    /// Locks the queue state; a waiter that panicked mid-update cannot
    /// leave the queue in a half-written state (every mutation below is
    /// a single `VecDeque` call), so a poisoned lock is recoverable.
    fn lock_state(&self) -> MutexGuard<'_, QueueState> {
        self.q.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocking pop. Never returns "disconnected": the holder owns its
    /// queue, and `fail()` plants an EOF, so a parked consumer always
    /// wakes to a message.
    fn pop_blocking(&self) -> HolderMsg {
        let mut st = self.lock_state();
        if st.queue.is_empty() {
            self.note_blocked_pull();
        }
        loop {
            if let Some(msg) = st.queue.pop_front() {
                drop(st);
                self.q.not_full.notify_one();
                return msg;
            }
            st = self.q.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn try_pop(&self) -> Option<HolderMsg> {
        let msg = self.lock_state().queue.pop_front();
        if msg.is_some() {
            self.q.not_full.notify_one();
        }
        msg
    }

    /// Enqueues a frame, blocking while the queue is full (back-pressure
    /// toward the producer, as with a size-limited queue in the paper) —
    /// except while a pull on another member of this holder's
    /// [`HolderGroup`] waits for frames, when the queue runs over.
    /// The wait is a condvar park — `fail()` takes the same lock and
    /// wakes us, so a producer blocked here observes a node death
    /// immediately instead of discovering it on a poll tick.
    pub fn push_frame(&self, frame: Frame) -> Result<()> {
        if self.poisoned() {
            return Err(HyracksError::Disconnected("failed partition holder"));
        }
        let n = frame.len() as u64;
        let mut st = self.lock_state();
        let full = |st: &QueueState| {
            !st.poisoned && st.queue.len() >= self.q.capacity && !self.group_starving()
        };
        if full(&st) {
            // Count once per push so the counter reflects how often
            // back-pressure engaged, not how long.
            self.note_blocked_push();
            st.parked += 1;
            while full(&st) {
                st = self.q.not_full.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            st.parked -= 1;
        }
        if st.poisoned {
            return Err(HyracksError::Disconnected("failed partition holder"));
        }
        st.queue.push_back(HolderMsg::Frame(frame));
        drop(st);
        self.received.fetch_add(n, Ordering::AcqRel);
        self.q.not_empty.notify_one();
        Ok(())
    }

    /// Marks end-of-feed: the special "EOF" record of §6.1. Consumers
    /// finish their current batch without waiting for it to fill. The
    /// marker may exceed the capacity bound by one entry — a full
    /// holder must never wedge its producer's shutdown path.
    pub fn push_eof(&self) -> Result<()> {
        self.eof_pushed.store(true, Ordering::Release);
        let mut st = self.lock_state();
        if st.poisoned {
            // fail() already delivered an EOF to the consumer.
            return Ok(());
        }
        st.queue.push_back(HolderMsg::Eof);
        drop(st);
        self.q.not_empty.notify_one();
        Ok(())
    }

    /// Whether EOF has been *consumed* from this holder.
    pub fn eof_seen(&self) -> bool {
        self.eof_seen.load(Ordering::Acquire)
    }

    /// Whether a producer has *pushed* EOF (or the holder was failed).
    pub fn eof_pushed(&self) -> bool {
        self.eof_pushed.load(Ordering::Acquire)
    }

    /// Whether the holder has been failed by [`fail`](Self::fail).
    pub fn poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Records successfully enqueued so far.
    pub fn received(&self) -> u64 {
        self.received.load(Ordering::Acquire)
    }

    /// Records handed to consumers so far.
    pub fn taken(&self) -> u64 {
        self.taken.load(Ordering::Acquire)
    }

    /// Fails the holder: the hosting node died. Idempotent. Queued
    /// frames are discarded (unblocking any producer stuck in
    /// back-pressure — its next push errors), and a single EOF marker
    /// is delivered so a consumer blocked in `pull_*` wakes up.
    pub fn fail(&self) {
        if self.poisoned.swap(true, Ordering::AcqRel) {
            return;
        }
        // Under the queue lock there is no race with blocked producers:
        // they re-check `poisoned` before enqueueing, so the EOF we
        // plant here stays the terminal message.
        let mut st = self.lock_state();
        st.poisoned = true;
        st.queue.clear();
        st.queue.push_back(HolderMsg::Eof);
        drop(st);
        self.q.not_empty.notify_all();
        self.q.not_full.notify_all();
    }

    /// Pulls one frame, blocking; `None` means EOF.
    pub fn pull_frame(&self) -> Result<Option<Frame>> {
        if self.eof_seen() {
            return Ok(None);
        }
        match self.pop_blocking() {
            HolderMsg::Frame(f) => {
                self.taken.fetch_add(f.len() as u64, Ordering::AcqRel);
                Ok(Some(f))
            }
            HolderMsg::Eof => {
                self.eof_seen.store(true, Ordering::Release);
                Ok(None)
            }
        }
    }

    /// Pulls up to `max_records` records for one computing job's
    /// parameter batch; `Batch::eof` tells the driver whether this was
    /// the feed's last batch.
    ///
    /// The pull is work-conserving: `max_records` is a ceiling, not a
    /// fill target. It blocks while the holder is empty, then returns
    /// as soon as it holds a record and the queue has run dry — unless
    /// the intake is backlogged, i.e. a producer was parked in
    /// [`push_frame`](Self::push_frame) or the queue was full at some
    /// point during this call. A backlogged pull keeps taking frames,
    /// waiting if it must, until `max_records` are collected, so batches
    /// under load still fill past the holder's capacity. While it waits,
    /// the other members of the holder's [`HolderGroup`] take frames
    /// over capacity rather than park producers it may depend on. An EOF
    /// queued right behind the taken frames is consumed by the same call.
    pub fn pull_batch(&self, max_records: usize) -> Result<Batch> {
        let mut out = Vec::with_capacity(max_records.min(4096));
        self.take_leftover(&mut out, max_records);
        if self.eof_seen() {
            self.taken.fetch_add(out.len() as u64, Ordering::AcqRel);
            return Ok(Batch { records: out, eof: true });
        }
        let mut backlog = false;
        let mut eof = false;
        let mut st = self.lock_state();
        let mut waited = false;
        while out.len() < max_records {
            backlog |= st.parked > 0 || st.queue.len() >= self.q.capacity;
            match st.queue.pop_front() {
                Some(HolderMsg::Frame(f)) => {
                    drop(st);
                    self.q.not_full.notify_one();
                    self.take_frame(f, &mut out, max_records);
                    st = self.lock_state();
                }
                Some(HolderMsg::Eof) => {
                    eof = true;
                    break;
                }
                None if !out.is_empty() && !backlog => break,
                None if !waited => {
                    // Count once per pull: how often a job found the
                    // intake dry, not how long it waited. Then keep the
                    // other members' producers from parking until this
                    // pull ends, and look at the queue again.
                    self.note_blocked_pull();
                    waited = true;
                    drop(st);
                    self.set_starving(true);
                    st = self.lock_state();
                }
                None => st = self.q.not_empty.wait(st).unwrap_or_else(|e| e.into_inner()),
            }
        }
        if !eof
            && matches!(st.queue.front(), Some(HolderMsg::Eof))
            && self.leftover.lock().is_empty()
        {
            st.queue.pop_front();
            eof = true;
        }
        drop(st);
        if waited {
            self.set_starving(false);
        }
        if eof {
            self.eof_seen.store(true, Ordering::Release);
        }
        self.taken.fetch_add(out.len() as u64, Ordering::AcqRel);
        Ok(Batch { records: out, eof })
    }

    /// Moves leftover records from an earlier split frame into `out`.
    fn take_leftover(&self, out: &mut Vec<Value>, max_records: usize) {
        let mut leftover = self.leftover.lock();
        let n = leftover.len().min(max_records - out.len());
        out.extend(leftover.drain(..n));
    }

    /// Moves a frame's records into `out` up to `max_records`, stashing
    /// anything beyond the batch boundary for the next pull.
    fn take_frame(&self, frame: Frame, out: &mut Vec<Value>, max_records: usize) {
        let mut records = frame.into_records().into_iter();
        out.extend(records.by_ref().take(max_records - out.len()));
        self.leftover.lock().extend(records);
    }

    /// Non-blocking variant of [`pull_batch`](Self::pull_batch): takes
    /// whatever is immediately available (up to `max_records`) and never
    /// waits, not even on an empty holder. The checkpoint drain uses
    /// this so a computing invocation issued while the adapters are
    /// paused cannot block on a holder that may stay empty until resume.
    pub fn try_pull_batch(&self, max_records: usize) -> Result<Batch> {
        let mut out = Vec::new();
        self.take_leftover(&mut out, max_records);
        while out.len() < max_records {
            match self.try_pop() {
                Some(HolderMsg::Frame(f)) => self.take_frame(f, &mut out, max_records),
                Some(HolderMsg::Eof) => {
                    self.eof_seen.store(true, Ordering::Release);
                    break;
                }
                None => break,
            }
        }
        self.taken.fetch_add(out.len() as u64, Ordering::AcqRel);
        Ok(Batch { records: out, eof: self.eof_seen() })
    }

    /// Whether EOF has been consumed and no records remain (queued or
    /// leftover) — the feed driver's stop condition. A failed holder is
    /// always drained (its contents are gone).
    pub fn drained(&self) -> bool {
        self.poisoned()
            || (self.eof_seen()
                && self.lock_state().queue.is_empty()
                && self.leftover.lock().is_empty())
    }

    /// Non-blocking drain used by tests and shutdown paths; `eof` in
    /// the returned [`Batch`] reports whether the EOF marker has been
    /// consumed (now or earlier).
    pub fn try_pull_all(&self) -> Batch {
        let mut out: Vec<Value> = self.leftover.lock().drain(..).collect();
        while let Some(msg) = self.try_pop() {
            match msg {
                HolderMsg::Frame(f) => out.extend(f.into_records()),
                HolderMsg::Eof => {
                    self.eof_seen.store(true, Ordering::Release);
                    break;
                }
            }
        }
        self.taken.fetch_add(out.len() as u64, Ordering::AcqRel);
        Batch { records: out, eof: self.eof_seen() }
    }
}

/// Node-local registry: "when a new partition holder is created, it
/// registers with the local partition holder manager" (§5.3).
#[derive(Debug, Default)]
pub struct PartitionHolderManager {
    holders: RwLock<HashMap<String, Arc<PartitionHolder>>>,
}

impl PartitionHolderManager {
    pub fn new() -> Self {
        PartitionHolderManager::default()
    }

    /// Creates and registers a holder. Re-registering a live name is a
    /// configuration error.
    pub fn register(
        &self,
        name: impl Into<String>,
        mode: HolderMode,
        capacity: usize,
    ) -> Result<Arc<PartitionHolder>> {
        let name = name.into();
        let mut map = self.holders.write();
        if map.contains_key(&name) {
            return Err(HyracksError::Config(format!("holder '{name}' already registered")));
        }
        let holder = Arc::new(PartitionHolder::new(name.clone(), mode, capacity));
        map.insert(name, holder.clone());
        Ok(holder)
    }

    /// Finds a registered holder.
    pub fn lookup(&self, name: &str) -> Result<Arc<PartitionHolder>> {
        self.holders
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| HyracksError::Config(format!("no holder named '{name}'")))
    }

    /// Drops a holder registration (feed shutdown).
    pub fn unregister(&self, name: &str) -> Option<Arc<PartitionHolder>> {
        self.holders.write().remove(name)
    }

    /// Fails every registered holder — the node died. Tasks blocked on
    /// any of this node's holders wake up and error out.
    pub fn fail_all(&self) {
        for holder in self.holders.read().values() {
            holder.fail();
        }
    }

    pub fn len(&self) -> usize {
        self.holders.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pull_roundtrip() {
        let m = PartitionHolderManager::new();
        let h = m.register("feed/intake/0", HolderMode::Passive, 8).unwrap();
        h.push_frame(Frame::from_records(vec![Value::Int(1), Value::Int(2)])).unwrap();
        h.push_frame(Frame::from_records(vec![Value::Int(3)])).unwrap();
        let batch = h.pull_batch(3).unwrap();
        assert_eq!(batch.len(), 3);
        assert!(!batch.eof);
    }

    #[test]
    fn eof_cuts_batch_short_and_sticks() {
        let m = PartitionHolderManager::new();
        let h = m.register("h", HolderMode::Passive, 8).unwrap();
        h.push_frame(Frame::from_records(vec![Value::Int(1)])).unwrap();
        h.push_eof().unwrap();
        let batch = h.pull_batch(100).unwrap();
        assert_eq!(batch.len(), 1);
        assert!(batch.eof);
        let batch = h.pull_batch(100).unwrap();
        assert!(batch.is_empty());
        assert!(batch.eof);
        assert!(h.eof_seen());
    }

    #[test]
    fn bounded_queue_applies_backpressure() {
        let m = PartitionHolderManager::new();
        let h = m.register("h", HolderMode::Passive, 2).unwrap();
        h.push_frame(Frame::from_records(vec![Value::Int(1)])).unwrap();
        h.push_frame(Frame::from_records(vec![Value::Int(2)])).unwrap();
        // Queue full: a third push must block until a consumer pulls.
        let h2 = m.lookup("h").unwrap();
        let t = std::thread::spawn(move || {
            h2.push_frame(Frame::from_records(vec![Value::Int(3)])).unwrap();
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!t.is_finished(), "push should block while the queue is full");
        let _ = h.pull_frame().unwrap();
        t.join().unwrap();
    }

    #[test]
    fn duplicate_registration_rejected() {
        let m = PartitionHolderManager::new();
        m.register("h", HolderMode::Active, 1).unwrap();
        assert!(m.register("h", HolderMode::Active, 1).is_err());
    }

    #[test]
    fn unregister_then_lookup_fails() {
        let m = PartitionHolderManager::new();
        m.register("h", HolderMode::Active, 1).unwrap();
        assert!(m.unregister("h").is_some());
        assert!(m.lookup("h").is_err());
    }

    #[test]
    fn try_pull_all_reports_eof() {
        let m = PartitionHolderManager::new();
        let h = m.register("h", HolderMode::Passive, 8).unwrap();
        h.push_frame(Frame::from_records(vec![Value::Int(1)])).unwrap();
        let batch = h.try_pull_all();
        assert_eq!(batch.records, vec![Value::Int(1)]);
        assert!(!batch.eof);
        h.push_eof().unwrap();
        assert!(h.try_pull_all().eof);
    }

    #[test]
    fn counters_track_received_and_taken() {
        let m = PartitionHolderManager::new();
        let h = m.register("h", HolderMode::Passive, 8).unwrap();
        h.push_frame(Frame::from_records(vec![Value::Int(1), Value::Int(2)])).unwrap();
        h.push_frame(Frame::from_records(vec![Value::Int(3)])).unwrap();
        assert_eq!(h.received(), 3);
        assert_eq!(h.taken(), 0);
        let b = h.pull_batch(2).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(h.taken(), 2, "leftover records count only when handed out");
        let b = h.try_pull_batch(10).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(h.taken(), 3);
        assert!(!h.eof_pushed());
        h.push_eof().unwrap();
        assert!(h.eof_pushed());
    }

    #[test]
    fn try_pull_batch_does_not_block() {
        let m = PartitionHolderManager::new();
        let h = m.register("h", HolderMode::Passive, 8).unwrap();
        let b = h.try_pull_batch(100).unwrap();
        assert!(b.is_empty());
        assert!(!b.eof);
        h.push_frame(Frame::from_records(vec![Value::Int(1)])).unwrap();
        h.push_eof().unwrap();
        let b = h.try_pull_batch(100).unwrap();
        assert_eq!(b.len(), 1);
        assert!(b.eof);
    }

    #[test]
    fn failed_holder_unblocks_both_sides() {
        let m = PartitionHolderManager::new();
        let h = m.register("h", HolderMode::Passive, 1).unwrap();

        // A consumer on an empty holder that can only return at EOF...
        let h3 = h.clone();
        let consumer = std::thread::spawn(move || loop {
            let batch = h3.pull_batch(usize::MAX).unwrap();
            if batch.eof {
                return batch;
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!consumer.is_finished(), "a pull on an empty holder must block");

        // ...and a producer that pushes until back-pressure or failure.
        let h2 = h.clone();
        let producer = std::thread::spawn(move || {
            let mut pushed = 0;
            while h2.push_frame(Frame::from_records(vec![Value::Int(9)])).is_ok() {
                pushed += 1;
            }
            pushed
        });

        std::thread::sleep(std::time::Duration::from_millis(20));
        h.fail();
        let _ = producer.join().unwrap();
        let got = consumer.join().unwrap();
        assert!(got.eof, "consumer must wake with EOF");
        assert!(h.poisoned());
        assert!(h.drained(), "failed holder counts as drained");
        assert!(h.push_frame(Frame::from_records(vec![Value::Int(1)])).is_err());
        assert!(h.push_eof().is_ok(), "EOF after failure is a no-op");
        h.fail(); // idempotent
    }

    #[test]
    fn fail_all_poisons_every_holder() {
        let m = PartitionHolderManager::new();
        let a = m.register("a", HolderMode::Passive, 1).unwrap();
        let b = m.register("b", HolderMode::Active, 1).unwrap();
        m.fail_all();
        assert!(a.poisoned() && b.poisoned());
    }

    #[test]
    fn attached_obs_tracks_depth_and_contention() {
        let registry = idea_obs::MetricsRegistry::new();
        let m = PartitionHolderManager::new();
        let h = m.register("h", HolderMode::Passive, 2).unwrap();
        h.attach_obs(&registry.scope("holder/h"));

        // Stalled consumer: depth probe reads the queued frames.
        h.push_frame(Frame::from_records(vec![Value::Int(1)])).unwrap();
        h.push_frame(Frame::from_records(vec![Value::Int(2)])).unwrap();
        assert_eq!(registry.snapshot().gauge("holder/h/queue_depth"), Some(2));

        // Queue full: the third push blocks and ticks blocked_pushes.
        let h2 = h.clone();
        let t = std::thread::spawn(move || {
            h2.push_frame(Frame::from_records(vec![Value::Int(3)])).unwrap();
        });
        while registry.counter("holder/h/blocked_pushes").get() == 0 {
            std::thread::yield_now();
        }
        let mut drained = 0;
        while drained < 3 {
            drained += h.pull_batch(3).unwrap().len();
        }
        assert_eq!(drained, 3);
        t.join().unwrap();
        assert_eq!(registry.snapshot().gauge("holder/h/queue_depth"), Some(0));
        assert!(registry.counter("holder/h/blocked_pushes").get() >= 1);
    }

    #[test]
    fn pull_batch_returns_queued_records_without_waiting_for_max() {
        let m = PartitionHolderManager::new();
        let h = m.register("h", HolderMode::Passive, 8).unwrap();
        h.push_frame(Frame::from_records(vec![Value::Int(1), Value::Int(2)])).unwrap();
        h.push_frame(Frame::from_records(vec![Value::Int(3)])).unwrap();
        let b = h.pull_batch(420).unwrap();
        assert_eq!(b.records, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert!(!b.eof);
        assert_eq!(h.taken(), 3);
    }

    #[test]
    fn pull_batch_blocks_on_empty_holder_until_first_push() {
        let m = PartitionHolderManager::new();
        let h = m.register("h", HolderMode::Passive, 8).unwrap();
        let h2 = h.clone();
        let consumer = std::thread::spawn(move || h2.pull_batch(420).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!consumer.is_finished(), "a pull on an empty holder must block");
        h.push_frame(Frame::from_records(vec![Value::Int(1), Value::Int(2)])).unwrap();
        let b = consumer.join().unwrap();
        assert_eq!(b.records, vec![Value::Int(1), Value::Int(2)]);
        assert!(!b.eof);
    }

    #[test]
    fn parked_producer_lets_pull_batch_fill_past_capacity() {
        let m = PartitionHolderManager::new();
        let h = m.register("h", HolderMode::Passive, 2).unwrap();
        let h2 = h.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..10 {
                h2.push_frame(Frame::from_records(vec![Value::Int(i)])).unwrap();
            }
        });
        while h.lock_state().parked == 0 {
            std::thread::yield_now();
        }
        // Capacity 2, max 5: the pull must wait for the parked producer's
        // later frames instead of returning what was queued.
        let b = h.pull_batch(5).unwrap();
        assert_eq!(b.records, (0..5).map(Value::Int).collect::<Vec<_>>());
        assert!(!b.eof);
        let mut rest = 0;
        while rest < 5 {
            rest += h.pull_batch(5).unwrap().len();
        }
        producer.join().unwrap();
        assert_eq!(h.taken(), 10);
    }

    #[test]
    fn waiting_pull_lets_group_members_run_over_capacity() {
        let m = PartitionHolderManager::new();
        let group = HolderGroup::new();
        let (a, b) = (
            m.register("a", HolderMode::Passive, 4).unwrap(),
            m.register("b", HolderMode::Passive, 1).unwrap(),
        );
        a.join_group(&group);
        b.join_group(&group);
        // `b` is full and its producer parked; nobody pulls `b`.
        b.push_frame(Frame::from_records(vec![Value::Int(1)])).unwrap();
        let b2 = b.clone();
        let producer = std::thread::spawn(move || {
            b2.push_frame(Frame::from_records(vec![Value::Int(2)])).unwrap();
        });
        while b.lock_state().parked == 0 {
            std::thread::yield_now();
        }
        // A pull waiting on empty `a` releases it: frames for `a` may be
        // dealt behind the one `b`'s producer holds.
        let a2 = a.clone();
        let puller = std::thread::spawn(move || a2.pull_batch(10).unwrap());
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !producer.is_finished() {
            assert!(std::time::Instant::now() < deadline, "b's producer stayed parked");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(b.queued(), 2, "b ran over its capacity of 1");
        a.push_frame(Frame::from_records(vec![Value::Int(3)])).unwrap();
        assert_eq!(puller.join().unwrap().records, vec![Value::Int(3)]);
        // Once the pull returned, a full `b` parks its producers again.
        assert!(!a.group_starving());
        let b3 = b.clone();
        let producer = std::thread::spawn(move || {
            b3.push_frame(Frame::from_records(vec![Value::Int(4)])).unwrap();
        });
        while b.lock_state().parked == 0 {
            std::thread::yield_now();
        }
        assert_eq!(b.pull_batch(3).unwrap().len(), 3);
        producer.join().unwrap();
    }

    #[test]
    fn eof_queued_behind_frames_returns_with_them() {
        let m = PartitionHolderManager::new();
        let h = m.register("h", HolderMode::Passive, 8).unwrap();
        h.push_frame(Frame::from_records(vec![Value::Int(1), Value::Int(2)])).unwrap();
        h.push_frame(Frame::from_records(vec![Value::Int(3)])).unwrap();
        h.push_eof().unwrap();
        let b = h.pull_batch(100).unwrap();
        assert_eq!(b.len(), 3);
        assert!(b.eof);
        assert!(h.drained());

        // A batch that fills exactly at a frame boundary still takes the
        // EOF behind it, so no empty job follows.
        let h = m.register("exact", HolderMode::Passive, 8).unwrap();
        h.push_frame(Frame::from_records(vec![Value::Int(1), Value::Int(2)])).unwrap();
        h.push_eof().unwrap();
        let b = h.pull_batch(2).unwrap();
        assert_eq!(b.len(), 2);
        assert!(b.eof);
        assert!(h.drained());

        // Records left over from a split frame keep the EOF queued.
        let h = m.register("split", HolderMode::Passive, 8).unwrap();
        h.push_frame(Frame::from_records(vec![Value::Int(1), Value::Int(2)])).unwrap();
        h.push_eof().unwrap();
        let b = h.pull_batch(1).unwrap();
        assert!(!b.eof);
        assert!(!h.drained());
        let b = h.pull_batch(1).unwrap();
        assert_eq!(b.records, vec![Value::Int(2)]);
        assert!(b.eof);
        assert!(h.drained());
    }
}
