//! The executor-side execution backend: contract execution against
//! per-transaction read snapshots.
//!
//! The executor's thread owns the blockchain state. When a transaction
//! becomes ready it snapshots the declared read set and dispatches the
//! work item to its [`InlineQueue`], which runs the contract on the spot
//! and holds the completion until the modelled execution cost has
//! elapsed (DESIGN.md §3).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parblock_contracts::{ExecOutcome, SmartContract, StateReader};
use parblock_types::{BlockNumber, Key, SeqNo, Transaction, Value};

use crate::msg::ExecResult;

/// A read view over a snapshot taken by the executor's main thread.
///
/// Entries cover the transaction's **declared** read set; `Some(value)`
/// is a key present at the reader's version position, `None` a key with
/// no committed version there — so contracts can distinguish "key
/// absent" from "key holds zero" (via [`StateReader::try_read`]) and
/// abort observably on missing state.
///
/// A read outside the declared set is a scheduling-contract violation
/// (the dependency graph never ordered it): it is flagged, and the
/// execution deterministically aborts instead of
/// silently serving a default value.
#[derive(Debug)]
pub(crate) struct SnapshotReader {
    entries: HashMap<Key, Option<Value>>,
    undeclared: AtomicBool,
}

impl SnapshotReader {
    pub(crate) fn new(entries: HashMap<Key, Option<Value>>) -> Self {
        SnapshotReader {
            entries,
            undeclared: AtomicBool::new(false),
        }
    }

    /// Whether the contract read a key outside the declared read set.
    pub(crate) fn undeclared_read(&self) -> bool {
        self.undeclared.load(Ordering::Relaxed)
    }
}

impl StateReader for SnapshotReader {
    fn read(&self, key: Key) -> Value {
        self.try_read(key).unwrap_or_default()
    }

    fn try_read(&self, key: Key) -> Option<Value> {
        match self.entries.get(&key) {
            Some(present) => present.clone(),
            None => {
                self.undeclared.store(true, Ordering::Relaxed);
                None
            }
        }
    }
}

/// One unit of work: execute `tx` against `snapshot`.
pub(crate) struct WorkItem {
    pub block: BlockNumber,
    pub seq: SeqNo,
    /// Which attempt at this position the snapshot belongs to: always 0
    /// under the pessimistic scheduler; the optimistic engine bumps it on
    /// every abort/re-execute so stale completions are dropped.
    pub incarnation: u32,
    pub tx: Transaction,
    pub snapshot: SnapshotReader,
    pub contract: Arc<dyn SmartContract>,
    pub cost: Duration,
}

/// A completed execution.
pub(crate) struct Completion {
    pub block: BlockNumber,
    pub seq: SeqNo,
    /// Echo of [`WorkItem::incarnation`].
    pub incarnation: u32,
    pub result: ExecResult,
}

/// Executes one work item against its snapshot (the cost model is the
/// caller's concern: [`InlineQueue`] charges it as a completion delay).
fn execute_item(item: &WorkItem) -> Completion {
    let outcome = item.contract.execute(&item.tx, &item.snapshot);
    // A read outside the declared set executed against state the
    // scheduler never ordered: abort deterministically (every agent sees
    // the same declared set, so all agents agree).
    let result = if item.snapshot.undeclared_read() {
        ExecResult::Aborted(format!(
            "undeclared read outside the declared read set of {:?}",
            item.tx.id()
        ))
    } else {
        match outcome {
            ExecOutcome::Commit(writes) => ExecResult::Committed(writes),
            ExecOutcome::Abort(reason) => ExecResult::Aborted(reason),
        }
    };
    Completion {
        block: item.block,
        seq: item.seq,
        incarnation: item.incarnation,
        result,
    }
}

/// The execution backend of every OXII executor (DESIGN.md §3, §10): no
/// worker threads. A dispatched item is executed immediately (its
/// snapshot is already taken, so the result is position-correct
/// regardless of when it is *observed*), and the completion is held until
/// `dispatch + cost` on the executor's clock — wall time under the
/// threaded runner, virtual time under the deterministic scheduler. At
/// most `slots` (`ClusterSpec::exec_pool`) costed executions overlap: an
/// item's modelled run starts when the earliest slot frees up, exactly as
/// in a FIFO pool of that many sleeping workers. Completions surface in
/// `(due, dispatch order)`, a pure function of the schedule.
pub(crate) struct InlineQueue {
    pending: BinaryHeap<Reverse<InlineEntry>>,
    /// When each busy execution slot frees up; at most `slots` entries.
    busy: BinaryHeap<Reverse<Instant>>,
    slots: usize,
    next_ticket: u64,
}

struct InlineEntry {
    due: Instant,
    ticket: u64,
    completion: Completion,
}

impl PartialEq for InlineEntry {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.ticket == other.ticket
    }
}
impl Eq for InlineEntry {}
impl PartialOrd for InlineEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InlineEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.ticket).cmp(&(other.due, other.ticket))
    }
}

impl InlineQueue {
    /// A queue modelling `slots` parallel execution slots (min 1).
    pub(crate) fn new(slots: usize) -> Self {
        InlineQueue {
            pending: BinaryHeap::new(),
            busy: BinaryHeap::new(),
            slots: slots.max(1),
            next_ticket: 0,
        }
    }

    /// When an item of `cost` dispatched at `now` completes:
    /// `max(now, earliest free slot) + cost`, occupying that slot until
    /// then. Zero-cost items take no slot and are due at dispatch.
    fn reserve_slot(&mut self, cost: Duration, now: Instant) -> Instant {
        if cost.is_zero() {
            return now;
        }
        let start = if self.busy.len() < self.slots {
            now
        } else {
            let Reverse(free) = self.busy.pop().expect("every slot is busy");
            free.max(now)
        };
        let due = start + cost;
        self.busy.push(Reverse(due));
        due
    }

    /// Executes `item` now; its completion becomes visible once a slot
    /// has run it for `item.cost`.
    pub(crate) fn dispatch(&mut self, item: WorkItem, now: Instant) {
        let due = self.reserve_slot(item.cost, now);
        let completion = execute_item(&item);
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.pending.push(Reverse(InlineEntry {
            due,
            ticket,
            completion,
        }));
    }

    /// Dispatches a whole ready set at one instant, with tickets (and
    /// slots) in input order. One clock read covers the batch (per-item
    /// [`InlineQueue::dispatch`] reads agree anyway under the virtual
    /// clock, which only advances between settles — so batching is
    /// byte-identical there, just cheaper).
    pub(crate) fn dispatch_batch(&mut self, items: Vec<WorkItem>, now: Instant) {
        for item in items {
            self.dispatch(item, now);
        }
    }

    /// The earliest pending completion's due time.
    pub(crate) fn next_due(&self) -> Option<Instant> {
        self.pending.peek().map(|Reverse(e)| e.due)
    }

    /// Removes and returns every completion due at or before `now`.
    pub(crate) fn take_due(&mut self, now: Instant) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(Reverse(entry)) = self.pending.peek() {
            if entry.due > now {
                break;
            }
            let Reverse(entry) = self.pending.pop().expect("peeked");
            out.push(entry.completion);
        }
        out
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use parblock_contracts::{AccountingContract, AccountingOp};
    use parblock_types::{AppId, ClientId};

    use super::*;

    /// A `Transfer { 1 → 2, amount }` at `seq` over `entries`.
    fn transfer(
        seq: u32,
        amount: i64,
        entries: HashMap<Key, Option<Value>>,
        cost: Duration,
    ) -> WorkItem {
        let contract = Arc::new(AccountingContract::new(AppId(0)));
        let op = AccountingOp::Transfer {
            from: Key(1),
            to: Key(2),
            amount,
        };
        let tx = contract.transaction(ClientId(1), u64::from(seq), &op);
        WorkItem {
            block: BlockNumber(1),
            seq: SeqNo(seq),
            incarnation: 0,
            tx,
            snapshot: SnapshotReader::new(entries),
            contract,
            cost,
        }
    }

    /// A transfer over a funded source and an absent destination.
    fn funded(seq: u32, cost: Duration) -> WorkItem {
        transfer(
            seq,
            1,
            HashMap::from([(Key(1), Some(Value::Int(10))), (Key(2), None)]),
            cost,
        )
    }

    /// Dispatches one item at `t0` and returns its completion, asserting
    /// it is held exactly until `t0 + cost`.
    fn complete_one(item: WorkItem) -> Completion {
        let cost = item.cost;
        let mut q = InlineQueue::new(1);
        let t0 = Instant::now();
        q.dispatch(item, t0);
        assert_eq!(q.next_due(), Some(t0 + cost));
        if !cost.is_zero() {
            assert!(q.take_due(t0).is_empty(), "held until dispatch + cost");
        }
        let mut done = q.take_due(t0 + cost);
        assert_eq!(done.len(), 1);
        assert!(q.is_empty());
        done.pop().expect("one completion")
    }

    #[test]
    fn pool_executes_and_reports() {
        // `to` is declared but absent: transfers create the destination.
        let entries = HashMap::from([(Key(1), Some(Value::Int(10))), (Key(2), None)]);
        let done = complete_one(transfer(0, 5, entries, Duration::from_micros(50)));
        assert_eq!(done.seq, SeqNo(0));
        match done.result {
            ExecResult::Committed(writes) => {
                assert_eq!(writes, vec![(Key(1), Value::Int(5)), (Key(2), Value::Int(5))]);
            }
            ExecResult::Aborted(r) => panic!("unexpected abort: {r}"),
        }
    }

    #[test]
    fn snapshot_reader_distinguishes_absent_from_zero() {
        let reader = SnapshotReader::new(HashMap::from([
            (Key(1), Some(Value::Int(0))),
            (Key(2), None),
        ]));
        assert_eq!(reader.try_read(Key(1)), Some(Value::Int(0)), "stored zero");
        assert_eq!(reader.try_read(Key(2)), None, "declared but absent");
        assert_eq!(reader.read(Key(2)), Value::Unit);
        assert!(!reader.undeclared_read(), "declared reads never flag");
    }

    #[test]
    fn snapshot_reader_flags_undeclared_reads() {
        let reader = SnapshotReader::new(HashMap::from([(Key(1), Some(Value::Int(1)))]));
        assert_eq!(reader.read(Key(1)), Value::Int(1));
        assert!(!reader.undeclared_read());
        assert_eq!(reader.read(Key(9)), Value::Unit, "undeclared key");
        assert!(reader.undeclared_read());
    }

    #[test]
    fn inline_queue_orders_completions_by_due_then_dispatch() {
        let us = Duration::from_micros;
        let mut q = InlineQueue::new(16);
        let t0 = Instant::now();
        q.dispatch(funded(0, us(100)), t0);
        q.dispatch(funded(1, us(50)), t0);
        q.dispatch(funded(2, us(50)), t0);
        assert_eq!(q.next_due(), Some(t0 + us(50)));
        assert!(q.take_due(t0).is_empty(), "nothing due at dispatch time");
        let due = q.take_due(t0 + us(60));
        assert_eq!(
            due.iter().map(|c| c.seq).collect::<Vec<_>>(),
            vec![SeqNo(1), SeqNo(2)],
            "equal due times resolve in dispatch order"
        );
        let rest = q.take_due(t0 + Duration::from_millis(1));
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].seq, SeqNo(0));
        assert!(q.is_empty());
    }

    #[test]
    fn slot_cap_queues_the_item_past_exec_pool() {
        let c = Duration::from_micros(500);
        let mut q = InlineQueue::new(16);
        let t0 = Instant::now();
        q.dispatch_batch((0..17).map(|seq| funded(seq, c)).collect(), t0);
        let first = q.take_due(t0 + c);
        assert_eq!(first.len(), 16, "16 slots run 16 items at once");
        assert_eq!(q.next_due(), Some(t0 + 2 * c), "the 17th waits for a slot");
        assert_eq!(q.take_due(t0 + 2 * c)[0].seq, SeqNo(16));
        assert!(q.is_empty());
    }

    #[test]
    fn freed_slots_are_reused_from_the_later_dispatch_instant() {
        let c = Duration::from_micros(500);
        let mut q = InlineQueue::new(1);
        let t0 = Instant::now();
        q.dispatch(funded(0, c), t0);
        // The slot freed at t0 + c; an item dispatched later starts then.
        let t1 = t0 + 3 * c;
        q.dispatch(funded(1, c), t1);
        assert_eq!(q.take_due(t0 + c).len(), 1);
        assert_eq!(q.next_due(), Some(t1 + c));
    }

    #[test]
    fn zero_cost_items_are_due_at_dispatch() {
        let mut q = InlineQueue::new(1);
        let t0 = Instant::now();
        // The only slot is busy; a zero-cost item still takes none.
        q.dispatch(funded(0, Duration::from_micros(500)), t0);
        q.dispatch(funded(1, Duration::ZERO), t0);
        q.dispatch(funded(2, Duration::ZERO), t0);
        let due = q.take_due(t0);
        assert_eq!(
            due.iter().map(|c| c.seq).collect::<Vec<_>>(),
            vec![SeqNo(1), SeqNo(2)]
        );
    }

    #[test]
    fn aborts_propagate() {
        // Both accounts declared but absent: source account missing.
        let entries = HashMap::from([(Key(1), None), (Key(2), None)]);
        let done = complete_one(transfer(3, 5, entries, Duration::ZERO));
        assert_eq!(done.seq, SeqNo(3));
        match done.result {
            ExecResult::Aborted(reason) => {
                assert!(
                    reason.contains("missing"),
                    "missing-state abort must be observable, got: {reason}"
                );
            }
            ExecResult::Committed(_) => panic!("expected abort"),
        }
    }

    #[test]
    fn undeclared_reads_abort_instead_of_committing_on_defaults() {
        // Snapshot omits the declared keys entirely (mimics a scheduler
        // bug): previously this committed against silent defaults.
        let entries = HashMap::from([(Key(1), Some(Value::Int(100)))]);
        let done = complete_one(transfer(0, 5, entries, Duration::ZERO));
        match done.result {
            ExecResult::Aborted(reason) => {
                assert!(reason.contains("undeclared read"), "got: {reason}");
            }
            ExecResult::Committed(w) => panic!("must not commit on undeclared reads: {w:?}"),
        }
    }
}
