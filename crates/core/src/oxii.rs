//! ParBlockchain's execution phase (§IV-C): executor nodes running the
//! three concurrent procedures.
//!
//! * **Algorithm 1** — execute the transactions this node is an agent for,
//!   following the dependency graph: a transaction runs once all its
//!   predecessors are locally executed or committed.
//! * **Algorithm 2** — buffer execution results and multicast a COMMIT
//!   message when a result is needed by another application's agents
//!   (a successor across the application cut), or when the node's share
//!   of the block is finished.
//! * **Algorithm 3** — collect COMMIT messages, and once τ(A) matching
//!   results arrive for a transaction, apply them to the blockchain
//!   state.
//!
//! The same node implementation serves *non-executor* peers (agents of no
//! application): they only run Algorithm 3.
//!
//! # The execution pipeline (DESIGN.md §7)
//!
//! Up to [`ClusterSpec::exec_pipeline_depth`](crate::ClusterSpec) blocks
//! are **in flight** at once over a multi-version state
//! ([`parblock_ledger::MvccState`]), implementing §III-A's multi-version
//! adaptation: every applied write creates a version stamped with the
//! writer's log position `(block, seq)`, and a transaction's snapshot
//! reads the greatest version *below its own position*. A block-`n+1`
//! transaction whose keys are untouched by still-pending block-`n`
//! writers starts immediately; conflicting ones wait on cross-block
//! dependency edges from the retained conflict index
//! ([`parblock_depgraph::CrossBlockIndex`]). Blocks may finish committing
//! out of order, but are appended to the ledger strictly in order (the
//! commit watermark), below which old versions are garbage-collected.
//! Depth 1 reproduces the paper's block-at-a-time barrier exactly.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parblock_crypto::Signature;
use parblock_depgraph::{CrossBlockIndex, DependencyGraph, ReadyTracker};
use parblock_ledger::{Durability, Ledger, MvccState, Version};
use parblock_net::Endpoint;
use parblock_types::{BlockNumber, ExecutionMode, Hash32, Key, NodeId, SeqNo, TxId, Value};

use crate::msg::{BlockBundle, CommitMsg, ExecResult, Msg};
use crate::pool::{Completion, InlineQueue, SnapshotReader, WorkItem};
use crate::quorum::NewBlockQuorum;
use crate::shared::Shared;

/// Stop-flag poll granularity.
const IDLE_TICK: Duration = Duration::from_micros(500);

/// Hybrid mode's switch point, in dependency-graph edges per
/// transaction. Dense blocks (above) run the pessimistic scheduler —
/// speculation there mostly aborts and re-executes; sparse blocks
/// (at or below) run the optimistic engine. The graph is part of the
/// ordered NEWBLOCK bundle, so every replica makes the same choice.
const HYBRID_DENSITY_THRESHOLD: f64 = 0.75;

/// The hybrid engine choice for one block (see
/// [`HYBRID_DENSITY_THRESHOLD`]).
fn hybrid_picks_optimistic(graph: &DependencyGraph) -> bool {
    let n = graph.len().max(1);
    (graph.edge_count() as f64 / n as f64) <= HYBRID_DENSITY_THRESHOLD
}

/// Per-block scheduling engine (DESIGN.md §11): the paper's
/// dependency-graph scheduler, or the Block-STM speculate / validate /
/// re-execute loop. Chosen once per block at start.
enum Engine {
    Pessimistic,
    Optimistic(Box<OptState>),
}

/// One incarnation's recorded read set: every declared read key with
/// the `(value, version)` its snapshot observed (`None` = no version
/// strictly below the reader's position existed).
type RecordedReads = Vec<(Key, Option<(Value, Version)>)>;

/// Block-STM bookkeeping for one optimistic block, indexed by position.
/// Only the node's own (`we`) positions carry live entries; foreign
/// positions resolve through COMMIT votes exactly as in the pessimistic
/// engine.
struct OptState {
    /// Execution attempt counter per position: completions carrying a
    /// stale incarnation are dropped.
    incarnation: Vec<u32>,
    /// Whether the **current** incarnation has finished executing
    /// (speculatively — not yet validated).
    exec_done: Vec<bool>,
    /// The current incarnation's result, held until validation.
    pending: Vec<Option<ExecResult>>,
    /// The recorded read set of the current incarnation. Validation
    /// re-resolves each read and compares.
    reads: Vec<RecordedReads>,
    /// Keys the current incarnation wrote into the speculative layer
    /// (empty for aborts), for exact retraction.
    spec_keys: Vec<Vec<Key>>,
    /// Positions whose dependency-graph predecessors (in-block and
    /// cross-block) are all final — the tracker's readiness, which under
    /// this engine gates **validation** instead of dispatch. A ready
    /// position's declared reads resolve to final values, so its check
    /// against the recorded read set is authoritative.
    validate_ready: Vec<bool>,
    /// Estimate markers: key → position of an aborted writer whose
    /// re-execution is pending. A lower-positioned marker defers a
    /// reader's re-dispatch instead of letting it speculate against the
    /// retracted hole — the Block-STM livelock guard for hot keys.
    estimates: HashMap<Key, u32>,
    /// Writer position → readers whose (re-)dispatch waits on its next
    /// completed incarnation (set aside by an estimate hit).
    deferred: HashMap<u32, Vec<u32>>,
    /// Reverse read index: key → positions whose recorded reads include
    /// it (so a write triggers rechecks of exactly its readers).
    readers: HashMap<Key, BTreeSet<u32>>,
}

impl OptState {
    fn new(n: usize) -> Self {
        OptState {
            incarnation: vec![0; n],
            exec_done: vec![false; n],
            pending: vec![None; n],
            reads: vec![Vec::new(); n],
            spec_keys: vec![Vec::new(); n],
            validate_ready: vec![false; n],
            estimates: HashMap::new(),
            deferred: HashMap::new(),
            readers: HashMap::new(),
        }
    }
}

/// A deferred consequence of applying writes, processed by the
/// validation pump in FIFO order (queued rather than recursed so the
/// vote → commit → recheck chain stays iterative and deterministic).
enum OptEvent {
    /// Writes on `keys` were applied (speculatively or committed) or
    /// retracted at `version`: re-validate the recorded reads of
    /// higher-positioned readers of those keys.
    Recheck { version: Version, keys: Vec<Key> },
}

/// Per-block execution state on one executor.
struct BlockRun {
    bundle: Arc<BlockBundle>,
    tracker: ReadyTracker,
    /// `We`: positions this node executes (it is an agent of their app).
    we: Vec<bool>,
    /// Result votes per position: `(agent, result)`, deduplicated per
    /// agent. Our own result is voted like any other agent's.
    votes: HashMap<SeqNo, Vec<(NodeId, ExecResult)>>,
    /// Locally executed positions (the set `Xe`).
    executed: Vec<bool>,
    /// Committed positions (the set `Ce`).
    committed: Vec<bool>,
    committed_count: usize,
    /// Algorithm 2 buffer: executed results not yet multicast.
    xe_buffer: Vec<(SeqNo, ExecResult)>,
    /// Outstanding local executions.
    we_remaining: usize,
    /// How this block's own share is scheduled.
    engine: Engine,
}

impl BlockRun {
    fn is_done(&self) -> bool {
        self.committed_count == self.bundle.block.len()
    }
}

/// The executor node (and passive peer) runtime.
pub(crate) struct Executor {
    shared: Arc<Shared>,
    endpoint: Endpoint<Msg>,
    /// Contract executions in flight: run at dispatch, each completion
    /// held until `dispatch + cost` with at most `exec_pool` overlapping.
    queue: InlineQueue,
    /// Multi-version blockchain state: every applied write is a versioned
    /// put at the writer's log position, so concurrent blocks read
    /// position-correct snapshots.
    state: MvccState,
    ledger: Ledger,
    /// Where committed effects and sealed blocks persist (DESIGN.md §9):
    /// a no-op in memory, the `parblock_store` WAL + block store +
    /// checkpoints on disk. Effects are logged before the COMMIT message
    /// carrying them is multicast, and a block is sealed durably before
    /// it is acknowledged (persist-before-COMMIT).
    durability: Box<dyn Durability>,
    /// NEWBLOCK admission (verification + quorum counting).
    admission: NewBlockQuorum,
    /// Blocks that reached quorum, waiting their turn.
    ready: BTreeMap<u64, Arc<BlockBundle>>,
    /// COMMIT messages for blocks not yet started.
    held_commits: BTreeMap<u64, Vec<Arc<CommitMsg>>>,
    /// In-flight blocks, by number; at most `depth` of them.
    runs: BTreeMap<u64, BlockRun>,
    /// Pending cross-block writers, retained across in-flight blocks.
    xindex: CrossBlockIndex,
    /// Writer position → positions in later in-flight blocks waiting on
    /// its write to be applied (or its abort to be known).
    xwaiters: HashMap<(u64, SeqNo), Vec<(u64, SeqNo)>>,
    /// The next block number to start (≥ the ledger's next number;
    /// in-flight runs live in between).
    next_to_start: u64,
    /// Pipeline capacity (`ClusterSpec::exec_pipeline_depth`, min 1).
    depth: usize,
    /// When the next block became ready while the pipeline was full.
    pending_stall: Option<Instant>,
    /// Pending optimistic-engine events (write rechecks), drained by the
    /// validation pump inside [`Executor::try_advance`].
    opt_events: VecDeque<OptEvent>,
    is_observer: bool,
    /// Peers that receive this node's COMMIT messages.
    commit_dests: Vec<NodeId>,
}

impl Executor {
    /// One construction for both runners. Contract executions run on
    /// this node's own thread, at dispatch; each completion is held on
    /// an [`InlineQueue`] until `dispatch + cost` on the cluster clock,
    /// with at most `spec.exec_pool` modelled executions overlapping.
    /// The threaded runner drives it from [`Executor::run`] on the wall
    /// clock; the deterministic scheduler calls [`Executor::step`] and
    /// advances virtual time to [`Executor::next_completion_due`].
    pub(crate) fn new(shared: Arc<Shared>, endpoint: Endpoint<Msg>) -> Self {
        let queue = InlineQueue::new(shared.spec.exec_pool);
        let mut state = MvccState::with_genesis(shared.genesis.iter().cloned());
        let is_observer = endpoint.id() == shared.spec.observer();
        let commit_dests = shared.spec.peer_ids();
        let admission = NewBlockQuorum::new(shared.spec.newblock_quorum());
        let depth = shared.spec.exec_pipeline_depth.max(1);
        // Crash recovery: an on-disk store rebuilds the sealed chain,
        // the state at the commit watermark, and hence where execution
        // resumes; an in-memory node starts from genesis.
        let seal_trace = if is_observer {
            shared.trace.clone()
        } else {
            parblock_trace::TraceRecorder::default()
        };
        let node = crate::durability::for_peer(&shared.spec, endpoint.id(), seal_trace);
        let durability = node.durability;
        let mut ledger = Ledger::new();
        if let Some(recovered) = node.recovered {
            ledger = recovered
                .ledger()
                .expect("recovered chain verified at store open");
            recovered.overlay_state(&mut state);
        }
        let next_to_start = ledger.next_number().0;
        Executor {
            shared,
            endpoint,
            queue,
            state,
            ledger,
            durability,
            admission,
            ready: BTreeMap::new(),
            held_commits: BTreeMap::new(),
            runs: BTreeMap::new(),
            xindex: CrossBlockIndex::new(),
            xwaiters: HashMap::new(),
            next_to_start,
            depth,
            pending_stall: None,
            opt_events: VecDeque::new(),
            is_observer,
            commit_dests,
        }
    }

    /// The threaded event loop, shaped like the orderer's: block on the
    /// mailbox until a message arrives or the next completion falls due
    /// (capped at [`IDLE_TICK`] for the stop flag), then
    /// [`Executor::step`]. Each event wakes the thread once.
    pub(crate) fn run(mut self) {
        while !self.shared.stop.load(Ordering::Relaxed) {
            let wait = self
                .queue
                .next_due()
                .map(|due| due.saturating_duration_since(self.shared.clock.now()))
                .unwrap_or(IDLE_TICK)
                .min(IDLE_TICK);
            if let Ok(envelope) = self.endpoint.recv_timeout(wait) {
                self.on_msg(envelope.from, envelope.msg);
            }
            self.step();
        }
        self.finalize();
    }

    /// Flushes end-of-run observability (the observer's durability
    /// counters). Called once when the node stops serving.
    pub(crate) fn finalize(&mut self) {
        if self.is_observer {
            self.shared
                .metrics
                .set_durability_stats(self.durability.stats());
        }
    }

    /// One step: drain the mailbox, then surface every execution whose
    /// completion time has arrived on the cluster clock. Returns how many
    /// events (messages + completions) were handled.
    pub(crate) fn step(&mut self) -> usize {
        let mut handled = 0;
        while let Some(envelope) = self.endpoint.try_recv() {
            self.on_msg(envelope.from, envelope.msg);
            handled += 1;
        }
        let due = self.queue.take_due(self.shared.clock.now());
        for completion in due {
            self.on_completion(completion);
            handled += 1;
        }
        handled
    }

    /// The earliest instant at which this executor has more work
    /// (a pending completion), for the scheduler's time advance.
    pub(crate) fn next_completion_due(&self) -> Option<Instant> {
        self.queue.next_due()
    }

    /// Whether executions are still held on the completion queue.
    pub(crate) fn has_pending_work(&self) -> bool {
        !self.queue.is_empty()
    }

    // ---- oracle accessors (deterministic simulation) -------------------

    /// The node id.
    pub(crate) fn node_id(&self) -> NodeId {
        self.endpoint.id()
    }

    /// The sealed ledger (blocks appended strictly in order).
    pub(crate) fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The commit watermark: number of the last sealed block.
    pub(crate) fn watermark(&self) -> BlockNumber {
        BlockNumber(self.ledger.next_number().0 - 1)
    }

    /// State digest at the commit watermark — quorum-voted writes from
    /// still-in-flight later blocks are excluded, so lagging replicas
    /// can be compared prefix-against-prefix.
    pub(crate) fn state_digest_at_watermark(&self) -> Hash32 {
        self.state
            .digest_at(Version::new(self.watermark(), SeqNo(u32::MAX)))
    }

    fn on_msg(&mut self, from: NodeId, msg: Msg) {
        match msg {
            Msg::NewBlock {
                bundle,
                orderer,
                sig,
            } => self.on_new_block(from, bundle, orderer, &sig),
            Msg::Commit(commit) => self.on_commit_msg(&commit),
            _ => {}
        }
    }

    // ---- NEWBLOCK handling (§IV-C: wait for the specified number of
    // matching new-block messages) --------------------------------------

    fn on_new_block(
        &mut self,
        from: NodeId,
        bundle: Arc<BlockBundle>,
        orderer: NodeId,
        sig: &Signature,
    ) {
        // Blocks below `next_to_start` are started or appended already;
        // duplicate quorum copies of them are dropped at admission.
        let next_needed = self.next_to_start;
        if let Some(validated) =
            self.admission
                .admit(&self.shared, from, bundle, orderer, sig, next_needed)
        {
            self.ready.insert(validated.block.number().0, validated);
            self.try_advance();
        }
    }

    /// Drives the pipeline: pumps the optimistic validation loop, appends
    /// finished blocks in order, and starts ready blocks while capacity
    /// lasts, until none of the three makes progress.
    fn try_advance(&mut self) {
        loop {
            let pumped = self.pump_opt();
            let appended = self.drain_finished_blocks();
            let started = self.try_start_ready();
            if !pumped && !appended && !started {
                break;
            }
        }
    }

    /// Starts ready blocks in block order while the pipeline has
    /// capacity. Returns `true` if any block started.
    fn try_start_ready(&mut self) -> bool {
        let mut started = false;
        loop {
            let next = self.next_to_start;
            if !self.ready.contains_key(&next) {
                return started;
            }
            if self.runs.len() >= self.depth {
                // Boundary stall: work is ready but the pipeline is full.
                if self.pending_stall.is_none() {
                    self.pending_stall = Some(self.shared.clock.now());
                }
                return started;
            }
            let bundle = self.ready.remove(&next).expect("checked");
            self.start_block(bundle);
            started = true;
        }
    }

    fn start_block(&mut self, bundle: Arc<BlockBundle>) {
        let graph = bundle
            .graph
            .clone()
            .expect("OXII NEWBLOCK always carries a dependency graph");
        let number = bundle.block.number().0;
        debug_assert_eq!(number, self.next_to_start, "blocks start in order");
        self.next_to_start = number + 1;
        let n = bundle.block.len();
        let me = self.endpoint.id();
        let mut we = vec![false; n];
        let mut we_remaining = 0;
        for (seq, tx) in bundle.block.iter_seq() {
            if self.shared.registry.is_agent(me, tx.app()) {
                we[seq.0 as usize] = true;
                we_remaining += 1;
            }
        }
        // Cross-block dependencies: pending writers of still-in-flight
        // earlier blocks that touch this block's keys. At depth 1 the
        // previous block fully committed before this one starts, so the
        // index is empty and behaviour is exactly the paper's barrier.
        let xdeps = self.xindex.admit_block(number, bundle.block.transactions());
        let mut external = vec![0u32; n];
        for (i, deps) in xdeps.iter().enumerate() {
            external[i] = u32::try_from(deps.len()).expect("dependency count fits u32");
            for &writer in deps {
                self.xwaiters
                    .entry(writer)
                    .or_default()
                    .push((number, SeqNo(i as u32)));
            }
        }
        // Engine choice (deterministic across replicas: the mode is
        // cluster config and the graph rides in the ordered bundle).
        let optimistic = match self.shared.spec.execution_mode {
            ExecutionMode::Pessimistic => false,
            ExecutionMode::Optimistic => true,
            ExecutionMode::HybridByContention => hybrid_picks_optimistic(&graph),
        };
        let engine = if optimistic {
            Engine::Optimistic(Box::new(OptState::new(n)))
        } else {
            Engine::Pessimistic
        };
        // Lifecycle stages are observed once, at the observer node, like
        // the commit metrics: attach the recorder before the first
        // `take_ready` so construction-time roots are stamped too.
        let mut tracker = ReadyTracker::with_external(&graph, &external);
        if self.is_observer && self.shared.trace.enabled() {
            let ids: Vec<TxId> = bundle.block.transactions().iter().map(|tx| tx.id()).collect();
            tracker.set_trace(self.shared.trace.clone(), ids);
        }
        let mut run = BlockRun {
            bundle,
            tracker,
            we,
            votes: HashMap::new(),
            executed: vec![false; n],
            committed: vec![false; n],
            committed_count: 0,
            xe_buffer: Vec::new(),
            we_remaining,
            engine,
        };
        let initial = run.tracker.take_ready();
        self.runs.insert(number, run);
        if self.is_observer {
            self.shared.metrics.record_pipeline_occupancy(self.runs.len());
        }
        if let Some(since) = self.pending_stall.take() {
            if self.is_observer {
                let stall = self.shared.clock.now().saturating_duration_since(since);
                self.shared.metrics.record_boundary_stall(stall);
            }
        }
        if optimistic {
            // Under this engine the tracker's readiness gates validation,
            // not dispatch: record which positions start dependency-free.
            if let Some(run) = self.runs.get_mut(&number) {
                if let Engine::Optimistic(opt) = &mut run.engine {
                    for &seq in &initial {
                        opt.validate_ready[seq.0 as usize] = true;
                    }
                }
            }
            // Block-STM: speculate on every own position at once — the
            // dependency graph only gates validation order, not dispatch.
            for i in 0..n {
                if self.runs.get(&number).is_some_and(|r| r.we[i]) {
                    self.opt_dispatch(number, SeqNo(i as u32));
                }
            }
        } else {
            self.dispatch_ready(number, &initial);
        }
        // Replay commit messages that arrived early (signature-verified
        // on receipt).
        if let Some(held) = self.held_commits.remove(&number) {
            for commit in held {
                self.apply_commit(&commit);
            }
        }
    }

    // ---- Algorithm 1: execution following the dependency graph --------

    fn dispatch_ready(&mut self, number: u64, ready: &[SeqNo]) {
        let Some(run) = self.runs.get(&number) else {
            return;
        };
        debug_assert!(
            matches!(run.engine, Engine::Pessimistic),
            "optimistic runs dispatch through opt_dispatch"
        );
        let block_number = run.bundle.block.number();
        let cost = self.shared.spec.costs.per_tx;
        let mut items = Vec::new();
        for &seq in ready {
            if !run.we[seq.0 as usize] || run.executed[seq.0 as usize] {
                continue;
            }
            let tx = run.bundle.block.tx(seq).expect("seq valid").clone();
            let Ok(contract) = self.shared.registry.contract(tx.app()) else {
                continue;
            };
            // Version-positioned snapshot of the declared read set: the
            // greatest version below this transaction's log position.
            // Every earlier writer of these keys has applied (in-block:
            // the dependency graph; cross-block: the conflict index), so
            // this is the serial-order prefix state for these keys even
            // while other blocks execute concurrently.
            let position = Version::new(block_number, seq);
            let mut snapshot = HashMap::new();
            for key in tx.rw_set().reads() {
                snapshot.insert(*key, self.state.get_at(*key, position));
            }
            items.push(WorkItem {
                block: block_number,
                seq,
                incarnation: 0,
                tx,
                snapshot: SnapshotReader::new(snapshot),
                contract: Arc::clone(contract),
                cost,
            });
        }
        if self.is_observer && self.shared.trace.enabled() {
            let now = self.shared.clock.now();
            for item in &items {
                self.shared
                    .trace
                    .record_at(item.tx.id(), parblock_trace::Stage::Dispatched, now);
            }
        }
        // One dispatch for the whole ready set (DESIGN.md §15): one
        // clock read stamps every completion due time.
        if !items.is_empty() {
            self.queue.dispatch_batch(items, self.shared.clock.now());
        }
    }

    fn on_completion(&mut self, completion: Completion) {
        let number = completion.block.0;
        match self.runs.get(&number).map(|run| &run.engine) {
            None => return, // stale completion from a finished block
            Some(Engine::Optimistic(_)) => self.opt_on_completion(completion),
            Some(Engine::Pessimistic) => self.pess_on_completion(completion),
        }
        self.try_advance();
    }

    /// Pessimistic completion handling: the result is final the moment it
    /// lands (its snapshot was the serial-prefix state by construction).
    fn pess_on_completion(&mut self, completion: Completion) {
        let number = completion.block.0;
        let seq = completion.seq;
        let idx = seq.0 as usize;
        let cut = {
            let Some(run) = self.runs.get_mut(&number) else {
                return; // stale completion from a finished block
            };
            if run.executed[idx] {
                return;
            }
            run.executed[idx] = true;
            run.we_remaining -= 1;
            if self.is_observer {
                if let Some(tx) = run.bundle.block.tx(seq) {
                    self.shared
                        .trace
                        .record(tx.id(), parblock_trace::Stage::Executed);
                }
            }
            // Algorithm 2: multicast when another application needs this
            // result, or when our share of the block is complete. The
            // per-transaction alternative (ablation) flushes every time.
            let graph = run
                .bundle
                .graph
                .as_ref()
                .expect("OXII bundle carries graph");
            match self.shared.spec.commit_flush {
                crate::cluster::CommitFlush::Cut => {
                    graph.has_foreign_successor(seq) || run.we_remaining == 0
                }
                crate::cluster::CommitFlush::PerTransaction => true,
            }
        };
        // Apply own writes immediately as a versioned put (deterministic
        // across agents), so successors read them (Xe semantics of
        // Algorithm 1). Effects hit the WAL (group-commit buffered)
        // before the COMMIT multicast below; they become durable at the
        // latest at the block's seal fsync — a crash before that loses
        // only unsealed results, which recovery re-executes
        // deterministically (DESIGN.md §9).
        if let ExecResult::Committed(writes) = &completion.result {
            let version = Version::new(completion.block, seq);
            self.durability.log_effects(version, writes);
            self.state.apply(writes.iter().cloned(), version);
            // Hybrid pipelines mix engines: a later in-flight optimistic
            // block may have speculated over these keys already.
            let keys: Vec<Key> = writes.iter().map(|(k, _)| *k).collect();
            self.note_writes_applied(version, &keys);
        }
        if let Some(run) = self.runs.get_mut(&number) {
            run.xe_buffer.push((seq, completion.result.clone()));
        }
        if cut {
            self.flush_commit_buffer(number);
        }

        // Vote our own result (Algorithm 3 treats it like any agent's).
        let me = self.endpoint.id();
        self.record_vote(number, seq, me, completion.result);

        // Xe membership releases successors for local execution — both
        // in-block (dependency graph) and cross-block (conflict index).
        self.complete_position(number, seq);
    }

    // ---- The optimistic (Block-STM) engine: speculate, validate,
    // re-execute (DESIGN.md §11) ----------------------------------------

    /// Speculatively dispatches (or re-dispatches) one own position,
    /// snapshotting its declared reads against the committed + speculative
    /// overlay and recording what was observed. A read covered by a
    /// lower-positioned estimate marker defers the dispatch to the
    /// marker's writer instead.
    fn opt_dispatch(&mut self, number: u64, seq: SeqNo) {
        let idx = seq.0 as usize;
        let Some(run) = self.runs.get_mut(&number) else {
            return;
        };
        if run.committed[idx] || run.executed[idx] || !run.we[idx] {
            return;
        }
        let block_number = run.bundle.block.number();
        let tx = run.bundle.block.tx(seq).expect("seq valid").clone();
        let Engine::Optimistic(opt) = &mut run.engine else {
            return;
        };
        for key in tx.rw_set().reads() {
            if let Some(&writer) = opt.estimates.get(key) {
                if writer < seq.0 {
                    opt.deferred.entry(writer).or_default().push(seq.0);
                    return;
                }
            }
        }
        let position = Version::new(block_number, seq);
        let incarnation = opt.incarnation[idx];
        let mut snapshot = HashMap::new();
        let mut recorded = Vec::new();
        for key in tx.rw_set().reads() {
            // Strictly below the position: an incarnation must never
            // observe its own earlier speculative write.
            let observed = self.state.get_at_speculative(*key, position);
            snapshot.insert(*key, observed.as_ref().map(|(value, _)| value.clone()));
            opt.readers.entry(*key).or_default().insert(seq.0);
            recorded.push((*key, observed));
        }
        opt.reads[idx] = recorded;
        let Ok(contract) = self.shared.registry.contract(tx.app()) else {
            return;
        };
        if incarnation > 0 && self.is_observer {
            self.shared.metrics.record_re_execution();
        }
        let item = WorkItem {
            block: block_number,
            seq,
            incarnation,
            tx,
            snapshot: SnapshotReader::new(snapshot),
            contract: Arc::clone(contract),
            cost: self.shared.spec.costs.per_tx,
        };
        // First-record-wins: a re-execution keeps the first dispatch
        // timestamp, so the re-execution delay lands in the
        // executed→validated gap instead of shifting earlier stages.
        if self.is_observer {
            self.shared
                .trace
                .record(item.tx.id(), parblock_trace::Stage::Dispatched);
        }
        self.queue.dispatch(item, self.shared.clock.now());
    }

    /// A speculative execution finished: stage its result for validation,
    /// publish its writes to the speculative overlay, lift its estimate
    /// markers, and release readers that deferred on it.
    fn opt_on_completion(&mut self, completion: Completion) {
        let number = completion.block.0;
        let seq = completion.seq;
        let idx = seq.0 as usize;
        let version = Version::new(completion.block, seq);
        let (keys, deferred) = {
            let Some(run) = self.runs.get_mut(&number) else {
                return;
            };
            if run.committed[idx] || run.executed[idx] {
                return; // already final through votes or validation
            }
            let Engine::Optimistic(opt) = &mut run.engine else {
                return;
            };
            if completion.incarnation != opt.incarnation[idx] {
                return; // stale incarnation, superseded by a re-execution
            }
            opt.exec_done[idx] = true;
            if self.is_observer {
                if let Some(tx) = run.bundle.block.tx(seq) {
                    self.shared
                        .trace
                        .record(tx.id(), parblock_trace::Stage::Executed);
                }
            }
            let keys: Vec<Key> = match &completion.result {
                ExecResult::Committed(writes) => writes.iter().map(|(k, _)| *k).collect(),
                ExecResult::Aborted(_) => Vec::new(),
            };
            opt.spec_keys[idx] = keys.clone();
            opt.pending[idx] = Some(completion.result.clone());
            // The writer has (re-)executed: lift its estimate markers and
            // wake the readers that deferred on it.
            opt.estimates.retain(|_, writer| *writer != seq.0);
            let deferred = opt.deferred.remove(&seq.0).unwrap_or_default();
            (keys, deferred)
        };
        if let ExecResult::Committed(writes) = &completion.result {
            self.state
                .apply_speculative(writes.iter().cloned(), version);
        }
        if !keys.is_empty() {
            self.note_writes_applied(version, &keys);
        }
        for reader in deferred {
            self.opt_dispatch(number, SeqNo(reader));
        }
    }

    /// Queues a recheck of recorded reads over `keys` if any optimistic
    /// run is in flight (writes from any engine can clobber speculation).
    fn note_writes_applied(&mut self, version: Version, keys: &[Key]) {
        if keys.is_empty() {
            return;
        }
        let any_optimistic = self
            .runs
            .values()
            .any(|run| matches!(run.engine, Engine::Optimistic(_)));
        if any_optimistic {
            self.opt_events.push_back(OptEvent::Recheck {
                version,
                keys: keys.to_vec(),
            });
        }
    }

    /// Drains optimistic events and advances validation cursors to a
    /// fixpoint. Returns `true` if anything happened.
    fn pump_opt(&mut self) -> bool {
        let mut progress = false;
        loop {
            if let Some(OptEvent::Recheck { version, keys }) = self.opt_events.pop_front() {
                self.handle_recheck(version, &keys);
                progress = true;
                continue;
            }
            let mut advanced = false;
            let numbers: Vec<u64> = self.runs.keys().copied().collect();
            for number in numbers {
                advanced |= self.validate_scan(number);
            }
            if advanced {
                progress = true;
                continue;
            }
            return progress;
        }
    }

    /// Eager invalidation: writes landed (or were retracted) at
    /// `version`, so speculatively-complete readers of those keys above
    /// it whose recorded reads no longer resolve identically are aborted
    /// and re-dispatched now, rather than discovered at their cursor turn.
    fn handle_recheck(&mut self, version: Version, keys: &[Key]) {
        let numbers: Vec<u64> = self
            .runs
            .iter()
            .filter(|(n, run)| {
                **n >= version.block.0 && matches!(run.engine, Engine::Optimistic(_))
            })
            .map(|(n, _)| *n)
            .collect();
        for number in numbers {
            let candidates: Vec<u32> = {
                let Some(run) = self.runs.get(&number) else {
                    continue;
                };
                let block_number = run.bundle.block.number();
                let Engine::Optimistic(opt) = &run.engine else {
                    continue;
                };
                let mut set = BTreeSet::new();
                for key in keys {
                    if let Some(readers) = opt.readers.get(key) {
                        for &reader in readers {
                            if Version::new(block_number, SeqNo(reader)) > version {
                                set.insert(reader);
                            }
                        }
                    }
                }
                set.into_iter().collect()
            };
            for reader in candidates {
                let idx = reader as usize;
                let invalid = {
                    let Some(run) = self.runs.get(&number) else {
                        break;
                    };
                    if run.committed[idx] || run.executed[idx] {
                        continue;
                    }
                    let Engine::Optimistic(opt) = &run.engine else {
                        break;
                    };
                    // An earlier candidate's cascade may have already
                    // invalidated this one.
                    if !opt.exec_done[idx] {
                        continue;
                    }
                    let position = Version::new(run.bundle.block.number(), SeqNo(reader));
                    !opt.reads[idx]
                        .iter()
                        .all(|(k, observed)| self.state.get_at_speculative(*k, position) == *observed)
                };
                if invalid {
                    self.opt_invalidate(number, SeqNo(reader));
                }
            }
        }
    }

    /// One validation sweep over a run's own positions, ascending: a
    /// position whose graph predecessors are all final
    /// (`validate_ready`) and whose current incarnation has finished
    /// executing gets its recorded reads checked against the live view.
    /// By readiness, every earlier writer of its declared keys — same
    /// block or cross-block — is final, so the check compares against the
    /// serial-prefix values the pessimistic engine would have read: a
    /// pass finalizes the exact pessimistic result, a fail aborts and
    /// re-dispatches the next incarnation. Returns `true` on any change.
    fn validate_scan(&mut self, number: u64) -> bool {
        let mut progress = false;
        let n = {
            let Some(run) = self.runs.get(&number) else {
                return false;
            };
            if !matches!(run.engine, Engine::Optimistic(_)) {
                return false;
            }
            run.bundle.block.len()
        };
        for idx in 0..n {
            let seq = SeqNo(idx as u32);
            let valid = {
                let Some(run) = self.runs.get(&number) else {
                    return progress;
                };
                let Engine::Optimistic(opt) = &run.engine else {
                    return progress;
                };
                if run.committed[idx]
                    || run.executed[idx]
                    || !run.we[idx]
                    || !opt.validate_ready[idx]
                    || !opt.exec_done[idx]
                {
                    continue;
                }
                let position = Version::new(run.bundle.block.number(), seq);
                opt.reads[idx]
                    .iter()
                    .all(|(k, observed)| self.state.get_at_speculative(*k, position) == *observed)
            };
            if self.is_observer {
                self.shared.metrics.record_validation_pass();
            }
            if valid {
                self.opt_finalize(number, seq);
            } else {
                self.opt_invalidate(number, seq);
            }
            progress = true;
        }
        progress
    }

    /// Promotes a validated speculative result to final: the speculative
    /// writes move to the committed layer at the same version, and the
    /// result flows through the unchanged Algorithm 2/3 paths (buffer,
    /// cut multicast, own vote, successor release).
    fn opt_finalize(&mut self, number: u64, seq: SeqNo) {
        let idx = seq.0 as usize;
        let (result, spec_keys, cut, version) = {
            let Some(run) = self.runs.get_mut(&number) else {
                return;
            };
            let block_number = run.bundle.block.number();
            let (result, spec_keys) = {
                let Engine::Optimistic(opt) = &mut run.engine else {
                    return;
                };
                let result = opt.pending[idx]
                    .take()
                    .expect("validated position holds its result");
                let spec_keys = std::mem::take(&mut opt.spec_keys[idx]);
                let reads = std::mem::take(&mut opt.reads[idx]);
                for (key, _) in &reads {
                    if let Some(readers) = opt.readers.get_mut(key) {
                        readers.remove(&seq.0);
                    }
                }
                (result, spec_keys)
            };
            run.executed[idx] = true;
            run.we_remaining -= 1;
            if self.is_observer {
                if let Some(tx) = run.bundle.block.tx(seq) {
                    self.shared
                        .trace
                        .record(tx.id(), parblock_trace::Stage::Validated);
                }
            }
            let graph = run
                .bundle
                .graph
                .as_ref()
                .expect("OXII bundle carries graph");
            let cut = match self.shared.spec.commit_flush {
                crate::cluster::CommitFlush::Cut => {
                    graph.has_foreign_successor(seq) || run.we_remaining == 0
                }
                crate::cluster::CommitFlush::PerTransaction => true,
            };
            run.xe_buffer.push((seq, result.clone()));
            (result, spec_keys, cut, Version::new(block_number, seq))
        };
        if let ExecResult::Committed(writes) = &result {
            // Same value at the same version: later readers that observed
            // the speculative entry stay valid across the promotion.
            self.state.retract_speculative(version, &spec_keys);
            self.durability.log_effects(version, writes);
            self.state.apply(writes.iter().cloned(), version);
        }
        if cut {
            self.flush_commit_buffer(number);
        }
        let me = self.endpoint.id();
        self.record_vote(number, seq, me, result);
        self.complete_position(number, seq);
    }

    /// Aborts the current incarnation of a clobbered position: retract
    /// its speculative writes, leave estimate markers on the retracted
    /// keys (readers defer rather than chase the hole), and re-dispatch
    /// the next incarnation.
    fn opt_invalidate(&mut self, number: u64, seq: SeqNo) {
        let idx = seq.0 as usize;
        let (version, spec_keys) = {
            let Some(run) = self.runs.get_mut(&number) else {
                return;
            };
            let block_number = run.bundle.block.number();
            let Engine::Optimistic(opt) = &mut run.engine else {
                return;
            };
            if !opt.exec_done[idx] {
                return;
            }
            opt.exec_done[idx] = false;
            opt.pending[idx] = None;
            opt.incarnation[idx] += 1;
            let spec_keys = std::mem::take(&mut opt.spec_keys[idx]);
            for key in &spec_keys {
                opt.estimates.insert(*key, seq.0);
            }
            let reads = std::mem::take(&mut opt.reads[idx]);
            for (key, _) in &reads {
                if let Some(readers) = opt.readers.get_mut(key) {
                    readers.remove(&seq.0);
                }
            }
            (Version::new(block_number, seq), spec_keys)
        };
        self.state.retract_speculative(version, &spec_keys);
        if self.is_observer {
            self.shared.metrics.record_spec_abort();
        }
        // Readers of the retracted writes are now stale; their re-dispatch
        // will defer on the estimate markers until the next incarnation.
        self.note_writes_applied(version, &spec_keys);
        self.opt_dispatch(number, seq);
    }

    /// Marks a position complete in its run's tracker, dispatches newly
    /// ready in-block successors, and — on the *first* completion —
    /// retires the position from the cross-block index, releasing
    /// waiting transactions in later in-flight blocks.
    fn complete_position(&mut self, number: u64, seq: SeqNo) {
        let (first, dispatch) = {
            let Some(run) = self.runs.get_mut(&number) else {
                return;
            };
            let first = !run.tracker.is_complete(seq);
            let newly = run.tracker.complete(seq);
            // Optimistic runs dispatched everything up front: readiness
            // unlocks validation (next pump) rather than dispatch.
            let dispatch = match &mut run.engine {
                Engine::Pessimistic => newly,
                Engine::Optimistic(opt) => {
                    for &ready in &newly {
                        opt.validate_ready[ready.0 as usize] = true;
                    }
                    Vec::new()
                }
            };
            (first, dispatch)
        };
        if !dispatch.is_empty() {
            self.dispatch_ready(number, &dispatch);
        }
        if first {
            self.release_cross_block(number, seq);
        }
    }

    /// Retires `(number, seq)` as a pending cross-block writer: its
    /// writes are applied (or it aborted), so later-block readers and
    /// writers waiting on it may proceed.
    fn release_cross_block(&mut self, number: u64, seq: SeqNo) {
        self.xindex.complete(number, seq);
        let Some(waiters) = self.xwaiters.remove(&(number, seq)) else {
            return;
        };
        // Group waiters by block: one batched release and one dispatch
        // handoff per waiting block, instead of one per waiter
        // (DESIGN.md §15). Waiter order within a block is preserved, so
        // deterministic-mode ticket order is unchanged.
        let mut by_block: BTreeMap<u64, Vec<SeqNo>> = BTreeMap::new();
        for (wait_block, wait_seq) in waiters {
            by_block.entry(wait_block).or_default().push(wait_seq);
        }
        for (wait_block, wait_seqs) in by_block {
            let now_ready = {
                let Some(run) = self.runs.get_mut(&wait_block) else {
                    continue;
                };
                let newly = run.tracker.release_external_batch(&wait_seqs);
                match &mut run.engine {
                    Engine::Pessimistic => newly,
                    Engine::Optimistic(opt) => {
                        // Speculation never waited; only validation does.
                        // The scan picks the positions up on the next pump.
                        for &ready in &newly {
                            opt.validate_ready[ready.0 as usize] = true;
                        }
                        Vec::new()
                    }
                }
            };
            if !now_ready.is_empty() {
                self.dispatch_ready(wait_block, &now_ready);
            }
        }
    }

    // ---- Algorithm 2: multicasting the results ------------------------

    fn flush_commit_buffer(&mut self, number: u64) {
        let Some(run) = self.runs.get_mut(&number) else {
            return;
        };
        if run.xe_buffer.is_empty() {
            return;
        }
        let results = std::mem::take(&mut run.xe_buffer);
        let block = run.bundle.block.number();
        let me = self.endpoint.id();
        let digest = commit_digest(block, &results);
        let signer = self.shared.spec.node_signer(me);
        let sig = self.shared.keys.sign(signer, &digest.0);
        let msg = Msg::Commit(Arc::new(CommitMsg {
            block,
            results,
            executor: me,
            sig,
        }));
        self.endpoint.multicast(self.commit_dests.iter(), &msg);
    }

    // ---- Algorithm 3: updating the blockchain state -------------------

    fn on_commit_msg(&mut self, commit: &Arc<CommitMsg>) {
        let signer = self.shared.spec.node_signer(commit.executor);
        let digest = commit_digest(commit.block, &commit.results);
        if !self.shared.keys.verify(signer, &digest.0, &commit.sig) {
            return;
        }
        let number = commit.block.0;
        if self.runs.contains_key(&number) {
            self.apply_commit(commit);
        } else if number >= self.next_to_start {
            // Early: the block has not started here yet.
            self.held_commits
                .entry(number)
                .or_default()
                .push(Arc::clone(commit));
        }
        // Late (block already appended): drop.
        self.try_advance();
    }

    /// Counts a verified COMMIT message's votes against its in-flight
    /// run.
    fn apply_commit(&mut self, commit: &Arc<CommitMsg>) {
        let number = commit.block.0;
        for (seq, result) in &commit.results {
            // Algorithm 3 checks the sender is an agent of x's app.
            let app = {
                let Some(run) = self.runs.get(&number) else {
                    return;
                };
                match run.bundle.block.tx(*seq) {
                    Some(tx) => tx.app(),
                    None => continue,
                }
            };
            if !self.shared.registry.is_agent(commit.executor, app) {
                continue;
            }
            self.record_vote(number, *seq, commit.executor, result.clone());
        }
    }

    /// Records one agent's result for `seq`; commits the transaction once
    /// τ(A) matching results are present.
    fn record_vote(&mut self, number: u64, seq: SeqNo, agent: NodeId, result: ExecResult) {
        let Some(run) = self.runs.get_mut(&number) else {
            return;
        };
        let idx = seq.0 as usize;
        if run.committed[idx] {
            return;
        }
        let votes = run.votes.entry(seq).or_default();
        if votes.iter().any(|(a, _)| *a == agent) {
            return; // one vote per agent
        }
        votes.push((agent, result));
        let app = run
            .bundle
            .block
            .tx(seq)
            .expect("valid position")
            .app();
        let required = self.shared.spec.commit_policy().required(app);
        // Find a result with enough matching votes.
        let winner = votes
            .iter()
            .map(|(_, candidate)| {
                (
                    candidate,
                    votes.iter().filter(|(_, r)| r.matches(candidate)).count(),
                )
            })
            .find(|(_, count)| *count >= required)
            .map(|(r, _)| r.clone());
        if let Some(result) = winner {
            self.commit_tx(number, seq, result);
        }
    }

    fn commit_tx(&mut self, number: u64, seq: SeqNo, result: ExecResult) {
        let idx = seq.0 as usize;
        let (block_number, tx_id, executed_locally) = {
            let Some(run) = self.runs.get_mut(&number) else {
                return;
            };
            if run.committed[idx] {
                return;
            }
            run.committed[idx] = true;
            run.committed_count += 1;
            let tx_id: TxId = run.bundle.block.tx(seq).expect("valid").id();
            (run.bundle.block.number(), tx_id, run.executed[idx])
        };
        match &result {
            ExecResult::Committed(writes) => {
                // Agents applied their own writes at execution time; a
                // re-applied identical version is idempotent. Remote
                // results are logged on first apply — they too are part
                // of the recoverable datastore.
                if !executed_locally {
                    let version = Version::new(block_number, seq);
                    self.durability.log_effects(version, writes);
                    self.state.apply(writes.iter().cloned(), version);
                }
                if self.is_observer {
                    self.shared.metrics.record_commit(tx_id);
                }
            }
            ExecResult::Aborted(_) => {
                if self.is_observer {
                    self.shared.metrics.record_abort(tx_id);
                }
            }
        }
        // A quorum decision overrides any local speculation on the
        // position: cancel the in-flight incarnation, retract its
        // speculative writes, and wake readers deferred on it. The
        // committed writes (applied above) may clobber other recorded
        // reads, so queue a recheck.
        let hook = {
            if let Some(run) = self.runs.get_mut(&number) {
                if let Engine::Optimistic(opt) = &mut run.engine {
                    opt.incarnation[idx] = opt.incarnation[idx].wrapping_add(1);
                    opt.exec_done[idx] = false;
                    opt.pending[idx] = None;
                    let spec_keys = std::mem::take(&mut opt.spec_keys[idx]);
                    let reads = std::mem::take(&mut opt.reads[idx]);
                    for (key, _) in &reads {
                        if let Some(readers) = opt.readers.get_mut(key) {
                            readers.remove(&seq.0);
                        }
                    }
                    opt.estimates.retain(|_, writer| *writer != seq.0);
                    let deferred = opt.deferred.remove(&seq.0).unwrap_or_default();
                    Some((spec_keys, deferred))
                } else {
                    None
                }
            } else {
                None
            }
        };
        if let Some((spec_keys, deferred)) = hook {
            let version = Version::new(block_number, seq);
            self.state.retract_speculative(version, &spec_keys);
            let committed_keys: Vec<Key> = match &result {
                ExecResult::Committed(writes) => writes.iter().map(|(k, _)| *k).collect(),
                ExecResult::Aborted(_) => Vec::new(),
            };
            // Both the retraction and the committed writes shift what
            // later readers should have observed.
            self.note_writes_applied(version, &spec_keys);
            self.note_writes_applied(version, &committed_keys);
            for reader in deferred {
                self.opt_dispatch(number, SeqNo(reader));
            }
        }
        // Ce membership releases successors (Algorithm 1's Ce ∪ Xe).
        self.complete_position(number, seq);
    }

    /// Appends fully committed blocks to the ledger **strictly in
    /// order** — the commit watermark only ever moves forward — pruning
    /// state versions below it. Returns `true` if any block appended.
    fn drain_finished_blocks(&mut self) -> bool {
        let mut appended = false;
        loop {
            let next = self.ledger.next_number().0;
            if !self.runs.get(&next).is_some_and(BlockRun::is_done) {
                return appended;
            }
            // Flush any tail results not yet multicast: with τ(A) below
            // the full agent set, a block can fully commit on remote
            // votes before this node's own share finishes executing, so
            // the `we_remaining == 0` cut may never have fired.
            self.flush_commit_buffer(next);
            let run = self.runs.remove(&next).expect("checked");
            self.ledger
                .append(run.bundle.block.clone())
                .expect("blocks arrive in order with verified hash links");
            // Durable seal before the block is acknowledged anywhere
            // (metrics, observers): fsync barrier over the block body
            // and every logged effect at or below it. The seal hook
            // also owns GC — it prunes state versions below the new
            // watermark and, on disk, checkpoints the pruned state and
            // truncates the WAL on the configured cadence — so version
            // GC and log truncation advance together.
            self.durability.seal_block(
                &run.bundle.block,
                run.bundle.graph.as_ref(),
                self.ledger.head_hash(),
                &mut self.state,
            );
            if self.is_observer {
                self.shared.metrics.record_block();
                self.shared.metrics.set_ledger_head(self.ledger.head_hash());
                if self.shared.spec.capture_state {
                    self.shared.metrics.set_state_digest(self.state.digest());
                }
                // The seal above is synchronous, so stamping after it
                // returns charges the fsync (on disk) to the
                // committed→durable gap — in memory the gap collapses
                // to the drain-loop overhead.
                self.shared.trace.record_durable_block(
                    run.bundle.block.transactions().iter().map(|tx| tx.id()),
                );
            }
            self.held_commits.remove(&next);
            appended = true;
        }
    }
}

/// Version tag leading every COMMIT digest preimage. Bump on any layout
/// change so preimages from different layouts can never collide.
const COMMIT_DIGEST_VERSION: u8 = 1;

/// Digest of a COMMIT message's contents (signed by the executor).
///
/// Values are serialized with [`Value`]'s canonical wire encoding. An
/// earlier revision rendered them through `format!("{value:?}")`, which
/// allocated a `String` per write on the commit hot path and — worse —
/// made the signature preimage depend on `Debug` output, which Rust
/// does not guarantee stable across releases (a silent rolling-upgrade
/// signature break). That pattern is now a `hot-path-alloc` lint error.
fn commit_digest(block: BlockNumber, results: &[(SeqNo, ExecResult)]) -> Hash32 {
    use parblock_types::wire::Wire;
    let mut bytes = Vec::new();
    COMMIT_DIGEST_VERSION.encode(&mut bytes);
    block.0.encode(&mut bytes);
    for (seq, result) in results {
        u64::from(seq.0).encode(&mut bytes);
        match result {
            ExecResult::Committed(writes) => {
                0u8.encode(&mut bytes);
                (writes.len() as u64).encode(&mut bytes);
                for (key, value) in writes {
                    key.0.encode(&mut bytes);
                    value.encode(&mut bytes);
                }
            }
            ExecResult::Aborted(_) => 1u8.encode(&mut bytes),
        }
    }
    parblock_crypto::sha256(&bytes)
}

/// Spawns an OXII executor (or passive peer) thread.
pub(crate) fn spawn_executor(
    shared: Arc<Shared>,
    endpoint: Endpoint<Msg>,
) -> std::thread::JoinHandle<()> {
    let name = format!("executor-{}", endpoint.id());
    // lint:allow(thread-spawn) — node threads are the threaded runner's
    // execution model; the deterministic harness uses the sim scheduler
    std::thread::Builder::new()
        .name(name)
        .spawn(move || Executor::new(shared, endpoint).run())
        .expect("spawn executor")
}

#[cfg(test)]
mod tests {
    use super::*;
    use parblock_types::wire::Wire;

    fn sample_results() -> Vec<(SeqNo, ExecResult)> {
        vec![
            (
                SeqNo(0),
                ExecResult::Committed(vec![
                    (Key(1), Value::Int(5)),
                    (Key(2), Value::Text("paid".into())),
                ]),
            ),
            (SeqNo(1), ExecResult::Aborted("missing state".into())),
            (
                SeqNo(3),
                ExecResult::Committed(vec![(Key(7), Value::Bytes(vec![0xde, 0xad]))]),
            ),
        ]
    }

    /// Pins the COMMIT digest preimage layout. If this golden value
    /// moves, `COMMIT_DIGEST_VERSION` must be bumped in the same change:
    /// executors signing the old layout and verifiers hashing the new
    /// one would otherwise reject each other's COMMITs mid-upgrade.
    #[test]
    fn commit_digest_is_pinned() {
        let digest = commit_digest(BlockNumber(9), &sample_results());
        assert_eq!(
            digest.to_hex(),
            "2d9ecd938f82c5091551467b21dc528ec6f92fa65629f7e25397b7658dc4f10d"
        );
    }

    /// The digest must use `Value`'s canonical wire encoding, not its
    /// `Debug` rendering: Debug output is not a stable wire format (and
    /// allocated a `String` per write on the commit hot path).
    #[test]
    fn commit_digest_does_not_depend_on_debug_rendering() {
        let results = sample_results();
        let legacy = {
            let mut bytes = Vec::new();
            BlockNumber(9).0.encode(&mut bytes);
            for (seq, result) in &results {
                u64::from(seq.0).encode(&mut bytes);
                match result {
                    ExecResult::Committed(writes) => {
                        0u8.encode(&mut bytes);
                        (writes.len() as u64).encode(&mut bytes);
                        for (key, value) in writes {
                            key.0.encode(&mut bytes);
                            format!("{value:?}").as_str().encode(&mut bytes);
                        }
                    }
                    ExecResult::Aborted(_) => 1u8.encode(&mut bytes),
                }
            }
            parblock_crypto::sha256(&bytes)
        };
        let canonical = commit_digest(BlockNumber(9), &results);
        assert_ne!(canonical, legacy, "digest still matches the Debug-based layout");
    }

    /// Distinct value variants with look-alike content must hash apart:
    /// the tagged encoding separates `Text("5")` from `Int(5)` and
    /// `Bytes` from `Text` bytes.
    #[test]
    fn commit_digest_separates_value_variants() {
        let mk = |value: Value| {
            commit_digest(
                BlockNumber(1),
                &[(SeqNo(0), ExecResult::Committed(vec![(Key(1), value)]))],
            )
        };
        let digests = [
            mk(Value::Int(5)),
            mk(Value::Text("5".into())),
            mk(Value::Bytes(b"5".to_vec())),
            mk(Value::Unit),
        ];
        for (i, a) in digests.iter().enumerate() {
            for b in &digests[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    /// Abort reasons are intentionally outside the digest (agents may
    /// produce differently worded reasons for the same deterministic
    /// abort; τ(A) matching only needs the outcome).
    #[test]
    fn commit_digest_ignores_abort_reason_wording() {
        let a = commit_digest(
            BlockNumber(2),
            &[(SeqNo(0), ExecResult::Aborted("missing state".into()))],
        );
        let b = commit_digest(
            BlockNumber(2),
            &[(SeqNo(0), ExecResult::Aborted("account absent".into()))],
        );
        assert_eq!(a, b);
    }
}
