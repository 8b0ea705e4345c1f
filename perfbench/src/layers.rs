//! The layer pass: each layer's public calls, timed on the workload's
//! own blocks (the observer chain of a deterministic run of the same
//! spec and seed), plus the dependency-graph shape that sets the
//! modelled capacity ceiling.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use parblock_contracts::{ExecOutcome, StateReader};
use parblock_crypto::{hash_wire, SignerId};
use parblock_depgraph::{DependencyGraph, ExecutionLayers, ReadyTracker, StreamingBuilder};
use parblock_ledger::{MvccState, Version};
use parblock_net::{NetworkBuilder, SimNetwork, Topology};
use parblock_store::Store;
use parblock_types::wire::Wire;
use parblock_types::{Block, BlockNumber, Key, SeqNo, Value};
use parblockchain::msg::{BlockBundle, Msg};
use parblockchain::ClusterSpec;

use crate::report::{median, nearest_rank, Metric};
use crate::timed;

/// Messages timed by the delivery probe.
const DELIVER_PROBES: usize = 2_000;

/// Longest wait for one probe message before the pass gives up.
const RECV_TIMEOUT: Duration = Duration::from_secs(5);

/// A snapshot of a transaction's declared reads, as an executor
/// presents it to the contract.
struct Snapshot(HashMap<Key, Option<Value>>);

impl StateReader for Snapshot {
    fn read(&self, key: Key) -> Value {
        self.try_read(key).unwrap_or_default()
    }

    fn try_read(&self, key: Key) -> Option<Value> {
        self.0.get(&key).cloned().flatten()
    }
}

/// One transaction of the serial replay: its position, its snapshot
/// and the writes it committed.
struct Step {
    block: usize,
    version: Version,
    snapshot: Snapshot,
    writes: Vec<(Key, Value)>,
}

/// What the layer pass measured.
#[derive(Default)]
pub struct LayerPass {
    pub metrics: Vec<Metric>,
    /// Transactions in the pass's blocks.
    pub txs: usize,
    /// Sum over blocks of the dependency graph's critical path.
    pub critical_path_sum: usize,
}

fn ns_per(total: Duration, n: usize) -> f64 {
    total.as_nanos() as f64 / n.max(1) as f64
}

/// The version just below `version`: where the transaction at `version`
/// reads once every write of its block is in the store.
fn just_below(version: Version) -> Version {
    if version.seq.0 == 0 {
        Version::new(BlockNumber(version.block.0 - 1), SeqNo(u32::MAX))
    } else {
        Version::new(version.block, SeqNo(version.seq.0 - 1))
    }
}

fn end_of(block: &Block) -> Version {
    Version::new(block.number(), SeqNo(u32::MAX))
}

/// Streaming graph construction and ready-set release, per block.
fn depgraph(
    spec: &ClusterSpec,
    blocks: &[Block],
) -> Result<(Vec<DependencyGraph>, [f64; 4]), String> {
    let mut builder = StreamingBuilder::new(spec.depgraph_mode);
    let (mut observe, mut release) = (Duration::ZERO, Duration::ZERO);
    let (mut txs, mut edges, mut critical) = (0usize, 0usize, 0usize);
    let mut graphs = Vec::with_capacity(blocks.len());
    for block in blocks {
        let (graph, took) = timed(|| {
            for tx in block.transactions() {
                builder.observe(tx);
            }
            builder.finish()
        });
        observe += took;

        let (drained, took) = timed(|| {
            let mut tracker = ReadyTracker::new(&graph);
            while !tracker.is_done() {
                let ready = tracker.take_ready();
                if ready.is_empty() {
                    return false;
                }
                for x in ready {
                    black_box(tracker.complete(x));
                }
            }
            true
        });
        if !drained {
            return Err(format!(
                "block {}: dependency graph stalls",
                block.number().0
            ));
        }
        release += took;

        txs += graph.len();
        edges += graph.edge_count();
        critical += ExecutionLayers::compute(&graph).critical_path();
        graphs.push(graph);
    }
    let shape = [
        ns_per(observe, txs),
        ns_per(release, txs),
        edges as f64 / txs.max(1) as f64,
        critical as f64,
    ];
    Ok((graphs, shape))
}

/// Serially replays the blocks (untimed), keeping each transaction's
/// snapshot and writes for the timed passes.
fn replay(
    spec: &ClusterSpec,
    blocks: &[Block],
    genesis: &[(Key, Value)],
) -> Result<Vec<Step>, String> {
    let registry = spec.registry();
    let mut state = MvccState::with_genesis(genesis.iter().cloned());
    let mut steps = Vec::new();
    for (b, block) in blocks.iter().enumerate() {
        for (seq, tx) in block.iter_seq() {
            let version = Version::new(block.number(), seq);
            let snapshot = Snapshot(
                tx.rw_set()
                    .reads()
                    .iter()
                    .map(|&key| (key, state.get_at(key, version)))
                    .collect(),
            );
            let contract = registry.contract(tx.app()).map_err(|e| e.to_string())?;
            let ExecOutcome::Commit(writes) = contract.execute(tx, &snapshot) else {
                return Err(format!("{:?} aborted in the serial replay", tx.id()));
            };
            state.apply(writes.iter().cloned(), version);
            steps.push(Step {
                block: b,
                version,
                snapshot,
                writes,
            });
        }
        state.prune(end_of(block));
    }
    Ok(steps)
}

/// Contract execution over the recorded snapshots.
fn contracts(spec: &ClusterSpec, blocks: &[Block], steps: &[Step]) -> Result<f64, String> {
    let registry = spec.registry();
    let txs: Vec<_> = blocks.iter().flat_map(|b| b.transactions()).collect();
    let mut contracts = Vec::with_capacity(txs.len());
    for tx in &txs {
        contracts.push(registry.contract(tx.app()).map_err(|e| e.to_string())?);
    }
    let ((), took) = timed(|| {
        for ((tx, contract), step) in txs.iter().zip(&contracts).zip(steps) {
            black_box(contract.execute(tx, &step.snapshot));
        }
    });
    Ok(ns_per(took, txs.len()))
}

/// MVCC puts of every write and reads of every declared key at its
/// transaction's position, block by block with the executor's seal-time
/// pruning. Every read must see what the serial replay saw.
fn ledger(
    blocks: &[Block],
    genesis: &[(Key, Value)],
    steps: &[Step],
) -> Result<(f64, f64), String> {
    let mut state = MvccState::with_genesis(genesis.iter().cloned());
    let (mut put, mut get) = (Duration::ZERO, Duration::ZERO);
    let (mut puts, mut gets) = (0usize, 0usize);
    for (b, block) in blocks.iter().enumerate() {
        let in_block: Vec<&Step> = steps.iter().filter(|s| s.block == b).collect();
        let writes: Vec<(Key, Value, Version)> = in_block
            .iter()
            .flat_map(|s| s.writes.iter().map(|(k, v)| (*k, v.clone(), s.version)))
            .collect();
        puts += writes.len();
        put += timed(|| {
            for (key, value, version) in writes {
                state.put(key, value, version);
            }
        })
        .1;

        let reads: Vec<(Key, Version)> = in_block
            .iter()
            .flat_map(|s| s.snapshot.0.keys().map(|&k| (k, just_below(s.version))))
            .collect();
        gets += reads.len();
        let (seen, took) = timed(|| {
            reads
                .iter()
                .map(|&(k, at)| state.get_at(k, at))
                .collect::<Vec<_>>()
        });
        get += took;

        let expected = in_block
            .iter()
            .flat_map(|s| s.snapshot.0.keys().map(|k| s.snapshot.0[k].clone()));
        if !seen.into_iter().eq(expected) {
            return Err(format!(
                "block {b}: MVCC reads differ from the serial replay"
            ));
        }
        state.prune(end_of(block));
    }
    Ok((ns_per(put, puts), ns_per(get, gets)))
}

/// WAL appends of every write set and one seal per block, in a fresh
/// store under `dir`: `(append ns, seal p50 µs, seal p99 µs)`.
fn store(
    spec: &ClusterSpec,
    blocks: &[Block],
    graphs: &[DependencyGraph],
    steps: &[Step],
    dir: &Path,
) -> Result<[f64; 3], String> {
    let io = |e: std::io::Error| format!("store: {e}");
    let (mut store, _) = Store::open(dir, spec.durability_config).map_err(io)?;
    let mut append = Duration::ZERO;
    let mut seals = Vec::with_capacity(blocks.len());
    for (b, (block, graph)) in blocks.iter().zip(graphs).enumerate() {
        let (logged, took) = timed(|| {
            steps
                .iter()
                .filter(|s| s.block == b)
                .try_for_each(|step| store.log_effects(step.version, &step.writes))
        });
        logged.map_err(io)?;
        append += took;
        let (sealed, took) = timed(|| store.seal_block(block, Some(graph), hash_wire(block)));
        sealed.map_err(io)?;
        seals.push(took.as_nanos() as u64);
    }
    seals.sort_unstable();
    Ok([
        ns_per(append, steps.len()),
        nearest_rank(&seals, 0.5) as f64 / 1e3,
        nearest_rank(&seals, 0.99) as f64 / 1e3,
    ])
}

/// Client-signature signing and verification of every transaction.
fn crypto(spec: &ClusterSpec, blocks: &[Block]) -> Result<(f64, f64), String> {
    let keys = spec.build_keys();
    let messages: Vec<(SignerId, Vec<u8>)> = blocks
        .iter()
        .flat_map(|b| b.transactions())
        .map(|tx| (spec.client_signer(tx.client()), tx.wire_bytes()))
        .collect();
    let (sigs, sign) = timed(|| {
        messages
            .iter()
            .map(|(s, m)| keys.sign(*s, m))
            .collect::<Vec<_>>()
    });
    let (verified, verify) = timed(|| {
        messages
            .iter()
            .zip(&sigs)
            .filter(|((s, m), sig)| keys.verify(*s, m, sig))
            .count()
    });
    let (sign, verify) = (ns_per(sign, messages.len()), ns_per(verify, messages.len()));
    if verified != messages.len() {
        return Err(format!(
            "{} of {} signatures verified",
            verified,
            messages.len()
        ));
    }
    Ok((sign, verify))
}

/// Enqueue→receive of client requests on a zero-latency network, and
/// the cost of multicasting each NEWBLOCK to every peer:
/// `(deliver ns, multicast ns)`, medians.
fn network(
    spec: &ClusterSpec,
    blocks: &[Block],
    graphs: &[DependencyGraph],
) -> Result<(f64, f64), String> {
    let net: SimNetwork<Msg> = NetworkBuilder::new()
        .topology(Topology::single_dc(Duration::ZERO))
        .seed(spec.seed)
        .build();
    let keys = spec.build_keys();
    let entry = spec.entry_orderer();
    let client = net.endpoint(spec.client_node());
    let orderer = net.endpoint(entry);
    let peer_ids = spec.peer_ids();
    let peers: Vec<_> = peer_ids.iter().map(|&id| net.endpoint(id)).collect();
    let lost = |e| format!("network probe message lost: {e:?}");

    let result = (|| {
        let mut deliver = Vec::with_capacity(DELIVER_PROBES);
        for tx in blocks
            .iter()
            .flat_map(|b| b.transactions())
            .take(DELIVER_PROBES)
        {
            let sig = keys.sign(spec.client_signer(tx.client()), &tx.wire_bytes());
            let msg = Msg::Request {
                tx: tx.clone(),
                sig,
            };
            let (received, took) = timed(|| {
                client.send(entry, msg);
                orderer.recv_timeout(RECV_TIMEOUT)
            });
            received.map_err(lost)?;
            deliver.push(took.as_nanos() as f64);
        }
        let mut multicast = Vec::with_capacity(blocks.len());
        for (block, graph) in blocks.iter().zip(graphs) {
            let hash = hash_wire(block);
            let msg = Msg::NewBlock {
                bundle: Arc::new(BlockBundle {
                    block: block.clone(),
                    graph: Some(graph.clone()),
                    hash,
                }),
                orderer: entry,
                sig: keys.sign(spec.node_signer(entry), &hash.0),
            };
            let ((), took) = timed(|| orderer.multicast(&peer_ids, &msg));
            multicast.push(took.as_nanos() as f64);
            for peer in &peers {
                peer.recv_timeout(RECV_TIMEOUT).map_err(lost)?;
            }
        }
        Ok((median(&deliver), median(&multicast)))
    })();
    net.shutdown();
    result
}

/// Runs every layer's calls over `blocks`. `store_dir` is given on
/// on-disk workloads only; the store metrics are N/A otherwise.
pub fn run(
    spec: &ClusterSpec,
    blocks: &[Block],
    genesis: &[(Key, Value)],
    store_dir: Option<&Path>,
) -> Result<LayerPass, String> {
    let (graphs, [observe, release, edges, critical]) = depgraph(spec, blocks)?;
    let steps = replay(spec, blocks, genesis)?;
    let execute = contracts(spec, blocks, &steps)?;
    let (put, get) = ledger(blocks, genesis, &steps)?;
    let (sign, verify) = crypto(spec, blocks)?;
    let (deliver, multicast) = network(spec, blocks, &graphs)?;
    let mut metrics = vec![
        Metric::new("depgraph.observe_ns_per_tx", observe),
        Metric::new("depgraph.release_ns_per_tx", release),
        Metric::new("depgraph.edges_per_tx", edges),
        Metric::new(
            "depgraph.critical_path",
            critical / blocks.len().max(1) as f64,
        ),
        Metric::new("contracts.execute_ns_per_tx", execute),
        Metric::new("ledger.put_ns", put),
        Metric::new("ledger.get_at_ns", get),
        Metric::new("crypto.sign_ns", sign),
        Metric::new("crypto.verify_ns", verify),
        Metric::new("network.deliver_ns", deliver),
        Metric::new("network.multicast_ns", multicast),
    ];
    match store_dir {
        Some(dir) => {
            let [append, p50, p99] = store(spec, blocks, &graphs, &steps, dir)?;
            metrics.push(Metric::new("store.append_ns", append));
            metrics.push(Metric::new("store.seal_p50_us", p50));
            metrics.push(Metric::new("store.seal_p99_us", p99));
        }
        None => {
            metrics.push(Metric::na("store.append_ns"));
            metrics.push(Metric::na("store.seal_p50_us"));
            metrics.push(Metric::na("store.seal_p99_us"));
        }
    }
    Ok(LayerPass {
        metrics,
        txs: steps.len(),
        critical_path_sum: critical as usize,
    })
}

/// The capacity the cost model allows: each block takes its critical
/// path × `per_tx`, `exec_pipeline_depth` blocks overlap, and no
/// executor runs more than `exec_pool` transactions at once. `None`
/// when the model charges nothing per transaction.
pub fn ceiling_tps(spec: &ClusterSpec, txs: usize, critical_path_sum: usize) -> Option<f64> {
    let per_tx = spec.costs.per_tx.as_secs_f64();
    if per_tx == 0.0 || critical_path_sum == 0 {
        return None;
    }
    let graph_bound =
        spec.exec_pipeline_depth as f64 * txs as f64 / (critical_path_sum as f64 * per_tx);
    Some(graph_bound.min(spec.exec_pool as f64 / per_tx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_sit_just_below_their_writer() {
        let v = Version::new(BlockNumber(3), SeqNo(0));
        assert_eq!(just_below(v), Version::new(BlockNumber(2), SeqNo(u32::MAX)));
        let v = Version::new(BlockNumber(3), SeqNo(7));
        assert_eq!(just_below(v), Version::new(BlockNumber(3), SeqNo(6)));
    }

    /// The pass runs every layer, store included, on a short
    /// deterministic run of each workload; its MVCC reads must agree
    /// with the serial replay.
    #[test]
    fn every_layer_runs_on_the_workloads_own_blocks() {
        let root = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        let mut scratch = crate::workloads::Scratch::new(root);
        for w in crate::workloads::WORKLOADS {
            let spec = w.spec(3);
            let outcome = parblockchain::run_sim(&parblockchain::SimConfig::new(
                spec.clone(),
                10 * crate::workloads::BLOCK_TXS,
                w.rate_tps,
            ));
            let genesis = parblock_workload::WorkloadGen::new(spec.workload_config()).genesis();
            let dir = scratch.dir();
            let pass = run(&spec, &outcome.observer_chain, &genesis, Some(dir.path()))
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(pass.txs, 10 * crate::workloads::BLOCK_TXS, "{}", w.name);
            assert!(pass.critical_path_sum >= 10, "{}", w.name);
            let empty: Vec<_> = pass
                .metrics
                .iter()
                .filter(|m| m.na || m.value <= 0.0)
                .collect();
            assert!(empty.is_empty(), "{}: {empty:?}", w.name);
        }
    }

    #[test]
    fn ceiling_follows_the_critical_path_and_the_pool() {
        let mut spec = ClusterSpec::new(parblockchain::SystemKind::Oxii);
        spec.exec_pipeline_depth = 2;
        spec.exec_pool = 16;
        spec.costs = parblock_types::ExecutionCosts::per_tx(Duration::from_micros(500));
        // 100-tx blocks with a 20-tx critical path: 2 × 100 / (20 × 0.5 ms).
        let c = ceiling_tps(&spec, 1_000, 200).expect("a cost is modelled");
        assert!((c - 20_000.0).abs() < 1e-6, "{c}");
        // A flat graph is bounded by the pool: 16 / 0.5 ms.
        let c = ceiling_tps(&spec, 1_000, 10).expect("a cost is modelled");
        assert!((c - 32_000.0).abs() < 1e-6, "{c}");
        spec.costs = parblock_types::ExecutionCosts::zero();
        assert_eq!(ceiling_tps(&spec, 1_000, 200), None);
    }
}
