//! The benchmark's workloads. Both run OXII over the sequencer with the
//! shipped defaults (3 orderers, 3 applications × 1 executor, 1
//! non-executor, pipeline depth 2, 16-worker pools, pessimistic
//! engine), in memory, with 100-transaction blocks; they differ in
//! contention and the modelled execution cost.

use std::path::{Path, PathBuf};
use std::time::Duration;

use parblock_types::{BlockCutConfig, ExecutionCosts};
use parblockchain::{ClusterSpec, DurabilityMode, SystemKind};

/// Transactions per block.
pub const BLOCK_TXS: usize = 100;

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Fraction of each block's transactions that conflict.
    pub contention: f64,
    /// Whether conflicts span applications (the paper's OXII*).
    pub cross_app: bool,
    /// Modelled execution cost per transaction.
    pub per_tx: Duration,
    /// Offered rate of the latency phase, below the knee.
    pub rate_tps: f64,
    /// Expected drain capacity; sizes the capacity phase's backlog so
    /// each repetition lasts about as long on every workload.
    pub nominal_peak_tps: f64,
    /// Offered rate of the traced run's on-disk segment (WAL, fsync and
    /// checkpoints on the commit path), which gives the store layer's
    /// in-cluster figures; `None` leaves the store out.
    pub disk_rate_tps: Option<f64>,
}

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 2] = [
    // No modelled cost: the code is the bottleneck. Orderer, cutter,
    // streaming graph, delivery, executor bookkeeping and MVCC do the
    // work; dependency chains and the store do almost none. Its traced
    // run also persists the same inputs, to measure the store.
    Workload {
        name: "lowc",
        contention: 0.2,
        cross_app: false,
        per_tx: Duration::ZERO,
        rate_tps: 8_000.0,
        nominal_peak_tps: 20_000.0,
        disk_rate_tps: Some(4_000.0),
    },
    // The paper's Fig 6 OXII* shape: capacity is set by the critical
    // path, so scheduling and COMMIT exchange dominate and pure CPU
    // savings should not move it.
    Workload {
        name: "highc-xapp",
        contention: 0.8,
        cross_app: true,
        per_tx: Duration::from_micros(500),
        rate_tps: 1_000.0,
        nominal_peak_tps: 1_600.0,
        disk_rate_tps: None,
    },
];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The in-memory cluster spec for `seed`.
    pub fn spec(&self, seed: u64) -> ClusterSpec {
        let mut spec = ClusterSpec::new(SystemKind::Oxii);
        spec.block_cut = BlockCutConfig::with_max_txns(BLOCK_TXS);
        spec.costs = ExecutionCosts::per_tx(self.per_tx);
        spec.workload.contention = self.contention;
        spec.workload.cross_app = self.cross_app;
        spec.durability = DurabilityMode::InMemory;
        spec.seed = seed;
        spec
    }
}

/// Fresh, uniquely named data directories under one root, each removed
/// when dropped; the root is removed with the `Scratch`.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    next: u64,
}

impl Scratch {
    pub fn new(root: PathBuf) -> Scratch {
        Scratch { root, next: 0 }
    }

    /// A directory that does not exist yet (the store creates it).
    pub fn dir(&mut self) -> ScratchDir {
        self.next += 1;
        ScratchDir(self.root.join(format!("d{:04}", self.next)))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        wipe(&self.root);
    }
}

/// Removes a scratch directory and everything in it, if it exists.
fn wipe(path: &Path) {
    // lint:allow(file-io) — wipes the benchmark's own scratch stores
    let _ = std::fs::remove_dir_all(path);
}

/// One data directory, wiped when dropped.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// `spec`, persisting every node in this directory from empty.
    pub fn on_disk(&self, mut spec: ClusterSpec) -> ClusterSpec {
        spec.durability = DurabilityMode::OnDisk {
            data_dir: self.0.clone(),
            fresh: true,
        };
        spec
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        wipe(&self.0);
    }
}
