//! NEWBLOCK admission shared by every peer kind: signature/hash
//! verification and quorum counting over matching orderer announcements
//! (§IV-C: a peer "marks the new block as a valid block" after "a
//! specified number of matching new block messages", e.g. f + 1 under
//! PBFT).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use parblock_crypto::{hash_wire, Signature};
use parblock_types::{Hash32, NodeId};

use crate::msg::BlockBundle;
use crate::shared::Shared;

struct Candidate {
    bundle: Arc<BlockBundle>,
    signers: HashSet<NodeId>,
}

/// Tracks NEWBLOCK announcements until a block reaches its quorum.
pub(crate) struct NewBlockQuorum {
    required: usize,
    candidates: BTreeMap<u64, HashMap<Hash32, Candidate>>,
    /// Blocks at or above the caller's `next_needed` that already reached
    /// their quorum, so later copies are dropped before any crypto.
    admitted: BTreeSet<u64>,
}

impl NewBlockQuorum {
    pub(crate) fn new(required: usize) -> Self {
        NewBlockQuorum {
            required: required.max(1),
            candidates: BTreeMap::new(),
            admitted: BTreeSet::new(),
        }
    }

    /// Verifies an announcement end-to-end (transport sender = claimed
    /// orderer, known orderer, valid signature over the hash, hash
    /// matches the block) and counts it. Returns the validated bundle
    /// the moment its quorum is reached.
    ///
    /// Copies of blocks below `next_needed` (already applied) or already
    /// admitted are dropped *before* the signature check and the block
    /// hash: with every orderer announcing every block, the surplus
    /// copies would otherwise repeat that crypto per block. Candidates
    /// below `next_needed` are pruned, so a lone late copy under a
    /// quorum above 1 leaves nothing behind.
    pub(crate) fn admit(
        &mut self,
        shared: &Shared,
        from: NodeId,
        bundle: Arc<BlockBundle>,
        orderer: NodeId,
        sig: &Signature,
        next_needed: u64,
    ) -> Option<Arc<BlockBundle>> {
        self.prune_below(next_needed);
        let number = bundle.block.number().0;
        if number < next_needed || self.admitted.contains(&number) {
            return None; // already applied or already admitted
        }
        if from != orderer || !shared.spec.orderer_ids().contains(&orderer) {
            return None;
        }
        let signer = shared.spec.node_signer(orderer);
        if !shared.keys.verify(signer, &bundle.hash.0, sig) {
            return None;
        }
        if hash_wire(&bundle.block) != bundle.hash {
            return None;
        }
        let slot = self.candidates.entry(number).or_default();
        let candidate = slot.entry(bundle.hash).or_insert_with(|| Candidate {
            bundle,
            signers: HashSet::new(),
        });
        candidate.signers.insert(orderer);
        if candidate.signers.len() >= self.required {
            let validated = Arc::clone(&candidate.bundle);
            self.candidates.remove(&number);
            self.admitted.insert(number);
            Some(validated)
        } else {
            None
        }
    }

    /// Forgets candidates and admissions below `next_needed`.
    fn prune_below(&mut self, next_needed: u64) {
        if self
            .candidates
            .first_key_value()
            .is_some_and(|(n, _)| *n < next_needed)
        {
            self.candidates = self.candidates.split_off(&next_needed);
        }
        if self.admitted.first().is_some_and(|n| *n < next_needed) {
            self.admitted = self.admitted.split_off(&next_needed);
        }
    }
}

#[cfg(test)]
mod tests {
    use parblock_types::{Block, BlockNumber};

    use crate::cluster::{ClusterSpec, SystemKind};

    use super::*;

    fn setup() -> (Arc<Shared>, Arc<BlockBundle>) {
        let mut spec = ClusterSpec::new(SystemKind::Oxii);
        spec.consensus = crate::cluster::ConsensusKind::Pbft;
        spec.orderers = 4;
        let shared = Shared::new(spec);
        let block = Block::new(BlockNumber(1), parblock_ledger::Ledger::genesis_hash(), vec![]);
        let hash = hash_wire(&block);
        let bundle = Arc::new(BlockBundle {
            block,
            graph: None,
            hash,
        });
        (shared, bundle)
    }

    fn announce(
        quorum: &mut NewBlockQuorum,
        shared: &Shared,
        bundle: &Arc<BlockBundle>,
        orderer: NodeId,
    ) -> Option<Arc<BlockBundle>> {
        announce_needing(quorum, shared, bundle, orderer, 1)
    }

    fn announce_needing(
        quorum: &mut NewBlockQuorum,
        shared: &Shared,
        bundle: &Arc<BlockBundle>,
        orderer: NodeId,
        next_needed: u64,
    ) -> Option<Arc<BlockBundle>> {
        let sig = shared
            .keys
            .sign(shared.spec.node_signer(orderer), &bundle.hash.0);
        quorum.admit(shared, orderer, Arc::clone(bundle), orderer, &sig, next_needed)
    }

    #[test]
    fn quorum_requires_distinct_orderers() {
        let (shared, bundle) = setup();
        let mut quorum = NewBlockQuorum::new(2);
        assert!(announce(&mut quorum, &shared, &bundle, NodeId(0)).is_none());
        // Duplicate from the same orderer does not help.
        assert!(announce(&mut quorum, &shared, &bundle, NodeId(0)).is_none());
        assert!(announce(&mut quorum, &shared, &bundle, NodeId(1)).is_some());
    }

    #[test]
    fn forged_sender_and_bad_signature_rejected() {
        let (shared, bundle) = setup();
        let mut quorum = NewBlockQuorum::new(1);
        // Transport sender differs from the claimed orderer.
        let sig = shared
            .keys
            .sign(shared.spec.node_signer(NodeId(0)), &bundle.hash.0);
        assert!(quorum
            .admit(&shared, NodeId(3), Arc::clone(&bundle), NodeId(0), &sig, 1)
            .is_none());
        // Signature from the wrong key.
        let bad_sig = shared
            .keys
            .sign(shared.spec.node_signer(NodeId(1)), &bundle.hash.0);
        assert!(quorum
            .admit(&shared, NodeId(0), Arc::clone(&bundle), NodeId(0), &bad_sig, 1)
            .is_none());
        // Non-orderer announcer.
        let sig9 = shared
            .keys
            .sign(shared.spec.node_signer(NodeId(5)), &bundle.hash.0);
        assert!(quorum
            .admit(&shared, NodeId(5), Arc::clone(&bundle), NodeId(5), &sig9, 1)
            .is_none());
    }

    #[test]
    fn stale_blocks_rejected() {
        let (shared, bundle) = setup();
        let mut quorum = NewBlockQuorum::new(1);
        let sig = shared
            .keys
            .sign(shared.spec.node_signer(NodeId(0)), &bundle.hash.0);
        // next_needed = 2 > block number 1.
        assert!(quorum
            .admit(&shared, NodeId(0), bundle, NodeId(0), &sig, 2)
            .is_none());
    }

    #[test]
    fn tampered_block_content_rejected() {
        let (shared, bundle) = setup();
        let mut quorum = NewBlockQuorum::new(1);
        // Re-wrap with a mismatching hash.
        let tampered = Arc::new(BlockBundle {
            block: bundle.block.clone(),
            graph: None,
            hash: Hash32([9; 32]),
        });
        let sig = shared
            .keys
            .sign(shared.spec.node_signer(NodeId(0)), &tampered.hash.0);
        assert!(quorum
            .admit(&shared, NodeId(0), tampered, NodeId(0), &sig, 1)
            .is_none());
    }

    #[test]
    fn surplus_copies_of_an_admitted_block_are_dropped() {
        let (shared, bundle) = setup();
        let mut quorum = NewBlockQuorum::new(1);
        assert!(announce(&mut quorum, &shared, &bundle, NodeId(0)).is_some());
        // The block waits in the caller's ready set (`next_needed` is
        // still 1): the second and third orderers' copies change nothing.
        assert!(announce(&mut quorum, &shared, &bundle, NodeId(1)).is_none());
        assert!(announce(&mut quorum, &shared, &bundle, NodeId(2)).is_none());
        assert!(quorum.candidates.is_empty(), "no candidate left behind");
    }

    #[test]
    fn stale_candidates_are_pruned() {
        let (shared, bundle) = setup();
        let mut quorum = NewBlockQuorum::new(2);
        // A lone copy short of its quorum leaves a candidate ...
        assert!(announce(&mut quorum, &shared, &bundle, NodeId(0)).is_none());
        assert!(quorum.candidates.contains_key(&1));
        // ... until the caller moves past the block.
        assert!(announce_needing(&mut quorum, &shared, &bundle, NodeId(1), 2).is_none());
        assert!(quorum.candidates.is_empty(), "candidate below next_needed pruned");
    }
}
