//! Multi-server placement: the stripe map and the runtime stripe set.
//!
//! Every session routes every file block through the **stripe map** of
//! its placement (see [`StripePolicy`](crate::config::StripePolicy); a
//! single-upstream session is the width-1 map): a pure function from
//! block index to the `replicas` distinct members that hold the block. The map is
//! deterministic — no RNG, no state — so the client, a rebuilt client,
//! and a test oracle all agree on the placement, and a reconnect cannot
//! silently re-home blocks.
//!
//! The **stripe set** is the runtime side: one pipelined channel per
//! member plus an up/down flag. Reads try a block's members in map order
//! and fail over past down members; replicated flushes fan WRITE batches
//! out to every live member of each block. The client proxy owns the set
//! outright — demand traffic, flushes and read-ahead all enter it from
//! the one thread that drives the proxy.

use crate::config::StripePolicy;
use crate::proxy::pipeline::{PendingReply, Pipeline};

/// Pure block → members placement for one session.
///
/// Member of replica `j` of block `b` is `(b * replicas + j) % width`:
/// consecutive residues, so the `replicas` members of one block are
/// always distinct (`replicas <= width`), and the assignment sequence is
/// a plain round-robin over the members — over any prefix of blocks,
/// per-member load is balanced within one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeMap {
    width: u32,
    replicas: u32,
    block_size: u32,
}

impl StripeMap {
    /// Build the map for a placement, clamping degenerate policies
    /// (`width >= 1`, `1 <= replicas <= width`, `block_size >= 1`).
    pub fn new(policy: StripePolicy) -> Self {
        let width = policy.width.max(1);
        Self {
            width,
            replicas: policy.replicas.clamp(1, width),
            block_size: policy.block_size.max(1),
        }
    }

    /// Number of members the map distributes over.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Replicas per block.
    pub fn replicas(&self) -> u32 {
        self.replicas
    }

    /// Stripe unit in bytes.
    pub fn block_size(&self) -> u32 {
        self.block_size
    }

    /// The block index a byte offset falls in.
    pub fn block_of(&self, offset: u64) -> u64 {
        offset / self.block_size as u64
    }

    /// The distinct members holding `block`, in read-preference order
    /// (the first is the block's primary). Allocation-free: the routing
    /// function walks this once per forwarded READ.
    pub fn members_of_block(&self, block: u64) -> impl Iterator<Item = usize> {
        let (base, width) = (block * self.replicas as u64, self.width as u64);
        (0..self.replicas as u64).map(move |j| ((base + j) % width) as usize)
    }

    /// The members holding the block containing byte `offset`.
    pub fn members_of_offset(&self, offset: u64) -> impl Iterator<Item = usize> {
        self.members_of_block(self.block_of(offset))
    }

    /// The distinct members holding any block the byte extent
    /// `[offset, offset + len)` touches, in first-touch order (an empty
    /// extent counts as its first byte; one running past `u64::MAX` ends
    /// there — the server, not the router, rejects it).
    pub fn members_of_extent(&self, offset: u64, len: u64) -> Vec<usize> {
        let mut members = Vec::with_capacity(self.replicas as usize);
        let last = offset.saturating_add(len.max(1) - 1);
        for block in self.block_of(offset)..=self.block_of(last) {
            for m in self.members_of_block(block) {
                if !members.contains(&m) {
                    members.push(m);
                }
            }
            if members.len() == self.width as usize {
                break;
            }
        }
        members
    }

    /// Whether some member lacks some block (`replicas < width`). This is
    /// the one placement property the data path may branch on: a partial
    /// member undershoots the file size and serves holes past its own
    /// blocks, so it needs the size mirror, the GETATTR fan-out, the
    /// grow-only attr rule and block-bounded extents. A full-copy member
    /// — every member of a fully replicated set, and the only member of a
    /// single-upstream session — needs none of them.
    pub fn is_partial(&self) -> bool {
        self.replicas < self.width
    }

    /// How many of `len` bytes starting at `offset` one member can serve
    /// or absorb in one piece: all of them under full-copy placement, up
    /// to the stripe-block boundary otherwise.
    pub fn contiguous(&self, offset: u64, len: u64) -> u64 {
        if !self.is_partial() {
            return len;
        }
        let bs = self.block_size as u64;
        len.min(bs - offset % bs)
    }
}

/// The runtime stripe set: the map plus one pipelined channel per member
/// and the mask of members currently in the read/write set. A re-sync
/// can swap in a fresh channel for a member whose old pipeline burned its
/// reconnect budget while the host was away.
///
/// Down is sticky until [`mark_up`](Self::mark_up): a member is taken out
/// when a call on it fails *and another member is left to degrade to*,
/// and rejoins only after an explicit re-sync
/// (`ClientProxy::resync_member`). The last member standing is never
/// taken out — there is nothing to fail over to, so its error simply
/// surfaces and the next call tries its channel (which reconnects on its
/// own) again. A single-upstream session therefore never degrades.
pub struct StripeSet {
    map: StripeMap,
    members: Vec<Pipeline>,
    /// Bit `m` set = member `m` is up.
    up: u64,
}

impl StripeSet {
    /// Assemble a set from one pipeline per member. `pipelines.len()`
    /// must equal the map width.
    pub fn new(map: StripeMap, pipelines: Vec<Pipeline>) -> Self {
        assert_eq!(
            pipelines.len(),
            map.width() as usize,
            "stripe set needs exactly one pipeline per member"
        );
        assert!(pipelines.len() <= 64, "the up mask holds 64 members");
        Self { map, up: u64::MAX >> (64 - pipelines.len()), members: pipelines }
    }

    /// The placement map.
    pub fn map(&self) -> &StripeMap {
        &self.map
    }

    /// Number of members.
    pub fn width(&self) -> usize {
        self.members.len()
    }

    /// The member's pipelined channel (a cheap cloneable handle).
    pub fn member(&self, idx: usize) -> Pipeline {
        self.members[idx].clone()
    }

    /// Wait for one member's reply while keeping every other member's
    /// window turning: a fan-out submits to each member before waiting on
    /// them one at a time, and the waiter is the only driver they have.
    pub fn wait(&self, reply: PendingReply) -> std::io::Result<Vec<u8>> {
        reply.wait_beside(&self.members)
    }

    /// Swap in a fresh channel for `idx` — the rejoin half of failover.
    /// The old pipeline retires when its last outstanding handle drops.
    pub fn replace_member(&mut self, idx: usize, pipeline: Pipeline) {
        self.members[idx] = pipeline;
    }

    /// Whether the member is currently in the read/write set.
    pub fn is_up(&self, idx: usize) -> bool {
        self.up & (1 << idx) != 0
    }

    /// Take the member out of the read/write set — unless it is the last
    /// one in, which stays. Returns `true` if this call transitioned it
    /// (so callers emit the failover event exactly once per incident);
    /// [`is_up`](Self::is_up) tells a refusal from a repeat.
    pub fn mark_down(&mut self, idx: usize) -> bool {
        let bit = 1u64 << idx;
        let transition = self.up & bit != 0 && self.up != bit;
        if transition {
            self.up &= !bit;
        }
        transition
    }

    /// Return a re-synced member to the read/write set.
    pub fn mark_up(&mut self, idx: usize) {
        self.up |= 1 << idx;
    }

    /// Members currently marked down.
    pub fn down_count(&self) -> u64 {
        self.members.len() as u64 - self.up.count_ones() as u64
    }

    /// The live members of `block`, in read-preference order.
    pub fn live_members_of_block(&self, block: u64) -> impl Iterator<Item = usize> + '_ {
        self.map.members_of_block(block).filter(|&m| self.is_up(m))
    }

    /// The lowest-index live member (metadata traffic routes here); there
    /// always is one, since the last member standing is never taken out.
    pub fn first_live(&self) -> usize {
        self.up.trailing_zeros() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(width: u32, replicas: u32, block_size: u32) -> StripeMap {
        StripeMap::new(StripePolicy { width, replicas, block_size })
    }

    fn members(m: &StripeMap, block: u64) -> Vec<usize> {
        m.members_of_block(block).collect()
    }

    /// Per-member block counts over the first `blocks` blocks.
    fn coverage(m: &StripeMap, blocks: u64) -> Vec<u64> {
        let mut counts = vec![0u64; m.width() as usize];
        for b in 0..blocks {
            for member in m.members_of_block(b) {
                counts[member] += 1;
            }
        }
        counts
    }

    #[test]
    fn degenerate_policies_clamp() {
        let m = map(0, 0, 0);
        assert_eq!((m.width(), m.replicas(), m.block_size()), (1, 1, 1));
        let m = map(2, 5, 512);
        assert_eq!(m.replicas(), 2, "replicas clamped to width");
    }

    #[test]
    fn width_one_maps_everything_to_member_zero() {
        let m = map(1, 1, 512);
        for b in [0, 1, 7, 1000] {
            assert_eq!(members(&m, b), vec![0]);
        }
    }

    #[test]
    fn offsets_bucket_by_block_size() {
        let m = map(4, 1, 512);
        assert_eq!(m.block_of(0), 0);
        assert_eq!(m.block_of(511), 0);
        assert_eq!(m.block_of(512), 1);
        assert_eq!(m.members_of_offset(1024).collect::<Vec<_>>(), members(&m, 2));
    }

    #[test]
    fn only_partial_placements_bound_extents_at_the_stripe_block() {
        // Full copies — one upstream, or every block on every member.
        for full in [map(1, 1, 512), map(3, 3, 512)] {
            assert!(!full.is_partial());
            assert_eq!(full.contiguous(256, 4096), 4096);
        }
        let partial = map(3, 2, 512);
        assert!(partial.is_partial());
        assert_eq!(partial.contiguous(256, 4096), 256, "up to the block boundary");
        assert_eq!(partial.contiguous(512, 100), 100, "short extents pass whole");
        assert_eq!(partial.contiguous(512, 0), 0);
    }

    #[test]
    fn extent_members_are_the_union_over_covered_blocks() {
        let m = map(4, 1, 512);
        assert_eq!(m.members_of_extent(0, 512), vec![0]);
        assert_eq!(m.members_of_extent(256, 512), vec![0, 1]);
        assert_eq!(m.members_of_extent(512, 0), vec![1], "empty extent = its first byte");
        assert_eq!(m.members_of_extent(0, 1 << 30), vec![0, 1, 2, 3], "stops once all are in");
        assert_eq!(map(1, 1, 512).members_of_extent(100, 4096), vec![0]);
        // An extent running off the end of the offset space still routes:
        // rejecting it is the server's answer to give, not a router panic.
        assert_eq!(map(1, 1, 512).members_of_extent(u64::MAX - 10, 4096), vec![0]);
        assert_eq!(m.members_of_extent(u64::MAX, u64::MAX).len(), 1);
    }

    #[test]
    fn replicas_are_distinct_members() {
        let m = map(4, 3, 512);
        for b in 0..64 {
            let members = members(&m, b);
            let mut dedup = members.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "block {b}: {members:?}");
        }
    }

    #[test]
    fn coverage_balanced_within_one_block() {
        // The counterexample that killed the primary+consecutive scheme:
        // 2 blocks, width 4, 2 replicas must land one block per member.
        let counts = coverage(&map(4, 2, 512), 2);
        assert_eq!(counts, vec![1, 1, 1, 1]);
        for (w, r, n) in [(4u32, 1u32, 10u64), (3, 2, 7), (5, 3, 11), (8, 2, 1)] {
            let counts = coverage(&map(w, r, 512), n);
            let min = *counts.iter().min().unwrap();
            let max = *counts.iter().max().unwrap();
            assert!(max - min <= 1, "w={w} r={r} n={n}: {counts:?}");
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Arbitrary placement: every block of the file maps to
            /// exactly `replicas` *distinct* members, and per-member
            /// coverage over the whole file is balanced within one block.
            #[test]
            fn placement_is_distinct_and_balanced(
                file_size in 0u64..4 * 1024 * 1024,
                block_size in 1u32..128 * 1024,
                width in 1u32..9,
                replicas in 1u32..9,
            ) {
                let m = map(width, replicas, block_size);
                let blocks = file_size.div_ceil(m.block_size() as u64);
                let mut counts = vec![0u64; m.width() as usize];
                for b in 0..blocks {
                    let members = members(&m, b);
                    prop_assert_eq!(members.len(), m.replicas() as usize);
                    let mut dedup = members.clone();
                    dedup.sort_unstable();
                    dedup.dedup();
                    prop_assert_eq!(
                        dedup.len(), m.replicas() as usize,
                        "block {} placed twice on one member: {:?}", b, members
                    );
                    for member in members {
                        prop_assert!(member < m.width() as usize);
                        counts[member] += 1;
                    }
                }
                let min = counts.iter().min().copied().unwrap_or(0);
                let max = counts.iter().max().copied().unwrap_or(0);
                prop_assert!(
                    max - min <= 1,
                    "coverage skew over {} blocks: {:?}", blocks, counts
                );
            }

            /// The map is a pure function of the policy: a rebuilt map
            /// (what a reconnect or a fresh client produces) places every
            /// block and byte offset identically. No block silently
            /// re-homes across a session recovery.
            #[test]
            fn placement_is_stable_across_rebuilds(
                block_size in 1u32..128 * 1024,
                width in 0u32..9,
                replicas in 0u32..12,
                probe_blocks in proptest::collection::vec(0u64..1 << 40, 1..32),
                probe_offsets in proptest::collection::vec(0u64..1 << 50, 1..32),
            ) {
                let policy = StripePolicy { width, replicas, block_size };
                let a = StripeMap::new(policy);
                let b = StripeMap::new(policy);
                prop_assert_eq!(a, b);
                for &blk in &probe_blocks {
                    prop_assert_eq!(members(&a, blk), members(&b, blk));
                }
                for &off in &probe_offsets {
                    prop_assert_eq!(a.block_of(off), b.block_of(off));
                    prop_assert!(a.members_of_offset(off).eq(b.members_of_offset(off)));
                }
            }
        }
    }

    #[test]
    fn stripe_set_tracks_membership() {
        use sgfs_net::pipe_pair;

        let m = map(2, 2, 512);
        let mut pipelines = Vec::new();
        let mut servers = Vec::new();
        for _ in 0..2 {
            let (client, server) = pipe_pair();
            let watch = client.watch();
            servers.push(server);
            pipelines.push(Pipeline::new(
                crate::proxy::client::Upstream::Plain(Box::new(client)),
                watch,
                4,
                None,
                sgfs_obs::Emitter::detached("client"),
            ));
        }
        let mut set = StripeSet::new(m, pipelines);
        assert_eq!(set.width(), 2);
        assert_eq!(set.first_live(), 0);
        assert_eq!(set.live_members_of_block(0).collect::<Vec<_>>(), vec![0, 1]);

        assert!(set.mark_down(0), "first mark_down transitions");
        assert!(!set.mark_down(0), "second is a no-op");
        assert_eq!(set.down_count(), 1);
        assert_eq!(set.first_live(), 1);
        assert_eq!(set.live_members_of_block(0).collect::<Vec<_>>(), vec![1]);

        // The last member standing stays: there is nothing to degrade to.
        assert!(!set.mark_down(1), "refused");
        assert!(set.is_up(1));
        assert_eq!(set.down_count(), 1);

        set.mark_up(0);
        assert!(set.is_up(0));
        assert_eq!(set.down_count(), 0);
        drop(servers);
    }
}
