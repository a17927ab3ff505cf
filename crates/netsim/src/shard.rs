//! Sharded parallel execution across independent connected components.
//!
//! [`FlowCore`](crate::flow::FlowCore) (the incremental allocator) proves
//! that disjoint resource components never interact: a component's
//! allocation is a pure function of its own membership and capacities.
//! This module turns that isolation into parallelism while keeping the
//! engine's headline guarantee — same seed, same bits — intact:
//!
//! * [`ComponentTracker`] maintains the connected components of the
//!   resource↔flow coupling graph incrementally (union-find on flow
//!   insert, lazy rebuild on removal-induced splits). The partition it
//!   reports is what a sharded run distributes over, and the moments it
//!   changes shape (merge/split) are exactly where a sharded executor must
//!   barrier.
//! * [`run_shards`] executes independent shards on scoped worker threads
//!   (the house style: `std::thread::scope`, no runtime) with a
//!   deterministic reduction — results land in shard-id order no matter
//!   which worker finishes first, so any fold over them is bit-identical
//!   to the sequential fold.
//! * [`fold_digests`] and [`merge_rate_changes`] are the canonical
//!   reductions: digests folded in shard-id order, cross-shard rate
//!   changes sorted by flow id — never by slab slot assignment or worker
//!   completion order, both of which vary across shards and schedules.
//!
//! # Determinism argument
//!
//! Each shard is an independent sub-simulation with its own event clock,
//! its own event queue and its own seeded PRNG; its execution is a pure
//! function of its spec, identical on any thread. Workers only *claim*
//! shard indices from one atomic counter and write each result into the
//! slot for that index; the end-of-round thread join is the only barrier,
//! and the merge that follows reads slots in index order. Thread
//! scheduling therefore cannot reorder anything observable. Workloads
//! whose components stay coupled degrade gracefully to a single shard —
//! sequential execution through the same code path, trivially
//! bit-identical. `simcheck` proves the end-to-end claim by running every
//! scenario under this executor and diffing chained digests against the
//! sequential execution (a `shard_divergence` violation on any mismatch).

use crate::audit::Digest;
use crate::flow::RateChange;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Hard ceiling on worker threads: shards are memory-bandwidth-bound well
/// before this, and an unbounded pool only adds scheduling noise.
pub const MAX_THREADS: usize = 8;

/// Number of worker threads to use for sharded runs: an explicit request
/// (CLI `--threads`), else the `DETOUR_THREADS` environment variable, else
/// the host's available parallelism — always clamped to
/// `1..=`[`MAX_THREADS`]. A requested `0` means "auto".
pub fn resolve_threads(requested: Option<usize>) -> usize {
    requested
        .filter(|&n| n > 0)
        .or_else(|| {
            std::env::var("DETOUR_THREADS")
                .ok()
                .and_then(|s| s.parse().ok())
                .filter(|&n| n > 0)
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .clamp(1, MAX_THREADS)
}

/// Incrementally tracked connected components of the resource↔flow
/// coupling graph.
///
/// Resources are the vertices; every flow couples the resources it
/// crosses. Inserting a flow that spans two components *merges* them
/// (union-find, O(α) per edge). Removing a flow can *split* a component,
/// which union-find cannot express incrementally — the tracker marks
/// itself dirty and rebuilds from the surviving flows on the next query.
/// Merge and split are precisely the events at which a sharded executor
/// must barrier and repartition; [`ComponentTracker::merges`] and
/// [`ComponentTracker::rebuilds`] count them.
///
/// Flows crossing no resources (uncapped empty-resource flows) are their
/// own singleton components.
///
/// The partition is reported in canonical form (see
/// [`ComponentTracker::components`]): members sorted by flow id,
/// components ordered by their smallest member flow id — independent of
/// insertion order, union order and any slot assignment, and therefore
/// identical no matter which shard or thread computed it.
#[derive(Debug, Clone)]
pub struct ComponentTracker {
    /// Union-find parents over resources; roots are always the smallest
    /// resource index in their component, so the root *is* the canonical
    /// component id.
    parent: Vec<u32>,
    /// flow id → the (sorted, deduped) resources it couples.
    flows: HashMap<u64, Vec<u32>>,
    merges: u64,
    rebuilds: u64,
    dirty: bool,
}

impl ComponentTracker {
    /// An empty tracker over `resources` vertices.
    pub fn new(resources: usize) -> Self {
        ComponentTracker {
            parent: (0..resources as u32).collect(),
            flows: HashMap::new(),
            merges: 0,
            rebuilds: 0,
            dirty: false,
        }
    }

    /// Append a resource vertex; returns its index.
    pub fn add_resource(&mut self) -> u32 {
        let r = self.parent.len() as u32;
        self.parent.push(r);
        r
    }

    /// Number of resource vertices.
    pub fn resources(&self) -> usize {
        self.parent.len()
    }

    /// Number of tracked flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Spanning inserts that merged two or more components so far.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Removal-induced partition rebuilds performed so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Track a flow coupling `resources`; returns true if the insert
    /// merged previously separate components (a shard-merge barrier
    /// point).
    pub fn insert_flow(&mut self, id: u64, resources: &[u32]) -> bool {
        self.ensure_fresh();
        let mut rs: Vec<u32> = resources.to_vec();
        rs.sort_unstable();
        rs.dedup();
        debug_assert!(rs.iter().all(|&r| (r as usize) < self.parent.len()));
        let mut merged = false;
        for w in rs.windows(2) {
            merged |= self.union(w[0], w[1]);
        }
        if merged {
            self.merges += 1;
        }
        let prev = self.flows.insert(id, rs);
        debug_assert!(prev.is_none(), "flow {id} tracked twice");
        merged
    }

    /// Stop tracking a flow; returns false if it was unknown. A removed
    /// multi-resource flow may have been the only thing stitching its
    /// component together, so the partition is rebuilt lazily on the next
    /// query (a shard-split barrier point).
    pub fn remove_flow(&mut self, id: u64) -> bool {
        let Some(rs) = self.flows.remove(&id) else {
            return false;
        };
        // A single-resource flow contributed no union; removing it can
        // never split anything.
        if rs.len() > 1 {
            self.dirty = true;
        }
        true
    }

    /// Number of components among *tracked flows* (empty components of
    /// flowless resources are not counted).
    pub fn component_count(&mut self) -> usize {
        self.components().len()
    }

    /// The current partition of tracked flows in canonical form: each
    /// component's flow ids sorted ascending, components ordered by their
    /// smallest member flow id.
    pub fn components(&mut self) -> Vec<Vec<u64>> {
        self.ensure_fresh();
        let mut flow_roots: Vec<(u64, Option<u32>)> = self
            .flows
            .iter()
            .map(|(&id, rs)| (id, rs.first().copied()))
            .collect();
        let mut by_root: HashMap<u32, Vec<u64>> = HashMap::new();
        let mut out: Vec<Vec<u64>> = Vec::new();
        for (id, first) in flow_roots.drain(..) {
            match first {
                Some(r) => {
                    let root = self.find(r);
                    by_root.entry(root).or_default().push(id);
                }
                // Isolated flow: its own singleton component.
                None => out.push(vec![id]),
            }
        }
        for (_, mut members) in by_root.drain() {
            members.sort_unstable();
            out.push(members);
        }
        out.sort_unstable_by_key(|c| c[0]);
        out
    }

    fn find(&mut self, r: u32) -> u32 {
        // Path halving: grandparent shortcut on the way up.
        let mut r = r as usize;
        while self.parent[r] as usize != r {
            self.parent[r] = self.parent[self.parent[r] as usize];
            r = self.parent[r] as usize;
        }
        r as u32
    }

    /// Union by smallest root index, so the canonical id (the component's
    /// minimum resource index) is always the root. Path halving in `find`
    /// keeps chains short without rank bookkeeping.
    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi as usize] = lo;
        true
    }

    fn ensure_fresh(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        self.rebuilds += 1;
        for (i, p) in self.parent.iter_mut().enumerate() {
            *p = i as u32;
        }
        // Re-union every surviving flow's resource chain. The union-find
        // fixpoint is order-independent, so no ordering is needed here.
        let edges: Vec<(u32, u32)> = self
            .flows
            .values()
            .flat_map(|rs| rs.windows(2).map(|w| (w[0], w[1])))
            .collect();
        for (a, b) in edges {
            self.union(a, b);
        }
    }
}

/// Reference connected components, computed from scratch by breadth-first
/// search over the resource↔flow bipartite graph. Quadratic and
/// allocation-happy — exists as the oracle the incremental
/// [`ComponentTracker`] is property-tested against, the same
/// reference-implementation pattern as
/// [`max_min_allocate`](crate::flow::max_min_allocate). Returns the same
/// canonical form as [`ComponentTracker::components`].
pub fn reference_components(n_resources: usize, flows: &[(u64, Vec<u32>)]) -> Vec<Vec<u64>> {
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_resources];
    for (fi, (_, rs)) in flows.iter().enumerate() {
        for &r in rs {
            members[r as usize].push(fi);
        }
    }
    let mut flow_seen = vec![false; flows.len()];
    let mut res_seen = vec![false; n_resources];
    let mut out: Vec<Vec<u64>> = Vec::new();
    for start in 0..flows.len() {
        if flow_seen[start] {
            continue;
        }
        flow_seen[start] = true;
        let mut comp = vec![flows[start].0];
        let mut frontier: Vec<u32> = Vec::new();
        for &r in &flows[start].1 {
            if !res_seen[r as usize] {
                res_seen[r as usize] = true;
                frontier.push(r);
            }
        }
        while let Some(r) = frontier.pop() {
            for &fi in &members[r as usize] {
                if !flow_seen[fi] {
                    flow_seen[fi] = true;
                    comp.push(flows[fi].0);
                    for &r2 in &flows[fi].1 {
                        if !res_seen[r2 as usize] {
                            res_seen[r2 as usize] = true;
                            frontier.push(r2);
                        }
                    }
                }
            }
        }
        comp.sort_unstable();
        out.push(comp);
    }
    out.sort_unstable_by_key(|c| c[0]);
    out
}

/// Execute independent shards on up to `workers` scoped threads; returns
/// the results **in shard-id order**, regardless of which worker finished
/// which shard first.
///
/// `run(i, spec)` is called exactly once per shard. Specs cross the thread
/// boundary (`S: Send`), but everything a shard builds from its spec —
/// `Sim`, processes, `Rc`-laden drivers — lives and dies on the worker
/// that claimed it, so shard internals need not be `Send`. Workers claim
/// indices from a single atomic counter (deterministic work set, arbitrary
/// schedule) and write results into per-shard slots; the scope join is the
/// barrier, after which slots are read in index order. With `workers <= 1`
/// (or a single shard... at most one worker has work) execution is
/// sequential through the same claim order, so sequential and parallel
/// runs fold identically.
pub fn run_shards<S, R, F>(shards: Vec<S>, workers: usize, run: F) -> Vec<R>
where
    S: Send,
    R: Send,
    F: Fn(usize, S) -> R + Sync,
{
    let n = shards.len();
    if workers <= 1 || n == 0 {
        return shards
            .into_iter()
            .enumerate()
            .map(|(i, s)| run(i, s))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let work: Vec<Mutex<Option<S>>> = shards.into_iter().map(|s| Mutex::new(Some(s))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| loop {
                // Claim the next unclaimed shard. Relaxed suffices: the
                // mutexes order the data, and claim order is irrelevant to
                // the result by construction.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let spec = work[i]
                    .lock()
                    .expect("shard spec lock")
                    .take()
                    .expect("each shard is claimed exactly once");
                let result = run(i, spec);
                *slots[i].lock().expect("shard result lock") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("shard result lock")
                .expect("every claimed shard stored a result")
        })
        .collect()
}

/// Fold per-shard chain digests into one, **in shard-id order**.
///
/// The fold itself is order-sensitive (FNV chaining) — the fixed canonical
/// order is exactly what makes the parallel reduction deterministic, so
/// callers must pass digests indexed by shard id ([`run_shards`] returns
/// precisely that), never by completion order. A single shard folds to its
/// own digest unchanged, so a one-component workload's sharded digest
/// equals its sequential digest bit for bit.
pub fn fold_digests(digests: &[u64]) -> u64 {
    match digests {
        [one] => *one,
        many => {
            let mut d = Digest::new();
            d.write_u64(many.len() as u64);
            for &x in many {
                d.write_u64(x);
            }
            d.finish()
        }
    }
}

/// Merge per-shard rate-change lists into one canonical list sorted by
/// flow id.
///
/// Slab slot assignment is shard-local (each shard's allocator hands out
/// its own slots, in an order that depends on that shard's event history)
/// and completion order is schedule-local, so neither may leak into the
/// merged order. Flow ids are globally unique and stable across shards,
/// which makes the id sort canonical: any permutation of the per-shard
/// lists — and any slot numbering within them — merges to the same bytes.
pub fn merge_rate_changes(per_shard: &[Vec<RateChange>]) -> Vec<RateChange> {
    let mut out: Vec<RateChange> = per_shard.iter().flatten().copied().collect();
    out.sort_by_key(|c| c.id);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_merges_and_remove_splits() {
        let mut t = ComponentTracker::new(4);
        t.insert_flow(1, &[0]);
        t.insert_flow(2, &[1]);
        assert_eq!(t.component_count(), 2);
        assert_eq!(t.merges(), 0);
        // A spanning flow merges the two components.
        assert!(t.insert_flow(3, &[0, 1]));
        assert_eq!(t.component_count(), 1);
        assert_eq!(t.merges(), 1);
        // Removing it splits them back.
        assert!(t.remove_flow(3));
        assert_eq!(t.component_count(), 2);
        assert_eq!(t.rebuilds(), 1);
        assert_eq!(t.components(), vec![vec![1], vec![2]]);
    }

    #[test]
    fn isolated_flows_are_singletons() {
        let mut t = ComponentTracker::new(2);
        t.insert_flow(7, &[]);
        t.insert_flow(5, &[0, 1]);
        assert_eq!(t.components(), vec![vec![5], vec![7]]);
    }

    #[test]
    fn matches_reference_on_a_small_graph() {
        let flows: Vec<(u64, Vec<u32>)> = vec![
            (10, vec![0, 1]),
            (11, vec![1]),
            (12, vec![2, 3]),
            (13, vec![3]),
            (14, vec![]),
        ];
        let mut t = ComponentTracker::new(4);
        for (id, rs) in &flows {
            t.insert_flow(*id, rs);
        }
        assert_eq!(t.components(), reference_components(4, &flows));
        assert_eq!(t.components(), vec![vec![10, 11], vec![12, 13], vec![14]]);
    }

    #[test]
    fn run_shards_returns_results_in_shard_order() {
        // Lower-indexed shards take strictly longer, so completion order is
        // the reverse of shard order — results must still come back 0..n.
        let shards: Vec<u64> = (0..6).collect();
        let out = run_shards(shards, 4, |i, v| {
            std::thread::sleep(std::time::Duration::from_millis(12 - 2 * i as u64));
            v * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn run_shards_sequential_and_parallel_agree() {
        let work = |_, v: u64| {
            let mut d = Digest::new();
            d.write_u64(v.wrapping_mul(0x9e37_79b9));
            d.finish()
        };
        let seq = run_shards((0..32).collect(), 1, work);
        let par = run_shards((0..32).collect(), 8, work);
        assert_eq!(seq, par);
        assert_eq!(fold_digests(&seq), fold_digests(&par));
    }

    #[test]
    fn fold_digests_is_identity_for_one_shard() {
        assert_eq!(fold_digests(&[42]), 42);
        assert_ne!(fold_digests(&[42, 43]), fold_digests(&[43, 42]));
    }

    #[test]
    fn merge_rate_changes_sorts_by_flow_id() {
        let a = vec![
            RateChange {
                id: 9,
                token: 0,
                rate: 1.0,
            },
            RateChange {
                id: 12,
                token: 1,
                rate: 2.0,
            },
        ];
        let b = vec![
            RateChange {
                id: 3,
                token: 7,
                rate: 3.0,
            },
            RateChange {
                id: 10,
                token: 2,
                rate: 4.0,
            },
        ];
        let m1 = merge_rate_changes(&[a.clone(), b.clone()]);
        let m2 = merge_rate_changes(&[b, a]);
        assert_eq!(m1, m2, "shard order must not matter");
        let ids: Vec<u64> = m1.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![3, 9, 10, 12]);
    }

    #[test]
    fn resolve_threads_clamps_and_defaults() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(100)), MAX_THREADS);
        assert!(resolve_threads(Some(0)) >= 1, "0 means auto");
        assert!(resolve_threads(None) >= 1);
        assert!(resolve_threads(None) <= MAX_THREADS);
    }
}
