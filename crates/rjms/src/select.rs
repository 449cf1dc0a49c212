//! Node selection.
//!
//! The second scheduling phase of the paper's Fig. 1: once a job has been
//! picked, concrete nodes must be chosen for it. The selector prefers
//! *contiguous* nodes (same chassis, then same rack) which both matches how
//! Curie allocates topology-aware jobs and keeps whole chassis free for the
//! offline switch-off planner.
//!
//! Selection runs on the cluster's availability [`NodeMask`]: first-fit is
//! a single word scan over `available & !blocked`, and the contiguous
//! policy walks chassis bit-ranges in preference order (partially used
//! chassis first, so untouched chassis stay whole). It classifies each
//! chassis by its selectable-node count, one
//! [`NodeMask::count_and_not_in`] popcount over the chassis's words, so
//! counting costs O(words + chassis) rather than a visit per free node.
//! No candidate vector is materialised and, with a caller-provided
//! [`SelectScratch`] and output buffer, a selection performs no heap
//! allocation in the steady state.

use crate::cluster::Cluster;
use crate::mask::NodeMask;

/// Node-selection policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionPolicy {
    /// Prefer nodes that keep allocations packed: fill partially-used chassis
    /// first, then take the lowest-index free nodes.
    #[default]
    Contiguous,
    /// Plain lowest-index-first selection.
    FirstFit,
}

/// Reusable buffers for [`NodeSelector::select_into`] (the per-chassis
/// candidate counts of the contiguous policy). Hold one per scheduling
/// context and reuse it across passes.
#[derive(Debug, Clone, Default)]
pub struct SelectScratch {
    free_per_chassis: Vec<usize>,
}

impl SelectScratch {
    /// Allocated capacity (allocation-tracking diagnostics).
    pub fn footprint(&self) -> usize {
        self.free_per_chassis.capacity()
    }
}

/// Stateless node selector.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeSelector {
    policy: SelectionPolicy,
}

impl NodeSelector {
    /// Create a selector with the given policy.
    pub fn new(policy: SelectionPolicy) -> Self {
        NodeSelector { policy }
    }

    /// The active policy.
    pub fn policy(&self) -> SelectionPolicy {
        self.policy
    }

    /// Pick `needed` available nodes, excluding `blocked` (nodes owned by
    /// overlapping reservations), appending them to `out` in ascending id
    /// order. Returns `false` — leaving `out` empty — when not enough nodes
    /// are available. Allocation-free once `scratch` and `out` have reached
    /// their steady-state capacities.
    pub fn select_into(
        &self,
        cluster: &Cluster,
        needed: usize,
        blocked: &NodeMask,
        scratch: &mut SelectScratch,
        out: &mut Vec<usize>,
    ) -> bool {
        out.clear();
        if needed == 0 {
            return true;
        }
        let available = cluster.available_mask();
        if self.available_count(cluster, blocked) < needed {
            return false;
        }
        match self.policy {
            SelectionPolicy::FirstFit => {
                out.extend(available.iter_and_not(blocked).take(needed));
            }
            SelectionPolicy::Contiguous => {
                let topo = &cluster.platform().topology;
                let chassis_size = topo.nodes_per_group(0);
                let chassis_count = topo.group_count(0);
                // Candidate count per chassis: a chassis whose every node is
                // selectable is "fully free" and kept whole for switch-off
                // grouping — partially used chassis are consumed first.
                let chassis_range = |chassis: usize| {
                    let r = topo.nodes_of_group(0, chassis);
                    (r.start, r.end)
                };
                scratch.free_per_chassis.clear();
                scratch
                    .free_per_chassis
                    .extend((0..chassis_count).map(|chassis| {
                        let (start, end) = chassis_range(chassis);
                        available.count_and_not_in(blocked, start, end)
                    }));
                // Pass 1: partially used chassis, ascending chassis id.
                'outer: for pass_fully_free in [false, true] {
                    for (chassis, &free) in scratch.free_per_chassis.iter().enumerate() {
                        if free == 0 || (free == chassis_size) != pass_fully_free {
                            continue;
                        }
                        let (start, end) = chassis_range(chassis);
                        for id in available.iter_and_not_in(blocked, start, end) {
                            out.push(id);
                            if out.len() == needed {
                                break 'outer;
                            }
                        }
                    }
                }
                // Pass 2 can select lower node ids than pass 1; hand the
                // allocation back in ascending order like the seed did.
                out.sort_unstable();
            }
        }
        debug_assert_eq!(out.len(), needed);
        true
    }

    /// Convenience wrapper over [`select_into`](Self::select_into) that
    /// allocates its own buffers (tests, one-off callers).
    pub fn select(
        &self,
        cluster: &Cluster,
        needed: usize,
        blocked: &NodeMask,
    ) -> Option<Vec<usize>> {
        let mut scratch = SelectScratch::default();
        let mut out = Vec::new();
        self.select_into(cluster, needed, blocked, &mut scratch, &mut out)
            .then_some(out)
    }

    /// Count how many nodes are selectable right now given the blocked set
    /// (a word-wise popcount of `available & !blocked`).
    pub fn available_count(&self, cluster: &Cluster, blocked: &NodeMask) -> usize {
        if blocked.is_empty() {
            cluster.free_count()
        } else {
            cluster.available_mask().count_and_not(blocked)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Platform;
    use apc_power::Frequency;

    fn cluster() -> Cluster {
        Cluster::new(Platform::curie_scaled(1))
    }

    fn mask(ids: impl IntoIterator<Item = usize>) -> NodeMask {
        ids.into_iter().collect()
    }

    #[test]
    fn selects_exactly_the_requested_count() {
        let c = cluster();
        let sel = NodeSelector::default();
        let nodes = sel.select(&c, 10, &NodeMask::default()).unwrap();
        assert_eq!(nodes.len(), 10);
        // All selected nodes are distinct and ascending.
        assert!(nodes.windows(2).all(|w| w[0] < w[1]));
        assert!(sel.select(&c, 0, &NodeMask::default()).unwrap().is_empty());
    }

    #[test]
    fn returns_none_when_not_enough_nodes() {
        let c = cluster();
        let sel = NodeSelector::default();
        assert!(sel.select(&c, 91, &NodeMask::default()).is_none());
        let blocked = mask(0..85);
        assert!(sel.select(&c, 10, &blocked).is_none());
        assert_eq!(sel.available_count(&c, &blocked), 5);
    }

    #[test]
    fn respects_blocked_nodes() {
        let c = cluster();
        let sel = NodeSelector::default();
        let blocked = mask(0..18);
        let nodes = sel.select(&c, 5, &blocked).unwrap();
        assert!(nodes.iter().all(|n| !blocked.contains(*n)));
    }

    #[test]
    fn contiguous_fills_partially_used_chassis_first() {
        let mut c = cluster();
        // Occupy 10 nodes of chassis 1 (nodes 18..28).
        let occupied: Vec<usize> = (18..28).collect();
        c.allocate(1, &occupied, Frequency::from_ghz(2.7), 0);
        let sel = NodeSelector::new(SelectionPolicy::Contiguous);
        let nodes = sel.select(&c, 8, &NodeMask::default()).unwrap();
        // The 8 remaining nodes of chassis 1 are preferred over untouched
        // chassis 0.
        assert_eq!(nodes, (28..36).collect::<Vec<_>>());
    }

    #[test]
    fn contiguous_spills_into_fully_free_chassis_in_ascending_order() {
        let mut c = cluster();
        // Chassis 3 partially used: its 8 leftovers come first, then the
        // fully free chassis starting from chassis 0 — so the final
        // selection mixes low and high ids and must come back sorted.
        let occupied: Vec<usize> = (54..64).collect();
        c.allocate(1, &occupied, Frequency::from_ghz(2.7), 0);
        let sel = NodeSelector::new(SelectionPolicy::Contiguous);
        let nodes = sel.select(&c, 12, &NodeMask::default()).unwrap();
        let mut expected: Vec<usize> = (64..72).collect(); // rest of chassis 3
        expected.extend(0..4); // then chassis 0
        expected.sort_unstable();
        assert_eq!(nodes, expected);
    }

    /// The contiguous selection with the per-node chassis count that
    /// `count_and_not_in` replaced: visit every selectable node and divide
    /// its id.
    fn reference_contiguous(cluster: &Cluster, needed: usize, blocked: &NodeMask) -> Vec<usize> {
        let available = cluster.available_mask();
        if needed == 0 || available.count_and_not(blocked) < needed {
            return Vec::new();
        }
        let topo = &cluster.platform().topology;
        let chassis_size = topo.nodes_per_group(0);
        let mut free_per_chassis = vec![0usize; topo.group_count(0)];
        for id in available.iter_and_not(blocked) {
            free_per_chassis[topo.group_of(0, id)] += 1;
        }
        let mut out = Vec::new();
        'outer: for pass_fully_free in [false, true] {
            for (chassis, &free) in free_per_chassis.iter().enumerate() {
                if free == 0 || (free == chassis_size) != pass_fully_free {
                    continue;
                }
                let r = topo.nodes_of_group(0, chassis);
                for id in available.iter_and_not_in(blocked, r.start, r.end) {
                    out.push(id);
                    if out.len() == needed {
                        break 'outer;
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        #[test]
        fn contiguous_selection_matches_the_per_node_count(
            racks in 1usize..5,
            chassis_modes in proptest::collection::vec(0u8..4, 20..21),
            node_draws in proptest::collection::vec((0u8..8, 0u8..6), 360..361),
            needs in proptest::collection::vec(0usize..400, 1..12),
        ) {
            // Chassis are 18 nodes, so on `curie_scaled(racks)` chassis 3
            // (nodes 54..72) and 6 (108..126) straddle 64-bit word edges.
            // Per chassis: fully free, all busy, or a per-node mix of free,
            // allocated, powered-off and drained nodes.
            let mut c = Cluster::new(Platform::curie_scaled(racks));
            let n = c.nodes().len();
            let mut busy = Vec::new();
            let mut off = Vec::new();
            let mut drained = Vec::new();
            let mut blocked = NodeMask::default();
            for id in 0..n {
                let (state, block) = node_draws[id];
                match (chassis_modes[id / 18], state) {
                    (0, _) => {}
                    (1, _) => busy.push(id),
                    (_, 0..=2) => {}
                    (_, 3..=5) => busy.push(id),
                    (_, 6) => off.push(id),
                    _ => drained.push(id),
                }
                if block == 0 {
                    blocked.insert(id);
                }
            }
            c.allocate(1, &busy, Frequency::from_ghz(2.7), 0);
            c.power_off(&off, 0);
            c.drain(&drained);
            let sel = NodeSelector::new(SelectionPolicy::Contiguous);
            let mut scratch = SelectScratch::default();
            let mut out = Vec::new();
            for blocked in [NodeMask::default(), blocked] {
                for &needed in &needs {
                    let needed = needed % (n + 2);
                    let ok = sel.select_into(&c, needed, &blocked, &mut scratch, &mut out);
                    let expected = reference_contiguous(&c, needed, &blocked);
                    proptest::prop_assert_eq!(ok, needed == 0 || !expected.is_empty());
                    proptest::prop_assert_eq!(&out, &expected, "needed {}", needed);
                }
            }
        }
    }

    #[test]
    fn first_fit_takes_lowest_indices() {
        let c = cluster();
        let sel = NodeSelector::new(SelectionPolicy::FirstFit);
        let nodes = sel.select(&c, 4, &NodeMask::default()).unwrap();
        assert_eq!(nodes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn available_count_matches_free_count_without_blocks() {
        let c = cluster();
        let sel = NodeSelector::default();
        assert_eq!(sel.available_count(&c, &NodeMask::default()), 90);
    }

    #[test]
    fn select_into_reuses_buffers_without_reallocating() {
        let c = cluster();
        let sel = NodeSelector::new(SelectionPolicy::Contiguous);
        let mut scratch = SelectScratch::default();
        let mut out = Vec::new();
        assert!(sel.select_into(&c, 30, &NodeMask::default(), &mut scratch, &mut out));
        let out_cap = out.capacity();
        let scratch_cap = scratch.free_per_chassis.capacity();
        let out_ptr = out.as_ptr();
        for needed in [10usize, 25, 30, 1] {
            assert!(sel.select_into(&c, needed, &NodeMask::default(), &mut scratch, &mut out));
            assert_eq!(out.len(), needed);
        }
        assert_eq!(out.capacity(), out_cap, "output buffer must not regrow");
        assert_eq!(scratch.free_per_chassis.capacity(), scratch_cap);
        assert_eq!(out.as_ptr(), out_ptr, "no reallocation happened");
    }
}
