//! Simple random walk.

use rand::Rng;

use crate::traits::{WalkableGraph, Walker};

/// The simple random walk: at each step, move to a uniformly random
/// neighbor of the current state.
///
/// On a connected non-bipartite graph the walk converges to the stationary
/// distribution `π(u) = d(u) / 2|E|` (Lovász 1993), which is what both
/// NeighborSample and NeighborExploration rely on. On an isolated state the
/// walk stays put (degenerate but well-defined; callers should start walks
/// inside the giant component, as the paper's evaluation does).
///
/// ```
/// use labelcount_graph::{GraphBuilder, NodeId};
/// use labelcount_osn::SimulatedOsn;
/// use labelcount_walk::{SimpleWalk, Walker};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId(0), NodeId(1));
/// b.add_edge(NodeId(1), NodeId(2));
/// let g = b.build();
/// let osn = SimulatedOsn::new(&g);
/// let mut rng = StdRng::seed_from_u64(7);
///
/// let mut walk = SimpleWalk::new(NodeId(0));
/// walk.burn_in(&osn, 10, &mut rng);       // reach stationarity first
/// let next = walk.step(&osn, &mut rng);   // then each step is a sample
/// assert!(g.has_edge(Walker::<SimulatedOsn>::current(&walk), next) || next == Walker::<SimulatedOsn>::current(&walk));
/// ```
#[derive(Clone, Debug)]
pub struct SimpleWalk<N> {
    current: N,
    steps: u64,
}

impl<N: Copy> SimpleWalk<N> {
    /// Starts a walk at `start`.
    pub fn new(start: N) -> Self {
        SimpleWalk {
            current: start,
            steps: 0,
        }
    }

    /// Number of steps taken so far (including burn-in).
    pub fn steps_taken(&self) -> u64 {
        self.steps
    }
}

impl<G: WalkableGraph + ?Sized> Walker<G> for SimpleWalk<G::Node> {
    fn current(&self) -> G::Node {
        self.current
    }

    fn step<R: Rng + ?Sized>(&mut self, g: &G, rng: &mut R) -> G::Node {
        self.steps += 1;
        if let Some(next) = g.sample_neighbor(self.current, rng) {
            self.current = next;
        }
        self.current
    }

    /// Batched override: keeps the walk position in a local across the whole
    /// buffer and commits walker state (`current`, the step counter) once at
    /// the end, instead of a field load + two field stores per step. The
    /// visit sequence is bit-identical to a [`Walker::step`] loop — same RNG
    /// draws in the same order — so callers can switch freely between the
    /// per-step and batched paths.
    fn steps_into<R: Rng + ?Sized>(&mut self, g: &G, buf: &mut [G::Node], rng: &mut R) {
        let mut cur = self.current;
        for slot in buf.iter_mut() {
            if let Some(next) = g.sample_neighbor(cur, rng) {
                cur = next;
            }
            *slot = cur;
        }
        self.current = cur;
        self.steps += buf.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::test_support::{assert_tv_close, test_graph, visit_frequencies};
    use labelcount_graph::{GraphBuilder, NodeId};
    use labelcount_osn::SimulatedOsn;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stationary_distribution_is_degree_proportional() {
        let g = test_graph(101);
        let osn = SimulatedOsn::new(&g);
        let mut rng = StdRng::seed_from_u64(7);
        let walker = SimpleWalk::new(NodeId(0));
        let freq = visit_frequencies(
            &osn,
            walker,
            400_000,
            g.num_nodes(),
            |u| u.index(),
            &mut rng,
        );
        let expected: Vec<f64> = g
            .nodes()
            .map(|u| g.degree(u) as f64 / g.degree_sum() as f64)
            .collect();
        assert_tv_close(&freq, &expected, 0.02, "simple walk");
    }

    #[test]
    fn walk_moves_along_edges() {
        let g = test_graph(102);
        let osn = SimulatedOsn::new(&g);
        let mut rng = StdRng::seed_from_u64(8);
        let mut walker = SimpleWalk::new(NodeId(3));
        let mut prev = Walker::<SimulatedOsn>::current(&walker);
        for _ in 0..200 {
            let next = walker.step(&osn, &mut rng);
            assert!(g.has_edge(prev, next), "walk must follow edges");
            prev = next;
        }
        assert_eq!(walker.steps_taken(), 200);
    }

    #[test]
    fn isolated_node_stays_put() {
        let g = GraphBuilder::new(1).build();
        let osn = SimulatedOsn::new(&g);
        let mut rng = StdRng::seed_from_u64(9);
        let mut walker = SimpleWalk::new(NodeId(0));
        assert_eq!(walker.step(&osn, &mut rng), NodeId(0));
    }

    #[test]
    fn batched_steps_match_per_step_sequence() {
        let g = test_graph(104);
        let osn = SimulatedOsn::new(&g);

        let mut rng_a = StdRng::seed_from_u64(11);
        let mut per_step = SimpleWalk::new(NodeId(0));
        let singles: Vec<NodeId> = (0..257).map(|_| per_step.step(&osn, &mut rng_a)).collect();

        let mut rng_b = StdRng::seed_from_u64(11);
        let mut batched = SimpleWalk::new(NodeId(0));
        let mut buf = vec![NodeId(0); 257];
        Walker::<SimulatedOsn>::steps_into(&mut batched, &osn, &mut buf, &mut rng_b);

        assert_eq!(singles, buf);
        assert_eq!(per_step.steps_taken(), batched.steps_taken());
        assert_eq!(
            Walker::<SimulatedOsn>::current(&per_step),
            Walker::<SimulatedOsn>::current(&batched)
        );
    }

    #[test]
    fn batched_steps_with_empty_buffer_is_a_no_op() {
        let g = test_graph(105);
        let osn = SimulatedOsn::new(&g);
        let mut rng = StdRng::seed_from_u64(12);
        let mut walker = SimpleWalk::new(NodeId(5));
        Walker::<SimulatedOsn>::steps_into(&mut walker, &osn, &mut [], &mut rng);
        assert_eq!(walker.steps_taken(), 0);
        assert_eq!(Walker::<SimulatedOsn>::current(&walker), NodeId(5));
    }

    #[test]
    fn burn_in_advances_step_counter() {
        let g = test_graph(103);
        let osn = SimulatedOsn::new(&g);
        let mut rng = StdRng::seed_from_u64(10);
        let mut walker = SimpleWalk::new(NodeId(0));
        Walker::<SimulatedOsn>::burn_in(&mut walker, &osn, 50, &mut rng);
        assert_eq!(walker.steps_taken(), 50);
    }
}
