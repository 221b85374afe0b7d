//! Label-assignment models.
//!
//! The paper draws labels from user profiles: gender for Facebook/Google+,
//! location for Pokec, and — where profiles were unavailable (Orkut,
//! LiveJournal) — the node degree itself, bucketed. These models reproduce
//! each of those regimes on synthetic graphs, with a tunable correlation
//! structure so the target-edge fraction `F/|E|` can be calibrated to the
//! paper's rows.

use rand::Rng;

use crate::csr::LabelCsr;
use crate::{LabelId, LabeledGraph};

/// Optional mapping from integer label ids to human-readable names, such as
/// the paper's Table 3 (Pokec label → Slovak location).
#[derive(Clone, Debug, Default)]
pub struct LabelNames {
    names: Vec<(LabelId, String)>,
}

impl LabelNames {
    /// Creates an empty name table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a name for a label id (last registration wins).
    pub fn insert(&mut self, id: LabelId, name: impl Into<String>) {
        self.names.retain(|(l, _)| *l != id);
        self.names.push((id, name.into()));
    }

    /// Looks up the name for a label id.
    pub fn get(&self, id: LabelId) -> Option<&str> {
        self.names
            .iter()
            .find(|(l, _)| *l == id)
            .map(|(_, n)| n.as_str())
    }

    /// Iterates over `(id, name)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (LabelId, &str)> {
        self.names.iter().map(|(l, n)| (*l, n.as_str()))
    }

    /// Number of named labels.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no labels are named.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Assigns binary labels `1` / `2` (the paper's female/male encoding)
/// independently at random with `P(label = 1) = p1`.
///
/// With independent assignment the expected target-edge fraction for the
/// pair `(1, 2)` is `2·p1·(1−p1)`; `p1` can therefore be solved from a
/// desired fraction (see [`binary_share_for_cross_fraction`]).
pub fn assign_binary_labels<R: Rng + ?Sized>(labels: &mut [Vec<LabelId>], p1: f64, rng: &mut R) {
    assert!((0.0..=1.0).contains(&p1), "p1 must be in [0, 1]");
    for slot in labels.iter_mut() {
        slot.clear();
        slot.push(if rng.gen::<f64>() < p1 {
            LabelId(1)
        } else {
            LabelId(2)
        });
    }
}

/// Solves `2·p·(1−p) = frac` for `p ∈ (0, ½]`, the share of label 1 needed
/// so that independently assigned binary labels produce cross edges at
/// expected fraction `frac`.
///
/// # Panics
/// Panics if `frac > 0.5` (the maximum achievable at `p = ½`).
pub fn binary_share_for_cross_fraction(frac: f64) -> f64 {
    assert!(
        (0.0..=0.5).contains(&frac),
        "cross fraction must be in [0, 0.5], got {frac}"
    );
    // p = (1 − sqrt(1 − 2·frac)) / 2.
    (1.0 - (1.0 - 2.0 * frac).sqrt()) / 2.0
}

/// Assigns one location-like label per node from a Zipf distribution over
/// `num_labels` labels (exponent `s`), *aligned with communities*: nodes of
/// the same community draw from the same shifted rank order, so labels are
/// homophilous exactly where the graph is.
///
/// `community[u]` may come from
/// [`crate::gen::planted_communities`]; pass all-zeros for no alignment.
pub fn assign_zipf_location_labels<R: Rng + ?Sized>(
    labels: &mut [Vec<LabelId>],
    community: &[u32],
    num_labels: usize,
    s: f64,
    rng: &mut R,
) {
    assert!(num_labels >= 1, "need at least one label");
    assert_eq!(labels.len(), community.len(), "one community per node");
    let weights: Vec<f64> = (0..num_labels)
        .map(|r| 1.0 / ((r + 1) as f64).powf(s))
        .collect();
    let wsum: f64 = weights.iter().sum();

    for (slot, &comm) in labels.iter_mut().zip(community) {
        let mut r = rng.gen::<f64>() * wsum;
        let mut rank = num_labels - 1;
        for (i, &w) in weights.iter().enumerate() {
            if r < w {
                rank = i;
                break;
            }
            r -= w;
        }
        // Rotate the rank→label mapping by the community so each community
        // has its own most-frequent label.
        let label = ((rank + comm as usize) % num_labels) as u32;
        slot.clear();
        slot.push(LabelId(label));
    }
}

/// Labels each node by its degree bucket: label `i` covers degrees in
/// `[bounds[i−1], bounds[i])`, with label `0` below `bounds[0]` and label
/// `bounds.len()` at or above the last bound. This mirrors the paper's use
/// of node degree as the label for Orkut and LiveJournal.
///
/// `bounds` must be strictly increasing.
pub fn degree_bucket_labels(g: &LabeledGraph, bounds: &[usize]) -> Vec<Vec<LabelId>> {
    assert!(
        bounds.windows(2).all(|w| w[0] < w[1]),
        "bucket bounds must be strictly increasing"
    );
    g.nodes()
        .map(|u| {
            let d = g.degree(u);
            let bucket = bounds.partition_point(|&b| b <= d);
            vec![LabelId(bucket as u32)]
        })
        .collect()
}

/// Applies a labels-by-node table to a graph, producing a new graph with the
/// same structure and the given labels. (CSR graphs are immutable; this is
/// the standard relabeling path.) The adjacency is copied as it is, not
/// rebuilt.
pub fn with_labels(g: &LabeledGraph, labels: &[Vec<LabelId>]) -> LabeledGraph {
    assert_eq!(labels.len(), g.num_nodes(), "one label set per node");
    g.with_label_csr(pack_labels(
        g.num_nodes(),
        labels
            .iter()
            .enumerate()
            .flat_map(|(u, ls)| ls.iter().map(move |&t| (u, t))),
    ))
}

/// Packs `(node, label)` entries, in any order and with repeats, into the
/// label CSR of an `n`-node graph: each node's labels sorted and
/// deduplicated. Every path that attaches labels to a graph (the builder,
/// [`with_labels`] and the label-list reader) packs them here.
///
/// # Panics
/// Panics if a node is not below `n`.
pub(crate) fn pack_labels<I>(n: usize, entries: I) -> LabelCsr
where
    I: Iterator<Item = (usize, LabelId)> + Clone,
{
    let (mut offsets, mut data) = crate::builder::bucket(n, entries);
    // Sort each node's run, then compact its distinct labels down to
    // `kept`, which never passes the run being read.
    let mut kept = 0;
    let mut start = 0;
    for end in offsets.iter_mut().skip(1) {
        let run = *end;
        data[start..run].sort_unstable();
        let first = kept;
        for i in start..run {
            if kept == first || data[kept - 1] != data[i] {
                data[kept] = data[i];
                kept += 1;
            }
        }
        *end = kept;
        start = run;
    }
    data.truncate(kept);
    let num_labels = data.iter().max().map_or(0, |t| t.index() + 1);
    LabelCsr {
        offsets,
        data,
        num_labels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::barabasi_albert;
    use crate::ground_truth::{GroundTruth, TargetLabel};
    use crate::NodeId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn label_names_roundtrip() {
        let mut names = LabelNames::new();
        names.insert(LabelId(86), "bratislavsky kraj, bratislava - nove mesto");
        names.insert(LabelId(135), "banskobystricky kraj, dudince");
        assert_eq!(names.len(), 2);
        assert_eq!(
            names.get(LabelId(86)),
            Some("bratislavsky kraj, bratislava - nove mesto")
        );
        assert!(names.get(LabelId(1)).is_none());
        names.insert(LabelId(86), "other");
        assert_eq!(names.get(LabelId(86)), Some("other"));
        assert_eq!(names.len(), 2);
    }

    #[test]
    fn binary_share_solves_quadratic() {
        for frac in [0.0, 0.1, 0.269, 0.424, 0.5] {
            let p = binary_share_for_cross_fraction(frac);
            assert!((2.0 * p * (1.0 - p) - frac).abs() < 1e-12, "frac {frac}");
            assert!((0.0..=0.5).contains(&p));
        }
    }

    #[test]
    #[should_panic(expected = "cross fraction")]
    fn binary_share_rejects_impossible_fraction() {
        binary_share_for_cross_fraction(0.6);
    }

    #[test]
    fn binary_labels_hit_requested_fraction() {
        let mut rng = StdRng::seed_from_u64(41);
        let g = barabasi_albert(3_000, 10, &mut rng);
        let p = binary_share_for_cross_fraction(0.424);
        let mut labels = vec![Vec::new(); g.num_nodes()];
        assign_binary_labels(&mut labels, p, &mut rng);
        let g = with_labels(&g, &labels);
        let gt = GroundTruth::compute(&g, TargetLabel::new(LabelId(1), LabelId(2)));
        let frac = gt.relative_count(&g);
        assert!((frac - 0.424).abs() < 0.03, "got {frac}");
    }

    #[test]
    fn zipf_labels_skewed_and_in_range() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 5_000;
        let num_labels = 50;
        let community = vec![0u32; n];
        let mut labels = vec![Vec::new(); n];
        assign_zipf_location_labels(&mut labels, &community, num_labels, 1.0, &mut rng);
        let mut counts = vec![0usize; num_labels];
        for ls in &labels {
            assert_eq!(ls.len(), 1);
            counts[ls[0].index()] += 1;
        }
        // Head label must dominate tail label by a wide margin under Zipf.
        assert!(counts[0] > 10 * counts[num_labels - 1].max(1) / 2);
    }

    #[test]
    fn zipf_labels_rotate_with_community() {
        let mut rng = StdRng::seed_from_u64(43);
        let n = 4_000;
        let community: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        let mut labels = vec![Vec::new(); n];
        assign_zipf_location_labels(&mut labels, &community, 20, 1.2, &mut rng);
        // Most-frequent label should differ between the two communities.
        let mode = |comm: u32| {
            let mut counts = [0usize; 20];
            for (ls, &c) in labels.iter().zip(&community) {
                if c == comm {
                    counts[ls[0].index()] += 1;
                }
            }
            counts
                .iter()
                .enumerate()
                .max_by_key(|(_, &c)| c)
                .map(|(i, _)| i)
                .unwrap()
        };
        assert_ne!(mode(0), mode(1));
    }

    #[test]
    fn degree_buckets_partition_by_bounds() {
        let mut rng = StdRng::seed_from_u64(44);
        let g = barabasi_albert(500, 3, &mut rng);
        let bounds = [4, 8, 16];
        let labels = degree_bucket_labels(&g, &bounds);
        for (i, ls) in labels.iter().enumerate() {
            let d = g.degree(NodeId(i as u32));
            let expect = if d < 4 {
                0
            } else if d < 8 {
                1
            } else if d < 16 {
                2
            } else {
                3
            };
            assert_eq!(ls, &vec![LabelId(expect)], "degree {d}");
        }
    }

    #[test]
    fn with_labels_preserves_structure() {
        let mut rng = StdRng::seed_from_u64(45);
        let g = barabasi_albert(200, 2, &mut rng);
        let labels = vec![vec![LabelId(1)]; g.num_nodes()];
        let g2 = with_labels(&g, &labels);
        assert_eq!(g2.num_edges(), g.num_edges());
        for u in g.nodes() {
            assert_eq!(g2.neighbors(u), g.neighbors(u));
            assert_eq!(g2.labels(u), &[LabelId(1)]);
        }
    }
}
