//! Out-of-core backend: a [`PagedGraph`] behind the [`OsnBackend`] trait.
//!
//! [`PagedGraphOsn`] is the out-of-core sibling of [`crate::GraphOsn`]:
//! where `GraphOsn` borrows an in-RAM [`labelcount_graph::LabeledGraph`],
//! this wraps a `graph::paged` buffer pool over an on-disk paged CSR file
//! and serves fetches from pinned page frames. Because the pool only
//! changes *where* bytes live — never which bytes a fetch returns — the
//! whole L1/L2/adversarial/serving stack runs unchanged and bit-identical
//! on top of it at any frame budget.
//!
//! Fetches return [`SliceRef::Shared`]: the list is decoded from the
//! node's pinned record page (plus any overflow pages) straight into an
//! `Arc<[T]>`, so the L2 cache above can retain entries without copying.

use std::path::Path;

use labelcount_graph::paged::{
    PagedError, PagedGraph, PagingStats, PoolConfig, StorageFaultConfig,
};
use labelcount_graph::{LabelId, NodeId};

use crate::api::OsnBackend;
use crate::guard::SliceRef;

/// An [`OsnBackend`] over an on-disk paged CSR graph.
///
/// `Sync` like [`crate::GraphOsn`] — all mutability (frame table, paging
/// counters) sits behind the pool's internal lock — so one
/// `PagedGraphOsn` can serve many concurrent sessions, the sharded
/// service, and the deadline scheduler at once.
pub struct PagedGraphOsn {
    graph: PagedGraph,
}

impl PagedGraphOsn {
    /// Wraps an already-open [`PagedGraph`].
    pub fn new(graph: PagedGraph) -> PagedGraphOsn {
        PagedGraphOsn { graph }
    }

    /// Opens a paged CSR file written by
    /// [`labelcount_graph::PagedCsrWriter`] under the given pool
    /// configuration.
    pub fn open(path: &Path, cfg: PoolConfig) -> Result<PagedGraphOsn, PagedError> {
        Ok(PagedGraphOsn::new(PagedGraph::open(path, cfg)?))
    }

    /// Opens like [`PagedGraphOsn::open`], with seeded storage faults
    /// injected under the page reads (see
    /// [`labelcount_graph::paged::FaultyStorage`]). Checksums, retries,
    /// and quarantine keep the *served bytes* identical to a fault-free
    /// open; the damage shows up only in [`PagingStats`].
    pub fn open_with_faults(
        path: &Path,
        cfg: PoolConfig,
        faults: StorageFaultConfig,
    ) -> Result<PagedGraphOsn, PagedError> {
        Ok(PagedGraphOsn::new(PagedGraph::open_with_faults(
            path, cfg, faults,
        )?))
    }

    /// The underlying paged graph (pool access, probes).
    pub fn graph(&self) -> &PagedGraph {
        &self.graph
    }

    /// Snapshot of the buffer pool's paging counters.
    pub fn paging_stats(&self) -> PagingStats {
        self.graph.paging_stats()
    }

    /// Resets the buffer pool's paging counters.
    pub fn reset_paging_stats(&self) {
        self.graph.reset_paging_stats()
    }
}

impl OsnBackend for PagedGraphOsn {
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    fn max_degree_bound(&self) -> usize {
        // The writer records the exact maximum degree in the header.
        self.graph.max_degree()
    }

    fn fetch_neighbors(&self, u: NodeId) -> SliceRef<'_, NodeId> {
        SliceRef::Shared(self.graph.neighbors(u))
    }

    fn fetch_labels(&self, u: NodeId) -> SliceRef<'_, LabelId> {
        SliceRef::Shared(self.graph.labels(u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cached::GraphOsn;
    use labelcount_graph::paged::{EvictionPolicy, PagedCsrWriter};
    use labelcount_graph::{GraphBuilder, LabeledGraph};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_file(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join("labelcount_osn_paged_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!(
            "{tag}_{}_{}.lcp",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn fixture() -> LabeledGraph {
        let mut b = GraphBuilder::new(6);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(2), NodeId(0));
        b.add_edge(NodeId(2), NodeId(3));
        b.add_edge(NodeId(3), NodeId(4));
        b.set_labels(NodeId(0), &[LabelId(1)]);
        b.set_labels(NodeId(2), &[LabelId(1), LabelId(2)]);
        b.build()
    }

    fn paged(g: &LabeledGraph, cfg: PoolConfig, tag: &str) -> PagedGraphOsn {
        let path = temp_file(tag);
        PagedCsrWriter::with_page_size(128).write(g, &path).unwrap();
        PagedGraphOsn::open(&path, cfg).unwrap()
    }

    #[test]
    fn backend_matches_graph_osn() {
        let g = fixture();
        let ram = GraphOsn::new(&g);
        for cfg in [
            PoolConfig::unbounded(),
            PoolConfig::bounded(1, EvictionPolicy::Lru),
            PoolConfig::bounded(2, EvictionPolicy::SecondChance),
        ] {
            let p = paged(&g, cfg, "match");
            assert_eq!(p.num_nodes(), ram.num_nodes());
            assert_eq!(p.num_edges(), ram.num_edges());
            assert_eq!(p.max_degree_bound(), ram.max_degree_bound());
            for u in g.nodes() {
                assert_eq!(&*p.fetch_neighbors(u), &*ram.fetch_neighbors(u));
                assert_eq!(&*p.fetch_labels(u), &*ram.fetch_labels(u));
            }
        }
    }

    #[test]
    fn fetches_are_counted_by_the_pool() {
        let g = fixture();
        let p = paged(&g, PoolConfig::unbounded(), "counted");
        assert_eq!(p.paging_stats(), PagingStats::default());
        let _ = p.fetch_neighbors(NodeId(0));
        let s = p.paging_stats();
        assert!(s.page_reads > 0);
        p.reset_paging_stats();
        assert_eq!(p.paging_stats(), PagingStats::default());
    }
}
