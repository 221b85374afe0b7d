//! The out-of-core determinism contract, end to end: every one of the
//! paper's ten Table-2 algorithms must produce **bit-identical** estimates
//! when the graph lives in a paged CSR file behind a pinned-page buffer
//! pool instead of RAM — at a frame budget of 1× the working set (constant
//! eviction pressure), 2× (some reuse), and unbounded (everything
//! resident). The pool may move bytes; it may never change them.

use labelcount_core::{algorithms, Engine, RunConfig};
use labelcount_graph::gen::barabasi_albert;
use labelcount_graph::labels::{assign_binary_labels, with_labels};
use labelcount_graph::paged::{EvictionPolicy, PagedCsrWriter, PoolConfig};
use labelcount_graph::{LabeledGraph, TargetLabel};
use labelcount_osn::{CacheConfig, PagedGraphOsn};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fixture() -> LabeledGraph {
    let mut rng = StdRng::seed_from_u64(17);
    let g = barabasi_albert(300, 4, &mut rng);
    let mut labels = vec![Vec::new(); g.num_nodes()];
    assign_binary_labels(&mut labels, 0.4, &mut rng);
    with_labels(&g, &labels)
}

/// Frames a serial walk needs resident at once, at page size `page_size`:
/// a fetch pins its node's primary page, plus the overflow pages of a
/// record too big for one page. The biggest record — the hub's — spans
/// the most: its primary page's 12 header and slot bytes, its 8-byte
/// record header, and one u32 per label and neighbor.
fn working_set_frames(g: &LabeledGraph, page_size: usize) -> usize {
    let biggest_record = g
        .nodes()
        .map(|u| 8 + 4 * (g.degree(u) + g.labels(u).len()))
        .max()
        .unwrap_or(0);
    (12 + biggest_record).div_ceil(page_size)
}

#[test]
fn all_ten_algorithms_are_bit_identical_out_of_core() {
    let g = fixture();
    let target = TargetLabel::new(1.into(), 2.into());
    let cfg = RunConfig {
        burn_in: 40,
        thinning_frac: 0.0,
    };

    // Page size 256 keeps the file many pages long at 300 nodes, so a 1×
    // working-set budget genuinely evicts instead of fitting the file.
    let page_size = 256u32;
    let path = std::env::temp_dir().join(format!(
        "labelcount_core_paged_bits_{}.paged",
        std::process::id()
    ));
    PagedCsrWriter::with_page_size(page_size)
        .write(&g, &path)
        .expect("write the fixture's paged CSR file");

    let ws = working_set_frames(&g, page_size as usize);
    let budgets: [(&str, PoolConfig); 3] = [
        (
            "1x working set",
            PoolConfig::bounded(ws, EvictionPolicy::Lru),
        ),
        (
            "2x working set",
            PoolConfig::bounded(2 * ws, EvictionPolicy::Lru),
        ),
        ("unbounded", PoolConfig::unbounded()),
    ];
    // A bounded L2 so cache hits cannot hide the pool from the walk.
    let cache = CacheConfig::builder().capacity(64).build();

    let ram = Engine::new(&g);
    for (label, pool) in budgets {
        let backend = PagedGraphOsn::open(&path, pool).expect("reopen the paged CSR file");
        let paged: Engine<'_, PagedGraphOsn> = Engine::on_backend_with_config(backend, cache);
        for (ai, alg) in algorithms::all_paper(0.2, 0.5).iter().enumerate() {
            let seed = 4000 + ai as u64;
            let in_ram = ram
                .estimate(alg.as_ref(), target, 150, &cfg, seed)
                .expect("in-RAM estimate");
            let out_of_core = paged
                .estimate(alg.as_ref(), target, 150, &cfg, seed)
                .expect("paged estimate");
            assert_eq!(
                in_ram.to_bits(),
                out_of_core.to_bits(),
                "{} diverged out-of-core at budget {label}",
                alg.abbrev()
            );
        }
        let stats = paged.backend().paging_stats();
        assert!(stats.page_reads > 0, "{label}: the pool never read a page");
        if label == "1x working set" {
            assert!(
                stats.evictions > 0,
                "a 1x working-set budget must evict while serving ten walks"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}
