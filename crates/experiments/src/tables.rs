//! One function per paper table/figure (the per-experiment index of
//! DESIGN.md §5).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use labelcount_core::algorithms;
use labelcount_core::bounds::{all_bounds, ApproxParams};
use labelcount_graph::ground_truth::all_pair_counts;

use crate::datasets::{build, closest_pairs, Dataset, DatasetKind};
use crate::registry::Registry;
use crate::report::{
    format_bound, format_plain_table, format_sweep_csv, format_sweep_table, Artifacts,
};
use crate::runner::{nrmse_sweep, paper_size_headers, paper_sizes, SweepConfig};

/// Lazily-building dataset registry plus the sweep configuration — the
/// top-level object behind the `labelcount-exp` binary.
pub struct Harness {
    /// Sweep parameters (replications, threads, seeds, α, δ).
    pub sweep: SweepConfig,
    /// Dataset scale factor (1.0 = DESIGN.md sizes).
    pub scale: f64,
    /// Seed for dataset generation (separate from the sweep seed so the
    /// same datasets can be swept with different randomness).
    pub data_seed: u64,
    cache: RefCell<HashMap<&'static str, Rc<Dataset>>>,
}

impl Harness {
    /// Creates a harness.
    pub fn new(sweep: SweepConfig, scale: f64, data_seed: u64) -> Self {
        Harness {
            sweep,
            scale,
            data_seed,
            cache: RefCell::new(HashMap::new()),
        }
    }

    /// Builds (or returns the cached) dataset.
    pub fn dataset(&self, kind: DatasetKind) -> Rc<Dataset> {
        if let Some(d) = self.cache.borrow().get(kind.name()) {
            return Rc::clone(d);
        }
        let d = Rc::new(build(kind, self.scale, self.data_seed));
        self.cache.borrow_mut().insert(kind.name(), Rc::clone(&d));
        d
    }

    /// All experiment ids `run` accepts, in paper order — generated from
    /// the [`Registry`].
    pub fn experiment_ids() -> Vec<String> {
        Registry::paper().ids()
    }

    /// Dispatches an experiment id to its registered generator.
    pub fn run(&self, id: &str) -> Result<Artifacts, String> {
        let registry = Registry::paper();
        match registry.find(id) {
            Some(exp) => Ok(exp.run(self)),
            None => Err(format!(
                "unknown experiment id {id:?}; known ids: {}",
                registry.ids().join(", ")
            )),
        }
    }

    /// Table 1: statistics of (surrogate) datasets.
    pub fn table1(&self) -> String {
        let rows: Vec<Vec<String>> = DatasetKind::all()
            .iter()
            .map(|&k| {
                let d = self.dataset(k);
                vec![
                    d.name.to_string(),
                    format!("{:.2e}", d.graph.num_nodes() as f64),
                    format!("{:.2e}", d.graph.num_edges() as f64),
                    d.paper_name.to_string(),
                    paper_v(k).to_string(),
                    paper_e(k).to_string(),
                ]
            })
            .collect();
        format_plain_table(
            "Table 1: Statistics of Datasets (surrogate vs paper)",
            &[
                "network",
                "|V|",
                "|E|",
                "stands for",
                "paper |V|",
                "paper |E|",
            ],
            &rows,
        )
    }

    /// Table 2: abbreviations of algorithms.
    pub fn table2(&self) -> String {
        let descr: [(&str, &str); 10] = [
            (
                "NeighborSample-HH",
                "NeighborSample with the Hansen-Hurwitz estimator",
            ),
            (
                "NeighborSample-HT",
                "NeighborSample with the Horvitz-Thompson estimator",
            ),
            (
                "NeighborExploration-HH",
                "NeighborExploration with the Hansen-Hurwitz estimator",
            ),
            (
                "NeighborExploration-HT",
                "NeighborExploration with the Horvitz-Thompson estimator",
            ),
            (
                "NeighborExploration-RW",
                "NeighborExploration with the Re-weighted method",
            ),
            (
                "EX-MDRW",
                "Existing algorithm using maximum degree random walk",
            ),
            (
                "EX-MHRW",
                "Existing algorithm using Metropolis-Hastings random walk",
            ),
            ("EX-RW", "Existing algorithm using re-weighted method"),
            (
                "EX-RCMH",
                "Existing algorithm using rejection-controlled Metropolis-Hastings",
            ),
            (
                "EX-GMD",
                "Existing algorithm using general maximum degree random walk",
            ),
        ];
        let rows: Vec<Vec<String>> = descr
            .iter()
            .map(|(a, d)| vec![d.to_string(), a.to_string()])
            .collect();
        format_plain_table(
            "Table 2: Abbreviations of Algorithms",
            &["algorithm name", "abbreviation"],
            &rows,
        )
    }

    /// Table 3: labels and their corresponding locations (pokec-like).
    pub fn table3(&self) -> String {
        let d = self.dataset(DatasetKind::PokecLike);
        let rows: Vec<Vec<String>> = d
            .label_names
            .iter()
            .map(|(l, name)| vec![l.to_string(), name.to_string()])
            .collect();
        format_plain_table(
            "Table 3: The labels and their corresponding locations in pokec-like",
            &["label", "location"],
            &rows,
        )
    }

    /// Tables 4–17: NRMSE of all ten algorithms vs sample size, as text
    /// and in machine-readable form (one CSV row per algorithm, one
    /// column per budget) from one run of the sweep.
    pub fn nrmse_table(&self, kind: DatasetKind, target_idx: usize, table_no: usize) -> Artifacts {
        let d = self.dataset(kind);
        let t = &d.targets[target_idx];
        let sizes = paper_sizes(d.graph.num_nodes());
        let algs = algorithms::all_paper(self.sweep.alpha, self.sweep.delta);
        let rows = nrmse_sweep(
            &d.graph,
            d.burn_in,
            t.label,
            t.f,
            &sizes,
            &algs,
            &self.sweep,
        );
        let caption = format!(
            "Table {table_no}: {}, target label={}, number of target edges={}, percentage={:.4}% ({} reps)",
            d.name,
            t.label,
            t.f,
            100.0 * t.fraction,
            self.sweep.reps
        );
        Artifacts::with_csv(
            format_sweep_table(&caption, &paper_size_headers(), &rows),
            format_sweep_csv(&paper_size_headers(), &rows),
        )
    }

    /// Tables 18–22: `(0.1, 0.1)`-approximation sample-size bounds
    /// (Theorems 4.1–4.5).
    pub fn bounds_table(&self, kind: DatasetKind, table_no: usize) -> String {
        let d = self.dataset(kind);
        let p = ApproxParams::paper();
        let rows: Vec<Vec<String>> = d
            .targets
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let gt = d.ground_truth(i);
                let bs = all_bounds(&d.graph, &gt, p);
                let mut row = vec![t.label.to_string()];
                row.extend(bs.iter().map(|&b| format_bound(b)));
                row
            })
            .collect();
        format_plain_table(
            &format!(
                "Table {table_no}: Bounds on the number of samples in {} (eps=0.1, delta=0.1)",
                d.name
            ),
            &[
                "label",
                "NeighborSample-HH",
                "NeighborSample-HT",
                "NeighborExploration-HH",
                "NeighborExploration-HT",
                "NeighborExploration-RW",
            ],
            &rows,
        )
    }

    /// Tables 23–26: best algorithm per target label when 5%|V| API calls
    /// are used.
    pub fn best_table(&self, kinds: &[DatasetKind], table_no: usize) -> String {
        let algs = algorithms::all_paper(self.sweep.alpha, self.sweep.delta);
        let mut rows = Vec::new();
        for &kind in kinds {
            let d = self.dataset(kind);
            let k5 = *paper_sizes(d.graph.num_nodes()).last().unwrap();
            for t in &d.targets {
                let sweep =
                    nrmse_sweep(&d.graph, d.burn_in, t.label, t.f, &[k5], &algs, &self.sweep);
                let (best, err) = sweep
                    .iter()
                    .map(|r| (r.abbrev, r.nrmse[0]))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                    .unwrap();
                rows.push(vec![
                    d.name.to_string(),
                    t.label.to_string(),
                    best.to_string(),
                    format!("{err:.3}"),
                ]);
            }
        }
        format_plain_table(
            &format!("Table {table_no}: Best algorithm using 5%|V| API calls"),
            &["network", "label", "best algorithm", "NRMSE"],
            &rows,
        )
    }

    /// Figures 1–2: NRMSE of the five proposed algorithms vs the relative
    /// count of target edges, at the 5%|V| budget.
    pub fn figure(&self, kind: DatasetKind, fig_no: usize) -> String {
        let d = self.dataset(kind);
        let counts = all_pair_counts(&d.graph);
        // Log-spaced desired fractions spanning the dataset's range.
        let desired: Vec<f64> = (0..10)
            .map(|i| 10f64.powf(-5.0 + 0.45 * i as f64))
            .collect();
        let mut specs = closest_pairs(&counts, &desired, d.graph.num_edges(), 20);
        specs.sort_by_key(|a| a.f);
        specs.dedup_by(|a, b| a.label == b.label);

        let algs = algorithms::proposed();
        let k5 = *paper_sizes(d.graph.num_nodes()).last().unwrap();
        let mut rows = Vec::new();
        for spec in &specs {
            let sweep = nrmse_sweep(
                &d.graph,
                d.burn_in,
                spec.label,
                spec.f,
                &[k5],
                &algs,
                &self.sweep,
            );
            let mut row = vec![
                format!("{:.3e}", spec.fraction),
                spec.f.to_string(),
                spec.label.to_string(),
            ];
            row.extend(sweep.iter().map(|r| format!("{:.3}", r.nrmse[0])));
            rows.push(row);
        }
        let headers: Vec<&str> = ["F/|E|", "F", "label"]
            .into_iter()
            .chain(algs.iter().map(|a| a.abbrev()))
            .collect();
        format_plain_table(
            &format!(
                "Figure {fig_no}: NRMSE vs relative count of target edges in {} (5%|V| API calls, {} reps)",
                d.name, self.sweep.reps
            ),
            &headers,
            &rows,
        )
    }

    /// The mixing times quoted in §5.1 (`ε = 10⁻³`).
    pub fn mixing(&self) -> String {
        let rows: Vec<Vec<String>> = DatasetKind::all()
            .iter()
            .map(|&k| {
                let d = self.dataset(k);
                vec![
                    d.name.to_string(),
                    d.mixing_time
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "did not mix (cap hit)".to_string()),
                    d.burn_in.to_string(),
                ]
            })
            .collect();
        format_plain_table(
            "Mixing time T(1e-3) per dataset (sampled starts) and burn-in used",
            &["network", "T(1e-3)", "burn-in"],
            &rows,
        )
    }
}

/// Paper Table 1 `|V|` values, for side-by-side reporting.
fn paper_v(kind: DatasetKind) -> &'static str {
    match kind {
        DatasetKind::FacebookLike => "4.0e3",
        DatasetKind::GooglePlusLike => "1.08e5",
        DatasetKind::PokecLike => "1.6e6",
        DatasetKind::OrkutLike => "3.08e6",
        DatasetKind::LiveJournalLike => "4.8e6",
    }
}

/// Paper Table 1 `|E|` values.
fn paper_e(kind: DatasetKind) -> &'static str {
    match kind {
        DatasetKind::FacebookLike => "8.82e4",
        DatasetKind::GooglePlusLike => "1.22e7",
        DatasetKind::PokecLike => "2.23e7",
        DatasetKind::OrkutLike => "1.17e8",
        DatasetKind::LiveJournalLike => "4.28e7",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_harness() -> Harness {
        Harness::new(
            SweepConfig {
                reps: 8,
                threads: 4,
                seed: 3,
                ..SweepConfig::default()
            },
            0.01,
            5,
        )
    }

    #[test]
    fn dataset_cache_reuses_instances() {
        let h = tiny_harness();
        let a = h.dataset(DatasetKind::FacebookLike);
        let b = h.dataset(DatasetKind::FacebookLike);
        assert!(Rc::ptr_eq(&a, &b));
    }

    #[test]
    fn static_tables_render() {
        let h = tiny_harness();
        let t2 = h.table2();
        assert!(t2.contains("NeighborSample-HH"));
        assert!(t2.contains("EX-GMD"));
    }

    #[test]
    fn unknown_id_is_an_error() {
        let h = tiny_harness();
        let err = h.run("table99").unwrap_err();
        assert!(err.contains("unknown experiment id"));
    }

    #[test]
    fn experiment_ids_cover_all_paper_artifacts() {
        let ids = Harness::experiment_ids();
        // Tables 1–26, fig1–2, mixing, 4 ablations, bias decomposition,
        // resilience, serving, deadlines, eviction, chaos, staleness
        // sweeps.
        assert_eq!(ids.len(), 26 + 2 + 1 + 5 + 1 + 1 + 1 + 1 + 1 + 1);
        assert!(ids.contains(&"chaos".to_string()));
        assert!(ids.contains(&"table17".to_string()));
        assert!(ids.contains(&"fig2".to_string()));
        assert!(ids.contains(&"ablation-thinning".to_string()));
        assert!(ids.contains(&"bias-decomposition".to_string()));
        assert!(ids.contains(&"resilience".to_string()));
        assert!(ids.contains(&"serving".to_string()));
        assert!(ids.contains(&"deadlines".to_string()));
        assert!(ids.contains(&"eviction".to_string()));
        assert!(ids.contains(&"staleness".to_string()));
    }

    #[test]
    fn nrmse_table_renders_on_tiny_dataset() {
        let h = tiny_harness();
        let out = h.nrmse_table(DatasetKind::FacebookLike, 0, 4).text;
        assert!(out.contains("Table 4"));
        assert!(out.contains("NeighborSample-HH"));
        assert!(out.contains("5.0%|V|"));
        // Ten algorithm rows + caption + header.
        assert_eq!(out.trim_end().lines().count(), 12);
    }

    #[test]
    fn csv_form_matches_text_tables() {
        let h = tiny_harness();
        let csv = h.run("table4").unwrap().csv.expect("table4 has a CSV form");
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 11); // header + 10 algorithms
        assert!(lines[0].starts_with("algorithm,0.5%|V|"));
        assert!(lines[1].starts_with("NeighborSample-HH,"));
        // Non-sweep artifacts have no CSV form.
        for id in ["table1", "mixing", "table18"] {
            assert!(h.run(id).unwrap().csv.is_none(), "{id}");
        }
    }

    #[test]
    fn bounds_table_renders() {
        let h = tiny_harness();
        let out = h.bounds_table(DatasetKind::FacebookLike, 18);
        assert!(out.contains("Table 18"));
        assert!(out.contains("NeighborExploration-RW"));
    }

    #[test]
    fn mixing_report_covers_all_datasets() {
        let h = tiny_harness();
        let out = h.mixing();
        for k in DatasetKind::all() {
            assert!(out.contains(k.name()), "{out}");
        }
    }
}
