//! The experiment registry: every runnable artifact as a first-class
//! [`ExperimentSpec`] value instead of an arm in a string-matching
//! dispatch.
//!
//! [`Registry::paper`] builds the full list in paper order; the
//! [`crate::tables::Harness`] front door (`run`, `experiment_ids`) and
//! the `labelcount-exp` binary's `--list` are all generated from it, so
//! adding an experiment is one registration — the CLI, the id list, and
//! the CSV plumbing follow automatically.

use crate::datasets::DatasetKind;
use crate::report::Artifacts;
use crate::tables::Harness;

/// One runnable experiment: a stable id, a one-line description, and the
/// generator of its artifacts.
///
/// Implementations receive the [`Harness`] so they can share its dataset
/// cache and sweep configuration; they must be deterministic functions of
/// the harness state.
pub trait ExperimentSpec {
    /// The stable id the CLI accepts (`labelcount-exp <id>`). Matching is
    /// case-insensitive; ids themselves are lowercase.
    fn id(&self) -> String;

    /// One-line description shown by `labelcount-exp --list`.
    fn description(&self) -> String;

    /// Runs the experiment and renders its text artifact and, for
    /// artifacts with a natural one, its machine-readable CSV form.
    fn run(&self, harness: &Harness) -> Artifacts;
}

/// A fixed experiment backed by plain functions — the registration shape
/// for everything that needs no per-instance parameters.
struct Fixed {
    id: &'static str,
    description: &'static str,
    run: fn(&Harness) -> Artifacts,
}

impl ExperimentSpec for Fixed {
    fn id(&self) -> String {
        self.id.to_string()
    }
    fn description(&self) -> String {
        self.description.to_string()
    }
    fn run(&self, harness: &Harness) -> Artifacts {
        (self.run)(harness)
    }
}

/// Tables 4–17: the NRMSE-vs-sample-size sweep of one (dataset, target).
struct NrmseTable {
    kind: DatasetKind,
    target_idx: usize,
    table_no: usize,
}

impl ExperimentSpec for NrmseTable {
    fn id(&self) -> String {
        format!("table{}", self.table_no)
    }
    fn description(&self) -> String {
        format!(
            "NRMSE of all ten algorithms vs sample size on {} (target {})",
            self.kind.name(),
            self.target_idx
        )
    }
    fn run(&self, harness: &Harness) -> Artifacts {
        harness.nrmse_table(self.kind, self.target_idx, self.table_no)
    }
}

/// Tables 18–22: `(0.1, 0.1)`-approximation sample-size bounds.
struct BoundsTable {
    kind: DatasetKind,
    table_no: usize,
}

impl ExperimentSpec for BoundsTable {
    fn id(&self) -> String {
        format!("table{}", self.table_no)
    }
    fn description(&self) -> String {
        format!(
            "sample-size bounds (Theorems 4.1-4.5) on {}",
            self.kind.name()
        )
    }
    fn run(&self, harness: &Harness) -> Artifacts {
        harness.bounds_table(self.kind, self.table_no).into()
    }
}

/// Tables 23–26: best algorithm per target at the 5%|V| budget.
struct BestTable {
    kinds: &'static [DatasetKind],
    table_no: usize,
}

impl ExperimentSpec for BestTable {
    fn id(&self) -> String {
        format!("table{}", self.table_no)
    }
    fn description(&self) -> String {
        "best algorithm per target label at the 5%|V| budget".to_string()
    }
    fn run(&self, harness: &Harness) -> Artifacts {
        harness.best_table(self.kinds, self.table_no).into()
    }
}

/// Figures 1–2: NRMSE vs relative target-edge count.
struct Figure {
    kind: DatasetKind,
    fig_no: usize,
}

impl ExperimentSpec for Figure {
    fn id(&self) -> String {
        format!("fig{}", self.fig_no)
    }
    fn description(&self) -> String {
        format!(
            "NRMSE vs relative count of target edges on {}",
            self.kind.name()
        )
    }
    fn run(&self, harness: &Harness) -> Artifacts {
        harness.figure(self.kind, self.fig_no).into()
    }
}

fn facebook(harness: &Harness) -> std::rc::Rc<crate::datasets::Dataset> {
    harness.dataset(DatasetKind::FacebookLike)
}

/// The registry: every experiment, in paper order.
pub struct Registry {
    entries: Vec<Box<dyn ExperimentSpec>>,
}

impl Registry {
    /// Builds the full registry in paper order (Tables 1–26, figures,
    /// mixing, ablations, then the serving-stack sweeps).
    pub fn paper() -> Registry {
        let mut entries: Vec<Box<dyn ExperimentSpec>> = vec![
            Box::new(Fixed {
                id: "table1",
                description: "statistics of the surrogate datasets vs the paper's",
                run: |h| h.table1().into(),
            }),
            Box::new(Fixed {
                id: "table2",
                description: "abbreviations of the ten Table-2 algorithms",
                run: |h| h.table2().into(),
            }),
            Box::new(Fixed {
                id: "table3",
                description: "labels and their locations in pokec-like",
                run: |h| h.table3().into(),
            }),
        ];
        let nrmse: [(DatasetKind, usize); 14] = [
            (DatasetKind::FacebookLike, 0),
            (DatasetKind::GooglePlusLike, 0),
            (DatasetKind::PokecLike, 0),
            (DatasetKind::PokecLike, 1),
            (DatasetKind::PokecLike, 2),
            (DatasetKind::PokecLike, 3),
            (DatasetKind::OrkutLike, 0),
            (DatasetKind::OrkutLike, 1),
            (DatasetKind::OrkutLike, 2),
            (DatasetKind::OrkutLike, 3),
            (DatasetKind::LiveJournalLike, 0),
            (DatasetKind::LiveJournalLike, 1),
            (DatasetKind::LiveJournalLike, 2),
            (DatasetKind::LiveJournalLike, 3),
        ];
        for (i, (kind, target_idx)) in nrmse.into_iter().enumerate() {
            entries.push(Box::new(NrmseTable {
                kind,
                target_idx,
                table_no: 4 + i,
            }));
        }
        let bounds = [
            DatasetKind::FacebookLike,
            DatasetKind::GooglePlusLike,
            DatasetKind::PokecLike,
            DatasetKind::OrkutLike,
            DatasetKind::LiveJournalLike,
        ];
        for (i, kind) in bounds.into_iter().enumerate() {
            entries.push(Box::new(BoundsTable {
                kind,
                table_no: 18 + i,
            }));
        }
        const BEST_23: &[DatasetKind] = &[DatasetKind::FacebookLike, DatasetKind::GooglePlusLike];
        const BEST_24: &[DatasetKind] = &[DatasetKind::PokecLike];
        const BEST_25: &[DatasetKind] = &[DatasetKind::OrkutLike];
        const BEST_26: &[DatasetKind] = &[DatasetKind::LiveJournalLike];
        for (i, kinds) in [BEST_23, BEST_24, BEST_25, BEST_26].into_iter().enumerate() {
            entries.push(Box::new(BestTable {
                kinds,
                table_no: 23 + i,
            }));
        }
        entries.push(Box::new(Figure {
            kind: DatasetKind::OrkutLike,
            fig_no: 1,
        }));
        entries.push(Box::new(Figure {
            kind: DatasetKind::LiveJournalLike,
            fig_no: 2,
        }));
        entries.push(Box::new(Fixed {
            id: "mixing",
            description: "mixing time T(1e-3) and burn-in per dataset",
            run: |h| h.mixing().into(),
        }));
        entries.push(Box::new(Fixed {
            id: "ablation-thinning",
            description: "HT thinning fraction ablation",
            run: |h| {
                crate::ablations::ablation_thinning(
                    &h.dataset(DatasetKind::GooglePlusLike),
                    &h.dataset(DatasetKind::PokecLike),
                    &h.sweep,
                )
                .into()
            },
        }));
        entries.push(Box::new(Fixed {
            id: "ablation-alpha",
            description: "EX-RCMH alpha ablation",
            run: |h| {
                crate::ablations::ablation_alpha(&h.dataset(DatasetKind::PokecLike), &h.sweep)
                    .into()
            },
        }));
        entries.push(Box::new(Fixed {
            id: "ablation-delta",
            description: "EX-GMD delta ablation",
            run: |h| {
                crate::ablations::ablation_delta(&h.dataset(DatasetKind::PokecLike), &h.sweep)
                    .into()
            },
        }));
        entries.push(Box::new(Fixed {
            id: "ablation-burnin",
            description: "burn-in length ablation",
            run: |h| crate::ablations::ablation_burnin(&facebook(h), &h.sweep).into(),
        }));
        entries.push(Box::new(Fixed {
            id: "bias-decomposition",
            description: "bias/variance decomposition of the proposed estimators",
            run: |h| {
                crate::ablations::bias_decomposition(
                    &h.dataset(DatasetKind::OrkutLike),
                    0,
                    &h.sweep,
                )
                .into()
            },
        }));
        entries.push(Box::new(Fixed {
            id: "resilience",
            description: "NRMSE and realized API cost vs adversarial fault rate",
            run: |h| crate::resilience::resilience_report(&facebook(h), &h.sweep),
        }));
        entries.push(Box::new(Fixed {
            id: "serving",
            description: "tenant skew x shard count through the sharded service",
            run: |h| crate::serving::serving_report(&facebook(h), &h.sweep),
        }));
        entries.push(Box::new(Fixed {
            id: "deadlines",
            description: "deadline tightness x priority mix through the scheduler",
            run: |h| crate::deadlines::deadlines_report(&facebook(h), &h.sweep),
        }));
        entries.push(Box::new(Fixed {
            id: "eviction",
            description: "replacement policy x frame budget through the buffer pool",
            run: |h| crate::eviction::eviction_report(&facebook(h), &h.sweep),
        }));
        entries.push(Box::new(Fixed {
            id: "chaos",
            description: "outage-burst length x resilience arm: availability, quality, cost",
            run: |h| crate::chaos::chaos_report(&facebook(h), &h.sweep),
        }));
        entries.push(Box::new(Fixed {
            id: "staleness",
            description: "churn rate x cache depth: invalidation vs stale reads",
            run: |h| crate::staleness::staleness_report(&facebook(h), &h.sweep),
        }));
        Registry { entries }
    }

    /// Every registered id, in paper order.
    pub fn ids(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.id()).collect()
    }

    /// Looks up an experiment by id (case-insensitive).
    pub fn find(&self, id: &str) -> Option<&dyn ExperimentSpec> {
        let want = id.to_ascii_lowercase();
        self.entries
            .iter()
            .find(|e| e.id() == want)
            .map(|e| e.as_ref())
    }

    /// Iterates the registered experiments in paper order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn ExperimentSpec> {
        self.entries.iter().map(|e| e.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_lowercase_and_in_paper_order() {
        let reg = Registry::paper();
        let ids = reg.ids();
        let mut seen = std::collections::HashSet::new();
        for id in &ids {
            assert_eq!(id, &id.to_ascii_lowercase(), "{id}: ids are lowercase");
            assert!(seen.insert(id.clone()), "{id}: duplicate registration");
        }
        // Tables come first and in numeric order.
        for (i, id) in ids.iter().take(26).enumerate() {
            assert_eq!(id, &format!("table{}", i + 1));
        }
    }

    #[test]
    fn find_is_case_insensitive_and_total_over_ids() {
        let reg = Registry::paper();
        for id in reg.ids() {
            assert!(reg.find(&id).is_some(), "{id} not findable");
            assert!(reg.find(&id.to_ascii_uppercase()).is_some());
        }
        assert!(reg.find("table99").is_none());
        assert!(reg.find("").is_none());
    }

    #[test]
    fn every_entry_has_a_description() {
        for e in Registry::paper().iter() {
            assert!(
                !e.description().trim().is_empty(),
                "{}: empty description",
                e.id()
            );
        }
    }

    #[test]
    fn sweep_tables_keep_their_csv_form() {
        // `run()` computes the sweep, so only the cheapest sweep table
        // is exercised here; the serving-stack sweeps' CSVs are covered by
        // their own module tests.
        let reg = Registry::paper();
        let h = Harness::new(
            crate::runner::SweepConfig {
                reps: 1,
                threads: 2,
                ..Default::default()
            },
            0.01,
            1,
        );
        let csv = reg
            .find("table4")
            .unwrap()
            .run(&h)
            .csv
            .expect("table4 lost its CSV");
        assert!(csv.starts_with("algorithm,"));
        assert!(reg.find("TABLE4").unwrap().id() == "table4");
    }
}
