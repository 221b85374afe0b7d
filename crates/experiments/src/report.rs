//! Plain-text rendering of results tables, in the paper's layout.

use crate::runner::{best_per_column, SweepRow};

/// What one run of an experiment renders: its text artifact and, for
/// artifacts with a natural one, the CSV form — both from one
/// computation, so writing the CSV never reruns a sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct Artifacts {
    /// The text artifact.
    pub text: String,
    /// The CSV form; `None` for artifacts without a natural CSV layout.
    pub csv: Option<String>,
}

impl Artifacts {
    /// A text artifact with its CSV form.
    pub fn with_csv(text: String, csv: String) -> Artifacts {
        Artifacts {
            text,
            csv: Some(csv),
        }
    }
}

impl From<String> for Artifacts {
    /// A text-only artifact.
    fn from(text: String) -> Artifacts {
        Artifacts { text, csv: None }
    }
}

/// Renders a results table: a caption line, a header row of sample sizes,
/// and one row per algorithm. The best value per column is marked `*`
/// (the paper underlines/bolds it).
pub fn format_sweep_table(caption: &str, headers: &[String], rows: &[SweepRow]) -> String {
    let best = best_per_column(rows);
    let name_w = rows
        .iter()
        .map(|r| r.abbrev.len())
        .max()
        .unwrap_or(10)
        .max(9);
    let col_w = headers.iter().map(|h| h.len()).max().unwrap_or(8).max(7);

    let mut out = String::new();
    out.push_str(caption);
    out.push('\n');
    out.push_str(&format!("{:name_w$}", "algorithm"));
    for h in headers {
        out.push_str(&format!(" {h:>col_w$}"));
    }
    out.push('\n');
    for (ri, row) in rows.iter().enumerate() {
        out.push_str(&format!("{:name_w$}", row.abbrev));
        for (ci, v) in row.nrmse.iter().enumerate() {
            let marker = if best.get(ci) == Some(&ri) { "*" } else { "" };
            out.push_str(&format!(" {:>col_w$}", format!("{v:.3}{marker}")));
        }
        out.push('\n');
    }
    out
}

/// Renders a simple aligned two-plus-column table from string cells.
pub fn format_plain_table(caption: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    out.push_str(caption);
    out.push('\n');
    for (i, h) in headers.iter().enumerate() {
        out.push_str(&format!("{h:<w$}  ", w = widths[i]));
    }
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            out.push_str(&format!("{cell:<w$}  ", w = widths[i]));
        }
        out.push('\n');
    }
    out
}

/// Formats a possibly huge or infinite bound like the paper's Tables
/// 18–22 (`7.56 × 10⁷` style becomes `7.56e7`).
pub fn format_bound(b: f64) -> String {
    if b.is_infinite() {
        "inf".to_string()
    } else if b >= 1e4 {
        format!("{b:.2e}")
    } else {
        format!("{b:.0}")
    }
}

/// Renders a sweep table as CSV (`algorithm,<size headers...>`), for
/// plotting pipelines regenerating the paper's figures.
pub fn format_sweep_csv(headers: &[String], rows: &[SweepRow]) -> String {
    let mut out = String::new();
    out.push_str("algorithm");
    for h in headers {
        out.push(',');
        out.push_str(h);
    }
    out.push('\n');
    for row in rows {
        out.push_str(row.abbrev);
        for v in &row.nrmse {
            out.push_str(&format!(",{v}"));
        }
        out.push('\n');
    }
    out
}

/// Renders a plain table as CSV. Cells containing commas are quoted.
pub fn format_plain_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let quote = |c: &str| {
        if c.contains(',') {
            format!("\"{}\"", c.replace('"', "\"\""))
        } else {
            c.to_string()
        }
    };
    let mut out = String::new();
    out.push_str(
        &headers
            .iter()
            .map(|h| quote(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_table_marks_best() {
        let rows = vec![
            SweepRow {
                abbrev: "A",
                nrmse: vec![0.5, 0.2],
            },
            SweepRow {
                abbrev: "B",
                nrmse: vec![0.3, 0.4],
            },
        ];
        let s = format_sweep_table("Table X", &["0.5%|V|".into(), "1.0%|V|".into()], &rows);
        assert!(s.contains("Table X"));
        assert!(s.contains("0.300*"));
        assert!(s.contains("0.200*"));
        assert!(!s.contains("0.500*"));
    }

    #[test]
    fn plain_table_aligns_columns() {
        let s = format_plain_table(
            "T",
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("name"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    fn sweep_csv_has_one_row_per_algorithm() {
        let rows = vec![
            SweepRow {
                abbrev: "A",
                nrmse: vec![0.5, 0.25],
            },
            SweepRow {
                abbrev: "B",
                nrmse: vec![0.125, 0.0625],
            },
        ];
        let csv = format_sweep_csv(&["0.5%|V|".into(), "1.0%|V|".into()], &rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "algorithm,0.5%|V|,1.0%|V|");
        assert_eq!(lines[1], "A,0.5,0.25");
        assert_eq!(lines[2], "B,0.125,0.0625");
    }

    #[test]
    fn plain_csv_quotes_commas() {
        let csv = format_plain_csv(
            &["label", "location"],
            &[vec!["86".into(), "bratislavsky kraj, nove mesto".into()]],
        );
        assert!(csv.contains("\"bratislavsky kraj, nove mesto\""));
        assert!(csv.starts_with("label,location\n"));
    }

    #[test]
    fn bounds_formatting() {
        assert_eq!(format_bound(f64::INFINITY), "inf");
        assert_eq!(format_bound(921.0), "921");
        assert_eq!(format_bound(75_600_000.0), "7.56e7");
    }
}
