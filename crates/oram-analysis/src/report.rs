//! Experiment-result archival.
//!
//! Every bench binary emits an [`ExperimentReport`]: the experiment id
//! (table/figure number), the paper's reference values, the measured
//! values, and free-form notes. Reports print as aligned tables.

use crate::table::Table;

/// One compared quantity: paper vs. measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Quantity name (e.g. "Total Time").
    pub metric: String,
    /// The paper's reported value, as printed there.
    pub paper: String,
    /// Our measured/computed value.
    pub measured: String,
}

/// A full experiment report.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Experiment identifier ("table-5-3", "fig-5-1", …).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Workload / parameter description.
    pub setup: String,
    /// Compared quantities.
    pub rows: Vec<ComparisonRow>,
    /// Caveats, substitutions, calibration notes.
    pub notes: Vec<String>,
}

impl ExperimentReport {
    /// Creates an empty report.
    pub fn new(id: impl Into<String>, title: impl Into<String>, setup: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            setup: setup.into(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a compared quantity.
    pub fn compare(
        &mut self,
        metric: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
    ) -> &mut Self {
        self.rows.push(ComparisonRow {
            metric: metric.into(),
            paper: paper.into(),
            measured: measured.into(),
        });
        self
    }

    /// Adds a note.
    pub fn note(&mut self, text: impl Into<String>) -> &mut Self {
        self.notes.push(text.into());
        self
    }

    /// Renders the report for terminal output.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} — {} ==\nSetup: {}\n\n",
            self.id, self.title, self.setup
        );
        let mut table = Table::new(vec!["metric", "paper", "measured"]);
        for row in &self.rows {
            table.row(vec![
                row.metric.clone(),
                row.paper.clone(),
                row.measured.clone(),
            ]);
        }
        out.push_str(&table.render());
        if !self.notes.is_empty() {
            out.push_str("\nNotes:\n");
            for note in &self.notes {
                out.push_str(&format!("  - {note}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_everything() {
        let mut report = ExperimentReport::new("table-5-3", "Small dataset", "64 MB, 25k requests");
        report
            .compare("Total Time", "1290 ms", "1350 ms")
            .note("simulated HDD");
        let text = report.render();
        assert!(text.contains("table-5-3"));
        assert!(text.contains("1290 ms"));
        assert!(text.contains("simulated HDD"));
    }
}
