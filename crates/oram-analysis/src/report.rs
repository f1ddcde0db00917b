//! Experiment-result archival.
//!
//! Every bench binary emits an [`ExperimentReport`]: the experiment id
//! (table/figure number), the paper's reference values, the measured
//! values, and free-form notes. Reports print as aligned tables and
//! serialize to JSON.

use crate::table::Table;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// One compared quantity: paper vs. measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonRow {
    /// Quantity name (e.g. "Total Time").
    pub metric: String,
    /// The paper's reported value, as printed there.
    pub paper: String,
    /// Our measured/computed value.
    pub measured: String,
}

/// A full experiment report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    /// Saves the report as JSON.
    ///
    /// # Errors
    ///
    /// I/O and serialization errors surface as [`io::Error`].
    pub fn save_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self).map_err(io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Loads a report from JSON.
    ///
    /// # Errors
    ///
    /// I/O and deserialization errors surface as [`io::Error`].
    pub fn load_json(path: impl AsRef<Path>) -> io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        serde_json::from_str(&json).map_err(io::Error::other)
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

    #[test]
    fn json_roundtrip() {
        let mut report = ExperimentReport::new("fig-5-1", "Gain", "sweep");
        report.compare("peak", "16x", "15.1x");
        let dir = std::env::temp_dir().join("horam-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        report.save_json(&path).unwrap();
        assert_eq!(ExperimentReport::load_json(&path).unwrap(), report);
        std::fs::remove_file(&path).ok();
    }
}
