//! Plain-text experiment reports.
//!
//! Every experiment produces a [`Report`]: a title, an optional
//! commentary block (what the paper showed, what to look for), and an
//! aligned table. Keeping the output textual makes `bench_output.txt` and
//! `EXPERIMENTS.md` diffable.

/// One experiment's tabular result.
#[derive(Debug, Clone)]
pub struct Report {
    /// e.g. "Figure 13 — overall MFU".
    pub title: String,
    /// What the paper reported and what the reproduction should show.
    pub commentary: Vec<String>,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Report {
    /// Start a report.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Report {
            title: title.into(),
            commentary: Vec::new(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Add a commentary line.
    pub fn note(&mut self, line: impl Into<String>) -> &mut Self {
        self.commentary.push(line.into());
        self
    }

    /// Add a row (must match the column count).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width mismatch in '{}'",
            self.title
        );
        self.rows.push(cells);
        self
    }

    /// The report as a JSON object (`repro --json <path>` archives runs
    /// in a machine-readable form next to the textual tables).
    pub fn to_json(&self) -> dt_simengine::Json {
        use dt_simengine::Json;
        let strings = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
        Json::obj(vec![
            ("title", Json::Str(self.title.clone())),
            ("commentary", strings(&self.commentary)),
            ("columns", strings(&self.columns)),
            (
                "rows",
                Json::Arr(self.rows.iter().map(|r| strings(r)).collect()),
            ),
        ])
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        for line in &self.commentary {
            out.push_str(&format!("   {line}\n"));
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.columns));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Aggregate a recorded trace into the per-module time breakdown
/// (encoder / llm / generator × compute / comm / bubble / stall).
///
/// Spans carrying a `module` arg (the per-stage pipeline spans) land on
/// their module's row; rank-runtime spans (gradient sync — communication —
/// and preprocessing stall) land on a final `(runtime)` row. Durations are
/// totals across all ranks and iterations divided by `ranks`, i.e. the
/// mean per-rank time; `share` is the row's fraction of all attributed
/// time.
pub fn module_breakdown(rec: &dt_simengine::TraceRecorder, ranks: u64) -> Report {
    use dt_simengine::trace::cat;
    let ranks = ranks.max(1) as f64;
    // rows[module] = [compute, comm, bubble, stall] in seconds.
    let names = ["encoder", "llm", "generator", "(runtime)"];
    let mut rows = [[0.0f64; 4]; 4];
    for span in rec.spans() {
        let secs = span.dur.as_secs_f64();
        let col = match span.cat {
            cat::COMPUTE_FWD | cat::COMPUTE_BWD => 0,
            cat::COMM | cat::GRAD_SYNC => 1,
            cat::BUBBLE => 2,
            cat::STALL => 3,
            _ => continue,
        };
        let row = match span.args.iter().find(|(k, _)| *k == "module") {
            Some((_, m)) => match names.iter().position(|n| n == m) {
                Some(i) => i,
                None => continue,
            },
            // Rank-runtime spans (grad sync / stall) have no module label.
            None if matches!(span.cat, cat::GRAD_SYNC | cat::STALL) => 3,
            None => continue,
        };
        rows[row][col] += secs / ranks;
    }
    let grand: f64 = rows.iter().flatten().sum();
    let mut report = Report::new(
        "Per-module time breakdown (mean per rank)",
        &["module", "compute", "comm", "bubble", "stall", "share"],
    );
    report.note("compute/comm/bubble from the per-stage pipeline spans;");
    report.note("comm on the (runtime) row is gradient synchronization.");
    for (name, row) in names.iter().zip(&rows) {
        let total: f64 = row.iter().sum();
        report.row(vec![
            name.to_string(),
            fmt_secs(row[0]),
            fmt_secs(row[1]),
            fmt_secs(row[2]),
            fmt_secs(row[3]),
            fmt_pct(if grand > 0.0 { total / grand } else { 0.0 }),
        ]);
    }
    report
}

/// Format seconds adaptively (s / ms / µs).
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{:.0}us", s * 1e6)
    }
}

/// Format a ratio as `1.23x`.
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}x")
}

/// Format a fraction as a percentage.
pub fn fmt_pct(f: f64) -> String {
    format!("{:.1}%", f * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut r = Report::new("T", &["a", "long-col"]);
        r.note("note");
        r.row(vec!["1".into(), "2".into()]);
        let s = r.render();
        assert!(s.contains("== T =="));
        assert!(s.contains("note"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_rows_are_rejected() {
        Report::new("T", &["a"]).row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn formatters_pick_units() {
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_secs(0.0021), "2.1ms");
        assert_eq!(fmt_secs(12e-6), "12us");
        assert_eq!(fmt_ratio(1.234), "1.23x");
        assert_eq!(fmt_pct(0.547), "54.7%");
    }
}
