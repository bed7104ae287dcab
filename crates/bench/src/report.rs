//! Structured experiment reports: paper-reported vs measured values.

use std::fmt::Write as _;

use pmck_rt::json::Json;

/// One row of an experiment: a labelled paper-vs-measured comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// What the row reports (e.g. a workload or a parameter point).
    pub label: String,
    /// The value the paper reports, as prose ("—" when the paper gives
    /// no number for this point).
    pub paper: String,
    /// The value this reproduction measures.
    pub measured: String,
}

impl Row {
    /// Convenience constructor.
    pub fn new(
        label: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
    ) -> Self {
        Row {
            label: label.into(),
            paper: paper.into(),
            measured: measured.into(),
        }
    }
}

/// A regenerated table or figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    /// Stable id (`fig04`, `appendix`, …) matching the binary name.
    pub id: &'static str,
    /// Human title (paper artifact).
    pub title: &'static str,
    /// Data rows.
    pub rows: Vec<Row>,
    /// Interpretation notes: what should match and what is expected to
    /// deviate (substrate differences).
    pub notes: Vec<String>,
}

impl Experiment {
    /// Creates an empty experiment.
    pub fn new(id: &'static str, title: &'static str) -> Self {
        Experiment {
            id,
            title,
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a row.
    pub fn row(
        &mut self,
        label: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
    ) -> &mut Self {
        self.rows.push(Row::new(label, paper, measured));
        self
    }

    /// Adds an interpretation note.
    pub fn note(&mut self, s: impl Into<String>) -> &mut Self {
        self.notes.push(s.into());
        self
    }

    /// Prints the experiment to stdout as an aligned text table.
    pub fn print(&self) {
        println!("== {} — {} ==", self.id, self.title);
        let w1 = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .chain(["point".len()])
            .max()
            .unwrap_or(8);
        let w2 = self
            .rows
            .iter()
            .map(|r| r.paper.len())
            .chain(["paper".len()])
            .max()
            .unwrap_or(8);
        println!("{:<w1$}  {:<w2$}  measured", "point", "paper");
        for r in &self.rows {
            println!("{:<w1$}  {:<w2$}  {}", r.label, r.paper, r.measured);
        }
        for n in &self.notes {
            println!("note: {n}");
        }
        println!();
    }

    /// Renders the experiment as a JSON document.
    pub fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                Json::object()
                    .with("label", r.label.as_str())
                    .with("paper", r.paper.as_str())
                    .with("measured", r.measured.as_str())
            })
            .collect();
        let notes = self.notes.iter().map(|n| Json::from(n.as_str())).collect();
        Json::object()
            .with("id", self.id)
            .with("title", self.title)
            .with("rows", Json::Arr(rows))
            .with("notes", Json::Arr(notes))
    }

    /// Renders the experiment as a Markdown section (for EXPERIMENTS.md).
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "### `{}` — {}\n", self.id, self.title);
        let _ = writeln!(s, "| point | paper | measured |");
        let _ = writeln!(s, "|---|---|---|");
        for r in &self.rows {
            let _ = writeln!(s, "| {} | {} | {} |", r.label, r.paper, r.measured);
        }
        if !self.notes.is_empty() {
            let _ = writeln!(s);
            for n in &self.notes {
                let _ = writeln!(s, "> {n}");
            }
        }
        let _ = writeln!(s);
        s
    }
}

/// The rows by which two renderings of `EXPERIMENTS.md` differ, as
/// `-`/`+` lines under the heading of the section they sit in; empty
/// when the documents are byte-identical. Sections are matched by
/// heading and their lines compared in order, so a row that moved in
/// its last digit prints as one pair, and a section one side lacks as
/// one line rather than as everything after it.
pub fn differing_rows(committed: &str, regenerated: &str) -> Vec<String> {
    fn sections(doc: &str) -> Vec<(&str, Vec<&str>)> {
        let mut out = vec![("(preamble)", Vec::new())];
        for line in doc.lines() {
            if line.starts_with('#') {
                out.push((line, Vec::new()));
            } else {
                out.last_mut().expect("starts non-empty").1.push(line);
            }
        }
        out
    }
    let mut diff = Vec::new();
    if committed == regenerated {
        return diff;
    }
    let (old, new) = (sections(committed), sections(regenerated));
    for (heading, new_lines) in &new {
        let Some((_, old_lines)) = old.iter().find(|(h, _)| h == heading) else {
            diff.push(format!("+ {heading}  (section not in the committed file)"));
            continue;
        };
        let before = diff.len();
        for i in 0..old_lines.len().max(new_lines.len()) {
            let (was, is) = (old_lines.get(i), new_lines.get(i));
            if was != is {
                diff.extend(was.map(|l| format!("- {l}")));
                diff.extend(is.map(|l| format!("+ {l}")));
            }
        }
        if diff.len() > before {
            diff.insert(before, format!("@@ {heading}"));
        }
    }
    for (heading, _) in &old {
        if !new.iter().any(|(h, _)| h == heading) {
            diff.push(format!("- {heading}  (section no longer generated)"));
        }
    }
    if diff.is_empty() {
        // Same rows, different bytes: section order or line endings.
        diff.push("(sections reordered or whitespace changed)".into());
    }
    diff
}

/// Formats a fraction as a percentage with `digits` decimals.
pub fn pct(x: f64, digits: usize) -> String {
    format!("{:.digits$}%", x * 100.0)
}

/// Formats a small probability in scientific notation.
pub fn sci(x: f64) -> String {
    format!("{x:.1e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_renders() {
        let mut e = Experiment::new("figX", "demo");
        e.row("a", "1%", "1.1%").note("shape matches");
        let md = e.to_markdown();
        assert!(md.contains("| a | 1% | 1.1% |"));
        assert!(md.contains("> shape matches"));
        e.print();
    }

    #[test]
    fn differing_rows_names_the_rows_and_the_sections() {
        let mut a = Experiment::new("figA", "first");
        a.row("x", "1%", "1.1%").row("y", "2%", "2.2%");
        let mut b = Experiment::new("figB", "second");
        b.row("z", "3%", "3.3%").note("holds");
        let committed = format!("# T\n\n{}{}", a.to_markdown(), b.to_markdown());
        assert!(differing_rows(&committed, &committed).is_empty());

        // One row moves: one pair under its section's heading.
        a.rows[1].measured = "2.3%".into();
        let moved = format!("# T\n\n{}{}", a.to_markdown(), b.to_markdown());
        assert_eq!(
            differing_rows(&committed, &moved),
            [
                "@@ ### `figA` — first",
                "- | y | 2% | 2.2% |",
                "+ | y | 2% | 2.3% |"
            ]
        );

        // A section appears, one disappears, a row is added: each is
        // reported once and the unchanged section not at all.
        let c = Experiment::new("figC", "third");
        b.row("w", "4%", "4.4%");
        let reshaped = format!("# T\n\n{}{}", b.to_markdown(), c.to_markdown());
        let diff = differing_rows(&committed, &reshaped);
        assert!(
            diff.contains(&"+ | w | 4% | 4.4% |".to_string()),
            "{diff:?}"
        );
        assert!(
            diff.iter().any(|l| l.starts_with("+ ### `figC`")),
            "{diff:?}"
        );
        assert!(
            diff.iter().any(|l| l.starts_with("- ### `figA`")),
            "{diff:?}"
        );
        assert!(!diff.iter().any(|l| l.contains("| z |")), "{diff:?}");

        // Byte differences that are not row differences still fail.
        let swapped = format!("# T\n\n{}{}", b.to_markdown(), a.to_markdown());
        let unswapped = format!("# T\n\n{}{}", a.to_markdown(), b.to_markdown());
        assert_eq!(differing_rows(&unswapped, &swapped).len(), 1);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.271, 1), "27.1%");
        assert_eq!(sci(3.3e-22), "3.3e-22");
    }
}
