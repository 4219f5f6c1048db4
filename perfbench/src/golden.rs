//! The output check: every row a cell produces is compared with the
//! recorded harness output under `results/golden/`, and every summary
//! line a complete pass produces must appear verbatim in its golden
//! file. The benchmark formats rows with the harnesses' own format
//! strings, so a match means the benchmark computed what the harness
//! prints.

use std::collections::HashMap;
use std::path::Path;

/// A table section a row belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Section {
    /// `table4.txt`: per-workload miss ratios.
    Table4,
    /// `table6.txt`: per-workload prediction quality.
    Table6,
    /// `fig3.txt`: per-workload normalized running times.
    Fig3,
    /// `table_staticplan.txt`, first table: the interval audit.
    StaticAudit,
    /// `table_staticplan.txt`, second table: the plan A/B.
    StaticAb,
}

/// A golden file, parsed into rows by `(section, workload name)`.
pub struct Golden {
    rows: HashMap<(Section, String), String>,
    texts: HashMap<&'static str, String>,
}

impl Golden {
    /// Reads the four golden files the workloads are checked against.
    pub fn load(dir: &Path) -> Result<Golden, String> {
        let mut g = Golden {
            rows: HashMap::new(),
            texts: HashMap::new(),
        };
        for file in ["table4", "table6", "fig3", "table_staticplan"] {
            let path = dir.join(format!("{file}.txt"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read golden file {}: {e}", path.display()))?;
            g.add(file, text);
        }
        Ok(g)
    }

    /// Parses one golden file's text (split out so tests can feed a
    /// perturbed copy).
    pub fn add(&mut self, file: &'static str, text: String) {
        let sections: &[(Section, usize, &str)] = match file {
            // Table 4's rows open the file and end at the first blank line.
            "table4" => &[(Section::Table4, 0, "")],
            "table6" => &[(Section::Table6, 1, "average")],
            "fig3" => &[(Section::Fig3, 1, "")],
            "table_staticplan" => &[
                (Section::StaticAudit, 1, "total"),
                (Section::StaticAb, 2, "geomean"),
            ],
            _ => &[],
        };
        for &(section, header, end) in sections {
            for line in rows_after_header(&text, header, end) {
                let name = line.split_whitespace().next().unwrap_or("").to_string();
                self.rows.insert((section, name), line.to_string());
            }
        }
        self.texts.insert(file, text);
    }

    /// Whether `produced` matches the golden row of `name` in `section`;
    /// `None` asserts that the golden file has no such row.
    pub fn row_ok(&self, section: Section, name: &str, produced: Option<&str>) -> bool {
        self.rows
            .get(&(section, name.to_string()))
            .map(String::as_str)
            == produced
    }

    /// Whether `line` appears verbatim in the golden `file`.
    pub fn line_ok(&self, file: &str, line: &str) -> bool {
        self.texts
            .get(file)
            .is_some_and(|t| t.lines().any(|l| l == line))
    }
}

/// The lines after the `header`-th line starting with `benchmark` (0 =
/// from the top of the file), up to a blank line or one starting with
/// `end`.
fn rows_after_header<'t>(text: &'t str, header: usize, end: &str) -> Vec<&'t str> {
    let mut seen = 0;
    let mut rows = Vec::new();
    let mut inside = header == 0;
    for line in text.lines() {
        if inside {
            if line.is_empty() || (!end.is_empty() && line.starts_with(end)) {
                if !rows.is_empty() || line.starts_with(end) {
                    break;
                }
                continue;
            }
            rows.push(line);
        } else if line.starts_with("benchmark") {
            seen += 1;
            inside = seen == header;
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden() -> Golden {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../results/golden");
        Golden::load(&dir).expect("golden files are part of the repository")
    }

    #[test]
    fn parses_every_section() {
        let g = golden();
        let count = |s: Section| g.rows.keys().filter(|(k, _)| *k == s).count();
        assert_eq!(count(Section::Table4), 32);
        assert_eq!(count(Section::Table6), 32);
        assert_eq!(count(Section::StaticAudit), 32);
        assert_eq!(count(Section::Fig3), count(Section::StaticAb));
        assert!(count(Section::Fig3) > 0);
    }

    #[test]
    fn flags_a_perturbed_row_and_an_unexpected_one() {
        let g = golden();
        let row = g.rows[&(Section::Table6, "181.mcf".to_string())].clone();
        assert!(g.row_ok(Section::Table6, "181.mcf", Some(&row)));
        let perturbed = row.replacen("55.12%", "55.13%", 1);
        assert_ne!(perturbed, row);
        assert!(!g.row_ok(Section::Table6, "181.mcf", Some(&perturbed)));
        // A workload with a Fig. 3 row must not come back without one.
        assert!(!g.row_ok(Section::Fig3, "ft", None));
        // Nor may a workload without one grow a row.
        assert!(g.row_ok(Section::Fig3, "em3d", None));
        assert!(!g.row_ok(Section::Fig3, "em3d", Some("em3d 1.000 1.000 1")));

        let mut edited = Golden {
            rows: HashMap::new(),
            texts: HashMap::new(),
        };
        let text = g.texts["fig3"].replace("UMI+SW 0.909", "UMI+SW 0.910");
        edited.add("fig3", text);
        let line = "geomean normalized time: UMI only 1.067, UMI+SW 0.909";
        assert!(g.line_ok("fig3", line));
        assert!(!edited.line_ok("fig3", line));
    }
}
