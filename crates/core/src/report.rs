//! ASCII report tables, used by every bench target to print paper-style
//! tables and figure series.

use std::fmt;

/// A simple column-aligned text table.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header arity.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity must match headers"
        );
        self.rows.push(cells.to_vec());
        self
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let sep: String = {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s
        };
        writeln!(f, "## {}", self.title)?;
        writeln!(f, "{sep}")?;
        write!(f, "|")?;
        for (header, w) in self.headers.iter().zip(&widths) {
            write!(f, " {header:<w$} |")?;
        }
        writeln!(f)?;
        writeln!(f, "{sep}")?;
        for row in &self.rows {
            write!(f, "|")?;
            for (i, cell) in row.iter().enumerate() {
                write!(f, " {:<width$} |", cell, width = widths[i])?;
            }
            writeln!(f)?;
        }
        writeln!(f, "{sep}")
    }
}

/// Format a float with engineering-friendly precision: integers up to
/// thousands separate naturally, small values keep detail.
pub fn fnum(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else if v.abs() >= 0.01 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

/// Format dollars.
pub fn fmoney(v: f64) -> String {
    format!("${v:.4}")
}

/// Format seconds.
pub fn fsecs(v: f64) -> String {
    format!("{v:.1}s")
}

/// Format a [`cb_load::Summary`] as `mean ± ci95 (cv N%)` — the standard
/// cell for multi-seed aggregate tables.
fn fsummary(s: &cb_load::Summary) -> String {
    if s.n < 2 {
        return fnum(s.mean);
    }
    format!(
        "{} ± {} (cv {:.1}%)",
        fnum(s.mean),
        fnum(s.ci95),
        s.cv * 100.0
    )
}

/// Render a multi-run aggregate table: one row per labelled metric summary.
pub fn summary_table(title: &str, rows: &[(&str, cb_load::Summary)]) -> Table {
    let mut t = Table::new(title, &["metric", "mean ± 95% CI", "stddev", "n"]);
    for (name, s) in rows {
        t.row(&[
            name.to_string(),
            fsummary(s),
            fnum(s.stddev),
            s.n.to_string(),
        ]);
    }
    t
}

/// Print a labelled numeric series (figure data) as one line per point.
pub fn print_series(title: &str, xlabel: &str, xs: &[String], series: &[(&str, Vec<f64>)]) {
    println!("## {title}");
    print!("{xlabel:>12}");
    for (name, _) in series {
        print!(" {name:>14}");
    }
    println!();
    for (i, x) in xs.iter().enumerate() {
        print!("{x:>12}");
        for (_, ys) in series {
            let v = ys.get(i).copied().unwrap_or(f64::NAN);
            print!(" {:>14}", fnum(v));
        }
        println!();
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["System", "TPS", "Cost"]);
        t.row(&["AWS RDS".into(), "12382".into(), "$0.0437".into()]);
        t.row(&["CDB4".into(), "36995".into(), "$0.0797".into()]);
        let s = t.to_string();
        assert!(s.contains("## Demo"));
        assert!(s.contains("| AWS RDS |"));
        assert!(s.contains("| CDB4    |"), "{s}");
        assert_eq!(t.rows.len(), 2);
        // Every line between separators has the same width.
        let lines: Vec<&str> = s.lines().skip(1).collect();
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w), "{s}");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn summary_table_renders_aggregates() {
        let s = cb_load::Summary::of(&[100.0, 110.0, 120.0]);
        let t = summary_table("Aggregate", &[("tps", s)]);
        let out = t.to_string();
        assert!(out.contains("tps"), "{out}");
        assert!(out.contains("±"), "{out}");
        assert!(out.contains("cv"), "{out}");
        // Singleton summaries degrade to a bare mean.
        let one = cb_load::Summary::of(&[5.0]);
        assert_eq!(fsummary(&one), "5.000");
    }

    #[test]
    fn number_formatting() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(378354.2), "378354");
        assert_eq!(fnum(17.71), "17.7");
        assert_eq!(fnum(1.5), "1.500");
        assert_eq!(fnum(0.00123), "0.00123");
        assert_eq!(fmoney(0.0437), "$0.0437");
        assert_eq!(fsecs(2.5), "2.5s");
    }
}
