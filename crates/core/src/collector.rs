//! The performance collector's export side: turn recorded series into CSV
//! files for plotting (the paper's figures are exactly such series).

use std::io::Write;
use std::path::Path;

/// Export several named series sharing an x-axis (one figure = one file):
/// `x,name1,name2,...` rows. Shorter series pad with empty cells.
pub fn export_multi_csv(
    xlabel: &str,
    xs: &[String],
    series: &[(&str, Vec<f64>)],
    path: &Path,
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    write!(f, "{xlabel}")?;
    for (name, _) in series {
        write!(f, ",{name}")?;
    }
    writeln!(f)?;
    for (i, x) in xs.iter().enumerate() {
        write!(f, "{x}")?;
        for (_, ys) in series {
            match ys.get(i) {
                Some(v) => write!(f, ",{v}")?,
                None => write!(f, ",")?,
            }
        }
        writeln!(f)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "cloudybench-collector-{}-{name}",
            std::process::id()
        ));
        p
    }

    #[test]
    fn multi_csv_pads_short_series() {
        let path = tmp("multi.csv");
        export_multi_csv(
            "minute",
            &["0".into(), "1".into(), "2".into()],
            &[("a", vec![1.0, 2.0, 3.0]), ("b", vec![9.0])],
            &path,
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "minute,a,b");
        assert_eq!(lines[1], "0,1,9");
        assert_eq!(lines[2], "1,2,");
        std::fs::remove_file(path).ok();
    }
}
