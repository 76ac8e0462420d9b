//! Rendering figures to aligned text tables and CSV files.

use crate::figures::{Figure, Point, Series};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Repetitions per data point (the paper uses 3).
pub const REPS: usize = 3;

/// Artifact-safe file stem for a scenario display name.
pub fn slug(name: &str) -> String {
    name.to_ascii_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

/// Render a figure as an aligned text table (series as columns).
pub fn render_text(fig: &Figure) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} [{}] ==", fig.title, fig.id);
    let _ = writeln!(out, "   y: {}", fig.y_label);
    // header
    let _ = write!(out, "{:>24}", fig.x_label);
    for s in &fig.series {
        let _ = write!(out, " | {:>24}", s.name);
    }
    let _ = writeln!(out);
    // x values union (series share x in our sweeps)
    let xs: Vec<f64> = fig
        .series
        .first()
        .map(|s| s.points.iter().map(|p| p.x).collect())
        .unwrap_or_default();
    for (i, x) in xs.iter().enumerate() {
        let _ = write!(out, "{x:>24}");
        for s in &fig.series {
            match s.points.get(i) {
                Some(p) => {
                    let cell = format!("{:.2} ± {:.2}", p.mean, p.std);
                    let _ = write!(out, " | {cell:>24}");
                }
                None => {
                    let _ = write!(out, " | {:>24}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Render a figure as CSV (`series,x,mean,std`).
pub fn render_csv(fig: &Figure) -> String {
    let mut out = String::from("series,x,mean,std\n");
    for s in &fig.series {
        for p in &s.points {
            let _ = writeln!(
                out,
                "{},{},{:.6},{:.6}",
                s.name.replace(',', ";"),
                p.x,
                p.mean,
                p.std
            );
        }
    }
    out
}

/// Write a figure's CSV under `dir/<id>.csv`.
pub fn save_csv(fig: &Figure, dir: &Path) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join(format!("{}.csv", fig.id)), render_csv(fig))
}

/// Read back a figure written by [`save_csv`]: the id is the file stem
/// and the series keep the order they have in the file.  Titles and
/// axis labels are not stored, so they come back empty.  `None` when the
/// file cannot be read or a row does not parse.
pub fn load_csv(path: &Path) -> Option<Figure> {
    let id = path.file_stem()?.to_str()?.to_string();
    let text = fs::read_to_string(path).ok()?;
    let mut series: Vec<Series> = Vec::new();
    for line in text.lines().skip(1) {
        let mut parts = line.rsplitn(4, ',');
        let std: f64 = parts.next()?.parse().ok()?;
        let mean: f64 = parts.next()?.parse().ok()?;
        let x: f64 = parts.next()?.parse().ok()?;
        let name = parts.next()?;
        let point = Point { x, mean, std };
        match series.iter_mut().find(|s| s.name == name) {
            Some(s) => s.points.push(point),
            None => series.push(Series {
                name: name.to_string(),
                points: vec![point],
            }),
        }
    }
    Some(Figure {
        id,
        title: String::new(),
        x_label: String::new(),
        y_label: String::new(),
        series,
    })
}

/// Every figure [`load_csv`] can read from the `*.csv` files of `dir`,
/// in file-name order.
pub fn load_dir(dir: &Path) -> std::io::Result<Vec<Figure>> {
    let mut paths: Vec<_> = fs::read_dir(dir)?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "csv"))
        .collect();
    paths.sort();
    Ok(paths.iter().filter_map(|p| load_csv(p)).collect())
}

/// Write a traced run's artifacts under `dir`: the Chrome trace as
/// `<stem>.trace.json` (load in Perfetto or `chrome://tracing`) and the
/// critical-path report as `<stem>.critical-path.txt`.  Both files are
/// byte-identical across replays of the same run.
pub fn save_trace(
    exports: &crate::runreport::SpanExports,
    dir: &Path,
    stem: &str,
) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join(format!("{stem}.trace.json")), &exports.chrome_json)?;
    fs::write(
        dir.join(format!("{stem}.critical-path.txt")),
        &exports.critical_path,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{Point, Series};

    fn fig() -> Figure {
        Figure {
            id: "t1".into(),
            title: "Test".into(),
            x_label: "x".into(),
            y_label: "GiB/s".into(),
            series: vec![
                Series {
                    name: "a".into(),
                    points: vec![
                        Point {
                            x: 1.0,
                            mean: 2.5,
                            std: 0.1,
                        },
                        Point {
                            x: 2.0,
                            mean: 5.0,
                            std: 0.2,
                        },
                    ],
                },
                Series {
                    name: "b".into(),
                    points: vec![Point {
                        x: 1.0,
                        mean: 1.0,
                        std: 0.0,
                    }],
                },
            ],
        }
    }

    #[test]
    fn text_contains_all_cells() {
        let t = render_text(&fig());
        assert!(t.contains("Test"));
        assert!(t.contains("2.50 ± 0.10"));
        assert!(t.contains("5.00 ± 0.20"));
        assert!(t.contains('-'), "missing point rendered as dash");
    }

    #[test]
    fn csv_rows() {
        let c = render_csv(&fig());
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines.len(), 4, "header + 3 points");
        assert_eq!(lines[0], "series,x,mean,std");
        assert!(lines[1].starts_with("a,1,"));
    }

    #[test]
    fn save_writes_file() {
        let dir = std::env::temp_dir().join("benchkit-test-csv");
        let _ = std::fs::remove_dir_all(&dir);
        save_csv(&fig(), &dir).unwrap();
        let s = std::fs::read_to_string(dir.join("t1.csv")).unwrap();
        assert!(s.contains("a,2,5.0"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Render a figure as an ASCII line chart (y scaled to the figure's
/// peak; one glyph per series).  Good enough to eyeball every shape the
/// paper's figures show — saturation, plateaus, crossovers.
pub fn render_chart(fig: &Figure, width: usize, height: usize) -> String {
    use std::fmt::Write as _;
    let glyphs = ['o', 'x', '+', '*', '#', '@', '%', '&'];
    let xs: Vec<f64> = fig
        .series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.x))
        .collect();
    let ys: Vec<f64> = fig
        .series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.mean))
        .collect();
    if xs.is_empty() {
        return String::new();
    }
    let (xmin, xmax) = xs
        .iter()
        .fold((f64::MAX, f64::MIN), |(a, b), &v| (a.min(v), b.max(v)));
    let ymax = ys.iter().fold(0.0f64, |a, &v| a.max(v)).max(1e-12);
    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in fig.series.iter().enumerate() {
        let g = glyphs[si % glyphs.len()];
        for p in &s.points {
            let xf = if xmax > xmin {
                (p.x - xmin) / (xmax - xmin)
            } else {
                0.0
            };
            let yf = (p.mean / ymax).clamp(0.0, 1.0);
            let col = (xf * (width - 1) as f64).round() as usize;
            let row = height - 1 - (yf * (height - 1) as f64).round() as usize;
            grid[row][col] = g;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{} [{}]", fig.title, fig.id);
    let _ = writeln!(out, "{ymax:>8.1} ┤");
    for row in &grid {
        let line: String = row.iter().collect();
        let _ = writeln!(out, "         │{line}");
    }
    let _ = writeln!(out, "{:>8.1} └{}", 0.0, "─".repeat(width));
    let _ = writeln!(out, "          x: {} ({xmin} .. {xmax})", fig.x_label);
    for (si, s) in fig.series.iter().enumerate() {
        let _ = writeln!(out, "          {} {}", glyphs[si % glyphs.len()], s.name);
    }
    out
}

#[cfg(test)]
mod chart_tests {
    use super::*;
    use crate::figures::{Figure, Point, Series};

    #[test]
    fn chart_places_extremes() {
        let fig = Figure {
            id: "c".into(),
            title: "Chart".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![Series {
                name: "s".into(),
                points: vec![
                    Point {
                        x: 1.0,
                        mean: 0.0,
                        std: 0.0,
                    },
                    Point {
                        x: 32.0,
                        mean: 100.0,
                        std: 0.0,
                    },
                ],
            }],
        };
        let chart = render_chart(&fig, 40, 10);
        let lines: Vec<&str> = chart.lines().collect();
        // peak in the top grid row, zero in the bottom grid row
        assert!(lines[2].contains('o'), "top row has the peak: {chart}");
        assert!(lines[11].contains('o'), "bottom row has the zero: {chart}");
        assert!(chart.contains("s"), "legend present");
    }

    #[test]
    fn empty_figure_renders_empty() {
        let fig = Figure {
            id: "e".into(),
            title: "Empty".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![],
        };
        assert!(render_chart(&fig, 10, 5).is_empty());
    }
}
