//! Static SVG renderer for the figure data — turns the `results/*.txt`
//! CSV blocks into line/bar charts so the paper's figures exist as
//! figures again.
//!
//! Design follows the data-viz method: form first (line for parameter
//! sweeps, horizontal bars for categorical comparisons), a validated
//! categorical palette in fixed slot order (never cycled), thin marks
//! (2 px lines, small round markers, 4 px rounded bar data-ends), one
//! y-axis anchored at zero, recessive grid, text in text tokens (never
//! the series color), a legend whenever there are ≥ 2 series plus
//! direct end-labels when ≤ 4. Three palette slots sit below 3:1
//! contrast on the light surface, so charts always ship alongside the
//! CSV table view (the relief rule).

/// A labelled series (one curve of a chart).
#[derive(Debug, Clone)]
pub struct Series {
    /// Curve label (algorithm or distribution name).
    pub label: String,
    /// (x, milliseconds) points.
    pub points: Vec<(f64, f64)>,
}

/// Categorical palette, light mode, fixed slot order (validated: worst
/// adjacent CVD ΔE 24.2; aqua/yellow/magenta carry the contrast WARN —
/// relieved by direct labels + the CSV table view).
const PALETTE: [&str; 8] = [
    "#2a78d6", "#1baf7a", "#eda100", "#008300", "#4a3aa7", "#e34948", "#e87ba4", "#eb6834",
];
const SURFACE: &str = "#fcfcfb";
const GRID: &str = "#e5e4e0";
const TEXT_PRIMARY: &str = "#0b0b0b";
const TEXT_SECONDARY: &str = "#52514e";

const W: f64 = 720.0;
const H: f64 = 440.0;
const ML: f64 = 64.0; // left margin (y labels)
const MR: f64 = 150.0; // right margin (legend)
const MT: f64 = 44.0; // top (title)
const MB: f64 = 52.0; // bottom (x labels)

/// A chart specification rendered to standalone SVG.
pub struct Chart {
    /// Chart title (plain text).
    pub title: String,
    /// x-axis label.
    pub x_label: String,
    /// y-axis label.
    pub y_label: String,
    /// One entry per series, palette slots assigned in order.
    pub series: Vec<Series>,
    /// Use a log₂ x-axis (message-length sweeps).
    pub log_x: bool,
}

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// "Nice" tick step ≈ range/5.
fn nice_step(range: f64) -> f64 {
    if range <= 0.0 {
        return 1.0;
    }
    let raw = range / 5.0;
    let mag = 10f64.powf(raw.log10().floor());
    let norm = raw / mag;
    let n = if norm <= 1.0 {
        1.0
    } else if norm <= 2.0 {
        2.0
    } else if norm <= 5.0 {
        5.0
    } else {
        10.0
    };
    n * mag
}

fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        let s = format!("{v:.1}");
        s.strip_suffix(".0").unwrap_or(&s).to_string()
    } else {
        format!("{v:.2}")
    }
}

impl Chart {
    /// Render a line chart (the default for parameter sweeps).
    pub fn to_svg(&self) -> String {
        let mut out = self.open_svg();
        let plot_w = W - ML - MR;
        let plot_h = H - MT - MB;

        // Data ranges. y is anchored at 0 (magnitude encoding).
        let xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(x, _)| self.tx(x)))
            .collect();
        let ys: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(_, y)| y))
            .collect();
        if xs.is_empty() {
            out.push_str("</svg>\n");
            return out;
        }
        let (x_min, x_max) = (
            xs.iter().cloned().fold(f64::MAX, f64::min),
            xs.iter().cloned().fold(f64::MIN, f64::max),
        );
        let y_min = ys.iter().cloned().fold(f64::MAX, f64::min).min(0.0);
        let y_max = ys.iter().cloned().fold(f64::MIN, f64::max).max(1e-9);
        let x_span = (x_max - x_min).max(1e-9);
        let y_span = (y_max - y_min).max(1e-9);
        let px = |x: f64| ML + (x - x_min) / x_span * plot_w;
        let py = |y: f64| MT + plot_h - (y - y_min) / y_span * plot_h;

        // Recessive horizontal grid + y tick labels.
        let step = nice_step(y_span);
        let mut t = (y_min / step).ceil() * step;
        while t <= y_max + 1e-9 {
            let y = py(t);
            out.push_str(&format!(
                "<line x1='{ML}' y1='{y:.1}' x2='{:.1}' y2='{y:.1}' stroke='{GRID}' stroke-width='1'/>\n",
                ML + plot_w
            ));
            out.push_str(&format!(
                "<text x='{:.1}' y='{:.1}' font-size='11' fill='{TEXT_SECONDARY}' text-anchor='end'>{}</text>\n",
                ML - 8.0,
                y + 4.0,
                fmt(t)
            ));
            t += step;
        }

        // x ticks: at the data points when few, else nice steps.
        let mut tick_xs: Vec<f64> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|&(x, _)| x).collect())
            .unwrap_or_default();
        tick_xs.dedup();
        if tick_xs.len() > 9 {
            let every = tick_xs.len().div_ceil(9);
            tick_xs = tick_xs.into_iter().step_by(every).collect();
        }
        for &x in &tick_xs {
            let xx = px(self.tx(x));
            out.push_str(&format!(
                "<line x1='{xx:.1}' y1='{:.1}' x2='{xx:.1}' y2='{:.1}' stroke='{GRID}' stroke-width='1'/>\n",
                MT + plot_h,
                MT + plot_h + 4.0
            ));
            out.push_str(&format!(
                "<text x='{xx:.1}' y='{:.1}' font-size='11' fill='{TEXT_SECONDARY}' text-anchor='middle'>{}</text>\n",
                MT + plot_h + 18.0,
                fmt(x)
            ));
        }

        // Series: 2px lines, small markers with native tooltips.
        for (i, s) in self.series.iter().enumerate() {
            let color = PALETTE[i % PALETTE.len()];
            let pts: String = s
                .points
                .iter()
                .map(|&(x, y)| format!("{:.1},{:.1}", px(self.tx(x)), py(y)))
                .collect::<Vec<_>>()
                .join(" ");
            out.push_str(&format!(
                "<polyline points='{pts}' fill='none' stroke='{color}' stroke-width='2' stroke-linejoin='round'/>\n"
            ));
            for &(x, y) in &s.points {
                out.push_str(&format!(
                    "<circle cx='{:.1}' cy='{:.1}' r='3.5' fill='{color}' stroke='{SURFACE}' stroke-width='2'><title>{}: {} @ {}</title></circle>\n",
                    px(self.tx(x)),
                    py(y),
                    esc(&s.label),
                    fmt(y),
                    fmt(x)
                ));
            }
            // Direct end-label when few series (relief for low-contrast slots).
            if self.series.len() <= 4 {
                if let Some(&(x, y)) = s.points.last() {
                    out.push_str(&format!(
                        "<text x='{:.1}' y='{:.1}' font-size='11' fill='{TEXT_PRIMARY}'>{}</text>\n",
                        px(self.tx(x)) + 8.0,
                        py(y) + 4.0,
                        esc(&s.label)
                    ));
                }
            }
        }

        self.axes_legend(&mut out, plot_w, plot_h);
        out.push_str("</svg>\n");
        out
    }

    /// Render a grouped horizontal bar chart (categorical x).
    pub fn to_svg_bars(
        categories: &[String],
        series: &[Series],
        title: &str,
        x_label: &str,
    ) -> String {
        let chart = Chart {
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: String::new(),
            series: series.to_vec(),
            log_x: false,
        };
        let mut out = chart.open_svg();
        let plot_w = W - ML - MR;
        let plot_h = H - MT - MB;
        let v_max = series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(_, v)| v))
            .fold(f64::MIN, f64::max)
            .max(1e-9);
        let n_groups = categories.len().max(1);
        let n_series = series.len().max(1);
        let group_h = plot_h / n_groups as f64;
        let bar_h = ((group_h - 8.0) / n_series as f64 - 2.0).clamp(4.0, 18.0);

        // Vertical grid + value ticks.
        let step = nice_step(v_max);
        let mut t = 0.0;
        while t <= v_max + 1e-9 {
            let x = ML + t / v_max * plot_w;
            out.push_str(&format!(
                "<line x1='{x:.1}' y1='{MT}' x2='{x:.1}' y2='{:.1}' stroke='{GRID}' stroke-width='1'/>\n",
                MT + plot_h
            ));
            out.push_str(&format!(
                "<text x='{x:.1}' y='{:.1}' font-size='11' fill='{TEXT_SECONDARY}' text-anchor='middle'>{}</text>\n",
                MT + plot_h + 18.0,
                fmt(t)
            ));
            t += step;
        }

        for (g, cat) in categories.iter().enumerate() {
            let gy = MT + g as f64 * group_h;
            out.push_str(&format!(
                "<text x='{:.1}' y='{:.1}' font-size='11' fill='{TEXT_PRIMARY}' text-anchor='end'>{}</text>\n",
                ML - 8.0,
                gy + group_h / 2.0 + 4.0,
                esc(cat)
            ));
            for (i, s) in series.iter().enumerate() {
                let Some(&(_, v)) = s.points.get(g) else {
                    continue;
                };
                let color = PALETTE[i % PALETTE.len()];
                let w = (v / v_max * plot_w).max(1.0);
                let y = gy + 4.0 + i as f64 * (bar_h + 2.0);
                // 4px rounded data-end, square at the baseline.
                out.push_str(&format!(
                    "<path d='M{ML} {y:.1} h{:.1} a4 4 0 0 1 4 4 v{:.1} a4 4 0 0 1 -4 4 h-{:.1} z' fill='{color}'><title>{}: {}</title></path>\n",
                    (w - 4.0).max(0.0),
                    (bar_h - 8.0).max(0.0),
                    (w - 4.0).max(0.0),
                    esc(&s.label),
                    fmt(v)
                ));
                // Direct value label in text ink.
                out.push_str(&format!(
                    "<text x='{:.1}' y='{:.1}' font-size='10' fill='{TEXT_SECONDARY}'>{}</text>\n",
                    ML + w + 6.0,
                    y + bar_h / 2.0 + 3.5,
                    fmt(v)
                ));
            }
        }

        chart.axes_legend(&mut out, plot_w, plot_h);
        out.push_str("</svg>\n");
        out
    }

    fn tx(&self, x: f64) -> f64 {
        if self.log_x {
            x.max(1e-9).log2()
        } else {
            x
        }
    }

    fn open_svg(&self) -> String {
        let mut out = format!(
            "<svg xmlns='http://www.w3.org/2000/svg' width='{W}' height='{H}' viewBox='0 0 {W} {H}' font-family='system-ui, sans-serif'>\n"
        );
        out.push_str(&format!(
            "<rect width='{W}' height='{H}' fill='{SURFACE}'/>\n"
        ));
        out.push_str(&format!(
            "<text x='{ML}' y='24' font-size='13' font-weight='600' fill='{TEXT_PRIMARY}'>{}</text>\n",
            esc(&self.title)
        ));
        out
    }

    fn axes_legend(&self, out: &mut String, plot_w: f64, plot_h: f64) {
        // Axis lines (recessive).
        out.push_str(&format!(
            "<line x1='{ML}' y1='{MT}' x2='{ML}' y2='{:.1}' stroke='{GRID}' stroke-width='1'/>\n",
            MT + plot_h
        ));
        out.push_str(&format!(
            "<line x1='{ML}' y1='{:.1}' x2='{:.1}' y2='{:.1}' stroke='{TEXT_SECONDARY}' stroke-width='1'/>\n",
            MT + plot_h,
            ML + plot_w,
            MT + plot_h
        ));
        // Axis titles.
        out.push_str(&format!(
            "<text x='{:.1}' y='{:.1}' font-size='11' fill='{TEXT_SECONDARY}' text-anchor='middle'>{}</text>\n",
            ML + plot_w / 2.0,
            H - 14.0,
            esc(&self.x_label)
        ));
        if !self.y_label.is_empty() {
            out.push_str(&format!(
                "<text x='16' y='{:.1}' font-size='11' fill='{TEXT_SECONDARY}' transform='rotate(-90 16 {:.1})' text-anchor='middle'>{}</text>\n",
                MT + plot_h / 2.0,
                MT + plot_h / 2.0,
                esc(&self.y_label)
            ));
        }
        // Legend (always for ≥2 series).
        if self.series.len() >= 2 {
            let lx = ML + plot_w + 16.0;
            for (i, s) in self.series.iter().enumerate() {
                let y = MT + 10.0 + i as f64 * 20.0;
                let color = PALETTE[i % PALETTE.len()];
                out.push_str(&format!(
                    "<rect x='{lx:.1}' y='{:.1}' width='12' height='12' rx='3' fill='{color}'/>\n",
                    y - 9.0
                ));
                out.push_str(&format!(
                    "<text x='{:.1}' y='{y:.1}' font-size='11' fill='{TEXT_PRIMARY}'>{}</text>\n",
                    lx + 18.0,
                    esc(&s.label)
                ));
            }
        }
    }
}

/// One parsed CSV block from a `results/*.txt` file.
#[derive(Debug, Clone)]
pub struct CsvBlock {
    /// The `# ...` title line.
    pub title: String,
    /// First header column (x-axis name).
    pub x_name: String,
    /// Series labels (remaining header columns).
    pub labels: Vec<String>,
    /// Row keys (numeric or categorical).
    pub row_keys: Vec<String>,
    /// `values[row][series]`.
    pub values: Vec<Vec<f64>>,
}

impl CsvBlock {
    /// Whether every row key parses as a number (line chart vs bars).
    pub fn numeric_x(&self) -> bool {
        self.row_keys.iter().all(|k| k.parse::<f64>().is_ok())
    }

    /// Convert to chart series (numeric x only).
    pub fn to_series(&self) -> Vec<Series> {
        self.series(|_, key| key.parse::<f64>().unwrap_or(0.0))
    }

    /// Convert to bar-chart series (one point per category, x = index).
    pub fn to_bar_series(&self) -> Vec<Series> {
        self.series(|g, _| g as f64)
    }

    /// One series per label, `x(row index, row key)` on the x axis.
    fn series(&self, x: impl Fn(usize, &str) -> f64) -> Vec<Series> {
        let rows = || self.row_keys.iter().zip(&self.values).enumerate();
        let points = |i: usize| rows().map(|(g, (k, row))| (x(g, k), row[i])).collect();
        let series = |(i, label): (usize, &String)| Series {
            label: label.clone(),
            points: points(i),
        };
        self.labels.iter().enumerate().map(series).collect()
    }
}

/// Parse the CSV format the figures write: one or more blocks, each a
/// `# title` line, a header row, then data rows. Non-CSV lines are
/// skipped. Returns the blocks found.
pub fn parse_csv_blocks(text: &str) -> Vec<CsvBlock> {
    let mut blocks = Vec::new();
    let mut title: Option<String> = None;
    let mut header: Option<Vec<String>> = None;
    let mut keys: Vec<String> = Vec::new();
    let mut values: Vec<Vec<f64>> = Vec::new();

    let mut flush = |title: &mut Option<String>,
                     header: &mut Option<Vec<String>>,
                     keys: &mut Vec<String>,
                     values: &mut Vec<Vec<f64>>| {
        if let (Some(t), Some(h)) = (title.take(), header.take()) {
            if !values.is_empty() && h.len() >= 2 {
                blocks.push(CsvBlock {
                    title: t,
                    x_name: h[0].clone(),
                    labels: h[1..].to_vec(),
                    row_keys: std::mem::take(keys),
                    values: std::mem::take(values),
                });
            }
        }
        keys.clear();
        values.clear();
    };

    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            flush(&mut title, &mut header, &mut keys, &mut values);
            title = Some(rest.to_string());
            header = None;
            continue;
        }
        if title.is_none() {
            continue;
        }
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() < 2 {
            continue;
        }
        if header.is_none() {
            header = Some(cells.iter().map(|c| c.to_string()).collect());
            continue;
        }
        let parsed: Option<Vec<f64>> = cells[1..].iter().map(|c| c.parse::<f64>().ok()).collect();
        if let Some(row) = parsed {
            if row.len() == header.as_ref().unwrap().len() - 1 {
                keys.push(cells[0].to_string());
                values.push(row);
            }
        }
    }
    flush(&mut title, &mut header, &mut keys, &mut values);
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_chart() -> Chart {
        Chart {
            title: "test".into(),
            x_label: "s".into(),
            y_label: "ms".into(),
            series: vec![
                Series {
                    label: "A".into(),
                    points: vec![(1.0, 2.0), (2.0, 4.0), (3.0, 3.0)],
                },
                Series {
                    label: "B".into(),
                    points: vec![(1.0, 1.0), (2.0, 1.5), (3.0, 5.0)],
                },
            ],
            log_x: false,
        }
    }

    #[test]
    fn svg_is_well_formed_enough() {
        let svg = sample_chart().to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert_eq!(svg.matches("<circle").count(), 6);
        // legend for >= 2 series
        assert!(svg.contains(">A</text>"));
        assert!(svg.contains(">B</text>"));
    }

    #[test]
    fn marks_stay_inside_viewport() {
        let svg = sample_chart().to_svg();
        for cap in svg.split("cx='").skip(1) {
            let x: f64 = cap.split('\'').next().unwrap().parse().unwrap();
            assert!((0.0..=W).contains(&x), "cx {x} outside viewport");
        }
        for cap in svg.split("cy='").skip(1) {
            let y: f64 = cap.split('\'').next().unwrap().parse().unwrap();
            assert!((0.0..=H).contains(&y), "cy {y} outside viewport");
        }
    }

    #[test]
    fn single_series_has_no_legend_box() {
        let chart = Chart {
            series: vec![Series {
                label: "only".into(),
                points: vec![(0.0, 1.0), (1.0, 2.0)],
            }],
            ..sample_chart()
        };
        let svg = chart.to_svg();
        assert_eq!(svg.matches("<rect").count(), 1, "only the surface rect");
    }

    #[test]
    fn log_axis_compresses_exponential_sweeps() {
        let chart = Chart {
            log_x: true,
            series: vec![Series {
                label: "L".into(),
                points: vec![(32.0, 1.0), (1024.0, 2.0), (16384.0, 3.0)],
            }],
            ..sample_chart()
        };
        let svg = chart.to_svg();
        // With log-x the midpoint (1024) sits near the visual middle.
        let xs: Vec<f64> = svg
            .split("cx='")
            .skip(1)
            .map(|c| c.split('\'').next().unwrap().parse().unwrap())
            .collect();
        let mid_frac = (xs[1] - xs[0]) / (xs[2] - xs[0]);
        assert!(
            (0.4..0.8).contains(&mid_frac),
            "log spacing broken: {mid_frac}"
        );
    }

    #[test]
    fn bar_chart_renders_categories() {
        let cats = vec!["R".to_string(), "Sq".to_string()];
        let series = vec![
            Series {
                label: "Br_Lin".into(),
                points: vec![(0.0, 4.0), (1.0, 4.1)],
            },
            Series {
                label: "Br_xy".into(),
                points: vec![(0.0, 3.4), (1.0, 3.9)],
            },
        ];
        let svg = Chart::to_svg_bars(&cats, &series, "bars", "ms");
        assert!(svg.contains(">R</text>"));
        assert!(svg.contains(">Sq</text>"));
        assert_eq!(svg.matches("<path").count(), 4);
    }

    #[test]
    fn csv_parser_reads_print_figure_output() {
        let text = "# Figure X: something\ns,A,B\n1,2.5,3.5\n2,4.0,1.0\n\n# Figure Y\ndist,Z\nR,1.0\nSq,2.0\n";
        let blocks = parse_csv_blocks(text);
        assert_eq!(blocks.len(), 2);
        assert!(blocks[0].numeric_x());
        assert_eq!(blocks[0].labels, vec!["A", "B"]);
        assert_eq!(blocks[0].values[1], vec![4.0, 1.0]);
        assert!(!blocks[1].numeric_x());
        assert_eq!(blocks[1].row_keys, vec!["R", "Sq"]);
    }

    #[test]
    fn csv_parser_skips_garbage() {
        let text = "random preamble\n# T\nx,y\nnot,a,row\n1,2\n";
        let blocks = parse_csv_blocks(text);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].values, vec![vec![2.0]]);
    }

    #[test]
    fn nice_steps_are_nice() {
        assert_eq!(nice_step(10.0), 2.0);
        assert_eq!(nice_step(100.0), 20.0);
        assert_eq!(nice_step(3.0), 1.0);
        assert_eq!(nice_step(0.5), 0.1);
    }
}
