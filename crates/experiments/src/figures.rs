//! Renderers for the paper's evaluation figures (6, 8, 9, 10, 11, 12).
//!
//! Each figure's machines are defined once, in `scenarios/<name>.json`; a
//! renderer reads that scenario's results from a [`Lab`]. Every speedup
//! divides by the configuration labelled `baseline`, and
//! [`check_figure`] says which files a renderer can draw.

use crate::lab::{geomean, Lab, SuiteMeans};
use contopt_sim::workloads::{suite, Suite, Workload};
use contopt_sim::{JsonValue, MachineConfig, Scenario, ScenarioConfig, ToJson, ALL_WORKLOADS};
use std::fmt;

/// The configuration every speedup divides by.
const BASELINE: &str = "baseline";

/// The configuration Figure 6 and Table 3 read.
pub(crate) const OPTIMIZED: &str = "optimized";

/// Why a renderer cannot draw a scenario file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FigureError {
    /// The configuration with this label runs something other than the
    /// whole suite, `["*"]`.
    NotWholeSuite(String),
    /// No configuration carries this label, which the renderer reads.
    MissingLabel(&'static str),
}

impl fmt::Display for FigureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FigureError::NotWholeSuite(label) => write!(
                f,
                "configuration {label:?} must run the whole suite, [\"{ALL_WORKLOADS}\"]"
            ),
            FigureError::MissingLabel(label) => {
                write!(f, "no configuration is labelled {label:?}")
            }
        }
    }
}

impl std::error::Error for FigureError {}

/// Checks that the renderer for `figure` (`"fig6"`, `"fig8"`…`"fig12"`
/// or `"table3"`) can draw `sc`: every configuration runs exactly the
/// whole suite (`["*"]`), and the labels the renderer reads exist —
/// `baseline` for the figures, `optimized` for Figure 6 and Table 3. The
/// renderers call it first, and `contopt-experiments` calls it on every
/// figure file before any cell simulates.
pub fn check_figure(figure: &str, sc: &Scenario) -> Result<(), FigureError> {
    if let Some(cfg) = sc.configs.iter().find(|c| c.workloads != [ALL_WORKLOADS]) {
        return Err(FigureError::NotWholeSuite(cfg.label.clone()));
    }
    let reads: &[&'static str] = match figure {
        "fig6" => &[BASELINE, OPTIMIZED],
        "table3" => &[OPTIMIZED],
        _ => &[BASELINE],
    };
    for label in reads {
        labelled(sc, label)?;
    }
    Ok(())
}

/// The configuration of `sc` labelled `label`.
pub(crate) fn labelled<'a>(
    sc: &'a Scenario,
    label: &'static str,
) -> Result<&'a ScenarioConfig, FigureError> {
    sc.configs
        .iter()
        .find(|c| c.label == label)
        .ok_or(FigureError::MissingLabel(label))
}

/// `cfg`'s speedup over `base` on every suite workload, in Table 1 order.
#[expect(
    clippy::expect_used,
    reason = "both reports simulate the same workload"
)]
fn speedups(lab: &mut Lab, cfg: MachineConfig, base: MachineConfig) -> Vec<(Workload, f64)> {
    suite()
        .into_iter()
        .map(|w| {
            let b = lab.run(base, &w);
            let s = lab
                .run(cfg, &w)
                .speedup_over(&b)
                .expect("same workload under both configurations");
            (w, s)
        })
        .collect()
}

/// Per-suite geometric means of per-workload speedups.
fn suite_means(speedups: &[(Workload, f64)]) -> SuiteMeans {
    let mean = |suite: Suite| {
        let of_suite: Vec<f64> = speedups
            .iter()
            .filter(|(w, _)| w.suite == suite)
            .map(|&(_, s)| s)
            .collect();
        geomean(&of_suite)
    };
    SuiteMeans {
        specint: mean(Suite::SpecInt),
        specfp: mean(Suite::SpecFp),
        mediabench: mean(Suite::MediaBench),
    }
}

/// Figure 6 — speedup of continuous optimization over the baseline, per
/// benchmark, with per-suite averages.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// `(suite, name, speedup)` per benchmark, in Table 1 order.
    pub rows: Vec<(String, String, f64)>,
    /// Per-suite geometric means.
    pub means: SuiteMeans,
}

impl ToJson for Fig6 {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            (
                "rows",
                JsonValue::arr(self.rows.iter().map(|(suite, name, s)| {
                    JsonValue::obj([
                        ("suite", suite.as_str().into()),
                        ("name", name.as_str().into()),
                        ("speedup", (*s).into()),
                    ])
                })),
            ),
            ("means", self.means.to_json()),
        ])
    }
}

/// Renders Figure 6 from `scenarios/fig6.json`: `optimized` over
/// `baseline`.
pub fn fig6(lab: &mut Lab, sc: &Scenario) -> Result<Fig6, FigureError> {
    check_figure("fig6", sc)?;
    let base = labelled(sc, BASELINE)?.machine;
    let opt = labelled(sc, OPTIMIZED)?.machine;
    let speedups = speedups(lab, opt, base);
    let rows = speedups
        .iter()
        .map(|(w, s)| (w.suite.to_string(), w.name.to_string(), *s))
        .collect();
    let means = suite_means(&speedups);
    Ok(Fig6 { rows, means })
}

fn bar(f: &mut fmt::Formatter<'_>, label: &str, v: f64) -> fmt::Result {
    let n = ((v - 0.9).max(0.0) * 100.0).round() as usize;
    writeln!(f, "  {label:<8} {v:>6.3}  |{}", "#".repeat(n.min(60)))
}

impl fmt::Display for Fig6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 6. Speedup of continuous optimization over baseline"
        )?;
        writeln!(f, "(bars start at 0.9; geometric-mean suite averages)")?;
        // The Table 1 suites get a geometric-mean bar; the extra
        // text-format kernels have no suite average in the paper's figure.
        let mean_for = |suite: &str| match suite {
            "SPECint" => Some(self.means.specint),
            "SPECfp" => Some(self.means.specfp),
            "mediabench" => Some(self.means.mediabench),
            _ => None,
        };
        let mut last = String::new();
        for (suite, name, v) in &self.rows {
            if *suite != last {
                if let Some(m) = mean_for(&last) {
                    bar(f, "avg", m)?;
                }
                writeln!(f, "{suite}:")?;
                last = suite.clone();
            }
            bar(f, name, *v)?;
        }
        if let Some(m) = mean_for(&last) {
            bar(f, "avg", m)?;
        }
        Ok(())
    }
}

/// Speedup bars for a multi-configuration figure, one row per suite.
#[derive(Debug, Clone)]
pub struct SuiteFigure {
    /// Figure title.
    pub title: String,
    /// Bar labels, in order.
    pub labels: Vec<String>,
    /// `labels.len()` speedups per suite: (SPECint, SPECfp, mediabench).
    pub bars: Vec<(String, Vec<f64>)>,
}

impl SuiteFigure {
    /// Draws `sc` as one bar group per configuration other than
    /// `baseline`, in file order and under its label: the per-suite
    /// speedup over `baseline`.
    fn render(
        figure: &str,
        title: &str,
        lab: &mut Lab,
        sc: &Scenario,
    ) -> Result<SuiteFigure, FigureError> {
        check_figure(figure, sc)?;
        let base = labelled(sc, BASELINE)?.machine;
        let (labels, means): (Vec<String>, Vec<SuiteMeans>) = sc
            .configs
            .iter()
            .filter(|c| c.label != BASELINE)
            .map(|c| {
                let means = suite_means(&speedups(lab, c.machine, base));
                (c.label.clone(), means)
            })
            .unzip();
        let bars = [
            (
                Suite::SpecInt.to_string(),
                means.iter().map(|m| m.specint).collect(),
            ),
            (
                Suite::SpecFp.to_string(),
                means.iter().map(|m| m.specfp).collect(),
            ),
            (
                Suite::MediaBench.to_string(),
                means.iter().map(|m| m.mediabench).collect(),
            ),
        ];
        Ok(SuiteFigure {
            title: title.to_string(),
            labels,
            bars: bars.into(),
        })
    }

    /// The speedups for one suite, in label order.
    #[expect(
        clippy::expect_used,
        reason = "figure rows cover every suite by construction"
    )]
    pub fn suite(&self, s: Suite) -> &[f64] {
        &self
            .bars
            .iter()
            .find(|(name, _)| *name == s.to_string())
            .expect("suite present")
            .1
    }
}

impl ToJson for SuiteFigure {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("title", self.title.as_str().into()),
            (
                "labels",
                JsonValue::arr(self.labels.iter().map(|l| l.as_str().into())),
            ),
            (
                "bars",
                JsonValue::arr(self.bars.iter().map(|(suite, vals)| {
                    JsonValue::obj([
                        ("suite", suite.as_str().into()),
                        ("speedups", JsonValue::arr(vals.iter().map(|&v| v.into()))),
                    ])
                })),
            ),
        ])
    }
}

impl fmt::Display for SuiteFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        write!(f, "{:<12}", "")?;
        for l in &self.labels {
            write!(f, "{l:>16}")?;
        }
        writeln!(f)?;
        for (suite, vals) in &self.bars {
            write!(f, "{suite:<12}")?;
            for v in vals {
                write!(f, "{v:>16.3}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Renders Figure 8 from `scenarios/fig8.json` — performance on
/// fetch-bound and execution-bound machine models, all relative to the
/// default baseline.
pub fn fig8(lab: &mut Lab, sc: &Scenario) -> Result<SuiteFigure, FigureError> {
    SuiteFigure::render(
        "fig8",
        "Figure 8. Performance relative to various machine configurations",
        lab,
        sc,
    )
}

/// Renders Figure 9 from `scenarios/fig9.json` — value feedback alone
/// versus feedback plus optimization.
pub fn fig9(lab: &mut Lab, sc: &Scenario) -> Result<SuiteFigure, FigureError> {
    SuiteFigure::render(
        "fig9",
        "Figure 9. Continuous optimization vs. value feedback",
        lab,
        sc,
    )
}

/// Renders Figure 10 from `scenarios/fig10.json` — sensitivity to
/// intra-bundle dependence depth.
pub fn fig10(lab: &mut Lab, sc: &Scenario) -> Result<SuiteFigure, FigureError> {
    SuiteFigure::render(
        "fig10",
        "Figure 10. Importance of processing dependent instructions in parallel",
        lab,
        sc,
    )
}

/// Renders Figure 11 from `scenarios/fig11.json` — sensitivity to the
/// optimizer's extra pipeline stages.
pub fn fig11(lab: &mut Lab, sc: &Scenario) -> Result<SuiteFigure, FigureError> {
    SuiteFigure::render("fig11", "Figure 11. Optimizer latency sensitivity", lab, sc)
}

/// Renders Figure 12 from `scenarios/fig12.json` — sensitivity to the
/// value-feedback transmission delay.
pub fn fig12(lab: &mut Lab, sc: &Scenario) -> Result<SuiteFigure, FigureError> {
    SuiteFigure::render(
        "fig12",
        "Figure 12. Performance sensitivity to value feedback transmission delay",
        lab,
        sc,
    )
}
